#include "util/csv.hpp"

#include <charconv>
#include <stdexcept>

namespace dlb {

std::string format_double(double value)
{
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
    if (ec != std::errc{}) throw std::runtime_error("format_double: to_chars failed");
    return std::string(buf, ptr);
}

std::vector<std::string> parse_csv_line(std::string_view line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::size_t i = 0;
    for (;;) {
        cell.clear();
        if (i < line.size() && line[i] == '"') {
            ++i; // opening quote
            for (;;) {
                if (i >= line.size())
                    throw std::invalid_argument("csv: unterminated quoted cell");
                if (line[i] == '"') {
                    if (i + 1 < line.size() && line[i + 1] == '"') {
                        cell.push_back('"'); // escaped quote
                        i += 2;
                        continue;
                    }
                    ++i; // closing quote
                    break;
                }
                cell.push_back(line[i++]);
            }
            if (i < line.size() && line[i] != ',')
                throw std::invalid_argument("csv: text after closing quote");
        } else {
            while (i < line.size() && line[i] != ',') cell.push_back(line[i++]);
        }
        cells.push_back(cell);
        if (i >= line.size()) break;
        ++i; // the comma
    }
    return cells;
}

std::string csv_writer::escape(std::string_view cell)
{
    const bool needs_quoting =
        cell.find_first_of(",\"\n\r") != std::string_view::npos;
    if (!needs_quoting) return std::string{cell};
    std::string quoted;
    quoted.reserve(cell.size() + 2);
    quoted.push_back('"');
    for (const char c : cell) {
        if (c == '"') quoted.push_back('"');
        quoted.push_back(c);
    }
    quoted.push_back('"');
    return quoted;
}

csv_writer::csv_writer(const std::string& path, std::vector<std::string> header)
    // dlb-analyzer: allow(atomic-write) streaming sink API; callers own atomicity (queue-mode reports go via util/tempfile write_text_atomic)
    : out_(path), width_(header.size())
{
    if (!out_) throw std::runtime_error("csv_writer: cannot open " + path);
    if (width_ == 0) throw std::invalid_argument("csv_writer: empty header");
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (i > 0) out_ << ',';
        out_ << escape(header[i]);
    }
    out_ << '\n';
}

void csv_writer::row(const std::vector<std::string>& cells)
{
    if (cells.size() != width_)
        throw std::invalid_argument("csv_writer: row width mismatch");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) out_ << ',';
        out_ << escape(cells[i]);
    }
    out_ << '\n';
    ++rows_;
}

void csv_writer::row_numeric(const std::vector<double>& cells)
{
    std::vector<std::string> formatted;
    formatted.reserve(cells.size());
    for (const double v : cells) formatted.push_back(format_double(v));
    row(formatted);
}

} // namespace dlb
