#include "util/cli.hpp"

#include <stdexcept>

#include "util/parse.hpp"

namespace dlb {

namespace {

bool looks_like_option(const std::string& arg)
{
    return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

} // namespace

cli_args::cli_args(int argc, const char* const* argv)
{
    if (argc > 0) program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!looks_like_option(arg)) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
        } else if (i + 1 < argc && !looks_like_option(argv[i + 1])) {
            // `--key value` when the next token is not itself an option,
            // otherwise a bare flag.
            value = argv[++i];
        }
        // Keeping either value of a repeated option would run something
        // the command line does not unambiguously say.
        if (!options_.emplace(name, value).second)
            throw std::invalid_argument("option --" + name + " given twice");
    }
}

bool cli_args::has(const std::string& name) const
{
    return options_.count(name) > 0;
}

std::vector<std::string> cli_args::option_names() const
{
    std::vector<std::string> names;
    names.reserve(options_.size());
    for (const auto& [name, value] : options_) names.push_back(name);
    return names;
}

std::string cli_args::get_string(const std::string& name,
                                 const std::string& fallback) const
{
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

// Full-token parses (util/parse.hpp): trailing garbage ("100x") is an
// error, not a 100, and any failure names the offending flag.

std::int64_t cli_args::get_int(const std::string& name, std::int64_t fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty()) return fallback;
    return parse_full_int64(it->second, "cli_args: bad integer for --" + name);
}

std::uint64_t cli_args::get_uint64(const std::string& name,
                                   std::uint64_t fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty()) return fallback;
    return parse_full_uint64(it->second,
                             "cli_args: bad unsigned for --" + name);
}

double cli_args::get_double(const std::string& name, double fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty()) return fallback;
    return parse_full_double(it->second, "cli_args: bad number for --" + name);
}

bool cli_args::get_bool(const std::string& name, bool fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    if (it->second.empty() || it->second == "1" || it->second == "true" ||
        it->second == "yes" || it->second == "on")
        return true;
    if (it->second == "0" || it->second == "false" || it->second == "no" ||
        it->second == "off")
        return false;
    throw std::invalid_argument("cli_args: bad boolean for --" + name);
}

} // namespace dlb
