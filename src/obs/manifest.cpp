#include "obs/manifest.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/tempfile.hpp"

namespace dlb::obs {

namespace {

constexpr const char* kHeader = "# dlb run manifest v1";

std::string trim(const std::string& text)
{
    const auto begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return {};
    const auto end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

void write_fields(std::ostream& out, const run_manifest& manifest)
{
    for (const auto& [key, value] : manifest.fields)
        out << key << " = " << value << "\n";
}

} // namespace

std::string run_manifest::get(const std::string& key) const
{
    for (const auto& [k, v] : fields)
        if (k == key) return v;
    return {};
}

bool run_manifest::has(const std::string& key) const
{
    for (const auto& [k, v] : fields)
        if (k == key) return true;
    return false;
}

void run_manifest::set(const std::string& key, const std::string& value)
{
    std::string clean = value;
    for (char& c : clean)
        if (c == '\n' || c == '\r') c = ' ';
    for (auto& [k, v] : fields) {
        if (k == key) {
            v = std::move(clean);
            return;
        }
    }
    fields.emplace_back(key, std::move(clean));
}

void write_manifest(std::ostream& out, const run_manifest& manifest)
{
    out << kHeader << "\n";
    write_fields(out, manifest);
    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
        out << "[shard " << s << "]\n";
        write_fields(out, manifest.shards[s]);
    }
}

void write_manifest_file(const std::string& path, const run_manifest& manifest)
{
    // Atomic save: a reader (resume, tooling) must never observe a
    // half-written manifest.
    std::ostringstream out;
    write_manifest(out, manifest);
    write_text_atomic(path, out.str(), "manifest");
}

run_manifest parse_manifest(std::istream& in, const std::string& context)
{
    std::string line;
    if (!std::getline(in, line) || trim(line) != kHeader)
        throw std::runtime_error(context + ": not a dlb run manifest (expected "
                                 "header '" + std::string(kHeader) + "')");

    run_manifest manifest;
    run_manifest* current = &manifest;
    std::int64_t line_number = 1;
    while (std::getline(in, line)) {
        ++line_number;
        const std::string text = trim(line);
        if (text.empty()) continue;
        const std::string where = context + ":" + std::to_string(line_number);
        if (text.front() == '[') {
            if (text.back() != ']' || text.rfind("[shard ", 0) != 0)
                throw std::runtime_error(where + ": malformed section '" +
                                         text + "'");
            manifest.shards.emplace_back();
            current = &manifest.shards.back();
            continue;
        }
        const auto eq = text.find('=');
        if (eq == std::string::npos)
            throw std::runtime_error(where + ": expected 'key = value', got '" +
                                     text + "'");
        const std::string key = trim(text.substr(0, eq));
        if (key.empty())
            throw std::runtime_error(where + ": empty key");
        current->fields.emplace_back(key, trim(text.substr(eq + 1)));
    }
    return manifest;
}

run_manifest parse_manifest_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::runtime_error("manifest: cannot open " + path);
    return parse_manifest(in, path);
}

run_manifest merge_manifests(const std::vector<run_manifest>& shards,
                             const std::vector<std::string>& must_match)
{
    if (shards.empty())
        throw std::runtime_error("manifest: nothing to merge");

    for (const std::string& key : must_match) {
        if (!shards.front().has(key))
            throw std::runtime_error("manifest: shard 0 is missing required "
                                     "field '" + key + "'");
        const std::string expected = shards.front().get(key);
        for (std::size_t s = 1; s < shards.size(); ++s) {
            if (!shards[s].has(key))
                throw std::runtime_error(
                    "manifest: shard " + std::to_string(s) +
                    " is missing required field '" + key + "'");
            const std::string value = shards[s].get(key);
            if (value != expected)
                throw std::runtime_error(
                    "manifest: shards disagree on '" + key + "': shard 0 says '" +
                    expected + "', shard " + std::to_string(s) + " says '" +
                    value + "'; every shard must come from the same campaign "
                    "run configuration");
        }
    }

    run_manifest merged;
    for (const std::string& key : must_match)
        merged.set(key, shards.front().get(key));
    merged.shards = shards;
    return merged;
}

} // namespace dlb::obs
