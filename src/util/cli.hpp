// Tiny command-line option parser for the bench/example binaries.
//
// Supports `--flag`, `--key value` and `--key=value` forms. Unknown options
// raise an error so typos in experiment sweeps are caught immediately, and
// an option given twice throws std::invalid_argument naming it.
// Numeric getters parse the full token — `--rounds 100x` is an error, not
// 100 — and every parse failure throws std::invalid_argument naming the
// offending flag and value.
#ifndef DLB_UTIL_CLI_HPP
#define DLB_UTIL_CLI_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dlb {

/// Parsed command line. Construct once from (argc, argv) and query typed
/// options with defaults.
class cli_args {
public:
    cli_args(int argc, const char* const* argv);

    /// True when `--name` was present (as a bare flag or with any value).
    bool has(const std::string& name) const;

    std::string get_string(const std::string& name, const std::string& fallback) const;
    std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
    /// Unsigned parse path: values up to UINT64_MAX survive unmangled
    /// (get_int round-trips through signed and corrupts seeds > INT64_MAX).
    std::uint64_t get_uint64(const std::string& name, std::uint64_t fallback) const;
    double get_double(const std::string& name, double fallback) const;
    bool get_bool(const std::string& name, bool fallback) const;

    /// Positional (non-option) arguments in order.
    const std::vector<std::string>& positional() const noexcept { return positional_; }

    /// All option names present, sorted; lets binaries reject unknown options.
    std::vector<std::string> option_names() const;

    /// Program name (argv[0]).
    const std::string& program() const noexcept { return program_; }

private:
    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace dlb

#endif // DLB_UTIL_CLI_HPP
