#include "util/tempfile.hpp"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include <signal.h> // kill(pid, 0) liveness probe
#include <unistd.h> // getpid

namespace dlb {

namespace {

/// True when `pid` names a live process (or one we cannot signal — EPERM
/// still proves existence). Our own pid is trivially alive, but check it
/// first so a sweep can never race its own in-flight saves.
bool pid_is_alive(long pid)
{
    if (pid <= 0) return true; // malformed: refuse to treat as dead
    if (pid == static_cast<long>(::getpid())) return true;
    if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
    return errno != ESRCH;
}

/// Parses a full decimal token; returns false on empty/partial/overflow.
bool parse_long(const std::string& text, long& out)
{
    if (text.empty()) return false;
    const char* first = text.data();
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(first, last, out);
    return ec == std::errc{} && end == last;
}

} // namespace

std::string temp_path_for(const std::string& path)
{
    // One process-wide serial across every atomic writer: two subsystems
    // saving next to each other can never collide on a temp name.
    static std::atomic<std::uint64_t> save_serial{0};
    return path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
           "." +
           std::to_string(save_serial.fetch_add(1, std::memory_order_relaxed));
}

void write_text_atomic(const std::string& path, std::string_view bytes,
                       const char* what)
{
    // Cleanup uses the non-throwing remove overload so a failing cleanup
    // (the same unwritable directory, usually) can never mask the original
    // error with a secondary filesystem_error.
    const std::string temp = temp_path_for(path);
    std::error_code cleanup_ec;
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error(std::string(what) + ": cannot write " +
                                     temp);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out) {
            out.close();
            std::filesystem::remove(temp, cleanup_ec);
            throw std::runtime_error(std::string(what) +
                                     ": write failed for " + temp);
        }
    }
    std::error_code ec;
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        std::filesystem::remove(temp, cleanup_ec);
        throw std::runtime_error(std::string(what) + ": cannot rename " +
                                 temp + " to " + path + ": " + ec.message());
    }
}

bool is_temp_file_name(const std::string& name, long* pid_out)
{
    // <base>.tmp.<pid>.<serial> — split from the right so dots in the base
    // name never confuse the parse.
    const auto serial_dot = name.rfind('.');
    if (serial_dot == std::string::npos || serial_dot == 0) return false;
    const auto pid_dot = name.rfind('.', serial_dot - 1);
    // pid_dot >= 5 guarantees a non-empty base before ".tmp." — a file
    // literally named ".tmp.<pid>.<n>" is not a temp of any destination.
    if (pid_dot == std::string::npos || pid_dot < 5) return false;
    if (name.compare(pid_dot - 4, 5, ".tmp.") != 0) return false;

    long pid = 0;
    long serial = 0;
    if (!parse_long(name.substr(pid_dot + 1, serial_dot - pid_dot - 1), pid))
        return false;
    if (!parse_long(name.substr(serial_dot + 1), serial)) return false;
    if (pid_out != nullptr) *pid_out = pid;
    return true;
}

std::size_t sweep_stale_temp_files(const std::string& dir,
                                   const std::string& prefix) noexcept
{
    std::size_t removed = 0;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) return 0;
    for (const auto& entry : it) {
        std::error_code entry_ec;
        if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
        const std::string name = entry.path().filename().string();
        if (!prefix.empty() && name.compare(0, prefix.size(), prefix) != 0)
            continue;
        long pid = 0;
        if (!is_temp_file_name(name, &pid)) continue;
        if (pid_is_alive(pid)) continue;
        if (std::filesystem::remove(entry.path(), entry_ec) && !entry_ec)
            ++removed;
    }
    return removed;
}

} // namespace dlb
