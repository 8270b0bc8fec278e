// Atomic saves: temp-file naming, the write-then-rename helper, and
// crash-orphan cleanup.
//
// Every atomic writer in the tree (lambda sidecar, checkpoints, manifests,
// the orchestrator's queue files, queue-mode reports) saves through
// write_text_atomic: write `<path>.tmp.<pid>.<serial>` next to the
// destination, then rename over it, so readers only ever observe a
// complete old or new file. A process killed between the write and the
// rename leaves the temp behind forever — it can never *shadow* a real
// file (reads go to `path` only), but a long campaign that crashes
// repeatedly strews orphans through checkpoint and queue directories.
// sweep_stale_temp_files removes exactly those: names matching the temp
// pattern whose embedded pid is no longer a live process. Temps of live
// pids (a co-running shard mid-save) are never touched.
#ifndef DLB_UTIL_TEMPFILE_HPP
#define DLB_UTIL_TEMPFILE_HPP

#include <cstddef>
#include <string>
#include <string_view>

namespace dlb {

/// Names a fresh temp file for an atomic save of `path`:
/// `<path>.tmp.<pid>.<serial>`. The pid keeps concurrent processes off each
/// other's temps; the process-wide serial keeps concurrent saves within one
/// process apart. The pid is embedded so a later sweep can prove the writer
/// is gone.
std::string temp_path_for(const std::string& path);

/// Atomically replaces `path` with `bytes`: writes temp_path_for(path),
/// then renames it over the destination. On failure the temp file is
/// removed and std::runtime_error is thrown, prefixed with `what` (e.g.
/// "checkpoint") and naming the file that failed.
void write_text_atomic(const std::string& path, std::string_view bytes,
                       const char* what);

/// True when `name` (a bare filename) matches the atomic-save temp pattern
/// `<base>.tmp.<pid>.<serial>`; `pid_out` (optional) receives the embedded
/// pid.
bool is_temp_file_name(const std::string& name, long* pid_out = nullptr);

/// Removes temp files in `dir` whose embedded pid is not a live process
/// (the writer died between write and rename). When `prefix` is non-empty,
/// only names starting with it are considered — pass the destination
/// filename to sweep one file's orphans without touching neighbours.
/// Best-effort and never throws: a missing directory or an unremovable
/// entry sweeps nothing. Returns the number of files removed.
std::size_t sweep_stale_temp_files(const std::string& dir,
                                   const std::string& prefix = {}) noexcept;

} // namespace dlb

#endif // DLB_UTIL_TEMPFILE_HPP
