// Crash-safe whole-file writes: write-temp + fsync + atomic rename.
//
// Every persistent artifact in the repo (RE caches, serve checkpoints,
// discover checkpoints, proof certificates) must satisfy one invariant: a
// reader never observes a half-written file. POSIX rename(2) within one directory is atomic, so
// the protocol is write the full payload to a unique temp file, fsync it,
// rename it over the destination, and fsync the directory so the rename
// itself survives a power cut. A process killed at any instant leaves
// either the old complete file, the new complete file, or a stray *.tmp.*
// that no reader ever opens — never a torn destination.
#pragma once

#include <string>
#include <string_view>

namespace slocal {

/// Atomically replaces `path` with `payload`. On failure the destination is
/// untouched (the temp file is unlinked) and *error describes the first
/// syscall that failed. The temp file lives in the destination directory
/// (rename must not cross filesystems) and carries the pid so concurrent
/// writers never collide.
bool write_file_atomic(const std::string& path, std::string_view payload,
                       std::string* error = nullptr);

}  // namespace slocal
