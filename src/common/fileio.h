// Whole-file I/O helpers for the durable storage layer: crash-safe atomic
// file replacement (write temp + fsync + rename + directory fsync) and
// slurping a file into a Bytes buffer. The log-structured ChainLog keeps
// its own fd-level append path; these helpers serve the write-rarely
// artifacts such as provenance snapshots.
//
// Thread safety: free functions — safe to call concurrently on distinct
// paths; concurrent writers to one path need external coordination.

#ifndef PROVLEDGER_COMMON_FILEIO_H_
#define PROVLEDGER_COMMON_FILEIO_H_

#include <string>

#include "common/bytes.h"

namespace provledger {

/// \brief Atomically replace `path` with `data`: the bytes are written to a
/// temp file in the same directory, fsync'd, renamed over `path`, and the
/// directory entry is fsync'd. Readers see either the old file or the whole
/// new one, never a torn mix. An error from any step, the directory open
/// and fsync included, is returned: the rename is not known durable.
Status WriteFileAtomic(const std::string& path, const Bytes& data);

/// \brief Read the whole file at `path`. NotFound when it does not exist.
Result<Bytes> ReadFileToBytes(const std::string& path);

/// \brief True if a regular file exists at `path`.
bool FileExists(const std::string& path);

/// \brief Create directory `path` (one level) if it does not already exist.
Status EnsureDir(const std::string& path);

/// \brief Write all `len` bytes to `fd`, retrying partial writes and EINTR.
Status WriteAllFd(int fd, const uint8_t* data, size_t len,
                  const std::string& path);

/// \brief Unavailable("<what> <path>: <strerror(errno)>") — the shared
/// errno-to-Status shape of the storage layer.
Status ErrnoStatus(const std::string& what, const std::string& path);

}  // namespace provledger

#endif  // PROVLEDGER_COMMON_FILEIO_H_
