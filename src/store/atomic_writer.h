// AtomicFileWriter: durable atomic replacement of one file.
//
// Every store writer (snapshot, delta, archive, update fragment, RDF text
// dumps) routes its bytes through this class so that a crash — process
// kill, power cut, full disk — at ANY point leaves either the complete
// old file or the complete new file at the target path, never a torn or
// half-written one:
//
//   1. bytes stream into `path.tmp.<pid>` in the target directory (same
//      filesystem, so the final rename is atomic);
//   2. Commit() flushes, fsyncs the temp file, renames it over `path`,
//      then fsyncs the directory so the rename itself is durable;
//   3. any failure (or destruction before Commit) unlinks the temp file —
//      a failed save never leaves a partial file behind.
//
// Open() also scrubs stale temps left by earlier crashed writers of the
// same target (matching `path.tmp.*` whose pid is no longer alive), so
// the directory self-heals on the next save; CleanupStaleTemps exposes
// the scrub for startup code and tests.
//
// Failure injection: the write/fsync/rename/dirsync syscalls sit behind
// the `store.open`, `store.alloc`, `store.write`, `store.fsync`,
// `store.rename`, `store.dirsync` failpoints (util/fault_injector.h) —
// the crash-consistency suite kills the process at each of them and
// asserts the survivor loads clean.

#ifndef RDFALIGN_STORE_ATOMIC_WRITER_H_
#define RDFALIGN_STORE_ATOMIC_WRITER_H_

#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "util/status.h"

namespace rdfalign::store {

class AtomicFileWriter {
 public:
  /// Creates `path.tmp.<pid>` for writing (scrubbing stale temps of the
  /// same target first). `kind` names the file in error messages
  /// ("snapshot", "delta", ...). The returned Status carries the errno
  /// text on failure ("...: Permission denied").
  explicit AtomicFileWriter(std::string path, std::string kind);
  ~AtomicFileWriter();  ///< aborts (unlinks the temp) if not committed

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Opens the temp file. Must be called (and checked) before stream().
  Status Open();

  /// The buffered output stream over the temp file. Write failures are
  /// latched into status() (the stream also sets failbit), so callers'
  /// `if (!out)` checks keep working.
  std::ostream& stream() { return *stream_; }

  /// First error recorded by the underlying writes, or OK.
  Status status() const;

  /// Flush + fsync(temp) + rename over the target + fsync(directory).
  /// On any failure the temp file is removed and the target is untouched.
  Status Commit();

  /// Unlinks the temp file without touching the target. Idempotent; also
  /// run by the destructor when Commit was never (successfully) called.
  void Abort();

  const std::string& temp_path() const { return temp_path_; }

 private:
  class FdStreamBuf;

  std::string path_;
  std::string kind_;
  std::string temp_path_;
  std::unique_ptr<FdStreamBuf> buf_;
  std::unique_ptr<std::ostream> stream_;
  bool committed_ = false;
};

/// Removes stale `<target>.tmp.<pid>` files for `target` whose writer
/// process is gone (or that carry an unparsable suffix). Returns how many
/// were removed. Never touches `target` itself or live writers' temps.
size_t CleanupStaleTemps(const std::string& target);

/// Convenience: atomically replaces `path` with `bytes` (used by the
/// update-fragment writer and tests).
Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t size, const char* kind);

}  // namespace rdfalign::store

#endif  // RDFALIGN_STORE_ATOMIC_WRITER_H_
