// Owned POSIX file descriptor with positioned, whole-buffer reads and writes.
//
// The binary writers and readers (the CSR loader and saver in edge_io.cc, the
// skip-gram writer in embedding_corpus.cc) move large arrays with pread and
// pwrite, often from several pool workers at distinct offsets of one file.
// ReadAt and WriteAt loop on short transfers and retry EINTR; a failure is
// returned, not thrown, so a pool task can record it and the caller throws
// after the join. Close() reports what a buffered stream would lose silently:
// a write the kernel failed only when the file was closed.
#ifndef SRC_UTIL_FD_FILE_H_
#define SRC_UTIL_FD_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace fm {

class FdFile {
 public:
  enum class Mode { kRead, kWrite };

  // Opens `path` read-only, or for writing: created with mode 0666 so the
  // umask applies, as with std::ofstream, and truncated. fd() < 0 on failure.
  FdFile(const std::string& path, Mode mode);
  ~FdFile();
  FdFile(const FdFile&) = delete;
  FdFile& operator=(const FdFile&) = delete;

  int fd() const { return fd_; }

  // Size of the open file in bytes; false if fstat fails.
  bool Size(uint64_t* bytes) const;

  // Reads exactly `bytes` at byte `offset` into `data`. False on an error or
  // when the file ends first. Safe to call from several threads at once.
  bool ReadAt(void* data, size_t bytes, uint64_t offset) const;

  // Writes all `bytes` of `data` at byte `offset`. False on an error. Safe to
  // call from several threads at once for disjoint ranges.
  bool WriteAt(const void* data, size_t bytes, uint64_t offset) const;

  // Closes the descriptor; false if the kernel reports a failure. Linux
  // releases the descriptor even when close fails with EINTR, so that is not
  // retried and not a failure.
  bool Close();

 private:
  int fd_;
};

}  // namespace fm

#endif  // SRC_UTIL_FD_FILE_H_
