// Read-only memory-mapped file (RAII).
//
// Substrate for the out-of-core walk mode (the paper's §5.4/§7 future-work
// direction: "extending FlashMob to walk disk-resident graphs" — its streaming
// design needs only ~5 GB/s of sequential I/O at full speed). A CsrGraph can borrow
// its arrays directly from a mapping (edge_io.h LoadCsrBinaryMapped), letting the
// OS page cache stream partitions from disk on demand.
#ifndef SRC_UTIL_MMAP_FILE_H_
#define SRC_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <string>

namespace fm {

class MappedFile {
 public:
  MappedFile() = default;

  // Maps `path` read-only; throws std::runtime_error on failure.
  explicit MappedFile(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  ~MappedFile();

  const void* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

 private:
  void Unmap();

  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace fm

#endif  // SRC_UTIL_MMAP_FILE_H_
