#include "src/util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace fm {

MappedFile::MappedFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("MappedFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("MappedFile: fstat failed for " + path);
  }
  size_ = static_cast<size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    throw std::runtime_error("MappedFile: empty file " + path);
  }
  data_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (data_ == MAP_FAILED) {
    data_ = nullptr;
    throw std::runtime_error("MappedFile: mmap failed for " + path + ": " +
                             std::strerror(errno));
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MappedFile::~MappedFile() { Unmap(); }

void MappedFile::Unmap() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace fm
