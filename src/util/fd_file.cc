#include "src/util/fd_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace fm {

FdFile::FdFile(const std::string& path, Mode mode)
    : fd_(mode == Mode::kRead
              ? ::open(path.c_str(), O_RDONLY | O_CLOEXEC)
              : ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                       0666)) {}

FdFile::~FdFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool FdFile::Size(uint64_t* bytes) const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    return false;
  }
  *bytes = static_cast<uint64_t>(st.st_size);
  return true;
}

bool FdFile::ReadAt(void* data, size_t bytes, uint64_t offset) const {
  char* out = static_cast<char*>(data);
  while (bytes > 0) {
    ssize_t n = ::pread(fd_, out, bytes, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    out += n;
    bytes -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return true;
}

bool FdFile::WriteAt(const void* data, size_t bytes, uint64_t offset) const {
  const char* in = static_cast<const char*>(data);
  while (bytes > 0) {
    ssize_t n = ::pwrite(fd_, in, bytes, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    in += n;
    bytes -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return true;
}

bool FdFile::Close() {
  int fd = fd_;
  fd_ = -1;
  return ::close(fd) == 0 || errno == EINTR;
}

}  // namespace fm
