#include "store/mapped_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace rdfalign::store {

Result<std::shared_ptr<MappedFile>> MappedFile::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open file: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat file: " + path + ": " +
                           std::strerror(err));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const unsigned char* data = nullptr;
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      int err = errno;
      ::close(fd);
      return Status::IOError("cannot mmap file: " + path + ": " +
                             std::strerror(err));
    }
    data = static_cast<const unsigned char*>(map);
  }
  // The mapping persists after the descriptor closes.
  ::close(fd);
  return std::shared_ptr<MappedFile>(new MappedFile(data, size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr && size_ > 0) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
}

}  // namespace rdfalign::store
