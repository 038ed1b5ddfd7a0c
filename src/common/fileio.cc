#include "common/fileio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace provledger {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Unavailable(what + " " + path + ": " + std::strerror(errno));
}

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return ErrnoStatus("mkdir", path);
}

Status WriteAllFd(int fd, const uint8_t* data, size_t len,
                  const std::string& path) {
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return ErrnoStatus(what, path);
}

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash + 1);
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const Bytes& data) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);

  const uint8_t* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Errno("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status s = Errno("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::close(fd) != 0) return Errno("close", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status s = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  // Make the rename itself durable.
  const std::string dir = ParentDir(path);
  int dirfd = ::open(dir.c_str(), O_RDONLY);
  if (dirfd < 0) return Errno("open", dir);
  if (::fsync(dirfd) != 0) {
    Status s = Errno("fsync", dir);
    ::close(dirfd);
    return s;
  }
  ::close(dirfd);
  return Status::OK();
}

Result<Bytes> ReadFileToBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Errno("open", path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Errno("fstat", path);
    ::close(fd);
    return s;
  }
  Bytes buf(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::pread(fd, buf.data() + off, buf.size() - off,
                        static_cast<off_t>(off));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Status s = Errno("pread", path);
      ::close(fd);
      return s;
    }
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  return buf;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace provledger
