#include "io/record.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace ahg {
namespace {

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

// Writes `bytes` to `fd`, then fsyncs and closes it; all must succeed.
Status SyncAndClose(int fd, const std::string& path,
                    const std::string& bytes = "") {
  Status s = Status::OK();
  for (size_t done = 0; s.ok() && done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      s = ErrnoError("cannot write", path);
    }
  }
  if (s.ok() && ::fsync(fd) != 0) s = ErrnoError("cannot fsync", path);
  if (::close(fd) != 0 && s.ok()) s = ErrnoError("cannot close", path);
  return s;
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return ErrnoError("cannot open", tmp);
  Status s = SyncAndClose(fd, tmp, bytes);
  if (s.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    s = ErrnoError("cannot rename " + tmp + " to", path);
  }
  if (!s.ok()) {
    std::remove(tmp.c_str());
    return s;
  }
  // The rename is durable only once the directory entry is.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : path.substr(0, std::max<size_t>(slash, 1));
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return ErrnoError("cannot open", dir);
  return SyncAndClose(dir_fd, dir);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("cannot read " + path);
  return buf.str();
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoError("cannot create", dir);
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

RecordWriter::RecordWriter(std::string_view magic, uint32_t version)
    : bytes_(magic) {
  U32(version);
}

void RecordWriter::Str(const std::string& s) {
  U64(s.size());
  Raw(s.data(), s.size());
}

void RecordWriter::Mat(const Matrix& m) {
  U32(static_cast<uint32_t>(m.rows()));
  U32(static_cast<uint32_t>(m.cols()));
  Raw(m.data(), m.size() * sizeof(double));
}

void RecordWriter::Raw(const void* p, size_t n) {
  if (n > 0) bytes_.append(static_cast<const char*>(p), n);
}

StatusOr<RecordReader> RecordReader::Open(const std::string& path,
                                          std::string_view magic,
                                          uint32_t version) {
  StatusOr<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  RecordReader r;
  r.bytes_ = std::move(bytes).value();
  if (r.bytes_.compare(0, magic.size(), magic) != 0) {
    return Status::InvalidArgument(path + " is not an " + std::string(magic) +
                                   " file");
  }
  r.pos_ = magic.size();
  uint32_t got = 0;
  if (!r.U32(&got) || got != version) {
    return Status::InvalidArgument("unsupported " + std::string(magic) +
                                   " version in " + path);
  }
  return r;
}

bool RecordReader::Bool(bool* v) {
  uint32_t x = 0;
  if (!U32(&x) || x > 1) return false;
  *v = x != 0;
  return true;
}

bool RecordReader::Str(std::string* s) {
  uint64_t n = 0;
  if (!U64(&n) || n > kMaxStringBytes || !Fits(n)) return false;
  s->assign(bytes_, pos_, n);
  pos_ += n;
  return true;
}

bool RecordReader::Mat(Matrix* m) {
  uint32_t rows = 0, cols = 0;
  if (!U32(&rows) || !U32(&cols)) return false;
  if (rows > kMaxTensorDim || cols > kMaxTensorDim) return false;
  const uint64_t elements = static_cast<uint64_t>(rows) * cols;
  if (elements > kMaxTensorElements || !Fits(elements * sizeof(double))) {
    return false;
  }
  *m = Matrix(static_cast<int>(rows), static_cast<int>(cols));
  return Raw(m->data(), elements * sizeof(double));
}

bool RecordReader::Count(uint64_t* n, size_t min_element_bytes) {
  return U64(n) && *n <= kMaxRecordCount && Fits(*n * min_element_bytes);
}

bool RecordReader::Raw(void* p, size_t n) {
  if (!Fits(n)) return false;
  if (n > 0) std::memcpy(p, bytes_.data() + pos_, n);
  pos_ += n;
  return true;
}

}  // namespace ahg
