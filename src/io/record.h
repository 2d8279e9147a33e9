// Crash-safe whole-file I/O and the binary record codec. Every persisted
// file (AHGM models, AHGJ job records, state.tsv, registry.tsv, the ensemble
// manifest.tsv) is written through AtomicWriteFile and read through ReadFile.
// Binary records: a 4-byte magic, a u32 version, then little-endian
// fixed-width scalars, booleans as u32 0 or 1, u64-length-prefixed strings,
// and matrices framed as u32 rows, u32 cols, rows*cols doubles.
#ifndef AUTOHENS_IO_RECORD_H_
#define AUTOHENS_IO_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "tensor/matrix.h"
#include "util/status.h"

namespace ahg {

// Replaces `path` with `bytes` so that a crash or power loss at any instant
// leaves either the old file or the new one, never a torn one: writes
// `path + ".tmp"`, fsyncs it, renames it over `path`, then fsyncs the
// directory so the rename itself is durable.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

// The whole file. NotFound when it does not exist.
StatusOr<std::string> ReadFile(const std::string& path);

// Creates `dir` (one level) unless it already exists.
Status EnsureDir(const std::string& dir);

bool FileExists(const std::string& path);

// Hard caps on untrusted framing. Corruption must fail with InvalidArgument
// before any allocation, never with a multi-gigabyte bad_alloc.
constexpr uint64_t kMaxTensorDim = 1u << 27;       // 134M rows or cols
constexpr uint64_t kMaxTensorElements = 1u << 28;  // 2 GiB of doubles
constexpr uint64_t kMaxStringBytes = 1u << 20;
constexpr uint64_t kMaxRecordCount = 1u << 20;

class RecordWriter {
 public:
  // Starts the record with `magic` (4 bytes) and `version`.
  RecordWriter(std::string_view magic, uint32_t version);

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U32(v ? 1 : 0); }
  void Str(const std::string& s);
  void Mat(const Matrix& m);

  const std::string& bytes() const { return bytes_; }

 private:
  void Raw(const void* p, size_t n);

  std::string bytes_;
};

// A bounded cursor over a record's bytes. Every read checks the bytes
// remaining and returns false when they run out or a cap is exceeded; Str
// and Mat check before they allocate.
class RecordReader {
 public:
  RecordReader() = default;

  // Reads `path` and consumes its header. NotFound when the file is
  // missing; InvalidArgument when the magic or version differ.
  static StatusOr<RecordReader> Open(const std::string& path,
                                     std::string_view magic,
                                     uint32_t version);

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Bool(bool* v);
  bool Str(std::string* s);
  bool Mat(Matrix* m);

  // A u64 element count: at most kMaxRecordCount, and no more elements of
  // at least `min_element_bytes` each than the remaining bytes can hold.
  bool Count(uint64_t* n, size_t min_element_bytes);

  size_t remaining() const { return bytes_.size() - pos_; }

  // True once every byte has been consumed; loaders require it, so a
  // shortened count cannot silently drop the tail of a record.
  bool AtEnd() const { return remaining() == 0; }

 private:
  bool Raw(void* p, size_t n);
  bool Fits(uint64_t n) const { return n <= remaining(); }

  std::string bytes_;
  size_t pos_ = 0;
};

}  // namespace ahg

#endif  // AUTOHENS_IO_RECORD_H_
