#ifndef XFRAUD_COMMON_BYTES_H_
#define XFRAUD_COMMON_BYTES_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xfraud/common/status.h"

namespace xfraud {

/// The one byte codec of every image the library persists or sends
/// (DESIGN.md §10.7): fixed-width little-endian values, floats as their
/// IEEE-754 bit patterns. ByteReader checks every read, count, string length
/// and rows × cols product against the bytes that remain, without overflow,
/// before the caller allocates; its first failure sticks, so the caller
/// checks ok() or status() once after a run of reads.

/// Fixed-width integers and IEEE floats. Not bool: read a u8 instead.
template <typename T>
concept BytePod = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

namespace bytes_internal {
// Little-endian <-> host order, in place (a no-op on little-endian hosts).
inline void FixOrder(void* value, size_t n) {
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(static_cast<char*>(value), static_cast<char*>(value) + n);
  }
}
}  // namespace bytes_internal

/// Appends little-endian values to a caller-owned std::string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  template <BytePod T>
  void Put(T v) {
    out_->append(sizeof(T), '\0');
    PutAt(out_->size() - sizeof(T), v);
  }

  /// Overwrites a value written earlier at `offset` (a checksum that covers
  /// the bytes after it).
  template <BytePod T>
  void PutAt(size_t offset, T v) {
    std::memcpy(out_->data() + offset, &v, sizeof(T));
    bytes_internal::FixOrder(out_->data() + offset, sizeof(T));
  }

  /// `count` elements back to back, no count prefix.
  template <BytePod T>
  void PutArray(const T* values, size_t count) {
    const size_t at = out_->size();
    if (count > 0) {
      out_->append(reinterpret_cast<const char*>(values), count * sizeof(T));
    }
    for (size_t i = 0; i < count; ++i) {
      bytes_internal::FixOrder(out_->data() + at + i * sizeof(T), sizeof(T));
    }
  }

  /// i64 element count, then the elements.
  template <BytePod T>
  void PutVector(const std::vector<T>& values) {
    Put(static_cast<int64_t>(values.size()));
    PutArray(values.data(), values.size());
  }

  void PutBytes(std::string_view bytes) { out_->append(bytes); }

  /// u32 length, then the bytes.
  void PutString(std::string_view s) {
    Put(static_cast<uint32_t>(s.size()));
    PutBytes(s);
  }

 private:
  std::string* out_;
};

/// Bounded little-endian reads over a byte span the caller keeps alive.
class ByteReader {
 public:
  /// Cap on a length-prefixed string (parameter names, messages).
  static constexpr size_t kMaxStringBytes = size_t{1} << 20;

  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return failure_ == nullptr; }
  /// Offset of the next unread byte.
  size_t position() const { return pos_; }

  template <BytePod T>
  bool Get(T* out) {
    if (!Fits(1, sizeof(T))) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    bytes_internal::FixOrder(out, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Value form of Get: zero once the reader has failed.
  template <BytePod T>
  T Get() {
    T v{};
    Get(&v);
    return v;
  }

  /// `n` raw bytes as a view into the input.
  bool GetBytes(size_t n, std::string_view* out) {
    if (!Fits(n, 1)) return false;
    *out = std::string_view(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  /// Fails unless the next bytes equal `magic`.
  bool ExpectMagic(std::string_view magic) {
    std::string_view got;
    return GetBytes(magic.size(), &got) && (got == magic || Fail("bad magic"));
  }

  /// A u32 length of at most `max_len`, then that many bytes.
  bool GetString(std::string* out, size_t max_len = kMaxStringBytes) {
    const uint32_t len = Get<uint32_t>();
    std::string_view bytes;
    if (ok() && len > max_len) return Fail("string over its length cap");
    if (!GetBytes(len, &bytes)) return false;
    out->assign(bytes);
    return true;
  }

  /// An i64 element count, checked non-negative and against the remaining
  /// bytes at `min_elem_bytes` (at least 1) per element.
  bool GetCount(size_t min_elem_bytes, size_t* count) {
    const int64_t n = Get<int64_t>();
    if (ok() && n < 0) return Fail("negative count");
    if (!Fits(static_cast<uint64_t>(n), min_elem_bytes)) return false;
    *count = static_cast<size_t>(n);
    return true;
  }

  /// Checks a rows × cols block of `elem_bytes` elements: dimensions
  /// non-negative, the product representable, and the payload present.
  bool CheckShape(int64_t rows, int64_t cols, size_t elem_bytes) {
    if (ok() && (rows < 0 || cols < 0)) return Fail("negative dimension");
    if (ok() && cols != 0 &&
        rows > std::numeric_limits<int64_t>::max() / cols) {
      return Fail("rows x cols overflows");
    }
    return ok() && Fits(static_cast<uint64_t>(rows * cols), elem_bytes);
  }

  /// `count` elements, checked present before `out` is resized.
  template <BytePod T>
  bool GetArray(uint64_t count, std::vector<T>* out) {
    if (!Fits(count, sizeof(T))) return false;
    out->resize(static_cast<size_t>(count));
    if (count > 0) std::memcpy(out->data(), data_ + pos_, count * sizeof(T));
    for (T& v : *out) bytes_internal::FixOrder(&v, sizeof(T));
    pos_ += count * sizeof(T);
    return true;
  }

  /// The PutVector layout: i64 count, then the elements.
  template <BytePod T>
  bool GetVector(std::vector<T>* out) {
    size_t count = 0;
    return GetCount(sizeof(T), &count) && GetArray(count, out);
  }

  /// Fails unless every byte was consumed (exact-size formats).
  bool ExpectEnd() { return ok() && (pos_ == size_ || Fail("trailing bytes")); }

  /// Records a failure the caller found in the values (bad version, enum
  /// byte out of range, ...). The first failure sticks. Returns false.
  bool Fail(const char* what) {
    if (ok()) {
      failure_ = what;
      failure_at_ = pos_;
    }
    return false;
  }

  /// OK, or Corruption naming `context`, the failure and its offset.
  Status status(std::string_view context) const {
    if (ok()) return Status::OK();
    return Status::Corruption(std::string(context) + ": " + failure_ +
                              " at byte " + std::to_string(failure_at_));
  }

 private:
  // Whether `count` elements of `elem_bytes` remain; fails the reader if
  // not. Division keeps any `count` from overflowing.
  bool Fits(uint64_t count, size_t elem_bytes) {
    if (!ok()) return false;
    return count <= (size_ - pos_) / elem_bytes || Fail("truncated");
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  const char* failure_ = nullptr;
  size_t failure_at_ = 0;
};

}  // namespace xfraud

#endif  // XFRAUD_COMMON_BYTES_H_
