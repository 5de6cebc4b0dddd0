// A minimal binary state archive for checkpoint images.
//
// The paper's checkpoint saves the memory and device state of a running
// system. In this reproduction, each checkpointable component serializes its
// logical state into an Archive (and restores from one) — the analogue of the
// memory image plus the serialized device/Dummynet state. Archives are also
// what stateful swap-out ships to the Emulab file server and what time-travel
// keeps in its checkpoint tree.
//
// ArchiveReader never trusts its input: every read is bounds-checked, and a
// short or corrupt image trips a sticky error flag (ok() == false) instead of
// reading out of bounds. Reads after an error return value-initialized
// results, so restore loops must check ok() rather than assume progress.

#ifndef TCSIM_SRC_SIM_ARCHIVE_H_
#define TCSIM_SRC_SIM_ARCHIVE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace tcsim {

// Append-only binary writer.
class ArchiveWriter {
 public:
  ArchiveWriter() = default;

  // Adopts an existing backing vector and appends after its bytes, reusing
  // its capacity: a staging buffer that has grown to its steady-state size
  // (and is cleared, not shrunk, between captures) is never reallocated on
  // later captures.
  explicit ArchiveWriter(std::vector<uint8_t> adopt)
      : data_(std::move(adopt)) {}

  // Writes a trivially-copyable value.
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>, "Archive requires POD types");
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    data_.insert(data_.end(), p, p + sizeof(T));
  }

  // Writes a length-prefixed string.
  void WriteString(const std::string& s) {
    Write<uint64_t>(s.size());
    data_.insert(data_.end(), s.begin(), s.end());
  }

  // Writes a length-prefixed vector of trivially-copyable elements.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>, "Archive requires POD types");
    Write<uint64_t>(v.size());
    const auto* p = reinterpret_cast<const uint8_t*>(v.data());
    data_.insert(data_.end(), p, p + v.size() * sizeof(T));
  }

  // Writes raw bytes without a length prefix (the caller frames them).
  void WriteBytes(const uint8_t* p, size_t n) {
    data_.insert(data_.end(), p, p + n);
  }

  // Pre-allocates backing storage for `total` bytes. Callers that know the
  // final image size (e.g. SerializeStagedImage) reserve once instead of
  // growing geometrically through multi-megabyte images.
  void Reserve(size_t total) { data_.reserve(total); }

  // Size of the serialized image so far, in bytes.
  size_t size() const { return data_.size(); }

  // Takes ownership of the accumulated bytes.
  std::vector<uint8_t> Take() { return std::move(data_); }

  const std::vector<uint8_t>& data() const { return data_; }

 private:
  std::vector<uint8_t> data_;
};

// A non-owning view of contiguous bytes (a payload or sub-archive read in
// place; the buffer it points into must outlive the span).
struct ByteSpan {
  const uint8_t* data = nullptr;
  uint64_t size = 0;
};

// Sequential binary reader over an archive image: the one bounds-checked
// decoder of checkpoint bytes. Reads in place; the bytes must outlive the
// reader and every span or nested reader it hands out.
class ArchiveReader {
 public:
  explicit ArchiveReader(ByteSpan span) : data_(span.data), size_(span.size) {}
  explicit ArchiveReader(const std::vector<uint8_t>& data)
      : ArchiveReader(ByteSpan{data.data(), data.size()}) {}
  // A reader of a temporary would dangle.
  explicit ArchiveReader(std::vector<uint8_t>&&) = delete;

  // Reads a trivially-copyable value written by ArchiveWriter::Write. Returns
  // a value-initialized T and sets the error flag if the image is truncated.
  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T>, "Archive requires POD types");
    T value{};
    if (!CheckAvailable(sizeof(T))) {
      return value;
    }
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  // Reads a string written by WriteString.
  std::string ReadString() {
    const ByteSpan s = ReadSpan(Read<uint64_t>());
    return std::string(reinterpret_cast<const char*>(s.data), s.size);
  }

  // Reads a vector written by WriteVector.
  template <typename T>
  std::vector<T> ReadVector() {
    static_assert(std::is_trivially_copyable_v<T>, "Archive requires POD types");
    const uint64_t n = Read<uint64_t>();
    // Guard the multiply: a corrupt count must not overflow to a small byte
    // total and pass the bounds check below.
    if (!ok_ || n > (size_ - pos_) / sizeof(T)) {
      Fail();
      return {};
    }
    std::vector<T> v(n);
    if (n != 0) {  // an empty vector's data() may be null, invalid for memcpy
      std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return v;
  }

  // The next `n` bytes, in place (framed by the caller). Empty on failure.
  ByteSpan ReadSpan(uint64_t n) {
    if (!CheckAvailable(n)) {
      return {};
    }
    const ByteSpan span{data_ + pos_, n};
    pos_ += n;
    return span;
  }

  // A sub-archive framed by WriteVector<uint8_t>, read in place. If its
  // length runs past this archive, both this reader and the returned one
  // have failed.
  ArchiveReader ReadNested() {
    ArchiveReader sub(ReadSpan(Read<uint64_t>()));
    sub.ok_ = ok_;
    return sub;
  }

  // True while every read so far stayed inside the image. Sticky: once a read
  // runs past the end (truncated or corrupt image), all later reads fail too.
  bool ok() const { return ok_; }

  // Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }

  // True once every byte has been consumed (and no read has failed).
  bool AtEnd() const { return ok_ && pos_ == size_; }

 private:
  bool CheckAvailable(uint64_t n) {
    if (!ok_ || n > size_ - pos_) {
      Fail();
      return false;
    }
    return true;
  }

  void Fail() { ok_ = false; }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_ARCHIVE_H_
