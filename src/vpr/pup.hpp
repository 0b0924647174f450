// PUP (pack/unpack) serialization, modelled on Charm++/AMPI's PUP
// framework which the paper uses for VP migration ("the user can provide
// appropriate packing/unpacking (PUP) routines. We opted for PUP because
// it yields higher performance", §IV-C). A single pup() method describes
// a type's state once and is used for packing and unpacking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace picprk::vpr {

class Pup {
 public:
  /// Packing pupper; the buffer grows as values are pupped.
  Pup() = default;

  /// Unpacking pupper over an existing buffer.
  explicit Pup(std::vector<std::byte> buffer)
      : unpacking_(true), buffer_(std::move(buffer)) {}

  bool packing() const { return !unpacking_; }
  bool unpacking() const { return unpacking_; }

  /// Scalar / trivially-copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void operator()(T& value) {
    raw(&value, sizeof(T));
  }

  /// Vector of trivially-copyable elements (length-prefixed).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void operator()(std::vector<T>& vec) {
    std::uint64_t n = vec.size();
    (*this)(n);
    if (unpacking()) vec.resize(n);
    if (n > 0) raw(vec.data(), n * sizeof(T));
  }

  void operator()(std::string& s) {
    std::uint64_t n = s.size();
    (*this)(n);
    if (unpacking()) s.resize(n);
    if (n > 0) raw(s.data(), n);
  }

  /// Vector of nested pupable objects (element-wise).
  template <typename T>
    requires(!std::is_trivially_copyable_v<T>) &&
            requires(T& t, Pup& p) { t.pup(p); }
  void operator()(std::vector<T>& vec) {
    std::uint64_t n = vec.size();
    (*this)(n);
    if (unpacking()) vec.resize(n);
    for (auto& element : vec) element.pup(*this);
  }

  /// Nested pupable object.
  template <typename T>
    requires requires(T& t, Pup& p) { t.pup(p); }
  void operator()(T& value) {
    value.pup(*this);
  }

  /// Takes the packed buffer (Pack mode, after pupping everything).
  std::vector<std::byte> take_buffer() {
    PICPRK_EXPECTS(packing());
    return std::move(buffer_);
  }

  /// In Unpack mode: whether the whole buffer was consumed.
  bool fully_consumed() const { return cursor_ == buffer_.size(); }

 private:
  void raw(void* data, std::size_t n) {
    if (packing()) {
      buffer_.resize(cursor_ + n);
      std::memcpy(buffer_.data() + cursor_, data, n);
    } else {
      PICPRK_ASSERT_MSG(cursor_ + n <= buffer_.size(),
                        "pup unpack ran past the end of the buffer");
      std::memcpy(data, buffer_.data() + cursor_, n);
    }
    cursor_ += n;
  }

  bool unpacking_ = false;
  std::vector<std::byte> buffer_;
  std::size_t cursor_ = 0;
};

/// Packs a pupable object into a fresh buffer.
template <typename T>
std::vector<std::byte> pup_pack(T& object) {
  Pup p;
  object.pup(p);
  return p.take_buffer();
}

/// Unpacks a buffer into an existing object (must consume it fully).
template <typename T>
void pup_unpack(T& object, std::vector<std::byte> buffer) {
  Pup p(std::move(buffer));
  object.pup(p);
  PICPRK_ASSERT_MSG(p.fully_consumed(), "pup unpack left trailing bytes");
}

}  // namespace picprk::vpr
