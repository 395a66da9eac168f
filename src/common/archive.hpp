#pragma once

/// \file archive.hpp
/// Field-list serialization shared by the wire codec and every persisted
/// format. A type names its fields once, in order, as `Fields(ar, v)` (`v` is
/// const when writing), in the namespace of the type so that argument-
/// dependent lookup finds it. Archives walk that list: a write archive hands
/// the bytes to a sink (SizeArchive only counts them), and ReadArchive reads
/// them back with every bound checked.
///
/// Encoding: arithmetic fields are raw little-endian (bool is one byte).
/// Vectors, strings and spans are a u32 count then the elements; maps are a
/// u32 count then key/value pairs. Block(v, n) is `n` elements with no count
/// in front, for a count that was an earlier field. Arithmetic elements other
/// than bool move as one raw block.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace vdb {

/// `Fields(auto& ar, Is<T> auto& v)` matches T and const T.
template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

template <class T>
concept Map = requires {
  typename T::key_type;
  typename T::mapped_type;
};

/// std::vector, std::string or std::span.
template <class T>
concept List = !Map<T> && requires(const T& v) {
  v.size();
  v.data();
  typename T::value_type;
};

/// List elements moved as one raw block: everything arithmetic but bool.
template <class T>
concept RawElement = std::is_arithmetic_v<T> && !std::same_as<T, bool>;

/// `n` elements of `v` with no count in front. Writing takes v.size();
/// reading resizes a vector to `n`, or points a span of const elements at
/// the input (which must then outlive the span).
template <class V>
struct Block {
  V& v;
  std::uint64_t n;
};
template <class V>
Block(V&, std::uint64_t) -> Block<V>;

template <class T>
inline constexpr bool kIsBlock = false;
template <class V>
inline constexpr bool kIsBlock<Block<V>> = true;

/// a * b, or the largest u64 when that overflows: a count derived from file
/// fields then fails the read's bound instead of wrapping to a small one.
constexpr std::uint64_t SaturatingMul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product)
             ? std::numeric_limits<std::uint64_t>::max()
             : product;
}

/// Sequential writer: passes each field's bytes, in order, to `put(src, n)`.
template <class Put>
struct BasicWriteArchive {
  Put put;

  void operator()(const auto&... fields) { (Write(fields), ...); }

  template <class T>
  void Write(const T& v) {
    if constexpr (std::same_as<T, bool>) {
      static_assert(sizeof(bool) == 1, "bool travels as one byte");
      Write(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_arithmetic_v<T>) {
      put(&v, sizeof(T));
    } else if constexpr (kIsBlock<T>) {
      Elements(v.v);
    } else if constexpr (Map<T>) {
      Write(static_cast<std::uint32_t>(v.size()));
      for (const auto& [key, value] : v) Write(key), Write(value);
    } else if constexpr (List<T>) {
      Write(static_cast<std::uint32_t>(v.size()));
      Elements(v);
    } else {
      Fields(*this, v);
    }
  }

 private:
  template <class L>
  void Elements(const L& v) {
    if constexpr (RawElement<typename L::value_type>) {
      put(v.data(), v.size() * sizeof(typename L::value_type));
    } else {
      for (const auto& e : v) Write(e);
    }
  }
};

/// Counts the bytes instead of writing them: the exact encoded size.
struct CountPut {
  std::size_t bytes = 0;
  void operator()(const void*, std::size_t n) { bytes += n; }
};
using SizeArchive = BasicWriteArchive<CountPut>;

/// Copies into a buffer presized by SizeArchive.
struct BufferPut {
  std::uint8_t* out;
  void operator()(const void* src, std::size_t n) {
    if (n > 0) std::memcpy(out, src, n);
    out += n;
  }
};
using WriteArchive = BasicWriteArchive<BufferPut>;

std::size_t EncodedSize(const auto&... fields) {
  SizeArchive size;
  size(fields...);
  return size.put.bytes;
}

/// Smallest encoding of one element (a default value has empty lists):
/// bounds how many elements a decoded count may claim.
template <class... T>
std::size_t MinEncodedBytes() {
  return std::max<std::size_t>(EncodedSize(T{}...), 1);
}

/// Bounds-checked reader. The first failed read latches !ok() and turns the
/// rest into no-ops, so a decoder checks once at the end. No count is trusted
/// before the bytes left can hold it, so a lying count fails before anything
/// is allocated from it.
class ReadArchive {
 public:
  ReadArchive(const std::uint8_t* data, std::size_t size)
      : pos_(data), left_(size) {}
  explicit ReadArchive(std::span<const std::uint8_t> bytes)
      : ReadArchive(bytes.data(), bytes.size()) {}

  /// Fields are lvalues, except Block(v, n), which refers to its target.
  template <class... F>
  void operator()(F&&... fields) {
    static_assert(((std::is_lvalue_reference_v<F> ||
                    kIsBlock<std::remove_cvref_t<F>>) && ...),
                  "reading into a temporary");
    (Read(fields), ...);
  }
  bool ok() const { return ok_; }
  bool done() const { return left_ == 0; }
  /// The bytes not read yet.
  std::span<const std::uint8_t> rest() const { return {pos_, left_}; }

 private:
  template <class T>
  void Read(T& v) {
    if constexpr (std::same_as<T, bool>) {
      std::uint8_t byte = 0;
      Read(byte);
      v = byte != 0;
    } else if constexpr (std::is_arithmetic_v<T>) {
      Bytes(&v, sizeof(T));
    } else if constexpr (kIsBlock<T>) {
      Elements(v.v, v.n);
    } else if constexpr (Map<T>) {
      using K = typename T::key_type;
      using V = typename T::mapped_type;
      std::uint32_t count = 0;
      Read(count);
      ok_ = ok_ && count <= left_ / MinEncodedBytes<K, V>();
      v.clear();
      for (std::uint32_t i = 0; i < count && ok_; ++i) {
        K key{};
        V value{};
        Read(key);
        Read(value);
        // A repeated key would make the encoding ambiguous.
        ok_ = ok_ && v.emplace(std::move(key), std::move(value)).second;
      }
    } else if constexpr (List<T>) {
      std::uint32_t count = 0;
      Read(count);
      Elements(v, count);
    } else {
      Fields(*this, v);
    }
  }

  template <class L>
  void Elements(L& v, std::uint64_t count) {
    using E = std::remove_const_t<typename L::value_type>;
    ok_ = ok_ && count <= left_ / MinEncodedBytes<E>();
    if (!ok_) return;
    if constexpr (std::same_as<L, std::span<const E>>) {
      static_assert(RawElement<E>, "only raw elements can be viewed in place");
      // A view needs the input aligned for E; a misaligned one is malformed.
      ok_ = reinterpret_cast<std::uintptr_t>(pos_) % alignof(E) == 0;
      if (!ok_) return;
      v = {reinterpret_cast<const E*>(pos_), count};
      pos_ += count * sizeof(E);
      left_ -= count * sizeof(E);
    } else {
      v.resize(count);
      if constexpr (RawElement<E>) {
        Bytes(v.data(), count * sizeof(E));
      } else {
        for (auto& e : v) Read(e);
      }
    }
  }

  void Bytes(void* dst, std::size_t n) {
    ok_ = ok_ && n <= left_;
    if (!ok_ || n == 0) return;
    std::memcpy(dst, pos_, n);
    pos_ += n;
    left_ -= n;
  }

  const std::uint8_t* pos_;
  std::size_t left_;
  bool ok_ = true;
};

/// The fields' encoding as a new byte vector.
std::vector<std::uint8_t> Encode(const auto&... fields) {
  std::vector<std::uint8_t> out(EncodedSize(fields...));
  WriteArchive{out.data()}(fields...);
  return out;
}

/// Reads all of `bytes` into `fields`; false on a short read, a count the
/// bytes cannot hold, or a byte left over.
bool Decode(std::span<const std::uint8_t> bytes, auto&... fields) {
  ReadArchive in(bytes);
  in(fields...);
  return in.ok() && in.done();
}

}  // namespace vdb
