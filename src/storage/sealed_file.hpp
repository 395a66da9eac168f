#pragma once

/// \file sealed_file.hpp
/// The framing every persisted file format shares: a field list (see
/// common/archive.hpp) followed by the CRC32C of its bytes, written through a
/// temporary file that is renamed into place.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "common/archive.hpp"
#include "common/status.hpp"
#include "storage/crc32.hpp"

namespace vdb {

/// Streams each field's bytes to `out` and folds them into a running CRC32C.
struct CrcStreamPut {
  std::ostream& out;
  std::uint32_t crc = 0;

  void operator()(const void* src, std::size_t n) {
    crc = Crc32c(src, n, crc);
    out.write(static_cast<const char*>(src), static_cast<std::streamsize>(n));
  }
};

/// Writes fields to a stream as they come, then Seal() appends the CRC32C of
/// every byte written. Nothing is staged in memory.
class SealedWriter {
 public:
  explicit SealedWriter(std::ostream& out) : ar_{{out}} {}

  void operator()(const auto&... fields) { ar_(fields...); }
  /// Appends the CRC; IoError if any write failed.
  Status Seal();

 private:
  BasicWriteArchive<CrcStreamPut> ar_;
};

/// `image` without its CRC trailer; Corruption naming `what` when the trailer
/// is missing or does not match.
Result<std::span<const std::uint8_t>> Unseal(std::span<const std::uint8_t> image,
                                             std::string_view what);

/// Writes `path` atomically: `write` fills `path`.tmp, which is then renamed
/// over `path`.
Status WriteFileAtomic(const std::filesystem::path& path,
                       const std::function<Status(std::ostream&)>& write);

/// A read-only mapping of a whole file: decoders read its bytes from the page
/// cache, so loading a file does not hold a second copy of it on the heap.
class MappedFile {
 public:
  /// NotFound when there is no file at `path`.
  static Result<MappedFile> Open(const std::filesystem::path& path);

  std::span<const std::uint8_t> bytes() const {
    return {static_cast<const std::uint8_t*>(map_.get()), map_.get_deleter().size};
  }
  /// Inverts the byte at `at` in this process's private copy of its page,
  /// leaving the file as it is (storage fault injection).
  Status FlipByte(std::size_t at);

 private:
  struct Unmap {
    std::size_t size;
    void operator()(void* map) const;
  };
  std::unique_ptr<void, Unmap> map_;
};

}  // namespace vdb
