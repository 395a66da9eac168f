#pragma once

/// \file segment.hpp
/// On-disk immutable vector segments. A collection accumulates points in a
/// mutable in-memory buffer (the VectorStore) and periodically flushes them to
/// immutable segment files — Qdrant's segment/optimizer architecture, and the
/// "storing the data, optimizing the data layout" work the paper observes
/// competing with insertion bandwidth (section 3.2).
///
/// File layout (little-endian):
///   [magic u32][version u32][dim u32][metric u32][count u64]
///   [ids: count * u64]
///   [vectors: count * dim * f32]
///   [crc of everything above: u32]
///
/// SQ8 code segments (VDBQ) share the lifecycle but hold the compressed read
/// path's artifacts — quantization ranges, per-row dequantized norms, and the
/// blocked/transposed code image — and are opened with mmap so quantized
/// collections larger than RAM page codes in on demand:
///   [magic u32][version u32][dim u32][block_rows u32][count u64]
///   [dim_min: dim * f32][dim_scale: dim * f32]
///   [norms: count * f32]
///   [codes: ceil(count/block_rows) * block_rows * dim u8, blocked layout]
///   [crc of everything above: u32]

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "dist/distance.hpp"
#include "storage/sealed_file.hpp"

namespace vdb {

inline constexpr std::uint32_t kSegmentMagic = 0x56444253u;  // "VDBS"
inline constexpr std::uint32_t kSegmentVersion = 1;

/// In-memory image of a segment (used both for writing and after loading).
struct SegmentData {
  std::uint32_t dim = 0;
  Metric metric = Metric::kCosine;
  std::vector<PointId> ids;
  std::vector<Scalar> vectors;  // row-major, ids.size() rows

  std::size_t Count() const { return ids.size(); }
  VectorView RowAt(std::size_t row) const {
    return VectorView(vectors.data() + row * dim, dim);
  }
};

/// Writes `data` atomically (tmp file + rename) to `path`.
Status WriteSegment(const std::filesystem::path& path, const SegmentData& data);

/// Loads and CRC-verifies a segment file.
Result<SegmentData> ReadSegment(const std::filesystem::path& path);

/// Checks that ReadSegment would load `path`, keeping none of its rows.
Status VerifySegment(const std::filesystem::path& path);

/// The bytes WriteSegment puts in a file, as one in-memory image (stateless
/// shard objects), and their strict decoder.
std::vector<std::uint8_t> EncodeSegment(const SegmentData& data);
Result<SegmentData> DecodeSegment(std::span<const std::uint8_t> image);

// ---------------------------------------------------------------------------
// SQ8 code segments (the compressed read path's immutable artifact).

inline constexpr std::uint32_t kCodeSegmentMagic = 0x56444251u;  // "VDBQ"
inline constexpr std::uint32_t kCodeSegmentVersion = 1;

/// In-memory image of a code segment for writing.
struct CodeSegmentData {
  std::uint32_t dim = 0;
  std::uint32_t block_rows = 64;
  std::size_t count = 0;               ///< live rows (blocks may pad past it)
  std::vector<float> dim_min;          ///< dim entries
  std::vector<float> dim_scale;        ///< dim entries
  std::vector<float> norms;            ///< count entries, |dequant(row)|^2
  std::vector<std::uint8_t> blocks;    ///< blocked codes, whole-block padded
};

/// Writes `data` atomically (tmp file + rename) to `path`.
Status WriteCodeSegment(const std::filesystem::path& path,
                        const CodeSegmentData& data);

/// Read-only mmap view of a code segment. CRC-verified once at Open (which
/// touches every page; later reads are backed by the page cache and can be
/// evicted under memory pressure — the mmap-paging behaviour this exists
/// for). The mapping lives as long as this object; indexes share ownership
/// so a segment outlives the collection that attached it.
class MappedCodeSegment {
 public:
  static Result<std::shared_ptr<MappedCodeSegment>> Open(
      const std::filesystem::path& path);

  MappedCodeSegment(const MappedCodeSegment&) = delete;
  MappedCodeSegment& operator=(const MappedCodeSegment&) = delete;

  std::size_t Dim() const { return dim_; }
  std::size_t BlockRows() const { return block_rows_; }
  std::size_t Count() const { return count_; }
  const float* DimMin() const { return dim_min_; }
  const float* DimScale() const { return dim_scale_; }
  const float* Norms() const { return norms_; }
  const std::uint8_t* Blocks() const { return blocks_; }

 private:
  MappedCodeSegment() = default;

  MappedFile file_;
  std::size_t dim_ = 0;
  std::size_t block_rows_ = 0;
  std::size_t count_ = 0;
  const float* dim_min_ = nullptr;
  const float* dim_scale_ = nullptr;
  const float* norms_ = nullptr;
  const std::uint8_t* blocks_ = nullptr;
};

}  // namespace vdb
