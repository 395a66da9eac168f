#pragma once

/// \file sq8_codes.hpp
/// Shared SQ8 machinery behind every compressed read path: per-dimension
/// affine quantization ranges (train / round-to-nearest encode / decode),
/// query preparation, score finishing in the repo-wide similarity convention,
/// and the blocked/transposed (PDX-style) code storage the flat scan streams.
///
/// Score comparability (the cross-shard merge contract): the approximate
/// inner product decomposes as
///   <q, dequant(x)> = sum_d q[d]*min[d]  +  sum_d (q[d]*scale[d]) * code[d]
/// The first term — `PreparedQuery::bias` — is constant per *shard* (it
/// depends on the shard's trained ranges), not per collection, so it must be
/// folded into every emitted score or the router merges incomparable numbers
/// whenever shards trained different ranges. For L2 stores the score is
/// further converted to the negated-squared-distance convention via
///   -|q - x|^2 = 2*<q, x> - |x|^2 - |q|^2
/// using the per-row dequantized norm kept alongside the codes.

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/distance.hpp"
#include "index/index.hpp"

namespace vdb {

/// Per-dimension affine ranges: value ~= min[d] + scale[d] * code[d].
class Sq8Ranges {
 public:
  bool Trained() const { return trained_; }
  std::size_t Dim() const { return min_.size(); }
  const std::vector<float>& Min() const { return min_; }
  const std::vector<float>& Scale() const { return scale_; }

  /// Trains clipped per-dimension ranges over the store's rows (samples at
  /// most 4096 rows with a deterministic stride). `quantile` clips outliers
  /// (1.0 = exact min/max); clamped to [0.5, 1.0].
  void Train(const VectorStore& store, double quantile);

  /// Adopts ranges recovered from an mmap'd code segment.
  void Adopt(std::vector<float> min, std::vector<float> scale);

  /// Round-to-nearest encode: within the trained range the round-trip error
  /// is at most scale[d]/2 per dimension (truncation would double that).
  void Encode(const float* v, std::uint8_t* out) const;
  Vector Decode(const std::uint8_t* codes) const;

  /// Squared L2 norm of the dequantized row — stored per row so L2-metric
  /// scores stay metric-space comparable (see file comment).
  float DecodedNormSq(const std::uint8_t* codes) const;

  struct PreparedQuery {
    std::vector<float> adj;     ///< q[d] * scale[d] — fed to the u8 kernels
    float bias = 0.f;           ///< sum_d q[d] * min[d] — per-shard constant
    float query_norm_sq = 0.f;  ///< |q|^2 for the L2 conversion
  };
  PreparedQuery Prepare(VectorView query) const;

  /// `adj` symmetrically quantized to i8 for the integer coarse kernel
  /// (DotProductU8QBlocked): dot_part ~= factor * sum_d q[d] * code[d].
  struct QuantizedQuery {
    std::vector<std::int8_t> q;
    float factor = 0.f;  ///< max|adj| / 127; 0 for an all-zero query
  };
  /// Quantizes a prepared query's adjusted weights. The per-dimension error
  /// is at most factor/2 * code — coarse-only precision, so callers must pair
  /// this with an exact rerank pass (never the merge-facing no-rerank path).
  static QuantizedQuery QuantizeAdjusted(const std::vector<float>& adj);

 private:
  bool trained_ = false;
  std::vector<float> min_;
  std::vector<float> scale_;
};

/// Finishes a code-dependent partial dot (sum_d q[d]*scale[d]*code[d]) into a
/// score in the repo-wide higher-is-better convention:
///   kInnerProduct: bias + dot_part                      (approximate <q, x>)
///   kL2:           2*(bias + dot_part) - |x|^2 - |q|^2  (approximate -|q-x|^2)
/// Cosine never reaches here: cosine stores normalize at ingest and search
/// through the kInnerProduct convention (VectorStore::SearchMetric).
inline float FinishSq8Score(Metric metric, const Sq8Ranges::PreparedQuery& q,
                            float dot_part, float row_norm_sq) {
  const float approx_ip = q.bias + dot_part;
  if (metric == Metric::kL2) {
    return 2.f * approx_ip - row_norm_sq - q.query_norm_sq;
  }
  return approx_ip;
}

/// Blocked/transposed code storage: rows live in blocks of kBlockRows, each
/// block dimension-major (`block[d * kBlockRows + r]`), so a scan streams
/// cache-line-aligned 64-byte code lines instead of strided rows. A prefix of
/// whole blocks may reference an mmap'd read-only code segment in place; the
/// trailing partial block and everything appended later live on the heap.
class Sq8BlockedCodes {
 public:
  static constexpr std::size_t kBlockRows = kSq8BlockRows;

  void Reset(std::size_t dim);

  std::size_t Dim() const { return dim_; }
  std::size_t Rows() const { return rows_; }
  std::size_t NumBlocks() const { return (rows_ + kBlockRows - 1) / kBlockRows; }
  std::size_t BlockBytes() const { return dim_ * kBlockRows; }

  /// Appends one row of `Dim()` row-major codes, scattering it into the
  /// transposed tail block (padding rows stay zero).
  void Append(const std::uint8_t* row_codes);

  /// Adopts `rows` rows stored blocked at `blocks` (an mmap'd code segment
  /// that must outlive this object). Whole blocks are referenced in place;
  /// the trailing partial block is copied to the heap so Append() can extend
  /// it. Resets any previous contents.
  void AttachMapped(const std::uint8_t* blocks, std::size_t rows, std::size_t dim);

  /// Scores block `b` against `nq` queries with the blocked u8 kernel (one
  /// walk of the block per query tile); `out` must hold nq x kBlockRows
  /// floats, query-major. Rows past Rows() are zero padding — mask them by
  /// row index.
  void ScoreBlock(std::size_t b, const float* const* q_adj, std::size_t nq,
                  float* out) const;

  /// Integer coarse variant: scores block `b` against i8-quantized queries
  /// (Sq8Ranges::QuantizeAdjusted), writing raw i32 sums.
  void ScoreBlockQ(std::size_t b, const std::int8_t* const* q_i8,
                   std::size_t nq, std::int32_t* out) const;

  /// De-transposes one row's codes into `out` (Dim() bytes).
  void CopyRow(std::size_t row, std::uint8_t* out) const;

  /// All codes as one contiguous blocked image padded to whole blocks — the
  /// code-segment writer's input.
  std::vector<std::uint8_t> ToBlockedImage() const;

  /// Heap bytes only (the mapped prefix is accounted to the segment).
  std::uint64_t HeapBytes() const { return tail_.size(); }

 private:
  const std::uint8_t* BlockPtr(std::size_t b) const;

  std::size_t dim_ = 0;
  std::size_t rows_ = 0;
  const std::uint8_t* mapped_ = nullptr;  ///< blocked prefix, not owned
  std::size_t mapped_blocks_ = 0;         ///< whole blocks at mapped_
  std::vector<std::uint8_t> tail_;        ///< heap blocks after the prefix
};

}  // namespace vdb
