#pragma once

/// \file sq_index.hpp
/// Scalar-quantized (SQ8) flat index: stores each vector as one byte per
/// dimension with per-dimension affine dequantization, scans the codes in a
/// blocked/transposed (PDX-style) layout with the blocked u8 kernel, and
/// optionally reranks the top candidates with full-precision scores. This is
/// Qdrant's "scalar quantization" storage option — 4x less memory and better
/// cache behaviour than float32 at a small recall cost, directly relevant to
/// the paper's memory-pressure observations during index builds (fig. 3).
///
/// Scores follow the repo-wide similarity convention even without rerank:
/// the per-shard constant shift sum_d q[d]*min[d] is folded in and L2 stores
/// get the negated-squared-distance conversion via stored per-row norms, so
/// the router can merge no-rerank scores across shards whose quantization
/// ranges differ (see sq8_codes.hpp).

#include <memory>
#include <shared_mutex>
#include <vector>

#include "index/index.hpp"
#include "index/sq8_codes.hpp"
#include "storage/segment.hpp"

namespace vdb {

struct SqParams {
  /// Rerank the top `rerank` candidates with exact float scores (0 = off).
  std::size_t rerank = 32;
  /// Clip quantization range to this quantile of per-dim values (outlier
  /// robustness; 1.0 = min/max).
  double quantile = 0.99;
};

class SqIndex final : public VectorIndex {
 public:
  SqIndex(const VectorStore& store, SqParams params);

  std::string_view Type() const override { return "sq8"; }

  /// Valid after Build() (needs the per-dimension ranges); encodes, then
  /// appends under `codes_mutex_` so a concurrent scan never sees the code
  /// vectors move.
  Status Add(std::uint32_t offset) override;

  /// Trains per-dimension ranges over the store, then encodes every vector.
  /// With an attached code segment the ranges are kept and only the
  /// uncovered tail is encoded (retraining would invalidate the mapped
  /// codes).
  Status Build() override;

  bool Ready() const override { return ranges_.Trained(); }

  /// A batch of one (see SearchBatch).
  Result<std::vector<ScoredPoint>> Search(VectorView query,
                                          const SearchParams& params) const override;

  /// One walk of the codes per batch: every code block is scored against
  /// all queries by one multi-query kernel call, which walks the block once
  /// per query tile. Each query keeps its own coarse TopK and its own exact
  /// rerank, so its hits are identical to a batch of one. With
  /// `params.intra_fanout` > 1 the block range is split across arena
  /// threads and each query's chunk results are merged.
  Result<std::vector<std::vector<ScoredPoint>>> SearchBatch(
      std::span<const VectorView> queries,
      const SearchParams& params) const override;

  const BuildStats& Stats() const override { return stats_; }
  std::uint64_t MemoryBytes() const override;

  /// Writes ranges + blocked codes + per-row norms as an immutable code
  /// segment. Requires code row i == store offset i for every row (the
  /// collection's zero-tombstone flush invariant).
  Status SaveCodeSegment(const std::filesystem::path& path) const;

  /// Attaches an mmap'd code segment covering store offsets
  /// [0, segment->Count()); adopts its ranges and marks the index trained.
  /// Build()/Add() then encode only offsets past the covered prefix. The
  /// index shares ownership of the mapping.
  Status AttachCodeSegment(std::shared_ptr<MappedCodeSegment> segment);

  /// Quantize/dequantize one vector — exposed for round-trip tests.
  std::vector<std::uint8_t> EncodeForTest(VectorView v) const;
  Vector DecodeForTest(const std::vector<std::uint8_t>& codes) const;

 private:
  float NormSqAt(std::size_t row) const;

  const VectorStore& store_;
  SqParams params_;

  Sq8Ranges ranges_;
  /// Held shared by a scan and exclusively by Add's append: guards codes_,
  /// offsets_ and tail_norms_, which Add grows beside searches.
  mutable std::shared_mutex codes_mutex_;
  Sq8BlockedCodes codes_;
  std::vector<std::uint32_t> offsets_;  ///< code row -> store offset
  /// |dequant(row)|^2 per code row: the mapped prefix reads the segment's
  /// norm array, appended rows go to the heap tail.
  const float* mapped_norms_ = nullptr;
  std::size_t mapped_norm_rows_ = 0;
  std::vector<float> tail_norms_;
  std::shared_ptr<MappedCodeSegment> segment_;  ///< keeps the mapping alive
  /// Next store offset Build() considers (attach advances it past the
  /// mapped prefix).
  std::uint32_t encode_watermark_ = 0;

  BuildStats stats_;
};

}  // namespace vdb
