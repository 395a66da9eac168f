#pragma once

/// \file ivf_pq_index.hpp
/// Inverted-file index with product quantization (Jégou et al., TPAMI 2011) —
/// the second major index family the paper's background covers. A k-means
/// coarse quantizer partitions vectors into `n_lists` inverted lists; within a
/// list, vectors are stored as PQ codes (`n_subspaces` bytes each). Queries
/// probe the `n_probes` nearest lists and rank codes with asymmetric distance
/// computation (ADC) lookup tables.

#include <shared_mutex>
#include <vector>

#include "index/index.hpp"
#include "index/kmeans.hpp"

namespace vdb {

struct IvfPqParams {
  /// Number of inverted lists (coarse centroids).
  std::size_t n_lists = 64;
  /// PQ subspaces; dim must be divisible by this. 0 = auto (dim/8 capped to 64).
  std::size_t n_subspaces = 0;
  /// Codebook size per subspace (8-bit codes).
  std::size_t codebook_size = 256;
  /// Vectors sampled for training (codebooks + coarse quantizer).
  std::size_t train_sample = 16384;
  std::uint64_t seed = 1234;
  /// Rerank the top candidates with exact distances over original vectors
  /// (refine step); 0 disables. Improves recall at small extra cost.
  std::size_t rerank = 0;
};

class IvfPqIndex final : public VectorIndex {
 public:
  IvfPqIndex(const VectorStore& store, IvfPqParams params);

  std::string_view Type() const override { return "ivf_pq"; }

  /// Valid only after Build() (needs trained codebooks); encodes, then
  /// appends under `lists_mutex_` so a concurrent probe never sees a list
  /// move.
  Status Add(std::uint32_t offset) override;

  /// Trains quantizers on a sample, then encodes every live vector.
  Status Build() override;

  bool Ready() const override { return trained_; }

  Result<std::vector<ScoredPoint>> Search(VectorView query,
                                          const SearchParams& params) const override;

  const BuildStats& Stats() const override { return stats_; }
  std::uint64_t MemoryBytes() const override;

  std::size_t NumLists() const { return params_.n_lists; }
  std::size_t NumSubspaces() const { return params_.n_subspaces; }

  /// Encodes a vector into PQ codes — exposed for round-trip tests.
  std::vector<std::uint8_t> EncodeForTest(VectorView v) const;
  /// Decodes PQ codes back to the reconstructed vector.
  Vector DecodeForTest(const std::vector<std::uint8_t>& codes) const;

 private:
  /// Entries per transposed code block in an inverted list (PDX-style): codes
  /// are stored `codes[block * n_subspaces * kAdcBlock + s * kAdcBlock + r]`
  /// so the ADC scan streams one contiguous 64-byte code line per subspace
  /// instead of strided row-major reads.
  static constexpr std::size_t kAdcBlock = 64;

  struct InvertedList {
    std::vector<std::uint32_t> offsets;       // store offsets
    std::vector<std::uint8_t> codes;          // blocked/transposed, see kAdcBlock
  };

  void Encode(VectorView v, std::uint8_t* codes_out) const;

  /// Builds the ADC table for each subspace s and code c. For IP-convention
  /// stores (IP, and cosine via normalized ingest) the entries are subspace
  /// dot products so the summed score is the approximate inner product —
  /// already in the repo-wide similarity convention. For L2 stores they are
  /// squared subspace distances, negated at push time. Either way the emitted
  /// scores are metric-space comparable across shards (the old
  /// always-negated-L2 output was not an IP approximation at all).
  std::vector<float> BuildAdcTable(VectorView query) const;

  const VectorStore& store_;
  IvfPqParams params_;
  std::size_t sub_dim_ = 0;

  bool trained_ = false;
  std::vector<Scalar> coarse_centroids_;            // n_lists x dim
  std::vector<std::vector<Scalar>> codebooks_;      // per subspace: codebook_size x sub_dim
  /// Held shared by a probe and exclusively by Add's append.
  mutable std::shared_mutex lists_mutex_;
  std::vector<InvertedList> lists_;

  BuildStats stats_;
};

}  // namespace vdb
