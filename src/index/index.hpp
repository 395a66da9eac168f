#pragma once

/// \file index.hpp
/// The abstract vector index interface plus the vector storage it operates
/// over. Paper background (section 2.1): vector databases employ specialized
/// index structures — HNSW graphs, inverted-file + product quantization,
/// KD-trees — to prune the search space of approximate nearest neighbor
/// queries. All of those are implemented behind this interface.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "dist/distance.hpp"
#include "dist/topk.hpp"

namespace vdb {

/// Contiguous row-major storage of vectors addressed by dense internal
/// offsets, with a side map to user PointIds. Indexes reference vectors by
/// offset so graph nodes stay 4 bytes.
class VectorStore {
 public:
  VectorStore(std::size_t dim, Metric metric);

  std::size_t Dim() const { return dim_; }
  Metric GetMetric() const { return metric_; }
  std::size_t Size() const { return ids_.size(); }

  /// Appends a vector; returns its internal offset. Cosine-metric stores
  /// normalize on ingest (Qdrant behaviour) so search reduces to dot product.
  Result<std::uint32_t> Add(PointId id, VectorView vector);

  /// Vector at internal offset. Precondition: offset < Size().
  VectorView At(std::uint32_t offset) const;
  PointId IdAt(std::uint32_t offset) const { return ids_[offset]; }

  /// Marks a point deleted (tombstone); offsets are never reused.
  Status MarkDeleted(std::uint32_t offset);
  bool IsDeleted(std::uint32_t offset) const { return deleted_[offset]; }
  std::size_t DeletedCount() const { return deleted_count_; }

  /// Raw base pointer for batched scoring.
  const Scalar* Data() const { return data_.data(); }

  /// Effective metric after ingest-normalization (cosine -> dot product).
  Metric SearchMetric() const;

  std::uint64_t MemoryBytes() const;

 private:
  std::size_t dim_;
  Metric metric_;
  std::vector<Scalar> data_;
  std::vector<PointId> ids_;
  std::vector<bool> deleted_;
  std::size_t deleted_count_ = 0;
};

/// Per-query search parameters.
struct SearchParams {
  std::size_t k = 10;
  /// HNSW beam width (Qdrant's `ef`); ignored by exact indexes.
  std::size_t ef_search = 64;
  /// IVF probe count; ignored by other indexes.
  std::size_t n_probes = 8;
  /// Intra-query fan-out: how many SearchArena threads one query may use
  /// (1 = serial, the default). Deliberately NOT part of the RPC wire format:
  /// each worker's concurrency controller sets it locally from its own load,
  /// so a hot entry node can't force fan-out onto an already saturated peer.
  std::size_t intra_fanout = 1;
};

/// Statistics gathered during index construction (drives cost-model
/// calibration and the fig. 3 analysis of CPU-bound index builds).
struct BuildStats {
  std::uint64_t distance_computations = 0;
  double build_seconds = 0.0;
  std::size_t indexed_count = 0;
  std::size_t threads_used = 1;
};

/// Abstract ANN index over an externally owned VectorStore.
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Short type tag: "flat", "hnsw", "ivf_pq", "kd_tree".
  virtual std::string_view Type() const = 0;

  /// Incrementally indexes the vector at `offset` (must already be in the
  /// store). Not all indexes support incremental adds (IVF-PQ requires
  /// training); those return FailedPrecondition before Build().
  ///
  /// Concurrency contract: Add is safe beside concurrent Search/SearchBatch
  /// calls — each index guards whatever a scan reads that Add changes — and
  /// a search sees a point either fully indexed or not at all. Callers
  /// serialize Add against other Adds, Build, Stats and MemoryBytes, and
  /// keep the store unchanged while any of them runs.
  virtual Status Add(std::uint32_t offset) = 0;

  /// Bulk (re)build over every live vector in the store. The paper's bulk
  /// upload flow defers indexing and triggers exactly this (section 3.3).
  /// Not safe beside searches: callers hold them off.
  virtual Status Build() = 0;

  /// True once the index can serve Search().
  virtual bool Ready() const = 0;

  /// Top-k most similar live points. Deleted points are filtered out.
  virtual Result<std::vector<ScoredPoint>> Search(VectorView query,
                                                  const SearchParams& params) const = 0;

  /// Top-k for every query of a batch, in query order. `params.intra_fanout`
  /// is the number of SearchArena threads the whole batch may use. The
  /// default runs the queries across that many threads with one serial
  /// Search each; a lone query keeps the fan-out for its own Search. Indexes
  /// whose scan can score several queries per pass override it.
  virtual Result<std::vector<std::vector<ScoredPoint>>> SearchBatch(
      std::span<const VectorView> queries, const SearchParams& params) const;

  virtual const BuildStats& Stats() const = 0;

  /// Approximate index memory footprint (excludes the VectorStore).
  virtual std::uint64_t MemoryBytes() const = 0;
};

/// Exhaustive scan over the live vectors at offsets >= `from` — exact
/// baseline used both for the unindexed tail (Qdrant's full-scan mode for
/// unindexed segments) and as ground truth for recall tests.
std::vector<ScoredPoint> ExactSearch(const VectorStore& store, VectorView query,
                                     std::size_t k, std::uint32_t from = 0);

}  // namespace vdb
