#include "index/index.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "index/search_arena.hpp"
#include "obs/obs.hpp"

namespace vdb {

VectorStore::VectorStore(std::size_t dim, Metric metric)
    : dim_(dim), metric_(metric) {}

Result<std::uint32_t> VectorStore::Add(PointId id, VectorView vector) {
  if (vector.size() != dim_) {
    return Status::InvalidArgument("vector dim " + std::to_string(vector.size()) +
                                   " != store dim " + std::to_string(dim_));
  }
  if (ids_.size() >= static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    return Status::ResourceExhausted("vector store offset space exhausted");
  }
  const auto offset = static_cast<std::uint32_t>(ids_.size());
  const std::size_t old_size = data_.size();
  data_.resize(old_size + dim_);
  std::memcpy(data_.data() + old_size, vector.data(), dim_ * sizeof(Scalar));
  if (PrefersNormalized(metric_)) {
    Vector tmp(data_.begin() + static_cast<std::ptrdiff_t>(old_size), data_.end());
    NormalizeInPlace(tmp);
    std::memcpy(data_.data() + old_size, tmp.data(), dim_ * sizeof(Scalar));
  }
  ids_.push_back(id);
  deleted_.push_back(false);
  return offset;
}

VectorView VectorStore::At(std::uint32_t offset) const {
  return VectorView(data_.data() + static_cast<std::size_t>(offset) * dim_, dim_);
}

Status VectorStore::MarkDeleted(std::uint32_t offset) {
  if (offset >= ids_.size()) return Status::OutOfRange("offset beyond store");
  if (!deleted_[offset]) {
    deleted_[offset] = true;
    ++deleted_count_;
  }
  return Status::Ok();
}

Metric VectorStore::SearchMetric() const {
  return metric_ == Metric::kCosine ? Metric::kInnerProduct : metric_;
}

std::uint64_t VectorStore::MemoryBytes() const {
  return data_.size() * sizeof(Scalar) + ids_.size() * sizeof(PointId) +
         deleted_.size() / 8;
}

std::vector<ScoredPoint> ExactSearch(const VectorStore& store, VectorView query,
                                     std::size_t k, std::uint32_t from) {
  TopK collector(k);
  const Metric metric = store.SearchMetric();
  // Normalize the query once if the store normalized on ingest.
  Vector normalized;
  VectorView effective_query = query;
  if (PrefersNormalized(store.GetMetric())) {
    normalized.assign(query.begin(), query.end());
    NormalizeInPlace(normalized);
    effective_query = normalized;
  }
  // Row-blocked batched scan: score a block of contiguous rows per kernel
  // call (deleted rows are scored too — cheaper than fragmenting the batch —
  // and filtered at push time).
  constexpr std::size_t kScanBlock = 256;
  Scalar scores[kScanBlock];
  const std::size_t n = store.Size();
  const std::size_t dim = store.Dim();
  for (std::size_t begin = from; begin < n; begin += kScanBlock) {
    const std::size_t count = std::min(kScanBlock, n - begin);
    ScoreBatch(metric, effective_query, store.Data() + begin * dim, dim, count, scores);
    for (std::size_t i = 0; i < count; ++i) {
      const auto offset = static_cast<std::uint32_t>(begin + i);
      if (store.IsDeleted(offset)) continue;
      collector.Push(store.IdAt(offset), scores[i]);
    }
  }
  return collector.Take();
}

Result<std::vector<std::vector<ScoredPoint>>> VectorIndex::SearchBatch(
    std::span<const VectorView> queries, const SearchParams& params) const {
  std::vector<std::vector<ScoredPoint>> results(queries.size());
  if (queries.size() == 1) {
    VDB_ASSIGN_OR_RETURN(results[0], Search(queries[0], params));
    return results;
  }
  // Batch width and intra-query fan-out spend the same arena budget, so the
  // queries of a batch search serially on their threads.
  SearchParams per_query = params;
  per_query.intra_fanout = 1;
  std::vector<Status> statuses(queries.size(), Status::Ok());
  SearchArena::Instance().ParallelFor(
      params.intra_fanout, 0, queries.size(), /*grain=*/1, [&](std::size_t q) {
        VDB_SPAN("index.search_batch.query");
        auto hits = Search(queries[q], per_query);
        if (hits.ok()) {
          results[q] = std::move(*hits);
        } else {
          statuses[q] = hits.status();
        }
      });
  for (const Status& status : statuses) VDB_RETURN_IF_ERROR(status);
  return results;
}

}  // namespace vdb
