#include "stateless/stateless_cluster.hpp"

#include <algorithm>

#include "cluster/placement.hpp"  // ShardForPoint
#include "common/rng.hpp"

namespace vdb::stateless {

// ---- StatelessIngestor -------------------------------------------------------

StatelessIngestor::StatelessIngestor(ObjectStore& store, std::uint32_t num_shards,
                                     std::size_t dim, Metric metric,
                                     std::size_t points_per_segment)
    : store_(store),
      num_shards_(std::max(1u, num_shards)),
      dim_(dim),
      metric_(metric),
      points_per_segment_(std::max<std::size_t>(1, points_per_segment)) {
  buffers_.resize(num_shards_);
  for (auto& buffer : buffers_) {
    buffer.dim = static_cast<std::uint32_t>(dim_);
    buffer.metric = metric_;
  }
}

Status StatelessIngestor::Append(const PointRecord& point) {
  if (point.vector.size() != dim_) {
    return Status::InvalidArgument("point dim mismatch");
  }
  const ShardId shard = ShardForPoint(point.id, num_shards_);
  auto& buffer = buffers_[shard];
  buffer.ids.push_back(point.id);
  buffer.vectors.insert(buffer.vectors.end(), point.vector.begin(),
                        point.vector.end());
  if (buffer.ids.size() >= points_per_segment_) {
    VDB_RETURN_IF_ERROR(FlushShard(shard));
  }
  return Status::Ok();
}

Status StatelessIngestor::AppendBatch(const std::vector<PointRecord>& points) {
  for (const auto& point : points) {
    VDB_RETURN_IF_ERROR(Append(point));
  }
  return Status::Ok();
}

Status StatelessIngestor::FlushShard(ShardId shard) {
  auto& buffer = buffers_[shard];
  if (buffer.ids.empty()) return Status::Ok();
  const std::uint64_t seq = NextSegmentSeq(store_, shard);
  VDB_RETURN_IF_ERROR(store_.Put(SegmentKey(shard, seq), EncodeSegment(buffer)));
  points_written_ += buffer.ids.size();
  ++segments_written_;
  buffer.ids.clear();
  buffer.vectors.clear();
  return Status::Ok();
}

Status StatelessIngestor::Flush() {
  for (ShardId shard = 0; shard < num_shards_; ++shard) {
    VDB_RETURN_IF_ERROR(FlushShard(shard));
  }
  return Status::Ok();
}

// ---- StatelessWorker ---------------------------------------------------------

StatelessWorker::StatelessWorker(WorkerId id, const ObjectStore& store,
                                 CacheConfig cache_config)
    : id_(id), cache_(store, std::move(cache_config)) {}

Result<std::vector<ScoredPoint>> StatelessWorker::SearchShards(
    const std::vector<ShardId>& shards, VectorView query, const SearchParams& params) {
  std::vector<std::vector<ScoredPoint>> partials;
  partials.reserve(shards.size());
  for (const ShardId shard : shards) {
    VDB_ASSIGN_OR_RETURN(const auto loaded, cache_.GetOrLoad(shard));
    VDB_ASSIGN_OR_RETURN(auto hits, loaded->Search(query, params));
    partials.push_back(std::move(hits));
  }
  return MergeTopK(partials, params.k);
}

// ---- StatelessCluster ----------------------------------------------------------

StatelessCluster::StatelessCluster(ObjectStore& store, StatelessClusterConfig config)
    : store_(store), config_(config) {
  for (WorkerId id = 0; id < config_.num_workers; ++id) {
    workers_.push_back(std::make_unique<StatelessWorker>(id, store_, config_.cache));
  }
}

WorkerId StatelessCluster::OwnerOf(ShardId shard) const {
  // Rendezvous hashing: owner = argmax_w hash(shard, w). Adding a worker only
  // steals the shards whose new hash wins — every other cache entry stays hot.
  WorkerId best = 0;
  std::uint64_t best_weight = 0;
  for (WorkerId worker = 0; worker < NumWorkers(); ++worker) {
    std::uint64_t state = (static_cast<std::uint64_t>(shard) << 32) | (worker + 1);
    const std::uint64_t weight = SplitMix64(state);
    if (weight >= best_weight) {
      best_weight = weight;
      best = worker;
    }
  }
  return best;
}

Result<std::vector<ScoredPoint>> StatelessCluster::Search(VectorView query,
                                                          const SearchParams& params) {
  // Group shards by owner, search each owner's set, merge.
  std::vector<std::vector<ShardId>> assignment(NumWorkers());
  for (ShardId shard = 0; shard < config_.num_shards; ++shard) {
    assignment[OwnerOf(shard)].push_back(shard);
  }
  std::vector<std::vector<ScoredPoint>> partials;
  for (WorkerId worker = 0; worker < NumWorkers(); ++worker) {
    if (assignment[worker].empty()) continue;
    VDB_ASSIGN_OR_RETURN(
        auto hits, workers_[worker]->SearchShards(assignment[worker], query, params));
    partials.push_back(std::move(hits));
  }
  return MergeTopK(partials, params.k);
}

std::uint64_t StatelessCluster::ScaleTo(std::uint32_t new_num_workers) {
  new_num_workers = std::max(1u, new_num_workers);
  while (workers_.size() > new_num_workers) workers_.pop_back();
  for (WorkerId id = static_cast<WorkerId>(workers_.size()); id < new_num_workers;
       ++id) {
    workers_.push_back(std::make_unique<StatelessWorker>(id, store_, config_.cache));
  }
  config_.num_workers = new_num_workers;
  return 0;  // compute/storage separation: no data repartitioning, ever
}

void StatelessCluster::InvalidateShard(ShardId shard) {
  for (auto& worker : workers_) worker->Invalidate(shard);
}

CacheStats StatelessCluster::AggregateCacheStats() const {
  CacheStats total;
  for (const auto& worker : workers_) {
    const CacheStats stats = worker->Cache();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
    total.resident_bytes += stats.resident_bytes;
    total.resident_shards += stats.resident_shards;
    total.load_seconds += stats.load_seconds;
  }
  return total;
}

}  // namespace vdb::stateless
