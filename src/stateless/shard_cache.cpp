#include "stateless/shard_cache.hpp"

#include "common/stopwatch.hpp"

namespace vdb::stateless {

LoadedShard::LoadedShard(std::size_t dim, Metric metric)
    : vectors_(std::make_unique<VectorStore>(dim, metric)) {}

Result<std::shared_ptr<const LoadedShard>> LoadedShard::Load(
    const ObjectStore& store, ShardId shard, std::size_t dim, Metric metric,
    const IndexSpec& index_spec) {
  std::shared_ptr<LoadedShard> loaded(new LoadedShard(dim, metric));
  for (const auto& key : store.List(ShardPrefix(shard))) {
    VDB_ASSIGN_OR_RETURN(const ObjectBytes bytes, store.Get(key));
    VDB_ASSIGN_OR_RETURN(const SegmentData segment, DecodeSegment(bytes));
    if (segment.dim != dim) {
      return Status::FailedPrecondition("segment dim mismatch in shard " +
                                        std::to_string(shard));
    }
    for (std::size_t row = 0; row < segment.Count(); ++row) {
      VDB_RETURN_IF_ERROR(
          loaded->vectors_->Add(segment.ids[row], segment.RowAt(row)).status());
    }
    ++loaded->segments_loaded_;
  }
  VDB_ASSIGN_OR_RETURN(loaded->index_, CreateIndex(*loaded->vectors_, index_spec));
  VDB_RETURN_IF_ERROR(loaded->vectors_->Size() > 0 ? loaded->index_->Build()
                                                   : Status::Ok());
  return std::shared_ptr<const LoadedShard>(std::move(loaded));
}

Result<std::vector<ScoredPoint>> LoadedShard::Search(VectorView query,
                                                     const SearchParams& params) const {
  if (vectors_->Size() == 0) return std::vector<ScoredPoint>{};
  if (index_ != nullptr && index_->Ready()) return index_->Search(query, params);
  return ExactSearch(*vectors_, query, params.k);
}

std::uint64_t LoadedShard::MemoryBytes() const {
  return vectors_->MemoryBytes() + (index_ != nullptr ? index_->MemoryBytes() : 0);
}

ShardCache::ShardCache(const ObjectStore& store, CacheConfig config)
    : store_(store), config_(std::move(config)) {}

Result<std::shared_ptr<const LoadedShard>> ShardCache::GetOrLoad(ShardId shard) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(shard);
    if (it != entries_.end()) {
      ++stats_.hits;
      lru_.erase(it->second.lru_position);
      lru_.push_front(shard);
      it->second.lru_position = lru_.begin();
      return it->second.shard;
    }
    ++stats_.misses;
  }

  // Cold load outside the lock (object store reads + index build dominate).
  Stopwatch watch;
  VDB_ASSIGN_OR_RETURN(auto loaded,
                       LoadedShard::Load(store_, shard, config_.dim, config_.metric,
                                         config_.index_spec));
  const double load_seconds = watch.ElapsedSeconds();

  std::lock_guard<std::mutex> lock(mutex_);
  stats_.load_seconds += load_seconds;
  // Another thread may have loaded it meanwhile; keep the existing entry.
  const auto it = entries_.find(shard);
  if (it != entries_.end()) return it->second.shard;

  lru_.push_front(shard);
  entries_.emplace(shard, Entry{loaded, lru_.begin()});
  stats_.resident_bytes += loaded->MemoryBytes();
  stats_.resident_shards = entries_.size();
  EvictUntilWithinBudget();
  return loaded;
}

void ShardCache::EvictUntilWithinBudget() {
  while (stats_.resident_bytes > config_.byte_budget && entries_.size() > 1) {
    const ShardId victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    if (it != entries_.end()) {
      stats_.resident_bytes -= it->second.shard->MemoryBytes();
      entries_.erase(it);
      ++stats_.evictions;
    }
  }
  stats_.resident_shards = entries_.size();
}

void ShardCache::Invalidate(ShardId shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(shard);
  if (it == entries_.end()) return;
  stats_.resident_bytes -= it->second.shard->MemoryBytes();
  lru_.erase(it->second.lru_position);
  entries_.erase(it);
  stats_.resident_shards = entries_.size();
}

void ShardCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_.resident_bytes = 0;
  stats_.resident_shards = 0;
}

CacheStats ShardCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace vdb::stateless
