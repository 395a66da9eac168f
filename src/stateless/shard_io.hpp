#pragma once

/// \file shard_io.hpp
/// Shard-segment objects: how the stateless architecture lays out vector data
/// in the shared object store. A shard is an append-only sequence of
/// immutable segment objects under "shards/<shard>/seg_<seq>"; workers list
/// the prefix to discover a shard's contents and never mutate it in place.

#include "common/status.hpp"
#include "storage/segment.hpp"
#include "stateless/object_store.hpp"

namespace vdb::stateless {

/// "shards/<shard>/" — the List() prefix covering one shard.
std::string ShardPrefix(ShardId shard);

/// "shards/<shard>/seg_<seq>" with zero-padded seq so keys sort numerically.
ObjectKey SegmentKey(ShardId shard, std::uint64_t seq);

/// Next unused segment sequence number for a shard (List-based discovery).
std::uint64_t NextSegmentSeq(const ObjectStore& store, ShardId shard);

}  // namespace vdb::stateless
