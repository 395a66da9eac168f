#include "stateless/shard_io.hpp"

#include <cstdio>

namespace vdb::stateless {

std::string ShardPrefix(ShardId shard) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "shards/%06u/", shard);
  return buf;
}

ObjectKey SegmentKey(ShardId shard, std::uint64_t seq) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "shards/%06u/seg_%010llu", shard,
                static_cast<unsigned long long>(seq));
  return buf;
}

std::uint64_t NextSegmentSeq(const ObjectStore& store, ShardId shard) {
  const auto keys = store.List(ShardPrefix(shard));
  std::uint64_t next = 0;
  for (const auto& key : keys) {
    const std::size_t pos = key.rfind("seg_");
    if (pos == std::string::npos) continue;
    const std::uint64_t seq = std::strtoull(key.c_str() + pos + 4, nullptr, 10);
    next = std::max(next, seq + 1);
  }
  return next;
}

}  // namespace vdb::stateless
