#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "stateless/stateless_cluster.hpp"
#include "test_util.hpp"
#include "workload/embeddings.hpp"

namespace vdb::stateless {
namespace {

std::vector<PointRecord> RandomPoints(std::size_t count, std::size_t dim,
                                      std::uint64_t seed = 81) {
  Rng rng(seed);
  std::vector<PointRecord> points;
  for (std::size_t i = 0; i < count; ++i) {
    PointRecord record;
    record.id = i;
    record.vector.resize(dim);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    points.push_back(std::move(record));
  }
  return points;
}

// ---- Object store -------------------------------------------------------------

TEST(ObjectStoreTest, MemoryPutGetListDelete) {
  MemoryObjectStore store;
  const ObjectBytes bytes = {1, 2, 3};
  ASSERT_TRUE(store.Put("a/b/one", bytes).ok());
  ASSERT_TRUE(store.Put("a/b/two", {4}).ok());
  ASSERT_TRUE(store.Put("a/c/three", {5}).ok());

  EXPECT_TRUE(store.Exists("a/b/one"));
  auto got = store.Get("a/b/one");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, bytes);

  const auto keys = store.List("a/b/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a/b/one");
  EXPECT_EQ(keys[1], "a/b/two");
  EXPECT_EQ(store.TotalBytes(), 5u);

  ASSERT_TRUE(store.Delete("a/b/one").ok());
  EXPECT_FALSE(store.Exists("a/b/one"));
  EXPECT_EQ(store.Delete("a/b/one").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Get("ghost").status().code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, KeyValidation) {
  MemoryObjectStore store;
  EXPECT_FALSE(store.Put("", {1}).ok());
  EXPECT_FALSE(store.Put("/lead", {1}).ok());
  EXPECT_FALSE(store.Put("trail/", {1}).ok());
  EXPECT_FALSE(store.Put("a/../b", {1}).ok());
  EXPECT_TRUE(store.Put("fine/key_0-1.seg", {1}).ok());
}

TEST(ObjectStoreTest, DirectoryBackendRoundTrip) {
  vdb::testing::TempDir dir("objstore");
  auto store = DirectoryObjectStore::Open(dir.Path() / "root");
  ASSERT_TRUE(store.ok());
  const ObjectBytes bytes = {9, 8, 7, 6};
  ASSERT_TRUE((*store)->Put("shards/000001/seg_0000000000", bytes).ok());
  ASSERT_TRUE((*store)->Put("shards/000002/seg_0000000000", {1}).ok());

  auto got = (*store)->Get("shards/000001/seg_0000000000");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, bytes);
  EXPECT_EQ((*store)->List("shards/000001/").size(), 1u);
  EXPECT_EQ((*store)->List("shards/").size(), 2u);
  EXPECT_EQ((*store)->TotalBytes(), 5u);

  // Reopen: durable.
  auto reopened = DirectoryObjectStore::Open(dir.Path() / "root");
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Exists("shards/000001/seg_0000000000"));
}

// ---- Shard segment objects ------------------------------------------------------

TEST(ShardIoTest, SegmentRoundTrip) {
  SegmentData segment;
  segment.dim = 4;
  segment.metric = Metric::kCosine;
  segment.ids = {10, 20, 30};
  segment.vectors.assign(12, 0.5f);
  const ObjectBytes bytes = EncodeSegment(segment);
  auto decoded = DecodeSegment(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ids, segment.ids);
  EXPECT_EQ(decoded->vectors, segment.vectors);
  EXPECT_EQ(decoded->metric, Metric::kCosine);
}

TEST(ShardIoTest, CorruptionDetected) {
  SegmentData segment;
  segment.dim = 2;
  segment.ids = {1};
  segment.vectors = {1.f, 2.f};
  ObjectBytes bytes = EncodeSegment(segment);
  bytes[bytes.size() / 2] ^= 0xFF;
  EXPECT_EQ(DecodeSegment(bytes).status().code(), StatusCode::kCorruption);
}

TEST(ShardIoTest, KeysSortNumericallyAndSeqAdvances) {
  MemoryObjectStore store;
  EXPECT_EQ(NextSegmentSeq(store, 3), 0u);
  SegmentData segment;
  segment.dim = 2;
  segment.ids = {1};
  segment.vectors = {1.f, 2.f};
  for (std::uint64_t seq : {0ULL, 1ULL, 9ULL, 10ULL}) {
    ASSERT_TRUE(store.Put(SegmentKey(3, seq), EncodeSegment(segment)).ok());
  }
  EXPECT_EQ(NextSegmentSeq(store, 3), 11u);
  const auto keys = store.List(ShardPrefix(3));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(NextSegmentSeq(store, 4), 0u);  // other shards unaffected
}

// ---- Ingestor --------------------------------------------------------------------

TEST(IngestorTest, AppendsAndFlushesSegments) {
  MemoryObjectStore store;
  StatelessIngestor ingestor(store, 4, 8, Metric::kCosine, /*points_per_segment=*/16);
  const auto points = RandomPoints(100, 8);
  ASSERT_TRUE(ingestor.AppendBatch(points).ok());
  ASSERT_TRUE(ingestor.Flush().ok());
  EXPECT_EQ(ingestor.PointsWritten(), 100u);
  EXPECT_GE(ingestor.SegmentsWritten(), 4u);

  // Every point lands in exactly one shard object.
  std::size_t total = 0;
  for (ShardId shard = 0; shard < 4; ++shard) {
    for (const auto& key : store.List(ShardPrefix(shard))) {
      auto segment = DecodeSegment(*store.Get(key));
      ASSERT_TRUE(segment.ok());
      total += segment->ids.size();
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST(IngestorTest, RejectsWrongDim) {
  MemoryObjectStore store;
  StatelessIngestor ingestor(store, 2, 8, Metric::kCosine);
  PointRecord bad;
  bad.id = 1;
  bad.vector.resize(4);
  EXPECT_FALSE(ingestor.Append(bad).ok());
}

// ---- Shard cache -------------------------------------------------------------------

CacheConfig FlatCache(std::size_t dim, std::uint64_t budget = 256ull << 20) {
  CacheConfig config;
  config.dim = dim;
  config.metric = Metric::kCosine;
  config.index_spec.type = "flat";
  config.byte_budget = budget;
  return config;
}

TEST(ShardCacheTest, HitAfterMiss) {
  MemoryObjectStore store;
  StatelessIngestor ingestor(store, 2, 8, Metric::kCosine);
  ASSERT_TRUE(ingestor.AppendBatch(RandomPoints(50, 8)).ok());
  ASSERT_TRUE(ingestor.Flush().ok());

  ShardCache cache(store, FlatCache(8));
  auto first = cache.GetOrLoad(0);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrLoad(0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same materialization

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.load_seconds, 0.0);
}

TEST(ShardCacheTest, EvictsLruUnderBudget) {
  MemoryObjectStore store;
  StatelessIngestor ingestor(store, 8, 32, Metric::kCosine);
  ASSERT_TRUE(ingestor.AppendBatch(RandomPoints(800, 32)).ok());
  ASSERT_TRUE(ingestor.Flush().ok());

  // Budget fits ~2 shards (each ~100 points * 32 dims * 4B ~ 13KB + overhead).
  ShardCache cache(store, FlatCache(32, 30'000));
  for (ShardId shard = 0; shard < 8; ++shard) {
    ASSERT_TRUE(cache.GetOrLoad(shard).ok());
  }
  const CacheStats stats = cache.Stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, 30'000u);
  EXPECT_EQ(stats.misses, 8u);

  // Re-touching an evicted shard is another miss.
  ASSERT_TRUE(cache.GetOrLoad(0).ok());
  EXPECT_EQ(cache.Stats().misses, 9u);
}

TEST(ShardCacheTest, InvalidateForcesReload) {
  MemoryObjectStore store;
  StatelessIngestor ingestor(store, 1, 8, Metric::kCosine);
  ASSERT_TRUE(ingestor.AppendBatch(RandomPoints(20, 8)).ok());
  ASSERT_TRUE(ingestor.Flush().ok());

  ShardCache cache(store, FlatCache(8));
  auto before = cache.GetOrLoad(0);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->PointCount(), 20u);

  // Append more data, invalidate, reload sees it.
  auto more = RandomPoints(10, 8, 99);
  for (auto& record : more) record.id += 1000;
  ASSERT_TRUE(ingestor.AppendBatch(more).ok());
  ASSERT_TRUE(ingestor.Flush().ok());
  cache.Invalidate(0);
  auto after = cache.GetOrLoad(0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->PointCount(), 30u);
}

// ---- Cluster ------------------------------------------------------------------------

TEST(StatelessClusterTest, SearchMatchesExactScan) {
  MemoryObjectStore store;
  constexpr std::size_t kDim = 16;
  const auto points = RandomPoints(400, kDim);
  StatelessIngestor ingestor(store, 8, kDim, Metric::kCosine);
  ASSERT_TRUE(ingestor.AppendBatch(points).ok());
  ASSERT_TRUE(ingestor.Flush().ok());

  StatelessClusterConfig config;
  config.num_workers = 3;
  config.num_shards = 8;
  config.cache = FlatCache(kDim);
  StatelessCluster cluster(store, config);

  // Flat per-shard indexes -> results must equal a global exact scan.
  VectorStore reference(kDim, Metric::kCosine);
  for (const auto& point : points) {
    ASSERT_TRUE(reference.Add(point.id, point.vector).ok());
  }
  SearchParams params;
  params.k = 10;
  Rng rng(5);
  for (int q = 0; q < 10; ++q) {
    Vector query(kDim);
    for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
    auto got = cluster.Search(query, params);
    ASSERT_TRUE(got.ok());
    const auto expected = ExactSearch(reference, query, 10);
    ASSERT_EQ(got->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*got)[i].id, expected[i].id) << "query " << q << " rank " << i;
    }
  }
}

TEST(StatelessClusterTest, ScaleMovesZeroBytesAndStaysCorrect) {
  MemoryObjectStore store;
  const auto points = RandomPoints(200, 8);
  StatelessIngestor ingestor(store, 8, 8, Metric::kCosine);
  ASSERT_TRUE(ingestor.AppendBatch(points).ok());
  ASSERT_TRUE(ingestor.Flush().ok());

  StatelessClusterConfig config;
  config.num_workers = 2;
  config.num_shards = 8;
  config.cache = FlatCache(8);
  StatelessCluster cluster(store, config);

  SearchParams params;
  params.k = 1;
  auto before = cluster.Search(points[7].vector, params);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)[0].id, 7u);

  EXPECT_EQ(cluster.ScaleTo(6), 0u);  // the architecture's headline property
  EXPECT_EQ(cluster.NumWorkers(), 6u);
  auto after = cluster.Search(points[7].vector, params);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)[0].id, 7u);

  EXPECT_EQ(cluster.ScaleTo(1), 0u);
  auto shrunk = cluster.Search(points[7].vector, params);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_EQ((*shrunk)[0].id, 7u);
}

TEST(StatelessClusterTest, RendezvousKeepsMostAssignmentsOnScaleOut) {
  MemoryObjectStore store;
  StatelessClusterConfig config;
  config.num_workers = 4;
  config.num_shards = 64;
  config.cache = FlatCache(8);
  StatelessCluster cluster(store, config);

  std::vector<WorkerId> before(64);
  for (ShardId shard = 0; shard < 64; ++shard) before[shard] = cluster.OwnerOf(shard);
  cluster.ScaleTo(5);
  int moved = 0;
  for (ShardId shard = 0; shard < 64; ++shard) {
    moved += cluster.OwnerOf(shard) != before[shard] ? 1 : 0;
  }
  // Rendezvous hashing moves ~1/5 of shards when going 4 -> 5 workers.
  EXPECT_GT(moved, 3);
  EXPECT_LT(moved, 26);
}

TEST(StatelessClusterTest, HnswCacheLoadsBuildIndexAtWarmup) {
  MemoryObjectStore store;
  const auto points = RandomPoints(300, 16);
  StatelessIngestor ingestor(store, 2, 16, Metric::kCosine);
  ASSERT_TRUE(ingestor.AppendBatch(points).ok());
  ASSERT_TRUE(ingestor.Flush().ok());

  StatelessClusterConfig config;
  config.num_workers = 2;
  config.num_shards = 2;
  config.cache = FlatCache(16);
  config.cache.index_spec.type = "hnsw";
  config.cache.index_spec.hnsw.m = 8;
  config.cache.index_spec.hnsw.build_threads = 1;
  StatelessCluster cluster(store, config);

  SearchParams params;
  params.k = 1;
  params.ef_search = 128;
  auto hits = cluster.Search(points[42].vector, params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ((*hits)[0].id, 42u);
  // Warm-up happened: cold loads recorded.
  EXPECT_GT(cluster.AggregateCacheStats().load_seconds, 0.0);
}

}  // namespace
}  // namespace vdb::stateless
