// Heap allocations per steady-state search call, counted by a global
// operator new over every thread of an inproc 4-worker cluster (router,
// entry worker, peers, arena). The bounds were measured on the two-path
// query engine that a single query used to take (its own wire message,
// worker handler and router call): the batch-of-one path that replaced it
// may not allocate more per call. No timing is involved, so the counts are
// stable across hosts; only the engine's allocation pattern moves them.
//
// Built without sanitizers only: ASan and TSan install their own allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace vdb {
namespace {

constexpr std::size_t kDim = 128;
constexpr std::size_t kPoints = 4000;
constexpr std::size_t kBatch = 16;
constexpr int kWarmupCalls = 50;
constexpr int kMeasuredCalls = 200;

std::vector<PointRecord> RandomPoints(std::size_t count) {
  Rng rng(17);
  std::vector<PointRecord> points(count);
  for (std::size_t i = 0; i < count; ++i) {
    points[i].id = i;
    points[i].vector.resize(kDim);
    for (auto& x : points[i].vector) x = static_cast<Scalar>(rng.NextGaussian());
  }
  return points;
}

std::unique_ptr<LocalCluster> StartIndexedCluster(const IndexSpec& index,
                                                  const std::vector<PointRecord>& points) {
  ClusterConfig config;
  config.num_workers = 4;
  config.collection_template.dim = kDim;
  config.collection_template.metric = Metric::kCosine;
  config.collection_template.index = index;
  config.collection_template.defer_indexing = true;
  auto cluster = LocalCluster::Start(config);
  EXPECT_TRUE(cluster.ok()) << cluster.status().message();
  if (!cluster.ok()) return nullptr;
  EXPECT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  EXPECT_TRUE((*cluster)->GetRouter().BuildAllIndexes().ok());
  return std::move(*cluster);
}

/// Mean heap allocations per call of `call` after a warm-up.
template <class Call>
double AllocationsPerCall(Call&& call) {
  for (int i = 0; i < kWarmupCalls; ++i) call(i);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kMeasuredCalls; ++i) call(kWarmupCalls + i);
  const std::uint64_t after = g_allocations.load();
  return static_cast<double>(after - before) / kMeasuredCalls;
}

struct Bounds {
  double search;  ///< per Router::Search
  double batch;   ///< per Router::SearchBatch of kBatch queries
};

void ExpectWithinBounds(const IndexSpec& index, const Bounds& bounds) {
  const std::vector<PointRecord> points = RandomPoints(kPoints);
  auto cluster = StartIndexedCluster(index, points);
  ASSERT_NE(cluster, nullptr);
  Router& router = cluster->GetRouter();
  SearchParams params;
  params.k = 10;
  params.ef_search = 64;

  bool ok = true;
  const double search = AllocationsPerCall([&](int i) {
    ok &= router.Search(points[static_cast<std::size_t>(i) % kPoints].vector, params).ok();
  });
  std::vector<std::vector<Vector>> batches(kWarmupCalls + kMeasuredCalls);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t q = 0; q < kBatch; ++q) {
      batches[b].push_back(points[(b * kBatch + q) % kPoints].vector);
    }
  }
  const double batch = AllocationsPerCall([&](int i) {
    ok &= router.SearchBatch(batches[static_cast<std::size_t>(i)], params).ok();
  });
  ASSERT_TRUE(ok);
  std::printf("[ allocs   ] %s: %.1f per Search, %.1f per SearchBatch of %zu\n",
              index.type.c_str(), search, batch, kBatch);
  EXPECT_LE(search, bounds.search);
  EXPECT_LE(batch, bounds.batch);
}

TEST(SearchAllocTest, HnswSearchAllocatesNoMoreThanTheSingleQueryPath) {
  IndexSpec hnsw;
  hnsw.type = "hnsw";
  hnsw.hnsw.m = 16;
  hnsw.hnsw.ef_construction = 64;
  ExpectWithinBounds(hnsw, Bounds{114.8, 1494.8});
}

TEST(SearchAllocTest, FlatSq8SearchAllocatesNoMoreThanTheSingleQueryPath) {
  IndexSpec sq8;
  sq8.type = "flat";
  sq8.quantization = "sq8";
  sq8.rerank = 32;
  ExpectWithinBounds(sq8, Bounds{170.8, 1654.8});
}

}  // namespace
}  // namespace vdb
