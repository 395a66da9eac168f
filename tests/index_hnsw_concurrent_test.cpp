/// Concurrency stress tests for HnswIndex targeting the node-table publication
/// path: concurrent Add() grows the store well past one NodeTable chunk while
/// searches read the graph lock-free. Built to run clean under
/// -DVDB_SANITIZE=thread (the `obs` ctest label rides along in tier-1).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "hnsw_invariants.hpp"
#include "index/hnsw_index.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

HnswParams StressParams() {
  HnswParams params;
  params.m = 8;
  params.m0 = 16;
  params.ef_construction = 32;
  params.build_threads = 1;
  return params;
}

// Spans multiple 1024-slot NodeTable chunks so chunk allocation + node
// publication both happen while readers are live.
constexpr std::size_t kPoints = 2600;

TEST(HnswConcurrentTest, ConcurrentAddAndSearch) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, kPoints);
  HnswIndex index(store, StressParams());

  constexpr std::size_t kWriters = 4;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // Interleaved partitions: every writer touches every chunk.
      for (std::size_t offset = w; offset < kPoints; offset += kWriters) {
        ASSERT_TRUE(index.Add(static_cast<std::uint32_t>(offset)).ok());
      }
    });
  }

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1234 + r);
      SearchParams params;
      params.k = 5;
      while (!done.load(std::memory_order_acquire)) {
        Vector query(store.Dim());
        for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
        auto hits = index.Search(query, params);
        ASSERT_TRUE(hits.ok());
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(index.NodeCount(), kPoints);
  EXPECT_EQ(index.Stats().indexed_count, kPoints);

  // The finished graph is searchable and returns real points.
  SearchParams params;
  params.k = 10;
  auto hits = index.Search(store.At(0), params);
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->empty());
}

TEST(HnswConcurrentTest, OverlappingAddsCountEachPointOnce) {
  constexpr std::size_t kOverlapPoints = 600;
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, kOverlapPoints);
  HnswIndex index(store, StressParams());

  // Every thread tries the full range; losers of each insert race get
  // AlreadyExists, which must not bump indexed_count.
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t offset = 0; offset < kOverlapPoints; ++offset) {
        const Status status = index.Add(static_cast<std::uint32_t>(offset));
        ASSERT_TRUE(status.ok() ||
                    status.code() == StatusCode::kAlreadyExists);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(index.NodeCount(), kOverlapPoints);
  EXPECT_EQ(index.Stats().indexed_count, kOverlapPoints);
}

TEST(HnswConcurrentTest, ConcurrentBuildAndSearch) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, kPoints);
  HnswParams params = StressParams();
  params.build_threads = 4;
  HnswIndex index(store, params);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    SearchParams search;
    search.k = 3;
    Rng rng(99);
    while (!done.load(std::memory_order_acquire)) {
      Vector query(store.Dim());
      for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
      auto hits = index.Search(query, search);
      ASSERT_TRUE(hits.ok());
    }
  });

  ASSERT_TRUE(index.Build().ok());
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(index.NodeCount(), kPoints);
  EXPECT_EQ(index.Stats().indexed_count, kPoints);
}

TEST(HnswConcurrentTest, BuildRacingAddsAndSearchesKeepsGraphInvariants) {
  // A parallel Build, two Add() threads working down from the tail and two
  // searchers all run at once. Every back-link lands under its neighbour's
  // lock, so the finished graph must satisfy the same invariants as a serial
  // build: bounded degrees, no self or duplicate links, and every node
  // reachable on layer 0.
  VectorStore store(16, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, kPoints);
  HnswParams params = StressParams();
  params.build_threads = 4;
  HnswIndex index(store, params);
  for (std::uint32_t offset = 0; offset < 32; ++offset) {
    ASSERT_TRUE(index.Add(offset).ok());
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(77 + r);
      SearchParams search;
      search.k = 5;
      while (!done.load(std::memory_order_acquire)) {
        auto hits = index.Search(raw[rng.NextU64(raw.size())], search);
        ASSERT_TRUE(hits.ok());
      }
    });
  }
  std::atomic<std::size_t> added{32};
  for (std::size_t w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t offset = kPoints - 1 - w; offset >= kPoints / 2; offset -= 2) {
        const Status status = index.Add(static_cast<std::uint32_t>(offset));
        ASSERT_TRUE(status.ok() || status.code() == StatusCode::kAlreadyExists);
        if (status.ok()) added.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  ASSERT_TRUE(index.Build().ok());
  for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads[0].join();
  threads[1].join();

  EXPECT_EQ(index.NodeCount(), kPoints);
  EXPECT_EQ(index.Stats().indexed_count, kPoints);
  vdb::testing::ExpectGraphInvariants(index, kPoints);
  SearchParams search;
  search.ef_search = 64;
  EXPECT_GE(vdb::testing::MeanRecall(index, store, raw, 30, 10, search), 0.9);
}

}  // namespace
}  // namespace vdb
