// Writers beside readers on one Collection: the two-phase write path appends
// under the exclusive lock and indexes under the shared one, so searches run
// while a batch is being indexed. Labelled `obs` so the TSan leg runs it.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection.hpp"
#include "common/rng.hpp"

namespace vdb {
namespace {

constexpr std::size_t kDim = 16;
constexpr std::size_t kBatch = 32;

std::vector<PointRecord> RandomPoints(std::size_t count, PointId first, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PointRecord> points(count);
  for (std::size_t i = 0; i < count; ++i) {
    points[i].id = first + i;
    points[i].vector.resize(kDim);
    for (auto& x : points[i].vector) x = static_cast<Scalar>(rng.NextGaussian());
  }
  return points;
}

CollectionConfig HnswConfig() {
  CollectionConfig config;
  config.dim = kDim;
  config.metric = Metric::kCosine;
  config.index.type = "hnsw";
  config.index.hnsw.m = 8;
  config.index.hnsw.ef_construction = 32;
  config.index.hnsw.build_threads = 1;
  return config;
}

CollectionConfig Sq8Config() {
  CollectionConfig config = HnswConfig();
  config.index.type = "flat";
  config.index.quantization = "sq8";
  config.index.rerank = 32;
  return config;
}

std::vector<std::vector<PointRecord>> Batches(const std::vector<PointRecord>& points) {
  std::vector<std::vector<PointRecord>> batches;
  for (std::size_t begin = 0; begin < points.size(); begin += kBatch) {
    batches.emplace_back(points.begin() + static_cast<std::ptrdiff_t>(begin),
                         points.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(points.size(), begin + kBatch)));
  }
  return batches;
}

void ExpectEveryPointIsItsOwnTop1(const Collection& collection,
                                  const std::vector<PointRecord>& points) {
  SearchParams params;
  params.k = 1;
  params.ef_search = 64;
  for (const auto& point : points) {
    auto hits = collection.Search(point.vector, params);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ(hits->front().id, point.id);
  }
}

// Two writers upsert disjoint id ranges batch by batch while two readers
// search (single and batched). Readers only ever see ids that were written,
// never twice in one result; afterwards the index covers every point.
void WritersBesideReaders(Collection& collection, std::size_t preloaded) {
  constexpr std::size_t kPerWriter = 192;
  const auto first = RandomPoints(kPerWriter, preloaded, 11);
  const auto second = RandomPoints(kPerWriter, preloaded + kPerWriter, 12);
  const PointId id_limit = preloaded + 2 * kPerWriter;

  std::atomic<int> writers_left{2};
  std::atomic<int> failures{0};
  std::vector<std::string> errors(2);
  const auto writer = [&](const std::vector<PointRecord>& points) {
    for (const auto& batch : Batches(points)) {
      if (!collection.UpsertBatch(batch).ok()) ++failures;
    }
    --writers_left;
  };
  const auto reader = [&](std::uint64_t seed, bool batched, std::string& error) {
    Rng rng(seed);
    SearchParams params;
    params.k = 10;
    while (writers_left.load() > 0) {
      std::vector<Vector> queries(batched ? 4 : 1, Vector(kDim));
      for (auto& query : queries) {
        for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
      }
      const std::vector<VectorView> views(queries.begin(), queries.end());
      auto results = collection.SearchBatch(views, params);
      if (!results.ok()) {
        error = results.status().ToString();
        return;
      }
      for (const auto& hits : *results) {
        for (std::size_t i = 0; i < hits.size(); ++i) {
          if (hits[i].id >= id_limit) error = "unknown id " + std::to_string(hits[i].id);
          for (std::size_t j = 0; j < i; ++j) {
            if (hits[j].id == hits[i].id) error = "duplicate id " + std::to_string(hits[i].id);
          }
        }
      }
    }
  };
  std::thread w1(writer, std::cref(first));
  std::thread w2(writer, std::cref(second));
  std::thread r1(reader, 21, false, std::ref(errors[0]));
  std::thread r2(reader, 22, true, std::ref(errors[1]));
  w1.join();
  w2.join();
  r1.join();
  r2.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
  EXPECT_EQ(collection.Count(), id_limit);
  EXPECT_EQ(collection.PendingIndexCount(), 0u);
  ExpectEveryPointIsItsOwnTop1(collection, first);
  ExpectEveryPointIsItsOwnTop1(collection, second);
}

TEST(CollectionConcurrentTest, IncrementalHnswWritersBesideReaders) {
  auto collection = Collection::Open(HnswConfig());
  ASSERT_TRUE(collection.ok());
  WritersBesideReaders(**collection, 0);
}

TEST(CollectionConcurrentTest, BuiltSq8WritersBesideReaders) {
  auto collection = Collection::Open(Sq8Config());
  ASSERT_TRUE(collection.ok());
  const auto preload = RandomPoints(128, 0, 10);
  ASSERT_TRUE((*collection)->UpsertBatch(preload).ok());
  ASSERT_TRUE((*collection)->BuildIndex().ok());
  ASSERT_TRUE((*collection)->Info().index_ready);
  WritersBesideReaders(**collection, preload.size());
  ExpectEveryPointIsItsOwnTop1(**collection, preload);
}

// Points upserted after a build sit in the unindexed tail until the next
// index pass, and search finds them there.
TEST(CollectionConcurrentTest, UnindexedTailIsSearchable) {
  CollectionConfig config = HnswConfig();
  config.defer_indexing = true;
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(100, 0, 30)).ok());
  ASSERT_TRUE((*collection)->BuildIndex().ok());
  const auto tail = RandomPoints(20, 100, 31);
  ASSERT_TRUE((*collection)->UpsertBatch(tail).ok());
  EXPECT_EQ((*collection)->PendingIndexCount(), tail.size());
  ExpectEveryPointIsItsOwnTop1(**collection, tail);

  std::vector<VectorView> views;
  for (const auto& point : tail) views.push_back(point.vector);
  SearchParams params;
  params.k = 1;
  auto batched = (*collection)->SearchBatch(views, params);
  ASSERT_TRUE(batched.ok());
  for (std::size_t q = 0; q < tail.size(); ++q) {
    ASSERT_EQ((*batched)[q].size(), 1u);
    EXPECT_EQ((*batched)[q].front().id, tail[q].id);
  }
  EXPECT_EQ((*collection)->PendingIndexCount(), tail.size());
  ASSERT_TRUE((*collection)->IndexPending().ok());
  EXPECT_EQ((*collection)->PendingIndexCount(), 0u);
}

// Once UpsertBatch returns, its points are in the index, even while other
// writers' batches are still being indexed: at any moment the index holds
// at least every point whose upsert has returned.
TEST(CollectionConcurrentTest, AckedBatchIsIndexedWhenTheCallReturns) {
  auto collection = Collection::Open(HnswConfig());
  ASSERT_TRUE(collection.ok());
  std::atomic<std::size_t> acked{0};
  std::atomic<int> violations{0};
  const auto writer = [&](PointId first, std::uint64_t seed) {
    for (const auto& batch : Batches(RandomPoints(160, first, seed))) {
      if (!(*collection)->UpsertBatch(batch).ok()) {
        ++violations;
        continue;
      }
      const std::size_t returned = acked += batch.size();
      if ((*collection)->Info().indexed_points < returned) ++violations;
    }
  };
  std::thread w1(writer, 0, 41);
  std::thread w2(writer, 1000, 42);
  w1.join();
  w2.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ((*collection)->Info().indexed_points, 320u);
}

}  // namespace
}  // namespace vdb
