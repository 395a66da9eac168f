#include "collection/collection.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "test_util.hpp"

namespace vdb {
namespace {

CollectionConfig SmallConfig() {
  CollectionConfig config;
  config.dim = 8;
  config.metric = Metric::kCosine;
  config.index.type = "hnsw";
  config.index.hnsw.m = 8;
  config.index.hnsw.ef_construction = 48;
  config.index.hnsw.build_threads = 1;
  return config;
}

std::vector<PointRecord> RandomPoints(std::size_t count, std::size_t dim,
                                      std::uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<PointRecord> points;
  for (std::size_t i = 0; i < count; ++i) {
    PointRecord record;
    record.id = i;
    record.vector.resize(dim);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    record.payload["topic"] = static_cast<std::int64_t>(i % 4);
    points.push_back(std::move(record));
  }
  return points;
}

TEST(CollectionTest, OpenRejectsZeroDim) {
  CollectionConfig config;
  config.dim = 0;
  EXPECT_FALSE(Collection::Open(config).ok());
}

TEST(CollectionTest, UpsertGetDelete) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  const Vector v{1, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE((*collection)->Upsert(7, v, {{"title", std::string("p7")}}).ok());
  EXPECT_TRUE((*collection)->Contains(7));
  EXPECT_EQ((*collection)->Count(), 1u);

  auto payload = (*collection)->GetPayload(7);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(std::get<std::string>((*payload)["title"]), "p7");

  auto vector = (*collection)->GetVector(7);
  ASSERT_TRUE(vector.ok());
  EXPECT_NEAR(Norm(*vector), 1.0f, 1e-5);  // cosine store normalizes

  ASSERT_TRUE((*collection)->Delete(7).ok());
  EXPECT_FALSE((*collection)->Contains(7));
  EXPECT_EQ((*collection)->Delete(7).code(), StatusCode::kNotFound);
}

TEST(CollectionTest, UpsertValidatesDimAndId) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  EXPECT_FALSE((*collection)->Upsert(1, Vector{1, 2}).ok());
  EXPECT_FALSE((*collection)->Upsert(kInvalidPointId, Vector(8, 0.5f)).ok());
}

TEST(CollectionTest, UpsertReplacesExistingPoint) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->Upsert(1, Vector{1, 0, 0, 0, 0, 0, 0, 0}).ok());
  ASSERT_TRUE((*collection)->Upsert(1, Vector{0, 1, 0, 0, 0, 0, 0, 0}).ok());
  EXPECT_EQ((*collection)->Count(), 1u);
  auto v = (*collection)->GetVector(1);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR((*v)[1], 1.0f, 1e-5);
  EXPECT_EQ((*collection)->Info().deleted_points, 1u);
}

TEST(CollectionTest, BatchUpsertAllOrNothingValidation) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  auto points = RandomPoints(5, 8);
  points[3].vector.resize(4);  // wrong dim poisons the whole batch
  EXPECT_FALSE((*collection)->UpsertBatch(points).ok());
  EXPECT_EQ((*collection)->Count(), 0u);
}

TEST(CollectionTest, SearchMatchesExactScan) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  const auto points = RandomPoints(400, 8);
  ASSERT_TRUE((*collection)->UpsertBatch(points).ok());

  SearchParams params;
  params.k = 10;
  params.ef_search = 128;
  Rng rng(17);
  double total_recall = 0.0;
  for (int q = 0; q < 15; ++q) {
    Vector query(8);
    for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
    auto got = (*collection)->Search(query, params);
    ASSERT_TRUE(got.ok());
    const auto expected = (*collection)->ExactSearchForTest(query, 10);
    total_recall += RecallAtK(*got, expected, 10);
  }
  EXPECT_GE(total_recall / 15.0, 0.85);
}

TEST(CollectionTest, DeferIndexingUsesExactScanUntilBuild) {
  CollectionConfig config = SmallConfig();
  config.defer_indexing = true;
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(100, 8)).ok());
  EXPECT_EQ((*collection)->PendingIndexCount(), 100u);
  EXPECT_FALSE((*collection)->Info().index_ready);

  // Search still works (exact fallback).
  SearchParams params;
  auto hits = (*collection)->Search(Vector(8, 0.3f), params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 10u);

  ASSERT_TRUE((*collection)->BuildIndex().ok());
  EXPECT_EQ((*collection)->PendingIndexCount(), 0u);
  EXPECT_TRUE((*collection)->Info().index_ready);
}

TEST(CollectionTest, IndexingThresholdDefersSmallCollections) {
  CollectionConfig config = SmallConfig();
  config.indexing_threshold = 50;
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(20, 8)).ok());
  // Below the threshold nothing is indexed yet.
  EXPECT_GT((*collection)->PendingIndexCount(), 0u);
}

TEST(CollectionTest, PointsBelowIndexingThresholdStaySearchable) {
  CollectionConfig config = SmallConfig();
  config.indexing_threshold = 50;
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  const auto points = RandomPoints(60, 8);
  for (const auto& point : points) {
    ASSERT_TRUE((*collection)->Upsert(point.id, point.vector).ok());
  }
  // Crossing the threshold indexes every earlier point, not only the newest.
  EXPECT_EQ((*collection)->PendingIndexCount(), 0u);
  EXPECT_EQ((*collection)->Info().indexed_points, 60u);
  SearchParams params;
  params.k = 1;
  for (const auto& point : points) {
    auto hits = (*collection)->Search(point.vector, params);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ(hits->front().id, point.id);
  }
}

TEST(CollectionTest, FilteredSearchRespectsPredicate) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(200, 8)).ok());

  SearchParams params;
  params.k = 50;
  Filter filter;
  filter.field = "topic";
  filter.value = std::int64_t{2};
  auto hits = (*collection)->SearchFiltered(Vector(8, 0.2f), params, filter);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 50u);
  for (const auto& hit : *hits) {
    EXPECT_EQ(hit.id % 4, 2u);
  }
}

TEST(CollectionTest, FilteredSearchEmptyWhenNoMatch) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(20, 8)).ok());
  SearchParams params;
  Filter filter;
  filter.field = "topic";
  filter.value = std::int64_t{99};
  auto hits = (*collection)->SearchFiltered(Vector(8, 0.2f), params, filter);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(CollectionTest, InfoReportsCounts) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(64, 8)).ok());
  ASSERT_TRUE((*collection)->Delete(0).ok());
  const CollectionInfo info = (*collection)->Info();
  EXPECT_EQ(info.live_points, 63u);
  EXPECT_EQ(info.deleted_points, 1u);
  EXPECT_GT(info.memory_bytes, 0u);
}

TEST(CollectionTest, ScrollPagesThroughAllPointsInOrder) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(95, 8)).ok());
  ASSERT_TRUE((*collection)->Delete(40).ok());

  std::vector<PointId> seen;
  std::optional<PointId> cursor;
  int pages = 0;
  do {
    const auto page = (*collection)->Scroll(cursor, 20);
    for (const auto& record : page.points) seen.push_back(record.id);
    cursor = page.next_from;
    ++pages;
    ASSERT_LT(pages, 20) << "scroll failed to terminate";
  } while (cursor.has_value());

  EXPECT_EQ(seen.size(), 94u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::find(seen.begin(), seen.end(), 40u), seen.end());
  EXPECT_EQ(pages, 5);  // 94 points / 20 per page
}

TEST(CollectionTest, ScrollFromMidpointAndPastEnd) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(10, 8)).ok());

  const auto page = (*collection)->Scroll(PointId{7}, 100);
  ASSERT_EQ(page.points.size(), 3u);
  EXPECT_EQ(page.points[0].id, 7u);
  EXPECT_FALSE(page.next_from.has_value());

  const auto empty = (*collection)->Scroll(PointId{500}, 10);
  EXPECT_TRUE(empty.points.empty());
  EXPECT_FALSE(empty.next_from.has_value());
}

TEST(CollectionTest, ScrollCarriesPayloadAndVector) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(5, 8)).ok());
  const auto page = (*collection)->Scroll(std::nullopt, 5);
  ASSERT_EQ(page.points.size(), 5u);
  EXPECT_EQ(page.points[2].vector.size(), 8u);
  EXPECT_EQ(page.points[2].payload.count("topic"), 1u);
}

TEST(CollectionTest, SearchValidatesQueryDim) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  SearchParams params;
  EXPECT_FALSE((*collection)->Search(Vector{1, 2}, params).ok());
}

TEST(CollectionTest, ConcurrentUpsertSearchDeleteStress) {
  // Readers-writer locking must keep the collection coherent under mixed
  // concurrent traffic (the paper's continual insert+search scenario).
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(200, 8)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> search_errors{0};

  std::thread writer([&] {
    Rng rng(1);
    for (PointId id = 200; id < 600 && !stop; ++id) {
      PointRecord record;
      record.id = id;
      record.vector.resize(8);
      for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
      if (!(*collection)->Upsert(record.id, record.vector).ok()) ++search_errors;
    }
  });
  std::thread deleter([&] {
    for (PointId id = 0; id < 100 && !stop; ++id) {
      (void)(*collection)->Delete(id);
    }
  });
  std::thread searcher([&] {
    Rng rng(2);
    SearchParams params;
    params.k = 5;
    params.ef_search = 32;
    for (int q = 0; q < 200 && !stop; ++q) {
      Vector query(8);
      for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
      auto hits = (*collection)->Search(query, params);
      if (!hits.ok()) ++search_errors;
    }
  });
  writer.join();
  deleter.join();
  searcher.join();
  stop = true;

  EXPECT_EQ(search_errors.load(), 0);
  EXPECT_EQ((*collection)->Count(), 200u + 400u - 100u);
  // Post-stress integrity: search still returns coherent results.
  SearchParams params;
  params.k = 10;
  auto hits = (*collection)->Search(Vector(8, 0.1f), params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 10u);
}

TEST(CollectionTest, DeletedPointsAbsentFromSearch) {
  auto collection = Collection::Open(SmallConfig());
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(100, 8)).ok());
  for (PointId id = 0; id < 50; ++id) {
    ASSERT_TRUE((*collection)->Delete(id).ok());
  }
  SearchParams params;
  params.k = 100;
  params.ef_search = 256;
  auto hits = (*collection)->Search(Vector(8, 0.1f), params);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : *hits) {
    EXPECT_GE(hit.id, 50u);
  }
}

}  // namespace
}  // namespace vdb
