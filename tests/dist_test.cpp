#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dist/distance.hpp"
#include "dist/topk.hpp"

namespace vdb {
namespace {

Vector MakeVector(std::initializer_list<Scalar> values) { return Vector(values); }

TEST(DistanceTest, DotProductKnownValues) {
  const Vector a = MakeVector({1, 2, 3});
  const Vector b = MakeVector({4, 5, 6});
  EXPECT_FLOAT_EQ(DotProduct(a, b), 32.0f);
}

TEST(DistanceTest, DotProductHandlesTailAfterUnrolling) {
  // 7 elements exercises the 4-wide unrolled loop plus a 3-element tail.
  const Vector a = MakeVector({1, 1, 1, 1, 1, 1, 1});
  const Vector b = MakeVector({1, 2, 3, 4, 5, 6, 7});
  EXPECT_FLOAT_EQ(DotProduct(a, b), 28.0f);
}

TEST(DistanceTest, L2SquaredKnownValues) {
  const Vector a = MakeVector({0, 0, 0});
  const Vector b = MakeVector({3, 4, 0});
  EXPECT_FLOAT_EQ(L2SquaredDistance(a, b), 25.0f);
  EXPECT_FLOAT_EQ(L2SquaredDistance(a, a), 0.0f);
}

TEST(DistanceTest, NormOfUnitAxes) {
  EXPECT_FLOAT_EQ(Norm(MakeVector({0, 1, 0})), 1.0f);
  EXPECT_FLOAT_EQ(Norm(MakeVector({3, 4})), 5.0f);
}

TEST(DistanceTest, CosineScoreOfParallelVectorsIsOne) {
  const Vector a = MakeVector({1, 2, 3});
  const Vector b = MakeVector({2, 4, 6});
  EXPECT_NEAR(Score(Metric::kCosine, a, b), 1.0f, 1e-6);
}

TEST(DistanceTest, CosineScoreOfOrthogonalVectorsIsZero) {
  EXPECT_NEAR(Score(Metric::kCosine, MakeVector({1, 0}), MakeVector({0, 1})), 0.0f, 1e-6);
}

TEST(DistanceTest, CosineZeroVectorScoresZero) {
  EXPECT_FLOAT_EQ(Score(Metric::kCosine, MakeVector({0, 0}), MakeVector({1, 1})), 0.0f);
}

TEST(DistanceTest, L2ScoreIsNegatedSquaredDistance) {
  const Vector a = MakeVector({1, 1});
  const Vector b = MakeVector({4, 5});
  EXPECT_FLOAT_EQ(Score(Metric::kL2, a, b), -25.0f);
}

TEST(DistanceTest, HigherScoreMeansCloserForEveryMetric) {
  // close is nearer to query than far, under every metric convention.
  const Vector query = MakeVector({1, 0, 0, 0});
  const Vector close = MakeVector({0.9f, 0.1f, 0, 0});
  const Vector far = MakeVector({-1, 0.5f, 0.2f, 0});
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    EXPECT_GT(Score(metric, query, close), Score(metric, query, far))
        << MetricName(metric);
  }
}

TEST(DistanceTest, ScoreBatchMatchesScalarCalls) {
  Rng rng(1);
  const std::size_t dim = 33;
  const std::size_t count = 17;
  std::vector<Scalar> base(count * dim);
  for (auto& x : base) x = rng.NextFloat() - 0.5f;
  Vector query(dim);
  for (auto& x : query) x = rng.NextFloat() - 0.5f;

  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    std::vector<Scalar> batch(count);
    ScoreBatch(metric, query, base.data(), dim, count, batch.data());
    for (std::size_t i = 0; i < count; ++i) {
      const VectorView row(base.data() + i * dim, dim);
      EXPECT_NEAR(batch[i], Score(metric, query, row), 1e-4) << MetricName(metric);
    }
  }
}

TEST(DistanceTest, NormalizeProducesUnitNorm) {
  Vector v = MakeVector({3, 4, 12});
  NormalizeInPlace(v);
  EXPECT_NEAR(Norm(v), 1.0f, 1e-6);
}

TEST(DistanceTest, NormalizeLeavesZeroVectorAlone) {
  Vector v = MakeVector({0, 0, 0});
  NormalizeInPlace(v);
  EXPECT_FLOAT_EQ(v[0], 0.0f);
}

TEST(DistanceTest, ParseMetricRoundTrip) {
  for (const Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    auto parsed = ParseMetric(std::string(MetricName(metric)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, metric);
  }
  EXPECT_FALSE(ParseMetric("hamming").ok());
}

TEST(TopKTest, KeepsBestK) {
  TopK collector(3);
  for (PointId id = 0; id < 10; ++id) {
    collector.Push(id, static_cast<Scalar>(id));
  }
  const auto hits = collector.Take();
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].id, 9u);
  EXPECT_EQ(hits[1].id, 8u);
  EXPECT_EQ(hits[2].id, 7u);
}

TEST(TopKTest, PushReportsAcceptance) {
  TopK collector(2);
  EXPECT_TRUE(collector.Push(1, 1.0f));
  EXPECT_TRUE(collector.Push(2, 2.0f));
  EXPECT_FALSE(collector.Push(3, 0.5f));  // worse than current worst
  EXPECT_TRUE(collector.Push(4, 3.0f));
}

TEST(TopKTest, ThresholdTracksWorstRetained) {
  TopK collector(2);
  collector.Push(1, 5.0f);
  collector.Push(2, 9.0f);
  EXPECT_FLOAT_EQ(collector.Threshold(), 5.0f);
  collector.Push(3, 7.0f);
  EXPECT_FLOAT_EQ(collector.Threshold(), 7.0f);
}

TEST(TopKTest, ZeroCapacityAcceptsNothing) {
  TopK collector(0);
  EXPECT_FALSE(collector.Push(1, 10.0f));
  EXPECT_TRUE(collector.Take().empty());
}

TEST(TopKTest, TieBreaksDeterministicallyOnId) {
  TopK collector(2);
  collector.Push(5, 1.0f);
  collector.Push(3, 1.0f);
  collector.Push(9, 1.0f);
  const auto hits = collector.Take();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 3u);
  EXPECT_EQ(hits[1].id, 5u);
}

TEST(MergeTopKTest, MergesSortedPartials) {
  const std::vector<std::vector<ScoredPoint>> partials = {
      {{10, 0.9f}, {11, 0.5f}},
      {{20, 0.8f}, {21, 0.1f}},
      {{30, 0.7f}},
  };
  const auto merged = MergeTopK(partials, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 10u);
  EXPECT_EQ(merged[1].id, 20u);
  EXPECT_EQ(merged[2].id, 30u);
}

TEST(MergeTopKTest, DeduplicatesReplicatedHits) {
  // Replicated shards can return the same point from two workers.
  const std::vector<std::vector<ScoredPoint>> partials = {
      {{1, 0.9f}, {2, 0.5f}},
      {{1, 0.9f}, {3, 0.4f}},
  };
  const auto merged = MergeTopK(partials, 4);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 1u);

  // A k above the output-scan cutoff (128) dedups through the hash set.
  std::vector<std::vector<ScoredPoint>> replicated(2);
  for (PointId id = 0; id < 200; ++id) {
    const ScoredPoint hit{id, 1.0f - 0.001f * static_cast<float>(id)};
    replicated[0].push_back(hit);
    replicated[1].push_back(hit);
  }
  const auto wide = MergeTopK(replicated, 256);
  ASSERT_EQ(wide.size(), 200u);
  for (PointId id = 0; id < 200; ++id) EXPECT_EQ(wide[id].id, id);
}

TEST(MergeTopKTest, EmptyPartialsYieldEmpty) {
  EXPECT_TRUE(MergeTopK({}, 5).empty());
  EXPECT_TRUE(MergeTopK({{}, {}}, 5).empty());
}

TEST(MergeTopKTest, MatchesGlobalSortProperty) {
  // Property: merging per-shard top-k of a partitioned set equals global top-k.
  Rng rng(77);
  std::vector<ScoredPoint> all;
  for (PointId id = 0; id < 400; ++id) {
    all.push_back({id, rng.NextFloat()});
  }
  std::vector<std::vector<ScoredPoint>> shards(4);
  for (const auto& hit : all) shards[hit.id % 4].push_back(hit);
  for (auto& shard : shards) {
    std::sort(shard.begin(), shard.end(),
              [](const ScoredPoint& a, const ScoredPoint& b) { return a.score > b.score; });
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredPoint& a, const ScoredPoint& b) { return a.score > b.score; });

  const auto merged = MergeTopK(shards, 10);
  ASSERT_EQ(merged.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(merged[i].id, all[i].id);
  }
}

TEST(RecallTest, PerfectAndPartialRecall) {
  const std::vector<ScoredPoint> expected = {{1, 0.9f}, {2, 0.8f}, {3, 0.7f}, {4, 0.6f}};
  const std::vector<ScoredPoint> perfect = expected;
  EXPECT_DOUBLE_EQ(RecallAtK(perfect, expected, 4), 1.0);
  const std::vector<ScoredPoint> half = {{1, 0.9f}, {9, 0.8f}, {3, 0.7f}, {8, 0.6f}};
  EXPECT_DOUBLE_EQ(RecallAtK(half, expected, 4), 0.5);
}

TEST(RecallTest, EmptyExpectedIsPerfect) {
  EXPECT_DOUBLE_EQ(RecallAtK({}, {}, 5), 1.0);
}

}  // namespace
}  // namespace vdb
