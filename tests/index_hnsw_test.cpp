#include "index/hnsw_index.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "hnsw_invariants.hpp"
#include "index/flat_index.hpp"
#include "test_util.hpp"
#include "workload/corpus.hpp"
#include "workload/embeddings.hpp"

namespace vdb {
namespace {

HnswParams SmallParams() {
  HnswParams params;
  params.m = 8;
  params.m0 = 16;
  params.ef_construction = 64;
  params.build_threads = 1;
  return params;
}

TEST(HnswTest, EmptyIndexSearchReturnsNothing) {
  VectorStore store(8, Metric::kCosine);
  HnswIndex index(store, SmallParams());
  EXPECT_FALSE(index.Ready());
  SearchParams params;
  auto hits = index.Search(Vector(8, 0.1f), params);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(HnswTest, SingleVectorIsFindable) {
  VectorStore store(4, Metric::kCosine);
  (void)store.Add(42, Vector{1, 0, 0, 0});
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());
  EXPECT_TRUE(index.Ready());
  SearchParams params;
  auto hits = index.Search(Vector{1, 0, 0, 0}, params);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].id, 42u);
}

TEST(HnswTest, BuildIndexesEveryLivePoint) {
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 300);
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());
  EXPECT_EQ(index.NodeCount(), 300u);
  EXPECT_EQ(index.Stats().indexed_count, 300u);
  EXPECT_GT(index.Stats().distance_computations, 0u);
}

TEST(HnswTest, RecallBeatsRandomAndApproachesExact) {
  VectorStore store(16, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, 1500);
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());
  SearchParams params;
  params.ef_search = 128;
  const double recall = vdb::testing::MeanRecall(index, store, raw, 30, 10, params);
  EXPECT_GE(recall, 0.9);
}

TEST(HnswTest, HigherEfSearchImprovesOrMatchesRecall) {
  VectorStore store(16, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, 1200);
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());
  SearchParams low;
  low.ef_search = 8;
  SearchParams high;
  high.ef_search = 256;
  const double recall_low = vdb::testing::MeanRecall(index, store, raw, 25, 10, low);
  const double recall_high = vdb::testing::MeanRecall(index, store, raw, 25, 10, high);
  EXPECT_GE(recall_high + 1e-9, recall_low);
  EXPECT_GE(recall_high, 0.9);
}

TEST(HnswTest, DegreeBoundsRespected) {
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 600);
  const HnswParams params = SmallParams();
  HnswIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());
  for (std::uint32_t offset = 0; offset < 600; ++offset) {
    EXPECT_LE(index.NeighborsForTest(offset, 0).size(), params.m0);
    for (int layer = 1; layer <= index.MaxLevel(); ++layer) {
      EXPECT_LE(index.NeighborsForTest(offset, layer).size(), params.m);
    }
  }
}

TEST(HnswTest, Layer0IsConnectedFromEntry) {
  // Property: every indexed node is reachable on layer 0 via BFS — required
  // for search correctness.
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 400);
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());

  std::set<std::uint32_t> visited;
  std::vector<std::uint32_t> frontier{0};
  visited.insert(0);
  while (!frontier.empty()) {
    const std::uint32_t current = frontier.back();
    frontier.pop_back();
    for (const std::uint32_t neighbor : index.NeighborsForTest(current, 0)) {
      if (visited.insert(neighbor).second) frontier.push_back(neighbor);
    }
  }
  // Bidirectional linking keeps the graph overwhelmingly connected; allow a
  // tiny number of stragglers from heuristic pruning.
  EXPECT_GE(visited.size(), 396u);
}

TEST(HnswTest, LevelDistributionIsGeometric) {
  VectorStore store(4, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 3000);
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());
  // With m=8, P(level >= 1) = 1/8; max level should be small but positive
  // for 3000 nodes with overwhelming probability.
  EXPECT_GE(index.MaxLevel(), 1);
  EXPECT_LE(index.MaxLevel(), 8);
}

TEST(HnswTest, DeletedPointsFilteredFromResults) {
  VectorStore store(4, Metric::kCosine);
  (void)store.Add(1, Vector{1, 0, 0, 0});
  (void)store.Add(2, Vector{0.99f, 0.1f, 0, 0});
  (void)store.Add(3, Vector{0, 1, 0, 0});
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());
  (void)store.MarkDeleted(0);
  SearchParams params;
  params.k = 3;
  auto hits = index.Search(Vector{1, 0, 0, 0}, params);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : *hits) {
    EXPECT_NE(hit.id, 1u);
  }
}

TEST(HnswTest, IncrementalAddMatchesBulkBuildRecall) {
  VectorStore store(8, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, 800);

  HnswIndex incremental(store, SmallParams());
  for (std::uint32_t offset = 0; offset < 800; ++offset) {
    ASSERT_TRUE(incremental.Add(offset).ok());
  }
  SearchParams params;
  params.ef_search = 96;
  const double recall =
      vdb::testing::MeanRecall(incremental, store, raw, 25, 10, params);
  EXPECT_GE(recall, 0.85);
}

TEST(HnswTest, DuplicateAddRejected) {
  VectorStore store(4, Metric::kCosine);
  (void)store.Add(1, Vector{1, 0, 0, 0});
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Add(0).ok());
  EXPECT_EQ(index.Add(0).code(), StatusCode::kAlreadyExists);
}

TEST(HnswTest, AddBeyondStoreFails) {
  VectorStore store(4, Metric::kCosine);
  HnswIndex index(store, SmallParams());
  EXPECT_EQ(index.Add(3).code(), StatusCode::kOutOfRange);
}

TEST(HnswTest, ParallelBuildProducesSearchableGraph) {
  VectorStore store(8, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, 1000);
  HnswParams params = SmallParams();
  params.build_threads = 4;
  HnswIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());
  EXPECT_EQ(index.NodeCount(), 1000u);
  SearchParams search;
  search.ef_search = 128;
  const double recall = vdb::testing::MeanRecall(index, store, raw, 20, 10, search);
  EXPECT_GE(recall, 0.85);
}

TEST(HnswTest, DeterministicGivenSeed) {
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 300);
  HnswIndex a(store, SmallParams());
  HnswIndex b(store, SmallParams());
  ASSERT_TRUE(a.Build().ok());
  ASSERT_TRUE(b.Build().ok());
  EXPECT_EQ(a.MaxLevel(), b.MaxLevel());
  for (std::uint32_t offset = 0; offset < 300; offset += 17) {
    EXPECT_EQ(a.NeighborsForTest(offset, 0), b.NeighborsForTest(offset, 0));
  }
}

TEST(HnswTest, SimpleSelectionVariantAlsoWorks) {
  // Ablation knob: closest-first truncation instead of the heuristic.
  VectorStore store(8, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, 600);
  HnswParams params = SmallParams();
  params.select_heuristic = false;
  HnswIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());
  SearchParams search;
  search.ef_search = 128;
  const double recall = vdb::testing::MeanRecall(index, store, raw, 20, 10, search);
  EXPECT_GE(recall, 0.7);
}

TEST(HnswTest, MemoryBytesGrowsWithNodes) {
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 50);
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());
  const auto small = index.MemoryBytes();
  EXPECT_GT(small, 0u);

  VectorStore big_store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(big_store, 500);
  HnswIndex big(big_store, SmallParams());
  ASSERT_TRUE(big.Build().ok());
  EXPECT_GT(big.MemoryBytes(), small);
}

// ---- Graph invariants after many re-prunes ---------------------------------

TEST(HnswGraphTest, InvariantsHoldAfterManyRePrunes) {
  // m=4 / m0=8 against ef_construction 32: every insert back-links into
  // lists that are already near their bound, so re-prunes are the norm.
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 2000);
  HnswParams params = SmallParams();
  params.m = 4;
  params.m0 = 8;
  params.ef_construction = 32;
  HnswIndex index(store, params);
  for (std::uint32_t offset = 0; offset < 2000; ++offset) {
    ASSERT_TRUE(index.Add(offset).ok());
  }
  vdb::testing::ExpectGraphInvariants(index, 2000);
}

TEST(HnswGraphTest, InvariantsHoldAtDefaultDegrees) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 2000);
  HnswParams params;
  params.ef_construction = 32;
  params.build_threads = 1;
  HnswIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());
  vdb::testing::ExpectGraphInvariants(index, 2000);
}

/// Clustered 128-d embeddings inserted one at a time (as Collection indexes
/// each upsert), searched with topic queries at ef 64 against exact top-10.
double SeededEmbeddingRecall(std::size_t ef_construction) {
  constexpr std::size_t kPoints = 8000;
  constexpr std::size_t kQueries = 200;
  EmbeddingParams embed;
  embed.dim = 128;
  embed.seed = 7;
  const EmbeddingGenerator generator(embed);
  CorpusParams corpus_params;
  corpus_params.num_documents = kPoints;
  corpus_params.num_topics = embed.num_topics;
  corpus_params.seed = 7;
  const SyntheticCorpus corpus(corpus_params);
  VectorStore store(embed.dim, Metric::kCosine);
  for (const auto& point : generator.MakePoints(corpus, 0, kPoints, false)) {
    if (!store.Add(point.id, point.vector).ok()) return 0.0;
  }
  HnswParams params;
  params.ef_construction = ef_construction;
  params.build_threads = 1;
  HnswIndex index(store, params);
  for (std::uint32_t offset = 0; offset < kPoints; ++offset) {
    if (!index.Add(offset).ok()) return 0.0;
  }
  Rng rng(11);
  SearchParams search;
  search.k = 10;
  search.ef_search = 64;
  double total = 0.0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const auto topic = static_cast<std::uint16_t>(rng.NextU64(embed.num_topics));
    const Vector query = generator.QueryFor(topic, q);
    auto hits = index.Search(query, search);
    if (!hits.ok()) return 0.0;
    total += RecallAtK(*hits, ExactSearch(store, query, 10), 10);
  }
  return total / static_cast<double>(kQueries);
}

class HnswSeededRecall : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HnswSeededRecall, AtLeastThePreviousGraph) {
  // The graph that back-filled every re-pruned list to its bound measured
  // 1.0 here at both ef_construction values (every kernel table).
  EXPECT_GE(SeededEmbeddingRecall(GetParam()), 1.0) << "ef_construction " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(EfConstruction, HnswSeededRecall, ::testing::Values(32, 100));

// ---- Thread-local visited scratch -------------------------------------------

std::vector<ScoredPoint> SearchOnFreshThread(const HnswIndex& index, const Vector& query,
                                             const SearchParams& params) {
  std::vector<ScoredPoint> out;
  std::thread([&] {
    auto hits = index.Search(query, params);
    if (hits.ok()) out = std::move(*hits);
  }).join();
  return out;
}

void ExpectSameHits(const std::vector<ScoredPoint>& got,
                    const std::vector<ScoredPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].score, want[i].score);
  }
}

TEST(HnswScratchTest, ReuseAcrossIndexesAndEpochWrapMatchesFreshThread) {
  VectorStore small_store(16, Metric::kCosine);
  const auto small_raw = vdb::testing::FillRandomStore(small_store, 300, 5);
  VectorStore big_store(16, Metric::kCosine);
  const auto big_raw = vdb::testing::FillRandomStore(big_store, 3000, 6);
  HnswIndex small(small_store, SmallParams());
  HnswIndex big(big_store, SmallParams());
  ASSERT_TRUE(small.Build().ok());
  ASSERT_TRUE(big.Build().ok());
  SearchParams params;
  params.k = 10;
  params.ef_search = 32;

  struct Probe {
    const HnswIndex* index;
    Vector query;
  };
  std::vector<Probe> probes;
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    const bool use_big = i % 2 == 1;
    const auto& raw = use_big ? big_raw : small_raw;
    Vector query = raw[rng.NextU64(raw.size())];
    for (auto& x : query) x += static_cast<Scalar>(rng.NextGaussian() * 0.05);
    probes.push_back({use_big ? &big : &small, std::move(query)});
  }

  // One thread alternates the small and big index, so its visited array
  // grows on the first big search and is then shared. The second pass starts
  // exactly at the 16-bit epoch wrap, so it reruns the first pass's searches
  // under the same epoch values, whose tags are still in the array. Every
  // result must equal a search on a fresh thread.
  std::thread([&] {
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) HnswIndex::SetVisitedEpochForTest(0xFFFF);
      for (const Probe& probe : probes) {
        auto hits = probe.index->Search(probe.query, params);
        ASSERT_TRUE(hits.ok());
        ExpectSameHits(*hits, SearchOnFreshThread(*probe.index, probe.query, params));
      }
    }
  }).join();
}

class HnswRecallSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HnswRecallSweep, RecallAboveFloorAcrossM) {
  const std::size_t m = GetParam();
  VectorStore store(16, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, 900);
  HnswParams params;
  params.m = m;
  params.m0 = 2 * m;
  params.ef_construction = 64;
  params.build_threads = 1;
  HnswIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());
  SearchParams search;
  search.ef_search = 96;
  const double recall = vdb::testing::MeanRecall(index, store, raw, 20, 10, search);
  EXPECT_GE(recall, 0.8) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(MSweep, HnswRecallSweep, ::testing::Values(4, 8, 16, 32));

class HnswMetricSweep : public ::testing::TestWithParam<Metric> {};

TEST_P(HnswMetricSweep, WorksUnderEveryMetric) {
  VectorStore store(8, GetParam());
  const auto raw = vdb::testing::FillRandomStore(store, 500);
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Build().ok());
  SearchParams search;
  search.ef_search = 128;
  const double recall = vdb::testing::MeanRecall(index, store, raw, 20, 10, search);
  EXPECT_GE(recall, 0.8) << MetricName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Metrics, HnswMetricSweep,
                         ::testing::Values(Metric::kL2, Metric::kInnerProduct,
                                           Metric::kCosine));

// ---- IndexStats::indexed_count semantics ----------------------------------
// indexed_count counts each successfully inserted point exactly once: Add()
// then Build() must not double-count, duplicates must not count, and a failed
// Build() counts only the inserts that actually landed.

TEST(HnswStatsTest, AddThenBuildCountsEachPointOnce) {
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 300);
  HnswIndex index(store, SmallParams());
  for (std::uint32_t offset = 0; offset < 50; ++offset) {
    ASSERT_TRUE(index.Add(offset).ok());
  }
  EXPECT_EQ(index.Stats().indexed_count, 50u);
  ASSERT_TRUE(index.Build().ok());
  EXPECT_EQ(index.Stats().indexed_count, 300u);
  EXPECT_EQ(index.NodeCount(), 300u);
}

TEST(HnswStatsTest, AddDuplicateDoesNotDoubleCount) {
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 10);
  HnswIndex index(store, SmallParams());
  ASSERT_TRUE(index.Add(0).ok());
  const Status dup = index.Add(0);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(index.Stats().indexed_count, 1u);
}

TEST(HnswStatsTest, SerialBuildFailureReturnsErrorAndCountsOnlySuccesses) {
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 100);
  HnswParams params = SmallParams();
  params.max_nodes = 64;  // capacity-exceeded is the injected failure mode
  HnswIndex index(store, params);
  const Status status = index.Build();
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(index.NodeCount(), 64u);
  EXPECT_EQ(index.Stats().indexed_count, 64u);
}

TEST(HnswStatsTest, ParallelBuildFailureReturnsErrorAndCountsOnlySuccesses) {
  VectorStore store(8, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 300);
  HnswParams params = SmallParams();
  params.max_nodes = 128;
  params.build_threads = 4;
  HnswIndex index(store, params);
  const Status status = index.Build();
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  // Parallel workers may early-stop before trying every offset, but whatever
  // landed in the graph is exactly what the stats claim.
  EXPECT_LE(index.NodeCount(), 128u);
  EXPECT_EQ(index.Stats().indexed_count, index.NodeCount());
}

}  // namespace
}  // namespace vdb
