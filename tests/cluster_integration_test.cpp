#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cluster/cluster.hpp"
#include "common/logging.hpp"
#include "index/search_arena.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

ClusterConfig SmallCluster(std::uint32_t workers, std::uint32_t replication = 1) {
  ClusterConfig config;
  config.num_workers = workers;
  config.replication = replication;
  config.collection_template.dim = 8;
  config.collection_template.metric = Metric::kCosine;
  config.collection_template.index.type = "hnsw";
  config.collection_template.index.hnsw.m = 8;
  config.collection_template.index.hnsw.build_threads = 1;
  return config;
}

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 13) {
  Rng rng(seed);
  std::vector<PointRecord> points;
  for (std::size_t i = 0; i < count; ++i) {
    PointRecord record;
    record.id = i;
    record.vector.resize(8);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    points.push_back(std::move(record));
  }
  return points;
}

TEST(ClusterTest, StartValidatesConfig) {
  ClusterConfig config = SmallCluster(0);
  EXPECT_FALSE(LocalCluster::Start(config).ok());
}

TEST(ClusterTest, PointsDistributeAcrossWorkers) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  auto acknowledged = (*cluster)->GetRouter().UpsertBatch(RandomPoints(400));
  ASSERT_TRUE(acknowledged.ok());
  EXPECT_EQ(*acknowledged, 400u);

  std::uint64_t total = 0;
  for (std::size_t w = 0; w < 4; ++w) {
    const std::uint64_t held = (*cluster)->GetWorker(w).LivePoints();
    EXPECT_GT(held, 0u) << "worker " << w << " holds nothing";
    total += held;
  }
  EXPECT_EQ(total, 400u);

  auto reported = (*cluster)->GetRouter().TotalPoints();
  ASSERT_TRUE(reported.ok());
  EXPECT_EQ(*reported, 400u);
}

TEST(ClusterTest, BroadcastSearchMatchesSingleNodeGroundTruth) {
  // The distributed broadcast-reduce answer must equal a single collection
  // holding all the data (modulo ANN approximation -> use exact via high ef).
  const auto points = RandomPoints(500);

  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  CollectionConfig reference_config;
  reference_config.dim = 8;
  reference_config.metric = Metric::kCosine;
  reference_config.index.type = "flat";
  auto reference = Collection::Open(reference_config);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE((*reference)->UpsertBatch(points).ok());

  SearchParams params;
  params.k = 10;
  params.ef_search = 512;  // near-exact HNSW
  Rng rng(31);
  double total_recall = 0.0;
  const int queries = 10;
  for (int q = 0; q < queries; ++q) {
    Vector query(8);
    for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
    auto distributed = (*cluster)->GetRouter().Search(query, params);
    ASSERT_TRUE(distributed.ok());
    auto expected = (*reference)->Search(query, params);
    ASSERT_TRUE(expected.ok());
    total_recall += RecallAtK(*distributed, *expected, 10);
  }
  EXPECT_GE(total_recall / queries, 0.9);
}

TEST(ClusterTest, EveryWorkerCanBeTheEntryPoint) {
  const auto points = RandomPoints(200);
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  SearchParams params;
  params.k = 5;
  params.ef_search = 256;
  const Vector query = points[17].vector;
  std::vector<std::vector<ScoredPoint>> answers;
  for (WorkerId entry = 0; entry < 3; ++entry) {
    auto hits = (*cluster)->GetRouter().SearchVia(entry, query, params);
    ASSERT_TRUE(hits.ok());
    ASSERT_FALSE(hits->empty());
    answers.push_back(*hits);
  }
  // All entry points agree on the best hit (the exact point itself).
  EXPECT_EQ(answers[0][0].id, 17u);
  EXPECT_EQ(answers[1][0].id, answers[0][0].id);
  EXPECT_EQ(answers[2][0].id, answers[0][0].id);
}

TEST(ClusterTest, FanOutCountsPeerCalls) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(50)).ok());
  SearchParams params;
  auto hits = (*cluster)->GetRouter().SearchVia(0, Vector(8, 0.5f), params);
  ASSERT_TRUE(hits.ok());
  const WorkerCounters counters = (*cluster)->GetWorker(0).Counters();
  EXPECT_EQ(counters.searches_fanned_out, 1u);
  EXPECT_EQ(counters.peer_calls, 3u);  // broadcast to the other 3 workers
}

TEST(ClusterTest, DeleteRemovesFromCluster) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(100)).ok());
  ASSERT_TRUE((*cluster)->GetRouter().Delete(42).ok());
  auto total = (*cluster)->GetRouter().TotalPoints();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 99u);
  EXPECT_EQ((*cluster)->GetRouter().Delete(42).code(), StatusCode::kNotFound);
}

TEST(ClusterTest, BuildAllIndexesAfterDeferredUpload) {
  ClusterConfig config = SmallCluster(2);
  config.collection_template.defer_indexing = true;
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(200)).ok());
  auto build = (*cluster)->GetRouter().BuildAllIndexes();
  ASSERT_TRUE(build.ok());
  // After the build, search goes through the HNSW index.
  SearchParams params;
  params.k = 3;
  auto hits = (*cluster)->GetRouter().Search(Vector(8, 0.2f), params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 3u);
}

TEST(ClusterTest, BuildAllIndexesReportsWorkerBuildTime) {
  ClusterConfig config = SmallCluster(2);
  config.collection_template.defer_indexing = true;
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(400)).ok());
  auto build = (*cluster)->GetRouter().BuildAllIndexes();
  ASSERT_TRUE(build.ok());
  EXPECT_GT(*build, 0.0);
}

std::vector<std::string>& CapturedWarnings() {
  static std::vector<std::string> lines;
  return lines;
}

void CaptureWarnings(LogLevel level, const std::string& message) {
  if (level == LogLevel::kWarn) CapturedWarnings().push_back(message);
}

/// Starts one worker with `search_threads`, serves one search through a
/// router, and returns how many `search_threads ... clamped` WARNs it logged.
std::size_t ClampWarnings(std::size_t search_threads) {
  CapturedWarnings().clear();
  InprocTransport transport;
  auto placement = ShardPlacement::RoundRobin(1, 1, 1);
  if (!placement.ok()) return ~std::size_t{0};
  auto shared = std::make_shared<const ShardPlacement>(std::move(*placement));
  WorkerConfig config;
  config.collection_template = SmallCluster(1).collection_template;
  config.search_threads = search_threads;
  auto worker = Worker::Start(transport, shared, config);
  if (!worker.ok()) return ~std::size_t{0};
  Router router(transport, shared);
  if (!router.UpsertBatch(RandomPoints(50)).ok()) return ~std::size_t{0};
  SearchParams params;
  params.k = 3;
  if (!router.Search(Vector(8, 0.2f), params).ok()) return ~std::size_t{0};
  std::size_t warnings = 0;
  for (const auto& line : CapturedWarnings()) {
    if (line.find("clamped") != std::string::npos) ++warnings;
  }
  return warnings;
}

TEST(ClusterTest, SearchThreadsClampWarnsOnlyWhenSetExplicitly) {
  // A one-core arena budget clamps every worker to one search thread, so
  // both the default and an explicit 8 exceed the limit on any host.
  SearchArena::Instance().SetCoreBudgetForTest(1);
  const LogLevel previous = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  SetLogSink(&CaptureWarnings);
  const std::size_t default_warnings = ClampWarnings(0);
  const std::size_t explicit_warnings = ClampWarnings(8);
  SetLogSink(nullptr);
  SetLogLevel(previous);
  SearchArena::Instance().SetCoreBudgetForTest(0);
  EXPECT_EQ(default_warnings, 0u);
  EXPECT_EQ(explicit_warnings, 1u);
}

TEST(ClusterTest, DistributedFilteredSearchRespectsPredicate) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  auto points = RandomPoints(300);
  for (auto& record : points) {
    record.payload["topic"] = static_cast<std::int64_t>(record.id % 5);
  }
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  SearchParams params;
  params.k = 40;
  Filter filter;
  filter.field = "topic";
  filter.value = std::int64_t{3};
  const Vector query(8, 0.3f);
  const VectorView view = query;
  auto outcome = (*cluster)->GetRouter().Search(
      {.queries = {&view, 1}, .params = params, .filter = filter});
  ASSERT_TRUE(outcome.ok());
  const auto& hits = outcome->results[0];
  EXPECT_EQ(hits.size(), 40u);
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.id % 5, 3u) << "unfiltered hit " << hit.id;
  }
}

TEST(ClusterTest, FilteredSearchWithNoMatchesIsEmpty) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  auto points = RandomPoints(50);
  for (auto& record : points) record.payload["topic"] = std::int64_t{1};
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  Filter filter;
  filter.field = "topic";
  filter.value = std::int64_t{999};
  const Vector query(8, 0.1f);
  const VectorView view = query;
  auto outcome = (*cluster)->GetRouter().Search(
      {.queries = {&view, 1}, .params = SearchParams{}, .filter = filter});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->results[0].empty());
}

TEST(ClusterTest, FilterTravelsThroughCodec) {
  Filter filter;
  filter.field = "year";
  filter.value = std::int64_t{2019};
  const Vector a{1, 2};
  const Vector b{3, 4};
  const VectorView queries[] = {a, b};
  auto decoded = DecodeSearchBatchRequestView(
      EncodeSearchBatch(queries, SearchParams{}, true, false, filter, 0.0));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 2u);
  EXPECT_TRUE(decoded->filter().Active());
  EXPECT_EQ(decoded->filter().field, "year");
  EXPECT_EQ(std::get<std::int64_t>(decoded->filter().value), 2019);

  auto decoded_plain = DecodeSearchBatchRequestView(
      EncodeSearchBatch(queries, SearchParams{}, true, false, Filter{}, 0.0));
  ASSERT_TRUE(decoded_plain.ok());
  EXPECT_FALSE(decoded_plain->filter().Active());
}

TEST(ClusterTest, WorkerAnswersRetiredMessageTypesWithInvalidArgument) {
  auto cluster = LocalCluster::Start(SmallCluster(1));
  ASSERT_TRUE(cluster.ok());
  // Types 3 and 4 belonged to the retired single-query search message, 14
  // and 15 to a retired shard-copy RPC.
  for (const int retired : {3, 4, 14, 15}) {
    const Message reply = (*cluster)->GetWorker(0).Handle(
        Message{static_cast<MessageType>(retired), rpc::Buffer({1, 2, 3, 4})});
    const Status status = MessageToStatus(reply);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << retired;
    EXPECT_NE(status.message().find("cannot handle message type " +
                                    std::to_string(retired)),
              std::string::npos)
        << status.message();
  }
}

TEST(ClusterTest, ReplicatedWritesLandOnAllReplicas) {
  auto cluster = LocalCluster::Start(SmallCluster(4, /*replication=*/2));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(100);
  auto acknowledged = (*cluster)->GetRouter().UpsertBatch(points);
  ASSERT_TRUE(acknowledged.ok());
  EXPECT_EQ(*acknowledged, 100u);  // primary acks only

  // Total held across workers is 2x the logical count (each point twice).
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < 4; ++w) total += (*cluster)->GetWorker(w).LivePoints();
  EXPECT_EQ(total, 200u);
}

TEST(ClusterTest, ReplicatedSearchDeduplicates) {
  auto cluster = LocalCluster::Start(SmallCluster(3, /*replication=*/3));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(60);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  SearchParams params;
  params.k = 10;
  params.ef_search = 256;
  auto hits = (*cluster)->GetRouter().Search(points[5].vector, params);
  ASSERT_TRUE(hits.ok());
  // No id may appear twice even though every worker holds every point.
  std::set<PointId> seen;
  for (const auto& hit : *hits) {
    EXPECT_TRUE(seen.insert(hit.id).second) << "duplicate id " << hit.id;
  }
  EXPECT_EQ((*hits)[0].id, 5u);
}

TEST(ClusterTest, ReplicatedDeleteRemovesEverywhere) {
  auto cluster = LocalCluster::Start(SmallCluster(2, /*replication=*/2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(20)).ok());
  ASSERT_TRUE((*cluster)->GetRouter().Delete(7).ok());
  for (std::size_t w = 0; w < 2; ++w) {
    std::uint64_t held = (*cluster)->GetWorker(w).LivePoints();
    EXPECT_EQ(held, 19u);
  }
}

}  // namespace
}  // namespace vdb
