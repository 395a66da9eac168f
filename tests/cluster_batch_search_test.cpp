#include <gtest/gtest.h>

#include "client/client.hpp"
#include "cluster/cluster.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

ClusterConfig SmallCluster(std::uint32_t workers) {
  ClusterConfig config;
  config.num_workers = workers;
  config.collection_template.dim = 8;
  config.collection_template.metric = Metric::kCosine;
  config.collection_template.index.type = "hnsw";
  config.collection_template.index.hnsw.m = 8;
  config.collection_template.index.hnsw.build_threads = 1;
  return config;
}

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 71) {
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

/// A batched search must answer every query exactly as a single search
/// through the same entry worker does, whatever the index does with the
/// batch (HNSW spreads the queries over the arena; flat SQ8 walks its codes
/// once per batch).
void ExpectBatchMatchesPerQuerySearch(const ClusterConfig& config, bool bulk_build) {
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(300);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  // SQ8 trains its ranges in a bulk build; until then shards scan exactly.
  if (bulk_build) ASSERT_TRUE((*cluster)->GetRouter().BuildAllIndexes().ok());

  SearchParams params;
  params.k = 5;
  params.ef_search = 256;
  std::vector<Vector> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(points[static_cast<std::size_t>(i) * 20].vector);

  auto batched = (*cluster)->GetRouter().SearchBatch(queries, params);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto single = (*cluster)->GetRouter().SearchVia(0, queries[q], params);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batched)[q], *single) << "query " << q;
  }
}

TEST(BatchSearchTest, MatchesPerQuerySearch) {
  ExpectBatchMatchesPerQuerySearch(SmallCluster(3), /*bulk_build=*/false);
}

TEST(BatchSearchTest, MatchesPerQuerySearchFlatSq8) {
  ClusterConfig config = SmallCluster(3);
  config.collection_template.index.type = "flat";
  config.collection_template.index.quantization = "sq8";
  config.collection_template.index.rerank = 32;
  ExpectBatchMatchesPerQuerySearch(config, /*bulk_build=*/true);
}

/// One filter over a batch: every query's hits must equal the per-shard
/// prefiltered searches (Collection::SearchFiltered) merged by hand.
void ExpectFilteredBatchMatchesPerShardReference(ClusterTransport transport) {
  ClusterConfig config = SmallCluster(3);
  config.transport = transport;
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto points = RandomPoints(300);
  for (auto& record : points) {
    record.payload["topic"] = static_cast<std::int64_t>(record.id % 4);
  }
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  SearchParams params;
  params.k = 7;
  Filter filter;
  filter.field = "topic";
  filter.value = std::int64_t{1};
  std::vector<VectorView> queries;
  for (std::size_t i = 0; i < 5; ++i) queries.push_back(points[i * 31].vector);
  auto outcome = (*cluster)->GetRouter().Search(
      {.queries = queries, .params = params, .filter = filter});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->results.size(), queries.size());

  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::vector<ScoredPoint>> partials;
    for (WorkerId w = 0; w < (*cluster)->NumWorkers(); ++w) {
      for (const ShardId shard : (*cluster)->Placement().ShardsOwnedBy(w)) {
        auto hits = (*cluster)->GetWorker(w).ShardForTest(shard)->SearchFiltered(
            queries[q], params, filter);
        ASSERT_TRUE(hits.ok());
        partials.push_back(std::move(*hits));
      }
    }
    const std::vector<ScoredPoint> expected = MergeTopK(partials, params.k);
    ASSERT_EQ(expected.size(), params.k);
    EXPECT_EQ(outcome->results[q], expected) << "query " << q;
    for (const auto& hit : outcome->results[q]) EXPECT_EQ(hit.id % 4, 1u);
  }
}

TEST(BatchSearchTest, FilteredBatchMatchesPerShardReferenceInproc) {
  ExpectFilteredBatchMatchesPerShardReference(ClusterTransport::kInproc);
}

TEST(BatchSearchTest, FilteredBatchMatchesPerShardReferenceTcp) {
  ExpectFilteredBatchMatchesPerShardReference(ClusterTransport::kTcp);
}

TEST(BatchSearchTest, SelfHitIsTopResult) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(150);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  SearchParams params;
  params.k = 1;
  params.ef_search = 256;
  std::vector<Vector> queries = {points[3].vector, points[77].vector, points[149].vector};
  auto results = (*cluster)->GetRouter().SearchBatch(queries, params);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0][0].id, 3u);
  EXPECT_EQ((*results)[1][0].id, 77u);
  EXPECT_EQ((*results)[2][0].id, 149u);
}

TEST(BatchSearchTest, OneBroadcastPerBatchNotPerQuery) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(80)).ok());

  SearchParams params;
  params.k = 3;
  std::vector<Vector> queries(16, Vector(8, 0.25f));
  // Pin the entry worker by issuing through the worker's handler directly.
  const Message reply = (*cluster)->GetWorker(0).Handle(
      EncodeSearchBatch(queries, params, /*fan_out=*/true, false, 0.0));
  ASSERT_TRUE(MessageToStatus(reply).ok());

  const WorkerCounters counters = (*cluster)->GetWorker(0).Counters();
  // 3 peers, one broadcast each for the whole 16-query batch.
  EXPECT_EQ(counters.peer_calls, 3u);
  EXPECT_EQ(counters.searches_fanned_out, 1u);
}

TEST(BatchSearchTest, EmptyBatchYieldsEmptyResults) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(20)).ok());
  auto results = (*cluster)->GetRouter().SearchBatch({}, SearchParams{});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(BatchSearchTest, CodecRoundTrip) {
  const std::vector<Vector> queries = {{1, 2}, {3, 4}, {5, 6}};
  SearchParams params;
  params.k = 7;
  auto decoded = DecodeSearchBatchRequestView(EncodeSearchBatch(
      queries, params, /*fan_out=*/false, /*allow_partial=*/true, 0.0));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(Vector(decoded->query(q).begin(), decoded->query(q).end()),
              queries[q]);
  }
  EXPECT_EQ(decoded->params().k, 7u);
  EXPECT_FALSE(decoded->fan_out());
  EXPECT_TRUE(decoded->allow_partial());

  SearchBatchResponse response;
  response.results = {{{1, 0.5f}}, {}, {{2, 0.25f}, {3, 0.125f}}};
  response.peers_failed = 1;
  auto decoded_response = DecodeSearchBatchResponse(EncodeSearchBatchResponse(response));
  ASSERT_TRUE(decoded_response.ok());
  EXPECT_EQ(decoded_response->results, response.results);
  EXPECT_EQ(decoded_response->peers_failed, 1u);
}

TEST(BatchSearchTest, PartialToleranceWithDeadPeer) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(90)).ok());
  ASSERT_TRUE((*cluster)->StopWorker(2).ok());

  const std::vector<Vector> queries = {Vector(8, 0.5f), Vector(8, -0.5f)};
  SearchParams params;
  params.k = 5;

  // Strict: fails.
  Message reply = (*cluster)->GetWorker(0).Handle(
      EncodeSearchBatch(queries, params, /*fan_out=*/true, false, 0.0));
  EXPECT_FALSE(MessageToStatus(reply).ok());

  // Partial-tolerant: answers from surviving workers.
  reply = (*cluster)->GetWorker(0).Handle(EncodeSearchBatch(
      queries, params, /*fan_out=*/true, /*allow_partial=*/true, 0.0));
  ASSERT_TRUE(MessageToStatus(reply).ok());
  auto response = DecodeSearchBatchResponse(reply);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->peers_failed, 1u);
  EXPECT_EQ(response->results.size(), 2u);
  EXPECT_FALSE(response->results[0].empty());
}

TEST(BatchSearchTest, VdbClientQueryUsesBatchedPath) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(100);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  VdbClient client((*cluster)->GetRouter());
  std::vector<Vector> queries;
  for (int i = 0; i < 24; ++i) queries.push_back(points[static_cast<std::size_t>(i)].vector);
  SearchParams params;
  params.k = 3;
  auto report = client.Query(queries, params, 8);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries, 24u);
  EXPECT_EQ(report->batches, 3u);

  // 3 batches -> 3 fan-outs total across entry workers (not 24).
  std::uint64_t fanouts = 0;
  for (std::size_t w = 0; w < 2; ++w) {
    fanouts += (*cluster)->GetWorker(w).Counters().searches_fanned_out;
  }
  EXPECT_EQ(fanouts, 3u);
}

}  // namespace
}  // namespace vdb
