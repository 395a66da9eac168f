#include <gtest/gtest.h>

#include "client/client.hpp"
#include "client/event_loop_client.hpp"
#include "client/multiproc_client.hpp"
#include "client/tuner.hpp"
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

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 41) {
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

TEST(VdbClientTest, UploadAndQueryEndToEnd) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  VdbClient client((*cluster)->GetRouter());

  const auto points = RandomPoints(150);
  auto report = client.Upload(points, 32);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->points_uploaded, 150u);
  EXPECT_EQ(report->batches, 5u);
  EXPECT_GT(report->total_seconds, 0.0);

  SearchParams params;
  params.k = 3;
  params.ef_search = 128;
  auto hits = client.Search(points[9].vector, params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ((*hits)[0].id, 9u);

  std::vector<Vector> queries;
  for (int i = 0; i < 20; ++i) queries.push_back(points[i].vector);
  auto query_report = client.Query(queries, params, 4);
  ASSERT_TRUE(query_report.ok());
  EXPECT_EQ(query_report->queries, 20u);
  EXPECT_EQ(query_report->batches, 5u);
}

TEST(VdbClientTest, RejectsZeroBatchSize) {
  auto cluster = LocalCluster::Start(SmallCluster(1));
  ASSERT_TRUE(cluster.ok());
  VdbClient client((*cluster)->GetRouter());
  EXPECT_FALSE(client.Upload(RandomPoints(2), 0).ok());
  EXPECT_FALSE(client.Query({}, SearchParams{}, 0).ok());
}

TEST(EventLoopUploaderTest, UploadsEverythingOnce) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  EventLoopUploader uploader((*cluster)->Transport(), (*cluster)->Placement());
  EventLoopConfig config;
  config.batch_size = 16;
  config.max_in_flight = 2;
  auto report = uploader.Upload(RandomPoints(200), config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->points_uploaded, 200u);
  auto total = (*cluster)->GetRouter().TotalPoints();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 200u);
}

TEST(EventLoopUploaderTest, TimingDecomposesIntoConvertAndAwait) {
  auto cluster = LocalCluster::Start(SmallCluster(1));
  ASSERT_TRUE(cluster.ok());
  // Inject latency so the await share is visible.
  (*cluster)->Transport().SetLatencyModel(LinearLatency(0.002, 1e12));
  EventLoopUploader uploader((*cluster)->Transport(), (*cluster)->Placement());
  EventLoopConfig config;
  config.batch_size = 32;
  config.max_in_flight = 1;
  auto report = uploader.Upload(RandomPoints(96), config);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->await_seconds, 0.0);
  EXPECT_GE(report->convert_seconds, 0.0);
  EXPECT_GE(report->total_seconds, report->await_seconds);
}

TEST(EventLoopUploaderTest, ValidatesConfig) {
  auto cluster = LocalCluster::Start(SmallCluster(1));
  ASSERT_TRUE(cluster.ok());
  EventLoopUploader uploader((*cluster)->Transport(), (*cluster)->Placement());
  EXPECT_FALSE(uploader.Upload(RandomPoints(2), EventLoopConfig{0, 1}).ok());
  EXPECT_FALSE(uploader.Upload(RandomPoints(2), EventLoopConfig{4, 0}).ok());
}

TEST(MultiProcUploaderTest, SlicePartitionUploadsEverything) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  MultiProcUploader uploader((*cluster)->Transport(), (*cluster)->Placement());
  MultiProcConfig config;
  config.batch_size = 16;
  config.clients = 4;
  auto report = uploader.Upload(RandomPoints(300), config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->points_uploaded, 300u);
  auto total = (*cluster)->GetRouter().TotalPoints();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 300u);
}

TEST(MultiProcUploaderTest, ByWorkerPartitionUploadsEverything) {
  auto cluster = LocalCluster::Start(SmallCluster(4));
  ASSERT_TRUE(cluster.ok());
  MultiProcUploader uploader((*cluster)->Transport(), (*cluster)->Placement());
  MultiProcConfig config;
  config.batch_size = 8;
  config.clients = 4;
  config.partition = MultiProcConfig::Partition::kByWorker;
  auto report = uploader.Upload(RandomPoints(200), config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->points_uploaded, 200u);
}

TEST(MultiProcUploaderTest, MoreClientsThanPointsIsFine) {
  auto cluster = LocalCluster::Start(SmallCluster(1));
  ASSERT_TRUE(cluster.ok());
  MultiProcUploader uploader((*cluster)->Transport(), (*cluster)->Placement());
  MultiProcConfig config;
  config.clients = 8;
  auto report = uploader.Upload(RandomPoints(3), config);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->points_uploaded, 3u);
}

TEST(TunerTest, SweepFindsMinimum) {
  auto result = SweepParameter("batch", {1, 2, 4, 8, 16},
                               [](std::uint64_t parameter) -> Result<double> {
                                 const double x = static_cast<double>(parameter);
                                 return (x - 4.0) * (x - 4.0) + 1.0;  // min at 4
                               });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->best_parameter, 4u);
  EXPECT_DOUBLE_EQ(result->best_seconds, 1.0);
  EXPECT_EQ(result->curve.size(), 5u);
}

TEST(TunerTest, EmptyCandidatesRejected) {
  EXPECT_FALSE(
      SweepParameter("x", {}, [](std::uint64_t) -> Result<double> { return 1.0; }).ok());
}

TEST(TunerTest, TrialErrorPropagates) {
  auto result = SweepParameter("x", {1, 2}, [](std::uint64_t p) -> Result<double> {
    if (p == 2) return Status::Internal("boom");
    return 1.0;
  });
  EXPECT_FALSE(result.ok());
}

TEST(TunerTest, ConvexityCheck) {
  const std::vector<TunePoint> convex = {{1, 468}, {8, 400}, {32, 381}, {128, 395}, {512, 430}};
  EXPECT_TRUE(IsConvexAroundMin(convex));
  const std::vector<TunePoint> jagged = {{1, 100}, {2, 300}, {4, 90}, {8, 350}, {16, 80}};
  EXPECT_FALSE(IsConvexAroundMin(jagged));
}

}  // namespace
}  // namespace vdb
