#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cluster/cluster.hpp"
#include "common/faults.hpp"
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

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 61) {
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

TEST(FailoverTest, StopWorkerRemovesEndpoints) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  EXPECT_TRUE((*cluster)->IsWorkerUp(1));
  ASSERT_TRUE((*cluster)->StopWorker(1).ok());
  EXPECT_FALSE((*cluster)->IsWorkerUp(1));
  EXPECT_FALSE((*cluster)->Transport().HasEndpoint(WorkerEndpoint(1)));
  EXPECT_EQ((*cluster)->StopWorker(1).code(), StatusCode::kNotFound);
}

TEST(FailoverTest, StrictSearchFailsWithPeerDown) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(120)).ok());
  ASSERT_TRUE((*cluster)->StopWorker(2).ok());

  SearchParams params;
  auto hits = (*cluster)->GetRouter().SearchVia(0, Vector(8, 0.5f), params);
  EXPECT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kUnavailable);
}

TEST(FailoverTest, DegradedSearchReturnsSurvivingShards) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(120);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  const std::uint64_t lost = (*cluster)->GetWorker(2).LivePoints();
  ASSERT_TRUE((*cluster)->StopWorker(2).ok());

  SearchParams params;
  params.k = 120;
  params.ef_search = 512;
  ResiliencePolicy policy;
  policy.allow_degraded = true;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);
  const Vector query(8, 0.5f);
  const VectorView view = query;
  auto result = (*cluster)->GetRouter().Search(
      {.queries = {&view, 1}, .params = params, .entry = 0});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->peers_failed, 1u);
  EXPECT_TRUE(result->degraded);
  // Exactly the points on the dead worker are missing.
  EXPECT_EQ(result->results[0].size(), 120u - lost);
}

TEST(FailoverTest, PlainSearchWrappersNeverReturnDegradedResults) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(120)).ok());
  ASSERT_TRUE((*cluster)->StopWorker(2).ok());
  ResiliencePolicy policy;
  policy.allow_degraded = true;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  // The installed policy lets the entry answer from the surviving shards, but
  // the wrappers carry no degraded flag, so a partial top-k is an error there.
  SearchParams params;
  const Vector query(8, 0.5f);
  auto one = (*cluster)->GetRouter().Search(query, params);
  EXPECT_EQ(one.status().code(), StatusCode::kUnavailable);
  auto via = (*cluster)->GetRouter().SearchVia(0, query, params);
  EXPECT_EQ(via.status().code(), StatusCode::kUnavailable);
  auto batch = (*cluster)->GetRouter().SearchBatch({query, query}, params);
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
}

TEST(FailoverTest, DegradedSearchWithAllPeersUpReportsNoFailures) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(60)).ok());
  SearchParams params;
  params.k = 5;
  ResiliencePolicy policy;
  policy.allow_degraded = true;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);
  const Vector query(8, 0.1f);
  const VectorView view = query;
  auto result = (*cluster)->GetRouter().Search(
      {.queries = {&view, 1}, .params = params, .entry = 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->peers_failed, 0u);
  EXPECT_FALSE(result->degraded);
  EXPECT_EQ(result->entry, 1u);
  EXPECT_EQ(result->results[0].size(), 5u);
}

TEST(FailoverTest, UpsertToDeadPrimaryFails) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->StopWorker(1).ok());
  // Some points hash to worker 1's shard; the batch as a whole must fail.
  auto acknowledged = (*cluster)->GetRouter().UpsertBatch(RandomPoints(50));
  EXPECT_FALSE(acknowledged.ok());
}

// One shard on two workers: the primary's RPC always fails and the
// replica's fails `replica_fail_limit` times (0 = always). A failed reply
// must not abandon the rest of an upsert.
struct ReplicaFaults {
  std::unique_ptr<LocalCluster> cluster;
  WorkerId primary = 0;
  WorkerId replica = 0;
};

void StartWithReplicaFaults(std::uint32_t replica_fail_limit, ReplicaFaults& setup) {
  ClusterConfig config = SmallCluster(2);
  config.num_shards = 1;
  config.replication = 2;
  config.collection_template.index.type = "flat";
  auto started = LocalCluster::Start(config);
  ASSERT_TRUE(started.ok());
  setup.cluster = std::move(*started);
  setup.primary = setup.cluster->Placement().PrimaryOf(0);
  setup.replica = 1 - setup.primary;
  auto plan = std::make_shared<faults::FaultPlan>(7);
  for (const auto& [worker, triggers] :
       {std::pair{setup.primary, 0u}, std::pair{setup.replica, replica_fail_limit}}) {
    faults::FaultRule rule;
    rule.site_prefix = "rpc/worker/" + std::to_string(worker);
    rule.match_exact = true;
    rule.kind = faults::FaultKind::kFail;
    rule.max_triggers_per_site = triggers;
    plan->AddRule(rule);
  }
  setup.cluster->InstallFaultPlan(plan);
  ResiliencePolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0005;
  setup.cluster->GetRouter().SetResiliencePolicy(policy);
}

TEST(FailoverTest, UpsertStillRetriesLaterReplicasAfterAFailedOne) {
  ReplicaFaults setup;
  ASSERT_NO_FATAL_FAILURE(StartWithReplicaFaults(/*replica_fail_limit=*/1, setup));
  const auto points = RandomPoints(40);
  auto acknowledged = setup.cluster->GetRouter().UpsertBatch(points);
  ASSERT_FALSE(acknowledged.ok());
  EXPECT_EQ(acknowledged.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(acknowledged.status().message().find("worker " + std::to_string(setup.primary)),
            std::string::npos);
  // The replica's retry still ran, so it holds the whole batch.
  EXPECT_EQ(setup.cluster->GetWorker(setup.replica).LivePoints(), points.size());
}

TEST(FailoverTest, UpsertNamesEveryFailedReplica) {
  ReplicaFaults setup;
  ASSERT_NO_FATAL_FAILURE(StartWithReplicaFaults(/*replica_fail_limit=*/0, setup));
  auto acknowledged = setup.cluster->GetRouter().UpsertBatch(RandomPoints(10));
  ASSERT_FALSE(acknowledged.ok());
  const std::string message(acknowledged.status().message());
  EXPECT_NE(message.find("2/2 replica"), std::string::npos) << message;
  for (const WorkerId worker : {setup.primary, setup.replica}) {
    EXPECT_NE(message.find("worker " + std::to_string(worker)), std::string::npos)
        << message;
  }
}

TEST(FailoverTest, RestartedWorkerServesAgainButLostItsData) {
  auto cluster = LocalCluster::Start(SmallCluster(3));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(90);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  const std::uint64_t held_before = (*cluster)->GetWorker(1).LivePoints();
  ASSERT_GT(held_before, 0u);

  ASSERT_TRUE((*cluster)->StopWorker(1).ok());
  ASSERT_TRUE((*cluster)->RestartWorker(1).ok());
  EXPECT_TRUE((*cluster)->IsWorkerUp(1));
  // Stateful architecture without replication: the restarted worker comes
  // back empty (in-memory collections died with it).
  EXPECT_EQ((*cluster)->GetWorker(1).LivePoints(), 0u);

  // Strict search works again (all endpoints answer).
  SearchParams params;
  auto hits = (*cluster)->GetRouter().SearchVia(0, points[0].vector, params);
  EXPECT_TRUE(hits.ok());
}

TEST(FailoverTest, RestartRejectsRunningWorkerAndBadIds) {
  auto cluster = LocalCluster::Start(SmallCluster(2));
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->RestartWorker(0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ((*cluster)->RestartWorker(9).code(), StatusCode::kOutOfRange);
}

TEST(FailoverTest, DurableWorkerRecoversDataAfterRestart) {
  // With a data_dir, the restarted worker replays its WAL: the stateful
  // architecture's answer to node loss (paper table 1: persistence).
  vdb::testing::TempDir dir("failover_durable");
  ClusterConfig config = SmallCluster(2);
  config.collection_template.data_dir = dir.Path();
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(80);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  const std::uint64_t held_before = (*cluster)->GetWorker(1).LivePoints();
  ASSERT_GT(held_before, 0u);

  ASSERT_TRUE((*cluster)->StopWorker(1).ok());
  ASSERT_TRUE((*cluster)->RestartWorker(1).ok());
  EXPECT_EQ((*cluster)->GetWorker(1).LivePoints(), held_before);

  auto total = (*cluster)->GetRouter().TotalPoints();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 80u);
}

// Seeded faulted-bootstrap sweep: while a new replica bootstraps, the
// transport path to the snapshot source drops, refuses, or delays calls
// (deterministic per seed). The invariant under every schedule: AddReplica
// either completes the full snapshot + WAL-tail catch-up, or the joiner is
// rejected — placement rolled back, ReplicaHealth still DOWN — and is never
// admitted holding partial state. Afterwards (faults cleared) the cluster
// serves every acked point either way.
TEST(FailoverTest, SeededFaultedBootstrapNeverAdmitsPartialReplica) {
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    vdb::testing::TempDir dir("faulted_bootstrap_" + std::to_string(seed));
    ClusterConfig config = SmallCluster(2);
    config.num_shards = 2;
    config.collection_template.index.type = "flat";
    config.collection_template.data_dir = dir.Path();  // bootstrap needs a WAL
    auto cluster = LocalCluster::Start(config);
    ASSERT_TRUE(cluster.ok());
    const auto points = RandomPoints(120, /*seed=*/400 + seed);
    ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

    const ShardId shard = 0;
    const WorkerId source = (*cluster)->Placement().PrimaryOf(shard);
    const std::uint64_t shard_points =
        (*cluster)->GetWorker(source).ShardForTest(shard)->Info().live_points;
    auto joiner = (*cluster)->AddWorker();
    ASSERT_TRUE(joiner.ok());
    const WorkerId dest = *joiner;
    EXPECT_FALSE((*cluster)->Health().IsUp(dest));

    // Fault the snapshot-stream path (every RPC to the source): the kind
    // rotates with the seed so drops, refusals, and delays all get coverage.
    auto plan = std::make_shared<faults::FaultPlan>(seed);
    faults::FaultRule rule;
    rule.site_prefix = "rpc/worker/" + std::to_string(source);
    rule.match_exact = true;
    rule.kind = seed % 3 == 0   ? faults::FaultKind::kDrop
                : seed % 3 == 1 ? faults::FaultKind::kFail
                                : faults::FaultKind::kDelay;
    rule.probability = 0.35;
    rule.delay_mean_seconds = 0.01;  // drop: time-to-timeout; delay: stall
    rule.max_triggers_per_site = 4;
    plan->AddRule(rule);
    (*cluster)->InstallFaultPlan(plan);

    MigrationOptions options;
    options.page_points = 8;  // many pages → many chances to hit a fault
    (*cluster)->SetMigrationOptions(options);
    auto result = (*cluster)->AddReplica(shard, source, dest);

    (*cluster)->InstallFaultPlan(nullptr);
    const auto& replicas = (*cluster)->Placement().ReplicasOf(shard);
    const bool in_placement =
        std::find(replicas.begin(), replicas.end(), dest) != replicas.end();
    if (result.ok()) {
      ++admitted;
      EXPECT_TRUE((*cluster)->Health().IsUp(dest));
      EXPECT_TRUE(in_placement);
      // A caught-up replica is a full copy of the source shard.
      const auto* source_shard = (*cluster)->GetWorker(source).ShardForTest(shard);
      const auto* dest_shard = (*cluster)->GetWorker(dest).ShardForTest(shard);
      ASSERT_NE(source_shard, nullptr);
      ASSERT_NE(dest_shard, nullptr);
      EXPECT_EQ(dest_shard->Info().live_points, source_shard->Info().live_points);
    } else {
      ++rejected;
      // Never admitted with partial state: health DOWN, placement rolled back.
      EXPECT_FALSE((*cluster)->Health().IsUp(dest));
      EXPECT_FALSE(in_placement);
      EXPECT_FALSE((*cluster)->GetWorker(dest).IsMigratingIn(shard));
    }

    // Either outcome, the cluster still answers exactly (faults cleared).
    // TotalPoints sums held copies, so an admitted replica adds the shard's
    // points once more; search stays deduplicated either way.
    auto total = (*cluster)->GetRouter().TotalPoints();
    ASSERT_TRUE(total.ok()) << total.status().message();
    EXPECT_EQ(*total, result.ok() ? 120u + shard_points : 120u);
    SearchParams params;
    params.k = 1;
    for (std::size_t i = 0; i < 120; i += 30) {
      auto hits = (*cluster)->GetRouter().Search(points[i].vector, params);
      ASSERT_TRUE(hits.ok()) << hits.status().message();
      EXPECT_EQ((*hits)[0].id, points[i].id);
    }
  }
  // The sweep must exercise both outcomes, or the fault pressure is mistuned.
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace vdb
