#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/faults.hpp"
#include "common/stopwatch.hpp"

namespace vdb {
namespace {

ClusterConfig FlatCluster(std::uint32_t workers, std::uint32_t replication = 1) {
  ClusterConfig config;
  config.num_workers = workers;
  config.replication = replication;
  config.collection_template.dim = 8;
  config.collection_template.metric = Metric::kCosine;
  config.collection_template.index.type = "flat";
  return config;
}

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 31) {
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

// ---- Backoff determinism ---------------------------------------------------

TEST(BackoffTest, ExponentialGrowthCapsAtMax) {
  ResiliencePolicy policy;
  policy.initial_backoff_seconds = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.004;
  policy.jitter_fraction = 0.0;
  const auto schedule = BackoffSchedule(policy, 5);
  ASSERT_EQ(schedule.size(), 5u);
  EXPECT_DOUBLE_EQ(schedule[0], 0.001);
  EXPECT_DOUBLE_EQ(schedule[1], 0.002);
  EXPECT_DOUBLE_EQ(schedule[2], 0.004);
  EXPECT_DOUBLE_EQ(schedule[3], 0.004);
  EXPECT_DOUBLE_EQ(schedule[4], 0.004);
}

TEST(BackoffTest, JitteredScheduleIsSeedDeterministic) {
  ResiliencePolicy policy;
  policy.jitter_fraction = 0.25;
  policy.seed = 1234;
  const auto a = BackoffSchedule(policy, 6, /*call_index=*/0);
  const auto b = BackoffSchedule(policy, 6, /*call_index=*/0);
  EXPECT_EQ(a, b);
  // A different call draws a different (but equally reproducible) stream.
  const auto c = BackoffSchedule(policy, 6, /*call_index=*/1);
  EXPECT_NE(a, c);
  // Jitter stays inside ±25% of the deterministic curve.
  ResiliencePolicy no_jitter = policy;
  no_jitter.jitter_fraction = 0.0;
  const auto base = BackoffSchedule(no_jitter, 6, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], base[i] * 0.75);
    EXPECT_LE(a[i], base[i] * 1.25);
  }
}

// ---- Retry / deadline / hedging against a live cluster ---------------------

TEST(RouterResilienceTest, HealthySearchIsSingleAttemptNotDegraded) {
  auto cluster = LocalCluster::Start(FlatCluster(3));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(60)).ok());
  ResiliencePolicy policy;
  policy.max_attempts = 3;
  policy.allow_degraded = true;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  SearchParams params;
  params.k = 5;
  const Vector query(8, 0.5f);
  const VectorView view = query;
  auto outcome =
      (*cluster)->GetRouter().Search({.queries = {&view, 1}, .params = params});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->attempts, 1u);
  EXPECT_FALSE(outcome->degraded);
  EXPECT_FALSE(outcome->hedged);
  EXPECT_EQ(outcome->results[0].size(), 5u);
}

TEST(RouterResilienceTest, RetriesRotateToAHealthyEntry) {
  auto cluster = LocalCluster::Start(FlatCluster(2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(40)).ok());

  // Worker 0's client-facing RPC refuses exactly once; peer fan-out calls
  // ("rpc/worker/0/local") are untouched, so entry 1 can still reach it.
  auto plan = std::make_shared<faults::FaultPlan>(8);
  faults::FaultRule refuse;
  refuse.site_prefix = "rpc/worker/0";
  refuse.match_exact = true;
  refuse.kind = faults::FaultKind::kFail;
  refuse.max_triggers_per_site = 1;
  plan->AddRule(refuse);
  (*cluster)->InstallFaultPlan(plan);

  ResiliencePolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0005;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  SearchParams params;
  params.k = 3;
  const Vector query(8, 0.2f);
  const VectorView view = query;
  auto outcome =
      (*cluster)->GetRouter().Search({.queries = {&view, 1}, .params = params});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->attempts, 2u);  // entry 0 refused, entry 1 answered
  EXPECT_EQ(outcome->entry, 1u);
  EXPECT_EQ(outcome->results[0].size(), 3u);
  EXPECT_EQ(plan->EventCount(), 1u);
}

TEST(RouterResilienceTest, DroppedRequestsHitTheCallDeadline) {
  auto cluster = LocalCluster::Start(FlatCluster(2));
  ASSERT_TRUE(cluster.ok());

  // Both entry RPCs black-hole for 300 ms — longer than the 50 ms budget, so
  // the caller must time out rather than wait for the drop to surface.
  auto plan = std::make_shared<faults::FaultPlan>(4);
  for (const char* site : {"rpc/worker/0", "rpc/worker/1"}) {
    faults::FaultRule drop;
    drop.site_prefix = site;
    drop.match_exact = true;
    drop.kind = faults::FaultKind::kDrop;
    drop.delay_mean_seconds = 0.3;
    plan->AddRule(drop);
  }
  (*cluster)->InstallFaultPlan(plan);

  ResiliencePolicy policy;
  policy.max_attempts = 1;
  policy.call_deadline_seconds = 0.05;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  SearchParams params;
  params.k = 3;
  Stopwatch watch;
  const Vector query(8, 0.1f);
  const VectorView view = query;
  auto outcome =
      (*cluster)->GetRouter().Search({.queries = {&view, 1}, .params = params});
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 0.25);  // returned at the deadline, not the drop delay
}

TEST(RouterResilienceTest, DeadlinePropagatesToPeerFanOut) {
  auto cluster = LocalCluster::Start(FlatCluster(3));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(90)).ok());

  // Worker 2's handler stalls half a second on every request; the entry
  // worker's propagated fan-out budget abandons it and degrades instead.
  auto plan = std::make_shared<faults::FaultPlan>(6);
  faults::FaultRule slow;
  slow.site_prefix = "worker/2/handle";
  slow.kind = faults::FaultKind::kDelay;
  slow.delay_mean_seconds = 0.5;
  plan->AddRule(slow);
  (*cluster)->InstallFaultPlan(plan);

  ResiliencePolicy policy;
  policy.max_attempts = 1;
  policy.call_deadline_seconds = 0.15;
  policy.allow_degraded = true;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  SearchParams params;
  params.k = 10;
  Stopwatch watch;
  const Vector query(8, 0.3f);
  const VectorView view = query;
  auto outcome =
      (*cluster)->GetRouter().Search({.queries = {&view, 1}, .params = params});
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->degraded);
  EXPECT_GE(outcome->peers_failed, 1u);
  EXPECT_FALSE(outcome->results[0].empty());
  EXPECT_LT(elapsed, 0.45);  // did not wait out the slow peer
}

TEST(RouterResilienceTest, HedgedReadSelectsADifferentEntry) {
  auto cluster = LocalCluster::Start(FlatCluster(2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(40)).ok());

  auto plan = std::make_shared<faults::FaultPlan>(3);
  faults::FaultRule slow;
  slow.site_prefix = "rpc/worker/0";
  slow.match_exact = true;
  slow.kind = faults::FaultKind::kDelay;
  slow.delay_mean_seconds = 0.3;
  plan->AddRule(slow);
  (*cluster)->InstallFaultPlan(plan);

  ResiliencePolicy policy;
  policy.hedge_delay_seconds = 0.01;
  policy.call_deadline_seconds = 5.0;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  SearchParams params;
  params.k = 4;
  Stopwatch watch;
  const Vector query(8, 0.4f);
  const VectorView view = query;
  auto outcome =
      (*cluster)->GetRouter().Search({.queries = {&view, 1}, .params = params});
  const double elapsed = watch.ElapsedSeconds();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->hedged);
  EXPECT_EQ(outcome->entry, 1u);  // replica entry answered, not the slow one
  EXPECT_GE(outcome->attempts, 2u);
  EXPECT_EQ(outcome->results[0].size(), 4u);
  EXPECT_LT(elapsed, 0.2);
}

TEST(RouterResilienceTest, UpsertRetriesTransientReplicaFailure) {
  auto cluster = LocalCluster::Start(FlatCluster(2));
  ASSERT_TRUE(cluster.ok());

  auto plan = std::make_shared<faults::FaultPlan>(12);
  faults::FaultRule refuse;
  refuse.site_prefix = "rpc/worker/1";
  refuse.match_exact = true;
  refuse.kind = faults::FaultKind::kFail;
  refuse.max_triggers_per_site = 1;
  plan->AddRule(refuse);
  (*cluster)->InstallFaultPlan(plan);

  ResiliencePolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.0005;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  auto acked = (*cluster)->GetRouter().UpsertBatch(RandomPoints(40));
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_EQ(*acked, 40u);
  EXPECT_EQ(plan->EventCount(), 1u);  // the one refusal was retried through
}

// ---- Router::Delete regression ---------------------------------------------

TEST(RouterResilienceTest, DeleteNamesEveryFailedReplica) {
  auto cluster = LocalCluster::Start(FlatCluster(3, /*replication=*/2));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(30);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  const PointId victim_point = 7;
  const ShardId shard = (*cluster)->Placement().ShardFor(victim_point);
  const auto replicas = (*cluster)->Placement().ReplicasOf(shard);
  ASSERT_EQ(replicas.size(), 2u);
  const WorkerId down = replicas[1];
  ASSERT_TRUE((*cluster)->StopWorker(down).ok());

  const Status status = (*cluster)->GetRouter().Delete(victim_point);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // The failure must name the replica that could not acknowledge — before the
  // fix a surviving-replica success was reported as a clean delete while the
  // dead replica silently kept (or lost) the point.
  EXPECT_NE(status.ToString().find("worker " + std::to_string(down)),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("diverged"), std::string::npos);
}

TEST(RouterResilienceTest, DeleteSucceedsOnlyWhenAllReplicasAck) {
  auto cluster = LocalCluster::Start(FlatCluster(3, /*replication=*/2));
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(30)).ok());

  EXPECT_TRUE((*cluster)->GetRouter().Delete(7).ok());
  // Fully deleted everywhere: a second delete finds nothing.
  EXPECT_EQ((*cluster)->GetRouter().Delete(7).code(), StatusCode::kNotFound);
  // Unknown ids were never there.
  EXPECT_EQ((*cluster)->GetRouter().Delete(9999).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace vdb
