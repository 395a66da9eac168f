#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "chaos_harness.hpp"
#include "cluster/cluster.hpp"
#include "common/faults.hpp"
#include "common/stopwatch.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace vdb {
namespace {

using vdb::testing::ChaosHarness;
using vdb::testing::ChaosOptions;
using vdb::testing::ChaosReport;

// A plan with flaky RPCs to one worker and a one-shot crash of another — the
// mix every determinism assertion below replays.
std::shared_ptr<faults::FaultPlan> MixedPlan(std::uint64_t seed) {
  auto plan = std::make_shared<faults::FaultPlan>(seed);
  faults::FaultRule flaky;
  flaky.site_prefix = "rpc/worker/2";
  flaky.kind = faults::FaultKind::kFail;
  flaky.probability = 0.15;
  plan->AddRule(flaky);
  faults::FaultRule crash;
  crash.site_prefix = "worker/3/handle";
  crash.kind = faults::FaultKind::kCrash;
  crash.from_op = 6;
  crash.max_triggers_per_site = 1;
  plan->AddRule(crash);
  return plan;
}

// Determinism requires wall-clock-free decisions: retries and degradation are
// fine, deadlines and hedging are not (see chaos_harness.hpp).
ChaosOptions DeterministicOptions(std::uint64_t seed,
                                  std::shared_ptr<faults::FaultPlan> plan) {
  ChaosOptions options;
  options.seed = seed;
  options.num_workers = 5;
  options.replication = 1;
  options.num_ops = 80;
  options.fault_plan = std::move(plan);
  options.policy.max_attempts = 2;
  options.policy.initial_backoff_seconds = 0.0005;
  options.policy.max_backoff_seconds = 0.002;
  options.policy.allow_degraded = true;
  return options;
}

TEST(ChaosTest, SameSeedProducesIdenticalLogs) {
  const std::uint64_t kSeed = 0xC4A05;

  auto plan_a = MixedPlan(kSeed);
  ChaosHarness run_a(DeterministicOptions(kSeed, plan_a));
  ASSERT_TRUE(run_a.Run().ok());

  auto plan_b = MixedPlan(kSeed);
  ChaosHarness run_b(DeterministicOptions(kSeed, plan_b));
  ASSERT_TRUE(run_b.Run().ok());

  EXPECT_TRUE(run_a.Report().Ok()) << run_a.Report().violations;
  EXPECT_TRUE(run_b.Report().Ok()) << run_b.Report().violations;

  // The schedule actually exercised faults.
  EXPECT_GT(plan_a->EventCount(), 0u);
  EXPECT_GT(run_a.Report().points_acked, 0u);
  EXPECT_GT(run_a.Report().searches_ok, 0u);

  // Same seed ⇒ bit-identical schedule log and fault event log.
  EXPECT_EQ(run_a.Report().schedule_log, run_b.Report().schedule_log);
  EXPECT_EQ(plan_a->EventLogString(), plan_b->EventLogString());
}

TEST(ChaosTest, DifferentSeedsDiverge) {
  auto plan_a = MixedPlan(11);
  ChaosHarness run_a(DeterministicOptions(11, plan_a));
  ASSERT_TRUE(run_a.Run().ok());
  auto plan_b = MixedPlan(12);
  ChaosHarness run_b(DeterministicOptions(12, plan_b));
  ASSERT_TRUE(run_b.Run().ok());
  EXPECT_NE(run_a.Report().schedule_log, run_b.Report().schedule_log);
}

// Acceptance scenario: a FaultPlan kills 1 of 8 workers mid-run; resilient
// searches must return degraded-but-nonempty results within the deadline, and
// recall over the full ground truth keeps a floor (the dead worker held ~1/8
// of the points).
TEST(ChaosTest, SingleWorkerLossDegradedSearchWithinDeadline) {
  constexpr std::size_t kDim = 16;
  constexpr std::uint32_t kK = 10;
  ClusterConfig config;
  config.num_workers = 8;
  config.collection_template.dim = kDim;
  config.collection_template.metric = Metric::kCosine;
  config.collection_template.index.type = "flat";
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());

  Rng rng(2026);
  std::vector<PointRecord> points;
  for (PointId id = 0; id < 400; ++id) {
    PointRecord record;
    record.id = id;
    record.vector.resize(kDim);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    points.push_back(std::move(record));
  }
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  // Crash worker 5 on its next handled request (entry or peer call alike).
  auto plan = std::make_shared<faults::FaultPlan>(99);
  faults::FaultRule crash;
  crash.site_prefix = "worker/5/handle";
  crash.kind = faults::FaultKind::kCrash;
  crash.max_triggers_per_site = 1;
  plan->AddRule(crash);
  (*cluster)->InstallFaultPlan(plan);

  ResiliencePolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.001;
  policy.call_deadline_seconds = 2.0;
  policy.allow_degraded = true;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  const auto cosine = [](const Vector& a, const Vector& b) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      dot += a[i] * b[i];
      na += a[i] * a[i];
      nb += b[i] * b[i];
    }
    return dot / std::sqrt(na * nb);
  };

  double total_recall = 0.0;
  std::size_t degraded_searches = 0;
  constexpr std::size_t kQueries = 12;
  for (std::size_t q = 0; q < kQueries; ++q) {
    Vector query(kDim);
    for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
    SearchParams params;
    params.k = kK;

    Stopwatch watch;
    const VectorView view = query;
    auto outcome =
        (*cluster)->GetRouter().Search({.queries = {&view, 1}, .params = params});
    const double elapsed = watch.ElapsedSeconds();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_FALSE(outcome->results[0].empty());
    EXPECT_LT(elapsed, policy.call_deadline_seconds);
    if (outcome->degraded) {
      ++degraded_searches;
      EXPECT_GE(outcome->peers_failed, 1u);
    }

    // Exact global ground truth (includes the dead worker's points).
    std::vector<ScoredPoint> truth;
    for (const auto& record : points) {
      truth.push_back({record.id, static_cast<Scalar>(cosine(query, record.vector))});
    }
    std::partial_sort(truth.begin(), truth.begin() + kK, truth.end(),
                      [](const ScoredPoint& a, const ScoredPoint& b) {
                        return a.score > b.score;
                      });
    std::size_t overlap = 0;
    for (std::size_t i = 0; i < kK; ++i) {
      for (const auto& hit : outcome->results[0]) {
        if (hit.id == truth[i].id) {
          ++overlap;
          break;
        }
      }
    }
    total_recall += static_cast<double>(overlap) / kK;
  }
  // The very first search is what crashes worker 5; every one after it runs
  // one worker short and must say so.
  EXPECT_GE(degraded_searches, kQueries - 1);
  // Losing 1 of 8 workers costs ~1/8 of the candidates; 0.5 is a loose floor
  // far below the expected ~0.875.
  EXPECT_GE(total_recall / kQueries, 0.5);
}

// Acceptance scenario: hedged reads cap the tail. The client→worker/0 RPC is
// delayed 400 ms (peer fan-out calls are exempt via match_exact), so an
// unhedged search through entry 0 would take ≥400 ms; the hedge fires after
// 20 ms and a different entry answers fast.
TEST(ChaosTest, HedgingBoundsTailLatency) {
  constexpr std::size_t kDim = 8;
  ClusterConfig config;
  config.num_workers = 3;
  config.collection_template.dim = kDim;
  config.collection_template.metric = Metric::kCosine;
  config.collection_template.index.type = "flat";
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());

  Rng rng(7);
  std::vector<PointRecord> points;
  for (PointId id = 0; id < 90; ++id) {
    PointRecord record;
    record.id = id;
    record.vector.resize(kDim);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    points.push_back(std::move(record));
  }
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  auto plan = std::make_shared<faults::FaultPlan>(5);
  faults::FaultRule slow;
  slow.site_prefix = "rpc/worker/0";
  slow.match_exact = true;  // do not slow "rpc/worker/0/local" peer calls
  slow.kind = faults::FaultKind::kDelay;
  slow.delay_mean_seconds = 0.4;
  plan->AddRule(slow);
  (*cluster)->InstallFaultPlan(plan);

  ResiliencePolicy policy;
  policy.hedge_delay_seconds = 0.02;
  policy.call_deadline_seconds = 5.0;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  std::size_t hedged = 0;
  double max_latency = 0.0;
  for (std::size_t q = 0; q < 6; ++q) {
    SearchParams params;
    params.k = 5;
    Stopwatch watch;
    const VectorView view = points[q].vector;
    auto outcome =
        (*cluster)->GetRouter().Search({.queries = {&view, 1}, .params = params});
    max_latency = std::max(max_latency, watch.ElapsedSeconds());
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->results[0].size(), 5u);
    if (outcome->hedged) {
      ++hedged;
      // The hedge won: the reply came from a worker whose entry RPC is fast.
      EXPECT_NE(outcome->entry, 0u);
      EXPECT_GE(outcome->attempts, 2u);
    }
  }
  // Entry rotation passes through worker 0 at least twice in 6 searches.
  EXPECT_GE(hedged, 2u);
  // Every search beat the injected 400 ms delay by a wide margin.
  EXPECT_LT(max_latency, 0.3);
}

// The harness's end-of-run audit must catch real data loss: ack a batch, kill
// a holder, and the "acked ⇒ findable" invariant stays silent (holders gone)
// while a surviving holder keeps its points findable.
// Fault-triggered flight recorder: injected faults, the retries they force,
// and the error responses they produce must all be visible in the ring dump
// after a faulty run — the post-mortem timeline the recorder exists for.
TEST(ChaosTest, FlightRecorderCapturesInjectedFaultTimeline) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "flight recorder compiled out (VDB_OBS_DISABLED)";
  }
  obs::FlightRecorderClear();

  ClusterConfig config;
  config.num_workers = 4;
  config.collection_template.dim = 8;
  config.collection_template.index.type = "flat";
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());

  Rng rng(11);
  std::vector<PointRecord> points;
  for (PointId id = 0; id < 64; ++id) {
    PointRecord record;
    record.id = id;
    record.vector.resize(8);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    points.push_back(std::move(record));
  }
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  // Every RPC to worker 2 fails a bounded number of times: each injected
  // fault forces a router retry and an encoded error response.
  auto plan = std::make_shared<faults::FaultPlan>(13);
  faults::FaultRule flaky;
  flaky.site_prefix = "rpc/worker/2";
  flaky.kind = faults::FaultKind::kFail;
  flaky.probability = 1.0;
  flaky.max_triggers_per_site = 2;
  plan->AddRule(flaky);
  (*cluster)->InstallFaultPlan(plan);

  ResiliencePolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.0005;
  policy.allow_degraded = true;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);

  Vector query(8, 0.5f);
  SearchParams params;
  params.k = 5;
  for (int i = 0; i < 4; ++i) {
    const VectorView view = query;
    const auto outcome =
        (*cluster)->GetRouter().Search({.queries = {&view, 1}, .params = params});
    EXPECT_TRUE(outcome.ok());
  }

  const std::string dump = obs::FlightRecorderDump();
  EXPECT_NE(dump.find("fault"), std::string::npos) << dump;
  EXPECT_NE(dump.find("rpc/worker/2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("injected fail"), std::string::npos) << dump;
  EXPECT_NE(dump.find("retry"), std::string::npos) << dump;
  EXPECT_NE(dump.find("error"), std::string::npos) << dump;

  // The harness surfaces the same dump when an invariant trips; a clean run
  // attaches nothing.
  ChaosOptions options;
  options.seed = 5;
  options.num_workers = 3;
  options.num_ops = 20;
  ChaosHarness harness(options);
  ASSERT_TRUE(harness.Run().ok());
  EXPECT_TRUE(harness.Report().Ok());
  EXPECT_TRUE(harness.Report().flight_dump.empty());
}

TEST(ChaosTest, HarnessTracksAckedPointsAcrossKills) {
  ChaosOptions options;
  options.seed = 77;
  options.num_workers = 4;
  options.num_ops = 60;
  options.kill_weight = 0.15;
  options.restart_weight = 0.1;
  options.policy.max_attempts = 2;
  options.policy.allow_degraded = true;
  ChaosHarness harness(options);
  ASSERT_TRUE(harness.Run().ok());
  const ChaosReport& report = harness.Report();
  EXPECT_TRUE(report.Ok()) << report.violations;
  EXPECT_GT(report.points_acked, 0u);
  EXPECT_GT(report.searches_ok, 0u);
  // The schedule actually exercised failover paths.
  EXPECT_GT(report.kills + report.restarts, 0u);
}

}  // namespace
}  // namespace vdb
