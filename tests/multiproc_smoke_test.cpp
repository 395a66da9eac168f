// Multi-process smoke test: 1 router client + 4 real vdbd worker processes
// on loopback (the paper's 4-workers-per-node layout as actual processes).
// Upserts, searches with exact-recall verification, then SIGKILLs a worker
// and asserts the degraded behavior matches the in-proc failover tests:
// strict search Unavailable, degraded search returns exactly the surviving
// shards' points.
//
// The vdbd binary path is injected at compile time (VDB_VDBD_PATH).

#include <gtest/gtest.h>
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "daemon/launcher.hpp"

namespace vdb {
namespace {

using daemon::ProcessCluster;
using daemon::ProcessClusterOptions;

constexpr std::size_t kDim = 8;

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 61) {
  Rng rng(seed);
  std::vector<PointRecord> points;
  for (std::size_t i = 0; i < count; ++i) {
    PointRecord record;
    record.id = i;
    record.vector.resize(kDim);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    points.push_back(std::move(record));
  }
  return points;
}

ProcessClusterOptions FourWorkers() {
  ProcessClusterOptions options;
  options.vdbd_path = VDB_VDBD_PATH;
  options.num_workers = 4;
  options.dim = kDim;
  options.metric = "cosine";
  options.index_type = "flat";
  return options;
}

TEST(MultiprocSmokeTest, FourWorkerLifecycleWithRealCrash) {
  auto cluster = ProcessCluster::Launch(FourWorkers());
  ASSERT_TRUE(cluster.ok()) << cluster.status().message();
  for (WorkerId w = 0; w < 4; ++w) {
    EXPECT_TRUE((*cluster)->IsWorkerUp(w));
    EXPECT_GT((*cluster)->WorkerPid(w), 0);
  }

  // Upsert across all four processes and verify exact recall: with cosine +
  // flat, each point's own vector is its unique top-1 query.
  const auto points = RandomPoints(120);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());
  auto total = (*cluster)->GetRouter().TotalPoints();
  ASSERT_TRUE(total.ok()) << total.status().message();
  EXPECT_EQ(*total, 120u);

  SearchParams params;
  params.k = 1;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& probe = points[i * 6];
    auto hits = (*cluster)->GetRouter().SearchVia(
        static_cast<WorkerId>(i % 4), probe.vector, params);
    ASSERT_TRUE(hits.ok()) << hits.status().message();
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ((*hits)[0].id, probe.id);
  }

  // How many points the victim holds (shard = round-robin over workers).
  const auto& placement = (*cluster)->Placement();
  std::uint64_t lost = 0;
  for (const auto& record : points) {
    const auto replicas = placement.ReplicasOf(placement.ShardFor(record.id));
    if (std::find(replicas.begin(), replicas.end(), WorkerId{2}) != replicas.end()) {
      ++lost;
    }
  }
  ASSERT_GT(lost, 0u);

  // A real crash: SIGKILL the process. No graceful shutdown, no flush — the
  // kernel closes its sockets and the port starts refusing.
  ASSERT_TRUE((*cluster)->KillWorker(2, SIGKILL).ok());
  EXPECT_FALSE((*cluster)->IsWorkerUp(2));

  // Strict search through a surviving entry must surface the dead peer, same
  // as FailoverTest.StrictSearchFailsWithPeerDown.
  auto strict = (*cluster)->GetRouter().SearchVia(0, Vector(kDim, 0.5f), params);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kUnavailable)
      << strict.status().message();

  // Degraded search returns exactly the surviving shards' points, same as
  // FailoverTest.DegradedSearchReturnsSurvivingShards.
  ResiliencePolicy policy;
  policy.allow_degraded = true;
  (*cluster)->GetRouter().SetResiliencePolicy(policy);
  SearchParams wide;
  wide.k = 120;
  const Vector query(kDim, 0.5f);
  const VectorView view = query;
  auto degraded = (*cluster)->GetRouter().Search(
      {.queries = {&view, 1}, .params = wide, .entry = 0});
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();
  EXPECT_EQ(degraded->peers_failed, 1u);
  EXPECT_EQ(degraded->results[0].size(), 120u - lost);

  // The survivors still answer strict searches scoped to live data.
  for (std::size_t i = 0; i < 10; ++i) {
    const auto& probe = points[i];
    const auto replicas = placement.ReplicasOf(placement.ShardFor(probe.id));
    if (std::find(replicas.begin(), replicas.end(), WorkerId{2}) != replicas.end()) {
      continue;  // lives on the dead worker
    }
    const VectorView probe_view = probe.vector;
    auto after = (*cluster)->GetRouter().Search(
        {.queries = {&probe_view, 1},
         .params = params,
         .entry = static_cast<WorkerId>(i % 4 == 2 ? 3 : i % 4)});
    ASSERT_TRUE(after.ok()) << after.status().message();
    ASSERT_GE(after->results[0].size(), 1u);
    EXPECT_EQ(after->results[0][0].id, probe.id);
  }
}

TEST(MultiprocSmokeTest, GracefulShutdownViaSigterm) {
  auto cluster = ProcessCluster::Launch(FourWorkers());
  ASSERT_TRUE(cluster.ok()) << cluster.status().message();
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(RandomPoints(40)).ok());
  // SIGTERM one worker: vdbd's signal handler exits the poll loop and tears
  // the worker down cleanly; the launcher reaps it.
  ASSERT_TRUE((*cluster)->KillWorker(1, SIGTERM).ok());
  EXPECT_FALSE((*cluster)->IsWorkerUp(1));
  // The remaining three exit via the destructor's SIGTERM + reap path.
}

}  // namespace
}  // namespace vdb
