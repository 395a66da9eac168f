/// \file property_test.cpp
/// Property-based tests: randomized sweeps asserting invariants that must
/// hold for *every* input, not just hand-picked cases. Parameterized gtest
/// drives the sweeps; every case is seeded and reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>

#include "chaos_harness.hpp"
#include "cluster/placement.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "dist/topk.hpp"
#include "rpc/codec.hpp"
#include "sim/cpu.hpp"
#include "storage/wal.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

// ---- TopK equals sort-based selection on random inputs ----------------------

class TopKProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopKProperty, MatchesPartialSort) {
  Rng rng(GetParam());
  const std::size_t n = 50 + rng.NextU64(500);
  const std::size_t k = 1 + rng.NextU64(30);

  std::vector<ScoredPoint> all;
  TopK collector(k);
  for (PointId id = 0; id < n; ++id) {
    // Coarse quantization forces score ties, exercising id tie-breaking.
    const float score = static_cast<float>(rng.NextU64(64)) / 8.0f;
    all.push_back({id, score});
    collector.Push(id, score);
  }
  std::sort(all.begin(), all.end(), [](const ScoredPoint& a, const ScoredPoint& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  all.resize(std::min(k, all.size()));

  const auto got = collector.Take();
  ASSERT_EQ(got.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(got[i].id, all[i].id) << "seed=" << GetParam() << " i=" << i;
    EXPECT_EQ(got[i].score, all[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- MergeTopK equals concatenation + global selection -----------------------

class MergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeProperty, EqualsGlobalSelection) {
  Rng rng(GetParam());
  const std::size_t shards = 1 + rng.NextU64(8);
  const std::size_t k = 1 + rng.NextU64(20);

  std::vector<std::vector<ScoredPoint>> partials(shards);
  std::vector<ScoredPoint> all;
  PointId next_id = 0;
  for (auto& shard : partials) {
    const std::size_t count = rng.NextU64(40);
    for (std::size_t i = 0; i < count; ++i) {
      const ScoredPoint hit{next_id++, rng.NextFloat()};
      shard.push_back(hit);
      all.push_back(hit);
    }
    std::sort(shard.begin(), shard.end(),
              [](const ScoredPoint& a, const ScoredPoint& b) { return a.score > b.score; });
  }
  std::sort(all.begin(), all.end(), [](const ScoredPoint& a, const ScoredPoint& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });

  // A replica of the first shard reports its hits twice; the merge must
  // count each point once, on both sides of the output-scan cutoff (128).
  partials.push_back(partials.front());
  for (const std::size_t limit : {k, k + 200}) {
    const auto merged = MergeTopK(partials, limit);
    ASSERT_EQ(merged.size(), std::min(limit, all.size()));
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_FLOAT_EQ(merged[i].score, all[i].score)
          << "seed=" << GetParam() << " k=" << limit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeProperty,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107, 108));

// ---- Placement invariants over random cluster shapes --------------------------

struct PlacementCase {
  std::uint32_t shards;
  std::uint32_t workers;
  std::uint32_t replication;
};

class PlacementProperty : public ::testing::TestWithParam<PlacementCase> {};

TEST_P(PlacementProperty, InvariantsHold) {
  const auto [shards, workers, replication] = GetParam();
  auto placement = ShardPlacement::RoundRobin(shards, workers, replication);
  ASSERT_TRUE(placement.ok());

  // 1. Every shard has exactly `replication` distinct replicas.
  for (ShardId shard = 0; shard < shards; ++shard) {
    const auto& replicas = placement->ReplicasOf(shard);
    EXPECT_EQ(replicas.size(), replication);
    std::set<WorkerId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), replication);
    for (const WorkerId worker : replicas) EXPECT_LT(worker, workers);
  }
  // 2. Round-robin balance: each of the `replication` slots distributes
  //    shards with spread <= 1, so total per-worker spread <= replication.
  const auto [max_load, min_load] = placement->LoadExtremes();
  EXPECT_LE(max_load - min_load, replication);
  // 3. Total ownership = shards * replication.
  std::size_t total = 0;
  for (WorkerId worker = 0; worker < workers; ++worker) {
    total += placement->ShardsOwnedBy(worker).size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(shards) * replication);
  // 4. Rebalance to any larger worker count preserves invariants, and moves
  //    only report genuinely changed primaries.
  const auto [next, moves] = placement->RebalanceTo(workers + 3);
  for (const ShardMove& move : moves) {
    EXPECT_EQ(placement->PrimaryOf(move.shard), move.from);
    EXPECT_EQ(next.PrimaryOf(move.shard), move.to);
  }
  const auto [next_max, next_min] = next.LoadExtremes();
  EXPECT_LE(next_max - next_min, replication);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlacementProperty,
    ::testing::Values(PlacementCase{1, 1, 1}, PlacementCase{8, 2, 1},
                      PlacementCase{16, 4, 2}, PlacementCase{32, 8, 3},
                      PlacementCase{7, 5, 2}, PlacementCase{13, 13, 13},
                      PlacementCase{64, 32, 2}, PlacementCase{9, 3, 3}));

// ---- Codec: random points always round-trip, truncation never succeeds --------

class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperty, RandomBatchRoundTrip) {
  Rng rng(GetParam());
  const auto shard = static_cast<ShardId>(rng.NextU64(1000));
  std::vector<PointRecord> points;
  const std::size_t count = rng.NextU64(20);
  for (std::size_t i = 0; i < count; ++i) {
    PointRecord record;
    record.id = rng.NextU64();
    record.vector.resize(1 + rng.NextU64(64));
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    if (rng.NextBernoulli(0.5)) {
      record.payload["s"] = std::string(rng.NextU64(40), 'x');
    }
    if (rng.NextBernoulli(0.5)) {
      record.payload["i"] = static_cast<std::int64_t>(rng.NextU64());
    }
    if (rng.NextBernoulli(0.3)) record.payload["d"] = rng.NextDouble();
    if (rng.NextBernoulli(0.3)) record.payload["b"] = rng.NextBernoulli(0.5);
    points.push_back(std::move(record));
  }

  const Message message = EncodeUpsertBatch(shard, points);
  auto decoded = DecodeUpsertBatchView(message);
  ASSERT_TRUE(decoded.ok()) << "seed=" << GetParam();
  EXPECT_EQ(decoded->shard(), shard);
  ASSERT_EQ(decoded->size(), points.size());
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(decoded->id(i), points[i].id);
    const VectorView vector = decoded->vector(i);
    EXPECT_EQ(Vector(vector.begin(), vector.end()), points[i].vector);
    auto payload = decoded->payload(i);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, points[i].payload);
  }

  // Truncation at every prefix either errors or (for empty-looking prefixes)
  // never fabricates points — it must never crash.
  for (std::size_t cut = 0; cut < message.body.size();
       cut += 1 + message.body.size() / 23) {
    Message truncated = message;
    truncated.body.resize(cut);
    auto result = DecodeUpsertBatchView(truncated);
    if (result.ok()) {
      EXPECT_LE(result->size(), points.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(7, 77, 777, 7777, 77777));

// ---- WAL: recovery equals in-memory replay of the same operations -------------

class WalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalProperty, RecoveryMatchesHistory) {
  Rng rng(GetParam());
  vdb::testing::TempDir dir("wal_prop");
  const auto path = dir.Path() / "wal.log";

  // Model state: id -> latest vector (or erased).
  std::map<PointId, Vector> expected;
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    const int ops = 100 + static_cast<int>(rng.NextU64(200));
    for (int op = 0; op < ops; ++op) {
      const PointId id = rng.NextU64(40);
      if (rng.NextBernoulli(0.75)) {
        Vector v(4);
        for (auto& x : v) x = static_cast<Scalar>(rng.NextGaussian());
        ASSERT_TRUE(writer->AppendUpsert(id, v).ok());
        expected[id] = v;
      } else if (expected.count(id) != 0) {
        ASSERT_TRUE(writer->AppendDelete(id).ok());
        expected.erase(id);
      }
    }
    ASSERT_TRUE(writer->Sync().ok());
  }

  std::map<PointId, Vector> recovered;
  auto replayed = WalReader::Replay(path, [&](const WalRecord& record) -> Status {
    switch (record.type) {
      case WalRecordType::kUpsert: {
        VDB_ASSIGN_OR_RETURN(auto decoded, DecodeUpsertPayload(record.payload));
        recovered[decoded.id] = decoded.vector;
        return Status::Ok();
      }
      case WalRecordType::kDelete: {
        VDB_ASSIGN_OR_RETURN(const PointId id, DecodeDeletePayload(record.payload));
        recovered.erase(id);
        return Status::Ok();
      }
      default:
        return Status::Ok();
    }
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(recovered, expected) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalProperty, ::testing::Values(11, 22, 33, 44, 55));

// ---- WAL crash-point fuzz: truncation at ANY offset recovers a clean prefix ---

TEST(WalCrashFuzz, EveryTruncationPointRecoversPrefix) {
  vdb::testing::TempDir dir("wal_crash");
  const auto path = dir.Path() / "wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (PointId id = 0; id < 12; ++id) {
      ASSERT_TRUE(writer->AppendUpsert(id, Vector{static_cast<Scalar>(id), 1.f}).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
  }
  const auto full_size = std::filesystem::file_size(path);
  const auto full_bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes(full_size);
    in.read(bytes.data(), static_cast<std::streamsize>(full_size));
    return bytes;
  }();

  // Simulate a crash at every byte boundary: replay must never fail (a torn
  // tail is the crash point, not corruption) and must recover a prefix whose
  // records are exactly the first k complete writes.
  const auto crash_path = dir.Path() / "crash.log";
  for (std::size_t cut = 0; cut <= full_size; cut += 3) {
    {
      std::ofstream out(crash_path, std::ios::binary | std::ios::trunc);
      out.write(full_bytes.data(), static_cast<std::streamsize>(cut));
    }
    std::vector<PointId> recovered;
    auto replayed = WalReader::Replay(crash_path, [&](const WalRecord& record) -> Status {
      VDB_ASSIGN_OR_RETURN(auto decoded, DecodeUpsertPayload(record.payload));
      recovered.push_back(decoded.id);
      return Status::Ok();
    });
    ASSERT_TRUE(replayed.ok()) << "cut=" << cut << ": " << replayed.status().ToString();
    ASSERT_EQ(recovered.size(), *replayed);
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      EXPECT_EQ(recovered[i], i) << "cut=" << cut;
    }
  }
}

// ---- SimCpu conserves work under saturation ------------------------------------

class CpuProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuProperty, WorkConservingWhenSaturated) {
  Rng rng(GetParam());
  sim::Simulation sim;
  const double cores = 1.0 + static_cast<double>(rng.NextU64(8));
  sim::SimCpu cpu(sim, sim::CpuParams{cores, 0.0});

  // Enough unconstrained jobs to keep the CPU saturated start to finish.
  double total_work = 0.0;
  const int jobs = 4 + static_cast<int>(rng.NextU64(12));
  for (int i = 0; i < jobs; ++i) {
    const double work = 0.5 + rng.NextDouble() * 5.0;
    total_work += work;
    cpu.Submit(work, cores, [] {});
  }
  const double makespan = sim.Run();
  // Work-conserving processor sharing: makespan == total work / capacity.
  EXPECT_NEAR(makespan, total_work / cores, 1e-6) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuProperty, ::testing::Values(3, 6, 9, 12, 15));

// ---- Chaos schedules: cluster invariants hold under ANY seeded fault mix -----
//
// Each seed generates a fault plan (flaky RPCs, one-shot worker crashes, slow
// handlers) plus a mixed upsert/search/kill/restart schedule, then checks the
// two invariants the fault model promises:
//  - linearizable acknowledgement: a search never returns an id that was not
//    upserted, and an acked point whose replica holders all stayed healthy is
//    still the exact top-1 for its own vector (no acknowledged-then-lost);
//  - recall floor: that same top-1 self-query check IS a recall floor of 1.0
//    over the surviving data — degradation may drop dead workers' shards but
//    never reachable points.

std::shared_ptr<faults::FaultPlan> RandomFaultPlan(std::uint64_t seed,
                                                   std::uint32_t workers) {
  Rng rng(seed * 7919 + 1);
  auto plan = std::make_shared<faults::FaultPlan>(seed);
  const std::size_t num_rules = 1 + rng.NextU64(3);
  for (std::size_t i = 0; i < num_rules; ++i) {
    const auto target = std::to_string(rng.NextU64(workers));
    faults::FaultRule rule;
    switch (rng.NextU64(3)) {
      case 0:  // flaky client-facing RPC
        rule.site_prefix = "rpc/worker/" + target;
        rule.match_exact = true;
        rule.kind = faults::FaultKind::kFail;
        rule.probability = 0.1 + rng.NextDouble() * 0.2;
        break;
      case 1:  // one-shot crash partway through the schedule
        rule.site_prefix = "worker/" + target + "/handle";
        rule.kind = faults::FaultKind::kCrash;
        rule.from_op = 4 + rng.NextU64(20);
        rule.max_triggers_per_site = 1;
        break;
      default:  // slow handler (sub-millisecond; decisions stay time-free)
        rule.site_prefix = "worker/" + target + "/handle";
        rule.kind = faults::FaultKind::kDelay;
        rule.probability = 0.3;
        rule.delay_mean_seconds = 0.0005 + rng.NextDouble() * 0.0015;
        break;
    }
    plan->AddRule(rule);
  }
  return plan;
}

class FaultScheduleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultScheduleProperty, AckedPointsSurviveAndHitsAreReal) {
  const std::uint64_t seed = GetParam();
  vdb::testing::ChaosOptions options;
  options.seed = seed;
  options.num_workers = 3 + static_cast<std::uint32_t>(seed % 3);
  options.num_ops = 40;
  options.points_per_upsert = 6;
  options.kill_weight = 0.08;
  options.restart_weight = 0.07;
  options.fault_plan = RandomFaultPlan(seed, options.num_workers);
  options.policy.max_attempts = 2;
  options.policy.initial_backoff_seconds = 0.0005;
  options.policy.max_backoff_seconds = 0.002;
  options.policy.allow_degraded = true;

  vdb::testing::ChaosHarness harness(options);
  ASSERT_TRUE(harness.Run().ok());
  const auto& report = harness.Report();
  EXPECT_TRUE(report.Ok()) << "seed=" << seed << "\n" << report.violations;
  EXPECT_GT(report.points_attempted, 0u) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleProperty,
                         ::testing::Range<std::uint64_t>(0, 100));

}  // namespace
}  // namespace vdb
