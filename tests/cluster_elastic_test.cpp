// Live elasticity suite (`ctest -L elastic`): consistent snapshot/restore,
// live shard migration under traffic, 1→4 growth with zero failed client
// calls, replica bootstrap catch-up, and a 25-seed chaos sweep that kills a
// worker mid-migration and proves no acked point is lost, gapped, or
// double-counted. Runs under ASan+UBSan and TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "storage/wal.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

constexpr std::size_t kDim = 8;

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 91,
                                      PointId first_id = 0) {
  Rng rng(seed);
  std::vector<PointRecord> points;
  for (std::size_t i = 0; i < count; ++i) {
    PointRecord record;
    record.id = first_id + i;
    record.vector.resize(kDim);
    for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
    points.push_back(std::move(record));
  }
  return points;
}

ClusterConfig ElasticConfig(std::uint32_t workers, std::uint32_t shards,
                            const std::filesystem::path& data_dir = {}) {
  ClusterConfig config;
  config.num_workers = workers;
  config.num_shards = shards;
  config.collection_template.dim = kDim;
  config.collection_template.metric = Metric::kCosine;
  config.collection_template.index.type = "flat";  // exact: recall checks are strict
  config.collection_template.data_dir = data_dir;
  return config;
}

/// Every point's own vector must rank itself top-1 (flat + cosine makes this
/// exact), and the cluster-wide count must equal `expected` — together these
/// catch both gaps and double-counts after a handoff.
void VerifyExactlyOnce(LocalCluster& cluster,
                       const std::vector<PointRecord>& points,
                       std::uint64_t expected, std::size_t probes = 24) {
  auto total = cluster.GetRouter().TotalPoints();
  ASSERT_TRUE(total.ok()) << total.status().message();
  EXPECT_EQ(*total, expected);
  SearchParams params;
  params.k = 1;
  const std::size_t step = std::max<std::size_t>(points.size() / probes, 1);
  for (std::size_t i = 0; i < points.size(); i += step) {
    auto hits = cluster.GetRouter().Search(points[i].vector, params);
    ASSERT_TRUE(hits.ok()) << hits.status().message();
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ((*hits)[0].id, points[i].id) << "probe " << i;
  }
}

// ---- Snapshot / restore ----------------------------------------------------

TEST(ElasticSnapshotTest, DurableCollectionRoundTrip) {
  testing::TempDir dir("elastic_snap");
  CollectionConfig config;
  config.dim = kDim;
  config.metric = Metric::kCosine;
  config.index.type = "flat";
  config.data_dir = dir.Path() / "live";
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  const auto points = RandomPoints(90);
  ASSERT_TRUE((*collection)->UpsertBatch(points).ok());
  ASSERT_TRUE((*collection)->Delete(points[10].id).ok());
  ASSERT_TRUE((*collection)->Delete(points[40].id).ok());

  ASSERT_TRUE((*collection)->SnapshotTo(dir.Path() / "snap").ok());

  CollectionConfig restored_config = config;
  restored_config.data_dir = dir.Path() / "snap";
  auto restored = Collection::Open(restored_config);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ((*restored)->Info().live_points, 88u);
  EXPECT_FALSE((*restored)->Contains(points[10].id));
  EXPECT_FALSE((*restored)->Contains(points[40].id));
  EXPECT_TRUE((*restored)->Contains(points[0].id));
  // The snapshot manifest covers everything: nothing replays from its WAL.
  EXPECT_EQ((*restored)->Info().wal_bytes, 0u);
  // The source keeps serving, unaffected by the cut.
  EXPECT_EQ((*collection)->Info().live_points, 88u);
}

TEST(ElasticSnapshotTest, InMemoryCollectionRoundTrip) {
  testing::TempDir dir("elastic_snap_mem");
  CollectionConfig config;
  config.dim = kDim;
  config.metric = Metric::kCosine;
  config.index.type = "flat";  // no data_dir: purely in-memory source
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  const auto points = RandomPoints(40);
  ASSERT_TRUE((*collection)->UpsertBatch(points).ok());
  ASSERT_TRUE((*collection)->SnapshotTo(dir.Path() / "snap").ok());

  CollectionConfig restored_config = config;
  restored_config.data_dir = dir.Path() / "snap";
  auto restored = Collection::Open(restored_config);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ((*restored)->Info().live_points, 40u);
}

TEST(ElasticSnapshotTest, WalTailCursorInvalidatedByRotation) {
  testing::TempDir dir("elastic_tail");
  CollectionConfig config;
  config.dim = kDim;
  config.index.type = "flat";
  config.data_dir = dir.Path();
  config.wal_truncate_bytes = 0;  // rotate on every flush
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(10)).ok());

  auto tail = (*collection)->ReadWalTail(0, 4);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->records.size(), 4u);
  EXPECT_EQ(tail->next_record, 4u);
  EXPECT_EQ(tail->total_records, 10u);

  // Rotation deletes the covered prefix: a pre-rotation cursor must be
  // rejected (the catch-up protocol restarts from a snapshot), not silently
  // resolved against the wrong records.
  ASSERT_TRUE((*collection)->Flush().ok());
  auto stale = (*collection)->ReadWalTail(0, 4);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ElasticSnapshotTest, WalTailPagedReadsMatchLoggedWrites) {
  testing::TempDir dir("elastic_tail_pages");
  CollectionConfig config;
  config.dim = kDim;
  config.index.type = "flat";
  config.data_dir = dir.Path();
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  std::map<PointId, Payload> expected;
  for (PointId id = 0; id < 40; ++id) {
    Vector v(kDim, static_cast<Scalar>(id));
    Payload meta{{"idx", PayloadValue{static_cast<std::int64_t>(id)}}};
    ASSERT_TRUE((*collection)->Upsert(id, v, meta).ok());
    expected[id] = std::move(meta);
  }
  for (PointId id = 0; id < 40; id += 5) {
    ASSERT_TRUE((*collection)->Delete(id).ok());
    expected.erase(id);
  }

  // Page through the tail: every page after the first starts mid-log, so the
  // reader must land on exactly the right record (seek index), and upsert
  // records must carry payload metadata through the replay.
  std::map<PointId, Payload> replayed;
  std::uint64_t cursor = 0;
  while (true) {
    auto tail = (*collection)->ReadWalTail(cursor, 7);
    ASSERT_TRUE(tail.ok()) << tail.status().message();
    if (tail->records.empty()) {
      EXPECT_EQ(tail->next_record, tail->total_records);
      break;
    }
    EXPECT_LE(tail->records.size(), 7u);
    for (const auto& record : tail->records) {
      switch (record.type) {
        case WalRecordType::kUpsert: {
          auto decoded = DecodeUpsertPayload(record.payload);
          ASSERT_TRUE(decoded.ok());
          replayed[decoded->id] = std::move(decoded->payload);
          break;
        }
        case WalRecordType::kDelete: {
          auto id = DecodeDeletePayload(record.payload);
          ASSERT_TRUE(id.ok());
          replayed.erase(*id);
          break;
        }
        default:
          break;
      }
    }
    cursor = tail->next_record;
  }
  EXPECT_EQ(replayed, expected);
}

// ---- Live shard migration --------------------------------------------------

TEST(ElasticMigrationTest, MoveShardLive) {
  auto cluster = LocalCluster::Start(ElasticConfig(2, 4));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(200);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  const ShardId shard = 0;
  const WorkerId from = (*cluster)->Placement().PrimaryOf(shard);
  const WorkerId to = from == 0 ? 1 : 0;
  const std::uint64_t source_before = (*cluster)->GetWorker(from).LivePoints();

  auto moved = (*cluster)->MigrateShard(shard, from, to);
  ASSERT_TRUE(moved.ok()) << moved.status().message();
  EXPECT_GT(*moved, 0u);
  EXPECT_EQ((*cluster)->Placement().PrimaryOf(shard), to);
  EXPECT_LT((*cluster)->GetWorker(from).LivePoints(), source_before);
  EXPECT_FALSE((*cluster)->Migrations().AnyActive());
  VerifyExactlyOnce(**cluster, points, 200);
}

TEST(ElasticMigrationTest, MoveRejectedWhenDestinationAlreadyOwns) {
  auto cluster = LocalCluster::Start(ElasticConfig(2, 4));
  ASSERT_TRUE(cluster.ok());
  const ShardId shard = 0;
  const WorkerId owner = (*cluster)->Placement().PrimaryOf(shard);
  auto moved = (*cluster)->MigrateShard(shard, owner == 0 ? 1 : 0, owner);
  EXPECT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE((*cluster)->Migrations().AnyActive());
}

TEST(ElasticMigrationTest, MoveUnderConcurrentWritesAndReads) {
  auto cluster = LocalCluster::Start(ElasticConfig(2, 4));
  ASSERT_TRUE(cluster.ok());
  auto points = RandomPoints(200);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  // Small pages so client writes interleave with many copy chunks.
  MigrationOptions options;
  options.page_points = 16;
  (*cluster)->SetMigrationOptions(options);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> read_failures{0};
  std::atomic<PointId> next_id{200};
  std::thread writer([&] {
    while (!stop.load()) {
      const PointId id = next_id.fetch_add(1);
      if (!(*cluster)->GetRouter().UpsertBatch(RandomPoints(1, 1000 + id, id)).ok()) {
        write_failures.fetch_add(1);
      }
    }
  });
  std::thread reader([&] {
    SearchParams params;
    params.k = 5;
    Rng rng(5);
    while (!stop.load()) {
      Vector query(kDim);
      for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
      if (!(*cluster)->GetRouter().Search(query, params).ok()) {
        read_failures.fetch_add(1);
      }
    }
  });

  const ShardId shard = 1;
  const WorkerId from = (*cluster)->Placement().PrimaryOf(shard);
  const WorkerId to = from == 0 ? 1 : 0;
  auto moved = (*cluster)->MigrateShard(shard, from, to);
  stop.store(true);
  writer.join();
  reader.join();
  ASSERT_TRUE(moved.ok()) << moved.status().message();

  // A live handoff must be invisible to clients: every call succeeded.
  EXPECT_EQ(write_failures.load(), 0u);
  EXPECT_EQ(read_failures.load(), 0u);

  // Every acked point — initial and concurrent — present exactly once.
  const PointId written_up_to = next_id.load();
  for (PointId id = 200; id < written_up_to; ++id) {
    auto extra = RandomPoints(1, 1000 + id, id);
    points.push_back(std::move(extra[0]));
  }
  VerifyExactlyOnce(**cluster, points, written_up_to);
}

// ---- Elastic growth 1 → 4 under continuous traffic --------------------------

// A write that reads the placement before the cutover and the migration
// table after it lists only the source as a replica and reaches the
// destination only as a dual-write. The hook holds one such upsert between
// its two reads while the migrator cuts over. Ending dual-writes before that
// write drained let it land on the source alone, be acked, and vanish with
// the source's copy.
TEST(ElasticMigrationTest, WriteStraddlingTheCutoverReachesTheDestination) {
  auto cluster = LocalCluster::Start(ElasticConfig(2, 2));
  ASSERT_TRUE(cluster.ok());
  Router& router = (*cluster)->GetRouter();
  const auto points = RandomPoints(40);
  ASSERT_TRUE(router.UpsertBatch(points).ok());

  const ShardId shard = 0;
  const WorkerId from = (*cluster)->Placement().ReplicasOf(shard).front();
  const WorkerId to = from == 0 ? 1 : 0;
  PointRecord late = RandomPoints(1, 5, 1000).front();
  while ((*cluster)->Placement().ShardFor(late.id) != shard) ++late.id;

  auto table = std::make_shared<MigrationTable>();
  router.SetMigrationTable(table);
  std::atomic<bool> armed{false};
  std::promise<void> in_window;
  router.SetWriteWindowHookForTest([&] {
    if (!armed.exchange(false)) return;
    in_window.set_value();
    // Hold until dual-writes end; a migrator that waits for this write
    // instead never ends them, so give up after a bound.
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (table->Lookup(shard).has_value() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  MigrationOptions options;
  options.write_fence = [&] { router.WriteFence(); };
  ShardMigrator migrator((*cluster)->Transport(), table, options);
  std::thread writer;
  Status write_status;
  const auto moved = migrator.Move(shard, from, to, [&]() -> Status {
    armed = true;
    writer = std::thread(
        [&] { write_status = router.UpsertBatch(std::vector<PointRecord>{late}).status(); });
    in_window.get_future().wait();
    // The write has read the old placement: cut over, as
    // LocalCluster::MigrateShard does.
    VDB_ASSIGN_OR_RETURN(ShardPlacement next,
                         (*cluster)->Placement().WithReplicaReassigned(shard, from, to));
    const auto placement = std::make_shared<const ShardPlacement>(std::move(next));
    for (std::size_t w = 0; w < (*cluster)->NumWorkers(); ++w) {
      (*cluster)->GetWorker(w).SetPlacement(placement);
    }
    router.SetPlacement(placement);
    return Status::Ok();
  });
  writer.join();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_TRUE(write_status.ok()) << write_status.ToString();

  Collection* moved_shard = (*cluster)->GetWorker(to).ShardForTest(shard);
  ASSERT_NE(moved_shard, nullptr);
  EXPECT_TRUE(moved_shard->Contains(late.id)) << "acked write lost at cutover";
  auto total = router.TotalPoints();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, points.size() + 1);
}

TEST(ElasticGrowthTest, OneToFourWorkersWithZeroFailedClientCalls) {
  auto cluster = LocalCluster::Start(ElasticConfig(1, 4));
  ASSERT_TRUE(cluster.ok());
  auto points = RandomPoints(200);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> read_failures{0};
  std::atomic<PointId> next_id{200};
  std::thread writer([&] {
    while (!stop.load()) {
      const PointId id = next_id.fetch_add(1);
      if (!(*cluster)->GetRouter().UpsertBatch(RandomPoints(1, 2000 + id, id)).ok()) {
        write_failures.fetch_add(1);
      }
    }
  });
  std::thread reader([&] {
    SearchParams params;
    params.k = 3;
    Rng rng(17);
    while (!stop.load()) {
      Vector query(kDim);
      for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
      if (!(*cluster)->GetRouter().Search(query, params).ok()) {
        read_failures.fetch_add(1);
      }
    }
  });

  auto transferred = (*cluster)->ScaleTo(4);
  stop.store(true);
  writer.join();
  reader.join();
  ASSERT_TRUE(transferred.ok()) << transferred.status().message();
  EXPECT_GT(*transferred, 0u);
  ASSERT_EQ((*cluster)->NumWorkers(), 4u);

  EXPECT_EQ(write_failures.load(), 0u);
  EXPECT_EQ(read_failures.load(), 0u);

  // The joiners were admitted only after live data landed on them.
  for (WorkerId id = 1; id < 4; ++id) {
    EXPECT_TRUE((*cluster)->Health().IsUp(id)) << "worker " << id;
  }
  std::uint64_t on_joiners = 0;
  for (WorkerId id = 1; id < 4; ++id) on_joiners += (*cluster)->GetWorker(id).LivePoints();
  EXPECT_GT(on_joiners, 0u);

  const PointId written_up_to = next_id.load();
  for (PointId id = 200; id < written_up_to; ++id) {
    auto extra = RandomPoints(1, 2000 + id, id);
    points.push_back(std::move(extra[0]));
  }
  VerifyExactlyOnce(**cluster, points, written_up_to);
}

// ---- Replica bootstrap -----------------------------------------------------

TEST(ElasticBootstrapTest, NewReplicaCatchesUpAndIsAdmitted) {
  testing::TempDir dir("elastic_bootstrap");
  auto cluster = LocalCluster::Start(ElasticConfig(2, 2, dir.Path()));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(160);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  const ShardId shard = 0;
  const WorkerId source = (*cluster)->Placement().PrimaryOf(shard);
  const WorkerId dest = source == 0 ? 1 : 0;
  const std::uint64_t shard_points =
      (*cluster)->GetWorker(source).ShardForTest(shard)->Info().live_points;
  ASSERT_GT(shard_points, 0u);

  // Writes keep flowing while the joiner bootstraps; the WAL tail carries
  // whatever the snapshot cut missed.
  std::atomic<bool> stop{false};
  std::atomic<PointId> next_id{1000};
  std::thread writer([&] {
    while (!stop.load()) {
      const PointId id = next_id.fetch_add(1);
      ASSERT_TRUE(
          (*cluster)->GetRouter().UpsertBatch(RandomPoints(1, 3000 + id, id)).ok());
    }
  });
  auto result = (*cluster)->AddReplica(shard, source, dest);
  stop.store(true);
  writer.join();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_GE(result->snapshot_points, shard_points);
  EXPECT_TRUE((*cluster)->Health().IsUp(dest));

  // The placement now lists both replicas, and the copies agree.
  const auto& replicas = (*cluster)->Placement().ReplicasOf(shard);
  EXPECT_NE(std::find(replicas.begin(), replicas.end(), dest), replicas.end());
  const auto* source_shard = (*cluster)->GetWorker(source).ShardForTest(shard);
  const auto* dest_shard = (*cluster)->GetWorker(dest).ShardForTest(shard);
  ASSERT_NE(source_shard, nullptr);
  ASSERT_NE(dest_shard, nullptr);
  EXPECT_EQ(source_shard->Info().live_points, dest_shard->Info().live_points);

  // Post-bootstrap writes reach both replicas through the normal fan-out.
  const auto probe = RandomPoints(1, 999, 777777);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(probe).ok());
  if ((*cluster)->Placement().ShardFor(probe[0].id) == shard) {
    EXPECT_TRUE(source_shard->Contains(probe[0].id));
    EXPECT_TRUE(dest_shard->Contains(probe[0].id));
  }
}

// Regression: a client delete-then-reupsert of one id while the joiner is
// streaming its snapshot reaches it only through WAL-tail replay. The tail
// delete must go over the migration plane (not the client delete path) —
// otherwise it marks the id touched on the joiner and the tail reupsert is
// skipped as "already dual-applied", silently losing the point. The reupsert
// carries payload metadata, which must also survive the replay.
TEST(ElasticBootstrapTest, DeleteThenReupsertInCatchUpWindowSurvives) {
  testing::TempDir dir("elastic_replay");
  auto cluster = LocalCluster::Start(ElasticConfig(2, 2, dir.Path()));
  ASSERT_TRUE(cluster.ok());
  const auto points = RandomPoints(80);
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  const ShardId shard = 0;
  const WorkerId source = (*cluster)->Placement().PrimaryOf(shard);
  const WorkerId dest = source == 0 ? 1 : 0;

  // A pre-existing point owned by the bootstrapped shard.
  PointId victim = kInvalidPointId;
  for (const auto& p : points) {
    if ((*cluster)->Placement().ShardFor(p.id) == shard) {
      victim = p.id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPointId);

  // Inject the delete-then-reupsert after the snapshot cursor was captured
  // but before the placement lists the joiner: both writes reach only the
  // source, so the joiner can learn them from the WAL tail alone.
  MigrationOptions options;
  options.page_points = 512;  // whole shard in one chunk: victim is on the joiner
  bool injected = false;
  const Payload meta{{"origin", PayloadValue{std::string("tail-replay")}}};
  const Vector replacement(kDim, 0.25f);
  options.on_chunk = [&](std::uint32_t) {
    if (injected) return;
    injected = true;
    ASSERT_TRUE((*cluster)->GetRouter().Delete(victim).ok());
    const std::vector<PointRecord> again{PointRecord{victim, replacement, meta}};
    ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(again).ok());
  };
  (*cluster)->SetMigrationOptions(options);

  auto result = (*cluster)->AddReplica(shard, source, dest);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_TRUE(injected);
  EXPECT_GE(result->wal_records, 2u);

  const auto* source_shard = (*cluster)->GetWorker(source).ShardForTest(shard);
  const auto* dest_shard = (*cluster)->GetWorker(dest).ShardForTest(shard);
  ASSERT_NE(source_shard, nullptr);
  ASSERT_NE(dest_shard, nullptr);
  EXPECT_TRUE(dest_shard->Contains(victim));
  // Cosine storage normalizes, so compare against the source's stored copy.
  auto vec = dest_shard->GetVector(victim);
  auto source_vec = source_shard->GetVector(victim);
  ASSERT_TRUE(vec.ok());
  ASSERT_TRUE(source_vec.ok());
  EXPECT_EQ(*vec, *source_vec);
  auto payload = dest_shard->GetPayload(victim);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, meta);
  EXPECT_EQ(source_shard->Info().live_points, dest_shard->Info().live_points);
}

// ---- Chaos: seeded worker kills mid-migration ------------------------------

// For every seed: a durable 2-worker cluster takes 200 acked points, a
// migration starts, and at a seeded copy-chunk boundary the source or the
// destination dies (StopWorker — the in-process SIGKILL; its WAL survives on
// disk). The migration must fail without cutover, the surviving topology must
// still serve every acked point exactly once, and after restarting the victim
// the retried migration must succeed — again exactly once. 25 seeds give the
// kill point good coverage of the copy window.
TEST(ElasticChaosTest, SeededWorkerKillMidMigrationSweep) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    testing::TempDir dir("elastic_chaos_" + std::to_string(seed));
    auto cluster = LocalCluster::Start(ElasticConfig(2, 4, dir.Path()));
    ASSERT_TRUE(cluster.ok());
    const auto points = RandomPoints(200, /*seed=*/7000 + seed);
    ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

    const ShardId shard = static_cast<ShardId>(seed % 4);
    const WorkerId from = (*cluster)->Placement().PrimaryOf(shard);
    const WorkerId to = from == 0 ? 1 : 0;
    const WorkerId victim = (seed % 2 == 0) ? to : from;
    const std::uint32_t kill_chunk = static_cast<std::uint32_t>(seed % 3);

    MigrationOptions options;
    options.page_points = 8;  // ~50 points per shard → several chunks
    options.max_attempts = 1;
    std::atomic<bool> killed{false};
    options.on_chunk = [&](std::uint32_t chunk) {
      if (chunk == kill_chunk && !killed.exchange(true)) {
        ASSERT_TRUE((*cluster)->StopWorker(victim).ok());
      }
    };
    (*cluster)->SetMigrationOptions(options);

    auto moved = (*cluster)->MigrateShard(shard, from, to);
    ASSERT_TRUE(killed.load());  // the kill point was inside the copy window
    ASSERT_FALSE(moved.ok());
    // No cutover happened and no dual-write window is left open.
    EXPECT_EQ((*cluster)->Placement().PrimaryOf(shard), from);
    EXPECT_FALSE((*cluster)->Migrations().AnyActive());

    // Durable WAL: the victim recovers its pre-kill state on restart. The
    // retried migration sweeps any partial copy on the destination
    // (MigrationBegin drops stale storage) before copying afresh.
    ASSERT_TRUE((*cluster)->RestartWorker(victim).ok());
    MigrationOptions clean;
    clean.page_points = 8;
    (*cluster)->SetMigrationOptions(clean);
    auto retried = (*cluster)->MigrateShard(shard, from, to);
    ASSERT_TRUE(retried.ok()) << retried.status().message();
    EXPECT_EQ((*cluster)->Placement().PrimaryOf(shard), to);
    VerifyExactlyOnce(**cluster, points, 200, /*probes=*/12);
  }
}

}  // namespace
}  // namespace vdb
