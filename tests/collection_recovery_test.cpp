#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>

#include "collection/collection.hpp"
#include "storage/crc32.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

using vdb::testing::TempDir;

CollectionConfig DurableConfig(const std::filesystem::path& dir) {
  CollectionConfig config;
  config.dim = 8;
  config.metric = Metric::kCosine;
  config.index.type = "hnsw";
  config.index.hnsw.m = 8;
  config.index.hnsw.build_threads = 1;
  config.data_dir = dir;
  return config;
}

std::vector<PointRecord> RandomPoints(std::size_t count, std::uint64_t seed = 3) {
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

TEST(CollectionRecoveryTest, WalReplayRestoresPoints) {
  TempDir dir("recover_wal");
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(50)).ok());
    ASSERT_TRUE((*collection)->Delete(5).ok());
    // No Flush(): everything lives only in the WAL.
  }
  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count(), 49u);
  EXPECT_FALSE((*reopened)->Contains(5));
  EXPECT_TRUE((*reopened)->Contains(42));
}

TEST(CollectionRecoveryTest, VectorsSurviveRecoveryExactly) {
  TempDir dir("recover_exact");
  const auto points = RandomPoints(20);
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(points).ok());
  }
  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  for (const auto& point : points) {
    auto stored = (*reopened)->GetVector(point.id);
    ASSERT_TRUE(stored.ok());
    // Store normalizes under cosine; compare direction.
    Vector expected = point.vector;
    NormalizeInPlace(expected);
    for (std::size_t d = 0; d < 8; ++d) {
      EXPECT_NEAR((*stored)[d], expected[d], 1e-5);
    }
  }
}

TEST(CollectionRecoveryTest, FlushThenRecoverUsesSegments) {
  TempDir dir("recover_seg");
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(80)).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
    const CollectionInfo info = (*collection)->Info();
    EXPECT_EQ(info.segments_flushed, 1u);
  }
  ASSERT_TRUE(std::filesystem::exists(dir.Path() / "MANIFEST"));
  ASSERT_TRUE(std::filesystem::exists(dir.Path() / "segment_0.vdb"));

  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count(), 80u);
}

TEST(CollectionRecoveryTest, WritesAfterFlushAlsoRecovered) {
  TempDir dir("recover_mixed");
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(40)).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
    // Post-flush writes land only in the WAL tail.
    auto tail = RandomPoints(10, 99);
    for (auto& record : tail) record.id += 1000;
    ASSERT_TRUE((*collection)->UpsertBatch(tail).ok());
    ASSERT_TRUE((*collection)->Delete(3).ok());
  }
  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count(), 49u);
  EXPECT_TRUE((*reopened)->Contains(1005));
  EXPECT_FALSE((*reopened)->Contains(3));
}

TEST(CollectionRecoveryTest, DoubleFlushDoesNotDuplicate) {
  TempDir dir("recover_twoflush");
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(30)).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
    auto more = RandomPoints(10, 7);
    for (auto& record : more) record.id += 500;
    ASSERT_TRUE((*collection)->UpsertBatch(more).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
    EXPECT_EQ((*collection)->Info().segments_flushed, 2u);
  }
  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count(), 40u);
}

std::vector<char> FileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// A batch is framed before the collection's lock and logged with one write;
// the log must still be the per-point record stream, record by record.
TEST(CollectionRecoveryTest, BatchWalMatchesPerPointAppendsAndReplays) {
  TempDir dir("batch_wal");
  auto points = RandomPoints(10);
  points[3].payload["topic"] = std::int64_t{3};
  {
    auto collection = Collection::Open(DurableConfig(dir.Path() / "c"));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(points).ok());
    EXPECT_EQ((*collection)->WalRecordCount(), points.size());
    // A tail read starting inside the batch begins at that record.
    auto tail = (*collection)->ReadWalTail(4, 3);
    ASSERT_TRUE(tail.ok());
    ASSERT_EQ(tail->records.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      auto decoded = DecodeUpsertPayload(tail->records[i].payload);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->id, points[4 + i].id);
    }
  }
  {
    auto writer = WalWriter::Open(dir.Path() / "expected.log");
    ASSERT_TRUE(writer.ok());
    for (const auto& point : points) {
      ASSERT_TRUE(writer->AppendUpsert(point.id, point.vector, point.payload).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
  }
  EXPECT_EQ(FileBytes(dir.Path() / "c" / "wal.log"), FileBytes(dir.Path() / "expected.log"));

  auto reopened = Collection::Open(DurableConfig(dir.Path() / "c"));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count(), points.size());
  auto payload = (*reopened)->GetPayload(3);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(std::get<std::int64_t>((*payload)["topic"]), 3);
}

TEST(CollectionRecoveryTest, TornWalTailRecoversPrefix) {
  TempDir dir("recover_torn");
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(25)).ok());
  }
  // Simulate a crash mid-append: chop bytes off the WAL tail.
  const auto wal_path = dir.Path() / "wal.log";
  const auto size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 7);

  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count(), 24u);  // last record lost, prefix intact
}

TEST(CollectionRecoveryTest, DimMismatchRefusesToOpen) {
  TempDir dir("recover_dim");
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(10)).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
  }
  CollectionConfig wrong = DurableConfig(dir.Path());
  wrong.dim = 16;
  EXPECT_FALSE(Collection::Open(wrong).ok());
}

TEST(CollectionRecoveryTest, RecoveredCollectionIsSearchable) {
  TempDir dir("recover_search");
  const auto points = RandomPoints(120);
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(points).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
  }
  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  SearchParams params;
  params.k = 5;
  params.ef_search = 64;
  auto hits = (*reopened)->Search(points[7].vector, params);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ((*hits)[0].id, 7u);
}

TEST(CollectionRecoveryTest, PersistedHnswGraphSkipsRebuild) {
  TempDir dir("recover_graph");
  const auto points = RandomPoints(200);
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(points).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
  }
  // The manifest names the persisted graph.
  auto manifest = ReadManifest(dir.Path() / "MANIFEST");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->hnsw_graph_file, "graph.hnsw");
  EXPECT_TRUE(std::filesystem::exists(dir.Path() / "graph.hnsw"));

  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  // Every recovered point is already indexed from the loaded graph.
  EXPECT_EQ((*reopened)->PendingIndexCount(), 0u);
  EXPECT_TRUE((*reopened)->Info().index_ready);

  SearchParams params;
  params.k = 1;
  params.ef_search = 64;
  auto hits = (*reopened)->Search(points[11].vector, params);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ((*hits)[0].id, 11u);
}

TEST(CollectionRecoveryTest, GraphNotPersistedWithTombstones) {
  TempDir dir("recover_graph_del");
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(60)).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
    ASSERT_TRUE(std::filesystem::exists(dir.Path() / "graph.hnsw"));
    // A deletion invalidates the offset mapping: the next flush must drop
    // the persisted graph.
    ASSERT_TRUE((*collection)->Delete(5).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
  }
  auto manifest = ReadManifest(dir.Path() / "MANIFEST");
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->hnsw_graph_file.empty());
  EXPECT_FALSE(std::filesystem::exists(dir.Path() / "graph.hnsw"));

  // Recovery still works via rebuild.
  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count(), 59u);
}

TEST(CollectionRecoveryTest, WalTailIndexedOnTopOfLoadedGraph) {
  TempDir dir("recover_graph_tail");
  const auto points = RandomPoints(100);
  {
    auto collection = Collection::Open(DurableConfig(dir.Path()));
    ASSERT_TRUE(collection.ok());
    ASSERT_TRUE((*collection)->UpsertBatch(points).ok());
    ASSERT_TRUE((*collection)->Flush().ok());
    // Tail after the flush: in the WAL only, absent from the graph file.
    auto tail = RandomPoints(20, 5);
    for (auto& record : tail) record.id += 2000;
    ASSERT_TRUE((*collection)->UpsertBatch(tail).ok());
  }
  auto reopened = Collection::Open(DurableConfig(dir.Path()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Count(), 120u);
  EXPECT_EQ((*reopened)->PendingIndexCount(), 0u);  // tail indexed incrementally

  auto tail_vector = (*reopened)->GetVector(2003);
  ASSERT_TRUE(tail_vector.ok());
  SearchParams params;
  params.k = 1;
  params.ef_search = 128;
  auto hits = (*reopened)->Search(*tail_vector, params);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ((*hits)[0].id, 2003u);
}

/// Overwrites `width` bytes at `offset` of a file that ends in the CRC32C of
/// everything before it, and recomputes that CRC: only the decoder's bounds
/// can reject the lie.
void LieInSealedFile(const std::filesystem::path& path, std::size_t offset,
                     std::uint64_t value, std::size_t width) {
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GE(bytes.size(), offset + width + 4);
  std::memcpy(bytes.data() + offset, &value, width);
  const std::uint32_t crc = Crc32c(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Top-5 ids of a few stored points, searched exhaustively (ef over the
/// point count), so a rebuilt index answers exactly as a fresh one.
std::vector<std::vector<PointId>> TopIds(const Collection& collection,
                                         const std::vector<PointRecord>& points) {
  SearchParams params;
  params.k = 5;
  params.ef_search = 256;
  std::vector<std::vector<PointId>> out;
  for (std::size_t i = 0; i < points.size(); i += 37) {
    auto hits = collection.Search(points[i].vector, params);
    EXPECT_TRUE(hits.ok());
    out.emplace_back();
    for (const auto& hit : *hits) out.back().push_back(hit.id);
  }
  return out;
}

TEST(CollectionRecoveryTest, LyingGraphAndCodesFallBackToRebuild) {
  const auto points = RandomPoints(200);
  CollectionConfig sq8 = DurableConfig({});
  sq8.index.type = "flat";
  sq8.index.quantization = "sq8";

  for (CollectionConfig config : {DurableConfig({}), sq8}) {
    TempDir dir("recover_lying_" + config.index.type);
    config.data_dir = dir.Path();
    {
      auto collection = Collection::Open(config);
      ASSERT_TRUE(collection.ok());
      ASSERT_TRUE((*collection)->UpsertBatch(points).ok());
      ASSERT_TRUE((*collection)->BuildIndex().ok());
      ASSERT_TRUE((*collection)->Flush().ok());
    }
    if (config.index.type == "hnsw") {
      // The first node's layer-0 degree: after the 32-byte header and the
      // node's offset and level.
      LieInSealedFile(dir.Path() / "graph.hnsw", 40, 0xFFFFFFFFu, 4);
    } else {
      // count + 2^62 wraps a size computed in 64 bits back to the true size.
      std::uint64_t count = 0;
      std::ifstream(dir.Path() / "codes.sq8", std::ios::binary)
          .seekg(16)
          .read(reinterpret_cast<char*>(&count), 8);
      ASSERT_EQ(count, points.size());
      LieInSealedFile(dir.Path() / "codes.sq8", 16, count + (1ULL << 62), 8);
    }

    Result<std::unique_ptr<Collection>> reopened = Status::Internal("not opened");
    ASSERT_NO_THROW(reopened = Collection::Open(config)) << config.index.type;
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->PendingIndexCount(), 0u);

    CollectionConfig fresh_config = config;
    fresh_config.data_dir.clear();
    auto fresh = Collection::Open(fresh_config);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE((*fresh)->UpsertBatch(points).ok());
    ASSERT_TRUE((*fresh)->BuildIndex().ok());
    EXPECT_EQ(TopIds(**reopened, points), TopIds(**fresh, points)) << config.index.type;
  }
}

TEST(CollectionRecoveryTest, InMemoryModeFlushIsNoop) {
  CollectionConfig config;
  config.dim = 8;
  config.index.hnsw.build_threads = 1;
  auto collection = Collection::Open(config);
  ASSERT_TRUE(collection.ok());
  ASSERT_TRUE((*collection)->UpsertBatch(RandomPoints(5)).ok());
  EXPECT_TRUE((*collection)->Flush().ok());
  EXPECT_EQ((*collection)->Info().segments_flushed, 0u);
  EXPECT_EQ((*collection)->Info().wal_bytes, 0u);
}

}  // namespace
}  // namespace vdb
