#include "storage/segment.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "storage/crc32.hpp"
#include "storage/snapshot.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

using vdb::testing::TempDir;

SegmentData MakeSegment(std::uint32_t dim, std::size_t count) {
  SegmentData data;
  data.dim = dim;
  data.metric = Metric::kCosine;
  Rng rng(4);
  for (std::size_t i = 0; i < count; ++i) {
    data.ids.push_back(i * 10);
    for (std::uint32_t d = 0; d < dim; ++d) {
      data.vectors.push_back(static_cast<Scalar>(rng.NextGaussian()));
    }
  }
  return data;
}

TEST(SegmentTest, WriteReadRoundTrip) {
  TempDir dir("segment");
  const auto path = dir.Path() / "seg0.vdb";
  const SegmentData original = MakeSegment(8, 100);
  ASSERT_TRUE(WriteSegment(path, original).ok());

  auto loaded = ReadSegment(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dim, 8u);
  EXPECT_EQ(loaded->metric, Metric::kCosine);
  EXPECT_EQ(loaded->ids, original.ids);
  EXPECT_EQ(loaded->vectors, original.vectors);
}

TEST(SegmentTest, EmptySegmentRoundTrip) {
  TempDir dir("segment");
  const auto path = dir.Path() / "empty.vdb";
  SegmentData data;
  data.dim = 16;
  ASSERT_TRUE(WriteSegment(path, data).ok());
  auto loaded = ReadSegment(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Count(), 0u);
}

TEST(SegmentTest, MismatchedSizesRejectedOnWrite) {
  TempDir dir("segment");
  SegmentData data = MakeSegment(8, 10);
  data.vectors.pop_back();
  EXPECT_EQ(WriteSegment(dir.Path() / "bad.vdb", data).code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentTest, MissingFileIsNotFound) {
  TempDir dir("segment");
  EXPECT_EQ(ReadSegment(dir.Path() / "nope.vdb").status().code(),
            StatusCode::kNotFound);
}

TEST(SegmentTest, CorruptedBytesDetected) {
  TempDir dir("segment");
  const auto path = dir.Path() / "seg.vdb";
  ASSERT_TRUE(WriteSegment(path, MakeSegment(8, 50)).ok());
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(100);
    const char garbage = 'X';
    file.write(&garbage, 1);
  }
  EXPECT_EQ(ReadSegment(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(VerifySegment(path).code(), StatusCode::kCorruption);
}

TEST(SegmentTest, TruncatedFileDetected) {
  TempDir dir("segment");
  const auto path = dir.Path() / "seg.vdb";
  ASSERT_TRUE(WriteSegment(path, MakeSegment(8, 50)).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_EQ(ReadSegment(path).status().code(), StatusCode::kCorruption);
}

TEST(SegmentTest, LyingCountIsCorruptionNotAnAllocation) {
  TempDir dir("segment");
  const auto path = dir.Path() / "seg.vdb";
  ASSERT_TRUE(WriteSegment(path, MakeSegment(8, 2)).ok());
  {
    // Header bytes 16-23 hold the point count; claim 2^40 points.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t lie = std::uint64_t{1} << 40;
    file.seekp(16);
    file.write(reinterpret_cast<const char*>(&lie), sizeof(lie));
  }
  EXPECT_EQ(ReadSegment(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(VerifySegment(path).code(), StatusCode::kCorruption);
}

TEST(SegmentTest, BadMagicDetected) {
  TempDir dir("segment");
  const auto path = dir.Path() / "seg.vdb";
  {
    std::ofstream out(path, std::ios::binary);
    const std::string junk(64, 'z');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_EQ(ReadSegment(path).status().code(), StatusCode::kCorruption);
}

TEST(SegmentTest, VerifyPassesOnIntactFile) {
  TempDir dir("segment");
  const auto path = dir.Path() / "seg.vdb";
  ASSERT_TRUE(WriteSegment(path, MakeSegment(4, 200)).ok());
  EXPECT_TRUE(VerifySegment(path).ok());
}

TEST(SegmentTest, RowAtReturnsCorrectSlice) {
  const SegmentData data = MakeSegment(4, 10);
  const VectorView row = data.RowAt(3);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_FLOAT_EQ(row[0], data.vectors[12]);
}

TEST(ManifestTest, RoundTrip) {
  TempDir dir("manifest");
  const auto path = dir.Path() / "MANIFEST";
  SnapshotManifest manifest;
  manifest.sequence = 7;
  manifest.dim = 2560;
  manifest.metric = "cosine";
  manifest.segment_files = {"segment_0.vdb", "segment_1.vdb"};
  manifest.wal_records_applied = 12345;
  ASSERT_TRUE(WriteManifest(path, manifest).ok());

  auto loaded = ReadManifest(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->sequence, 7u);
  EXPECT_EQ(loaded->dim, 2560u);
  EXPECT_EQ(loaded->metric, "cosine");
  EXPECT_EQ(loaded->segment_files, manifest.segment_files);
  EXPECT_EQ(loaded->wal_records_applied, 12345u);
}

TEST(ManifestTest, MissingFileIsNotFound) {
  TempDir dir("manifest");
  EXPECT_EQ(ReadManifest(dir.Path() / "MANIFEST").status().code(),
            StatusCode::kNotFound);
}

TEST(ManifestTest, TamperedManifestDetected) {
  TempDir dir("manifest");
  const auto path = dir.Path() / "MANIFEST";
  SnapshotManifest manifest;
  manifest.sequence = 1;
  manifest.dim = 8;
  ASSERT_TRUE(WriteManifest(path, manifest).ok());
  {
    std::fstream file(path, std::ios::in | std::ios::out);
    file.seekp(9);  // inside "sequence=1"
    file.write("9", 1);
  }
  EXPECT_EQ(ReadManifest(path).status().code(), StatusCode::kCorruption);
}

TEST(ManifestTest, MissingCrcDetected) {
  TempDir dir("manifest");
  const auto path = dir.Path() / "MANIFEST";
  {
    std::ofstream out(path);
    out << "sequence=1\ndim=8\nmetric=l2\nwal_records_applied=0\n";
  }
  EXPECT_EQ(ReadManifest(path).status().code(), StatusCode::kCorruption);
}

TEST(ManifestTest, GarbledNumberIsCorruptionNotAThrow) {
  TempDir dir("manifest");
  const auto path = dir.Path() / "MANIFEST";
  // Each body carries a correct CRC, so only the number parse can reject it.
  for (const std::string line :
       {"dim=x12", "dim=12x", "dim=", "dim=-1", "dim=4294967296",
        "sequence=99999999999999999999", "wal_start_record=1e3"}) {
    const std::string body = "sequence=1\nmetric=l2\n" + line + "\n";
    {
      std::ofstream out(path, std::ios::trunc);
      out << body << "crc=" << Crc32c(body.data(), body.size()) << "\n";
    }
    Result<SnapshotManifest> read = Status::Internal("not read");
    EXPECT_NO_THROW(read = ReadManifest(path)) << line;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption) << line;
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << "sequence=1\ncrc=abc\n";
  }
  Result<SnapshotManifest> read = Status::Internal("not read");
  EXPECT_NO_THROW(read = ReadManifest(path));
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST(ManifestTest, OverwriteIsAtomicSequenceAdvance) {
  TempDir dir("manifest");
  const auto path = dir.Path() / "MANIFEST";
  SnapshotManifest manifest;
  manifest.sequence = 1;
  manifest.dim = 8;
  ASSERT_TRUE(WriteManifest(path, manifest).ok());
  manifest.sequence = 2;
  manifest.segment_files.push_back("segment_0.vdb");
  ASSERT_TRUE(WriteManifest(path, manifest).ok());
  auto loaded = ReadManifest(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->sequence, 2u);
  EXPECT_EQ(loaded->segment_files.size(), 1u);
}

}  // namespace
}  // namespace vdb
