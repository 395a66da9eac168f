// One strictness battery over every persisted format. For each: every prefix
// truncation, one trailing byte, a lying value at each count field and a
// wrong magic must decode to Corruption and never throw. Values are lied
// about with the checksum recomputed, so the decoder's bounds — not the CRC —
// have to reject them, before anything is allocated from them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "index/hnsw_index.hpp"
#include "obs/snapshot.hpp"
#include "storage/crc32.hpp"
#include "storage/segment.hpp"
#include "storage/wal.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

using vdb::testing::TempDir;
using Bytes = std::vector<std::uint8_t>;

/// A count field: where it sits and how wide it is.
struct CountField {
  const char* name;
  std::size_t offset;
  std::size_t width;  // 4 or 8
};

Bytes ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::filesystem::path& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Formats whose last four bytes are the CRC32C of everything before them.
void ResealTrailer(Bytes& image) {
  const std::uint32_t crc = Crc32c(image.data(), image.size() - 4);
  std::memcpy(image.data() + image.size() - 4, &crc, 4);
}

/// One byte after the last field, inside the CRC trailer.
void AddByteBeforeTrailer(Bytes& image) {
  image.insert(image.end() - 4, 0);
  ResealTrailer(image);
}

SegmentData TwoPoints() {
  SegmentData data;
  data.dim = 3;
  data.metric = Metric::kL2;
  data.ids = {7, 9};
  data.vectors = {1.0F, -2.0F, 0.5F, 4.0F, 0.0F, 3.0F};
  return data;
}

// ---- The six formats -------------------------------------------------------

/// One WAL frame holding an upsert with a payload:
/// [crc u32][length u32][type u8][id u64][dim u32][dim x f32][payload blob].
/// Replay delivers a frame intact or drops it as a torn tail; a dropped frame
/// counts as rejected. The frame has no magic.
struct WalRecordFormat {
  static Bytes Image() {
    TempDir dir("strict_wal_image");
    const auto path = dir.Path() / "wal.log";
    auto writer = WalWriter::Open(path);
    EXPECT_TRUE(writer.ok());
    EXPECT_TRUE(writer
                    ->AppendUpsert(7, Vector{1.0F, -2.0F, 0.5F},
                                   {{"k", std::int64_t{5}}, {"s", std::string("ab")}})
                    .ok());
    EXPECT_TRUE(writer->Sync().ok());
    return ReadAll(path);
  }
  /// The CRC covers the `length` bytes after the header, or as many of them
  /// as the image holds.
  static void Reseal(Bytes& image) {
    std::uint32_t length = 0;
    std::memcpy(&length, image.data() + 4, 4);
    const std::size_t covered = std::min<std::size_t>(length, image.size() - 8);
    const std::uint32_t crc = Crc32c(image.data() + 8, covered);
    std::memcpy(image.data(), &crc, 4);
  }
  /// One byte after the payload blob, inside the frame's length and CRC.
  static void AddTrailingByte(Bytes& image) {
    image.push_back(0);
    const auto length = static_cast<std::uint32_t>(image.size() - 8);
    std::memcpy(image.data() + 4, &length, 4);
    Reseal(image);
  }
  static std::vector<CountField> Counts() {
    // 9 header bytes, then the id; the blob follows the three floats at 33.
    return {{"frame length", 4, 4},
            {"dim", 17, 4},
            {"payload fields", 33, 4},
            {"first key length", 37, 4}};
  }
  static std::optional<std::size_t> MagicOffset() { return std::nullopt; }
  static Status Decode(const Bytes& image) {
    TempDir dir("strict_wal");
    const auto path = dir.Path() / "wal.log";
    WriteAll(path, image);
    auto replayed = WalReader::Replay(path, [](const WalRecord& record) -> Status {
      if (record.type != WalRecordType::kUpsert) {
        return Status::Corruption("not an upsert");
      }
      return DecodeUpsertPayload(record.payload).status();
    });
    if (!replayed.ok()) return replayed.status();
    return *replayed == 1 ? Status::Ok() : Status::Corruption("frame dropped");
  }
};

/// A segment file read back with ReadSegment.
struct SegmentFormat {
  static Bytes Image() {
    TempDir dir("strict_segment_image");
    EXPECT_TRUE(WriteSegment(dir.Path() / "s.vdb", TwoPoints()).ok());
    return ReadAll(dir.Path() / "s.vdb");
  }
  static void Reseal(Bytes& image) { ResealTrailer(image); }
  static void AddTrailingByte(Bytes& image) { AddByteBeforeTrailer(image); }
  static std::vector<CountField> Counts() {
    return {{"dim", 8, 4}, {"count", 16, 8}};
  }
  static std::optional<std::size_t> MagicOffset() { return 0; }
  static Status Decode(const Bytes& image) {
    TempDir dir("strict_segment");
    WriteAll(dir.Path() / "s.vdb", image);
    return ReadSegment(dir.Path() / "s.vdb").status();
  }
};

/// An SQ8 code segment opened with MappedCodeSegment::Open.
struct CodeSegmentFormat {
  static Bytes Image() {
    TempDir dir("strict_codes_image");
    CodeSegmentData data;
    data.dim = 4;
    data.block_rows = 4;
    data.count = 3;
    data.dim_min = {0.0F, -1.0F, 2.0F, 0.5F};
    data.dim_scale = {0.5F, 0.25F, 1.0F, 2.0F};
    data.norms = {1.0F, 2.0F, 3.0F};
    data.blocks = {1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 0, 1, 3, 5, 0};
    EXPECT_TRUE(WriteCodeSegment(dir.Path() / "c.vdbq", data).ok());
    return ReadAll(dir.Path() / "c.vdbq");
  }
  static void Reseal(Bytes& image) { ResealTrailer(image); }
  static void AddTrailingByte(Bytes& image) { AddByteBeforeTrailer(image); }
  static std::vector<CountField> Counts() {
    return {{"dim", 8, 4}, {"block_rows", 12, 4}, {"count", 16, 8}};
  }
  static std::optional<std::size_t> MagicOffset() { return 0; }
  static Status Decode(const Bytes& image) {
    TempDir dir("strict_codes");
    WriteAll(dir.Path() / "c.vdbq", image);
    return MappedCodeSegment::Open(dir.Path() / "c.vdbq").status();
  }
};

/// An HNSW graph loaded into an index over the store it was built from.
struct HnswGraphFormat {
  static const VectorStore& Store() {
    static const VectorStore* store = [] {
      auto* s = new VectorStore(2, Metric::kL2);
      const float coords[][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 2}};
      for (PointId id = 0; id < 5; ++id) {
        if (!s->Add(id, Vector{coords[id][0], coords[id][1]}).ok()) std::abort();
      }
      return s;
    }();
    return *store;
  }
  static HnswParams Params() {
    HnswParams params;
    params.m = 2;
    params.m0 = 4;
    params.ef_construction = 8;
    params.build_threads = 1;
    return params;
  }
  static Bytes Image() {
    HnswIndex index(Store(), Params());
    EXPECT_TRUE(index.Build().ok());
    std::stringstream out;
    EXPECT_TRUE(index.SaveToStream(out).ok());
    const std::string bytes = out.str();
    return Bytes(bytes.begin(), bytes.end());
  }
  static void Reseal(Bytes& image) { ResealTrailer(image); }
  static void AddTrailingByte(Bytes& image) { AddByteBeforeTrailer(image); }
  static std::vector<CountField> Counts() {
    // The header is 32 bytes; the first node is [offset][level][degree]...
    return {{"node_count", 16, 8}, {"level", 36, 4}, {"layer-0 degree", 40, 4}};
  }
  static std::optional<std::size_t> MagicOffset() { return 0; }
  static Status Decode(const Bytes& image) {
    HnswIndex index(Store(), Params());
    std::stringstream in(std::string(image.begin(), image.end()));
    return index.LoadFromStream(in);
  }
};

/// A metrics snapshot blob: one counter, one gauge, one span.
struct MetricsSnapshotFormat {
  static Bytes Image() {
    obs::MetricsSnapshot snapshot;
    snapshot.worker = 3;
    snapshot.counters["c"] = 5;
    snapshot.gauges["g"] = obs::GaugeSnapshot{1, 4, 2};
    snapshot.spans["s"].Record(10.0);
    return obs::EncodeMetricsSnapshot(snapshot);
  }
  static void Reseal(Bytes&) {}
  static void AddTrailingByte(Bytes& image) { image.push_back(0); }
  static std::vector<CountField> Counts() {
    // magic 4, version 1, worker 4, pid 4, epoch 8 = 21 bytes, then:
    // counters [n][len]"c"[u64] = 38, gauges [n][len]"g"[3 x i64] = 71,
    // spans [n][len]"s"[count][sum][min][max] = 112, [layout][n buckets].
    return {{"counters", 21, 4},        {"counter name length", 25, 4},
            {"gauges", 38, 4},          {"gauge name length", 42, 4},
            {"spans", 71, 4},           {"span name length", 75, 4},
            {"span bucket layout", 112, 4}, {"span buckets", 116, 4}};
  }
  static std::optional<std::size_t> MagicOffset() { return 0; }
  static Status Decode(const Bytes& image) {
    return obs::DecodeMetricsSnapshot(image).status();
  }
};

/// A stateless shard object (the segment layout, held in memory).
struct ShardObjectFormat {
  static Bytes Image() { return EncodeSegment(TwoPoints()); }
  static void Reseal(Bytes& image) { ResealTrailer(image); }
  static void AddTrailingByte(Bytes& image) { AddByteBeforeTrailer(image); }
  static std::vector<CountField> Counts() {
    return {{"dim", 8, 4}, {"count", 16, 8}};
  }
  static std::optional<std::size_t> MagicOffset() { return 0; }
  static Status Decode(const Bytes& image) {
    return DecodeSegment(image).status();
  }
};

// ---- The battery -----------------------------------------------------------

template <class Format>
class FormatStrictnessTest : public ::testing::Test {
 protected:
  /// Decodes `image`, turning a throw into a test failure.
  static Status DecodeNoThrow(const Bytes& image, const std::string& what) {
    try {
      return Format::Decode(image);
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": decoder threw " << e.what();
    } catch (...) {
      ADD_FAILURE() << what << ": decoder threw";
    }
    return Status::Internal("threw");
  }

  static void ExpectCorruption(const Bytes& image, const std::string& what) {
    const Status status = DecodeNoThrow(image, what);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << what << ": " << status.ToString();
  }
};

using Formats =
    ::testing::Types<WalRecordFormat, SegmentFormat, CodeSegmentFormat,
                     HnswGraphFormat, MetricsSnapshotFormat, ShardObjectFormat>;
TYPED_TEST_SUITE(FormatStrictnessTest, Formats);

TYPED_TEST(FormatStrictnessTest, IntactImageDecodes) {
  const Bytes image = TypeParam::Image();
  ASSERT_FALSE(image.empty());
  EXPECT_TRUE(this->DecodeNoThrow(image, "intact").ok());
}

TYPED_TEST(FormatStrictnessTest, EveryPrefixTruncationIsCorruption) {
  const Bytes image = TypeParam::Image();
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    this->ExpectCorruption(Bytes(image.begin(), image.begin() + cut),
                           "cut at " + std::to_string(cut));
  }
}

TYPED_TEST(FormatStrictnessTest, OneTrailingByteIsCorruption) {
  Bytes image = TypeParam::Image();
  TypeParam::AddTrailingByte(image);
  this->ExpectCorruption(image, "trailing byte");
}

TYPED_TEST(FormatStrictnessTest, LyingCountIsCorruption) {
  const Bytes image = TypeParam::Image();
  for (const CountField& field : TypeParam::Counts()) {
    ASSERT_LE(field.offset + field.width, image.size()) << field.name;
    std::uint64_t actual = 0;
    std::memcpy(&actual, image.data() + field.offset, field.width);
    const std::uint64_t top = field.width == 4 ? 0xFFFFFFFFull : ~0ull;
    // Values no image this small can hold. (A count off by one can still be
    // a self-consistent encoding of other data, so it is not a lie to catch.)
    std::vector<std::uint64_t> lies = {top, top / 4};
    if (field.width == 8) {
      lies.push_back((1ull << 40) + actual);
      // With dim 4 this wraps a 64-bit byte size back to the true one.
      lies.push_back((1ull << 62) + actual);
    }
    for (const std::uint64_t lie : lies) {
      Bytes bad = image;
      std::memcpy(bad.data() + field.offset, &lie, field.width);
      TypeParam::Reseal(bad);
      this->ExpectCorruption(bad, std::string(field.name) + " = " + std::to_string(lie));
    }
  }
}

TYPED_TEST(FormatStrictnessTest, WrongMagicIsCorruption) {
  const auto offset = TypeParam::MagicOffset();
  if (!offset) GTEST_SKIP() << "format carries no magic";
  Bytes image = TypeParam::Image();
  image[*offset] ^= 0x20;
  TypeParam::Reseal(image);
  this->ExpectCorruption(image, "wrong magic");
}

}  // namespace
}  // namespace vdb
