// Golden file bytes: every persisted format other than the WAL (pinned by
// WalTest.FrameBytesMatchGolden) written from a small fixed input and
// compared as hex. Any change to a field, a width, an order or the CRC shows
// up here as a byte diff — the on-disk formats only change on purpose.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "index/hnsw_index.hpp"
#include "obs/snapshot.hpp"
#include "storage/segment.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

using vdb::testing::TempDir;

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  std::string hex;
  for (const std::uint8_t b : bytes) {
    hex += "0123456789abcdef"[b >> 4];
    hex += "0123456789abcdef"[b & 15];
  }
  return hex;
}

std::string FileHex(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Hex(std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {}));
}

SegmentData TwoPoints() {
  SegmentData data;
  data.dim = 2;
  data.metric = Metric::kL2;
  data.ids = {7, 9};
  data.vectors = {1.0F, -2.0F, 0.5F, 4.0F};
  return data;
}

TEST(FormatGoldenTest, Segment) {
  TempDir dir("golden_segment");
  const auto path = dir.Path() / "segment_0.vdb";
  ASSERT_TRUE(WriteSegment(path, TwoPoints()).ok());
  EXPECT_EQ(FileHex(path),
            "5342445601000000020000000000000002000000000000000700000000000000"
            "09000000000000000000803f000000c00000003f00008040b06f16ce");
}

TEST(FormatGoldenTest, CodeSegment) {
  TempDir dir("golden_codes");
  const auto path = dir.Path() / "codes.vdbq";
  CodeSegmentData data;
  data.dim = 2;
  data.block_rows = 4;
  data.count = 3;
  data.dim_min = {0.0F, -1.0F};
  data.dim_scale = {0.5F, 0.25F};
  data.norms = {1.0F, 2.0F, 3.0F};
  data.blocks = {1, 2, 3, 0, 4, 5, 6, 0};
  ASSERT_TRUE(WriteCodeSegment(path, data).ok());
  EXPECT_EQ(FileHex(path),
            "51424456010000000200000004000000030000000000000000000000000080bf"
            "0000003f0000803e0000803f00000040000040400102030004050600cb80dd26");
}

TEST(FormatGoldenTest, HnswGraph) {
  VectorStore store(2, Metric::kL2);
  const float coords[][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 2}, {-1, 3}};
  for (PointId id = 0; id < 6; ++id) {
    ASSERT_TRUE(store.Add(id, Vector{coords[id][0], coords[id][1]}).ok());
  }
  HnswParams params;
  params.m = 2;
  params.m0 = 4;
  params.ef_construction = 8;
  params.build_threads = 1;
  HnswIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());
  std::stringstream out;
  ASSERT_TRUE(index.SaveToStream(out).ok());
  const std::string bytes = out.str();
  EXPECT_EQ(Hex(std::vector<std::uint8_t>(bytes.begin(), bytes.end())),
            "4842445601000000020000000400000006000000000000000000000004000000"
            "0000000004000000020000000100000002000000020000000100000002000000"
            "0100000004000000010000000400000001000000040000000100000001000000"
            "0400000000000000020000000300000004000000020000000000000003000000"
            "0200000001000000030000000000000003000000050000000200000000000000"
            "0300000003000000010000000300000001000000020000000400000002000000"
            "0200000001000000040000000400000001000000030000000200000003000000"
            "0100000001000000000000000100000000000000010000000000000005000000"
            "0100000004000000020000000300000004000000000000000200000002000000"
            "030000009e2066b9");
}

TEST(FormatGoldenTest, MetricsSnapshot) {
  obs::MetricsSnapshot snapshot;
  snapshot.worker = 3;
  snapshot.pid = 77;
  snapshot.epoch_unix_seconds = 1.5;
  snapshot.counters["rpc.calls"] = 5;
  snapshot.gauges["queue"] = obs::GaugeSnapshot{1, 4, -2};
  LatencyHistogram hist;
  hist.Record(10.0);
  hist.Record(10.0);
  hist.Record(2500.0);
  snapshot.spans.emplace("worker.search", hist);
  EXPECT_EQ(Hex(obs::EncodeMetricsSnapshot(snapshot)),
            "5644424d01030000004d000000000000000000f83f0100000009000000727063"
            "2e63616c6c730500000000000000010000000500000071756575650100000000"
            "0000000400000000000000feffffffffffffff010000000d000000776f726b65"
            "722e73656172636803000000000000000000000000b0a3400000000000002440"
            "000000000088a340800100000200000020000000020000000000000065000000"
            "0100000000000000");
}

TEST(FormatGoldenTest, ShardObject) {
  // The same layout as a segment file, held in the object store.
  EXPECT_EQ(Hex(EncodeSegment(TwoPoints())),
            "5342445601000000020000000000000002000000000000000700000000000000"
            "09000000000000000000803f000000c00000003f00008040b06f16ce");
}

}  // namespace
}  // namespace vdb
