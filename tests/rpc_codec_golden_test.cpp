// Golden wire bytes: the exact type tag and body of every RPC message, pinned
// as hex. Any change to a field list, a field width or a layout shows up here
// as a byte diff — the wire format only changes on purpose.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/codec.hpp"

namespace vdb {
namespace {

std::string Hex(const rpc::Buffer& body) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(body.size() * 2);
  for (std::size_t i = 0; i < body.size(); ++i) {
    out.push_back(kDigits[body.data()[i] >> 4]);
    out.push_back(kDigits[body.data()[i] & 0xF]);
  }
  return out;
}

PointRecord MakePoint(PointId id, Payload payload) {
  PointRecord point;
  point.id = id;
  point.vector = {0.5F, -1.0F, static_cast<Scalar>(id)};
  point.payload = std::move(payload);
  return point;
}

TraceWireSpan FullSpan() {
  TraceWireSpan span;
  span.name = "worker.search_local";
  span.trace_id = 7;
  span.span_id = (5ULL << 40) + 2;
  span.parent_id = 11;
  span.worker = 3;
  span.node = 1;
  span.shard = 6;
  span.thread_id = 0xDEADBEEF;
  span.pid = 9999;
  span.start_seconds = 1.5;
  span.duration_seconds = 0.25;
  return span;
}

struct Golden {
  const char* name;
  Message msg;
  int type;
  const char* hex;
};

std::vector<Golden> Cases() {
  const std::vector<PointRecord> points = {
      MakePoint(7, {{"topic", std::int64_t{3}}, {"title", std::string("ab")}}),
      MakePoint(9, {}),
  };
  SearchParams params;
  params.k = 5;
  params.ef_search = 99;
  params.n_probes = 4;
  Filter filter;
  filter.field = "src";
  filter.value = std::string("p3");
  const Vector first = {1.0F, 2.0F};
  const Vector second = {-3.0F};
  const std::vector<VectorView> queries = {first, second};

  return {
      {"UpsertBatch", EncodeUpsertBatch(3, points), 1,
       "0300000002000000400000008000000007000000000000000000000003000000"
       "0000000026000000090000000000000010000000030000002600000004000000"
       "02000000050000007469746c650002000000616205000000746f706963010300"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000003f000080bf0000e0400000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000003f000080bf00001041"},
      {"UpsertBatchResponse", EncodeUpsertBatchResponse({321}), 2,
       "41010000"},
      {"DeleteRequest", EncodeDeleteRequest({2, 777}), 5,
       "020000000903000000000000"},
      {"DeleteResponse", EncodeDeleteResponse({true}), 6,
       "01"},
      {"BuildIndexRequest", EncodeBuildIndexRequest({false}), 7,
       "00"},
      {"BuildIndexResponse", EncodeBuildIndexResponse({12.5, 1000}), 8,
       "0000000000002940e803000000000000"},
      {"InfoRequest", EncodeInfoRequest({}), 9,
       ""},
      {"InfoResponse", EncodeInfoResponse({5, 4, 2, true}), 10,
       "050000000000000004000000000000000200000001"},
      {"ErrorResponse",
       EncodeErrorResponse(Status::NotFound("shard 3 missing")), 11,
       "020000000f00000073686172642033206d697373696e67"},
      {"CreateShardRequest", EncodeCreateShardRequest({9}), 12,
       "09000000"},
      {"CreateShardResponse", EncodeCreateShardResponse({true}), 13,
       "01"},
      {"SearchBatch", EncodeSearchBatch(queries, params, true, false, filter, 0.75),
       16,
       "0200000005000000630000000400000001000000120000008000000000000000"
       "0000e83f00000000020000001000000001000000010000000300000073726300"
       "0200000070330000000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "0000803f00000040000000000000000000000000000000000000000000000000"
       "0000000000000000000000000000000000000000000000000000000000000000"
       "000040c0"},
      {"SearchBatchOfOne",
       EncodeSearchBatch(std::span<const VectorView>(queries).first(1), params,
                         false, true, Filter{}, 0.0),
       16,
       "0100000005000000630000000400000000010000000000004000000000000000"
       "0000000000000000020000000000000000000000000000000000000000000000"
       "0000803f00000040"},
      {"SearchBatchResponse",
       EncodeSearchBatchResponse(
           {{{{1, 1.0F}}, {}, {{2, 0.5F}, {3, 0.25F}}}, 1}),
       17,
       "030000000100000001000000000000000000803f000000000200000002000000"
       "000000000000003f03000000000000000000803e01000000"},
      {"SnapshotStreamRequest",
       EncodeSnapshotStreamRequest({4, true, 1000, 64}), 18,
       "0400000001e80300000000000040000000"},
      {"MigrationBeginRequest", EncodeMigrationBeginRequest({5}), 20,
       "05000000"},
      {"MigrationBeginResponse", EncodeMigrationBeginResponse({true}), 21,
       "01"},
      {"MigrationChunkResponse", EncodeMigrationChunkResponse({7, 3}), 23,
       "0700000003000000"},
      {"MigrationCommitRequest", EncodeMigrationCommitRequest({5}), 24,
       "05000000"},
      {"MigrationCommitResponse", EncodeMigrationCommitResponse({1234}), 25,
       "d204000000000000"},
      {"MigrationAbortRequest", EncodeMigrationAbortRequest({5}), 26,
       "05000000"},
      {"MigrationAbortResponse", EncodeMigrationAbortResponse({true}), 27,
       "01"},
      {"DropShardRequest", EncodeDropShardRequest({5}), 28,
       "05000000"},
      {"DropShardResponse", EncodeDropShardResponse({true}), 29,
       "01"},
      {"WalTailRequest", EncodeWalTailRequest({3, 17, 100}), 30,
       "03000000110000000000000064000000"},
      {"WalTailResponse",
       EncodeWalTailResponse({20, 19, {{1, {0xDE, 0xAD}}, {2, {}}}}), 31,
       "14000000000000001300000000000000020000000102000000dead0200000000"},
      {"PlacementUpdate",
       EncodePlacementUpdate({4, 2, {{0, 1}, {}, {2, 3}}}), 32,
       "0400000002000000030000000200000000000000010000000000000002000000"
       "0200000003000000"},
      {"UpdatePlacementResponse", EncodeUpdatePlacementResponse({true}), 33,
       "01"},
      {"MigrationDeleteRequest", EncodeMigrationDeleteRequest({6, 424242}), 34,
       "060000003279060000000000"},
      {"MigrationDeleteResponse", EncodeMigrationDeleteResponse({true}), 35,
       "01"},
      {"MetricsPullRequest", EncodeMetricsPullRequest({true}), 36,
       "01"},
      {"MetricsPullResponse",
       EncodeMetricsPullResponse({{0x56, 0x44, 0x42, 0x4D, 0x01, 0x00, 0xFF}}),
       37,
       "070000005644424d0100ff"},
      {"MetricsPullResponseEmpty", EncodeMetricsPullResponse({}), 37,
       "00000000"},
      {"TracePullRequest", EncodeTracePullRequest({{1, ~0ULL, 42}}), 38,
       "030000000100000000000000ffffffffffffffff2a00000000000000"},
      {"TracePullRequestEmpty", EncodeTracePullRequest({}), 38,
       "00000000"},
      {"TracePullResponse",
       EncodeTracePullResponse({3, 9999, 1723000000.5, {FullSpan(), {}}}), 39,
       "030000000f27000000002030b9acd9410200000013000000776f726b65722e73"
       "65617263685f6c6f63616c070000000000000002000000000500000b00000000"
       "00000003000000010000000600000000000000efbeadde000000000f27000000"
       "0000000000f83f000000000000d03f0000000000000000000000000000000000"
       "0000000000000000000000ffffffffffffffffffffffffffffffff0000000000"
       "0000000000000000000000000000000000000000000000"},
  };
}

TEST(CodecGoldenTest, EveryMessageMatchesItsPinnedBytes) {
  for (const Golden& c : Cases()) {
    EXPECT_EQ(static_cast<int>(c.msg.type), c.type) << c.name;
    EXPECT_EQ(Hex(c.msg.body), c.hex) << c.name;
  }
}

}  // namespace
}  // namespace vdb
