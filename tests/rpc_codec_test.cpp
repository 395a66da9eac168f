#include "rpc/codec.hpp"

#include <gtest/gtest.h>

#include "obs/obs.hpp"

namespace vdb {
namespace {

PointRecord MakePoint(PointId id) {
  PointRecord record;
  record.id = id;
  record.vector = {1.0f, 2.0f, static_cast<Scalar>(id)};
  record.payload["topic"] = static_cast<std::int64_t>(id % 5);
  record.payload["title"] = std::string("paper-") + std::to_string(id);
  return record;
}

TEST(CodecTest, UpsertBatchRoundTrip) {
  std::vector<PointRecord> points;
  for (PointId id = 0; id < 10; ++id) points.push_back(MakePoint(id));

  const Message message = EncodeUpsertBatch(3, points);
  EXPECT_EQ(message.type, MessageType::kUpsertBatchRequest);
  auto decoded = DecodeUpsertBatchView(message);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard(), 3u);
  ASSERT_EQ(decoded->size(), 10u);
  EXPECT_EQ(decoded->id(7), 7u);
  const VectorView vector = decoded->vector(7);
  EXPECT_EQ(Vector(vector.begin(), vector.end()), points[7].vector);
  auto payload = decoded->payload(7);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, points[7].payload);
}

TEST(CodecTest, UpsertResponseRoundTrip) {
  auto decoded = DecodeUpsertBatchResponse(
      EncodeUpsertBatchResponse(UpsertBatchResponse{321}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->upserted, 321u);
}

TEST(CodecTest, SearchRequestRoundTrip) {
  const Vector query = {0.1f, 0.2f, 0.3f};
  SearchParams params;
  params.k = 5;
  params.ef_search = 99;
  params.n_probes = 4;
  const Message message = EncodeSearch(query, params, /*fan_out=*/false,
                                       /*allow_partial=*/true, Filter{}, 0.0);
  // A lone query is a search batch of one on the wire.
  EXPECT_EQ(message.type, MessageType::kSearchBatchRequest);
  auto decoded = DecodeSearchRequestView(message);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ(Vector(decoded->query(0).begin(), decoded->query(0).end()), query);
  EXPECT_EQ(decoded->params().k, 5u);
  EXPECT_EQ(decoded->params().ef_search, 99u);
  EXPECT_EQ(decoded->params().n_probes, 4u);
  EXPECT_FALSE(decoded->fan_out());
  EXPECT_TRUE(decoded->allow_partial());
}

TEST(CodecTest, SearchResponseRoundTrip) {
  SearchResponse response;
  response.hits = {{10, 0.9f}, {20, -0.5f}};
  response.peers_failed = 2;
  const Message message = EncodeSearchResponse(response);
  EXPECT_EQ(message.type, MessageType::kSearchBatchResponse);
  auto decoded = DecodeSearchResponse(message);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->hits.size(), 2u);
  EXPECT_EQ(decoded->hits[0].id, 10u);
  EXPECT_FLOAT_EQ(decoded->hits[1].score, -0.5f);
  EXPECT_EQ(decoded->peers_failed, 2u);
  // Only a batch of exactly one result is a single-query response.
  EXPECT_EQ(DecodeSearchResponse(EncodeSearchBatchResponse({{{}, {}}, 0}))
                .status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CodecTest, DeleteRoundTrip) {
  auto request = DecodeDeleteRequest(EncodeDeleteRequest(DeleteRequest{2, 777}));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->shard, 2u);
  EXPECT_EQ(request->id, 777u);
  auto response = DecodeDeleteResponse(EncodeDeleteResponse(DeleteResponse{true}));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->deleted);
}

TEST(CodecTest, MigrationDeleteRoundTrip) {
  auto request = DecodeMigrationDeleteRequest(
      EncodeMigrationDeleteRequest(MigrationDeleteRequest{6, 424242}));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->shard, 6u);
  EXPECT_EQ(request->id, 424242u);
  auto response = DecodeMigrationDeleteResponse(
      EncodeMigrationDeleteResponse(MigrationDeleteResponse{true}));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->applied);
}

TEST(CodecTest, BuildIndexRoundTrip) {
  auto request = DecodeBuildIndexRequest(EncodeBuildIndexRequest(BuildIndexRequest{false}));
  ASSERT_TRUE(request.ok());
  EXPECT_FALSE(request->wait);
  auto response = DecodeBuildIndexResponse(
      EncodeBuildIndexResponse(BuildIndexResponse{12.5, 1000}));
  ASSERT_TRUE(response.ok());
  EXPECT_DOUBLE_EQ(response->build_seconds, 12.5);
  EXPECT_EQ(response->indexed_points, 1000u);
}

TEST(CodecTest, InfoRoundTrip) {
  InfoResponse info;
  info.live_points = 5;
  info.indexed_points = 4;
  info.shard_count = 2;
  info.index_ready = true;
  auto decoded = DecodeInfoResponse(EncodeInfoResponse(info));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->live_points, 5u);
  EXPECT_EQ(decoded->indexed_points, 4u);
  EXPECT_EQ(decoded->shard_count, 2u);
  EXPECT_TRUE(decoded->index_ready);
}

TEST(CodecTest, CreateShardRoundTrip) {
  auto create = DecodeCreateShardRequest(EncodeCreateShardRequest(CreateShardRequest{9}));
  ASSERT_TRUE(create.ok());
  EXPECT_EQ(create->shard, 9u);
  auto created =
      DecodeCreateShardResponse(EncodeCreateShardResponse(CreateShardResponse{true}));
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(created->created);
}

TEST(CodecTest, ErrorResponseCarriesStatus) {
  const Message message = EncodeErrorResponse(Status::NotFound("shard 3 missing"));
  const Status status = MessageToStatus(message);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "shard 3 missing");
}

TEST(CodecTest, MessageToStatusIsOkForNonError) {
  EXPECT_TRUE(MessageToStatus(EncodeInfoRequest(InfoRequest{})).ok());
}

TEST(CodecTest, WrongTypeRejected) {
  const Message message = EncodeInfoRequest(InfoRequest{});
  EXPECT_FALSE(DecodeSearchRequestView(message).ok());
  EXPECT_FALSE(DecodeUpsertBatchView(message).ok());
}

TEST(CodecTest, TruncatedBodyRejected) {
  const std::vector<PointRecord> points = {MakePoint(5)};
  Message message = EncodeUpsertBatch(1, points);
  for (const std::size_t cut : {message.body.size() - 1, message.body.size() / 2}) {
    Message truncated = message;
    truncated.body.resize(cut);
    EXPECT_FALSE(DecodeUpsertBatchView(truncated).ok()) << "cut=" << cut;
  }
}

TEST(CodecTest, EmptyBatchIsLegal) {
  auto decoded = DecodeUpsertBatchView(EncodeUpsertBatch(0, {}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(CodecTest, WireBytesAccountsForBody) {
  const Vector query(2560, 0.5f);  // paper-sized query vector
  const Message message =
      EncodeSearch(query, SearchParams{}, true, false, Filter{}, 0.0);
  EXPECT_GT(message.WireBytes(), 2560u * 4u);
}

// ---- telemetry plane (types 36-39) -----------------------------------------

TEST(CodecTest, MetricsPullRoundTrip) {
  {
    const Message message = EncodeMetricsPullRequest(MetricsPullRequest{true});
    EXPECT_EQ(message.type, MessageType::kMetricsPullRequest);
    auto decoded = DecodeMetricsPullRequest(message);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded->reset_window);
  }
  {
    auto decoded =
        DecodeMetricsPullRequest(EncodeMetricsPullRequest(MetricsPullRequest{}));
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->reset_window);
  }
  MetricsPullResponse response;
  response.snapshot = {0x56, 0x44, 0x42, 0x4D, 0x01, 0x00, 0xFF};
  const Message message = EncodeMetricsPullResponse(response);
  EXPECT_EQ(message.type, MessageType::kMetricsPullResponse);
  auto decoded = DecodeMetricsPullResponse(message);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->snapshot, response.snapshot);
}

TEST(CodecTest, MetricsPullResponseEmptyBlobIsLegal) {
  // An obs-disabled worker answers with an empty snapshot blob.
  auto decoded =
      DecodeMetricsPullResponse(EncodeMetricsPullResponse(MetricsPullResponse{}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->snapshot.empty());
}

TEST(CodecTest, TracePullRoundTrip) {
  TracePullRequest request;
  request.trace_ids = {1, ~0ull, 42};
  const Message req_message = EncodeTracePullRequest(request);
  EXPECT_EQ(req_message.type, MessageType::kTracePullRequest);
  auto req_decoded = DecodeTracePullRequest(req_message);
  ASSERT_TRUE(req_decoded.ok());
  EXPECT_EQ(req_decoded->trace_ids, request.trace_ids);

  TracePullResponse response;
  response.worker = 3;
  response.pid = 9999;
  response.epoch_unix_seconds = 1723000000.5;
  TraceWireSpan span;
  span.name = "worker.search_local";
  span.trace_id = 7;
  span.span_id = (5ull << 40) + 2;  // a seeded remote process's id range
  span.parent_id = 11;
  span.worker = 3;
  span.node = 1;
  span.shard = 6;
  span.thread_id = 0xDEADBEEF;
  span.pid = 9999;
  span.start_seconds = 1.5;
  span.duration_seconds = 0.25;
  response.spans.push_back(span);
  response.spans.push_back(TraceWireSpan{});  // defaults round-trip too

  const Message message = EncodeTracePullResponse(response);
  EXPECT_EQ(message.type, MessageType::kTracePullResponse);
  auto decoded = DecodeTracePullResponse(message);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->worker, 3u);
  EXPECT_EQ(decoded->pid, 9999u);
  EXPECT_DOUBLE_EQ(decoded->epoch_unix_seconds, 1723000000.5);
  ASSERT_EQ(decoded->spans.size(), 2u);
  const TraceWireSpan& back = decoded->spans[0];
  EXPECT_EQ(back.name, span.name);
  EXPECT_EQ(back.trace_id, span.trace_id);
  EXPECT_EQ(back.span_id, span.span_id);
  EXPECT_EQ(back.parent_id, span.parent_id);
  EXPECT_EQ(back.worker, span.worker);
  EXPECT_EQ(back.node, span.node);
  EXPECT_EQ(back.shard, span.shard);
  EXPECT_EQ(back.thread_id, span.thread_id);
  EXPECT_EQ(back.pid, span.pid);
  EXPECT_DOUBLE_EQ(back.start_seconds, span.start_seconds);
  EXPECT_DOUBLE_EQ(back.duration_seconds, span.duration_seconds);
  EXPECT_EQ(decoded->spans[1].name, "");
  EXPECT_EQ(decoded->spans[1].worker, 0xFFFFFFFFu);
}

TEST(CodecTest, TracePullEmptyRequestMeansDrainAll) {
  auto decoded = DecodeTracePullRequest(EncodeTracePullRequest(TracePullRequest{}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->trace_ids.empty());
}

// ---- every control message is equally strict -------------------------------

template <class T>
struct Codec;
#define VDB_TEST_CODEC(T, type)                                       \
  template <>                                                         \
  struct Codec<T> {                                                   \
    static constexpr MessageType kType = MessageType::type;           \
    static Message Encode(const T& m) { return Encode##T(m); }        \
    static Result<T> Decode(const Message& msg) {                     \
      return Decode##T(msg);                                          \
    }                                                                 \
  };
VDB_CONTROL_MESSAGES(VDB_TEST_CODEC)
#undef VDB_TEST_CODEC
// The batch-of-one response wrapper travels as a search batch response.
template <>
struct Codec<SearchResponse> {
  static constexpr MessageType kType = MessageType::kSearchBatchResponse;
  static Message Encode(const SearchResponse& m) { return EncodeSearchResponse(m); }
  static Result<SearchResponse> Decode(const Message& msg) {
    return DecodeSearchResponse(msg);
  }
};
template <>
struct Codec<ErrorResponse> {
  static constexpr MessageType kType = MessageType::kErrorResponse;
  static Message Encode(const ErrorResponse& m) {
    return EncodeErrorResponse(Status(static_cast<StatusCode>(m.code), m.message));
  }
  static Result<ErrorResponse> Decode(const Message& msg) {
    return DecodeErrorResponse(msg);
  }
};

// One non-trivial value per message: nested lists, empty lists, strings.
template <class T>
T Sample();
template <> UpsertBatchResponse Sample() { return {321}; }
template <> SearchResponse Sample() { return {{{10, 0.5f}, {20, -0.25f}}, 2}; }
template <> SearchBatchResponse Sample() {
  return {{{{1, 1.0f}}, {}, {{2, 0.5f}, {3, 0.25f}}}, 1};
}
template <> DeleteRequest Sample() { return {2, 777}; }
template <> DeleteResponse Sample() { return {true}; }
template <> BuildIndexRequest Sample() { return {false}; }
template <> BuildIndexResponse Sample() { return {12.5, 1000}; }
template <> InfoRequest Sample() { return {}; }
template <> InfoResponse Sample() { return {5, 4, 2, true}; }
template <> CreateShardRequest Sample() { return {9}; }
template <> CreateShardResponse Sample() { return {true}; }
template <> SnapshotStreamRequest Sample() { return {4, true, 1000, 64}; }
template <> MigrationBeginRequest Sample() { return {5}; }
template <> MigrationBeginResponse Sample() { return {true}; }
template <> MigrationChunkResponse Sample() { return {7, 3}; }
template <> MigrationCommitRequest Sample() { return {5}; }
template <> MigrationCommitResponse Sample() { return {1234}; }
template <> MigrationDeleteRequest Sample() { return {6, 424242}; }
template <> MigrationDeleteResponse Sample() { return {true}; }
template <> MigrationAbortRequest Sample() { return {5}; }
template <> MigrationAbortResponse Sample() { return {true}; }
template <> DropShardRequest Sample() { return {5}; }
template <> DropShardResponse Sample() { return {true}; }
template <> WalTailRequest Sample() { return {3, 17, 100}; }
template <> WalTailResponse Sample() { return {20, 19, {{1, {0xDE, 0xAD}}, {2, {}}}}; }
template <> MetricsPullRequest Sample() { return {true}; }
template <> MetricsPullResponse Sample() { return {{0x56, 0x44, 0x42, 0x4D}}; }
template <> TracePullRequest Sample() { return {{1, ~0ull, 42}}; }
template <> TracePullResponse Sample() {
  TraceWireSpan span;
  span.name = "worker.search_local";
  span.trace_id = 7;
  span.shard = 6;
  span.start_seconds = 1.5;
  return {3, 9999, 1723000000.5, {span, {}}};
}
template <> PlacementUpdate Sample() { return {4, 2, {{0, 1}, {}, {2, 3}}}; }
template <> UpdatePlacementResponse Sample() { return {true}; }
template <> ErrorResponse Sample() {
  return {static_cast<std::int32_t>(StatusCode::kNotFound), "shard 3 missing"};
}

template <class T>
class ControlMessageTest : public ::testing::Test {};

#define VDB_TEST_TYPE(T, type) T,
using ControlMessages =
    ::testing::Types<VDB_CONTROL_MESSAGES(VDB_TEST_TYPE) SearchResponse,
                     ErrorResponse>;
#undef VDB_TEST_TYPE
TYPED_TEST_SUITE(ControlMessageTest, ControlMessages);

TYPED_TEST(ControlMessageTest, DecodeIsStrict) {
  using C = Codec<TypeParam>;
  const Message message = C::Encode(Sample<TypeParam>());
  ASSERT_EQ(message.type, C::kType);

  // Round trip: re-encoding the decoded value reproduces the bytes. (A
  // field missing from the list would fail the golden-bytes test instead.)
  auto decoded = C::Decode(message);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(C::Encode(*decoded).body, message.body);

  for (std::size_t cut = 0; cut < message.body.size(); ++cut) {
    Message truncated = message;
    truncated.body.resize(cut);
    EXPECT_EQ(C::Decode(truncated).status().code(), StatusCode::kCorruption)
        << "cut " << cut;
  }

  Message padded = message;
  padded.body.resize(message.body.size() + 1);
  EXPECT_EQ(C::Decode(padded).status().code(), StatusCode::kCorruption);

  Message retyped = message;
  retyped.type = C::kType == MessageType::kInfoRequest ? MessageType::kInfoResponse
                                                       : MessageType::kInfoRequest;
  EXPECT_EQ(C::Decode(retyped).status().code(), StatusCode::kInvalidArgument);
}

Message WithBody(MessageType type, std::initializer_list<std::uint8_t> bytes) {
  return Message{type, rpc::Buffer(bytes)};
}

// A count of 0xFFFFFFFF in a tiny body must fail the bounds check before any
// allocation sized by it: a reserve(count) would throw std::bad_alloc.
TEST(CodecTest, LyingCountIsCorruptionNotAnAllocation) {
  const auto lie = {std::uint8_t{0xFF}, std::uint8_t{0xFF}, std::uint8_t{0xFF},
                    std::uint8_t{0xFF}};
  EXPECT_EQ(DecodeSearchResponse(WithBody(MessageType::kSearchBatchResponse, lie))
                .status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeSearchBatchResponse(
                WithBody(MessageType::kSearchBatchResponse, lie)).status().code(),
            StatusCode::kCorruption);
  // One result whose hit count lies.
  EXPECT_EQ(DecodeSearchBatchResponse(
                WithBody(MessageType::kSearchBatchResponse,
                         {1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}))
                .status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeTracePullRequest(WithBody(MessageType::kTracePullRequest, lie))
                .status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeTracePullResponse(
                WithBody(MessageType::kTracePullResponse,
                         {3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                          0xFF, 0xFF, 0xFF, 0xFF}))
                .status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodePlacementUpdate(
                WithBody(MessageType::kUpdatePlacementRequest,
                         {4, 0, 0, 0, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}))
                .status().code(), StatusCode::kCorruption);
  // One shard whose replica count lies.
  EXPECT_EQ(DecodePlacementUpdate(
                WithBody(MessageType::kUpdatePlacementRequest,
                         {4, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF,
                          0xFF}))
                .status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeWalTailResponse(
                WithBody(MessageType::kWalTailResponse,
                         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                          0xFF, 0xFF, 0xFF, 0xFF}))
                .status().code(), StatusCode::kCorruption);
}

#ifndef VDB_OBS_DISABLED
std::uint64_t CounterValue(const std::string& name) {
  for (const auto& [counter, value] :
       obs::MetricsRegistry::Instance().CounterValues()) {
    if (counter == name) return value;
  }
  return 0;
}

TEST(CodecTest, ByteCountersCoverControlMessages) {
  const std::uint64_t encoded = CounterValue("rpc.bytes_encoded");
  const std::uint64_t decoded = CounterValue("rpc.bytes_decoded");
  ASSERT_TRUE(DecodeDeleteRequest(EncodeDeleteRequest({2, 777})).ok());
  EXPECT_EQ(CounterValue("rpc.bytes_encoded") - encoded, 12u);  // u32 + u64
  EXPECT_EQ(CounterValue("rpc.bytes_decoded") - decoded, 12u);
}
#endif

}  // namespace
}  // namespace vdb
