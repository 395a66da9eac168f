#pragma once

/// \file codec.hpp
/// Binary wire format for worker RPCs. Length-prefixed little-endian encoding
/// of every request/response the cluster layer exchanges — the stand-in for
/// Qdrant's gRPC surface. Keeping serialization explicit (rather than passing
/// pointers through the in-process transport) preserves the real cost
/// structure the paper measures: batch *conversion* is CPU work distinct from
/// the RPC await (section 3.2).
///
/// The data plane is zero-copy (DESIGN.md "Data plane"):
///  - Message bodies are pooled `rpc::Buffer` slabs; copying a Message bumps
///    a refcount instead of cloning bytes.
///  - Bulk payloads (upsert/snapshot/migration point batches, search queries)
///    use a hand-written region layout: a fixed header + offset table up
///    front, then a contiguous 64-byte-aligned vector region written with one
///    bulk memcpy per vector. Decoding returns *views* (`VectorView` spans
///    into the message body) — valid only while the view object (which holds
///    a buffer reference) is alive.
///  - Control messages are plain structs, each encoded from one field list
///    (VDB_CONTROL_MESSAGES below).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "dist/topk.hpp"
#include "index/index.hpp"
#include "rpc/buffer.hpp"
#include "storage/payload_store.hpp"

namespace vdb {

enum class MessageType : std::uint8_t {
  kUpsertBatchRequest = 1,
  kUpsertBatchResponse = 2,
  // 3 and 4 are retired (a single-query search message: a lone query now
  // travels as a search batch of one); never reuse them.
  kDeleteRequest = 5,
  kDeleteResponse = 6,
  kBuildIndexRequest = 7,
  kBuildIndexResponse = 8,
  kInfoRequest = 9,
  kInfoResponse = 10,
  kErrorResponse = 11,
  kCreateShardRequest = 12,
  kCreateShardResponse = 13,
  // 14 and 15 are retired (a bulk shard-copy RPC the migration plane
  // replaced); never reuse them.
  kSearchBatchRequest = 16,
  kSearchBatchResponse = 17,
  // Elasticity plane (snapshot streaming, live migration, replica catch-up).
  kSnapshotStreamRequest = 18,
  kSnapshotStreamResponse = 19,
  kMigrationBeginRequest = 20,
  kMigrationBeginResponse = 21,
  kMigrationChunkRequest = 22,
  kMigrationChunkResponse = 23,
  kMigrationCommitRequest = 24,
  kMigrationCommitResponse = 25,
  kMigrationAbortRequest = 26,
  kMigrationAbortResponse = 27,
  kDropShardRequest = 28,
  kDropShardResponse = 29,
  kWalTailRequest = 30,
  kWalTailResponse = 31,
  kUpdatePlacementRequest = 32,
  kUpdatePlacementResponse = 33,
  kMigrationDeleteRequest = 34,
  kMigrationDeleteResponse = 35,
  // Telemetry plane (cluster scrape: metrics snapshots + retained span trees).
  kMetricsPullRequest = 36,
  kMetricsPullResponse = 37,
  kTracePullRequest = 38,
  kTracePullResponse = 39,
};

/// Opaque framed message. Copying shares the pooled body slab (refcount
/// bump); the body bytes are immutable once encoded.
struct Message {
  MessageType type = MessageType::kErrorResponse;
  rpc::Buffer body;

  std::size_t WireBytes() const { return body.size() + 5; }
};

// ---- Typed payloads -------------------------------------------------------

struct UpsertBatchResponse {
  std::uint32_t upserted = 0;
};

struct SearchBatchResponse {
  /// results[i] corresponds to queries[i].
  std::vector<std::vector<ScoredPoint>> results;
  /// Peers that failed to answer or missed the fan-out deadline (only
  /// non-zero with allow_partial). peers_failed > 0 means the results are
  /// degraded: best-effort top-k over the reachable shards.
  std::uint32_t peers_failed = 0;
};

struct DeleteRequest {
  ShardId shard = 0;
  PointId id = kInvalidPointId;
};

struct DeleteResponse {
  bool deleted = false;
};

struct BuildIndexRequest {
  bool wait = true;
};

struct BuildIndexResponse {
  double build_seconds = 0.0;
  std::uint64_t indexed_points = 0;
};

struct InfoRequest {};

struct InfoResponse {
  std::uint64_t live_points = 0;
  std::uint64_t indexed_points = 0;
  std::uint32_t shard_count = 0;
  bool index_ready = false;
};

struct CreateShardRequest {
  ShardId shard = 0;
};

struct CreateShardResponse {
  bool created = false;
};

struct ErrorResponse {
  std::int32_t code = 0;
  std::string message;
};

// ---- Elasticity plane -----------------------------------------------------
//
// Snapshot streaming pages a shard's live points in ascending id order (the
// collection Scroll API on the wire); the migration messages drive the live
// shard handoff state machine (DESIGN.md "Elasticity"); the WAL tail carries
// raw log records for replica catch-up; the placement update installs a new
// shard table on a running worker (the cutover step).

struct SnapshotStreamRequest {
  ShardId shard = 0;
  /// Resume cursor: ids >= from (when has_from) — pass the previous page's
  /// last id + 1. A page shorter than `limit` means the stream is exhausted.
  bool has_from = false;
  PointId from = 0;
  std::uint32_t limit = 256;
};
// The response body is a point batch (kSnapshotStreamResponse); decode with
// DecodeSnapshotPageView below.

struct MigrationBeginRequest {
  ShardId shard = 0;
};

struct MigrationBeginResponse {
  bool started = false;
};

// kMigrationChunkRequest carries a point batch; the destination skips ids it
// already saw via a client write during the copy window (dual-apply rule).
struct MigrationChunkResponse {
  std::uint32_t applied = 0;
  std::uint32_t skipped = 0;
};

struct MigrationCommitRequest {
  ShardId shard = 0;
};

struct MigrationCommitResponse {
  std::uint64_t points = 0;  ///< destination's live count at commit
};

/// Tombstone delivered over the migration plane (WAL-tail replay during
/// replica catch-up). Unlike a client DeleteRequest, applying it must NOT
/// mark the id "touched" on a migrating-in destination — touched means "a
/// client write newer than any tail/snapshot record", and a tail delete is
/// itself an old record. The destination skips it when the id IS touched.
struct MigrationDeleteRequest {
  ShardId shard = 0;
  PointId id = kInvalidPointId;
};

struct MigrationDeleteResponse {
  bool applied = false;  ///< false = skipped (touched) or id not present
};

struct MigrationAbortRequest {
  ShardId shard = 0;
};

struct MigrationAbortResponse {
  bool aborted = false;
};

struct DropShardRequest {
  ShardId shard = 0;
};

struct DropShardResponse {
  bool dropped = false;
};

struct WalTailRequest {
  ShardId shard = 0;
  std::uint64_t from_record = 0;  ///< absolute record index cursor
  std::uint32_t max_records = 0;  ///< 0 = cursor/total only
};

struct WalTailRecord {
  std::uint8_t type = 0;  ///< WalRecordType on the storage side
  std::vector<std::uint8_t> payload;
};

struct WalTailResponse {
  std::uint64_t total_records = 0;  ///< source's record count at read time
  std::uint64_t next_record = 0;    ///< cursor for the next request
  std::vector<WalTailRecord> records;
};

// ---- Telemetry plane ------------------------------------------------------
//
// MetricsPull scrapes one worker's full registry (counters, gauges, span
// histograms) as an opaque snapshot blob (obs/snapshot.hpp wire format — the
// rpc layer never interprets it, so obs-disabled workers just ship an empty
// blob). TracePull drains the worker's retained span trees so the scraper can
// assemble one cross-process timeline; epoch_unix_seconds lets it rebase each
// process's private steady-clock axis onto shared wall time.

struct MetricsPullRequest {
  /// True resets every gauge's scrape window (SnapshotAndResetWindow) — only
  /// the one periodic scraper that owns the windows should set it.
  bool reset_window = false;
};

struct MetricsPullResponse {
  /// EncodeMetricsSnapshot blob; empty when the worker compiled obs out.
  std::vector<std::uint8_t> snapshot;
};

struct TracePullRequest {
  /// Specific traces to take, or empty = drain everything retained.
  std::vector<std::uint64_t> trace_ids;
};

/// One completed span shipped across processes — mirrors obs::SpanEvent
/// field-for-field but is an always-compiled plain struct, so the rpc layer
/// (and obs-disabled builds) never touch obs headers.
struct TraceWireSpan {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint32_t worker = 0xFFFFFFFFu;  // obs::kNoWorker
  std::uint32_t node = 0xFFFFFFFFu;    // obs::kNoNode
  std::uint64_t shard = ~0ull;         // obs::kNoShard
  std::uint64_t thread_id = 0;
  std::uint32_t pid = 0;
  double start_seconds = 0.0;    ///< on the *sender's* NowSeconds axis
  double duration_seconds = 0.0;
};

struct TracePullResponse {
  std::uint32_t worker = 0xFFFFFFFFu;
  std::uint32_t pid = 0;
  /// Wall-clock Unix time of the sender's obs epoch (its NowSeconds zero).
  double epoch_unix_seconds = 0.0;
  std::vector<TraceWireSpan> spans;
};

/// Full replica table for a placement swap on a live worker (cutover).
struct PlacementUpdate {
  std::uint32_t num_workers = 0;
  std::uint32_t replication = 1;
  std::vector<std::vector<WorkerId>> replicas;  ///< replicas[shard]
};

struct UpdatePlacementResponse {
  bool updated = false;
};

// ---- Zero-copy views ------------------------------------------------------
//
// A view object holds a refcount on the message body, so the spans it hands
// out stay valid exactly as long as the view (or any other reference to the
// same Message) is alive. Views never outlive the data; data never outlives
// the last view. Decoding a view validates every offset/length against the
// body bounds once, up front — the accessors are then bounds-free reads.

/// Decoded view of a point batch (upsert, snapshot page, migration chunk).
/// Vectors are spans into the message body (64-byte-aligned by the encoder);
/// payloads decode lazily per point.
class PointBatchView {
 public:
  PointBatchView() = default;

  ShardId shard() const { return shard_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  PointId id(std::size_t i) const;
  VectorView vector(std::size_t i) const;
  /// Raw encoded payload bytes (EncodePayload format) for point i.
  std::span<const std::uint8_t> payload_bytes(std::size_t i) const;
  /// Materializes point i's payload.
  Result<Payload> payload(std::size_t i) const;

 private:
  friend Result<PointBatchView> DecodePointBatch(const Message& msg,
                                                 MessageType expect);
  Message msg_;  // keeps the body slab alive for the spans below
  ShardId shard_ = 0;
  std::size_t count_ = 0;
  std::size_t table_off_ = 0;       // byte offset of the entry table
  std::size_t pay_region_off_ = 0;  // byte offset of the payload region
  std::size_t vec_region_off_ = 0;  // byte offset of the vector region
};

using UpsertBatchView = PointBatchView;
using SnapshotPageView = PointBatchView;
using MigrationChunkView = PointBatchView;

/// Decoded view of a search batch — every search, a lone query being a batch
/// of one; `query(i)` points into the body.
class SearchBatchRequestView {
 public:
  SearchBatchRequestView() = default;

  std::size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }
  /// Every query in batch order.
  std::span<const VectorView> queries() const { return queries_; }
  VectorView query(std::size_t i) const { return queries_[i]; }
  const SearchParams& params() const { return params_; }
  bool fan_out() const { return fan_out_; }
  bool allow_partial() const { return allow_partial_; }
  const Filter& filter() const { return filter_; }
  double deadline_seconds() const { return deadline_seconds_; }

 private:
  friend Result<SearchBatchRequestView> DecodeSearchBatchRequestView(
      const Message& msg);
  Message msg_;
  SearchParams params_;
  bool fan_out_ = true;
  bool allow_partial_ = false;
  Filter filter_;  // small; decoded eagerly
  double deadline_seconds_ = 0.0;
  std::vector<VectorView> queries_;  // built once at decode
};

// ---- Zero-copy encode -----------------------------------------------------
//
// Encoders compute the exact body size, lease one pooled buffer, and write
// vectors with a single bulk memcpy each into the aligned region. The
// `indices` overloads encode a shard's subset of a caller-owned batch without
// materializing per-shard PointRecord copies (the router/client grouping
// path).

Message EncodeUpsertBatch(ShardId shard, std::span<const PointRecord> points);
Message EncodeUpsertBatch(ShardId shard, std::span<const PointRecord> points,
                          std::span<const std::uint32_t> indices);
Message EncodeSnapshotPage(ShardId shard, std::span<const PointRecord> points);
Message EncodeMigrationChunk(ShardId shard, std::span<const PointRecord> points);

Result<UpsertBatchView> DecodeUpsertBatchView(const Message& msg);
Result<SnapshotPageView> DecodeSnapshotPageView(const Message& msg);
Result<MigrationChunkView> DecodeMigrationChunkView(const Message& msg);

/// Re-tags a snapshot page of `shard` as a migration chunk without touching
/// its body (the two share the point-batch layout), so a copy loop forwards
/// pages with a refcount bump instead of decode + re-encode. Rejects any
/// message that is not a kSnapshotStreamResponse for `shard`.
Result<Message> MigrationChunkFromSnapshotPage(const Message& page,
                                               ShardId shard);

/// The one search request: `queries` answered by one RPC — the "query batch
/// size" the paper tunes in figs. 2/4; a lone query is a batch of one. The
/// queries are copied from the caller's views straight into the body.
/// `fan_out`: the receiver broadcasts to its peers and merges (the client
/// entry); false for worker-to-worker partial searches. `allow_partial`: the
/// entry answers from the shards it reached (SearchBatchResponse::
/// peers_failed). `filter`: payload-equality prefilter applied to every query
/// of the batch, inactive when its field is empty. `deadline_seconds`:
/// fan-out budget (a late peer counts as failed), 0 = none.
Message EncodeSearchBatch(std::span<const VectorView> queries,
                          const SearchParams& params, bool fan_out,
                          bool allow_partial, const Filter& filter,
                          double deadline_seconds);
Result<SearchBatchRequestView> DecodeSearchBatchRequestView(const Message& msg);

// ---- Control messages ------------------------------------------------------
//
// The table binds each control struct to its MessageType and declares
// `Message EncodeT(const T&)` and `Result<T> DecodeT(const Message&)`, both
// driven by the struct's one field list in codec.cpp. Scalars are raw
// little-endian, bool is one byte, strings and byte vectors are a u32 length
// plus the bytes, other vectors a u32 count plus the elements, and nested
// structs recurse. Decoders check the type tag (InvalidArgument) and reject a
// short body, trailing bytes and any count the bytes left cannot hold
// (Corruption). `rpc.bytes_encoded`/`rpc.bytes_decoded` count every body.

#define VDB_CONTROL_MESSAGES(X)                            \
  X(UpsertBatchResponse, kUpsertBatchResponse)             \
  X(SearchBatchResponse, kSearchBatchResponse)             \
  X(DeleteRequest, kDeleteRequest)                         \
  X(DeleteResponse, kDeleteResponse)                       \
  X(BuildIndexRequest, kBuildIndexRequest)                 \
  X(BuildIndexResponse, kBuildIndexResponse)               \
  X(InfoRequest, kInfoRequest)                             \
  X(InfoResponse, kInfoResponse)                           \
  X(CreateShardRequest, kCreateShardRequest)               \
  X(CreateShardResponse, kCreateShardResponse)             \
  X(SnapshotStreamRequest, kSnapshotStreamRequest)         \
  X(MigrationBeginRequest, kMigrationBeginRequest)         \
  X(MigrationBeginResponse, kMigrationBeginResponse)       \
  X(MigrationChunkResponse, kMigrationChunkResponse)       \
  X(MigrationCommitRequest, kMigrationCommitRequest)       \
  X(MigrationCommitResponse, kMigrationCommitResponse)     \
  X(MigrationDeleteRequest, kMigrationDeleteRequest)       \
  X(MigrationDeleteResponse, kMigrationDeleteResponse)     \
  X(MigrationAbortRequest, kMigrationAbortRequest)         \
  X(MigrationAbortResponse, kMigrationAbortResponse)       \
  X(DropShardRequest, kDropShardRequest)                   \
  X(DropShardResponse, kDropShardResponse)                 \
  X(WalTailRequest, kWalTailRequest)                       \
  X(WalTailResponse, kWalTailResponse)                     \
  X(MetricsPullRequest, kMetricsPullRequest)               \
  X(MetricsPullResponse, kMetricsPullResponse)             \
  X(TracePullRequest, kTracePullRequest)                   \
  X(TracePullResponse, kTracePullResponse)                 \
  X(PlacementUpdate, kUpdatePlacementRequest)              \
  X(UpdatePlacementResponse, kUpdatePlacementResponse)

#define VDB_DECLARE_CONTROL_CODEC(T, type) \
  Message Encode##T(const T& m);           \
  Result<T> Decode##T(const Message& msg);
VDB_CONTROL_MESSAGES(VDB_DECLARE_CONTROL_CODEC)
#undef VDB_DECLARE_CONTROL_CODEC

/// ErrorResponse is encoded only from a Status: this is the one choke point
/// every error crossing the wire passes, so the flight recorder sees all.
Message EncodeErrorResponse(const Status& status);
Result<ErrorResponse> DecodeErrorResponse(const Message& msg);

/// Converts an ErrorResponse message back into a Status (identity for OK).
Status MessageToStatus(const Message& msg);

// ---- Batch-of-one wrappers (perfbench compatibility) ----------------------
//
// The names perfbench's layer peel calls, from before a lone query became a
// batch of one. They have no wire type of their own: EncodeSearch writes a
// kSearchBatchRequest of one query, DecodeSearchRequestView accepts only a
// batch of exactly one, and SearchResponse travels as a SearchBatchResponse
// of one result. Delete this block once perfbench calls the batch codec.

struct SearchResponse {
  std::vector<ScoredPoint> hits;
  std::uint32_t peers_failed = 0;
};

Message EncodeSearch(VectorView query, const SearchParams& params, bool fan_out,
                     bool allow_partial, const Filter& filter,
                     double deadline_seconds);
Result<SearchBatchRequestView> DecodeSearchRequestView(const Message& msg);
Message EncodeSearchResponse(const SearchResponse& response);
Result<SearchResponse> DecodeSearchResponse(const Message& msg);
/// Unfiltered batch of owned vectors.
Message EncodeSearchBatch(std::span<const Vector> queries,
                          const SearchParams& params, bool fan_out,
                          bool allow_partial, double deadline_seconds);

}  // namespace vdb
