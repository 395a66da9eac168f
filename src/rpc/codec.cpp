#include "rpc/codec.hpp"

#include <algorithm>
#include <cstring>

#include "common/archive.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace vdb {
namespace {

// All multi-byte fields are little-endian (we target LE hosts; floats were
// always memcpy'd raw, so the format was never BE-portable).

constexpr std::size_t kVecAlignScalars =
    rpc::kBufferAlignment / sizeof(Scalar);  // 16 scalars == 64 bytes

std::size_t AlignUp(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

// ---- Raw little-endian loads: the views read table entries at random -----

std::uint32_t LoadU32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t LoadU64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
double LoadF64(const std::uint8_t* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

Message NewMessage(MessageType type, std::size_t body_size) {
  Message msg;
  msg.type = type;
  msg.body = rpc::Buffer::Allocate(body_size);
  return msg;
}

void NoteEncoded(const Message& msg) {
  VDB_COUNTER_ADD("rpc.bytes_encoded", msg.body.size());
  (void)msg;
}

void NoteDecoded(const Message& msg) {
  VDB_COUNTER_ADD("rpc.bytes_decoded", msg.body.size());
  (void)msg;
}

Status ExpectType(const Message& msg, MessageType type) {
  if (msg.type != type) {
    return Status::InvalidArgument("unexpected message type " +
                                   std::to_string(static_cast<int>(msg.type)));
  }
  return Status::Ok();
}

Status Truncated() { return Status::Corruption("message truncated"); }

// ---- Point batch (upsert, snapshot page, migration chunk) wire layout -----
//
//   [0]  u32 shard
//   [4]  u32 count
//   [8]  u32 pay_region_off   == kPointHeaderBytes + count * kPointEntryBytes
//   [12] u32 vec_region_off   (64-byte aligned)
//   [16] table: count × { u64 id, u32 vec_off(scalars), u32 vec_len(scalars),
//                         u32 pay_off(bytes), u32 pay_len(bytes) }
//        payload region (concatenated EncodePayload blobs)
//        zero pad to vec_region_off
//        vector region: scalars, each vector's start 64-byte aligned
//
// Body size == vec_region_off + total_vec_scalars * sizeof(Scalar); decode
// rejects any size mismatch, so every truncation cut fails loudly.

constexpr std::size_t kPointHeaderBytes = 16;
constexpr std::size_t kPointEntryBytes = 24;

template <typename GetPoint>
Message EncodePointBatch(MessageType type, ShardId shard, std::size_t count,
                         GetPoint&& point_at) {
  // Pass 1: exact layout.
  std::vector<std::uint32_t> pay_sizes(count);
  std::size_t pay_total = 0;
  std::size_t vec_scalars = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const PointRecord& p = point_at(i);
    pay_sizes[i] = static_cast<std::uint32_t>(PayloadWireSize(p.payload));
    pay_total += pay_sizes[i];
    vec_scalars = AlignUp(vec_scalars, kVecAlignScalars) + p.vector.size();
  }
  const std::size_t table_off = kPointHeaderBytes;
  const std::size_t pay_region_off = table_off + count * kPointEntryBytes;
  const std::size_t vec_region_off =
      AlignUp(pay_region_off + pay_total, rpc::kBufferAlignment);
  const std::size_t total = vec_region_off + vec_scalars * sizeof(Scalar);

  Message msg = NewMessage(type, total);
  WriteArchive w{msg.body.MutableData()};
  w(shard, static_cast<std::uint32_t>(count),
    static_cast<std::uint32_t>(pay_region_off),
    static_cast<std::uint32_t>(vec_region_off));

  // Pass 2: table, then the two regions.
  std::size_t pay_cursor = 0;   // bytes into the payload region
  std::size_t vec_cursor = 0;   // scalars into the vector region
  for (std::size_t i = 0; i < count; ++i) {
    const PointRecord& p = point_at(i);
    vec_cursor = AlignUp(vec_cursor, kVecAlignScalars);
    w(p.id, static_cast<std::uint32_t>(vec_cursor),
      static_cast<std::uint32_t>(p.vector.size()),
      static_cast<std::uint32_t>(pay_cursor), pay_sizes[i]);
    pay_cursor += pay_sizes[i];
    vec_cursor += p.vector.size();
  }
  std::uint8_t* body = msg.body.MutableData();
  std::size_t pay_pos = pay_region_off;
  for (std::size_t i = 0; i < count; ++i) {
    pay_pos += EncodePayloadTo(point_at(i).payload, body + pay_pos);
  }
  std::memset(body + pay_pos, 0, vec_region_off - pay_pos);  // pad to region
  std::size_t vec_pos = 0;  // scalars
  auto* vec_base = reinterpret_cast<Scalar*>(body + vec_region_off);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t aligned = AlignUp(vec_pos, kVecAlignScalars);
    if (aligned > vec_pos) {
      std::memset(vec_base + vec_pos, 0, (aligned - vec_pos) * sizeof(Scalar));
    }
    const PointRecord& p = point_at(i);
    std::memcpy(vec_base + aligned, p.vector.data(),
                p.vector.size() * sizeof(Scalar));
    vec_pos = aligned + p.vector.size();
  }
  NoteEncoded(msg);
  return msg;
}

Message EncodePointBatch(MessageType type, ShardId shard,
                         std::span<const PointRecord> points) {
  return EncodePointBatch(type, shard, points.size(),
                          [&](std::size_t i) -> const PointRecord& {
                            return points[i];
                          });
}

}  // namespace

// Friend of PointBatchView (declared in codec.hpp); validates every
// offset/length once so the view accessors are bounds-free.
Result<PointBatchView> DecodePointBatch(const Message& msg, MessageType expect) {
  VDB_RETURN_IF_ERROR(ExpectType(msg, expect));
  const std::uint8_t* body = msg.body.data();
  const std::size_t size = msg.body.size();
  if (size < kPointHeaderBytes) return Truncated();

  PointBatchView view;
  view.msg_ = msg;
  view.shard_ = LoadU32(body);
  view.count_ = LoadU32(body + 4);
  view.table_off_ = kPointHeaderBytes;
  view.pay_region_off_ = LoadU32(body + 8);
  view.vec_region_off_ = LoadU32(body + 12);

  const std::size_t table_end =
      view.table_off_ + view.count_ * kPointEntryBytes;
  if (view.pay_region_off_ < table_end ||
      view.vec_region_off_ < view.pay_region_off_ ||
      view.vec_region_off_ > size ||
      view.vec_region_off_ % alignof(Scalar) != 0) {
    return Truncated();
  }
  const std::size_t pay_region_bytes =
      view.vec_region_off_ - view.pay_region_off_;
  const std::size_t vec_region_scalars =
      (size - view.vec_region_off_) / sizeof(Scalar);
  std::size_t max_vec_end = 0;  // scalars
  for (std::size_t i = 0; i < view.count_; ++i) {
    const std::uint8_t* e = body + view.table_off_ + i * kPointEntryBytes;
    const std::uint64_t vec_off = LoadU32(e + 8);
    const std::uint64_t vec_len = LoadU32(e + 12);
    const std::uint64_t pay_off = LoadU32(e + 16);
    const std::uint64_t pay_len = LoadU32(e + 20);
    if (vec_off + vec_len > vec_region_scalars) return Truncated();
    if (pay_off + pay_len > pay_region_bytes) return Truncated();
    max_vec_end = std::max<std::size_t>(max_vec_end, vec_off + vec_len);
  }
  // Exact-size check: any truncated (or padded) body is rejected, matching
  // the pre-view codec's "decode consumes the whole body" behavior.
  if (size != view.vec_region_off_ + max_vec_end * sizeof(Scalar)) {
    return Truncated();
  }
  NoteDecoded(msg);
  return view;
}

// ---- PointBatchView accessors ---------------------------------------------

PointId PointBatchView::id(std::size_t i) const {
  return LoadU64(msg_.body.data() + table_off_ + i * kPointEntryBytes);
}

VectorView PointBatchView::vector(std::size_t i) const {
  const std::uint8_t* e = msg_.body.data() + table_off_ + i * kPointEntryBytes;
  const std::uint32_t off = LoadU32(e + 8);
  const std::uint32_t len = LoadU32(e + 12);
  const auto* base =
      reinterpret_cast<const Scalar*>(msg_.body.data() + vec_region_off_);
  return VectorView(base + off, len);
}

std::span<const std::uint8_t> PointBatchView::payload_bytes(std::size_t i) const {
  const std::uint8_t* e = msg_.body.data() + table_off_ + i * kPointEntryBytes;
  const std::uint32_t off = LoadU32(e + 16);
  const std::uint32_t len = LoadU32(e + 20);
  return {msg_.body.data() + pay_region_off_ + off, len};
}

Result<Payload> PointBatchView::payload(std::size_t i) const {
  const auto bytes = payload_bytes(i);
  return DecodePayload(bytes.data(), bytes.size());
}

Message EncodeUpsertBatch(ShardId shard, std::span<const PointRecord> points) {
  return EncodePointBatch(MessageType::kUpsertBatchRequest, shard, points);
}

Message EncodeUpsertBatch(ShardId shard, std::span<const PointRecord> points,
                          std::span<const std::uint32_t> indices) {
  return EncodePointBatch(MessageType::kUpsertBatchRequest, shard,
                          indices.size(),
                          [&](std::size_t i) -> const PointRecord& {
                            return points[indices[i]];
                          });
}

Message EncodeSnapshotPage(ShardId shard, std::span<const PointRecord> points) {
  return EncodePointBatch(MessageType::kSnapshotStreamResponse, shard, points);
}

Message EncodeMigrationChunk(ShardId shard, std::span<const PointRecord> points) {
  return EncodePointBatch(MessageType::kMigrationChunkRequest, shard, points);
}

Result<UpsertBatchView> DecodeUpsertBatchView(const Message& msg) {
  return DecodePointBatch(msg, MessageType::kUpsertBatchRequest);
}

Result<SnapshotPageView> DecodeSnapshotPageView(const Message& msg) {
  return DecodePointBatch(msg, MessageType::kSnapshotStreamResponse);
}

Result<MigrationChunkView> DecodeMigrationChunkView(const Message& msg) {
  return DecodePointBatch(msg, MessageType::kMigrationChunkRequest);
}

Result<Message> MigrationChunkFromSnapshotPage(const Message& page,
                                               ShardId shard) {
  VDB_RETURN_IF_ERROR(ExpectType(page, MessageType::kSnapshotStreamResponse));
  if (page.body.size() < kPointHeaderBytes) return Truncated();
  if (LoadU32(page.body.data()) != shard) {
    return Status::InvalidArgument("snapshot page belongs to another shard");
  }
  return Message{MessageType::kMigrationChunkRequest, page.body};
}

// ---- Search batch wire layout ---------------------------------------------
//
//   [0]  u32 count
//   [4]  u32 k   [8] u32 ef_search   [12] u32 n_probes
//   [16] u8 fan_out   [17] u8 allow_partial   [18] u16 pad
//   [20] u32 filter_len (bytes; 0 = no filter)
//   [24] u32 vec_region_off (64-byte aligned)
//   [28] f64 deadline_seconds
//   [36] table: count × { u32 off(scalars), u32 len(scalars) }
//        filter blob (EncodePayload of a one-field payload)
//        zero pad to vec_region_off, then the query region (each query's
//        start 64-byte aligned).

namespace {

constexpr std::size_t kSearchBatchHeaderBytes = 36;
constexpr std::size_t kSearchBatchEntryBytes = 8;

}  // namespace

Message EncodeSearchBatch(std::span<const VectorView> queries,
                          const SearchParams& params, bool fan_out,
                          bool allow_partial, const Filter& filter,
                          double deadline_seconds) {
  std::size_t vec_scalars = 0;
  for (const VectorView q : queries) {
    vec_scalars = AlignUp(vec_scalars, kVecAlignScalars) + q.size();
  }
  Payload filter_payload;
  if (filter.Active()) filter_payload[filter.field] = filter.value;
  const std::size_t filter_len =
      filter.Active() ? PayloadWireSize(filter_payload) : 0;
  const std::size_t filter_off =
      kSearchBatchHeaderBytes + queries.size() * kSearchBatchEntryBytes;
  const std::size_t vec_region_off =
      AlignUp(filter_off + filter_len, rpc::kBufferAlignment);
  const std::size_t total = vec_region_off + vec_scalars * sizeof(Scalar);

  Message msg = NewMessage(MessageType::kSearchBatchRequest, total);
  std::uint8_t* body = msg.body.MutableData();
  WriteArchive w{body};
  w(static_cast<std::uint32_t>(queries.size()),
    static_cast<std::uint32_t>(params.k),
    static_cast<std::uint32_t>(params.ef_search),
    static_cast<std::uint32_t>(params.n_probes), fan_out, allow_partial,
    std::uint16_t{0}, static_cast<std::uint32_t>(filter_len),
    static_cast<std::uint32_t>(vec_region_off), deadline_seconds);
  std::size_t vec_cursor = 0;
  for (const VectorView q : queries) {
    vec_cursor = AlignUp(vec_cursor, kVecAlignScalars);
    w(static_cast<std::uint32_t>(vec_cursor), static_cast<std::uint32_t>(q.size()));
    vec_cursor += q.size();
  }
  if (filter_len > 0) EncodePayloadTo(filter_payload, w.put.out);
  std::memset(body + filter_off + filter_len, 0,
              vec_region_off - filter_off - filter_len);
  std::size_t vec_pos = 0;
  auto* vec_base = reinterpret_cast<Scalar*>(body + vec_region_off);
  for (const VectorView q : queries) {
    const std::size_t aligned = AlignUp(vec_pos, kVecAlignScalars);
    if (aligned > vec_pos) {
      std::memset(vec_base + vec_pos, 0, (aligned - vec_pos) * sizeof(Scalar));
    }
    std::memcpy(vec_base + aligned, q.data(), q.size() * sizeof(Scalar));
    vec_pos = aligned + q.size();
  }
  NoteEncoded(msg);
  return msg;
}

Result<SearchBatchRequestView> DecodeSearchBatchRequestView(const Message& msg) {
  VDB_RETURN_IF_ERROR(ExpectType(msg, MessageType::kSearchBatchRequest));
  const std::uint8_t* body = msg.body.data();
  const std::size_t size = msg.body.size();
  if (size < kSearchBatchHeaderBytes) return Truncated();

  SearchBatchRequestView view;
  view.msg_ = msg;
  const std::size_t count = LoadU32(body);
  view.params_.k = LoadU32(body + 4);
  view.params_.ef_search = LoadU32(body + 8);
  view.params_.n_probes = LoadU32(body + 12);
  view.fan_out_ = body[16] != 0;
  view.allow_partial_ = body[17] != 0;
  const std::size_t filter_len = LoadU32(body + 20);
  const std::size_t vec_region_off = LoadU32(body + 24);
  view.deadline_seconds_ = LoadF64(body + 28);

  // The query region starts at the first aligned offset after the filter,
  // and the gap is zero: a filter length that lies cannot move bytes between
  // the filter and the padding unnoticed.
  const std::size_t filter_off =
      kSearchBatchHeaderBytes + count * kSearchBatchEntryBytes;
  const std::size_t filter_end = filter_off + filter_len;
  if (vec_region_off != AlignUp(filter_end, rpc::kBufferAlignment) ||
      vec_region_off > size) {
    return Truncated();
  }
  if (std::any_of(body + filter_end, body + vec_region_off,
                  [](std::uint8_t b) { return b != 0; })) {
    return Status::Corruption("nonzero padding in search batch");
  }
  const std::size_t vec_region_scalars = (size - vec_region_off) / sizeof(Scalar);
  const auto* vec_base = reinterpret_cast<const Scalar*>(body + vec_region_off);
  view.queries_.resize(count);
  std::size_t max_vec_end = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* e = body + kSearchBatchHeaderBytes + i * kSearchBatchEntryBytes;
    const std::uint64_t off = LoadU32(e);
    const std::uint64_t len = LoadU32(e + 4);
    if (off + len > vec_region_scalars) return Truncated();
    max_vec_end = std::max<std::size_t>(max_vec_end, off + len);
    view.queries_[i] = VectorView(vec_base + off, len);
  }
  if (size != vec_region_off + max_vec_end * sizeof(Scalar)) {
    return Truncated();
  }
  if (filter_len > 0) {
    // Exactly one field, which DecodePayload checks fills filter_len bytes.
    VDB_ASSIGN_OR_RETURN(const Payload filter_payload,
                         DecodePayload(body + filter_off, filter_len));
    if (filter_payload.size() != 1) {
      return Status::Corruption("malformed search filter");
    }
    view.filter_.field = filter_payload.begin()->first;
    view.filter_.value = filter_payload.begin()->second;
  }
  NoteDecoded(msg);
  return view;
}

// ---- Control messages: one field list per struct ---------------------------
//
// Fields(ar, m) names a message's fields once, in wire order, for the archives
// of common/archive.hpp. They sit in namespace vdb, beside the messages, where
// argument-dependent lookup finds them. The encoding rules are in codec.hpp.

void Fields(auto& ar, Is<ScoredPoint> auto& m) { ar(m.id, m.score); }
void Fields(auto& ar, Is<WalTailRecord> auto& m) { ar(m.type, m.payload); }
void Fields(auto& ar, Is<TraceWireSpan> auto& m) {
  ar(m.name, m.trace_id, m.span_id, m.parent_id, m.worker, m.node, m.shard,
     m.thread_id, m.pid, m.start_seconds, m.duration_seconds);
}
void Fields(auto& ar, Is<ErrorResponse> auto& m) { ar(m.code, m.message); }
void Fields(auto& ar, Is<UpsertBatchResponse> auto& m) { ar(m.upserted); }
void Fields(auto& ar, Is<SearchBatchResponse> auto& m) {
  ar(m.results, m.peers_failed);
}
void Fields(auto& ar, Is<DeleteRequest> auto& m) { ar(m.shard, m.id); }
void Fields(auto& ar, Is<DeleteResponse> auto& m) { ar(m.deleted); }
void Fields(auto& ar, Is<BuildIndexRequest> auto& m) { ar(m.wait); }
void Fields(auto& ar, Is<BuildIndexResponse> auto& m) {
  ar(m.build_seconds, m.indexed_points);
}
void Fields(auto& ar, Is<InfoRequest> auto&) { ar(); }
void Fields(auto& ar, Is<InfoResponse> auto& m) {
  ar(m.live_points, m.indexed_points, m.shard_count, m.index_ready);
}
void Fields(auto& ar, Is<CreateShardRequest> auto& m) { ar(m.shard); }
void Fields(auto& ar, Is<CreateShardResponse> auto& m) { ar(m.created); }
void Fields(auto& ar, Is<SnapshotStreamRequest> auto& m) {
  ar(m.shard, m.has_from, m.from, m.limit);
}
void Fields(auto& ar, Is<MigrationBeginRequest> auto& m) { ar(m.shard); }
void Fields(auto& ar, Is<MigrationBeginResponse> auto& m) { ar(m.started); }
void Fields(auto& ar, Is<MigrationChunkResponse> auto& m) {
  ar(m.applied, m.skipped);
}
void Fields(auto& ar, Is<MigrationCommitRequest> auto& m) { ar(m.shard); }
void Fields(auto& ar, Is<MigrationCommitResponse> auto& m) { ar(m.points); }
void Fields(auto& ar, Is<MigrationDeleteRequest> auto& m) { ar(m.shard, m.id); }
void Fields(auto& ar, Is<MigrationDeleteResponse> auto& m) { ar(m.applied); }
void Fields(auto& ar, Is<MigrationAbortRequest> auto& m) { ar(m.shard); }
void Fields(auto& ar, Is<MigrationAbortResponse> auto& m) { ar(m.aborted); }
void Fields(auto& ar, Is<DropShardRequest> auto& m) { ar(m.shard); }
void Fields(auto& ar, Is<DropShardResponse> auto& m) { ar(m.dropped); }
void Fields(auto& ar, Is<WalTailRequest> auto& m) {
  ar(m.shard, m.from_record, m.max_records);
}
void Fields(auto& ar, Is<WalTailResponse> auto& m) {
  ar(m.total_records, m.next_record, m.records);
}
void Fields(auto& ar, Is<MetricsPullRequest> auto& m) { ar(m.reset_window); }
void Fields(auto& ar, Is<MetricsPullResponse> auto& m) { ar(m.snapshot); }
void Fields(auto& ar, Is<TracePullRequest> auto& m) { ar(m.trace_ids); }
void Fields(auto& ar, Is<TracePullResponse> auto& m) {
  ar(m.worker, m.pid, m.epoch_unix_seconds, m.spans);
}
void Fields(auto& ar, Is<PlacementUpdate> auto& m) {
  ar(m.num_workers, m.replication, m.replicas);
}
void Fields(auto& ar, Is<UpdatePlacementResponse> auto& m) { ar(m.updated); }

namespace {

template <class T>
Message EncodeControl(MessageType type, const T& m) {
  Message msg = NewMessage(type, EncodedSize(m));
  WriteArchive{msg.body.MutableData()}(m);
  NoteEncoded(msg);
  return msg;
}

template <class T>
Result<T> DecodeControl(MessageType type, const Message& msg) {
  VDB_RETURN_IF_ERROR(ExpectType(msg, type));
  ReadArchive in(msg.body.data(), msg.body.size());
  T m;
  in(m);
  if (!in.ok()) return Truncated();
  if (!in.done()) return Status::Corruption("trailing bytes after message");
  NoteDecoded(msg);
  return m;
}

}  // namespace

#define VDB_DEFINE_CONTROL_CODEC(T, type)            \
  Message Encode##T(const T& m) {                    \
    return EncodeControl(MessageType::type, m);      \
  }                                                  \
  Result<T> Decode##T(const Message& msg) {          \
    return DecodeControl<T>(MessageType::type, msg); \
  }
VDB_CONTROL_MESSAGES(VDB_DEFINE_CONTROL_CODEC)
#undef VDB_DEFINE_CONTROL_CODEC

Message EncodeErrorResponse(const Status& status) {
  // Every status that crosses the wire as an error passes through here, so
  // this is the one choke point where the flight recorder sees all of them.
  VDB_FLIGHT(kError, "rpc.error", status.ToString(),
             static_cast<std::int64_t>(status.code()));
  const auto code = static_cast<std::int32_t>(status.code());
  return EncodeControl(MessageType::kErrorResponse,
                       ErrorResponse{code, status.message()});
}

Result<ErrorResponse> DecodeErrorResponse(const Message& msg) {
  return DecodeControl<ErrorResponse>(MessageType::kErrorResponse, msg);
}

Status MessageToStatus(const Message& msg) {
  if (msg.type != MessageType::kErrorResponse) return Status::Ok();
  auto decoded = DecodeErrorResponse(msg);
  if (!decoded.ok()) return decoded.status();
  return Status(static_cast<StatusCode>(decoded->code), decoded->message);
}

// ---- Batch-of-one wrappers (perfbench compatibility) ----------------------

Message EncodeSearch(VectorView query, const SearchParams& params, bool fan_out,
                     bool allow_partial, const Filter& filter,
                     double deadline_seconds) {
  return EncodeSearchBatch(std::span<const VectorView>(&query, 1), params,
                           fan_out, allow_partial, filter, deadline_seconds);
}

Result<SearchBatchRequestView> DecodeSearchRequestView(const Message& msg) {
  VDB_ASSIGN_OR_RETURN(SearchBatchRequestView view,
                       DecodeSearchBatchRequestView(msg));
  if (view.size() != 1) {
    return Status::InvalidArgument("not a search batch of one");
  }
  return view;
}

Message EncodeSearchResponse(const SearchResponse& response) {
  SearchBatchResponse batch;
  batch.results.push_back(response.hits);
  batch.peers_failed = response.peers_failed;
  return EncodeSearchBatchResponse(batch);
}

Result<SearchResponse> DecodeSearchResponse(const Message& msg) {
  VDB_ASSIGN_OR_RETURN(SearchBatchResponse batch, DecodeSearchBatchResponse(msg));
  if (batch.results.size() != 1) {
    return Status::InvalidArgument("not a search response of one");
  }
  return SearchResponse{std::move(batch.results[0]), batch.peers_failed};
}

Message EncodeSearchBatch(std::span<const Vector> queries,
                          const SearchParams& params, bool fan_out,
                          bool allow_partial, double deadline_seconds) {
  const std::vector<VectorView> views(queries.begin(), queries.end());
  return EncodeSearchBatch(views, params, fan_out, allow_partial, Filter{},
                           deadline_seconds);
}

}  // namespace vdb
