#include "storage/wal.hpp"

#include <cstring>
#include <utility>

#include "common/faults.hpp"
#include "obs/obs.hpp"
#include "storage/crc32.hpp"

namespace vdb {
namespace {

void StoreU32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void StoreU64(std::uint8_t* out, std::uint64_t v) {
  StoreU32(out, static_cast<std::uint32_t>(v));
  StoreU32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t GetU64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(GetU32(p)) |
         (static_cast<std::uint64_t>(GetU32(p + 4)) << 32);
}

// Upsert payload: [u64 id][u32 dim][dim x f32][payload blob].
std::size_t UpsertPayloadSize(VectorView vector, std::size_t payload_bytes) {
  return 12 + vector.size() * sizeof(Scalar) + payload_bytes;
}

void EncodeUpsertPayloadTo(PointId id, VectorView vector, const Payload& payload,
                           std::uint8_t* out) {
  StoreU64(out, id);
  StoreU32(out + 8, static_cast<std::uint32_t>(vector.size()));
  std::memcpy(out + 12, vector.data(), vector.size() * sizeof(Scalar));
  EncodePayloadTo(payload, out + 12 + vector.size() * sizeof(Scalar));
}

// Frame: [u32 crc][u32 length][u8 type][payload], the crc covering
// [type | payload]. OpenFrame reserves a frame for `payload_size` bytes and
// returns where they go; SealFrame writes the header once they are in place.
std::uint8_t* OpenFrame(WalFrames& frames, WalRecordType type,
                        std::size_t payload_size) {
  const std::size_t start = frames.bytes.size();
  frames.starts.push_back(start);
  frames.bytes.resize(start + 9 + payload_size);
  frames.bytes[start + 8] = static_cast<std::uint8_t>(type);
  return frames.bytes.data() + start + 9;
}

void SealFrame(WalFrames& frames) {
  std::uint8_t* frame = frames.bytes.data() + frames.starts.back();
  const std::size_t body = frames.bytes.size() - frames.starts.back() - 8;
  StoreU32(frame, Crc32c(frame + 8, body));
  StoreU32(frame + 4, static_cast<std::uint32_t>(body));
}

}  // namespace

std::vector<std::uint8_t> EncodeUpsertPayload(PointId id, VectorView vector,
                                              const Payload& payload) {
  std::vector<std::uint8_t> out(UpsertPayloadSize(vector, PayloadWireSize(payload)));
  EncodeUpsertPayloadTo(id, vector, payload, out.data());
  return out;
}

Result<WalUpsert> DecodeUpsertPayload(const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 12) return Status::Corruption("upsert payload too short");
  WalUpsert upsert;
  upsert.id = GetU64(payload.data());
  const std::uint32_t dim = GetU32(payload.data() + 8);
  const std::size_t vec_end = 12 + static_cast<std::size_t>(dim) * sizeof(Scalar);
  if (payload.size() < vec_end) {
    return Status::Corruption("upsert payload size mismatch");
  }
  upsert.vector.resize(dim);
  std::memcpy(upsert.vector.data(), payload.data() + 12, dim * sizeof(Scalar));
  // Legacy records end at the vector; newer ones append the payload blob.
  if (payload.size() > vec_end) {
    VDB_ASSIGN_OR_RETURN(upsert.payload, DecodePayload(payload.data() + vec_end,
                                                       payload.size() - vec_end));
  }
  return upsert;
}

std::vector<std::uint8_t> EncodeDeletePayload(PointId id) {
  std::vector<std::uint8_t> out(8);
  StoreU64(out.data(), id);
  return out;
}

Result<PointId> DecodeDeletePayload(const std::vector<std::uint8_t>& payload) {
  if (payload.size() != 8) return Status::Corruption("delete payload size mismatch");
  return GetU64(payload.data());
}

void WalFrames::Add(WalRecordType type, std::span<const std::uint8_t> payload) {
  std::uint8_t* out = OpenFrame(*this, type, payload.size());
  if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
  SealFrame(*this);
}

void WalFrames::AddUpsert(PointId id, VectorView vector, const Payload& payload) {
  const std::size_t size = UpsertPayloadSize(vector, PayloadWireSize(payload));
  EncodeUpsertPayloadTo(id, vector, payload, OpenFrame(*this, WalRecordType::kUpsert, size));
  SealFrame(*this);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : out_(std::move(other.out_)),
      start_offset_(std::exchange(other.start_offset_, 0)),
      bytes_written_(std::exchange(other.bytes_written_, 0)),
      pending_bytes_(std::exchange(other.pending_bytes_, 0)) {}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    ReleasePending();
    out_ = std::move(other.out_);
    start_offset_ = std::exchange(other.start_offset_, 0);
    bytes_written_ = std::exchange(other.bytes_written_, 0);
    pending_bytes_ = std::exchange(other.pending_bytes_, 0);
  }
  return *this;
}

WalWriter::~WalWriter() { ReleasePending(); }

void WalWriter::ReleasePending() {
  if (pending_bytes_ != 0) {
    VDB_GAUGE_ADD("storage.wal_pending_bytes",
                  -static_cast<std::int64_t>(pending_bytes_));
    pending_bytes_ = 0;
  }
}

Result<WalWriter> WalWriter::Open(const std::filesystem::path& path, bool truncate) {
  WalWriter writer;
  if (!truncate) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    writer.start_offset_ = ec ? 0 : size;
  }
  writer.out_.open(path, std::ios::binary |
                             (truncate ? std::ios::trunc : std::ios::app));
  if (!writer.out_.is_open()) {
    return Status::IoError("cannot open WAL at " + path.string());
  }
  return writer;
}

Status WalWriter::Append(WalRecordType type, const std::vector<std::uint8_t>& payload) {
  WalFrames frames;
  frames.Add(type, payload);
  return AppendFrames(frames);
}

Status WalWriter::AppendFrames(const WalFrames& frames) {
  VDB_SPAN("storage.wal_append");
  const std::size_t size = frames.bytes.size();
  out_.write(reinterpret_cast<const char*>(frames.bytes.data()),
             static_cast<std::streamsize>(size));
  if (!out_.good()) return Status::IoError("WAL append failed");
  bytes_written_ += size;
  // Durability exposure: bytes the caller considers logged but the OS may
  // not hold yet. The gauge's max is the widest unsynced window observed.
  pending_bytes_ += size;
  VDB_GAUGE_ADD("storage.wal_pending_bytes", static_cast<std::int64_t>(size));
  return Status::Ok();
}

Status WalWriter::AppendUpsert(PointId id, VectorView vector,
                               const Payload& payload) {
  WalFrames frames;
  frames.AddUpsert(id, vector, payload);
  return AppendFrames(frames);
}

Status WalWriter::AppendDelete(PointId id) {
  return Append(WalRecordType::kDelete, EncodeDeletePayload(id));
}

Status WalWriter::AppendCheckpoint(std::uint64_t segment_seq) {
  std::vector<std::uint8_t> payload(8);
  StoreU64(payload.data(), segment_seq);
  return Append(WalRecordType::kCheckpoint, payload);
}

Status WalWriter::Sync() {
  VDB_SPAN("storage.wal_sync");
  out_.flush();
  ReleasePending();
  return out_.good() ? Status::Ok() : Status::IoError("WAL sync failed");
}

Result<std::size_t> WalReader::Replay(
    const std::filesystem::path& path,
    const std::function<Status(const WalRecord&)>& visit,
    std::uint64_t start_offset, std::uint64_t max_records) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    // A missing WAL is an empty WAL (fresh worker).
    return static_cast<std::size_t>(0);
  }
  if (start_offset != 0) {
    in.seekg(static_cast<std::streamoff>(start_offset));
    // An offset at/past EOF means the covered prefix is the whole file.
    if (!in.good()) return static_cast<std::size_t>(0);
  }
  std::size_t count = 0;
  bool saw_torn = false;
  // One fault-plan consultation per record read (site "wal/replay"):
  // kCorrupt flips a deterministic byte before the CRC check — the record is
  // then indistinguishable from a torn tail, exercising the truncate-at-last-
  // valid-record contract; kFail models an unreadable device.
  const auto fault_plan = faults::StorageFaultPlan();
  while (true) {
    std::uint8_t header[8];
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (in.gcount() == 0) break;  // clean EOF
    if (in.gcount() < static_cast<std::streamsize>(sizeof(header))) {
      saw_torn = true;
      break;
    }
    const std::uint32_t crc = GetU32(header);
    const std::uint32_t length = GetU32(header + 4);
    if (length == 0 || length > (1u << 30)) {
      saw_torn = true;
      break;
    }
    std::vector<std::uint8_t> body(length);
    in.read(reinterpret_cast<char*>(body.data()), length);
    if (in.gcount() < static_cast<std::streamsize>(length)) {
      saw_torn = true;
      break;
    }
    if (fault_plan != nullptr) {
      const faults::FaultDecision decision = fault_plan->Evaluate("wal/replay");
      if (decision.fail) return Status::IoError("injected WAL read failure");
      if (decision.corrupt) {
        body[decision.corrupt_salt % body.size()] ^= 0xFF;
      }
    }
    if (Crc32c(body.data(), body.size()) != crc) {
      saw_torn = true;
      break;
    }
    WalRecord record;
    record.type = static_cast<WalRecordType>(body[0]);
    record.payload.assign(body.begin() + 1, body.end());
    VDB_RETURN_IF_ERROR(visit(record));
    ++count;
    if (max_records != 0 && count >= max_records) return count;
  }
  if (saw_torn) {
    // Check whether valid-looking data follows the tear: that means mid-log
    // corruption, which is a real error rather than a crash artifact.
    // (Heuristic: any further readable byte counts.)
    char probe;
    // Skip ahead one byte from the failure point and see if the stream still
    // has content.
    in.clear();
    if (in.read(&probe, 1); in.gcount() == 1) {
      // There is data after the corrupt record. Give the caller a chance to
      // notice, but preserve the recovered prefix.
      return Status::Corruption("WAL corrupt mid-log after " + std::to_string(count) +
                                " records");
    }
  }
  return count;
}

}  // namespace vdb
