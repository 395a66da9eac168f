#include "storage/wal.hpp"

#include <cstring>
#include <utility>

#include "common/archive.hpp"
#include "common/faults.hpp"
#include "obs/obs.hpp"
#include "storage/crc32.hpp"

namespace vdb {
namespace {

// Frame: [u32 crc][u32 length][u8 type][payload], the crc covering the
// `length` bytes of [type | payload].
struct FrameHeader {
  std::uint32_t crc = 0;
  std::uint32_t length = 0;
};
constexpr std::size_t kFrameHeaderBytes = 8;

void Fields(auto& ar, Is<FrameHeader> auto& h) { ar(h.crc, h.length); }

// Upsert payload: [u64 id][u32 dim][dim x f32][payload blob]; its size is
// EncodedSize(id, vector) + PayloadWireSize(payload).
void EncodeUpsertPayloadTo(PointId id, VectorView vector, const Payload& payload,
                           std::uint8_t* out) {
  WriteArchive ar{out};
  ar(id, vector);
  EncodePayloadTo(payload, ar.put.out);
}

// OpenFrame reserves a frame for `payload_size` bytes and returns where they
// go; SealFrame writes the header once they are in place.
std::uint8_t* OpenFrame(WalFrames& frames, WalRecordType type,
                        std::size_t payload_size) {
  const std::size_t start = frames.bytes.size();
  frames.starts.push_back(start);
  frames.bytes.resize(start + kFrameHeaderBytes + 1 + payload_size);
  frames.bytes[start + kFrameHeaderBytes] = static_cast<std::uint8_t>(type);
  return frames.bytes.data() + start + kFrameHeaderBytes + 1;
}

void SealFrame(WalFrames& frames) {
  std::uint8_t* frame = frames.bytes.data() + frames.starts.back();
  FrameHeader header;
  header.length = static_cast<std::uint32_t>(frames.bytes.size() -
                                             frames.starts.back() - kFrameHeaderBytes);
  header.crc = Crc32c(frame + kFrameHeaderBytes, header.length);
  WriteArchive{frame}(header);
}

}  // namespace

std::vector<std::uint8_t> EncodeUpsertPayload(PointId id, VectorView vector,
                                              const Payload& payload) {
  std::vector<std::uint8_t> out(EncodedSize(id, vector) + PayloadWireSize(payload));
  EncodeUpsertPayloadTo(id, vector, payload, out.data());
  return out;
}

Result<WalUpsert> DecodeUpsertPayload(const std::vector<std::uint8_t>& payload) {
  ReadArchive in(payload.data(), payload.size());
  WalUpsert upsert;
  in(upsert.id, upsert.vector);
  if (!in.ok()) return Status::Corruption("upsert payload truncated");
  // Legacy records end at the vector; newer ones append the payload blob,
  // which must fill the rest of the record exactly.
  if (const auto blob = in.rest(); !blob.empty()) {
    VDB_ASSIGN_OR_RETURN(upsert.payload, DecodePayload(blob.data(), blob.size()));
  }
  return upsert;
}

std::vector<std::uint8_t> EncodeDeletePayload(PointId id) { return Encode(id); }

Result<PointId> DecodeDeletePayload(const std::vector<std::uint8_t>& payload) {
  PointId id = kInvalidPointId;
  if (!Decode(payload, id)) return Status::Corruption("delete payload size mismatch");
  return id;
}

void WalFrames::Add(WalRecordType type, std::span<const std::uint8_t> payload) {
  std::uint8_t* out = OpenFrame(*this, type, payload.size());
  if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
  SealFrame(*this);
}

void WalFrames::AddUpsert(PointId id, VectorView vector, const Payload& payload) {
  const std::size_t size = EncodedSize(id, vector) + PayloadWireSize(payload);
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
  return Append(WalRecordType::kCheckpoint, Encode(segment_seq));
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
  // Frame lengths are bounded by the bytes the file holds at open, so a frame
  // is never allocated past them.
  std::error_code ec;
  const std::uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("WAL size unreadable: " + ec.message());
  // An offset at/past EOF means the covered prefix is the whole file.
  if (start_offset >= file_bytes) return static_cast<std::size_t>(0);
  if (start_offset != 0) in.seekg(static_cast<std::streamoff>(start_offset));
  std::uint64_t pos = start_offset;  // offset of the next frame
  std::size_t count = 0;
  bool saw_torn = false;
  // One fault-plan consultation per record read (site "wal/replay"):
  // kCorrupt flips a deterministic byte before the CRC check — the record is
  // then indistinguishable from a torn tail, exercising the truncate-at-last-
  // valid-record contract; kFail models an unreadable device.
  const auto fault_plan = faults::StorageFaultPlan();
  std::vector<std::uint8_t> body;
  while (true) {
    std::uint8_t bytes[kFrameHeaderBytes];
    in.read(reinterpret_cast<char*>(bytes), sizeof(bytes));
    if (in.gcount() == 0) break;  // clean EOF
    if (in.gcount() < static_cast<std::streamsize>(sizeof(bytes))) {
      saw_torn = true;
      break;
    }
    FrameHeader header;
    Decode(bytes, header);  // eight bytes always hold it
    // A zero or implausible length is a damaged header: any data after it is
    // mid-log corruption. A plausible length that runs past the end of the
    // file is a torn tail, whose body the probe below would not find either.
    if (header.length == 0 || header.length > (1u << 30)) {
      saw_torn = true;
      break;
    }
    if (pos + kFrameHeaderBytes + header.length > file_bytes) break;
    body.resize(header.length);
    in.read(reinterpret_cast<char*>(body.data()), header.length);
    if (in.gcount() < static_cast<std::streamsize>(header.length)) {
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
    if (Crc32c(body.data(), body.size()) != header.crc) {
      saw_torn = true;
      break;
    }
    pos += kFrameHeaderBytes + header.length;
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
