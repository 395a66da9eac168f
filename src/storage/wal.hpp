#pragma once

/// \file wal.hpp
/// Append-only write-ahead log. Every mutation a worker accepts (upsert,
/// delete) is logged before acknowledgement; on restart the collection
/// replays the tail to recover state newer than the last flushed segment.
/// Record framing: [u32 crc][u32 length][u8 type][payload...], little-endian.
/// Replay stops cleanly at the first corrupt/torn record (standard WAL
/// contract — a torn tail is not an error, it is the crash point).

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "storage/payload_store.hpp"

namespace vdb {

enum class WalRecordType : std::uint8_t {
  kUpsert = 1,
  kDelete = 2,
  kCheckpoint = 3,  ///< segment flush marker; replay may skip earlier records
};

struct WalRecord {
  WalRecordType type = WalRecordType::kUpsert;
  std::vector<std::uint8_t> payload;
};

/// A decoded upsert record: the full point, including its payload metadata —
/// recovery and replica tail-replay must reproduce filtered-search state, not
/// just vectors.
struct WalUpsert {
  PointId id = kInvalidPointId;
  Vector vector;
  Payload payload;
};

/// Serialize an upsert (id + vector + payload metadata) into a WAL record
/// payload and back. Legacy records without the trailing payload blob decode
/// with an empty payload.
std::vector<std::uint8_t> EncodeUpsertPayload(PointId id, VectorView vector,
                                              const Payload& payload = {});
Result<WalUpsert> DecodeUpsertPayload(const std::vector<std::uint8_t>& payload);
std::vector<std::uint8_t> EncodeDeletePayload(PointId id);
Result<PointId> DecodeDeletePayload(const std::vector<std::uint8_t>& payload);

/// Records framed (CRC included) ahead of the write, so a caller can build a
/// batch outside its lock and log it with one WalWriter::AppendFrames call.
/// The bytes are exactly those the same records appended one by one produce.
struct WalFrames {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> starts;  ///< offset of each record within `bytes`

  void Add(WalRecordType type, std::span<const std::uint8_t> payload);
  /// Encodes the upsert payload straight into the frame (no staging copy).
  void AddUpsert(PointId id, VectorView vector, const Payload& payload);
};

/// Appender half. Not thread-safe; callers serialize (collections hold one
/// writer under their write lock).
class WalWriter {
 public:
  /// Opens (creating or appending) the log at `path`. With `truncate` the
  /// file starts empty — used when a flush rotates to a fresh log after the
  /// covered prefix has been sealed into segments.
  static Result<WalWriter> Open(const std::filesystem::path& path,
                                bool truncate = false);

  // Custom moves/destructor: pending (appended-but-unsynced) bytes feed the
  // `storage.wal_pending_bytes` gauge, and ownership of that contribution
  // must travel with the object — a moved-from writer holds zero pending.
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  ~WalWriter();

  Status Append(WalRecordType type, const std::vector<std::uint8_t>& payload);
  /// Writes pre-built frames with one stream write.
  Status AppendFrames(const WalFrames& frames);
  Status AppendUpsert(PointId id, VectorView vector, const Payload& payload = {});
  Status AppendDelete(PointId id);
  Status AppendCheckpoint(std::uint64_t segment_seq);

  /// Flushes buffered bytes to the OS.
  Status Sync();

  std::uint64_t BytesWritten() const { return bytes_written_; }

  /// Byte offset one past the last appended record: pre-existing file size at
  /// open plus everything appended since. This is the value a manifest's
  /// `wal_applied_offset` records when a flush covers every logged record.
  std::uint64_t EndOffset() const { return start_offset_ + bytes_written_; }

  /// Bytes appended since the last Sync() (durability exposure window).
  std::uint64_t PendingBytes() const { return pending_bytes_; }

 private:
  WalWriter() = default;
  void ReleasePending();

  std::ofstream out_;
  std::uint64_t start_offset_ = 0;  ///< file size at open (append mode)
  std::uint64_t bytes_written_ = 0;
  std::uint64_t pending_bytes_ = 0;
};

/// Replay half.
class WalReader {
 public:
  /// Reads every intact record, invoking `visit` in order. Returns the count
  /// of records visited. A torn/corrupt tail terminates replay silently; a
  /// corrupt record *followed by* valid data is reported as kCorruption.
  /// `start_offset` seeks past a prefix already covered by flushed segments
  /// (it must land on a record boundary — a manifest's `wal_applied_offset`);
  /// an offset at or past EOF replays nothing. `max_records` (0 = unlimited)
  /// stops after that many visits — tail serving reads one bounded page
  /// instead of scanning to EOF.
  static Result<std::size_t> Replay(
      const std::filesystem::path& path,
      const std::function<Status(const WalRecord&)>& visit,
      std::uint64_t start_offset = 0, std::uint64_t max_records = 0);
};

}  // namespace vdb
