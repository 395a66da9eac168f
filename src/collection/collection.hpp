#pragma once

/// \file collection.hpp
/// A Collection is the unit of data a worker owns for a shard: vectors +
/// payloads + an ANN index + durability (WAL, segments). It mirrors Qdrant's
/// collection semantics: upsert/delete/search, deferred or incremental index
/// construction, and background optimization (see optimizer.hpp).

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "index/factory.hpp"
#include "storage/payload_store.hpp"
#include "storage/segment.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace vdb {

struct CollectionConfig {
  std::string name = "collection";
  std::size_t dim = kPaperDim;
  Metric metric = Metric::kCosine;
  IndexSpec index;

  /// Bulk-upload mode from the paper (section 3.3): skip incremental index
  /// maintenance during insertion; callers invoke BuildIndex() afterwards.
  bool defer_indexing = false;

  /// Incremental indexing kicks in only once this many points exist
  /// (Qdrant's `indexing_threshold`); below it searches scan exactly.
  std::size_t indexing_threshold = 0;

  /// Empty => purely in-memory (no WAL, no segments). Otherwise the directory
  /// holding wal.log / segments / MANIFEST.
  std::filesystem::path data_dir;

  /// Points per flushed segment file.
  std::size_t flush_threshold = 8192;

  /// WAL truncation policy: once a flush covers at least this many logged
  /// bytes, the log is rotated to a fresh file and the covered prefix
  /// physically deleted. 0 = rotate on every flush (the default keeps restart
  /// cost proportional to the unflushed tail). A large value keeps appending
  /// to one file; the manifest then records the covered byte offset instead.
  std::uint64_t wal_truncate_bytes = 0;
};

struct CollectionInfo {
  std::size_t live_points = 0;
  std::size_t deleted_points = 0;
  std::size_t indexed_points = 0;
  std::size_t segments_flushed = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t memory_bytes = 0;
  bool index_ready = false;
};

/// Abstract point source for zero-copy batch upserts. The RPC layer feeds
/// decoded wire views through this interface, so each vector travels straight
/// from the message buffer into the store (a single memcpy) without ever
/// materializing a PointRecord. Accessors may be called more than once per
/// index and must stay valid for the duration of the UpsertBatch call.
class PointBatchSource {
 public:
  virtual ~PointBatchSource() = default;
  virtual std::size_t size() const = 0;
  virtual PointId id(std::size_t i) const = 0;
  virtual VectorView vector(std::size_t i) const = 0;
  virtual Result<Payload> payload(std::size_t i) const = 0;
};

/// Thread-safe (readers-writer) collection.
class Collection {
 public:
  /// Creates or re-opens a collection. With a data_dir, recovery order is:
  /// segments from MANIFEST, then WAL records beyond the checkpoint.
  static Result<std::unique_ptr<Collection>> Open(CollectionConfig config);

  ~Collection();
  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;

  const CollectionConfig& Config() const { return config_; }

  /// Inserts or replaces one point (a batch of one). Replacement tombstones
  /// the old version.
  Status Upsert(PointId id, VectorView vector, Payload payload = {});

  /// Batch upsert — the unit the paper's insertion experiments tune (batch
  /// size sweep, fig. 2). All-or-nothing on argument validation. The batch
  /// is logged and appended in one exclusive section, then indexed beside
  /// searches; it returns once its points are indexed (see Write).
  Status UpsertBatch(const std::vector<PointRecord>& points);

  /// Zero-copy variant: upserts every point supplied by `points` with the
  /// same all-or-nothing dim validation, reading vectors directly from the
  /// source's buffers (the worker's decoded-view upsert path).
  Status UpsertBatch(const PointBatchSource& points);

  /// Tombstones a point.
  Status Delete(PointId id);

  /// True if `id` currently maps to a live point.
  bool Contains(PointId id) const;

  Result<Vector> GetVector(PointId id) const;
  Result<Payload> GetPayload(PointId id) const;

  /// ANN search: a batch of one (see SearchBatch).
  Result<std::vector<ScoredPoint>> Search(VectorView query, SearchParams params) const;

  /// Search for every query of a batch under one shared lock, in query
  /// order. The index serves the offsets below the indexing watermark
  /// through VectorIndex::SearchBatch (so an SQ8 index walks its codes once
  /// per batch); the unindexed tail above it is scanned exactly and merged
  /// in, which is how Qdrant treats unindexed segments. With no usable
  /// index the whole store is the tail. `params.intra_fanout` is the arena
  /// width of the whole batch.
  Result<std::vector<std::vector<ScoredPoint>>> SearchBatch(
      std::span<const VectorView> queries, SearchParams params) const;

  /// Predicated search: prefilter ids by payload equality, then exact-score
  /// the survivors (prefiltering strategy from the paper's footnote).
  Result<std::vector<ScoredPoint>> SearchFiltered(VectorView query, SearchParams params,
                                                  const Filter& filter) const;

  /// Full index (re)build over all live points — the deferred-index path the
  /// paper measures in section 3.3.
  Status BuildIndex();

  /// Indexes any points not yet in the index incrementally, rebuilding a
  /// bulk-only index (optimizer hook). Ignores `defer_indexing` and
  /// `indexing_threshold`.
  Status IndexPending();

  /// Number of points not yet visible to the index.
  std::size_t PendingIndexCount() const;

  /// Flushes buffered points to an immutable segment + WAL checkpoint, then
  /// cuts the WAL (rotation or covered-offset, per `wal_truncate_bytes`).
  Status Flush();

  /// Writes a restorable snapshot of the current state into `dir`: a flush
  /// (durable collections) or a materialized segment (in-memory ones), every
  /// segment/graph/codes file it references, and a manifest whose WAL fields
  /// are zero — `Collection::Open` on `dir` reproduces exactly the live
  /// points at the time of the call, replaying nothing. The cut is consistent
  /// (taken under the write lock).
  Status SnapshotTo(const std::filesystem::path& dir);

  /// A page of raw WAL records for replica catch-up, addressed by absolute
  /// record index. `next_record` is the cursor for the following call;
  /// `total_records` is this collection's record count at read time — the
  /// reader has caught up when `next_record == total_records` and no newer
  /// writes are possible.
  struct WalTail {
    std::vector<WalRecord> records;
    std::uint64_t next_record = 0;
    std::uint64_t total_records = 0;
  };

  /// Reads up to `max_records` records starting at absolute index
  /// `from_record` (`max_records == 0` returns only the cursor/total).
  /// FailedPrecondition when the collection has no WAL, or when `from_record`
  /// was rotated away by a flush — the caller must restart from a snapshot.
  Result<WalTail> ReadWalTail(std::uint64_t from_record, std::size_t max_records);

  /// Applies one record obtained from another replica's ReadWalTail as a
  /// normal logged write. Deleting an id this replica never saw is not an
  /// error (the tail may straddle the snapshot it catches up from).
  Status ApplyWalRecord(const WalRecord& record);

  /// Absolute count of records logged to this collection's WAL (0 when
  /// in-memory).
  std::uint64_t WalRecordCount() const;

  std::size_t Count() const;
  CollectionInfo Info() const;

  /// Exact scan baseline regardless of index state (ground truth in tests).
  std::vector<ScoredPoint> ExactSearchForTest(VectorView query, std::size_t k) const;

  /// Paged listing in ascending id order (Qdrant's scroll API). Returns up to
  /// `limit` points with ids >= `from` (std::nullopt = start), plus the id to
  /// pass as the next page's `from` (std::nullopt = exhausted).
  struct ScrollPage {
    std::vector<PointRecord> points;
    std::optional<PointId> next_from;
  };
  ScrollPage Scroll(std::optional<PointId> from, std::size_t limit) const;

 private:
  explicit Collection(CollectionConfig config);

  Status Recover();

  /// kIncremental honours `defer_indexing` and `indexing_threshold` and
  /// leaves the tail to a bulk-only index's next Build; kAll indexes
  /// regardless and rebuilds a bulk-only index (IndexPending).
  enum class IndexMode { kIncremental, kAll };

  /// The one write routine. Phase 1 (append): validation, payload decoding
  /// and the WAL frames are built before the lock; one exclusive section
  /// then writes the frames and appends to the store, id map and payloads.
  /// Phase 2 (index): under the shared lock plus `index_mutex_`, indexes
  /// every offset in [next_unindexed_offset_, store size) and advances the
  /// watermark as it goes, so searches keep running and the call returns
  /// with its own points indexed.
  Status Write(const PointBatchSource& points, IndexMode mode);

  /// Full rebuild; requires index_mutex_ and the write lock.
  Status BuildLocked();
  /// Flush body; requires the write lock. Fills `written` (when non-null)
  /// with the manifest it persisted so SnapshotTo can copy exactly the files
  /// the cut references.
  Status FlushLocked(SnapshotManifest* written);

  CollectionConfig config_;
  /// Taken only by index writers (phase 2, builds) and by Info, which reads
  /// index stats that Add changes. Lock order: index_mutex_, then mutex_.
  mutable std::mutex index_mutex_;
  mutable std::shared_mutex mutex_;
  /// Set once the WAL is open, before the collection is shared; recovery
  /// replays through Write with it still false and so logs nothing.
  bool logging_ = false;

  std::unique_ptr<VectorStore> store_;
  std::unique_ptr<VectorIndex> index_;
  PayloadStore payloads_;
  /// Ordered so Scroll() pages in stable id order.
  std::map<PointId, std::uint32_t> id_to_offset_;

  std::optional<WalWriter> wal_;
  std::string wal_file_ = "wal.log";        ///< active log, relative to data_dir
  std::uint64_t wal_start_record_ = 0;      ///< absolute index of its first record
  std::uint64_t wal_records_ = 0;           ///< absolute count ever logged
  std::uint64_t recovered_wal_records_ = 0;
  /// Byte offset (in the active log) of each record from absolute index
  /// `wal_offset_index_start_` on — ReadWalTail seeks straight to a requested
  /// record instead of rescanning the file every catch-up round. Cleared on
  /// rotation; records before a recovery seek are not indexed (tail reads for
  /// them fall back to a skip-scan).
  std::vector<std::uint64_t> wal_record_offsets_;
  std::uint64_t wal_offset_index_start_ = 0;

  std::uint64_t next_segment_seq_ = 0;
  std::vector<std::string> flushed_segments_;
  std::size_t flushed_point_count_ = 0;
  std::uint32_t first_unflushed_offset_ = 0;
  std::size_t deleted_at_last_flush_ = 0;  ///< tombstones covered by segments
  std::string pending_graph_file_;  ///< graph named by the recovered manifest
  std::string pending_codes_file_;  ///< SQ8 code segment named by the manifest

  /// Indexing watermark: every live offset below it is in the index.
  /// Advanced by phase 2 under the shared lock; searches read it once.
  std::atomic<std::uint32_t> next_unindexed_offset_{0};
};

}  // namespace vdb
