#include "collection/collection.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "index/search_arena.hpp"
#include "obs/obs.hpp"

namespace vdb {
namespace {

/// PointRecords as a batch source (single upserts use OnePoint).
class RecordSource final : public PointBatchSource {
 public:
  explicit RecordSource(const std::vector<PointRecord>& points) : points_(points) {}
  std::size_t size() const override { return points_.size(); }
  PointId id(std::size_t i) const override { return points_[i].id; }
  VectorView vector(std::size_t i) const override { return points_[i].vector; }
  Result<Payload> payload(std::size_t i) const override { return points_[i].payload; }

 private:
  const std::vector<PointRecord>& points_;
};

class OnePoint final : public PointBatchSource {
 public:
  OnePoint(PointId id, VectorView vector, const Payload& payload)
      : id_(id), vector_(vector), payload_(payload) {}
  std::size_t size() const override { return 1; }
  PointId id(std::size_t) const override { return id_; }
  VectorView vector(std::size_t) const override { return vector_; }
  Result<Payload> payload(std::size_t) const override { return payload_; }

 private:
  PointId id_;
  VectorView vector_;
  const Payload& payload_;
};

}  // namespace

Collection::Collection(CollectionConfig config) : config_(std::move(config)) {
  store_ = std::make_unique<VectorStore>(config_.dim, config_.metric);
}

Collection::~Collection() = default;

Result<std::unique_ptr<Collection>> Collection::Open(CollectionConfig config) {
  if (config.dim == 0) return Status::InvalidArgument("dim must be > 0");
  std::unique_ptr<Collection> collection(new Collection(std::move(config)));

  const auto& cfg = collection->config_;
  if (!cfg.data_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.data_dir, ec);
    if (ec) return Status::IoError("cannot create data dir: " + ec.message());
    VDB_RETURN_IF_ERROR(collection->Recover());
    VDB_ASSIGN_OR_RETURN(WalWriter writer,
                         WalWriter::Open(cfg.data_dir / collection->wal_file_));
    collection->wal_ = std::move(writer);
    collection->logging_ = true;
  }

  VDB_ASSIGN_OR_RETURN(auto index, CreateIndex(*collection->store_, cfg.index));
  collection->index_ = std::move(index);

  // If the manifest names a persisted HNSW graph, load it instead of
  // rebuilding — valid because the graph is only ever saved when the flush
  // had zero tombstones, so recovered offsets match the graph's.
  if (!collection->pending_graph_file_.empty() && cfg.index.type == "hnsw") {
    auto* hnsw = static_cast<HnswIndex*>(collection->index_.get());
    const Status loaded =
        hnsw->LoadFromFile(cfg.data_dir / collection->pending_graph_file_);
    if (loaded.ok()) {
      collection->next_unindexed_offset_ =
          static_cast<std::uint32_t>(hnsw->NodeCount());
    } else {
      VDB_WARN << "ignoring persisted hnsw graph: " << loaded.ToString();
    }
  }

  // Likewise for a persisted SQ8 code segment: attach the mmap'd codes so
  // the compressed scan serves reads without re-training/re-encoding. The
  // segment maps code row i to store offset i, valid for the same
  // zero-tombstone reason as the graph.
  if (!collection->pending_codes_file_.empty() &&
      collection->index_->Type() == "sq8") {
    auto* sq = static_cast<SqIndex*>(collection->index_.get());
    auto mapped =
        MappedCodeSegment::Open(cfg.data_dir / collection->pending_codes_file_);
    Status attached = mapped.ok() ? sq->AttachCodeSegment(*mapped) : mapped.status();
    if (attached.ok()) {
      collection->next_unindexed_offset_ = std::min(
          static_cast<std::uint32_t>(collection->store_->Size()),
          static_cast<std::uint32_t>((*mapped)->Count()));
    } else {
      VDB_WARN << "ignoring persisted sq8 codes: " << attached.ToString();
    }
  }

  // Re-index recovered points (the WAL tail, or everything when no usable
  // graph was persisted) unless indexing is deferred.
  if (!cfg.defer_indexing && collection->store_->Size() > 0) {
    VDB_RETURN_IF_ERROR(collection->IndexPending());
  }
  return collection;
}

Status Collection::Recover() {
  const auto manifest_path = config_.data_dir / "MANIFEST";
  SnapshotManifest manifest;
  if (std::filesystem::exists(manifest_path)) {
    VDB_ASSIGN_OR_RETURN(manifest, ReadManifest(manifest_path));
    if (manifest.dim != config_.dim) {
      return Status::FailedPrecondition("on-disk dim mismatch");
    }
    for (const auto& file : manifest.segment_files) {
      VDB_ASSIGN_OR_RETURN(SegmentData segment, ReadSegment(config_.data_dir / file));
      for (std::size_t row = 0; row < segment.Count(); ++row) {
        VDB_RETURN_IF_ERROR(Upsert(segment.ids[row], segment.RowAt(row)));
      }
      flushed_segments_.push_back(file);
    }
    next_segment_seq_ = manifest.sequence + 1;
    flushed_point_count_ = store_->Size();
    first_unflushed_offset_ = static_cast<std::uint32_t>(store_->Size());
    pending_graph_file_ = manifest.hnsw_graph_file;
    pending_codes_file_ = manifest.sq8_codes_file;
    if (!manifest.wal_file.empty()) wal_file_ = manifest.wal_file;
    wal_start_record_ = manifest.wal_start_record;
  }

  // Replay WAL records beyond the manifest's cut. With a covered byte offset
  // recorded we seek straight to the uncovered tail; legacy manifests
  // (offset 0) fall back to counting off the covered records, which still
  // reads — but does not re-apply — the prefix.
  const std::uint64_t start_offset = manifest.wal_applied_offset;
  const std::uint64_t skip =
      start_offset != 0 ? 0
      : (manifest.wal_records_applied > wal_start_record_
             ? manifest.wal_records_applied - wal_start_record_
             : 0);
  std::uint64_t seen = 0;
  // Rebuild the byte-offset index for the records the scan visits (each
  // record frames as 8 header bytes + 1 type byte + payload).
  wal_offset_index_start_ =
      start_offset != 0 ? manifest.wal_records_applied : wal_start_record_;
  wal_record_offsets_.clear();
  std::uint64_t cursor = start_offset;
  auto replayed = WalReader::Replay(
      config_.data_dir / wal_file_,
      [&](const WalRecord& record) -> Status {
        ++seen;
        wal_record_offsets_.push_back(cursor);
        cursor += 9 + record.payload.size();
        if (seen <= skip) return Status::Ok();
        switch (record.type) {
          case WalRecordType::kUpsert: {
            VDB_ASSIGN_OR_RETURN(auto decoded, DecodeUpsertPayload(record.payload));
            return Upsert(decoded.id, decoded.vector, std::move(decoded.payload));
          }
          case WalRecordType::kDelete: {
            VDB_ASSIGN_OR_RETURN(PointId id, DecodeDeletePayload(record.payload));
            return Delete(id);
          }
          case WalRecordType::kCheckpoint:
            return Status::Ok();
        }
        return Status::Corruption("unknown WAL record type");
      },
      start_offset);
  if (!replayed.ok()) return replayed.status();
  recovered_wal_records_ = seen;
  // Absolute record accounting: records before the cut were never visited
  // (seek) or only counted (skip), but both paths agree on the total.
  wal_records_ = start_offset != 0 ? manifest.wal_records_applied + seen
                                   : wal_start_record_ + seen;

  // A crash between opening a rotated log and persisting the manifest that
  // names it leaves an orphan wal file (empty, or fully covered by the
  // current segment set). Sweep them so the directory holds one live log.
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.data_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == wal_file_) continue;
    if (name.rfind("wal.", 0) == 0 && name.size() >= 7 &&
        name.compare(name.size() - 4, 4, ".log") == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  return Status::Ok();
}

Status Collection::Write(const PointBatchSource& points, IndexMode mode) {
  // Phase 1, before the lock: validate, decode payloads, frame the WAL.
  const std::size_t count = points.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (points.vector(i).size() != config_.dim) {
      return Status::InvalidArgument("vector dim mismatch");
    }
    if (points.id(i) == kInvalidPointId) return Status::InvalidArgument("invalid point id");
  }
  std::vector<Payload> payloads(count);
  WalFrames frames;
  for (std::size_t i = 0; i < count; ++i) {
    VDB_ASSIGN_OR_RETURN(payloads[i], points.payload(i));
    if (logging_) frames.AddUpsert(points.id(i), points.vector(i), payloads[i]);
  }

  // Phase 1, the exclusive section: appends only.
  if (count > 0) {
    std::unique_lock lock(mutex_, std::defer_lock);
    {
      VDB_SPAN("collection.lock_wait");
      lock.lock();
    }
    if (logging_) {
      const std::uint64_t base = wal_->EndOffset();
      VDB_RETURN_IF_ERROR(wal_->AppendFrames(frames));
      for (const std::uint64_t start : frames.starts) {
        wal_record_offsets_.push_back(base + start);
      }
      wal_records_ += frames.starts.size();
    }
    for (std::size_t i = 0; i < count; ++i) {
      const PointId id = points.id(i);
      VDB_ASSIGN_OR_RETURN(const std::uint32_t offset, store_->Add(id, points.vector(i)));
      const auto [it, inserted] = id_to_offset_.try_emplace(id, offset);
      if (!inserted) {
        VDB_RETURN_IF_ERROR(store_->MarkDeleted(it->second));
        it->second = offset;
      }
      if (!payloads[i].empty()) payloads_.Set(id, std::move(payloads[i]));
    }
  }

  // Phase 2: index the tail beside searches (Qdrant's default incremental
  // mode). Recovery runs before the index exists and skips this.
  if (index_ == nullptr || (mode == IndexMode::kIncremental && config_.defer_indexing)) {
    return Status::Ok();
  }
  std::lock_guard index_lock(index_mutex_);
  {
    std::shared_lock lock(mutex_);
    const auto size = static_cast<std::uint32_t>(store_->Size());
    if (mode == IndexMode::kIncremental && size < config_.indexing_threshold) {
      return Status::Ok();
    }
    for (std::uint32_t offset = next_unindexed_offset_; offset < size; ++offset) {
      if (!store_->IsDeleted(offset)) {
        const Status status = index_->Add(offset);
        // FailedPrecondition: the index only builds in bulk (or is untrained).
        if (status.code() == StatusCode::kFailedPrecondition) {
          if (mode == IndexMode::kIncremental) return Status::Ok();
          break;
        }
        if (!status.ok() && status.code() != StatusCode::kAlreadyExists) return status;
      }
      next_unindexed_offset_.store(offset + 1, std::memory_order_release);
    }
    if (next_unindexed_offset_ >= size) return Status::Ok();
  }
  // A bulk-only index under kAll: rebuild, which searches must not see.
  std::unique_lock lock(mutex_);
  return BuildLocked();
}

Status Collection::Upsert(PointId id, VectorView vector, Payload payload) {
  return Write(OnePoint(id, vector, payload), IndexMode::kIncremental);
}

Status Collection::UpsertBatch(const std::vector<PointRecord>& points) {
  return Write(RecordSource(points), IndexMode::kIncremental);
}

Status Collection::UpsertBatch(const PointBatchSource& points) {
  return Write(points, IndexMode::kIncremental);
}

Status Collection::Delete(PointId id) {
  std::unique_lock lock(mutex_);
  const auto it = id_to_offset_.find(id);
  if (it == id_to_offset_.end()) return Status::NotFound("point not found");
  if (logging_) {
    const std::uint64_t offset = wal_->EndOffset();
    VDB_RETURN_IF_ERROR(wal_->AppendDelete(id));
    wal_record_offsets_.push_back(offset);
    ++wal_records_;
  }
  VDB_RETURN_IF_ERROR(store_->MarkDeleted(it->second));
  id_to_offset_.erase(it);
  payloads_.Remove(id);
  return Status::Ok();
}

bool Collection::Contains(PointId id) const {
  std::shared_lock lock(mutex_);
  return id_to_offset_.count(id) != 0;
}

Result<Vector> Collection::GetVector(PointId id) const {
  std::shared_lock lock(mutex_);
  const auto it = id_to_offset_.find(id);
  if (it == id_to_offset_.end()) return Status::NotFound("point not found");
  const VectorView view = store_->At(it->second);
  return Vector(view.begin(), view.end());
}

Result<Payload> Collection::GetPayload(PointId id) const {
  std::shared_lock lock(mutex_);
  if (id_to_offset_.count(id) == 0) return Status::NotFound("point not found");
  auto payload = payloads_.Get(id);
  if (!payload.ok()) return Payload{};  // point exists with empty payload
  return payload;
}

Result<std::vector<ScoredPoint>> Collection::Search(VectorView query,
                                                    SearchParams params) const {
  VDB_ASSIGN_OR_RETURN(auto results,
                       SearchBatch(std::span<const VectorView>(&query, 1), params));
  return std::move(results.front());
}

Result<std::vector<std::vector<ScoredPoint>>> Collection::SearchBatch(
    std::span<const VectorView> queries, SearchParams params) const {
  std::shared_lock lock(mutex_, std::defer_lock);
  {
    VDB_SPAN("collection.lock_wait");
    lock.lock();
  }
  for (const VectorView query : queries) {
    if (query.size() != config_.dim) return Status::InvalidArgument("query dim mismatch");
  }
  // The index serves the offsets below the watermark and [tail, size) is
  // scanned exactly. A point the index already holds above the watermark
  // shows up in both and the merge keeps one copy.
  const std::uint32_t watermark = next_unindexed_offset_.load(std::memory_order_acquire);
  const bool indexed = watermark > 0 && index_ != nullptr && index_->Ready();
  const std::uint32_t tail = indexed ? watermark : 0;
  std::vector<std::vector<ScoredPoint>> results;
  if (indexed) {
    VDB_ASSIGN_OR_RETURN(results, index_->SearchBatch(queries, params));
  } else {
    results.resize(queries.size());
  }
  if (tail >= store_->Size()) return results;
  SearchArena::Instance().ParallelFor(
      params.intra_fanout, 0, queries.size(), /*grain=*/1, [&](std::size_t q) {
        std::vector<ScoredPoint> exact = ExactSearch(*store_, queries[q], params.k, tail);
        if (!indexed) {
          results[q] = std::move(exact);
          return;
        }
        std::vector<std::vector<ScoredPoint>> parts(2);
        parts[0] = std::move(results[q]);
        parts[1] = std::move(exact);
        results[q] = MergeTopK(parts, params.k);
      });
  return results;
}

Result<std::vector<ScoredPoint>> Collection::SearchFiltered(
    VectorView query, SearchParams params, const Filter& filter) const {
  std::shared_lock lock(mutex_);
  if (query.size() != config_.dim) return Status::InvalidArgument("query dim mismatch");

  Vector normalized;
  VectorView effective = query;
  if (PrefersNormalized(config_.metric)) {
    normalized.assign(query.begin(), query.end());
    NormalizeInPlace(normalized);
    effective = normalized;
  }

  TopK collector(params.k);
  const Metric metric = store_->SearchMetric();
  for (const PointId id : payloads_.ScanEquals(filter.field, filter.value)) {
    const auto it = id_to_offset_.find(id);
    if (it == id_to_offset_.end()) continue;
    collector.Push(id, Score(metric, effective, store_->At(it->second)));
  }
  return collector.Take();
}

Status Collection::BuildIndex() {
  std::lock_guard index_lock(index_mutex_);
  std::unique_lock lock(mutex_);
  return BuildLocked();
}

Status Collection::BuildLocked() {
  if (index_ == nullptr) return Status::FailedPrecondition("no index configured");
  VDB_RETURN_IF_ERROR(index_->Build());
  next_unindexed_offset_ = static_cast<std::uint32_t>(store_->Size());
  return Status::Ok();
}

Status Collection::IndexPending() {
  if (index_ == nullptr) return Status::FailedPrecondition("no index configured");
  return Write(RecordSource({}), IndexMode::kAll);
}

std::size_t Collection::PendingIndexCount() const {
  std::shared_lock lock(mutex_);
  return store_->Size() - next_unindexed_offset_;
}

Status Collection::Flush() {
  std::unique_lock lock(mutex_);
  return FlushLocked(nullptr);
}

Status Collection::FlushLocked(SnapshotManifest* written) {
  if (config_.data_dir.empty()) return Status::Ok();  // in-memory mode: no-op

  const auto size = static_cast<std::uint32_t>(store_->Size());
  // Deletes that landed on already-flushed offsets cannot stay checkpointed
  // away in the WAL (recovery would resurrect them from the old segments), so
  // any new tombstone since the last flush forces a full compaction: one
  // fresh segment with every live point, replacing the old segment set.
  const bool need_compaction = store_->DeletedCount() > deleted_at_last_flush_;
  const std::uint32_t flush_from = need_compaction ? 0 : first_unflushed_offset_;
  if (flush_from < size || need_compaction) {
    SegmentData segment;
    segment.dim = static_cast<std::uint32_t>(config_.dim);
    segment.metric = config_.metric;
    for (std::uint32_t offset = flush_from; offset < size; ++offset) {
      if (store_->IsDeleted(offset)) continue;
      segment.ids.push_back(store_->IdAt(offset));
      const VectorView v = store_->At(offset);
      segment.vectors.insert(segment.vectors.end(), v.begin(), v.end());
    }
    if (need_compaction) {
      for (const auto& file : flushed_segments_) {
        std::error_code ec;
        std::filesystem::remove(config_.data_dir / file, ec);
      }
      flushed_segments_.clear();
    }
    if (!segment.ids.empty()) {
      const std::string file = "segment_" + std::to_string(next_segment_seq_) + ".vdb";
      VDB_RETURN_IF_ERROR(WriteSegment(config_.data_dir / file, segment));
      flushed_segments_.push_back(file);
      ++next_segment_seq_;
    }
    first_unflushed_offset_ = size;
    deleted_at_last_flush_ = store_->DeletedCount();
  }

  SnapshotManifest manifest;
  manifest.sequence = next_segment_seq_;
  manifest.dim = static_cast<std::uint32_t>(config_.dim);
  manifest.metric = std::string(MetricName(config_.metric));
  manifest.segment_files = flushed_segments_;
  manifest.wal_records_applied = wal_records_;

  // Persist the HNSW graph when it is safe: the graph references store
  // offsets, which only survive recovery unchanged if no tombstones existed
  // (segment flushes compact deleted rows away). With tombstones present, any
  // stale graph file is dropped so recovery falls back to a rebuild.
  const std::string graph_file = "graph.hnsw";
  if (config_.index.type == "hnsw" && index_ != nullptr && index_->Ready() &&
      store_->DeletedCount() == 0 && next_unindexed_offset_ >= store_->Size()) {
    auto* hnsw = static_cast<HnswIndex*>(index_.get());
    VDB_RETURN_IF_ERROR(hnsw->SaveToFile(config_.data_dir / graph_file));
    manifest.hnsw_graph_file = graph_file;
  } else {
    std::error_code ec;
    std::filesystem::remove(config_.data_dir / graph_file, ec);
  }

  // Same offset-stability rule for the SQ8 code segment: rows map to store
  // offsets identically, so it is only persisted from a fully indexed,
  // tombstone-free store.
  const std::string codes_file = "codes.sq8";
  if (index_ != nullptr && index_->Type() == "sq8" && index_->Ready() &&
      store_->DeletedCount() == 0 && next_unindexed_offset_ >= store_->Size() &&
      store_->Size() > 0) {
    auto* sq = static_cast<SqIndex*>(index_.get());
    VDB_RETURN_IF_ERROR(sq->SaveCodeSegment(config_.data_dir / codes_file));
    manifest.sq8_codes_file = codes_file;
  } else {
    std::error_code ec;
    std::filesystem::remove(config_.data_dir / codes_file, ec);
  }

  // WAL cut: every record logged so far is covered by the segment files the
  // manifest names. Rotation opens a FRESH file (never truncating one a
  // durable manifest still points at) and the manifest rename is what commits
  // the cut — a crash at any point leaves either the old manifest naming the
  // intact old log, or the new manifest naming the new one. Old log files are
  // deleted only after the rename; a crash before that just leaves covered
  // orphans for the next Recover() to sweep.
  bool rotated = false;
  const std::string previous_wal = wal_file_;
  if (wal_.has_value()) {
    VDB_RETURN_IF_ERROR(wal_->Sync());
    if (wal_->EndOffset() > 0 && wal_->EndOffset() >= config_.wal_truncate_bytes) {
      // Named by the absolute record count, which strictly increases between
      // rotations (an empty log is never rotated), so it cannot collide with
      // the live file.
      const std::string next_wal = "wal." + std::to_string(wal_records_) + ".log";
      VDB_ASSIGN_OR_RETURN(
          WalWriter fresh,
          WalWriter::Open(config_.data_dir / next_wal, /*truncate=*/true));
      wal_ = std::move(fresh);
      wal_file_ = next_wal;
      wal_start_record_ = wal_records_;
      wal_record_offsets_.clear();
      wal_offset_index_start_ = wal_records_;
      rotated = true;
    }
  }
  manifest.wal_file = wal_file_;
  manifest.wal_start_record = wal_start_record_;
  manifest.wal_applied_offset = wal_.has_value() ? wal_->EndOffset() : 0;

  VDB_RETURN_IF_ERROR(WriteManifest(config_.data_dir / "MANIFEST", manifest));

  if (rotated) {
    std::error_code ec;
    std::filesystem::remove(config_.data_dir / previous_wal, ec);
  }

  if (wal_.has_value()) {
    const std::uint64_t offset = wal_->EndOffset();
    VDB_RETURN_IF_ERROR(wal_->AppendCheckpoint(next_segment_seq_));
    wal_record_offsets_.push_back(offset);
    ++wal_records_;
    VDB_RETURN_IF_ERROR(wal_->Sync());
  }
  if (written != nullptr) *written = manifest;
  return Status::Ok();
}

std::size_t Collection::Count() const {
  std::shared_lock lock(mutex_);
  return id_to_offset_.size();
}

CollectionInfo Collection::Info() const {
  std::lock_guard index_lock(index_mutex_);  // index stats move under Add
  std::shared_lock lock(mutex_);
  CollectionInfo info;
  info.live_points = id_to_offset_.size();
  info.deleted_points = store_->DeletedCount();
  info.indexed_points = index_ != nullptr ? index_->Stats().indexed_count : 0;
  info.segments_flushed = flushed_segments_.size();
  info.wal_bytes = wal_.has_value() ? wal_->BytesWritten() : 0;
  info.memory_bytes =
      store_->MemoryBytes() + payloads_.MemoryBytes() +
      (index_ != nullptr ? index_->MemoryBytes() : 0);
  info.index_ready = index_ != nullptr && index_->Ready();
  return info;
}

std::vector<ScoredPoint> Collection::ExactSearchForTest(VectorView query,
                                                        std::size_t k) const {
  std::shared_lock lock(mutex_);
  return ExactSearch(*store_, query, k);
}

Collection::ScrollPage Collection::Scroll(std::optional<PointId> from,
                                          std::size_t limit) const {
  std::shared_lock lock(mutex_);
  ScrollPage page;
  auto it = from.has_value() ? id_to_offset_.lower_bound(*from) : id_to_offset_.begin();
  for (; it != id_to_offset_.end() && page.points.size() < limit; ++it) {
    PointRecord record;
    record.id = it->first;
    const VectorView v = store_->At(it->second);
    record.vector.assign(v.begin(), v.end());
    if (auto payload = payloads_.Get(it->first); payload.ok()) {
      record.payload = std::move(*payload);
    }
    page.points.push_back(std::move(record));
  }
  if (it != id_to_offset_.end()) page.next_from = it->first;
  return page;
}

Status Collection::SnapshotTo(const std::filesystem::path& dir) {
  std::unique_lock lock(mutex_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create snapshot dir: " + ec.message());

  SnapshotManifest manifest;
  if (config_.data_dir.empty()) {
    // In-memory collection: materialize the live set as a single segment.
    SegmentData segment;
    segment.dim = static_cast<std::uint32_t>(config_.dim);
    segment.metric = config_.metric;
    for (const auto& [id, offset] : id_to_offset_) {
      segment.ids.push_back(id);
      const VectorView v = store_->At(offset);
      segment.vectors.insert(segment.vectors.end(), v.begin(), v.end());
    }
    manifest.sequence = 1;
    if (!segment.ids.empty()) {
      const std::string file = "segment_0.vdb";
      VDB_RETURN_IF_ERROR(WriteSegment(dir / file, segment));
      manifest.segment_files.push_back(file);
    }
  } else {
    // Durable collection: cut first (after FlushLocked the union of the
    // segment set is exactly the live points), then copy the files the fresh
    // manifest references.
    SnapshotManifest cut;
    VDB_RETURN_IF_ERROR(FlushLocked(&cut));
    std::vector<std::string> files = cut.segment_files;
    if (!cut.hnsw_graph_file.empty()) files.push_back(cut.hnsw_graph_file);
    if (!cut.sq8_codes_file.empty()) files.push_back(cut.sq8_codes_file);
    for (const auto& file : files) {
      std::filesystem::copy_file(config_.data_dir / file, dir / file,
                                 std::filesystem::copy_options::overwrite_existing,
                                 ec);
      if (ec) {
        return Status::IoError("snapshot copy of " + file + " failed: " +
                               ec.message());
      }
    }
    manifest.sequence = cut.sequence;
    manifest.segment_files = cut.segment_files;
    manifest.hnsw_graph_file = cut.hnsw_graph_file;
    manifest.sq8_codes_file = cut.sq8_codes_file;
  }
  // WAL fields stay zero: a restore replays nothing and starts a fresh log.
  manifest.dim = static_cast<std::uint32_t>(config_.dim);
  manifest.metric = std::string(MetricName(config_.metric));
  return WriteManifest(dir / "MANIFEST", manifest);
}

Result<Collection::WalTail> Collection::ReadWalTail(std::uint64_t from_record,
                                                    std::size_t max_records) {
  // Exclusive lock only for the sync (the writer is not thread-safe); the
  // file scan below runs under the shared lock so catch-up rounds do not
  // stall every reader and writer for the duration.
  {
    std::unique_lock lock(mutex_);
    if (!wal_.has_value()) {
      return Status::FailedPrecondition("collection has no WAL (in-memory)");
    }
    VDB_RETURN_IF_ERROR(wal_->Sync());
  }

  std::shared_lock lock(mutex_);
  if (!wal_.has_value()) {
    return Status::FailedPrecondition("collection has no WAL (in-memory)");
  }
  // Re-validate under this lock: a flush between the two lock scopes may have
  // rotated the requested records away.
  if (from_record < wal_start_record_) {
    return Status::FailedPrecondition(
        "wal tail truncated: record " + std::to_string(from_record) +
        " rotated away (log starts at " + std::to_string(wal_start_record_) +
        ")");
  }
  WalTail tail;
  tail.total_records = wal_records_;
  tail.next_record = from_record;
  if (max_records == 0 || from_record >= wal_records_) return tail;

  // Seek straight to the requested record when its byte offset is indexed;
  // records logged before a recovery seek fall back to a skip-scan.
  std::uint64_t start_offset = 0;
  std::uint64_t skip = from_record - wal_start_record_;
  if (from_record >= wal_offset_index_start_ &&
      from_record - wal_offset_index_start_ < wal_record_offsets_.size()) {
    start_offset = wal_record_offsets_[from_record - wal_offset_index_start_];
    skip = 0;
  }
  std::uint64_t seen = 0;
  auto replayed = WalReader::Replay(
      config_.data_dir / wal_file_,
      [&](const WalRecord& record) -> Status {
        ++seen;
        if (seen <= skip) return Status::Ok();
        tail.records.push_back(record);
        return Status::Ok();
      },
      start_offset, /*max_records=*/skip + max_records);
  if (!replayed.ok()) return replayed.status();
  tail.next_record = from_record + tail.records.size();
  return tail;
}

Status Collection::ApplyWalRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kUpsert: {
      VDB_ASSIGN_OR_RETURN(auto decoded, DecodeUpsertPayload(record.payload));
      return Upsert(decoded.id, decoded.vector, std::move(decoded.payload));
    }
    case WalRecordType::kDelete: {
      VDB_ASSIGN_OR_RETURN(PointId id, DecodeDeletePayload(record.payload));
      const Status status = Delete(id);
      if (status.code() == StatusCode::kNotFound) return Status::Ok();
      return status;
    }
    case WalRecordType::kCheckpoint:
      return Status::Ok();
  }
  return Status::Corruption("unknown WAL record type");
}

std::uint64_t Collection::WalRecordCount() const {
  std::shared_lock lock(mutex_);
  return wal_records_;
}

}  // namespace vdb
