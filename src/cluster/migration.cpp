#include "cluster/migration.hpp"

#include <utility>
#include <vector>

#include "cluster/worker.hpp"
#include "common/logging.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "storage/wal.hpp"

namespace vdb {

void MigrationTable::Begin(ShardId shard, WorkerId from, WorkerId to) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_[shard] = Entry{shard, from, to};
  dirty_.erase(shard);
}

void MigrationTable::End(ShardId shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(shard);
}

std::optional<MigrationTable::Entry> MigrationTable::Lookup(ShardId shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = active_.find(shard);
  if (it == active_.end()) return std::nullopt;
  return it->second;
}

void MigrationTable::MarkDirty(ShardId shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  dirty_.insert(shard);
}

bool MigrationTable::Dirty(ShardId shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dirty_.count(shard) != 0;
}

bool MigrationTable::AnyActive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !active_.empty();
}

ShardMigrator::ShardMigrator(Transport& transport,
                             std::shared_ptr<MigrationTable> table,
                             MigrationOptions options)
    : transport_(transport), table_(std::move(table)), options_(std::move(options)) {}

Result<std::uint64_t> ShardMigrator::CopyShard(ShardId shard, WorkerId from,
                                               WorkerId to) {
  std::uint64_t applied = 0;
  std::uint32_t chunk_index = 0;
  SnapshotStreamRequest page_request;
  page_request.shard = shard;
  page_request.limit = options_.page_points == 0 ? 128 : options_.page_points;
  while (true) {
    const Message page_reply = transport_.Call(
        WorkerEndpoint(from), EncodeSnapshotStreamRequest(page_request));
    VDB_RETURN_IF_ERROR(MessageToStatus(page_reply));
    VDB_ASSIGN_OR_RETURN(const SnapshotPageView page,
                         DecodeSnapshotPageView(page_reply));
    if (!page.empty()) {
      VDB_ASSIGN_OR_RETURN(const Message chunk_request,
                           MigrationChunkFromSnapshotPage(page_reply, shard));
      const Message chunk_reply =
          transport_.Call(WorkerEndpoint(to), chunk_request);
      VDB_RETURN_IF_ERROR(MessageToStatus(chunk_reply));
      VDB_ASSIGN_OR_RETURN(const MigrationChunkResponse chunk,
                           DecodeMigrationChunkResponse(chunk_reply));
      applied += chunk.applied;
      if (options_.on_chunk) options_.on_chunk(chunk_index);
      ++chunk_index;
      page_request.has_from = true;
      page_request.from = page.id(page.size() - 1) + 1;
    }
    if (page.size() < page_request.limit) return applied;  // stream exhausted
  }
}

void ShardMigrator::Abort(ShardId shard, WorkerId to) {
  MigrationAbortRequest request;
  request.shard = shard;
  // The destination may be dead (chaos kills it mid-copy); its durable state
  // is swept on the next MigrationBegin, so a failed abort is not an error.
  (void)transport_.Call(WorkerEndpoint(to), EncodeMigrationAbortRequest(request));
}

Result<std::uint64_t> ShardMigrator::Move(ShardId shard, WorkerId from,
                                          WorkerId to,
                                          const std::function<Status()>& cutover) {
  if (table_ == nullptr) return Status::InvalidArgument("null migration table");
  const std::uint32_t attempts = std::max<std::uint32_t>(options_.max_attempts, 1);
  Status last = Status::Internal("migration never attempted");
  for (std::uint32_t attempt = 1; attempt <= attempts; ++attempt) {
    VDB_SPAN("migration.move", (::vdb::obs::SpanAttrs{.shard = shard}));
    // 1. Destination enters migrating-in: hidden empty shard, fresh touched
    //    set. A destination that cannot even begin is not retried here.
    MigrationBeginRequest begin;
    begin.shard = shard;
    const Message begin_reply =
        transport_.Call(WorkerEndpoint(to), EncodeMigrationBeginRequest(begin));
    VDB_RETURN_IF_ERROR(MessageToStatus(begin_reply));

    // 2. Dual-writes on: from here every client write to `shard` reaches the
    //    destination too (and marks its id touched there).
    table_->Begin(shard, from, to);
    // 3. Drain writes that predate the dual-write window, so the snapshot
    //    baseline read next covers them.
    if (options_.write_fence) options_.write_fence();

    // Failure-path teardown: stop dual-writes FIRST, then drain the in-flight
    // ones, and only then tear the destination down — aborting while
    // best-effort dual-applies are still in flight would race writes against
    // the shard's destruction.
    const auto end_and_drain = [&] {
      table_->End(shard);
      if (options_.write_fence) options_.write_fence();
    };

    auto copy = [&]() -> Status {
      VDB_RETURN_IF_ERROR(CopyShard(shard, from, to).status());
      return Status::Ok();
    }();
    if (!copy.ok()) {
      end_and_drain();
      Abort(shard, to);
      // A dead source or destination is not healed by retrying the copy.
      return copy;
    }

    if (table_->Dirty(shard)) {
      VDB_FLIGHT(kFault, "migration/" + std::to_string(shard),
                 "dirty after copy — aborting attempt", attempt);
      end_and_drain();
      Abort(shard, to);
      last = Status::Unavailable("migration of shard " + std::to_string(shard) +
                                 " dirty after copy (attempt " +
                                 std::to_string(attempt) + ")");
      continue;
    }

    // 4. Commit: the destination unhides the shard. Reads may now see it on
    //    both workers; MergeTopK dedups by point id, so the double-read
    //    window cannot double-count.
    MigrationCommitRequest commit;
    commit.shard = shard;
    const Message commit_reply =
        transport_.Call(WorkerEndpoint(to), EncodeMigrationCommitRequest(commit));
    const Status commit_status = MessageToStatus(commit_reply);
    if (!commit_status.ok()) {
      end_and_drain();
      Abort(shard, to);
      last = commit_status;
      continue;
    }
    VDB_ASSIGN_OR_RETURN(const MigrationCommitResponse committed,
                         DecodeMigrationCommitResponse(commit_reply));

    // 5. Re-fence and re-check: a dual-apply that failed while the copy was
    //    finishing marked the table dirty; catching it here (before cutover)
    //    keeps the source authoritative for the retry.
    if (options_.write_fence) options_.write_fence();
    if (table_->Dirty(shard)) {
      // The destination already committed (shard unhidden), so a plain Abort
      // would be a no-op: drop the stale copy outright.
      end_and_drain();
      DropShardRequest drop;
      drop.shard = shard;
      (void)transport_.Call(WorkerEndpoint(to), EncodeDropShardRequest(drop));
      last = Status::Unavailable("migration of shard " + std::to_string(shard) +
                                 " dirty at commit (attempt " +
                                 std::to_string(attempt) + ")");
      continue;
    }

    // 6. Cutover: placement swap everywhere. After this the destination is
    //    authoritative; dual-writes still cover the source until End.
    const Status cut = cutover();
    if (!cut.ok()) {
      // Committed but not cut over: the source still owns the shard per the
      // (unchanged) placement, so surface the error without dropping data.
      // The destination left migrating-in at commit, so an Abort would be a
      // no-op and its unhidden copy would keep serving fan-out reads as it
      // went stale — drop it instead.
      end_and_drain();
      DropShardRequest drop;
      drop.shard = shard;
      (void)transport_.Call(WorkerEndpoint(to), EncodeDropShardRequest(drop));
      return cut;
    }

    // 7. Drain writes that started under the *old* placement before dual-
    //    writes stop. Such a write lists only the source as a replica; it
    //    reaches the destination only through the migration table, which it
    //    reads after the placement. Ending first would let it read the old
    //    placement before the cutover and an empty table after End, land on
    //    the source alone and be acked, and then vanish when step 9 drops
    //    the source. Anything starting after this fence sees the post-
    //    cutover placement, which lists the destination.
    if (options_.write_fence) options_.write_fence();
    table_->End(shard);

    // 8. Drain the writes that still dual-applied to the source, so none
    //    races the drop below.
    if (options_.write_fence) options_.write_fence();

    // 9. Source cleanup, best-effort (the source may already be gone).
    DropShardRequest drop;
    drop.shard = shard;
    (void)transport_.Call(WorkerEndpoint(from), EncodeDropShardRequest(drop));
    return committed.points;
  }
  return last;
}

namespace {

/// Replays one WAL-tail response onto the destination, preserving record
/// order (an upsert-then-delete of the same id must not resurrect the point).
/// Upsert runs are batched into migration chunks — the destination's touched
/// set keeps dual-applied client writes authoritative over older tail records.
Status ReplayTail(Transport& transport, ShardId shard, WorkerId dest,
                  const WalTailResponse& tail, std::uint64_t* applied) {
  std::vector<PointRecord> pending;
  const auto flush = [&]() -> Status {
    if (pending.empty()) return Status::Ok();
    const Message reply = transport.Call(WorkerEndpoint(dest),
                                         EncodeMigrationChunk(shard, pending));
    VDB_RETURN_IF_ERROR(MessageToStatus(reply));
    VDB_RETURN_IF_ERROR(DecodeMigrationChunkResponse(reply).status());
    if (applied != nullptr) *applied += pending.size();
    pending.clear();
    return Status::Ok();
  };
  for (const WalTailRecord& record : tail.records) {
    switch (static_cast<WalRecordType>(record.type)) {
      case WalRecordType::kUpsert: {
        VDB_ASSIGN_OR_RETURN(auto decoded, DecodeUpsertPayload(record.payload));
        pending.push_back(PointRecord{decoded.id, std::move(decoded.vector),
                                      std::move(decoded.payload)});
        break;
      }
      case WalRecordType::kDelete: {
        VDB_RETURN_IF_ERROR(flush());
        VDB_ASSIGN_OR_RETURN(const PointId id, DecodeDeletePayload(record.payload));
        // Migration-plane delete, NOT a client DeleteRequest: the client path
        // would mark the id touched on the destination, and a later tail
        // upsert of the same id would then be skipped as "already
        // dual-applied" — silently losing a delete-then-reupsert sequence.
        MigrationDeleteRequest request;
        request.shard = shard;
        request.id = id;
        const Message reply = transport.Call(WorkerEndpoint(dest),
                                             EncodeMigrationDeleteRequest(request));
        // applied=false misses (id never present, or a newer touched write
        // wins) are not errors; the tail may delete an id the snapshot never
        // contained.
        VDB_RETURN_IF_ERROR(MessageToStatus(reply));
        if (applied != nullptr) ++*applied;
        break;
      }
      case WalRecordType::kCheckpoint:
        break;  // flush marker, no data
      default:
        return Status::Corruption("unknown WAL record type " +
                                  std::to_string(record.type) + " in tail");
    }
  }
  return flush();
}

}  // namespace

Result<BootstrapResult> BootstrapReplica(
    Transport& transport, ShardId shard, WorkerId source, WorkerId dest,
    const std::function<Status()>& install_placement,
    const std::function<Status()>& rollback_placement,
    const MigrationOptions& options) {
  bool placement_installed = false;
  const auto fail = [&](Status status) -> Status {
    // Never admit partial state: tear the joiner's copy down and undo the
    // placement so reads/writes stop targeting it.
    MigrationAbortRequest abort;
    abort.shard = shard;
    (void)transport.Call(WorkerEndpoint(dest), EncodeMigrationAbortRequest(abort));
    if (placement_installed && rollback_placement) {
      const Status rolled = rollback_placement();
      if (!rolled.ok()) {
        VDB_WARN << "bootstrap rollback of shard " << shard << " on worker "
                 << dest << " failed: " << rolled.ToString();
      }
    }
    return status;
  };

  // 1. Joiner enters migrating-in (hidden shard, fresh touched set).
  MigrationBeginRequest begin;
  begin.shard = shard;
  {
    const Message reply =
        transport.Call(WorkerEndpoint(dest), EncodeMigrationBeginRequest(begin));
    VDB_RETURN_IF_ERROR(MessageToStatus(reply));
  }

  // 2. The source's WAL cursor *before* the snapshot stream starts: every
  //    mutation the stream might miss has a record index >= this.
  std::uint64_t next_record = 0;
  {
    WalTailRequest cursor;
    cursor.shard = shard;
    const Message reply =
        transport.Call(WorkerEndpoint(source), EncodeWalTailRequest(cursor));
    const Status status = MessageToStatus(reply);
    if (!status.ok()) return fail(status);
    const auto decoded = DecodeWalTailResponse(reply);
    if (!decoded.ok()) return fail(decoded.status());
    next_record = decoded->total_records;
  }

  BootstrapResult result;

  // 3. Stream the snapshot, page by page, forwarding each page as a chunk.
  {
    SnapshotStreamRequest page_request;
    page_request.shard = shard;
    page_request.limit = options.page_points == 0 ? 128 : options.page_points;
    std::uint32_t chunk_index = 0;
    while (true) {
      const Message page_reply = transport.Call(
          WorkerEndpoint(source), EncodeSnapshotStreamRequest(page_request));
      const Status page_status = MessageToStatus(page_reply);
      if (!page_status.ok()) return fail(page_status);
      const auto page = DecodeSnapshotPageView(page_reply);
      if (!page.ok()) return fail(page.status());
      if (!page->empty()) {
        const auto chunk = MigrationChunkFromSnapshotPage(page_reply, shard);
        if (!chunk.ok()) return fail(chunk.status());
        const Message chunk_reply = transport.Call(WorkerEndpoint(dest), *chunk);
        const Status chunk_status = MessageToStatus(chunk_reply);
        if (!chunk_status.ok()) return fail(chunk_status);
        result.snapshot_points += page->size();
        if (options.on_chunk) options.on_chunk(chunk_index);
        ++chunk_index;
        page_request.has_from = true;
        page_request.from = page->id(page->size() - 1) + 1;
      }
      if (page->size() < page_request.limit) break;
    }
  }

  // 4. Install the replica-added placement BEFORE the final catch-up rounds:
  //    from here on, client writes reach the joiner through the normal
  //    replica fan-out (its touched set keeps them authoritative over older
  //    tail records), so the tail only has to cover a bounded window.
  if (install_placement) {
    const Status status = install_placement();
    if (!status.ok()) return fail(status);
    placement_installed = true;
  }
  if (options.write_fence) options.write_fence();

  // 5. Chase the source's WAL until caught up.
  const std::uint32_t rounds = std::max<std::uint32_t>(options.tail_rounds, 1);
  bool caught_up = false;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    WalTailRequest tail_request;
    tail_request.shard = shard;
    tail_request.from_record = next_record;
    tail_request.max_records = options.tail_batch == 0 ? 512 : options.tail_batch;
    const Message reply =
        transport.Call(WorkerEndpoint(source), EncodeWalTailRequest(tail_request));
    const Status status = MessageToStatus(reply);
    // FailedPrecondition = the source rotated the tail away (flush during the
    // catch-up): the joiner cannot recover the gap — restart the bootstrap.
    if (!status.ok()) return fail(status);
    const auto tail = DecodeWalTailResponse(reply);
    if (!tail.ok()) return fail(tail.status());
    const Status replayed = ReplayTail(transport, shard, dest, *tail, &result.wal_records);
    if (!replayed.ok()) return fail(replayed);
    next_record = tail->next_record;
    if (next_record >= tail->total_records) {
      caught_up = true;
      break;
    }
  }
  if (!caught_up) {
    return fail(Status::DeadlineExceeded(
        "replica bootstrap of shard " + std::to_string(shard) + " on worker " +
        std::to_string(dest) + " could not catch up with the source WAL"));
  }

  // 6. Commit: the joiner unhides the shard. The caller now admits it
  //    (ReplicaHealth::MarkUp) — never before this point.
  MigrationCommitRequest commit;
  commit.shard = shard;
  const Message reply =
      transport.Call(WorkerEndpoint(dest), EncodeMigrationCommitRequest(commit));
  const Status status = MessageToStatus(reply);
  if (!status.ok()) return fail(status);
  return result;
}

}  // namespace vdb
