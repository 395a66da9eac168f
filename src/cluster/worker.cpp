#include "cluster/worker.hpp"

#include <chrono>
#include <filesystem>
#include <future>
#include <optional>
#include <thread>

#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "common/trace.hpp"
#include "index/search_arena.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/snapshot.hpp"

namespace vdb {

std::string WorkerEndpoint(WorkerId id) { return "worker/" + std::to_string(id); }

std::string WorkerLocalEndpoint(WorkerId id) {
  return WorkerEndpoint(id) + "/local";
}

Worker::Worker(Transport& transport,
               std::shared_ptr<const ShardPlacement> placement, WorkerConfig config)
    : transport_(transport),
      placement_(std::move(placement)),
      config_(std::move(config)),
      tuner_(AdaptiveConcurrencyController::Config{
          /*core_budget=*/SearchArena::Instance().CoreBudget(),
          /*max_fanout=*/32}) {
  fault_plan_ = config_.fault_plan;
  fault_site_ = "worker/" + std::to_string(config_.id) + "/handle";
  SearchArena::Instance().RegisterWorker();
}

void Worker::SetFaultPlan(std::shared_ptr<faults::FaultPlan> plan) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  fault_plan_ = std::move(plan);
}

Worker::~Worker() {
  // Endpoints may already be gone during teardown; ignore NotFound.
  (void)transport_.UnregisterEndpoint(Endpoint());
  (void)transport_.UnregisterEndpoint(WorkerLocalEndpoint(config_.id));
  SearchArena::Instance().UnregisterWorker();
}

Result<std::unique_ptr<Worker>> Worker::Start(
    Transport& transport, std::shared_ptr<const ShardPlacement> placement,
    WorkerConfig config) {
  if (placement == nullptr) return Status::InvalidArgument("null placement");
  std::unique_ptr<Worker> worker(new Worker(transport, std::move(placement), config));
  VDB_RETURN_IF_ERROR(worker->ProvisionOwnedShards());
  Worker* raw = worker.get();
  VDB_RETURN_IF_ERROR(transport.RegisterEndpoint(
      worker->Endpoint(), [raw](const Message& request) { return raw->Handle(request); },
      config.service_threads));
  // Peer-local searches get their own service threads (see WorkerLocalEndpoint)
  // and force non-fan-out handling, so entry workers can forward their
  // original search message to peers unmodified (refcount bump, no re-encode).
  VDB_RETURN_IF_ERROR(transport.RegisterEndpoint(
      WorkerLocalEndpoint(config.id),
      [raw](const Message& request) { return raw->Handle(request, /*force_local=*/true); },
      config.service_threads));
  return worker;
}

Status Worker::EnsureShard(ShardId shard) {
  {
    std::shared_lock lock(shards_mutex_);
    if (shards_.count(shard) != 0) return Status::Ok();
  }
  CollectionConfig cfg = config_.collection_template;
  cfg.name += "/worker" + std::to_string(config_.id) + "/shard" + std::to_string(shard);
  if (!cfg.data_dir.empty()) {
    cfg.data_dir = cfg.data_dir / ("worker" + std::to_string(config_.id)) /
                   ("shard" + std::to_string(shard));
  }
  VDB_ASSIGN_OR_RETURN(auto collection, Collection::Open(std::move(cfg)));
  std::unique_lock lock(shards_mutex_);
  shards_.emplace(shard, std::move(collection));
  return Status::Ok();
}

Status Worker::ProvisionOwnedShards() {
  for (const ShardId shard : CurrentPlacement()->ShardsOwnedBy(config_.id)) {
    VDB_RETURN_IF_ERROR(EnsureShard(shard));
  }
  return Status::Ok();
}

std::shared_ptr<const ShardPlacement> Worker::CurrentPlacement() const {
  std::lock_guard<std::mutex> lock(placement_mutex_);
  return placement_;
}

void Worker::SetPlacement(std::shared_ptr<const ShardPlacement> placement) {
  {
    std::lock_guard<std::mutex> lock(placement_mutex_);
    placement_ = std::move(placement);
  }
  const Status status = ProvisionOwnedShards();
  if (!status.ok()) {
    VDB_WARN << "worker " << config_.id
             << " failed to provision shards after rebalance: " << status.ToString();
  }
}

Result<std::shared_ptr<Collection>> Worker::GetShard(ShardId shard) {
  std::shared_lock lock(shards_mutex_);
  const auto it = shards_.find(shard);
  if (it == shards_.end()) {
    return Status::NotFound("worker " + std::to_string(config_.id) +
                            " does not own shard " + std::to_string(shard));
  }
  return it->second;
}

Status Worker::DropShard(ShardId shard) {
  std::unique_lock lock(shards_mutex_);
  const auto it = shards_.find(shard);
  if (it == shards_.end()) return Status::NotFound("shard not owned");
  shards_.erase(it);
  return Status::Ok();
}

Status Worker::DropShardStorage(ShardId shard) {
  {
    std::unique_lock lock(shards_mutex_);
    shards_.erase(shard);  // closes the collection (and its WAL) first
  }
  if (!config_.collection_template.data_dir.empty()) {
    const std::filesystem::path dir =
        config_.collection_template.data_dir /
        ("worker" + std::to_string(config_.id)) /
        ("shard" + std::to_string(shard));
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    if (ec) {
      return Status::IoError("failed to remove shard dir " + dir.string() +
                             ": " + ec.message());
    }
  }
  return Status::Ok();
}

bool Worker::IsMigratingIn(ShardId shard) const {
  std::lock_guard<std::mutex> lock(migration_mutex_);
  return migrating_in_.count(shard) != 0;
}

std::unordered_set<ShardId> Worker::HiddenShards() const {
  std::lock_guard<std::mutex> lock(migration_mutex_);
  std::unordered_set<ShardId> hidden;
  for (const auto& [shard, touched] : migrating_in_) hidden.insert(shard);
  return hidden;
}

Collection* Worker::ShardForTest(ShardId shard) {
  auto result = GetShard(shard);
  return result.ok() ? result->get() : nullptr;
}

std::uint64_t Worker::LivePoints() const {
  const std::unordered_set<ShardId> hidden = HiddenShards();
  std::shared_lock lock(shards_mutex_);
  std::uint64_t total = 0;
  for (const auto& [shard, collection] : shards_) {
    if (hidden.count(shard) != 0) continue;
    total += collection->Count();
  }
  return total;
}

WorkerCounters Worker::Counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

Message Worker::Handle(const Message& request, bool force_local) {
  // Every span recorded under this dispatch — including index/storage spans
  // deep in the collection — attributes to this worker in trace timelines.
  obs::ScopedWorkerAttribution attribution(config_.id);
  if (crashed_.load(std::memory_order_acquire)) {
    return EncodeErrorResponse(Status::Unavailable(
        "worker " + std::to_string(config_.id) + " crashed (injected)"));
  }
  std::shared_ptr<faults::FaultPlan> plan;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    plan = fault_plan_;
  }
  if (plan != nullptr) {
    const faults::FaultDecision decision = plan->Evaluate(fault_site_);
    if (decision.crash) {
      VDB_FLIGHT(kFault, fault_site_, "injected crash (worker down)", 0);
      crashed_.store(true, std::memory_order_release);
      return EncodeErrorResponse(Status::Unavailable(
          "worker " + std::to_string(config_.id) + " crashed (injected)"));
    }
    if (decision.fail || decision.drop) {
      VDB_FLIGHT(kFault, fault_site_,
                 decision.fail ? "injected fail" : "injected drop", 0);
      return EncodeErrorResponse(Status::Unavailable(
          "injected fault at " + fault_site_));
    }
    if (decision.delay_seconds > 0.0) {
      VDB_FLIGHT(kFault, fault_site_, "injected delay",
                 static_cast<std::int64_t>(decision.delay_seconds * 1e6));
      std::this_thread::sleep_for(
          std::chrono::duration<double>(decision.delay_seconds));
    }
  }
  switch (request.type) {
    case MessageType::kUpsertBatchRequest: return HandleUpsert(request);
    case MessageType::kDeleteRequest: return HandleDelete(request);
    case MessageType::kSearchBatchRequest: return HandleSearch(request, force_local);
    case MessageType::kBuildIndexRequest: return HandleBuildIndex(request);
    case MessageType::kInfoRequest: return HandleInfo(request);
    case MessageType::kCreateShardRequest: return HandleCreateShard(request);
    case MessageType::kSnapshotStreamRequest: return HandleSnapshotStream(request);
    case MessageType::kMigrationBeginRequest: return HandleMigrationBegin(request);
    case MessageType::kMigrationChunkRequest: return HandleMigrationChunk(request);
    case MessageType::kMigrationDeleteRequest: return HandleMigrationDelete(request);
    case MessageType::kMigrationCommitRequest: return HandleMigrationCommit(request);
    case MessageType::kMigrationAbortRequest: return HandleMigrationAbort(request);
    case MessageType::kDropShardRequest: return HandleDropShard(request);
    case MessageType::kWalTailRequest: return HandleWalTail(request);
    case MessageType::kUpdatePlacementRequest: return HandleUpdatePlacement(request);
    case MessageType::kMetricsPullRequest: return HandleMetricsPull(request);
    case MessageType::kTracePullRequest: return HandleTracePull(request);
    default:
      return EncodeErrorResponse(
          Status::InvalidArgument("worker cannot handle message type " +
                                  std::to_string(static_cast<int>(request.type))));
  }
}

namespace {

/// Adapts a decoded wire view to Collection's zero-copy upsert interface:
/// vectors go straight from the message buffer into the store, payloads
/// decode lazily per point.
class ViewBatchSource final : public PointBatchSource {
 public:
  explicit ViewBatchSource(const PointBatchView& view) : view_(view) {}
  std::size_t size() const override { return view_.size(); }
  PointId id(std::size_t i) const override { return view_.id(i); }
  VectorView vector(std::size_t i) const override { return view_.vector(i); }
  Result<Payload> payload(std::size_t i) const override { return view_.payload(i); }

 private:
  const PointBatchView& view_;
};

}  // namespace

Message Worker::HandleUpsert(const Message& request) {
  auto view = DecodeUpsertBatchView(request);
  if (!view.ok()) return EncodeErrorResponse(view.status());
  VDB_SPAN("worker.upsert", (::vdb::obs::SpanAttrs{.shard = view->shard()}));
  auto shard = GetShard(view->shard());
  if (!shard.ok()) return EncodeErrorResponse(shard.status());
  Status status;
  {
    std::unique_lock<std::mutex> migration(migration_mutex_);
    const auto it = migrating_in_.find(view->shard());
    if (it != migrating_in_.end()) {
      // Dual-applied client write during a copy window: mark the ids touched
      // (so later copy chunks skip them) and apply under the migration lock,
      // keeping mark+apply atomic against chunk application.
      for (std::size_t i = 0; i < view->size(); ++i) it->second.insert(view->id(i));
      status = (*shard)->UpsertBatch(ViewBatchSource(*view));
    } else {
      migration.unlock();
      status = (*shard)->UpsertBatch(ViewBatchSource(*view));
    }
  }
  if (!status.ok()) return EncodeErrorResponse(status);
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.upsert_batches;
    counters_.points_upserted += view->size();
  }
  return EncodeUpsertBatchResponse(
      UpsertBatchResponse{static_cast<std::uint32_t>(view->size())});
}

Message Worker::HandleDelete(const Message& request) {
  auto decoded = DecodeDeleteRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  auto shard = GetShard(decoded->shard);
  if (!shard.ok()) return EncodeErrorResponse(shard.status());
  Status status;
  {
    std::unique_lock<std::mutex> migration(migration_mutex_);
    const auto it = migrating_in_.find(decoded->shard);
    if (it != migrating_in_.end()) {
      // A delete during the copy window also "touches" the id: a later copy
      // chunk must not resurrect the deleted point from the source snapshot.
      it->second.insert(decoded->id);
      status = (*shard)->Delete(decoded->id);
    } else {
      migration.unlock();
      status = (*shard)->Delete(decoded->id);
    }
  }
  if (!status.ok() && status.code() != StatusCode::kNotFound) {
    return EncodeErrorResponse(status);
  }
  return EncodeDeleteResponse(DeleteResponse{status.ok()});
}

std::size_t Worker::SearchWidth() const {
  SearchArena& arena = SearchArena::Instance();
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t requested =
      config_.search_threads == 0 ? hw : config_.search_threads;
  const std::size_t limit = std::min(hw, arena.FairShare());
  if (requested > limit) {
    // The default (0 = hardware) is expected to be clamped whenever several
    // workers share the arena; only an operator-set value warrants a WARN.
    if (config_.search_threads == 0) return limit;
    std::call_once(clamp_log_once_, [&] {
      VDB_WARN << "worker " << config_.id << " search_threads " << requested
               << " clamped to " << limit << " (hardware " << hw
               << ", arena budget " << arena.CoreBudget() << " across "
               << arena.RegisteredWorkers() << " workers)";
    });
    return limit;
  }
  return requested;
}

std::size_t Worker::CurrentFanout() const {
  std::lock_guard<std::mutex> lock(tuner_mutex_);
  return std::min(tuner_.IntraFanout(), SearchWidth());
}

Result<SearchBatchResponse> Worker::SearchLocal(
    const SearchBatchRequestView& view) const {
  VDB_SPAN("worker.search_local");
  const std::size_t count = view.size();
  VDB_COUNTER_ADD("worker.queries_searched", count);
  SearchBatchResponse response;
  response.results.resize(count);
  if (count == 0) return response;
  const std::span<const VectorView> queries = view.queries();

  // The whole batch runs as one Collection::SearchBatch per shard, which
  // gets the arena width in intra_fanout: a lone query takes the
  // controller's intra-query fan-out, a batch the width it grants (the two
  // spend the same arena budget). How an index spends the width is its own
  // choice — SQ8 splits its block walk, the default spreads the queries.
  SearchParams params = view.params();
  params.intra_fanout =
      count < 2 ? CurrentFanout()
                : std::min({count, SearchWidth(), [&] {
                              std::lock_guard<std::mutex> lock(tuner_mutex_);
                              return tuner_.BatchWidth();
                            }()});
  const Filter& filter = view.filter();

  // Shards mid-migration-in are invisible to reads until commit: the router
  // double-reads source+destination during a handoff, and serving a partial
  // copy here would shadow complete results from the source.
  const std::unordered_set<ShardId> hidden = HiddenShards();
  // partials[q] collects query q's hit list from every searched shard.
  std::vector<std::vector<std::vector<ScoredPoint>>> partials(count);
  const auto search_shard = [&](const Collection& collection) -> Status {
    if (filter.Active()) {
      // Predicated queries prefilter by payload equality per shard (the
      // prefiltering strategy of the paper's footnote 4).
      for (std::size_t q = 0; q < count; ++q) {
        VDB_ASSIGN_OR_RETURN(auto hits,
                             collection.SearchFiltered(queries[q], params, filter));
        partials[q].push_back(std::move(hits));
      }
      return Status::Ok();
    }
    VDB_ASSIGN_OR_RETURN(auto hits, collection.SearchBatch(queries, params));
    for (std::size_t q = 0; q < count; ++q) partials[q].push_back(std::move(hits[q]));
    return Status::Ok();
  };
  VDB_GAUGE_ADD("worker.search_backlog", static_cast<std::int64_t>(count));
  Stopwatch batch_watch;
  Status status = Status::Ok();
  {
    std::shared_lock lock(shards_mutex_);
    for (const auto& [shard, collection] : shards_) {
      if (hidden.count(shard) != 0) continue;
      status = search_shard(*collection);
      if (!status.ok()) break;
    }
  }
  const double elapsed = batch_watch.ElapsedSeconds();
  VDB_GAUGE_ADD("worker.search_backlog", -static_cast<std::int64_t>(count));
  VDB_RETURN_IF_ERROR(status);
  for (std::size_t q = 0; q < count; ++q) {
    response.results[q] = MergeTopK(partials[q], params.k);
  }

  // One controller observation per parallel batch. The batch is one walk
  // per shard, not a queue of per-query tasks, so it carries no queue wait
  // or straggler spread of its own: the service time is the thread time per
  // query, and the controller climbs on the batch's throughput.
  if (count >= 2 && elapsed > 0.0) {
    ConcurrencyObservation obs;
    obs.service_seconds = elapsed * static_cast<double>(params.intra_fanout) /
                          static_cast<double>(count);
    obs.qps = static_cast<double>(count) / elapsed;
    std::lock_guard<std::mutex> lock(tuner_mutex_);
    tuner_.Observe(obs);
  }
  return response;
}

namespace {

/// Waits for a peer's reply within the fan-out budget (`deadline_seconds`
/// counted by `watch` since fan-out started; 0 = unbounded). Returns false
/// when the budget expired before the reply arrived.
bool AwaitPeer(std::future<Message>& future, double deadline_seconds,
               const Stopwatch& watch) {
  if (deadline_seconds <= 0.0) {
    future.wait();
    return true;
  }
  const double remaining = deadline_seconds - watch.ElapsedSeconds();
  if (remaining <= 0.0) return false;
  return future.wait_for(std::chrono::duration<double>(remaining)) ==
         std::future_status::ready;
}

}  // namespace

Result<SearchBatchResponse> Worker::SearchFanOut(
    const Message& request, const SearchBatchRequestView& view) {
  VDB_SPAN("worker.fanout");
  // Broadcast to every peer worker, once per batch (not per query): the
  // batching amortization the paper measures in fig. 4. The *original*
  // message is forwarded unmodified — a buffer refcount bump per peer, no
  // re-encode. Each peer receives it on its local endpoint, which forces
  // non-fan-out handling (and local searches ignore the deadline field; the
  // entry worker owns the budget).
  Stopwatch watch;

  const std::shared_ptr<const ShardPlacement> placement = CurrentPlacement();
  std::vector<std::future<Message>> futures;
  for (WorkerId peer = 0; peer < placement->NumWorkers(); ++peer) {
    if (peer == config_.id) continue;
    futures.push_back(transport_.CallAsync(WorkerLocalEndpoint(peer), request));
    std::lock_guard<std::mutex> lock(counters_mutex_);
    ++counters_.peer_calls;
  }

  VDB_ASSIGN_OR_RETURN(SearchBatchResponse local, SearchLocal(view));

  // partials[q] collects per-worker hit lists for query q.
  std::vector<std::vector<std::vector<ScoredPoint>>> partials(view.size());
  for (std::size_t q = 0; q < local.results.size(); ++q) {
    partials[q].push_back(std::move(local.results[q]));
  }
  std::uint32_t peers_failed = 0;
  for (auto& future : futures) {
    // A peer that misses the fan-out budget counts as failed: the response
    // (if it ever lands) is abandoned rather than awaited.
    if (!AwaitPeer(future, view.deadline_seconds(), watch)) {
      if (view.allow_partial()) {
        ++peers_failed;
        continue;
      }
      return Status::DeadlineExceeded("peer fan-out exceeded " +
                                      std::to_string(view.deadline_seconds()) +
                                      "s budget");
    }
    const Message reply = future.get();
    const Status status = MessageToStatus(reply);
    if (!status.ok()) {
      // Availability-over-completeness: with allow_partial the entry worker
      // degrades gracefully when a peer is unreachable instead of failing
      // the whole query.
      if (view.allow_partial()) {
        ++peers_failed;
        continue;
      }
      return status;
    }
    VDB_ASSIGN_OR_RETURN(SearchBatchResponse partial, DecodeSearchBatchResponse(reply));
    if (partial.results.size() != view.size()) {
      return Status::Internal("peer returned mismatched batch size");
    }
    for (std::size_t q = 0; q < partial.results.size(); ++q) {
      partials[q].push_back(std::move(partial.results[q]));
    }
  }

  SearchBatchResponse response;
  response.peers_failed = peers_failed;
  response.results.reserve(view.size());
  {
    VDB_SPAN("worker.fanout.merge");
    for (auto& per_query : partials) {
      response.results.push_back(MergeTopK(per_query, view.params().k));
    }
  }
  return response;
}

Message Worker::HandleSearch(const Message& request, bool force_local) {
  auto view = DecodeSearchBatchRequestView(request);
  if (!view.ok()) return EncodeErrorResponse(view.status());
  const bool fan_out = view->fan_out() && !force_local;
  Result<SearchBatchResponse> response =
      fan_out ? SearchFanOut(request, *view) : SearchLocal(*view);
  if (!response.ok()) return EncodeErrorResponse(response.status());
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    if (fan_out) {
      ++counters_.searches_fanned_out;
    } else {
      ++counters_.searches_local;
    }
  }
  return EncodeSearchBatchResponse(*response);
}

Message Worker::HandleBuildIndex(const Message& request) {
  VDB_SPAN("worker.build_index");
  auto decoded = DecodeBuildIndexRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  BuildIndexResponse response;
  Stopwatch watch;
  std::shared_lock lock(shards_mutex_);
  for (const auto& [shard, collection] : shards_) {
    const Status status = collection->BuildIndex();
    if (!status.ok()) return EncodeErrorResponse(status);
    response.indexed_points += collection->Info().indexed_points;
  }
  response.build_seconds = watch.ElapsedSeconds();
  return EncodeBuildIndexResponse(response);
}

Message Worker::HandleInfo(const Message& request) {
  auto decoded = DecodeInfoRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  InfoResponse response;
  const std::unordered_set<ShardId> hidden = HiddenShards();
  std::shared_lock lock(shards_mutex_);
  response.shard_count =
      static_cast<std::uint32_t>(shards_.size() - std::min(shards_.size(), hidden.size()));
  response.index_ready = !shards_.empty();
  for (const auto& [shard, collection] : shards_) {
    if (hidden.count(shard) != 0) continue;
    const CollectionInfo info = collection->Info();
    response.live_points += info.live_points;
    response.indexed_points += info.indexed_points;
    response.index_ready = response.index_ready && info.index_ready;
  }
  return EncodeInfoResponse(response);
}

Message Worker::HandleCreateShard(const Message& request) {
  auto decoded = DecodeCreateShardRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  const Status status = EnsureShard(decoded->shard);
  if (!status.ok()) return EncodeErrorResponse(status);
  return EncodeCreateShardResponse(CreateShardResponse{true});
}

Message Worker::HandleSnapshotStream(const Message& request) {
  auto decoded = DecodeSnapshotStreamRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  VDB_SPAN("worker.snapshot_stream", (::vdb::obs::SpanAttrs{.shard = decoded->shard}));
  auto shard = GetShard(decoded->shard);
  if (!shard.ok()) return EncodeErrorResponse(shard.status());
  const std::optional<PointId> from =
      decoded->has_from ? std::optional<PointId>(decoded->from) : std::nullopt;
  const Collection::ScrollPage page = (*shard)->Scroll(from, decoded->limit);
  // A page shorter than `limit` tells the consumer the stream is exhausted.
  return EncodeSnapshotPage(decoded->shard, page.points);
}

Message Worker::HandleMigrationBegin(const Message& request) {
  auto decoded = DecodeMigrationBeginRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  std::lock_guard<std::mutex> migration(migration_mutex_);
  // Begin is a (re)start: a retried migration after an abort starts from a
  // clean slate, so any partial copy from the previous attempt is dropped.
  migrating_in_.erase(decoded->shard);
  const auto placement = CurrentPlacement();
  if (decoded->shard < placement->NumShards() &&
      placement->Owns(config_.id, decoded->shard)) {
    // This worker already serves the shard: re-seeding it from a source
    // snapshot would clobber live data.
    return EncodeErrorResponse(
        Status::FailedPrecondition("worker " + std::to_string(config_.id) +
                                   " already serves shard " +
                                   std::to_string(decoded->shard)));
  }
  Status status = DropShardStorage(decoded->shard);
  if (!status.ok()) return EncodeErrorResponse(status);
  status = EnsureShard(decoded->shard);
  if (!status.ok()) return EncodeErrorResponse(status);
  migrating_in_.emplace(decoded->shard, std::unordered_set<PointId>{});
  return EncodeMigrationBeginResponse(MigrationBeginResponse{true});
}

Message Worker::HandleMigrationChunk(const Message& request) {
  auto view = DecodeMigrationChunkView(request);
  if (!view.ok()) return EncodeErrorResponse(view.status());
  VDB_SPAN("worker.migration_chunk", (::vdb::obs::SpanAttrs{.shard = view->shard()}));
  std::lock_guard<std::mutex> migration(migration_mutex_);
  const auto it = migrating_in_.find(view->shard());
  if (it == migrating_in_.end()) {
    return EncodeErrorResponse(Status::FailedPrecondition(
        "shard " + std::to_string(view->shard()) + " is not migrating in"));
  }
  auto shard = GetShard(view->shard());
  if (!shard.ok()) return EncodeErrorResponse(shard.status());
  MigrationChunkResponse response;
  for (std::size_t i = 0; i < view->size(); ++i) {
    const PointId id = view->id(i);
    if (it->second.count(id) != 0) {
      // A client write dual-applied this id during the copy window; the
      // source snapshot's version is stale.
      ++response.skipped;
      continue;
    }
    auto payload = view->payload(i);
    if (!payload.ok()) return EncodeErrorResponse(payload.status());
    const Status status = (*shard)->Upsert(id, view->vector(i), std::move(*payload));
    if (!status.ok()) return EncodeErrorResponse(status);
    ++response.applied;
  }
  return EncodeMigrationChunkResponse(response);
}

Message Worker::HandleMigrationDelete(const Message& request) {
  auto decoded = DecodeMigrationDeleteRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  std::lock_guard<std::mutex> migration(migration_mutex_);
  const auto it = migrating_in_.find(decoded->shard);
  if (it == migrating_in_.end()) {
    return EncodeErrorResponse(Status::FailedPrecondition(
        "shard " + std::to_string(decoded->shard) + " is not migrating in"));
  }
  // A tail/snapshot-era tombstone. It must not enter the touched set (touched
  // means "a client write newer than any replayed record" — a later tail
  // upsert of this id would otherwise be skipped and lost), and it must not
  // clobber an id a newer dual-applied client write already touched.
  if (it->second.count(decoded->id) != 0) {
    return EncodeMigrationDeleteResponse(MigrationDeleteResponse{false});
  }
  auto shard = GetShard(decoded->shard);
  if (!shard.ok()) return EncodeErrorResponse(shard.status());
  const Status status = (*shard)->Delete(decoded->id);
  if (!status.ok() && status.code() != StatusCode::kNotFound) {
    // The tail may delete an id the snapshot never contained — not an error.
    return EncodeErrorResponse(status);
  }
  return EncodeMigrationDeleteResponse(MigrationDeleteResponse{status.ok()});
}

Message Worker::HandleMigrationCommit(const Message& request) {
  auto decoded = DecodeMigrationCommitRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  std::lock_guard<std::mutex> migration(migration_mutex_);
  const auto it = migrating_in_.find(decoded->shard);
  if (it == migrating_in_.end()) {
    return EncodeErrorResponse(Status::FailedPrecondition(
        "shard " + std::to_string(decoded->shard) + " is not migrating in"));
  }
  migrating_in_.erase(it);
  auto shard = GetShard(decoded->shard);
  if (!shard.ok()) return EncodeErrorResponse(shard.status());
  return EncodeMigrationCommitResponse(MigrationCommitResponse{(*shard)->Count()});
}

Message Worker::HandleMigrationAbort(const Message& request) {
  auto decoded = DecodeMigrationAbortRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  std::lock_guard<std::mutex> migration(migration_mutex_);
  const bool was_migrating = migrating_in_.erase(decoded->shard) != 0;
  if (was_migrating) {
    const Status status = DropShardStorage(decoded->shard);
    if (!status.ok()) return EncodeErrorResponse(status);
  }
  // Idempotent: aborting a shard that was never migrating is a no-op success
  // (the driver may abort blindly while cleaning up after a crash).
  return EncodeMigrationAbortResponse(MigrationAbortResponse{true});
}

Message Worker::HandleDropShard(const Message& request) {
  auto decoded = DecodeDropShardRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  std::lock_guard<std::mutex> migration(migration_mutex_);
  migrating_in_.erase(decoded->shard);
  const Status status = DropShardStorage(decoded->shard);
  if (!status.ok()) return EncodeErrorResponse(status);
  return EncodeDropShardResponse(DropShardResponse{true});
}

Message Worker::HandleWalTail(const Message& request) {
  auto decoded = DecodeWalTailRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  auto shard = GetShard(decoded->shard);
  if (!shard.ok()) return EncodeErrorResponse(shard.status());
  auto tail = (*shard)->ReadWalTail(decoded->from_record, decoded->max_records);
  if (!tail.ok()) return EncodeErrorResponse(tail.status());
  WalTailResponse response;
  response.total_records = tail->total_records;
  response.next_record = tail->next_record;
  response.records.reserve(tail->records.size());
  for (WalRecord& record : tail->records) {
    response.records.push_back(WalTailRecord{
        static_cast<std::uint8_t>(record.type), std::move(record.payload)});
  }
  return EncodeWalTailResponse(response);
}

Message Worker::HandleUpdatePlacement(const Message& request) {
  auto decoded = DecodePlacementUpdate(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  auto placement = ShardPlacement::FromTable(
      decoded->num_workers, decoded->replication, std::move(decoded->replicas));
  if (!placement.ok()) return EncodeErrorResponse(placement.status());
  SetPlacement(std::make_shared<const ShardPlacement>(std::move(*placement)));
  return EncodeUpdatePlacementResponse(UpdatePlacementResponse{true});
}

Message Worker::HandleMetricsPull(const Message& request) {
  auto decoded = DecodeMetricsPullRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  MetricsPullResponse resp;
#ifndef VDB_OBS_DISABLED
  obs::MetricsSnapshot snapshot =
      obs::CaptureMetricsSnapshot(decoded->reset_window);
  // The registry doesn't know whose process it lives in; the worker does.
  snapshot.worker = config_.id;
  resp.snapshot = obs::EncodeMetricsSnapshot(snapshot);
#endif
  return EncodeMetricsPullResponse(resp);
}

Message Worker::HandleTracePull(const Message& request) {
  auto decoded = DecodeTracePullRequest(request);
  if (!decoded.ok()) return EncodeErrorResponse(decoded.status());
  TracePullResponse resp;
  resp.worker = config_.id;
#ifndef VDB_OBS_DISABLED
  resp.pid = obs::ProcessId();
  resp.epoch_unix_seconds = obs::EpochUnixSeconds();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  std::vector<obs::SpanEvent> events;
  if (decoded->trace_ids.empty()) {
    events = registry.TakeAllTraceEvents();
  } else {
    for (const std::uint64_t trace_id : decoded->trace_ids) {
      std::vector<obs::SpanEvent> taken = registry.TakeTraceEvents(trace_id);
      events.insert(events.end(), std::make_move_iterator(taken.begin()),
                    std::make_move_iterator(taken.end()));
    }
  }
  resp.spans.reserve(events.size());
  for (obs::SpanEvent& event : events) {
    TraceWireSpan span;
    span.name = std::move(event.name);
    span.trace_id = event.trace_id;
    span.span_id = event.span_id;
    span.parent_id = event.parent_id;
    span.worker = event.worker;
    span.node = event.node;
    span.shard = event.shard;
    span.thread_id = event.thread_id;
    span.pid = event.pid != 0 ? event.pid : obs::ProcessId();
    span.start_seconds = event.start_seconds;
    span.duration_seconds = event.duration_seconds;
    resp.spans.push_back(std::move(span));
  }
#endif
  return EncodeTracePullResponse(resp);
}

}  // namespace vdb
