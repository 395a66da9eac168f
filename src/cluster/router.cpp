#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace vdb {

namespace {

/// Transient failures are worth retrying: the replica may come back, another
/// entry worker may answer. Everything else (corruption, bad request) is
/// surfaced immediately.
bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Remaining call budget in seconds; +inf when the policy sets no deadline.
double RemainingBudget(const ResiliencePolicy& policy, const Stopwatch& watch) {
  if (policy.call_deadline_seconds <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return policy.call_deadline_seconds - watch.ElapsedSeconds();
}

/// Waits for `future` within `remaining` seconds. True when a reply is ready.
bool WaitBudget(std::future<Message>& future, double remaining) {
  if (std::isinf(remaining)) {
    future.wait();
    return true;
  }
  if (remaining <= 0.0) return false;
  return future.wait_for(std::chrono::duration<double>(remaining)) ==
         std::future_status::ready;
}

void SleepSeconds(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

/// Per-call jitter stream: the same (policy.seed, call_index) pair always
/// yields the same backoff sequence, which is what BackoffSchedule() computes
/// as the tests' reference.
Rng CallRng(const ResiliencePolicy& policy, std::uint64_t call_index) {
  return Rng(policy.seed ^ (0x9E3779B97F4A7C15ULL * (call_index + 1)));
}

}  // namespace

double BackoffDelay(const ResiliencePolicy& policy, std::uint32_t attempt, Rng& rng) {
  double delay = policy.initial_backoff_seconds;
  for (std::uint32_t i = 1; i < attempt && delay < policy.max_backoff_seconds; ++i) {
    delay *= policy.backoff_multiplier;
  }
  delay = std::min(delay, policy.max_backoff_seconds);
  if (policy.jitter_fraction > 0.0) {
    delay *= 1.0 + rng.NextDouble(-policy.jitter_fraction, policy.jitter_fraction);
  }
  return std::max(delay, 0.0);
}

std::vector<double> BackoffSchedule(const ResiliencePolicy& policy,
                                    std::uint32_t attempts, std::uint64_t call_index) {
  Rng rng = CallRng(policy, call_index);
  std::vector<double> schedule;
  schedule.reserve(attempts);
  for (std::uint32_t attempt = 1; attempt <= attempts; ++attempt) {
    schedule.push_back(BackoffDelay(policy, attempt, rng));
  }
  return schedule;
}

Router::Router(Transport& transport,
               std::shared_ptr<const ShardPlacement> placement)
    : transport_(transport), placement_(std::move(placement)) {}

void Router::SetPlacement(std::shared_ptr<const ShardPlacement> placement) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  placement_ = std::move(placement);
}

std::shared_ptr<const ShardPlacement> Router::CurrentPlacement() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return placement_;
}

void Router::SetMigrationTable(std::shared_ptr<MigrationTable> table) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  migration_table_ = std::move(table);
}

std::shared_ptr<MigrationTable> Router::CurrentMigrationTable() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return migration_table_;
}

void Router::WriteFence() const {
  std::unique_lock lock(write_gate_);  // drains shared holders, then releases
}

void Router::SetWriteWindowHookForTest(std::function<void()> hook) {
  write_window_hook_ = std::move(hook);
}

void Router::SetResiliencePolicy(const ResiliencePolicy& policy) {
  std::lock_guard<std::mutex> lock(policy_mutex_);
  policy_ = policy;
}

ResiliencePolicy Router::GetResiliencePolicy() const {
  std::lock_guard<std::mutex> lock(policy_mutex_);
  return policy_;
}

WorkerId Router::NextEntry() {
  return next_entry_.fetch_add(1, std::memory_order_relaxed) %
         CurrentPlacement()->NumWorkers();
}

Message Router::RetryReplicaCall(const std::string& endpoint, const Message& request,
                                 const ResiliencePolicy& policy, Rng& rng,
                                 std::future<Message> first_attempt,
                                 const Stopwatch& watch) {
  std::future<Message> future = std::move(first_attempt);
  const std::uint32_t max_attempts = std::max<std::uint32_t>(policy.max_attempts, 1);
  for (std::uint32_t attempt = 1;; ++attempt) {
    if (!WaitBudget(future, RemainingBudget(policy, watch))) {
      return EncodeErrorResponse(Status::DeadlineExceeded(
          "call to " + endpoint + " exceeded the " +
          std::to_string(policy.call_deadline_seconds) + "s budget (attempt " +
          std::to_string(attempt) + ")"));
    }
    Message reply = future.get();
    const Status status = MessageToStatus(reply);
    if (status.ok() || !IsTransient(status) || attempt >= max_attempts) {
      return reply;
    }
    const double backoff = BackoffDelay(policy, attempt, rng);
    if (RemainingBudget(policy, watch) <= backoff) {
      return EncodeErrorResponse(Status::DeadlineExceeded(
          "retry budget for " + endpoint + " exhausted after " +
          std::to_string(attempt) + " attempt(s); last error: " + status.ToString()));
    }
    VDB_FLIGHT(kRetry, endpoint, status.ToString(),
               static_cast<std::int64_t>(attempt + 1));
    SleepSeconds(backoff);
    future = transport_.CallAsync(endpoint, request);
  }
}

Result<std::uint64_t> Router::UpsertBatch(std::span<const PointRecord> points) {
  VDB_SPAN("router.upsert");
  // Writers hold the gate shared for the whole call so a migration driver's
  // WriteFence() can drain in-flight writes at dual-write transitions.
  std::shared_lock write_gate(write_gate_);
  const std::shared_ptr<const ShardPlacement> placement = CurrentPlacement();
  const std::shared_ptr<MigrationTable> migrations = CurrentMigrationTable();
  if (write_window_hook_) write_window_hook_();

  // Group points by shard (the CPU-side "batch conversion" work the paper
  // profiles at 45.64 ms per 32-vector batch — here it is index-list grouping
  // + one encode pass per shard straight from the caller's memory; no
  // PointRecord is copied on the way to the wire).
  std::vector<ShardGroup> groups;
  {
    VDB_SPAN("router.upsert.convert");
    groups = GroupByShard(points, *placement);
  }

  const ResiliencePolicy policy = GetResiliencePolicy();
  Stopwatch watch;
  Rng rng = CallRng(policy, call_seq_.fetch_add(1, std::memory_order_relaxed));

  // One request per (shard, replica); primaries and replicas share the same
  // encoded message (a buffer refcount bump, not a byte copy). First attempts
  // go out in parallel; retries are driven as replies are collected. Shards
  // mid-handoff additionally dual-apply to the migration's source and
  // destination, best-effort: those failures mark the migration dirty
  // instead of failing the client call.
  struct ReplicaCall {
    WorkerId worker = 0;
    Message request;
    std::size_t primary_count = 0;
    ShardId shard = 0;
    bool best_effort = false;
  };
  std::vector<ReplicaCall> calls;
  for (const ShardGroup& group : groups) {
    const Message encoded = EncodeUpsertBatch(group.shard, points, group.indices);
    const auto& replicas = placement->ReplicasOf(group.shard);
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      calls.push_back({replicas[r], encoded, r == 0 ? group.indices.size() : 0,
                       group.shard, false});
    }
    if (migrations != nullptr) {
      if (const auto move = migrations->Lookup(group.shard)) {
        for (const WorkerId extra : {move->from, move->to}) {
          if (std::find(replicas.begin(), replicas.end(), extra) == replicas.end()) {
            calls.push_back({extra, encoded, 0, group.shard, true});
          }
        }
      }
    }
  }
  std::vector<std::future<Message>> futures;
  futures.reserve(calls.size());
  for (const auto& call : calls) {
    futures.push_back(transport_.CallAsync(WorkerEndpoint(call.worker), call.request));
  }

  // Collect every reply, as Delete does: returning at the first failure
  // would abandon the later replicas' retry loops and leave failed
  // dual-writes unmarked.
  std::uint64_t acknowledged = 0;
  std::size_t required = 0;
  std::size_t failed = 0;
  std::string failures;
  VDB_SPAN("router.upsert.await");
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ReplicaCall& call = calls[i];
    const Message reply = RetryReplicaCall(WorkerEndpoint(call.worker), call.request,
                                           policy, rng, std::move(futures[i]), watch);
    required += call.best_effort ? 0 : 1;
    Status status = MessageToStatus(reply);
    if (status.ok()) {
      const auto response = DecodeUpsertBatchResponse(reply);
      if (response.ok()) {
        if (call.primary_count > 0) acknowledged += response->upserted;
        continue;
      }
      status = response.status();
    }
    if (call.best_effort) {
      if (migrations != nullptr) migrations->MarkDirty(call.shard);
      continue;
    }
    ++failed;
    if (!failures.empty()) failures += "; ";
    failures += "worker " + std::to_string(call.worker) + " (shard " +
                std::to_string(call.shard) + "): " + status.ToString();
  }
  if (failed > 0) {
    return Status::Unavailable("upsert failed on " + std::to_string(failed) + "/" +
                               std::to_string(required) +
                               " replica call(s) — replica set may have diverged (" +
                               failures + ")");
  }
  return acknowledged;
}

Status Router::Delete(PointId id) {
  VDB_SPAN("router.delete");
  std::shared_lock write_gate(write_gate_);
  const std::shared_ptr<const ShardPlacement> placement = CurrentPlacement();
  const std::shared_ptr<MigrationTable> migrations = CurrentMigrationTable();
  if (write_window_hook_) write_window_hook_();
  const ShardId shard = placement->ShardFor(id);
  const Message request = EncodeDeleteRequest(DeleteRequest{shard, id});
  const std::vector<WorkerId> replicas = placement->ReplicasOf(shard);

  // Dual-apply to a mid-handoff shard's source and destination, best-effort
  // (failures mark the migration dirty, not the client call).
  std::vector<WorkerId> targets = replicas;
  std::size_t required = replicas.size();
  if (migrations != nullptr) {
    if (const auto move = migrations->Lookup(shard)) {
      for (const WorkerId extra : {move->from, move->to}) {
        if (std::find(targets.begin(), targets.end(), extra) == targets.end()) {
          targets.push_back(extra);
        }
      }
    }
  }

  const ResiliencePolicy policy = GetResiliencePolicy();
  Stopwatch watch;
  Rng rng = CallRng(policy, call_seq_.fetch_add(1, std::memory_order_relaxed));

  // Contact every replica in parallel and collect *all* statuses — a
  // fail-fast return here would hide replicas that silently kept the point,
  // leaving the replica set divergent without the caller knowing.
  std::vector<std::future<Message>> futures;
  futures.reserve(targets.size());
  for (const WorkerId worker : targets) {
    futures.push_back(transport_.CallAsync(WorkerEndpoint(worker), request));
  }

  bool any_deleted = false;
  std::size_t failed = 0;
  std::string failures;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const std::string endpoint = WorkerEndpoint(targets[i]);
    const Message reply = RetryReplicaCall(endpoint, request, policy, rng,
                                           std::move(futures[i]), watch);
    Status status = MessageToStatus(reply);
    if (status.ok()) {
      const auto response = DecodeDeleteResponse(reply);
      if (response.ok()) {
        if (i < required) any_deleted |= response->deleted;
        continue;
      }
      status = response.status();
    }
    if (i >= required) {
      if (migrations != nullptr) migrations->MarkDirty(shard);
      continue;
    }
    ++failed;
    if (!failures.empty()) failures += "; ";
    failures += "worker " + std::to_string(targets[i]) + ": " + status.ToString();
  }
  if (failed > 0) {
    return Status::Unavailable(
        "delete of point " + std::to_string(id) + " failed on " +
        std::to_string(failed) + "/" + std::to_string(replicas.size()) +
        " replica(s) — replica set may have diverged (" + failures + ")");
  }
  return any_deleted ? Status::Ok() : Status::NotFound("point not found in cluster");
}

Result<SearchOutcome> Router::Search(const SearchCall& call) {
  VDB_SPAN("router.search");
  VDB_GAUGE_SCOPE_INC("router.inflight");
  const ResiliencePolicy policy = GetResiliencePolicy();
  Stopwatch watch;
  Rng rng = CallRng(policy, call_seq_.fetch_add(1, std::memory_order_relaxed));
  const std::uint32_t max_attempts = std::max<std::uint32_t>(policy.max_attempts, 1);
  const bool can_hedge =
      policy.hedge_delay_seconds > 0.0 && CurrentPlacement()->NumWorkers() > 1;
  // Each attempt encodes straight from the caller's query views, so the
  // propagated budget shrinks as time burns. The entry worker keeps a sliver
  // of the budget for its local search and the top-k reduce after fan-out.
  const auto call_entry = [&](WorkerId entry) {
    const double remaining = RemainingBudget(policy, watch);
    return transport_.CallAsync(
        WorkerEndpoint(entry),
        EncodeSearchBatch(call.queries, call.params, /*fan_out=*/true,
                          policy.allow_degraded, call.filter,
                          remaining > 0.0 && !std::isinf(remaining)
                              ? remaining * 0.9
                              : 0.0));
  };
  SearchOutcome outcome;
  Status last_error = Status::Unavailable("no attempt made");

  for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      const double backoff = BackoffDelay(policy, attempt - 1, rng);
      if (RemainingBudget(policy, watch) <= backoff) break;
      VDB_FLIGHT(kRetry, "router.search", last_error.ToString(),
                 static_cast<std::int64_t>(attempt));
      SleepSeconds(backoff);
    }
    if (RemainingBudget(policy, watch) <= 0.0) break;

    const WorkerId entry = attempt == 1 && call.entry ? *call.entry : NextEntry();
    outcome.entry = entry;
    ++outcome.attempts;
    std::future<Message> future = call_entry(entry);

    Message reply;
    bool have_reply = false;
    if (can_hedge) {
      // Give the primary entry `hedge_delay_seconds`; if it has not answered,
      // fire the same request at a different entry worker and take whichever
      // replies first (tail-latency insurance, not error handling).
      const double hedge_wait =
          std::min(policy.hedge_delay_seconds, RemainingBudget(policy, watch));
      if (hedge_wait > 0.0 &&
          future.wait_for(std::chrono::duration<double>(hedge_wait)) ==
              std::future_status::ready) {
        reply = future.get();
        have_reply = true;
      } else {
        WorkerId hedge_entry = NextEntry();
        while (hedge_entry == entry) hedge_entry = NextEntry();
        outcome.hedged = true;
        ++outcome.attempts;
        VDB_FLIGHT(kRetry, WorkerEndpoint(hedge_entry), "hedge fired",
                   static_cast<std::int64_t>(entry));
        std::future<Message> hedge_future = call_entry(hedge_entry);

        // Poll both in short slices; the first ready reply wins. An error
        // winner falls back to the straggler if it still has budget.
        constexpr auto kSlice = std::chrono::microseconds(200);
        std::future<Message>* winner = nullptr;
        std::future<Message>* loser = nullptr;
        WorkerId winner_entry = entry;
        while (winner == nullptr && RemainingBudget(policy, watch) > 0.0) {
          if (future.wait_for(kSlice) == std::future_status::ready) {
            winner = &future;
            loser = &hedge_future;
            winner_entry = entry;
            break;
          }
          if (hedge_future.wait_for(kSlice) == std::future_status::ready) {
            winner = &hedge_future;
            loser = &future;
            winner_entry = hedge_entry;
            break;
          }
        }
        if (winner != nullptr) {
          reply = winner->get();
          have_reply = true;
          outcome.entry = winner_entry;
          if (!MessageToStatus(reply).ok() &&
              WaitBudget(*loser, RemainingBudget(policy, watch))) {
            Message other = loser->get();
            if (MessageToStatus(other).ok()) {
              reply = std::move(other);
              outcome.entry = (loser == &future) ? entry : hedge_entry;
            }
          }
        }
      }
    } else if (WaitBudget(future, RemainingBudget(policy, watch))) {
      reply = future.get();
      have_reply = true;
    }

    if (!have_reply) {
      last_error = Status::DeadlineExceeded(
          "entry call exceeded the " +
          std::to_string(policy.call_deadline_seconds) + "s budget on attempt " +
          std::to_string(attempt));
      break;
    }
    last_error = MessageToStatus(reply);
    if (last_error.ok()) {
      VDB_ASSIGN_OR_RETURN(SearchBatchResponse response,
                           DecodeSearchBatchResponse(reply));
      if (response.results.size() != call.queries.size()) {
        return Status::Internal("entry worker returned mismatched batch size");
      }
      outcome.results = std::move(response.results);
      outcome.peers_failed = response.peers_failed;
      outcome.degraded = response.peers_failed > 0;
      return outcome;
    }
    if (!IsTransient(last_error)) return last_error;
  }

  if (RemainingBudget(policy, watch) <= 0.0 &&
      last_error.code() != StatusCode::kDeadlineExceeded) {
    return Status::DeadlineExceeded("call budget of " +
                                    std::to_string(policy.call_deadline_seconds) +
                                    "s exhausted; last error: " +
                                    last_error.ToString());
  }
  return last_error;
}

namespace {

/// The wrappers' answer: complete results or an error. A degraded outcome
/// (allow_degraded installed, peers skipped) is Unavailable here, so partial
/// top-k only reaches callers of Search(const SearchCall&), which see the flag.
Result<std::vector<std::vector<ScoredPoint>>> CompleteResults(
    Result<SearchOutcome> outcome) {
  VDB_RETURN_IF_ERROR(outcome.status());
  if (outcome->degraded) {
    return Status::Unavailable("search reached only part of the shards: " +
                               std::to_string(outcome->peers_failed) +
                               " fan-out peer(s) failed");
  }
  return std::move(outcome->results);
}

Result<std::vector<ScoredPoint>> OnlyResult(Result<SearchOutcome> outcome) {
  VDB_ASSIGN_OR_RETURN(auto results, CompleteResults(std::move(outcome)));
  return std::move(results.front());
}

}  // namespace

Result<std::vector<ScoredPoint>> Router::Search(VectorView query,
                                                const SearchParams& params) {
  return OnlyResult(Search(SearchCall{.queries = {&query, 1}, .params = params}));
}

Result<std::vector<ScoredPoint>> Router::SearchVia(WorkerId entry, VectorView query,
                                                   const SearchParams& params) {
  return OnlyResult(
      Search(SearchCall{.queries = {&query, 1}, .params = params, .entry = entry}));
}

Result<std::vector<std::vector<ScoredPoint>>> Router::SearchBatch(
    const std::vector<Vector>& queries, const SearchParams& params) {
  const std::vector<VectorView> views(queries.begin(), queries.end());
  return CompleteResults(Search(SearchCall{.queries = views, .params = params}));
}

Result<double> Router::BuildAllIndexes() {
  const Message request = EncodeBuildIndexRequest(BuildIndexRequest{true});
  const std::shared_ptr<const ShardPlacement> placement = CurrentPlacement();
  std::vector<std::future<Message>> futures;
  for (WorkerId worker = 0; worker < placement->NumWorkers(); ++worker) {
    futures.push_back(transport_.CallAsync(WorkerEndpoint(worker), request));
  }
  double max_seconds = 0.0;
  for (auto& future : futures) {
    const Message reply = future.get();
    VDB_RETURN_IF_ERROR(MessageToStatus(reply));
    VDB_ASSIGN_OR_RETURN(const BuildIndexResponse response,
                         DecodeBuildIndexResponse(reply));
    max_seconds = std::max(max_seconds, response.build_seconds);
  }
  return max_seconds;
}

Result<std::uint64_t> Router::TotalPoints() {
  const Message request = EncodeInfoRequest(InfoRequest{});
  const std::shared_ptr<const ShardPlacement> placement = CurrentPlacement();
  std::uint64_t total = 0;
  for (WorkerId worker = 0; worker < placement->NumWorkers(); ++worker) {
    const Message reply = transport_.Call(WorkerEndpoint(worker), request);
    VDB_RETURN_IF_ERROR(MessageToStatus(reply));
    VDB_ASSIGN_OR_RETURN(const InfoResponse response, DecodeInfoResponse(reply));
    total += response.live_points;
  }
  return total;
}

}  // namespace vdb
