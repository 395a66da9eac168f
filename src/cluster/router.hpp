#pragma once

/// \file router.hpp
/// Client-side routing: shards upsert batches to primary owners (fanning out
/// to replicas when replication > 1), round-robins search entry workers, and
/// exposes cluster-wide admin operations. This is the library equivalent of
/// the Qdrant client the paper drives from Python.

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "cluster/migration.hpp"
#include "cluster/placement.hpp"
#include "cluster/worker.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "rpc/transport.hpp"

namespace vdb {

/// Client-side resilience knobs. Defaults are a no-op (single attempt, no
/// deadline, no hedging) so existing callers see unchanged behaviour; chaos
/// tests and production configs opt in.
struct ResiliencePolicy {
  /// Total tries per logical call (1 = no retry). Only transient failures
  /// (Unavailable, DeadlineExceeded) are retried; upserts/deletes are
  /// idempotent so redelivery is safe.
  std::uint32_t max_attempts = 1;
  /// Bounded exponential backoff between attempts:
  /// delay(i) = min(initial * multiplier^(i-1), max) * (1 ± jitter_fraction).
  double initial_backoff_seconds = 0.001;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.050;
  double jitter_fraction = 0.0;
  /// Total wall-clock budget per logical call, spanning every retry and
  /// hedge; 0 = unbounded. The remaining budget propagates to the entry
  /// worker as the search request's deadline_seconds so slow fan-out peers
  /// are abandoned instead of awaited.
  double call_deadline_seconds = 0.0;
  /// Hedged reads (Search/SearchBatch only): when the entry worker has not
  /// answered within this delay, the same request is fired at a second entry
  /// worker (a replica of the routing tier — any worker can be entry) and
  /// the first successful reply wins. 0 = off.
  double hedge_delay_seconds = 0.0;
  /// Search(const SearchCall&) tolerates unreachable or timed-out fan-out
  /// peers and returns best-effort results flagged `degraded`; the plain
  /// Search/SearchVia/SearchBatch wrappers report such a call Unavailable.
  bool allow_degraded = false;
  /// Seed of the jitter stream; per-call streams are forked deterministically
  /// from (seed, call sequence number).
  std::uint64_t seed = 0xFA17;
};

/// Backoff before retry attempt `attempt` (1 = delay before the 2nd try),
/// consuming one jitter draw from `rng`.
double BackoffDelay(const ResiliencePolicy& policy, std::uint32_t attempt, Rng& rng);

/// The deterministic backoff sequence a fresh call with `policy` would use
/// for `attempts` retries — the unit tests' reference schedule.
std::vector<double> BackoffSchedule(const ResiliencePolicy& policy,
                                    std::uint32_t attempts, std::uint64_t call_index = 0);

/// One search request: the queries (views the caller keeps alive for the
/// call), shared params and payload-equality filter, and optionally a pinned
/// entry worker for the first attempt.
struct SearchCall {
  std::span<const VectorView> queries{};
  SearchParams params{};
  /// Applied to every query; inactive when its field is empty (paper
  /// footnote 4: workers prefilter shards by payload equality).
  Filter filter{};
  /// Entry worker of the first attempt; round-robin when unset. Retries and
  /// hedges rotate round-robin either way.
  std::optional<WorkerId> entry{};
};

/// Search results annotated with how they were obtained under faults.
struct SearchOutcome {
  /// results[i] answers queries[i].
  std::vector<std::vector<ScoredPoint>> results;
  /// Fan-out peers skipped (unreachable or past the deadline); non-zero only
  /// with allow_degraded.
  std::uint32_t peers_failed = 0;
  /// True when peers_failed > 0: results are best-effort top-k over the
  /// reachable shards.
  bool degraded = false;
  /// RPC attempts consumed (retries + the hedge, when fired).
  std::uint32_t attempts = 0;
  bool hedged = false;
  /// Entry worker whose reply was used.
  WorkerId entry = 0;
};

class Router {
 public:
  /// Transport and placement must outlive the router.
  Router(Transport& transport, std::shared_ptr<const ShardPlacement> placement);

  /// Groups `points` by owning shard (index lists — no PointRecord copies)
  /// and sends one UpsertBatch per replica of each shard, encoding each
  /// shard's subset straight from the caller's memory. Returns total points
  /// acknowledged by primaries.
  Result<std::uint64_t> UpsertBatch(std::span<const PointRecord> points);

  /// Deletes a point on every replica of its shard. All replicas are
  /// contacted (in parallel, with policy retries); if any replica fails the
  /// returned status names every failed replica so callers know the replica
  /// set may have diverged — a delete is only successful when *all* replicas
  /// acknowledged it.
  Status Delete(PointId id);

  /// The one search call: `call.queries` go to an entry worker in one RPC,
  /// and the entry broadcasts them once to every peer and reduces per query
  /// (the paper's section 3.4 execution model; fig. 4's query batch — a lone
  /// query is a batch of one). It runs under the installed ResiliencePolicy:
  /// retries rotate the entry worker, the call deadline propagates to the
  /// fan-out, hedges fire at a second entry, and allow_degraded returns
  /// partial results instead of failing when peers are down. Backoff is
  /// deterministic given the policy seed. The default policy is one attempt
  /// with no deadline and no hedge.
  Result<SearchOutcome> Search(const SearchCall& call);

  /// One query through Search(SearchCall) at a round-robin entry worker.
  /// These wrappers return complete answers only: a degraded outcome (see
  /// allow_degraded) is Unavailable, never a silent partial top-k.
  Result<std::vector<ScoredPoint>> Search(VectorView query, const SearchParams& params);

  /// Same, pinning the entry worker (experiments & tests).
  Result<std::vector<ScoredPoint>> SearchVia(WorkerId entry, VectorView query,
                                             const SearchParams& params);

  /// A batch through Search(SearchCall); results[i] answers queries[i].
  Result<std::vector<std::vector<ScoredPoint>>> SearchBatch(
      const std::vector<Vector>& queries, const SearchParams& params);

  /// Installs the resilience policy applied by Search and by
  /// UpsertBatch/Delete retries. Thread-safe; install before traffic for
  /// reproducible backoff streams.
  void SetResiliencePolicy(const ResiliencePolicy& policy);
  ResiliencePolicy GetResiliencePolicy() const;

  /// Triggers a full index build on every worker; returns max build seconds.
  Result<double> BuildAllIndexes();

  /// Aggregated point count across workers.
  Result<std::uint64_t> TotalPoints();

  /// Replaces the routing placement after a rebalance/cutover. Safe to call
  /// while other threads route traffic (they keep their snapshot).
  void SetPlacement(std::shared_ptr<const ShardPlacement> placement);

  /// Snapshot of the current routing placement.
  std::shared_ptr<const ShardPlacement> Placement() const { return CurrentPlacement(); }

  /// Attaches the live-migration table. While a shard is listed there,
  /// UpsertBatch/Delete additionally apply each write to the migration's
  /// source and destination workers, best-effort: an extra-target failure
  /// marks the migration dirty (the driver aborts and retries the copy)
  /// instead of failing the client call — the client contract stays
  /// "acked by the placement replicas".
  void SetMigrationTable(std::shared_ptr<MigrationTable> table);

  /// Blocks until every UpsertBatch/Delete that started before this call has
  /// returned. The migration driver fences after flipping dual-writes on so
  /// writes that predate the dual-write window are fully applied before the
  /// copy baseline is read.
  void WriteFence() const;

  /// Test hook that UpsertBatch and Delete run after reading the placement
  /// and before looking up the migration table: the window a migration
  /// cutover has to fence. Install before traffic; empty by default.
  void SetWriteWindowHookForTest(std::function<void()> hook);

 private:
  WorkerId NextEntry();

  std::shared_ptr<const ShardPlacement> CurrentPlacement() const;
  std::shared_ptr<MigrationTable> CurrentMigrationTable() const;

  /// Drives one replica call to completion under the policy: waits on the
  /// already-launched first attempt, then retries transient failures with
  /// backoff until success, a permanent error, attempts exhaust, or the
  /// call deadline (tracked by `watch`) expires. No hedging — writes target
  /// a fixed replica. Returns the final reply (possibly an ErrorResponse).
  Message RetryReplicaCall(const std::string& endpoint, const Message& request,
                           const ResiliencePolicy& policy, Rng& rng,
                           std::future<Message> first_attempt, const Stopwatch& watch);

  Transport& transport_;
  mutable std::mutex state_mutex_;  // guards placement_ and migration_table_
  std::shared_ptr<const ShardPlacement> placement_;
  std::shared_ptr<MigrationTable> migration_table_;
  /// Writers hold this shared for the duration of a call; WriteFence takes it
  /// exclusively to drain them.
  mutable std::shared_mutex write_gate_;
  std::atomic<std::uint32_t> next_entry_{0};
  mutable std::mutex policy_mutex_;
  ResiliencePolicy policy_;
  std::atomic<std::uint64_t> call_seq_{0};
  std::function<void()> write_window_hook_;
};

}  // namespace vdb
