#pragma once

/// \file search_arena.hpp
/// Process-wide thread arena for query-time parallelism. The scaling-paradox
/// study (ROADMAP item 5, PAPERS.md "When More Cores Hurts") shows why each
/// worker must NOT own a private search pool: with W workers each spawning
/// hardware_concurrency threads, a node runs W× more runnable search threads
/// than cores and throughput *drops* past the crossover. The arena is the
/// single pool every worker's batch-parallel loop and every index's
/// intra-query fan-out draws from, so total search parallelism is capped at
/// one global core budget no matter how many workers share the process.
///
/// Budget rules:
///   - budget = VDB_SEARCH_BUDGET env var if set, else hardware_concurrency.
///   - FairShare() = max(1, budget / registered workers): the per-worker slice
///     a polite caller should request as its width.
///   - A ParallelFor issued from inside an arena task runs inline (serially)
///     on the calling thread. This both prevents pool-starvation deadlock and
///     enforces that batch-width and intra-query fan-out do not multiply:
///     whichever level of parallelism reaches the arena first wins, the inner
///     level degrades to serial.
///
/// Observability: gauge `arena.backlog` tracks items submitted but not yet
/// executed, `arena.occupancy` tracks threads actively draining (its Max() is
/// the high-water concurrency, never above budget + callers); counters
/// `arena.parallel_calls` / `arena.inline_calls` split requests by path.

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

#include "common/thread_pool.hpp"

namespace vdb {

class SearchArena {
 public:
  /// The process-wide arena (created on first use).
  static SearchArena& Instance();

  SearchArena(const SearchArena&) = delete;
  SearchArena& operator=(const SearchArena&) = delete;

  /// Global core budget (threads the arena will ever run concurrently).
  std::size_t CoreBudget() const;

  /// Workers currently registered as arena tenants.
  std::size_t RegisteredWorkers() const;

  /// Per-worker fair slice of the budget: max(1, budget / workers). Workers
  /// clamp their configured search_threads to this before calling in.
  std::size_t FairShare() const;

  /// Tenancy bookkeeping; a Worker registers at construction and unregisters
  /// at destruction so FairShare() tracks process occupancy.
  void RegisterWorker();
  void UnregisterWorker();

  /// True when the calling thread is already executing an arena task (a
  /// nested ParallelFor from such a thread runs inline).
  static bool OnArenaThread();

  /// Runs fn(i) for i in [begin, end), using at most `width` threads
  /// (clamped to [1, CoreBudget()]); blocks until every index ran. Work is
  /// claimed through an atomic cursor in `grain`-sized slices (0 = auto).
  /// The calling thread participates, so `width = 2` means caller + one
  /// arena thread. Runs inline when width <= 1, the range is a single item,
  /// or the caller is itself an arena task. Helpers run `fn` under the
  /// caller's trace context (trace id, open span, worker attribution). `fn`
  /// must not throw.
  void ParallelFor(std::size_t width, std::size_t begin, std::size_t end,
                   std::size_t grain, const std::function<void(std::size_t)>& fn);

  /// Test hook: replaces the budget (and drops the lazily-built pool so the
  /// next ParallelFor rebuilds it at the new size). Callers must ensure the
  /// arena is idle. Pass 0 to restore the default (env var / hardware).
  void SetCoreBudgetForTest(std::size_t budget);

 private:
  SearchArena();

  struct Job;
  void Drain(Job& job);
  ThreadPool& Pool();

  mutable std::mutex mutex_;
  std::size_t budget_ = 1;
  std::size_t workers_ = 0;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace vdb
