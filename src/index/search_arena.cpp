#include "index/search_arena.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <thread>

#include "obs/obs.hpp"

namespace vdb {

namespace {

/// Set while a thread runs inside an arena ParallelFor (helpers and the
/// participating caller alike) — the nested-call inline fallback keys on it.
thread_local bool t_in_arena = false;

std::size_t DefaultBudget() {
  if (const char* env = std::getenv("VDB_SEARCH_BUDGET")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

/// Shared state for one ParallelFor. Completion is item-counted (done ==
/// total), never helper-joined: a helper queued behind other arena work may
/// arrive after the cursor is exhausted and must hold nothing up.
struct SearchArena::Job {
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> done{0};
  std::size_t end = 0;
  std::size_t total = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  /// The submitting caller's trace context, re-installed on every helper so
  /// spans opened by `fn` stay in the caller's trace, under its open span
  /// and with its worker attribution.
  obs::TraceContext trace;

  std::mutex mutex;
  std::condition_variable all_done;
};

SearchArena::SearchArena() : budget_(DefaultBudget()) {}

SearchArena& SearchArena::Instance() {
  static SearchArena* arena = new SearchArena();  // never destroyed
  return *arena;
}

std::size_t SearchArena::CoreBudget() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return budget_;
}

std::size_t SearchArena::RegisteredWorkers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_;
}

std::size_t SearchArena::FairShare() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::max<std::size_t>(1, budget_ / std::max<std::size_t>(1, workers_));
}

void SearchArena::RegisterWorker() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++workers_;
  VDB_GAUGE_SET("arena.workers", static_cast<std::int64_t>(workers_));
}

void SearchArena::UnregisterWorker() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (workers_ > 0) --workers_;
  VDB_GAUGE_SET("arena.workers", static_cast<std::int64_t>(workers_));
}

bool SearchArena::OnArenaThread() { return t_in_arena; }

void SearchArena::SetCoreBudgetForTest(std::size_t budget) {
  std::lock_guard<std::mutex> lock(mutex_);
  budget_ = budget == 0 ? DefaultBudget() : budget;
  pool_.reset();  // rebuilt at the new size on next use
}

ThreadPool& SearchArena::Pool() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!pool_) pool_ = std::make_unique<ThreadPool>(budget_);
  return *pool_;
}

void SearchArena::Drain(Job& job) {
  const bool was_in_arena = t_in_arena;
  t_in_arena = true;
  const obs::TraceContextScope trace(job.trace);
  VDB_GAUGE_ADD("arena.occupancy", 1);
  for (;;) {
    const std::size_t lo = job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
    if (lo >= job.end) break;
    const std::size_t hi = std::min(job.end, lo + job.grain);
    for (std::size_t i = lo; i < hi; ++i) (*job.fn)(i);
    const std::size_t ran = hi - lo;
    VDB_GAUGE_ADD("arena.backlog", -static_cast<std::int64_t>(ran));
    if (job.done.fetch_add(ran, std::memory_order_acq_rel) + ran == job.total) {
      std::lock_guard<std::mutex> lock(job.mutex);
      job.all_done.notify_all();
    }
  }
  VDB_GAUGE_ADD("arena.occupancy", -1);
  t_in_arena = was_in_arena;
}

void SearchArena::ParallelFor(std::size_t width, std::size_t begin, std::size_t end,
                              std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  width = std::min(std::max<std::size_t>(1, width), CoreBudget());

  if (width <= 1 || total <= 1 || t_in_arena) {
    // Inline path: requested serial, nothing to split, or nested inside an
    // arena task (batch-width × fan-out must not multiply; see header).
    VDB_COUNTER_ADD("arena.inline_calls", 1);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  VDB_COUNTER_ADD("arena.parallel_calls", 1);
  VDB_GAUGE_ADD("arena.backlog", static_cast<std::int64_t>(total));

  if (grain == 0) {
    // ~4 slices per participant: rebalances skew without cursor churn.
    grain = std::max<std::size_t>(1, total / (4 * width));
  }

  auto job = std::make_shared<Job>();
  job->cursor.store(begin, std::memory_order_relaxed);
  job->end = end;
  job->total = total;
  job->grain = grain;
  job->fn = &fn;
  job->trace = obs::CurrentTraceContext();

  // The caller is one participant; helpers fill the rest of `width`. More
  // helpers than remaining slices would only churn the queue.
  const std::size_t slices = (total + grain - 1) / grain;
  const std::size_t helpers = std::min(width - 1, slices - 1);
  ThreadPool& pool = Pool();
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.Submit([job, this] { Drain(*job); });
  }

  Drain(*job);
  std::unique_lock<std::mutex> lock(job->mutex);
  job->all_done.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) == job->total;
  });
}

}  // namespace vdb
