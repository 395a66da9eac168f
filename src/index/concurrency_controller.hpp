#pragma once

/// \file concurrency_controller.hpp
/// Runtime split of a worker's SearchArena share between inter-query batch
/// width and intra-query fan-out. Lives next to SearchArena because it sizes
/// the arena calls every worker makes; the scaling-paradox study
/// (fig_scaling_paradox, PAPERS.md "When More Cores Hurts") drives it.

#include <algorithm>
#include <cstddef>

namespace vdb {

/// One window of runtime concurrency signals, derived from the stage
/// metrics (queue wait vs service time from span timings, straggler spread
/// from the per-query latency distribution).
struct ConcurrencyObservation {
  /// Mean per-query service time in the window.
  double service_seconds = 0.0;
  /// Mean time a query spent queued before service (backlog-induced).
  double queue_wait_seconds = 0.0;
  /// max/mean per-query latency in the window (1.0 = perfectly even).
  double straggler_spread = 1.0;
  /// Throughput the window actually achieved.
  double qps = 0.0;
};

/// Runtime controller for the scaling-paradox tradeoff: given a fixed core
/// budget, split it between inter-query batch width and intra-query fan-out.
/// The sweep study (fig_scaling_paradox) shows throughput collapses once
/// width × fan-out oversubscribes the budget, so the controller treats the
/// budget as a hard invariant (width = budget / fanout) and hill-climbs the
/// fan-out on measured QPS, backing off *before* the crossover on two
/// congestion signals: queue wait exceeding service time (parallelism is
/// feeding a queue, not cutting latency) and straggler spread (uneven
/// segments mean extra threads idle at the barrier).
///
/// Header-only: the worker consults it once per batch.
class AdaptiveConcurrencyController {
 public:
  struct Config {
    /// Cores this controller may spend (SearchArena fair share).
    std::size_t core_budget = 1;
    /// Hard cap on intra-query fan-out regardless of budget.
    std::size_t max_fanout = 32;
    /// Congested when queue_wait > congestion_ratio * service.
    double congestion_ratio = 1.0;
    /// Do not grow fan-out while straggler_spread exceeds this.
    double straggler_limit = 2.0;
    /// Relative QPS gain required to call a probe an improvement.
    double min_gain = 0.02;
  };

  explicit AdaptiveConcurrencyController(Config config) : config_(config) {
    if (config_.core_budget == 0) config_.core_budget = 1;
    if (config_.max_fanout == 0) config_.max_fanout = 1;
  }

  /// Threads one query may use right now.
  std::size_t IntraFanout() const { return fanout_; }

  /// Queries to run concurrently right now (budget / fan-out, >= 1).
  std::size_t BatchWidth() const {
    return std::max<std::size_t>(1, config_.core_budget / fanout_);
  }

  /// Feeds one window of measurements; adjusts the decision for the next.
  void Observe(const ConcurrencyObservation& obs) {
    const std::size_t cap = std::min(config_.max_fanout, config_.core_budget);
    // Congestion backs off immediately: queued demand means spare threads are
    // worth more as batch width than as fan-out.
    if (obs.queue_wait_seconds >
        config_.congestion_ratio * std::max(obs.service_seconds, 1e-12)) {
      fanout_ = std::max<std::size_t>(1, fanout_ / 2);
      best_fanout_ = fanout_;
      best_qps_ = 0.0;  // the old optimum was measured pre-congestion
      hold_ = kHoldWindows;
      return;
    }
    if (hold_ > 0) {
      // Exploit the converged setting; re-probe only every kHoldWindows so a
      // settled controller spends most windows at the optimum.
      --hold_;
      if (obs.qps > best_qps_) best_qps_ = obs.qps;
      return;
    }
    // Hill-climb on measured QPS: a clear win keeps the probe direction, a
    // clear loss reverts to the best-known fan-out and parks there.
    if (obs.qps > best_qps_ * (1.0 + config_.min_gain)) {
      best_qps_ = obs.qps;
      best_fanout_ = fanout_;
    } else if (obs.qps < best_qps_ * (1.0 - config_.min_gain)) {
      fanout_ = best_fanout_;
      hold_ = kHoldWindows;
      return;
    }
    if (obs.straggler_spread > config_.straggler_limit) {
      // Uneven segments: extra fan-out idles at the merge barrier.
      fanout_ = std::max<std::size_t>(1, std::min(fanout_, best_fanout_));
      hold_ = kHoldWindows;
      return;
    }
    fanout_ = std::min(cap, fanout_ * 2);
  }

  const Config& GetConfig() const { return config_; }

 private:
  /// Windows spent exploiting after convergence/back-off before re-probing.
  static constexpr int kHoldWindows = 8;

  Config config_;
  std::size_t fanout_ = 1;
  std::size_t best_fanout_ = 1;
  double best_qps_ = 0.0;
  int hold_ = 0;
};

}  // namespace vdb
