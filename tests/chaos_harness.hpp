#pragma once

/// \file chaos_harness.hpp
/// Seeded chaos schedules against a LocalCluster: interleaved upserts,
/// searches, worker kills and restarts, optionally under an installed
/// vdb::faults::FaultPlan, with invariant checking.
///
/// Determinism contract: the harness drives one operation at a time from a
/// single thread, so with replication = 1 and one shard per worker each
/// fault site sees its per-site operations in a fixed order and the
/// schedule log + fault-plan event log are bit-identical across runs of the
/// same seed. Wall-clock-driven features (call deadlines, hedging) trade
/// that away — enable them for latency assertions, not log comparison.
///
/// Invariants checked:
///  - every search hit refers to a point the schedule actually attempted
///    to upsert (no fabricated ids);
///  - acknowledged ⇒ not lost: after the schedule, every acked point is still
///    present in each replica holder that was never killed, audited directly
///    against worker state so injected RPC faults cannot fail the audit.
/// Violations are collected in ChaosReport::violations (empty = held).

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/faults.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "obs/flight_recorder.hpp"

namespace vdb::testing {

struct ChaosOptions {
  std::uint64_t seed = 1;
  std::uint32_t num_workers = 4;
  std::uint32_t replication = 1;
  std::size_t dim = 8;
  /// Schedule length (one upsert/search/kill/restart per operation).
  std::size_t num_ops = 120;
  std::size_t points_per_upsert = 8;
  std::size_t search_k = 10;
  /// Operation mix; normalized internally.
  double upsert_weight = 0.55;
  double search_weight = 0.35;
  double kill_weight = 0.05;
  double restart_weight = 0.05;
  /// Installed on the router before the schedule starts.
  ResiliencePolicy policy;
  /// Optional chaos plan, installed on transport + workers (and inherited by
  /// restarted workers). The harness never resets it; pass a fresh plan per
  /// run when comparing event logs.
  std::shared_ptr<faults::FaultPlan> fault_plan;
  /// Message plane for the cluster. kTcp runs the identical schedule over
  /// real loopback sockets (TcpTransport: framing, CRCs, epoll, reconnect),
  /// with injected drop/delay/corrupt faults acting at the socket layer.
  /// Socket timing makes retry interleavings nondeterministic, so compare
  /// invariants — not schedule logs — across TCP runs of one seed.
  ClusterTransport transport = ClusterTransport::kInproc;
};

struct ChaosReport {
  std::size_t upserts_attempted = 0;
  std::size_t upserts_acked = 0;
  std::size_t points_attempted = 0;
  std::size_t points_acked = 0;
  std::size_t searches_attempted = 0;
  std::size_t searches_ok = 0;
  std::size_t searches_degraded = 0;
  std::size_t searches_hedged = 0;
  std::size_t kills = 0;
  std::size_t restarts = 0;
  /// Wall-clock per successful resilient search (latency assertions only —
  /// never part of the deterministic log).
  std::vector<double> search_latencies_seconds;
  /// One line per schedule operation; deterministic fields only.
  std::string schedule_log;
  /// Invariant violations, one line each. Empty = all invariants held.
  std::string violations;
  /// Flight-recorder dump captured when a violation was detected: the most
  /// recent faults/retries/errors leading up to the failure. Empty on clean
  /// runs (and in VDB_OBS_DISABLED builds).
  std::string flight_dump;

  bool Ok() const { return violations.empty(); }
  double MaxSearchLatencySeconds() const {
    double max_latency = 0.0;
    for (const double latency : search_latencies_seconds) {
      if (latency > max_latency) max_latency = latency;
    }
    return max_latency;
  }
};

class ChaosHarness {
 public:
  explicit ChaosHarness(ChaosOptions options) : options_(std::move(options)) {}

  /// Builds the cluster and runs the full schedule. Call once.
  Status Run() {
    VDB_RETURN_IF_ERROR(StartCluster());
    Rng rng(options_.seed);
    const double total_weight = options_.upsert_weight + options_.search_weight +
                                options_.kill_weight + options_.restart_weight;
    for (std::size_t op = 0; op < options_.num_ops; ++op) {
      const double roll = rng.NextDouble() * total_weight;
      if (roll < options_.upsert_weight) {
        DoUpsert(op, rng);
      } else if (roll < options_.upsert_weight + options_.search_weight) {
        DoSearch(op, rng);
      } else if (roll < options_.upsert_weight + options_.search_weight +
                            options_.kill_weight) {
        DoKill(op, rng);
      } else {
        DoRestart(op, rng);
      }
    }
    VerifyAckedFindable();
    if (!report_.violations.empty()) {
      // A violated invariant is exactly the crash-site moment the flight
      // recorder exists for: snapshot the recent fault/retry/error timeline
      // before any later test activity overwrites the ring.
      report_.flight_dump = obs::FlightRecorderDump();
    }
    return Status::Ok();
  }

  const ChaosReport& Report() const { return report_; }
  LocalCluster& Cluster() { return *cluster_; }

 private:
  Status StartCluster() {
    ClusterConfig config;
    config.num_workers = options_.num_workers;
    config.replication = options_.replication;
    config.collection_template.dim = options_.dim;
    // Cosine + flat: a point's own vector is its unique maximal-similarity
    // query, so "acked ⇒ findable" is an exact top-1 assertion, not a
    // recall-dependent one.
    config.collection_template.metric = Metric::kCosine;
    config.collection_template.index.type = "flat";
    config.fault_plan = options_.fault_plan;
    config.transport = options_.transport;
    VDB_ASSIGN_OR_RETURN(cluster_, LocalCluster::Start(config));
    cluster_->GetRouter().SetResiliencePolicy(options_.policy);
    worker_up_.assign(options_.num_workers, true);
    return Status::Ok();
  }

  void DoUpsert(std::size_t op, Rng& rng) {
    ++report_.upserts_attempted;
    std::vector<PointRecord> batch;
    batch.reserve(options_.points_per_upsert);
    const PointId first_id = next_id_;
    for (std::size_t i = 0; i < options_.points_per_upsert; ++i) {
      PointRecord record;
      record.id = next_id_++;
      record.vector.resize(options_.dim);
      for (auto& x : record.vector) x = static_cast<Scalar>(rng.NextGaussian());
      attempted_ids_.insert(record.id);
      batch.push_back(std::move(record));
    }
    report_.points_attempted += batch.size();

    const auto acked = cluster_->GetRouter().UpsertBatch(batch);
    const bool ok = acked.ok();
    if (ok) {
      ++report_.upserts_acked;
      report_.points_acked += batch.size();
      for (const auto& record : batch) {
        acked_vectors_[record.id] = record.vector;
        auto& holders = holders_[record.id];
        for (const WorkerId worker :
             cluster_->Placement().ReplicasOf(cluster_->Placement().ShardFor(record.id))) {
          holders.insert(worker);
        }
      }
    }
    Log(op, "upsert ids=[" + std::to_string(first_id) + ".." +
                std::to_string(next_id_ - 1) + "] acked=" + (ok ? "1" : "0"));
  }

  void DoSearch(std::size_t op, Rng& rng) {
    ++report_.searches_attempted;
    Vector query(options_.dim);
    if (!acked_vectors_.empty() && rng.NextBernoulli(0.5)) {
      // Query near a known point half the time; pick deterministically.
      const PointId target = rng.NextU64(next_id_);
      const auto it = acked_vectors_.find(target);
      if (it != acked_vectors_.end()) query = it->second;
      for (auto& x : query) x += static_cast<Scalar>(rng.NextGaussian() * 0.05);
    } else {
      for (auto& x : query) x = static_cast<Scalar>(rng.NextGaussian());
    }
    SearchParams params;
    params.k = static_cast<std::uint32_t>(options_.search_k);

    Stopwatch watch;
    const VectorView view = query;
    const auto outcome =
        cluster_->GetRouter().Search({.queries = {&view, 1}, .params = params});
    const double elapsed = watch.ElapsedSeconds();
    if (outcome.ok()) {
      ++report_.searches_ok;
      report_.search_latencies_seconds.push_back(elapsed);
      if (outcome->degraded) ++report_.searches_degraded;
      if (outcome->hedged) ++report_.searches_hedged;
      for (const auto& hit : outcome->results[0]) {
        if (attempted_ids_.count(hit.id) == 0) {
          Violation("op " + std::to_string(op) + ": search returned id " +
                    std::to_string(hit.id) + " that was never upserted");
        }
      }
      Log(op, "search k=" + std::to_string(options_.search_k) +
                  " ok=1 hits=" + std::to_string(outcome->results[0].size()) +
                  " degraded=" + (outcome->degraded ? "1" : "0"));
    } else {
      Log(op, "search k=" + std::to_string(options_.search_k) + " ok=0 code=" +
                  std::to_string(static_cast<int>(outcome.status().code())));
    }
  }

  void DoKill(std::size_t op, Rng& rng) {
    std::vector<WorkerId> up;
    for (WorkerId w = 0; w < worker_up_.size(); ++w) {
      if (worker_up_[w]) up.push_back(w);
    }
    if (up.size() <= 1) {  // always keep one entry worker alive
      Log(op, "kill skipped (one worker left)");
      return;
    }
    const WorkerId victim = up[rng.NextU64(up.size())];
    if (!cluster_->StopWorker(victim).ok()) {
      Log(op, "kill worker=" + std::to_string(victim) + " failed");
      return;
    }
    worker_up_[victim] = false;
    ever_lost_.insert(victim);
    ++report_.kills;
    // Non-durable workers lose their shards: the victim stops holding
    // every point it had.
    for (auto& [id, holders] : holders_) holders.erase(victim);
    Log(op, "kill worker=" + std::to_string(victim));
  }

  void DoRestart(std::size_t op, Rng& rng) {
    std::vector<WorkerId> down;
    for (WorkerId w = 0; w < worker_up_.size(); ++w) {
      if (!worker_up_[w]) down.push_back(w);
    }
    if (down.empty()) {
      Log(op, "restart skipped (none down)");
      return;
    }
    const WorkerId worker = down[rng.NextU64(down.size())];
    const bool ok = cluster_->RestartWorker(worker).ok();
    if (ok) {
      worker_up_[worker] = true;
      ++report_.restarts;
    }
    Log(op, "restart worker=" + std::to_string(worker) + " ok=" + (ok ? "1" : "0"));
  }

  /// The "no acknowledged-then-lost point" invariant: every acked point must
  /// still be present in the shard of every holder that was never killed
  /// (fault-crashed workers keep their in-memory state and still count).
  /// Audited directly against worker state — the audit itself cannot be
  /// failed by injected RPC faults.
  void VerifyAckedFindable() {
    for (const auto& [id, holders] : holders_) {
      const ShardId shard = cluster_->Placement().ShardFor(id);
      for (const WorkerId holder : holders) {
        if (!worker_up_[holder] || ever_lost_.count(holder) != 0) continue;
        Collection* collection = cluster_->GetWorker(holder).ShardForTest(shard);
        if (collection == nullptr || !collection->Contains(id)) {
          Violation("acked point " + std::to_string(id) + " lost from worker " +
                    std::to_string(holder) + " which was never killed");
        }
      }
    }
  }

  void Log(std::size_t op, const std::string& line) {
    report_.schedule_log += "op " + std::to_string(op) + " " + line + "\n";
  }
  void Violation(const std::string& line) { report_.violations += line + "\n"; }

  ChaosOptions options_;
  std::unique_ptr<LocalCluster> cluster_;
  ChaosReport report_;
  PointId next_id_ = 0;
  std::vector<bool> worker_up_;
  std::unordered_set<PointId> attempted_ids_;
  std::unordered_map<PointId, Vector> acked_vectors_;
  std::unordered_map<PointId, std::unordered_set<WorkerId>> holders_;
  /// Workers that were killed at least once: even after a restart they came
  /// back empty, so they never count as "continuously up" holders.
  std::unordered_set<WorkerId> ever_lost_;
};

}  // namespace vdb::testing
