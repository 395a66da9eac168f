#pragma once

/// \file cluster.hpp
/// LocalCluster: assembles transport + placement + N workers + router into a
/// running distributed vector database inside one process — the deployable
/// unit examples and integration tests drive. Also implements elastic
/// scale-out with shard rebalancing (the data movement cost inherent to the
/// stateful architecture, paper section 2.2).

#include <memory>
#include <vector>

#include "cluster/migration.hpp"
#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"

namespace vdb {

/// Which message plane the cluster runs on. kInproc is the default
/// (thread-per-endpoint queues); kTcp runs every hop — router→worker and
/// worker→worker fan-out — through real loopback sockets via `TcpTransport`,
/// so the wire stack (framing, CRCs, epoll, reconnect) is exercised by the
/// same tests and chaos schedules that drive the in-process plane.
enum class ClusterTransport { kInproc, kTcp };

struct ClusterConfig {
  std::uint32_t num_workers = 4;
  /// Total shards. 0 = one shard per worker (the paper's deployment shape).
  std::uint32_t num_shards = 0;
  std::uint32_t replication = 1;
  CollectionConfig collection_template;
  std::size_t service_threads_per_worker = 2;
  ClusterTransport transport = ClusterTransport::kInproc;
  /// Optional chaos: installed on the transport and every worker (including
  /// workers created later by RestartWorker/ScaleTo).
  std::shared_ptr<faults::FaultPlan> fault_plan;
};

class LocalCluster {
 public:
  static Result<std::unique_ptr<LocalCluster>> Start(ClusterConfig config);

  ~LocalCluster();
  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  Router& GetRouter() { return *router_; }
  vdb::Transport& Transport() { return *transport_; }
  const ShardPlacement& Placement() const { return *placement_; }

  std::size_t NumWorkers() const { return workers_.size(); }
  Worker& GetWorker(std::size_t i) { return *workers_.at(i); }
  bool IsWorkerUp(std::size_t i) const {
    return i < workers_.size() && workers_[i] != nullptr;
  }

  /// Simulates a worker crash: its endpoints disappear, its shard data is
  /// lost (stateful architecture, no replication = data gone). Searches via
  /// surviving workers fail unless the router's ResiliencePolicy sets
  /// allow_degraded.
  Status StopWorker(WorkerId id);

  /// Restarts a previously stopped worker with empty shards.
  Status RestartWorker(WorkerId id);

  /// Installs (or clears) a fault plan on the transport and all running
  /// workers; future restarts inherit it. Install before traffic for
  /// reproducible event logs.
  void InstallFaultPlan(std::shared_ptr<faults::FaultPlan> plan);

  /// Elastic scale-out/in: starts (or stops) workers, computes the rebalance
  /// plan, and executes each move as a *live* migration (MigrateShard) while
  /// client traffic keeps flowing. Returns the number of points transferred —
  /// the "expensive repartitioning" the paper contrasts against
  /// compute/storage separation, now paid without a stop-the-world pause.
  Result<std::uint64_t> ScaleTo(std::uint32_t new_num_workers);

  /// Starts one additional worker under the *current* placement (it owns
  /// nothing yet) and registers it in ReplicaHealth as DOWN. Returns its id.
  /// Give it load with MigrateShard / AddReplica / ScaleTo.
  Result<WorkerId> AddWorker();

  /// Live shard handoff: moves `shard` from `from` to `to` under traffic —
  /// dual-applied writes during the copy window, double-read until cutover,
  /// atomic placement swap. Returns the destination's point count at commit.
  Result<std::uint64_t> MigrateShard(ShardId shard, WorkerId from, WorkerId to);

  /// Bootstraps `dest` as an additional replica of `shard`, streaming a
  /// snapshot from `source` and replaying the WAL tail until caught up. The
  /// joiner is admitted to ReplicaHealth only on success.
  Result<BootstrapResult> AddReplica(ShardId shard, WorkerId source, WorkerId dest);

  /// Per-move migration options (page size, retry budget, chunk hook) used by
  /// MigrateShard/AddReplica/ScaleTo. The router write-fence is wired in
  /// automatically.
  void SetMigrationOptions(MigrationOptions options);

  MigrationTable& Migrations() { return *migration_table_; }
  ReplicaHealth& Health() { return *health_; }

 private:
  LocalCluster() = default;

  /// Installs `placement` on the router and every running worker, then
  /// records it as current.
  void InstallPlacement(std::shared_ptr<const ShardPlacement> placement);

  /// MigrationOptions with the router write-fence attached.
  MigrationOptions WiredMigrationOptions() const;

  ClusterConfig config_;
  std::unique_ptr<vdb::Transport> transport_;
  std::shared_ptr<const ShardPlacement> placement_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Router> router_;
  std::shared_ptr<MigrationTable> migration_table_;
  std::shared_ptr<ReplicaHealth> health_;
  MigrationOptions migration_options_;
};

}  // namespace vdb
