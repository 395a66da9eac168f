#include "simqdrant/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "index/concurrency_controller.hpp"
#include "obs/obs.hpp"
#include "sim/simulation.hpp"
#include "simqdrant/sim_client.hpp"
#include "simqdrant/sim_cluster.hpp"

namespace vdb::simq {

double SimulateInsertRunMultiStream(const PolarisCostModel& model,
                                    std::uint32_t workers,
                                    std::uint64_t total_vectors,
                                    std::uint64_t batch_size,
                                    std::size_t max_in_flight,
                                    std::uint32_t streams_per_worker) {
  sim::Simulation sim;
  SimClusterConfig config;
  config.num_workers = workers;
  config.model = model;
  SimQdrantCluster cluster(sim, config);

  // `streams_per_worker` clients per worker (the paper deploys exactly one),
  // all on the shared client node.
  const std::uint64_t total_clients =
      static_cast<std::uint64_t>(workers) * streams_per_worker;
  std::vector<std::unique_ptr<SimInsertClient>> clients;
  const std::uint64_t base = total_vectors / total_clients;
  std::uint64_t remainder = total_vectors % total_clients;
  for (WorkerId w = 0; w < workers; ++w) {
    for (std::uint32_t s = 0; s < streams_per_worker; ++s) {
      InsertClientConfig client_config;
      client_config.total_vectors = base + (remainder > 0 ? 1 : 0);
      if (remainder > 0) --remainder;
      client_config.batch_size = batch_size;
      client_config.max_in_flight = max_in_flight;
      client_config.target_worker = w;
      clients.push_back(std::make_unique<SimInsertClient>(cluster, client_config));
    }
  }
  for (auto& client : clients) client->Start([] {});
  sim.Run();

  double makespan = 0.0;
  for (const auto& client : clients) {
    makespan = std::max(makespan, client->Report().finish_time);
  }
  return makespan;
}

double SimulateInsertRun(const PolarisCostModel& model, std::uint32_t workers,
                         std::uint64_t total_vectors, std::uint64_t batch_size,
                         std::size_t max_in_flight) {
  // The paper's deployment: one client per worker.
  return SimulateInsertRunMultiStream(model, workers, total_vectors, batch_size,
                                      max_in_flight, 1);
}

double SimulateQueryRun(const PolarisCostModel& model, std::uint32_t workers,
                        double dataset_gb, std::uint64_t queries,
                        std::uint64_t batch_size, std::size_t max_in_flight,
                        SampleSet* call_times) {
  sim::Simulation sim;
  SimClusterConfig config;
  config.num_workers = workers;
  config.model = model;
  config.preloaded_gb = dataset_gb;
  SimQdrantCluster cluster(sim, config);

  QueryClientConfig client_config;
  client_config.total_queries = queries;
  client_config.batch_size = batch_size;
  client_config.max_in_flight = max_in_flight;
  client_config.entry_worker = 0;
  SimQueryClient client(cluster, client_config);
  client.Start([] {});
  sim.Run();

  if (call_times != nullptr) {
    for (const double s : client.Report().call_seconds.Samples()) {
      call_times->Add(s);
    }
  }
  return client.Report().finish_time;
}

double SimulateIndexBuild(const PolarisCostModel& model, std::uint32_t workers,
                          double dataset_gb) {
  sim::Simulation sim;
  SimClusterConfig config;
  config.num_workers = workers;
  config.model = model;
  config.preloaded_gb = dataset_gb;
  SimQdrantCluster cluster(sim, config);

  const std::uint64_t total_vectors = model.VectorsForGB(dataset_gb);
  const std::uint64_t per_worker = std::max<std::uint64_t>(1, total_vectors / workers);
  const double per_worker_gb = dataset_gb / workers;

  for (WorkerId w = 0; w < workers; ++w) {
    const NodeId node = cluster.NodeOfWorker(w);
    const double co_workers = cluster.WorkersOnNode(node);
    const double share = model.node_cores / co_workers;
    const double efficiency = model.ThreadEfficiency(share);
    // Memory-bandwidth interference grows with the total data being indexed
    // on this node (all co-located workers build simultaneously).
    const double node_gb = per_worker_gb * co_workers;
    const double membw = 1.0 + model.build_membw_penalty_per_gb * node_gb;

    const double n = static_cast<double>(per_worker);
    const double core_seconds =
        n * model.k_build * std::log(std::max(2.0, n)) * membw / efficiency;
    obs::RecordStageSeconds("index.build", core_seconds);  // virtual seconds
    cluster.NodeCpu(node).Submit(core_seconds, share, [] {});
  }
  return sim.Run();
}

double SimulateIndexBuildGpu(const PolarisCostModel& model, std::uint32_t workers,
                             double dataset_gb) {
  // Each worker owns one GPU (Polaris has gpus_per_node = workers_per_node);
  // builds are independent per graph and HBM-local, so the makespan is simply
  // the slowest worker's GPU time.
  const std::uint64_t total_vectors = model.VectorsForGB(dataset_gb);
  const std::uint64_t per_worker = std::max<std::uint64_t>(1, total_vectors / workers);
  const double n = static_cast<double>(per_worker);
  // One full-CPU-node build equivalent, accelerated by the device speedup;
  // no cross-worker sharing: each worker's GPU is exclusively its own.
  const double node_equivalent_seconds =
      n * model.k_build * std::log(std::max(2.0, n)) /
      (model.node_cores * model.ThreadEfficiency(model.node_cores));
  return node_equivalent_seconds / model.gpu_build_speedup;
}

VariabilityResult RunVariabilityStudy(const PolarisCostModel& model,
                                      double jitter_sigma, std::uint32_t workers,
                                      double dataset_gb, std::uint64_t queries,
                                      std::size_t trials) {
  VariabilityResult result;
  result.jitter_sigma = jitter_sigma;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    PolarisCostModel noisy = model;
    noisy.service_jitter_sigma = jitter_sigma;
    noisy.jitter_seed = 0xBEEF + trial * 0x9E3779B9ULL;
    result.trial_seconds.Add(
        SimulateQueryRun(noisy, workers, dataset_gb, queries, 16, 2));
  }
  return result;
}

MixedWorkloadResult RunMixedWorkload(const PolarisCostModel& model,
                                     std::uint32_t workers, double dataset_gb,
                                     std::uint64_t queries,
                                     std::uint32_t ingest_clients_per_worker) {
  // First pass: query-only duration estimate, to size the ingest streams so
  // they outlast the query run (sustained interference).
  const double baseline = SimulateQueryRun(model, workers, dataset_gb, queries, 16, 2);
  // Each event-loop client moves ~32 vectors / ClientSerialPerBatch(32)
  // seconds; 2x headroom on the (interference-lengthened) query duration.
  const double per_client_rate = 32.0 / model.ClientSerialPerBatch(32);
  const auto vectors_per_client = static_cast<std::uint64_t>(
      std::max(1.0, baseline * 2.5 * per_client_rate));

  sim::Simulation sim;
  SimClusterConfig config;
  config.num_workers = workers;
  config.model = model;
  config.preloaded_gb = dataset_gb;
  SimQdrantCluster cluster(sim, config);

  std::vector<std::unique_ptr<SimInsertClient>> ingesters;
  std::uint64_t total_ingest = 0;
  for (WorkerId w = 0; w < workers; ++w) {
    for (std::uint32_t c = 0; c < ingest_clients_per_worker; ++c) {
      InsertClientConfig client_config;
      client_config.total_vectors = vectors_per_client;
      client_config.batch_size = 32;
      client_config.max_in_flight = 2;
      client_config.target_worker = w;
      total_ingest += vectors_per_client;
      ingesters.push_back(std::make_unique<SimInsertClient>(cluster, client_config));
    }
  }
  QueryClientConfig query_config;
  query_config.total_queries = queries;
  query_config.batch_size = 16;
  query_config.max_in_flight = 2;
  query_config.entry_worker = 0;
  SimQueryClient query_client(cluster, query_config);

  for (auto& ingester : ingesters) ingester->Start([] {});
  query_client.Start([] {});
  sim.Run();

  MixedWorkloadResult result;
  result.query_seconds = query_client.Report().finish_time;
  result.mean_call_ms = query_client.Report().call_seconds.Mean() * 1e3;
  double ingest_finish = 0.0;
  for (const auto& ingester : ingesters) {
    ingest_finish = std::max(ingest_finish, ingester->Report().finish_time);
  }
  if (ingest_finish > 0.0) {
    result.ingest_rate_vps = static_cast<double>(total_ingest) / ingest_finish;
  }
  return result;
}

Fig2Result RunFig2InsertTuning(const PolarisCostModel& model, double dataset_gb) {
  Fig2Result result;
  const std::uint64_t vectors = model.VectorsForGB(dataset_gb);

  const std::vector<std::uint64_t> batch_sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  double best = std::numeric_limits<double>::infinity();
  for (const std::uint64_t bs : batch_sizes) {
    const double seconds = SimulateInsertRun(model, 1, vectors, bs, 1);
    result.batch_size_curve.push_back(SweepPoint{bs, seconds});
    if (seconds < best) {
      best = seconds;
      result.best_batch_size = bs;
    }
  }

  const std::vector<std::uint64_t> windows = {1, 2, 4, 8, 16};
  best = std::numeric_limits<double>::infinity();
  for (const std::uint64_t window : windows) {
    const double seconds =
        SimulateInsertRun(model, 1, vectors, result.best_batch_size,
                          static_cast<std::size_t>(window));
    result.concurrency_curve.push_back(SweepPoint{window, seconds});
    if (seconds < best) {
      best = seconds;
      result.best_concurrency = window;
    }
  }

  result.awaitable_ms_at_32 = model.ServerInsertPerBatch(32) * 1e3;
  // The paper computes the asyncio ceiling over the profiled convert+RPC pair
  // (45.64 + 14.86)/45.64 = 1.31x; our model stores the same decomposition as
  // serial-vs-awaitable per batch.
  const double serial_profiled = 45.64e-3;
  result.amdahl_ceiling =
      (serial_profiled + model.ServerInsertPerBatch(32)) / serial_profiled;
  return result;
}

std::vector<Table3Row> RunTable3InsertScaling(
    const PolarisCostModel& model, const std::vector<std::uint32_t>& worker_counts,
    std::uint64_t total_vectors) {
  std::vector<Table3Row> rows;
  rows.reserve(worker_counts.size());
  for (const std::uint32_t workers : worker_counts) {
    rows.push_back(Table3Row{
        workers, SimulateInsertRun(model, workers, total_vectors, /*batch=*/32,
                                   /*in_flight=*/2)});
  }
  return rows;
}

GridResult RunFig3IndexBuild(const PolarisCostModel& model,
                             const std::vector<double>& sizes_gb,
                             const std::vector<std::uint32_t>& worker_counts) {
  GridResult grid;
  grid.sizes_gb = sizes_gb;
  grid.worker_counts = worker_counts;
  for (const double gb : sizes_gb) {
    std::vector<double> row;
    row.reserve(worker_counts.size());
    for (const std::uint32_t workers : worker_counts) {
      row.push_back(SimulateIndexBuild(model, workers, gb));
    }
    grid.seconds.push_back(std::move(row));
  }
  return grid;
}

Fig4Result RunFig4QueryTuning(const PolarisCostModel& model, double dataset_gb,
                              std::uint64_t queries) {
  Fig4Result result;

  const std::vector<std::uint64_t> batch_sizes = {1, 2, 4, 8, 16, 32, 64};
  double best = std::numeric_limits<double>::infinity();
  for (const std::uint64_t bs : batch_sizes) {
    const double seconds = SimulateQueryRun(model, 1, dataset_gb, queries, bs, 1);
    result.batch_size_curve.push_back(SweepPoint{bs, seconds});
    if (seconds < best) {
      best = seconds;
      result.best_batch_size = bs;
    }
  }
  // The curve flattens past 16; prefer the paper's operating point when the
  // improvement beyond it is marginal (<2%).
  for (const auto& point : result.batch_size_curve) {
    if (point.parameter == 16 && point.seconds <= best * 1.02) {
      result.best_batch_size = 16;
      break;
    }
  }

  const std::vector<std::uint64_t> windows = {1, 2, 4, 8, 16};
  best = std::numeric_limits<double>::infinity();
  for (const std::uint64_t window : windows) {
    const double seconds =
        SimulateQueryRun(model, 1, dataset_gb, queries, result.best_batch_size,
                         static_cast<std::size_t>(window));
    result.concurrency_curve.push_back(SweepPoint{window, seconds});
    if (seconds < best) {
      best = seconds;
      result.best_concurrency = window;
    }
  }

  // Saturation probe: per-batch call times at growing concurrency. The
  // paper's follow-up numbers (30.7/76.4/170 ms) correspond to small batches;
  // we use batch 4 (see EXPERIMENTS.md).
  for (const std::uint64_t window : {2ULL, 4ULL, 8ULL}) {
    SampleSet calls;
    (void)SimulateQueryRun(model, 1, dataset_gb, std::min<std::uint64_t>(queries, 4000),
                           4, static_cast<std::size_t>(window), &calls);
    result.call_time_ms.push_back(SweepPoint{window, calls.Mean() * 1e3});
  }
  return result;
}

GridResult RunFig5QueryScaling(const PolarisCostModel& model,
                               const std::vector<double>& sizes_gb,
                               const std::vector<std::uint32_t>& worker_counts,
                               std::uint64_t queries) {
  GridResult grid;
  grid.sizes_gb = sizes_gb;
  grid.worker_counts = worker_counts;
  for (const double gb : sizes_gb) {
    std::vector<double> row;
    row.reserve(worker_counts.size());
    for (const std::uint32_t workers : worker_counts) {
      row.push_back(SimulateQueryRun(model, workers, gb, queries, /*batch=*/16,
                                     /*in_flight=*/2));
    }
    grid.seconds.push_back(std::move(row));
  }
  return grid;
}

double SimulateQueryRunThreaded(const PolarisCostModel& model, std::uint32_t workers,
                                std::uint32_t search_threads, double dataset_gb,
                                std::uint64_t queries, std::uint64_t batch_size,
                                std::size_t max_in_flight, SampleSet* call_times) {
  sim::Simulation sim;
  SimClusterConfig config;
  config.num_workers = workers;
  config.model = model;
  config.preloaded_gb = dataset_gb;
  config.search_threads = std::max<std::uint32_t>(1, search_threads);
  SimQdrantCluster cluster(sim, config);

  QueryClientConfig client_config;
  client_config.total_queries = queries;
  client_config.batch_size = batch_size;
  client_config.max_in_flight = max_in_flight;
  client_config.entry_worker = 0;
  SimQueryClient client(cluster, client_config);
  client.Start([] {});
  sim.Run();

  if (call_times != nullptr) {
    for (const double s : client.Report().call_seconds.Samples()) {
      call_times->Add(s);
    }
  }
  return client.Report().finish_time;
}

ScalingParadoxResult RunScalingParadoxSweep(
    const PolarisCostModel& model, const std::vector<std::uint32_t>& workers_per_node,
    const std::vector<std::uint32_t>& threads, double dataset_gb,
    std::uint64_t queries_per_cell) {
  ScalingParadoxResult result;
  result.workers_per_node = workers_per_node;
  result.threads = threads;
  for (const std::uint32_t wpn : workers_per_node) {
    // One fully packed node: wpn workers co-located, sharing the core budget.
    PolarisCostModel m = model;
    m.workers_per_node = wpn;
    std::vector<double> row;
    row.reserve(threads.size());
    for (const std::uint32_t t : threads) {
      const double seconds = SimulateQueryRunThreaded(
          m, /*workers=*/wpn, t, dataset_gb, queries_per_cell, /*batch=*/16,
          /*in_flight=*/2);
      const double qps = static_cast<double>(queries_per_cell) / seconds;
      row.push_back(qps);
      if (qps > result.best_qps) {
        result.best_qps = qps;
        result.best_workers_per_node = wpn;
        result.best_threads = t;
      }
    }
    // Crossover: QPS peaks at an interior thread count and the rightmost
    // (most-threaded) cell sits >5% below the peak — adding threads hurt.
    const std::size_t peak =
        static_cast<std::size_t>(std::max_element(row.begin(), row.end()) - row.begin());
    if (peak + 1 < row.size() && row.back() < row[peak] * 0.95) {
      result.crossover_observed = true;
    }
    result.qps.push_back(std::move(row));
  }
  return result;
}

ScalingAutotuneResult RunScalingParadoxAutotuned(
    const PolarisCostModel& model, std::uint32_t workers_per_node,
    const std::vector<std::uint32_t>& thread_grid, double dataset_gb,
    std::uint64_t queries_per_window, std::size_t windows) {
  PolarisCostModel m = model;
  m.workers_per_node = workers_per_node;

  // Reference: every fixed thread count on the same per-window workload
  // (in_flight 1, like the controller's windows, so the comparison is fair).
  ScalingAutotuneResult result;
  for (const std::uint32_t t : thread_grid) {
    const double seconds = SimulateQueryRunThreaded(
        m, workers_per_node, t, dataset_gb, queries_per_window, /*batch=*/16,
        /*in_flight=*/1);
    const double qps = static_cast<double>(queries_per_window) / seconds;
    if (qps > result.best_fixed_qps) {
      result.best_fixed_qps = qps;
      result.best_fixed_threads = t;
    }
  }

  // The controller sees exactly what a worker would: per-window QPS, queue
  // wait (mean minus best-case call time), and straggler spread.
  AdaptiveConcurrencyController::Config config;
  config.core_budget = static_cast<std::size_t>(
      m.node_cores / std::max<std::uint32_t>(1, workers_per_node));
  config.max_fanout = 32;
  AdaptiveConcurrencyController controller(config);

  double total_seconds = 0.0;
  std::uint64_t total_queries = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto t = static_cast<std::uint32_t>(controller.IntraFanout());
    result.fanout_trace.push_back(t);
    SampleSet calls;
    const double seconds = SimulateQueryRunThreaded(
        m, workers_per_node, t, dataset_gb, queries_per_window, /*batch=*/16,
        /*in_flight=*/1, &calls);
    total_seconds += seconds;
    total_queries += queries_per_window;

    ConcurrencyObservation obs;
    obs.service_seconds = calls.Min();
    obs.queue_wait_seconds = std::max(0.0, calls.Mean() - calls.Min());
    obs.straggler_spread =
        calls.Mean() > 0.0 ? calls.Max() / calls.Mean() : 1.0;
    obs.qps = static_cast<double>(queries_per_window) / seconds;
    controller.Observe(obs);
  }
  result.final_fanout = static_cast<std::uint32_t>(controller.IntraFanout());
  result.qps = total_seconds > 0.0
                   ? static_cast<double>(total_queries) / total_seconds
                   : 0.0;
  result.ratio =
      result.best_fixed_qps > 0.0 ? result.qps / result.best_fixed_qps : 0.0;
  return result;
}

}  // namespace vdb::simq
