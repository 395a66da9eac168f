#pragma once

/// \file vdb.hpp
/// Umbrella public header for vdbhpc: a distributed vector database engine
/// plus a Polaris-scale performance-study harness reproducing "Exploring
/// Distributed Vector Databases Performance on HPC Platforms: A Study with
/// Qdrant" (SC'25 workshops). Include this to get the whole public API; the
/// per-module headers remain usable individually.

// Substrate
#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

// Metrics
#include "metrics/compare.hpp"
#include "metrics/histogram.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"

// Vector math + indexes
#include "dist/distance.hpp"
#include "dist/topk.hpp"
#include "index/concurrency_controller.hpp"
#include "index/factory.hpp"
#include "index/flat_index.hpp"
#include "index/hnsw_index.hpp"
#include "index/ivf_pq_index.hpp"
#include "index/kd_tree_index.hpp"
#include "index/sq_index.hpp"

// Storage + collections
#include "collection/collection.hpp"
#include "collection/optimizer.hpp"
#include "storage/payload_store.hpp"
#include "storage/segment.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

// Distributed engine
#include "cluster/cluster.hpp"
#include "cluster/placement.hpp"
#include "cluster/replication.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "rpc/codec.hpp"
#include "rpc/transport.hpp"

// Stateless architecture (paper fig. 1, approach 2)
#include "stateless/object_store.hpp"
#include "stateless/shard_cache.hpp"
#include "stateless/shard_io.hpp"
#include "stateless/stateless_cluster.hpp"

// Clients
#include "client/client.hpp"
#include "client/event_loop_client.hpp"
#include "client/multiproc_client.hpp"
#include "client/tuner.hpp"

// Workload generation
#include "workload/corpus.hpp"
#include "workload/embeddings.hpp"
#include "workload/queries.hpp"
#include "workload/zipf.hpp"

// Embedding pipeline (paper section 3.1)
#include "embed/batching.hpp"
#include "embed/gpu_model.hpp"
#include "embed/orchestrator.hpp"
#include "embed/pipeline.hpp"

// Simulation (paper-scale experiments)
#include "sim/cpu.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"
#include "simqdrant/cost_model.hpp"
#include "simqdrant/experiments.hpp"
#include "simqdrant/sim_client.hpp"
#include "simqdrant/sim_cluster.hpp"
#include "simqdrant/sim_worker.hpp"
