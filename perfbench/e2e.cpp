// End-to-end benchmark program for the vdbhpc engine.
//
// Runs one named workload against a real LocalCluster (4 workers, one shard
// each, 768-d cosine vectors from EmbeddingGenerator, queries from
// BvBrcTermGenerator), then writes a raw record (JSON) that run.py turns into
// metrics. The record holds raw samples — per-call latencies, set-up times,
// peel spans — so every statistic is computed in one place (report.py).
//
//   perfbench_e2e --workload search_tcp --seed 1 --seconds 20 --trace 0
//                 --out record.json --work-dir .bench_build/perfbench/work
//
// --trace 0: set up several times (setup_s is their median) and run the
//            closed-loop load for --seconds in all (split over the set-ups in
//            the search workloads), checking every output.
// --trace 1: run the load once untraced and once with a benchmark-side span
//            around every client call (each on a fresh cluster), then the
//            single-threaded peel: a fixed sample of inputs is driven through
//            each layer's public entry in turn (router → entry RPC → peer-local
//            RPC → Worker::Handle → Collection::Search), each entry timed.
//
// Spans live only in this file; nothing inside src/ is instrumented for it.

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "cluster/cluster.hpp"
#include "collection/collection.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "dist/distance.hpp"
#include "dist/kernels.hpp"
#include "rpc/codec.hpp"
#include "workload/corpus.hpp"
#include "workload/embeddings.hpp"
#include "workload/queries.hpp"

namespace fs = std::filesystem;
using namespace vdb;

namespace {

constexpr std::size_t kDim = 768;
constexpr std::uint32_t kWorkers = 4;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kEf = 64;
constexpr std::size_t kQueryPool = 256;
constexpr std::size_t kUpsertBatch = 256;
constexpr std::size_t kSearchBatch = 16;
constexpr int kSearchClients = 2;
/// Points per shard between segment flushes (CollectionConfig default).
constexpr std::size_t kFlushThreshold = 8192;
/// A set-up or load window during which the hypervisor took more than this
/// share of the CPU (steal) measured the neighbours, not the engine: it is
/// repeated, at most kMaxRepeats times per run. Its calls still count.
constexpr double kMaxStealPct = 3.0;
constexpr int kMaxRepeats = 2;
/// Untimed warm-up: empty cluster starts, then one set-up with this many
/// points and no index build.
constexpr int kWarmupStarts = 25;
constexpr std::size_t kWarmupPoints = 16384;

struct Workload {
  std::string name;
  ClusterTransport transport = ClusterTransport::kInproc;
  std::size_t preload = 0;     ///< points bulk-loaded during set-up
  std::size_t ingest_cap = 0;  ///< points generated for the writer (ingest_mixed)
  IndexSpec index;
  bool defer_indexing = false;
  bool durable = false;
  std::size_t queries_per_call = 1;
  int setups = 3;
  /// Untimed calls per client before the measured window.
  int warmup_calls = 0;
};

IndexSpec Hnsw() {
  IndexSpec spec;
  spec.type = "hnsw";
  spec.hnsw.m = 16;
  spec.hnsw.ef_construction = 100;
  return spec;
}

/// Incremental HNSW for ingest_mixed. ef_construction 32 (not 100) keeps one
/// writer fast enough that every shard receives more than twice
/// flush_threshold points in a 20 s run; neighbour pruning, not the beam,
/// dominates the insert cost.
IndexSpec IngestHnsw() {
  IndexSpec spec = Hnsw();
  spec.hnsw.ef_construction = 32;
  return spec;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "search_tcp";
    w.transport = ClusterTransport::kTcp;
    w.preload = 20000;
    w.index = Hnsw();
    w.defer_indexing = true;
    w.warmup_calls = 50;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "search_batch_sq8";
    w.preload = 100000;
    w.index.type = "flat";
    w.index.quantization = "sq8";
    w.index.rerank = 32;
    w.defer_indexing = true;
    w.queries_per_call = kSearchBatch;
    w.warmup_calls = 4;
    w.setups = 9;  // a set-up takes under a second: more of them steady the build and load figures
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "ingest_mixed";
    w.ingest_cap = 120000;
    w.index = IngestHnsw();
    w.durable = true;
    w.setups = 25;  // set-up is only a cluster start: repeat more for a steady median
    all.push_back(w);
  }
  return all;
}

// ---- small utilities ------------------------------------------------------

using Clock = std::chrono::steady_clock;

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

template <class F>
double TimeUs(F&& fn) {
  const auto start = Clock::now();
  fn();
  return Micros(start, Clock::now());
}

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "perfbench_e2e: " << what << "\n";
  std::exit(1);
}

template <class T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

/// Runs fn(i) for i in [0, n) on `threads` threads.
template <class F>
void ParallelRange(std::size_t n, unsigned threads, F&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& thread : pool) thread.join();
}

unsigned HostThreads() { return std::max(1u, std::thread::hardware_concurrency()); }

std::string ReadFirstMatch(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) return "";
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    return value;
  }
  return "";
}

double PeakRssMb() {
  const std::string hwm = ReadFirstMatch("/proc/self/status", "VmHWM");
  return std::strtod(hwm.c_str(), nullptr) / 1024.0;  // reported in kB
}

/// Host-wide CPU jiffies from /proc/stat; the steal share shows how much of
/// a window the hypervisor gave to other guests.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;

  static CpuTicks Now() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTicks ticks;
    double value = 0.0;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8 && in >> value; ++field) {
      ticks.total += value;
      if (field == 7) ticks.steal = value;
    }
    return ticks;
  }
  double StealPctSince(const CpuTicks& since) const {
    const double total_delta = total - since.total;
    return total_delta > 0.0 ? 100.0 * (steal - since.steal) / total_delta : 0.0;
  }
};

std::string FilesystemOf(const fs::path& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      std::ostringstream hex;
      hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
      return hex.str();
    }
  }
}

std::uint64_t DiskBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Raw bytes a user hands the engine for one point: the float vector plus
/// each payload field's name and value.
std::uint64_t UserBytes(const PointRecord& point) {
  std::uint64_t bytes = point.vector.size() * sizeof(Scalar);
  for (const auto& [key, value] : point.payload) {
    bytes += key.size();
    bytes += std::visit(
        [](const auto& v) -> std::uint64_t {
          using V = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<V, std::string>) {
            return v.size();
          } else {
            return sizeof(V);
          }
        },
        value);
  }
  return bytes;
}

// ---- JSON output ----------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += Num(values[i]);
  }
  return out + "]";
}

/// Ordered JSON object built from already-rendered values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  JsonObject& Set(const std::string& key, double v) { return Raw(key, Num(v)); }
  JsonObject& Set(const std::string& key, const std::string& v) { return Raw(key, Quote(v)); }
  JsonObject& Set(const std::string& key, const std::vector<double>& v) {
    return Raw(key, Array(v));
  }
  std::string Render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ',';
      out += Quote(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- inputs ---------------------------------------------------------------

struct Dataset {
  std::vector<PointRecord> points;
  std::vector<Vector> queries;  ///< the query pool every client cycles through
};

Dataset Generate(std::size_t num_points, std::uint64_t seed) {
  EmbeddingParams embed_params;
  embed_params.dim = kDim;
  embed_params.seed = seed;
  const EmbeddingGenerator embedder(embed_params);
  CorpusParams corpus_params;
  corpus_params.num_documents = num_points;
  corpus_params.seed = seed;
  const SyntheticCorpus corpus(corpus_params);

  Dataset data;
  constexpr std::size_t kChunk = 4096;
  const std::size_t chunks = (num_points + kChunk - 1) / kChunk;
  std::vector<std::vector<PointRecord>> parts(chunks);
  ParallelRange(chunks, HostThreads(), [&](std::size_t c) {
    parts[c] = embedder.MakePoints(corpus, c * kChunk,
                                   std::min(num_points, (c + 1) * kChunk));
  });
  data.points.reserve(num_points);
  for (auto& part : parts) {
    for (auto& point : part) data.points.push_back(std::move(point));
  }

  QueryWorkloadParams query_params;
  query_params.seed = seed;
  const BvBrcTermGenerator terms(query_params, embedder);
  data.queries = terms.MakeQueries(kQueryPool);
  return data;
}

/// Exact top-k ids per query over the points whose mask entry is set (all
/// points when the mask is empty). Vectors are unit-norm, so cosine is dot.
std::vector<std::vector<PointId>> ExactTopK(const Dataset& data,
                                            const std::vector<char>& mask) {
  std::vector<std::vector<PointId>> truth(data.queries.size());
  ParallelRange(data.queries.size(), HostThreads(), [&](std::size_t q) {
    std::vector<std::pair<Scalar, PointId>> scored;
    scored.reserve(data.points.size());
    for (std::size_t i = 0; i < data.points.size(); ++i) {
      if (!mask.empty() && mask[i] == 0) continue;
      scored.emplace_back(DotProduct(data.queries[q], data.points[i].vector),
                          data.points[i].id);
    }
    const std::size_t k = std::min(kTopK, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
                      scored.end(), [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first : a.second < b.second;
                      });
    for (std::size_t i = 0; i < k; ++i) truth[q].push_back(scored[i].second);
  });
  return truth;
}

std::size_t Overlap(const std::vector<ScoredPoint>& hits, const std::vector<PointId>& truth) {
  std::size_t found = 0;
  for (const ScoredPoint& hit : hits) {
    found += std::count(truth.begin(), truth.end(), hit.id);
  }
  return found;
}

// ---- accounting -----------------------------------------------------------

/// One operation type's calls: latencies of the successful ones, plus counts.
struct OpLog {
  std::vector<double> latency;  ///< per successful call (unit set by the caller)
  std::vector<double> done_s;   ///< completion time of each successful call, from window start
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t items = 0;      ///< queries answered / points acknowledged
  double seconds = 0.0;         ///< wall time of the measured window

  /// Adds a later window's calls and samples; its completion times are
  /// shifted past this log's window.
  void Append(const OpLog& other) {
    latency.insert(latency.end(), other.latency.begin(), other.latency.end());
    for (const double t : other.done_s) done_s.push_back(seconds + t);
    Count(other);
    items += other.items;
    seconds += other.seconds;
  }
  /// Adds only another log's call counts (e.g. a discarded window's).
  void Count(const OpLog& other) {
    attempted += other.attempted;
    failed += other.failed;
  }

  std::string Render() const {
    return JsonObject()
        .Set("latency", latency)
        .Set("done_s", done_s)
        .Set("attempted", static_cast<double>(attempted))
        .Set("failed", static_cast<double>(failed))
        .Set("items", static_cast<double>(items))
        .Set("seconds", seconds)
        .Render();
  }
};

/// Output checks; every count must stay 0 for the run to be correct.
struct Checks {
  std::uint64_t bad_results = 0;  ///< wrong hit count or an id outside the data
  std::uint64_t lost_acked = 0;   ///< acked points missing from TotalPoints()
  std::uint64_t unindexed = 0;    ///< acked/loaded points the index does not cover
  std::uint64_t recall_hits = 0;
  std::uint64_t recall_total = 0;

  std::string Render() const {
    return JsonObject()
        .Set("bad_results", static_cast<double>(bad_results))
        .Set("lost_acked", static_cast<double>(lost_acked))
        .Set("unindexed", static_cast<double>(unindexed))
        .Set("recall_hits", static_cast<double>(recall_hits))
        .Set("recall_total", static_cast<double>(recall_total))
        .Render();
  }
};

/// Benchmark-side span around one client call during a traced load.
struct CallSpan {
  std::uint32_t client = 0;
  double start_us = 0.0;  ///< from the start of the measured window
  double dur_us = 0.0;
};

// ---- cluster set-up -------------------------------------------------------

/// A running cluster plus the directory its durable shards live in; the
/// directory is removed once the cluster is gone.
class Env {
 public:
  Env(std::unique_ptr<LocalCluster> cluster, fs::path data_dir)
      : data_dir_(std::move(data_dir)), cluster_(std::move(cluster)) {}
  ~Env() {
    cluster_.reset();
    if (!data_dir_.empty()) {
      std::error_code ec;
      fs::remove_all(data_dir_, ec);
    }
  }
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  LocalCluster& Cluster() { return *cluster_; }
  Router& GetRouter() { return cluster_->GetRouter(); }
  const fs::path& DataDir() const { return data_dir_; }

 private:
  fs::path data_dir_;
  std::unique_ptr<LocalCluster> cluster_;
};

struct SetupTimes {
  double setup_s = 0.0;
  double build_s = 0.0;      ///< BuildAllIndexes wall time, caller-measured (0 = none)
  double upsert_rate = 0.0;  ///< points acked per second of this set-up's bulk load
};

CollectionConfig BaseCollection(const Workload& w) {
  CollectionConfig config;
  config.dim = kDim;
  config.metric = Metric::kCosine;
  config.index = w.index;
  config.defer_indexing = w.defer_indexing;
  config.flush_threshold = kFlushThreshold;
  return config;
}

fs::path FreshDir(const fs::path& work, const std::string& tag) {
  static int counter = 0;
  const fs::path dir =
      work / (tag + "-" + std::to_string(::getpid()) + "-" + std::to_string(counter++));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

/// Indexed points across the cluster, asked through each worker's Info RPC.
std::uint64_t IndexedPoints(LocalCluster& cluster) {
  std::uint64_t total = 0;
  for (WorkerId w = 0; w < cluster.NumWorkers(); ++w) {
    const Message reply =
        cluster.Transport().Call(WorkerEndpoint(w), EncodeInfoRequest(InfoRequest{}));
    total += Must(DecodeInfoResponse(reply), "info").indexed_points;
  }
  return total;
}

/// Starts the cluster, bulk-loads the first `points` points with one client
/// and, with `build`, builds the index when indexing is deferred. Upsert calls
/// go to `upserts` (latency in ms).
std::unique_ptr<Env> Setup(const Workload& w, std::size_t points, bool build,
                           const Dataset& data, const fs::path& work, SetupTimes& times,
                           OpLog& upserts, OpLog& builds, Checks& checks) {
  Stopwatch total;
  ClusterConfig config;
  config.num_workers = kWorkers;
  config.transport = w.transport;
  config.collection_template = BaseCollection(w);
  fs::path dir;
  if (w.durable) {
    dir = FreshDir(work, "data");
    config.collection_template.data_dir = dir;
  }
  auto env = std::make_unique<Env>(Must(LocalCluster::Start(config), "cluster start"), dir);

  Router& router = env->GetRouter();
  const std::span<const PointRecord> all(data.points);
  Stopwatch load;
  const std::uint64_t items_before = upserts.items;
  for (std::size_t begin = 0; begin < points; begin += kUpsertBatch) {
    const auto batch = all.subspan(begin, std::min(kUpsertBatch, points - begin));
    ++upserts.attempted;
    const auto start = Clock::now();
    const auto acked = router.UpsertBatch(batch);
    const double us = Micros(start, Clock::now());
    if (!acked.ok() || *acked != batch.size()) {
      ++upserts.failed;
      continue;
    }
    upserts.latency.push_back(us / 1000.0);
    upserts.items += batch.size();
  }
  const double load_s = load.ElapsedSeconds();
  upserts.seconds += load_s;
  if (load_s > 0.0) times.upsert_rate = static_cast<double>(upserts.items - items_before) / load_s;

  if (w.defer_indexing && build) {
    ++builds.attempted;
    Stopwatch build;
    const auto built = router.BuildAllIndexes();
    times.build_s = build.ElapsedSeconds();
    if (!built.ok()) ++builds.failed;
    // BuildAllIndexes reports 0 s (the worker never fills build_seconds), so
    // the caller's clock is the build time; indexed_points confirms the build.
    const std::uint64_t indexed = IndexedPoints(env->Cluster());
    if (indexed < points) checks.unindexed += points - indexed;
  }
  times.setup_s = total.ElapsedSeconds();
  return env;
}

// ---- closed-loop loads ----------------------------------------------------

struct LoadResult {
  OpLog search;   ///< latency in µs per client call
  OpLog upsert;   ///< latency in ms per batch (ingest_mixed)
  double index_build_s = 0.0;
  std::vector<CallSpan> spans;
  std::uint64_t rpc_calls = 0;   ///< Transport::Stats() delta
  std::uint64_t rpc_bytes = 0;   ///< sent + received
  std::uint64_t peer_calls = 0;  ///< Worker::Counters() delta, all workers
  std::vector<char> acked;  ///< per point (ingest_mixed)
  double steal_pct = 0.0;   ///< CPU steal during the window (the worst, when pooled)
};

std::uint64_t PeerCalls(LocalCluster& cluster) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < cluster.NumWorkers(); ++w) {
    total += cluster.GetWorker(w).Counters().peer_calls;
  }
  return total;
}

/// Counters at one edge of a load window.
struct WindowMark {
  TransportStats rpc;
  std::uint64_t peer_calls = 0;
  CpuTicks ticks;
};

WindowMark Mark(LocalCluster& cluster) {
  return {cluster.Transport().Stats(), PeerCalls(cluster), CpuTicks::Now()};
}

void CloseWindow(LocalCluster& cluster, const WindowMark& start, LoadResult& load) {
  const WindowMark end = Mark(cluster);
  load.rpc_calls = end.rpc.calls - start.rpc.calls;
  load.rpc_bytes = (end.rpc.bytes_sent - start.rpc.bytes_sent) +
                   (end.rpc.bytes_received - start.rpc.bytes_received);
  load.peer_calls = end.peer_calls - start.peer_calls;
  load.steal_pct = end.ticks.StealPctSince(start.ticks);
}

/// Pools a later window into `total` (its completion times shift past the
/// windows already pooled).
void Absorb(LoadResult& total, const LoadResult& part) {
  total.search.Append(part.search);
  total.upsert.Append(part.upsert);
  total.rpc_calls += part.rpc_calls;
  total.rpc_bytes += part.rpc_bytes;
  total.peer_calls += part.peer_calls;
  total.steal_pct = std::max(total.steal_pct, part.steal_pct);
  total.index_build_s = part.index_build_s;
  total.acked = part.acked;
}

/// Per-client state of a closed loop.
struct ClientLog {
  OpLog ops;
  std::vector<CallSpan> spans;
  Checks checks;

  /// Records one successful call; `unit` scales µs to the log's latency unit.
  void Success(Clock::time_point window_start, Clock::time_point start, Clock::time_point end,
               std::uint64_t items, std::uint32_t client, bool traced, double unit = 1.0) {
    ops.latency.push_back(Micros(start, end) * unit);
    ops.done_s.push_back(Micros(window_start, end) / 1e6);
    ops.items += items;
    if (traced) spans.push_back({client, Micros(window_start, start), Micros(start, end)});
  }
};

void MergeClient(LoadResult& load, OpLog& target, ClientLog& client, Checks& checks) {
  target.latency.insert(target.latency.end(), client.ops.latency.begin(),
                        client.ops.latency.end());
  target.done_s.insert(target.done_s.end(), client.ops.done_s.begin(),
                       client.ops.done_s.end());
  target.Count(client.ops);
  target.items += client.ops.items;
  target.seconds = std::max(target.seconds, client.ops.seconds);  // clients share one window
  load.spans.insert(load.spans.end(), client.spans.begin(), client.spans.end());
  checks.bad_results += client.checks.bad_results;
  checks.recall_hits += client.checks.recall_hits;
  checks.recall_total += client.checks.recall_total;
}

/// Checks one result list: k hits, each id below `id_limit`. With `truth`,
/// also counts recall.
void CheckHits(const std::vector<ScoredPoint>& hits, PointId id_limit,
               const std::vector<PointId>* truth, Checks& checks) {
  bool ok = hits.size() == kTopK;
  for (const ScoredPoint& hit : hits) ok = ok && hit.id < id_limit;
  if (!ok) ++checks.bad_results;
  if (truth != nullptr) {
    checks.recall_hits += Overlap(hits, *truth);
    checks.recall_total += truth->size();
  }
}

/// Two clients, each issuing Router::Search (or SearchBatch of 16) back to
/// back for `seconds`, after `warmup_calls` untimed calls each.
LoadResult RunSearchLoad(Env& env, const Workload& w, const Dataset& data,
                         const std::vector<std::vector<PointId>>& truth, double seconds,
                         bool traced, Checks& checks) {
  Router& router = env.GetRouter();
  SearchParams params;
  params.k = kTopK;
  params.ef_search = kEf;
  const std::size_t pool = data.queries.size();
  const std::size_t per_call = w.queries_per_call;
  std::vector<std::vector<Vector>> batches;
  if (per_call > 1) {
    for (std::size_t b = 0; b < pool / per_call; ++b) {
      batches.emplace_back(data.queries.begin() + static_cast<std::ptrdiff_t>(b * per_call),
                           data.queries.begin() + static_cast<std::ptrdiff_t>((b + 1) * per_call));
    }
  }
  const std::size_t inputs = per_call > 1 ? batches.size() : pool;

  LoadResult load;
  std::vector<ClientLog> clients(kSearchClients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point window_start;

  const auto one_call = [&](std::size_t input, ClientLog& log, bool record,
                            std::uint32_t client) {
    const auto start = Clock::now();
    if (per_call == 1) {
      const auto hits = router.Search(data.queries[input], params);
      const auto end = Clock::now();
      if (!record) return;
      ++log.ops.attempted;
      if (!hits.ok()) {
        ++log.ops.failed;
        return;
      }
      log.Success(window_start, start, end, 1, client, traced);
      CheckHits(*hits, data.points.size(), &truth[input], log.checks);
    } else {
      const auto results = router.SearchBatch(batches[input], params);
      const auto end = Clock::now();
      if (!record) return;
      ++log.ops.attempted;
      if (!results.ok() || results->size() != per_call) {
        ++log.ops.failed;
        return;
      }
      log.Success(window_start, start, end, per_call, client, traced);
      for (std::size_t q = 0; q < per_call; ++q) {
        CheckHits((*results)[q], data.points.size(), &truth[input * per_call + q],
                  log.checks);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kSearchClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = clients[c];
      std::size_t input = static_cast<std::size_t>(c) * inputs / kSearchClients;
      for (int i = 0; i < w.warmup_calls; ++i) {
        one_call(input, log, false, c);
        input = (input + 1) % inputs;
      }
      ++ready;
      while (!go.load()) std::this_thread::yield();
      const auto deadline = window_start + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(seconds));
      while (Clock::now() < deadline) {
        one_call(input, log, true, c);
        input = (input + 1) % inputs;
      }
      log.ops.seconds = std::chrono::duration<double>(Clock::now() - window_start).count();
    });
  }
  while (ready.load() < kSearchClients) std::this_thread::yield();
  const WindowMark mark = Mark(env.Cluster());
  window_start = Clock::now();
  go = true;
  for (auto& thread : threads) thread.join();
  CloseWindow(env.Cluster(), mark, load);
  for (ClientLog& log : clients) MergeClient(load, load.search, log, checks);
  return load;
}

/// ingest_mixed: one writer sends UpsertBatch(256 points with payloads) back
/// to back while one reader runs Router::Search, both for `seconds`.
/// index_build_s is the time until the first `build_target` points are acked
/// (incremental indexing indexes each point inside its upsert).
LoadResult RunIngestLoad(Env& env, const Dataset& data, double seconds, bool traced,
                         Checks& checks) {
  Router& router = env.GetRouter();
  SearchParams params;
  params.k = kTopK;
  params.ef_search = kEf;
  const std::size_t build_target = kWorkers * kFlushThreshold;

  LoadResult load;
  load.acked.assign(data.points.size(), 0);
  std::atomic<std::uint64_t> acked_points{0};
  std::atomic<PointId> sent_limit{0};
  std::atomic<bool> writer_done{false};
  const auto window_start = Clock::now();
  const auto deadline = window_start + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  const WindowMark mark = Mark(env.Cluster());

  ClientLog writer_log;
  std::thread writer([&] {
    const std::span<const PointRecord> all(data.points);
    for (std::size_t begin = 0; begin < all.size() && Clock::now() < deadline;
         begin += kUpsertBatch) {
      const auto batch = all.subspan(begin, std::min(kUpsertBatch, all.size() - begin));
      sent_limit.store(begin + batch.size());
      ++writer_log.ops.attempted;
      const auto start = Clock::now();
      const auto acked = router.UpsertBatch(batch);
      const auto end = Clock::now();
      if (!acked.ok() || *acked != batch.size()) {
        ++writer_log.ops.failed;
        continue;
      }
      std::fill(load.acked.begin() + static_cast<std::ptrdiff_t>(begin),
                load.acked.begin() + static_cast<std::ptrdiff_t>(begin + batch.size()), 1);
      writer_log.Success(window_start, start, end, batch.size(), 0, traced, /*unit=ms*/ 1e-3);
      const std::uint64_t total = acked_points += batch.size();
      if (load.index_build_s == 0.0 && total >= build_target) {
        load.index_build_s = std::chrono::duration<double>(end - window_start).count();
      }
    }
    writer_log.ops.seconds = std::chrono::duration<double>(Clock::now() - window_start).count();
    writer_done = true;
  });

  ClientLog reader_log;
  std::thread reader([&] {
    while (acked_points.load() == 0 && !writer_done.load()) std::this_thread::yield();
    const auto reader_start = Clock::now();
    std::size_t input = 0;
    while (!writer_done.load()) {
      const auto start = Clock::now();
      const auto hits = router.Search(data.queries[input], params);
      const auto end = Clock::now();
      ++reader_log.ops.attempted;
      if (!hits.ok()) {
        ++reader_log.ops.failed;
      } else {
        reader_log.Success(window_start, start, end, 1, 1, traced);
        CheckHits(*hits, sent_limit.load(), nullptr, reader_log.checks);
      }
      input = (input + 1) % data.queries.size();
    }
    reader_log.ops.seconds = std::chrono::duration<double>(Clock::now() - reader_start).count();
  });
  writer.join();
  reader.join();
  CloseWindow(env.Cluster(), mark, load);
  MergeClient(load, load.upsert, writer_log, checks);
  MergeClient(load, load.search, reader_log, checks);

  // No acked write lost, every acked point indexed.
  const std::uint64_t acked = acked_points.load();
  const auto total = router.TotalPoints();
  if (!total.ok() || *total != acked) {
    checks.lost_acked += total.ok() && *total < acked ? acked - *total : 1;
  }
  const std::uint64_t indexed = IndexedPoints(env.Cluster());
  if (indexed < acked) checks.unindexed += acked - indexed;
  return load;
}

/// Recall after ingest: every pool query once through Router::Search,
/// against the exact top-10 over the acked points.
void CheckRecallAfterIngest(Env& env, const Dataset& data, const std::vector<char>& acked,
                            OpLog& search, Checks& checks) {
  SearchParams params;
  params.k = kTopK;
  params.ef_search = kEf;
  const auto truth = ExactTopK(data, acked);
  for (std::size_t q = 0; q < data.queries.size(); ++q) {
    ++search.attempted;
    const auto hits = env.GetRouter().Search(data.queries[q], params);
    if (!hits.ok()) {
      ++search.failed;
      continue;
    }
    CheckHits(*hits, data.points.size(), &truth[q], checks);
  }
}

// ---- the peel -------------------------------------------------------------

/// One timed entry for one peel input; spans of one input share `input`.
struct PeelSpan {
  std::size_t input = 0;
  std::string layer;
  double value = 0.0;
};

struct Peel {
  std::vector<PeelSpan> spans;
  std::map<std::string, double> scalars;

  void Add(std::size_t input, const std::string& layer, double value) {
    spans.push_back({input, layer, value});
  }
};

/// Search path, one input at a time, idle cluster: router → entry RPC →
/// peer-local RPC (all four workers) → Worker::Handle → Collection::Search.
void PeelSearch(Env& env, const Workload& w, const Dataset& data, Peel& peel) {
  LocalCluster& cluster = env.Cluster();
  Router& router = cluster.GetRouter();
  vdb::Transport& transport = cluster.Transport();
  SearchParams params;
  params.k = kTopK;
  params.ef_search = kEf;
  SearchParams fanout_n = params;
  fanout_n.intra_fanout = HostThreads();
  const std::size_t per_call = w.queries_per_call;
  const std::size_t inputs = per_call > 1 ? 32 : 96;

  for (std::size_t input = 0; input <= inputs; ++input) {  // input 0 warms up
    const WorkerId entry = static_cast<WorkerId>(input % kWorkers);
    std::vector<Vector> queries;
    for (std::size_t q = 0; q < per_call; ++q) {
      queries.push_back(data.queries[(input * per_call + q) % data.queries.size()]);
    }
    const Message request =
        per_call > 1 ? EncodeSearchBatch(queries, params, /*fan_out=*/true,
                                         /*allow_partial=*/false, 0.0)
                     : EncodeSearch(queries[0], params, /*fan_out=*/true,
                                    /*allow_partial=*/false, Filter{}, 0.0);
    Worker& worker = cluster.GetWorker(entry);
    std::vector<Collection*> shards;
    for (const ShardId shard : cluster.Placement().ShardsOwnedBy(entry)) {
      shards.push_back(worker.ShardForTest(shard));
      if (shards.back() == nullptr) Die("entry worker lost its shard");
    }

    bool failed = false;
    std::map<std::string, double> us;
    std::vector<double> local_us(kWorkers);
    std::vector<ScoredPoint> sample_hits;
    const auto search_shards = [&](const SearchParams& p, bool whole_call) {
      for (Collection* collection : shards) {
        for (std::size_t q = 0; q < (whole_call ? queries.size() : 1); ++q) {
          auto hits = collection->Search(queries[q], p);
          failed |= !hits.ok();
          if (hits.ok()) sample_hits = std::move(*hits);
        }
      }
    };
    // One step per layer entry. They run outer to inner on even inputs and
    // inner to outer on odd ones, so the entry that meets the coldest caches
    // is not always the same one.
    std::vector<std::function<void()>> steps;
    steps.push_back([&] {
      us["router.search"] = TimeUs([&] {
        failed |= per_call > 1 ? !router.SearchBatch(queries, params).ok()
                               : !router.SearchVia(entry, queries[0], params).ok();
      });
    });
    steps.push_back([&] {
      us["rpc.entry_call"] = TimeUs([&] {
        failed |= !MessageToStatus(transport.Call(WorkerEndpoint(entry), request)).ok();
      });
    });
    for (WorkerId peer = 0; peer < kWorkers; ++peer) {
      steps.push_back([&, peer] {
        local_us[peer] = TimeUs([&] {
          failed |= !MessageToStatus(transport.Call(WorkerLocalEndpoint(peer), request)).ok();
        });
      });
    }
    steps.push_back([&] {
      us["worker.handle_local"] = TimeUs([&] {
        failed |= !MessageToStatus(worker.Handle(request, /*force_local=*/true)).ok();
      });
    });
    steps.push_back([&] { us["collection.search"] = TimeUs([&] { search_shards(params, true); }); });
    steps.push_back([&] { us["index.fanout1"] = TimeUs([&] { search_shards(params, false); }); });
    steps.push_back([&] { us["index.fanoutN"] = TimeUs([&] { search_shards(fanout_n, false); }); });
    if (input % 2 == 1) std::reverse(steps.begin(), steps.end());
    for (const auto& step : steps) step();

    // Codec round trip of this input: request encode → view decode →
    // response encode → response decode, averaged over repetitions.
    constexpr int kCodecReps = 16;
    us["codec.search_roundtrip"] = TimeUs([&] {
      for (int rep = 0; rep < kCodecReps; ++rep) {
        if (per_call > 1) {
          const Message req = EncodeSearchBatch(queries, params, true, false, 0.0);
          const auto view = DecodeSearchBatchRequestView(req);
          SearchBatchResponse response;
          response.results.assign(view.ok() ? view->size() : 0, sample_hits);
          failed |= !view.ok() ||
                    !DecodeSearchBatchResponse(EncodeSearchBatchResponse(response)).ok();
        } else {
          const Message req = EncodeSearch(queries[0], params, true, false, Filter{}, 0.0);
          const auto view = DecodeSearchRequestView(req);
          SearchResponse response;
          response.hits = sample_hits;
          failed |= !view.ok() ||
                    !DecodeSearchResponse(EncodeSearchResponse(response)).ok();
        }
      }
    }) / kCodecReps;

    if (failed) Die("a peel call failed");
    if (input == 0) continue;
    for (const auto& [layer, value] : us) peel.Add(input, layer, value);
    peel.Add(input, "rpc.local_call", local_us[entry]);
    for (WorkerId peer = 0; peer < kWorkers; ++peer) {
      peel.Add(input, "rpc.local_call.w" + std::to_string(peer), local_us[peer]);
    }
  }
}

/// Write path on standalone collections fed the same 256-point batches:
/// durable with deferred indexing (WAL and store, no index), in-memory with
/// incremental HNSW (store and index), and in-memory with deferred indexing
/// (store only); each row's self time is its difference from the last. Plus
/// segment flushes and the upsert codec.
void PeelUpsert(const Dataset& data, const fs::path& work, Peel& peel) {
  constexpr std::size_t kBatches = 8;
  constexpr std::size_t kFlushEvery = 2;
  Workload ingest;
  ingest.index = IngestHnsw();
  CollectionConfig deferred_config = BaseCollection(ingest);
  deferred_config.defer_indexing = true;
  CollectionConfig durable_config = deferred_config;
  const fs::path dir = FreshDir(work, "peel");
  durable_config.data_dir = dir;
  {
    auto durable = Must(Collection::Open(durable_config), "open durable collection");
    auto memory = Must(Collection::Open(BaseCollection(ingest)), "open collection");
    auto deferred = Must(Collection::Open(deferred_config), "open deferred collection");
    const std::vector<std::pair<std::string, Collection*>> targets = {
        {"collection.upsert_durable", durable.get()},
        {"collection.upsert_mem", memory.get()},
        {"collection.upsert_deferred", deferred.get()}};
    for (std::size_t b = 0; b < kBatches; ++b) {
      const auto first = data.points.begin() + static_cast<std::ptrdiff_t>(b * kUpsertBatch);
      const std::vector<PointRecord> batch(first, first + kUpsertBatch);
      bool failed = false;
      for (std::size_t t = 0; t < targets.size(); ++t) {
        // Alternate the order so no collection always meets the coldest caches.
        const auto& [layer, collection] = targets[b % 2 == 0 ? t : targets.size() - 1 - t];
        peel.Add(b, layer,
                 TimeUs([&] { failed |= !collection->UpsertBatch(batch).ok(); }) / 1000.0);
      }
      if ((b + 1) % kFlushEvery == 0) {
        peel.Add(b, "storage.flush", TimeUs([&] { failed |= !durable->Flush().ok(); }) / 1000.0);
      }
      if (failed) Die("a standalone upsert failed");
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  const std::span<const PointRecord> batch(data.points.data(), kUpsertBatch);
  for (std::size_t rep = 0; rep < 16; ++rep) {
    Message encoded;
    peel.Add(rep, "codec.upsert_encode", TimeUs([&] { encoded = EncodeUpsertBatch(0, batch); }));
    bool ok = true;
    peel.Add(rep, "codec.upsert_decode",
             TimeUs([&] { ok = DecodeUpsertBatchView(encoded).ok(); }));
    if (!ok) Die("upsert codec round trip failed");
  }
}

/// Collection::BuildIndex on one standalone shard of the workload's data, to
/// set beside the cluster-wide index_build_s (four shards building at once).
void PeelBuild(const Workload& w, const Dataset& data, Peel& peel) {
  CollectionConfig config = BaseCollection(w);
  config.defer_indexing = true;
  const std::size_t limit = w.preload > 0 ? w.preload : kWorkers * kFlushThreshold;
  std::vector<PointRecord> shard;
  for (std::size_t i = 0; i < std::min(limit, data.points.size()); ++i) {
    if (ShardForPoint(data.points[i].id, kWorkers) == 0) shard.push_back(data.points[i]);
  }
  auto collection = Must(Collection::Open(config), "open build collection");
  if (!collection->UpsertBatch(shard).ok()) Die("build shard load failed");
  Stopwatch build;
  if (!collection->BuildIndex().ok()) Die("standalone build failed");
  peel.scalars["index.build_shard_s"] = build.ElapsedSeconds();
}

/// Kernel throughput at 768-d over shard-sized rows, for every ISA this
/// binary and host support (unsupported ones are absent).
void PeelKernels(const Dataset& data, Peel& peel) {
  const std::size_t rows = std::max<std::size_t>(1, data.points.size() / kWorkers);
  std::vector<const Scalar*> row_ptrs(rows);
  for (std::size_t r = 0; r < rows; ++r) row_ptrs[r] = data.points[r].vector.data();
  std::vector<Scalar> out(rows);
  const std::size_t blocks = (rows + dist::kSqBlockRows - 1) / dist::kSqBlockRows;
  std::vector<std::uint8_t> codes(blocks * dist::kSqBlockRows * kDim);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 24);
  }
  std::vector<std::int8_t> query_i8(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    query_i8[i] = static_cast<std::int8_t>(static_cast<int>((i * 40503u) >> 8 & 0xFF) - 128);
  }
  std::vector<std::int32_t> out_i32(dist::kSqBlockRows);
  constexpr int kPasses = 5;
  for (const dist::KernelIsa isa : dist::SupportedIsas()) {
    const dist::KernelTable* table = dist::KernelsFor(isa);
    if (table == nullptr) continue;
    const std::string name(dist::KernelIsaName(isa));
    for (int pass = 0; pass < kPasses; ++pass) {
      const double rows_us = TimeUs([&] {
        table->dot_rows(data.queries[0].data(), row_ptrs.data(), rows, kDim, out.data());
      });
      peel.Add(pass, "dist.dot_rows_gbps." + name,
               static_cast<double>(rows * kDim * sizeof(Scalar)) / rows_us / 1e3);
      const double u8_us = TimeUs([&] {
        for (std::size_t b = 0; b < blocks; ++b) {
          table->dot_u8q_blocked(query_i8.data(), codes.data() + b * dist::kSqBlockRows * kDim,
                                 kDim, out_i32.data());
        }
      });
      peel.Add(pass, "dist.dot_u8q_blocked_gbps." + name,
               static_cast<double>(codes.size()) / u8_us / 1e3);
    }
  }
}

/// Cluster-wide storage and memory figures from CollectionInfo.
void PeelClusterInfo(Env& env, std::uint64_t user_bytes, Peel& peel) {
  LocalCluster& cluster = env.Cluster();
  CollectionInfo sum;
  for (WorkerId w = 0; w < cluster.NumWorkers(); ++w) {
    for (const ShardId shard : cluster.Placement().ShardsOwnedBy(w)) {
      const Collection* collection = cluster.GetWorker(w).ShardForTest(shard);
      if (collection == nullptr) continue;
      const CollectionInfo info = collection->Info();
      sum.live_points += info.live_points;
      sum.segments_flushed += info.segments_flushed;
      sum.wal_bytes += info.wal_bytes;
      sum.memory_bytes += info.memory_bytes;
    }
  }
  peel.scalars["collection.memory_bytes_per_point"] =
      sum.live_points > 0 ? static_cast<double>(sum.memory_bytes) / sum.live_points : 0.0;
  peel.scalars["storage.segments_flushed"] = static_cast<double>(sum.segments_flushed);
  peel.scalars["storage.wal_bytes_per_user_byte"] =
      user_bytes > 0 ? static_cast<double>(sum.wal_bytes) / user_bytes : 0.0;
}

std::string RenderPeel(const Peel& peel) {
  std::string spans = "[";
  for (std::size_t i = 0; i < peel.spans.size(); ++i) {
    if (i != 0) spans += ',';
    spans += "[" + std::to_string(peel.spans[i].input) + "," + Quote(peel.spans[i].layer) +
             "," + Num(peel.spans[i].value) + "]";
  }
  spans += "]";
  JsonObject scalars;
  for (const auto& [name, value] : peel.scalars) scalars.Set(name, value);
  return JsonObject().Raw("spans", spans).Raw("scalars", scalars.Render()).Render();
}

std::string RenderLoad(const LoadResult& load) {
  std::string spans = "[";
  for (std::size_t i = 0; i < load.spans.size(); ++i) {
    if (i != 0) spans += ',';
    spans += "[" + std::to_string(load.spans[i].client) + "," + Num(load.spans[i].start_us) +
             "," + Num(load.spans[i].dur_us) + "]";
  }
  spans += "]";
  return JsonObject()
      .Raw("search", load.search.Render())
      .Raw("upsert", load.upsert.Render())
      .Set("index_build_s", load.index_build_s)
      .Raw("spans", spans)
      .Set("rpc_calls", static_cast<double>(load.rpc_calls))
      .Set("rpc_bytes", static_cast<double>(load.rpc_bytes))
      .Set("peer_calls", static_cast<double>(load.peer_calls))
      .Set("steal_pct", load.steal_pct)
      .Render();
}

// ---- fingerprint ----------------------------------------------------------

std::string Fingerprint(const fs::path& work) {
  const char* kernel_env = std::getenv("VDB_KERNEL");
  return JsonObject()
      .Set("cpu_model", ReadFirstMatch("/proc/cpuinfo", "model name"))
      .Set("nproc", static_cast<double>(HostThreads()))
      .Set("l3", [] {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
        std::string size;
        in >> size;
        return size.empty() ? std::string("unknown") : size;
      }())
      .Set("dist_isa", std::string(dist::ActiveKernels().name))
      .Set("vdb_kernel", kernel_env != nullptr ? std::string(kernel_env) : "unset")
      .Set("build_type", std::string(PERFBENCH_BUILD_TYPE))
#ifdef VDB_OBS_DISABLED
      .Set("obs", std::string("compiled out"))
#else
      .Set("obs", std::string("compiled in"))
#endif
      .Set("tmp_fs", FilesystemOf(work))
      // As the engine has it: WalWriter appends to a buffered std::ofstream
      // and Sync() only flushes that stream; Collection never flushes on its
      // own (only the Optimizer reads flush_threshold, and LocalCluster
      // starts none).
      .Set("flush_policy",
           "WAL: buffered stream write per point, acked without flush or fsync; segments "
           "flush only on an explicit Collection::Flush, which flushes the stream but never "
           "fsyncs; flush_threshold " + std::to_string(kFlushThreshold) +
               " is read by no running component")
      .Render();
}

// ---- main -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out;
  fs::path work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (args.workload.empty() || args.out.empty() || args.work_dir.empty()) {
    Die("usage: perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1 "
        "--out FILE --work-dir DIR");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  SetLogLevel(LogLevel::kError);
  const auto workloads = Workloads();
  const auto found = std::find_if(workloads.begin(), workloads.end(),
                                  [&](const Workload& w) { return w.name == args.workload; });
  if (found == workloads.end()) Die("unknown workload " + args.workload);
  const Workload& w = *found;
  fs::create_directories(args.work_dir);

  // Inputs come from the seed alone; generating them is not set-up time.
  const Dataset data = Generate(w.preload > 0 ? w.preload : w.ingest_cap, args.seed);
  const bool ingest = w.preload == 0;
  const auto truth = ingest ? std::vector<std::vector<PointId>>{} : ExactTopK(data, {});

  std::vector<double> setup_s;
  std::vector<double> index_build_s;
  std::vector<double> setup_upsert_rate;
  OpLog setup_upserts;
  OpLog builds;
  Checks checks;
  // Only end-to-end runs repeat disturbed windows; per-layer rows have no bound.
  int repeats_left = args.trace ? 0 : kMaxRepeats;
  OpLog discarded;
  const auto disturbed = [&](double steal_pct) {
    if (steal_pct <= kMaxStealPct || repeats_left == 0) return false;
    --repeats_left;
    return true;
  };
  const auto setup = [&] {
    for (;;) {
      SetupTimes times;
      OpLog upserts;
      const CpuTicks ticks = CpuTicks::Now();
      auto env =
          Setup(w, w.preload, true, data, args.work_dir, times, upserts, builds, checks);
      if (disturbed(CpuTicks::Now().StealPctSince(ticks))) {
        discarded.Count(upserts);
        continue;
      }
      setup_upserts.Append(upserts);
      setup_s.push_back(times.setup_s);
      if (w.defer_indexing) index_build_s.push_back(times.build_s);
      if (w.preload > 0) setup_upsert_rate.push_back(times.upsert_rate);
      return env;
    }
  };
  const auto run_load = [&](Env& env, bool traced, Checks& load_checks, double seconds) {
    LoadResult load = ingest ? RunIngestLoad(env, data, seconds, traced, load_checks)
                             : RunSearchLoad(env, w, data, truth, seconds, traced, load_checks);
    if (ingest) CheckRecallAfterIngest(env, data, load.acked, load.search, load_checks);
    return load;
  };
  const auto stored_bytes = [&](Env& env, const std::vector<char>& acked,
                                std::uint64_t& user_bytes) {
    user_bytes = 0;
    for (std::size_t i = 0; i < data.points.size(); ++i) {
      if (acked.empty() ? i < w.preload : acked[i] != 0) user_bytes += UserBytes(data.points[i]);
    }
    if (w.durable) return DiskBytes(env.DataDir());
    std::uint64_t memory = 0;
    LocalCluster& cluster = env.Cluster();
    for (WorkerId id = 0; id < cluster.NumWorkers(); ++id) {
      for (const ShardId shard : cluster.Placement().ShardsOwnedBy(id)) {
        memory += cluster.GetWorker(id).ShardForTest(shard)->Info().memory_bytes;
      }
    }
    return memory;
  };

  {
    // The first clusters of a process pay for filling the allocator's and the
    // thread library's caches (a cluster start slows from about 0.5 to 0.8 ms
    // without them) and the buffer pool; untimed starts and a smaller set-up
    // take that cost so every timed set-up starts from the same state.
    SetupTimes times;
    OpLog upserts;
    OpLog warm_builds;
    for (int i = 0; i < kWarmupStarts; ++i) {
      Setup(w, 0, false, data, args.work_dir, times, upserts, warm_builds, checks);
    }
    Setup(w, std::min(w.preload, kWarmupPoints), false, data, args.work_dir, times, upserts,
          warm_builds, checks);
  }

  JsonObject record;
  record.Set("workload", w.name)
      .Set("seed", static_cast<double>(args.seed))
      .Set("trace", args.trace ? 1.0 : 0.0)
      .Set("seconds", args.seconds)
      .Raw("fingerprint", Fingerprint(args.work_dir));

  if (!args.trace) {
    // The search workloads split the window over every set-up, so per-cluster
    // state (an HNSW graph built by racing threads, thread placement) is
    // averaged; ingest_mixed needs one cluster for the whole window to reach
    // its volume.
    const int windows = ingest ? 1 : w.setups;
    std::unique_ptr<Env> env;
    LoadResult load;
    for (int s = 0; s < w.setups; ++s) {
      env.reset();  // one cluster at a time: workers share the process-wide arena
      env = setup();
      if (s < w.setups - windows) continue;
      LoadResult part = run_load(*env, false, checks, args.seconds / windows);
      while (disturbed(part.steal_pct)) {
        discarded.Count(part.search);
        discarded.Count(part.upsert);
        if (ingest) {  // the writer needs an empty cluster again
          env.reset();
          env = setup();
        }
        part = run_load(*env, false, checks, args.seconds / windows);
      }
      Absorb(load, part);
    }
    std::uint64_t user_bytes = 0;
    const std::uint64_t stored = stored_bytes(*env, load.acked, user_bytes);
    env.reset();
    record.Raw("load", RenderLoad(load))
        .Set("stored_bytes", static_cast<double>(stored))
        .Set("user_bytes", static_cast<double>(user_bytes));
  } else {
    auto env = setup();
    Checks untraced_checks;
    const LoadResult untraced = run_load(*env, false, untraced_checks, args.seconds);
    env.reset();
    env = setup();
    const LoadResult traced = run_load(*env, true, checks, args.seconds);
    checks.bad_results += untraced_checks.bad_results;
    checks.lost_acked += untraced_checks.lost_acked;
    checks.unindexed += untraced_checks.unindexed;

    Peel peel;
    PeelSearch(*env, w, data, peel);
    std::uint64_t user_bytes = 0;
    (void)stored_bytes(*env, traced.acked, user_bytes);
    PeelClusterInfo(*env, user_bytes, peel);
    env.reset();
    PeelUpsert(data, args.work_dir, peel);
    PeelBuild(w, data, peel);
    PeelKernels(data, peel);
    record.Raw("load", RenderLoad(untraced))
        .Raw("traced_load", RenderLoad(traced))
        .Raw("peel", RenderPeel(peel));
  }

  record.Set("setup_s", setup_s)
      .Set("index_build_s", index_build_s)
      .Set("setup_upsert_rate", setup_upsert_rate)
      .Raw("setup_upserts", setup_upserts.Render())
      .Raw("builds", builds.Render())
      .Raw("discarded", discarded.Render())
      .Set("repeats", static_cast<double>((args.trace ? 0 : kMaxRepeats) - repeats_left))
      .Raw("checks", checks.Render())
      .Set("peak_rss_mb", PeakRssMb());

  std::ofstream out(args.out);
  out << record.Render() << "\n";
  out.close();
  if (!out) Die("cannot write " + args.out.string());
  return 0;
}
