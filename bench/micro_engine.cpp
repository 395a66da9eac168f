/// \file micro_engine.cpp
/// google-benchmark microbenches of the real engine's hot paths: 2560-d
/// distance kernels (the paper's embedding dimension), top-k maintenance,
/// k-way merge, HNSW search, RPC codec, WAL append, and payload encoding.
///
/// Gate mode (the CI acceptance check for the compressed read path and the
/// HNSW insert path): with --check=1 and/or --out=PATH the google-benchmark
/// table is skipped and the binary instead
///  - measures the SQ8-rerank flat scan against the float flat scan at the
///    paper dimension (2560-d): SQ8 must hold >= 3x the float query
///    throughput at <= 2 points of recall@10 loss;
///  - builds the seeded HNSW insert fixture single-threaded, one Add() per
///    point: at ef_construction 32 the exact distance-computation count must
///    stay <= 1000 per insert with recall@10 no lower than the graph that
///    back-filled every re-pruned list (1.0 on this fixture, ~4280
///    computations per insert). The count is timing-free, so the gate holds
///    on any host.
/// It writes BENCH_engine.json (baseline under bench/baselines/) and with
/// --check=1 exits nonzero when either gate fails.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "common/cpuid.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "obs/obs.hpp"
#include "dist/distance.hpp"
#include "dist/topk.hpp"
#include "index/flat_index.hpp"
#include "index/hnsw_index.hpp"
#include "index/sq_index.hpp"
#include "rpc/codec.hpp"
#include "storage/segment.hpp"
#include "storage/wal.hpp"
#include "workload/corpus.hpp"
#include "workload/embeddings.hpp"

namespace vdb {
namespace {

Vector RandomVector(Rng& rng, std::size_t dim) {
  Vector v(dim);
  for (auto& x : v) x = static_cast<Scalar>(rng.NextGaussian());
  return v;
}

void BM_DotProduct2560(benchmark::State& state) {
  Rng rng(1);
  const Vector a = RandomVector(rng, kPaperDim);
  const Vector b = RandomVector(rng, kPaperDim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DotProduct(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(kPaperDim) * 4);
}
BENCHMARK(BM_DotProduct2560);

void BM_L2Squared2560(benchmark::State& state) {
  Rng rng(2);
  const Vector a = RandomVector(rng, kPaperDim);
  const Vector b = RandomVector(rng, kPaperDim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2SquaredDistance(a, b));
  }
}
BENCHMARK(BM_L2Squared2560);

void BM_ScoreBatch(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<Scalar> base(rows * 256);
  for (auto& x : base) x = static_cast<Scalar>(rng.NextGaussian());
  const Vector query = RandomVector(rng, 256);
  std::vector<Scalar> out(rows);
  for (auto _ : state) {
    ScoreBatch(Metric::kInnerProduct, query, base.data(), 256, rows, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ScoreBatch)->Arg(64)->Arg(1024);

void BM_TopKPush(benchmark::State& state) {
  Rng rng(4);
  std::vector<Scalar> scores(4096);
  for (auto& s : scores) s = rng.NextFloat();
  for (auto _ : state) {
    TopK collector(10);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      collector.Push(i, scores[i]);
    }
    benchmark::DoNotOptimize(collector.Take());
  }
}
BENCHMARK(BM_TopKPush);

/// Entry-worker reduce of 16 shards held on 2 replicas each: 32 best-first
/// lists of k hits, every point reported twice, merged to the global top-k.
/// The k sweep brackets MergeTopK's dedup cutoff (kScanDedupMaxK).
void BM_MergeTopK(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::vector<ScoredPoint>> partials(32);
  for (std::size_t shard = 0; shard < 16; ++shard) {
    for (PointId i = 0; i < k; ++i) {
      partials[shard].push_back({shard * 100000 + i, rng.NextFloat()});
    }
    std::sort(partials[shard].begin(), partials[shard].end(),
              [](const ScoredPoint& a, const ScoredPoint& b) { return a.score > b.score; });
    partials[shard + 16] = partials[shard];
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeTopK(partials, k));
  }
}
BENCHMARK(BM_MergeTopK)->Arg(10)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_HnswSearch(benchmark::State& state) {
  static VectorStore* store = [] {
    auto* s = new VectorStore(64, Metric::kCosine);
    Rng rng(6);
    for (PointId i = 0; i < 5000; ++i) {
      (void)s->Add(i, RandomVector(rng, 64));
    }
    return s;
  }();
  static HnswIndex* index = [] {
    HnswParams params;
    params.m = 16;
    params.build_threads = 1;
    auto* idx = new HnswIndex(*store, params);
    (void)idx->Build();
    return idx;
  }();
  Rng rng(7);
  const Vector query = RandomVector(rng, 64);
  SearchParams params;
  params.k = 10;
  params.ef_search = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(query, params));
  }
}
BENCHMARK(BM_HnswSearch)->Arg(16)->Arg(64)->Arg(256);

/// Seeded HNSW insert fixture: clustered 128-d embeddings (256 topics), one
/// Add() per point in offset order as Collection indexes each upsert, and
/// topic queries scored at ef 64 against exact top-10.
constexpr std::size_t kInsertPoints = 8000;
constexpr std::size_t kInsertQueries = 200;

struct InsertFixture {
  EmbeddingGenerator generator;
  VectorStore store;
  std::vector<Vector> queries;
};

const InsertFixture& HnswInsertFixture() {
  static const InsertFixture* fixture = [] {
    EmbeddingParams embed;
    embed.dim = 128;
    embed.seed = 7;
    auto* f = new InsertFixture{EmbeddingGenerator(embed),
                                VectorStore(embed.dim, Metric::kCosine), {}};
    CorpusParams corpus_params;
    corpus_params.num_documents = kInsertPoints;
    corpus_params.num_topics = embed.num_topics;
    corpus_params.seed = 7;
    const SyntheticCorpus corpus(corpus_params);
    for (const auto& point : f->generator.MakePoints(corpus, 0, kInsertPoints, false)) {
      (void)f->store.Add(point.id, point.vector);
    }
    Rng rng(11);
    for (std::size_t q = 0; q < kInsertQueries; ++q) {
      const auto topic = static_cast<std::uint16_t>(rng.NextU64(embed.num_topics));
      f->queries.push_back(f->generator.QueryFor(topic, q));
    }
    return f;
  }();
  return *fixture;
}

struct HnswInsertResult {
  double us_per_insert = 0.0;
  double dist_per_insert = 0.0;
  double recall_at_10 = 0.0;
};

/// Builds the fixture's graph single-threaded; with `recall`, also scores it.
HnswInsertResult MeasureHnswInsert(std::size_t ef_construction, bool recall) {
  const InsertFixture& fixture = HnswInsertFixture();
  HnswParams params;
  params.ef_construction = ef_construction;
  params.build_threads = 1;
  HnswIndex index(fixture.store, params);
  Stopwatch watch;
  for (std::uint32_t offset = 0; offset < kInsertPoints; ++offset) {
    if (!index.Add(offset).ok()) return {};
  }
  HnswInsertResult result;
  result.us_per_insert = watch.ElapsedSeconds() * 1e6 / kInsertPoints;
  result.dist_per_insert =
      static_cast<double>(index.Stats().distance_computations) / kInsertPoints;
  if (!recall) return result;
  SearchParams search;
  search.k = 10;
  search.ef_search = 64;
  double total = 0.0;
  for (const auto& query : fixture.queries) {
    auto hits = index.Search(query, search);
    if (!hits.ok()) return {};
    total += RecallAtK(*hits, ExactSearch(fixture.store, query, search.k), search.k);
  }
  result.recall_at_10 = total / static_cast<double>(fixture.queries.size());
  return result;
}

void BM_HnswInsert(benchmark::State& state) {
  const auto ef_construction = static_cast<std::size_t>(state.range(0));
  HnswInsertResult last;
  for (auto _ : state) {
    last = MeasureHnswInsert(ef_construction, /*recall=*/false);
    benchmark::DoNotOptimize(last);
  }
  state.counters["us_per_insert"] = last.us_per_insert;
  state.counters["dist_per_insert"] = last.dist_per_insert;
}
BENCHMARK(BM_HnswInsert)->Arg(32)->Arg(100)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_CodecUpsertBatch(benchmark::State& state) {
  Rng rng(8);
  std::vector<PointRecord> points;
  for (PointId i = 0; i < 32; ++i) {
    PointRecord record;
    record.id = i;
    record.vector = RandomVector(rng, kPaperDim);
    points.push_back(std::move(record));
  }
  for (auto _ : state) {
    const Message message = EncodeUpsertBatch(1, points);
    benchmark::DoNotOptimize(DecodeUpsertBatchView(message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32 *
                          static_cast<std::int64_t>(kPaperDim) * 4);
}
BENCHMARK(BM_CodecUpsertBatch);

void BM_WalAppend(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() / "vdb_bench_wal.log";
  std::filesystem::remove(path);
  auto writer = WalWriter::Open(path);
  if (!writer.ok()) {
    state.SkipWithError("cannot open WAL");
    return;
  }
  Rng rng(9);
  const Vector v = RandomVector(rng, 256);
  PointId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer->AppendUpsert(id++, v));
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalAppend);

void BM_SqScan(benchmark::State& state) {
  static VectorStore* store = [] {
    auto* s = new VectorStore(256, Metric::kCosine);
    Rng rng(10);
    for (PointId i = 0; i < 5000; ++i) {
      (void)s->Add(i, RandomVector(rng, 256));
    }
    return s;
  }();
  static SqIndex* index = [] {
    SqParams params;
    params.rerank = 32;
    auto* idx = new SqIndex(*store, params);
    (void)idx->Build();
    return idx;
  }();
  Rng rng(11);
  const Vector query = RandomVector(rng, 256);
  SearchParams params;
  params.k = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Search(query, params));
  }
}
BENCHMARK(BM_SqScan);

void BM_FlatScan(benchmark::State& state) {
  static VectorStore* store = [] {
    auto* s = new VectorStore(256, Metric::kCosine);
    Rng rng(12);
    for (PointId i = 0; i < 5000; ++i) {
      (void)s->Add(i, RandomVector(rng, 256));
    }
    return s;
  }();
  Rng rng(13);
  const Vector query = RandomVector(rng, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSearch(*store, query, 10));
  }
}
BENCHMARK(BM_FlatScan);

void BM_ShardSegmentCodec(benchmark::State& state) {
  Rng rng(14);
  SegmentData segment;
  segment.dim = 256;
  segment.metric = Metric::kCosine;
  for (PointId i = 0; i < 512; ++i) {
    segment.ids.push_back(i);
    const Vector v = RandomVector(rng, 256);
    segment.vectors.insert(segment.vectors.end(), v.begin(), v.end());
  }
  for (auto _ : state) {
    const auto bytes = EncodeSegment(segment);
    benchmark::DoNotOptimize(DecodeSegment(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512 * 256 * 4);
}
BENCHMARK(BM_ShardSegmentCodec);

void BM_PayloadEncode(benchmark::State& state) {
  Payload payload;
  payload["title"] = std::string("synthetic-paper-123456-topic42");
  payload["topic"] = std::int64_t{42};
  payload["year"] = std::int64_t{2019};
  payload["score"] = 0.93;
  for (auto _ : state) {
    const auto bytes = EncodePayload(payload);
    benchmark::DoNotOptimize(DecodePayload(bytes.data(), bytes.size()));
  }
}
BENCHMARK(BM_PayloadEncode);

// ---------------------------------------------------------------------------
// SQ8 gate mode (--check / --out)
// ---------------------------------------------------------------------------

struct PathResult {
  std::string path;
  double qps = 0.0;
  double recall_at_10 = 0.0;
};

/// Queries/sec of `index` over the query set: one untimed warmup pass, then
/// whole-set sweeps until >= `min_seconds` of wall time accumulates, timed
/// per sweep. Returns the fastest sweep's rate — both measured paths are
/// DRAM-bound, so best-of filters out cross-tenant memory-bandwidth noise
/// that would otherwise penalize whichever path a neighbor happened to hit.
double MeasureQps(const VectorIndex& index, const std::vector<Vector>& queries,
                  const SearchParams& params, double min_seconds) {
  for (const auto& q : queries) (void)index.Search(q, params);
  double total = 0.0;
  double best_sweep = std::numeric_limits<double>::infinity();
  do {
    Stopwatch watch;
    for (const auto& q : queries) {
      auto hits = index.Search(q, params);
      if (!hits.ok()) return 0.0;
      benchmark::DoNotOptimize(hits->data());
    }
    const double sweep = watch.ElapsedSeconds();
    best_sweep = std::min(best_sweep, sweep);
    total += sweep;
  } while (total < min_seconds);
  return static_cast<double>(queries.size()) / best_sweep;
}

double MeanRecallAt10(const VectorIndex& index, const VectorStore& store,
                      const std::vector<Vector>& queries, const SearchParams& params) {
  double total = 0.0;
  for (const auto& q : queries) {
    const auto expected = ExactSearch(store, q, params.k);
    auto got = index.Search(q, params);
    if (!got.ok()) return 0.0;
    total += RecallAtK(*got, expected, params.k);
  }
  return total / static_cast<double>(queries.size());
}

/// Gate bounds of the HNSW insert fixture at ef_construction 32.
constexpr std::size_t kGateEfConstruction = 32;
constexpr double kMaxDistPerInsert = 1000.0;
constexpr double kMinInsertRecall = 1.0;

/// Measures the float flat scan vs the SQ8-rerank blocked scan at the paper
/// dimension and the HNSW insert fixture, and writes the machine-readable
/// result. Returns nonzero when `check` is set and a gate fails.
int RunGates(const std::string& out_path, bool check) {
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kQueries = 64;
  constexpr double kMinSeconds = 0.5;

  std::printf("micro_engine gate: sq8-rerank vs float flat scan, dim=%zu "
              "rows=%zu queries=%zu\nhost: %s\n\n",
              kPaperDim, kRows, kQueries, CpuFeatureString().c_str());

  VectorStore store(kPaperDim, Metric::kCosine);
  Rng rng(0x5eed);
  std::vector<Vector> raw;
  raw.reserve(kRows);
  for (PointId i = 0; i < kRows; ++i) {
    Vector v = RandomVector(rng, kPaperDim);
    (void)store.Add(i, v);
    raw.push_back(std::move(v));
  }
  // Queries perturb stored points — the realistic ANN regime where rerank
  // actually has near-ties to resolve.
  std::vector<Vector> queries;
  for (std::size_t q = 0; q < kQueries; ++q) {
    Vector query = raw[rng.NextU64(raw.size())];
    for (auto& x : query) x += static_cast<Scalar>(rng.NextGaussian() * 0.05);
    queries.push_back(std::move(query));
  }
  SearchParams params;
  params.k = 10;

  FlatIndex float_index(store);
  (void)float_index.Build();
  SqParams sq_params;
  sq_params.rerank = 32;
  SqIndex sq_index(store, sq_params);
  if (!sq_index.Build().ok()) {
    std::fprintf(stderr, "sq8 build failed\n");
    return 1;
  }

  std::vector<PathResult> results;
  results.push_back({"flat_float", MeasureQps(float_index, queries, params, kMinSeconds),
                     MeanRecallAt10(float_index, store, queries, params)});
  results.push_back({"sq8_rerank32", MeasureQps(sq_index, queries, params, kMinSeconds),
                     MeanRecallAt10(sq_index, store, queries, params)});
  const double speedup =
      results[0].qps > 0.0 ? results[1].qps / results[0].qps : 0.0;
  const double recall_loss = results[0].recall_at_10 - results[1].recall_at_10;

  for (const auto& r : results) {
    std::printf("%-14s %9.1f qps   recall@10 %.4f\n", r.path.c_str(), r.qps,
                r.recall_at_10);
  }
  std::printf("speedup %.2fx, recall loss %.4f (gate: >= 3x at <= 0.02 loss)\n\n",
              speedup, recall_loss);

  const HnswInsertResult insert = MeasureHnswInsert(kGateEfConstruction, /*recall=*/true);
  std::printf("hnsw insert (%zu points, 128-d, ef_construction %zu, one thread): "
              "%.1f us/insert, %.0f distance computations/insert, recall@10 %.4f\n"
              "(gate: <= %.0f computations/insert at recall@10 >= %.4f)\n\n",
              kInsertPoints, kGateEfConstruction, insert.us_per_insert,
              insert.dist_per_insert, insert.recall_at_10, kMaxDistPerInsert,
              kMinInsertRecall);

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_engine\",\n");
    std::fprintf(f, "  \"cpu\": \"%s\",\n", CpuFeatureString().c_str());
    std::fprintf(f, "  \"dim\": %zu,\n  \"rows\": %zu,\n  \"queries\": %zu,\n",
                 kPaperDim, kRows, kQueries);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "    {\"path\": \"%s\", \"qps\": %.1f, \"recall_at_10\": %.4f}%s\n",
                   r.path.c_str(), r.qps, r.recall_at_10,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"speedup\": %.3f,\n  \"recall_loss\": %.4f,\n",
                 speedup, recall_loss);
    std::fprintf(f,
                 "  \"hnsw_insert\": {\"points\": %zu, \"dim\": 128, "
                 "\"ef_construction\": %zu, \"us_per_insert\": %.1f, "
                 "\"dist_per_insert\": %.1f, \"recall_at_10\": %.4f}\n}\n",
                 kInsertPoints, kGateEfConstruction, insert.us_per_insert,
                 insert.dist_per_insert, insert.recall_at_10);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  // The 3x bar assumes the VNNI integer coarse kernel; on hosts where the
  // SQ8 scan falls back to the float blocked kernel only the recall bound is
  // enforced (same convention as micro_kernels, trivially green on non-AVX2).
  const bool speedup_applicable = FastU8QBlockedActive();
  if (!speedup_applicable) {
    std::printf("host lacks AVX-512 VNNI; speedup gate not applicable "
                "(recall bound still enforced).\n");
  }
  const bool gate_ok =
      (!speedup_applicable || speedup >= 3.0) && recall_loss <= 0.02;
  if (check && !gate_ok) {
    std::fprintf(stderr, "--check=1: sq8-rerank gate FAILED\n");
    return 1;
  }
  const bool insert_ok = insert.dist_per_insert <= kMaxDistPerInsert &&
                         insert.recall_at_10 >= kMinInsertRecall;
  if (check && !insert_ok) {
    std::fprintf(stderr, "--check=1: hnsw insert gate FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace vdb

// Custom main (instead of BENCHMARK_MAIN) so the per-stage observability
// breakdown from the exercised engine paths prints after the benchmark table.
// The --check/--out gate flags are stripped before google-benchmark sees the
// argument list (ReportUnrecognizedArguments would otherwise reject them).
int main(int argc, char** argv) {
  bool check = false;
  std::string out_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--check=", 8) == 0) {
      check = std::strcmp(argv[i] + 8, "0") != 0;
      continue;
    }
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  argv[argc] = nullptr;
  if (check || !out_path.empty()) {
    return vdb::RunGates(out_path.empty() ? "BENCH_engine.json" : out_path,
                           check);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::printf("%s\n", vdb::obs::StageBreakdown().c_str());
  return 0;
}
