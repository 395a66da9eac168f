/// \file micro_kernels.cpp
/// Distance-kernel microbenchmark: sweeps every host-supported ISA
/// (scalar / avx2 / avx512) across the single-row and multi-row batch kernels
/// at the paper's embedding dimension (2560) plus smaller dims, reporting
/// GB/s of base-data traffic and vectors/sec per (kernel, isa, dim) cell,
/// plus the multi-query blocked SQ8 kernels at 768-d for batches of 1, 4, 8
/// and 16 queries (`dot_u8q_blocked_qN` / `dot_u8_blocked_qN`, GB/s of codes
/// per query).
/// Writes the machine-readable results to BENCH_kernels.json (see
/// bench/baselines/ for the recorded baseline).
///
/// Flags: --out=PATH (default BENCH_kernels.json), --min-ms=N per-cell
/// measurement floor, --check=1 exits nonzero unless the AVX2 batch kernels
/// reach >= 3x the scalar batch kernels for 2560-d dot and L2 (the CI gate;
/// trivially satisfied on hosts without AVX2, where only scalar runs).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/cpuid.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "dist/distance.hpp"
#include "dist/kernels.hpp"
#include "metrics/table.hpp"

namespace {

using vdb::Scalar;

// Sink defeating dead-code elimination of the measured kernels.
volatile float g_sink = 0.f;

struct Cell {
  std::string kernel;
  std::string isa;
  std::size_t dim = 0;
  std::size_t rows = 0;
  std::size_t sweeps = 0;
  double gbps = 0.0;       // base-matrix bytes touched per second
  double mvps = 0.0;       // million vectors scored per second
};

/// Runs `sweep` (one full pass over the row block) until `min_seconds` of
/// wall time accumulates, after one untimed warmup pass.
template <typename Sweep>
Cell Measure(const std::string& kernel, const std::string& isa, std::size_t dim,
             std::size_t rows, std::size_t bytes_per_row, double min_seconds,
             Sweep&& sweep) {
  sweep();  // warmup: page in the matrix, settle the dispatch table
  vdb::Stopwatch watch;
  std::size_t sweeps = 0;
  double elapsed = 0.0;
  do {
    sweep();
    ++sweeps;
    elapsed = watch.ElapsedSeconds();
  } while (elapsed < min_seconds);
  Cell cell;
  cell.kernel = kernel;
  cell.isa = isa;
  cell.dim = dim;
  cell.rows = rows;
  cell.sweeps = sweeps;
  const double total_bytes =
      static_cast<double>(sweeps) * static_cast<double>(rows) *
      static_cast<double>(bytes_per_row);
  cell.gbps = total_bytes / elapsed / 1e9;
  cell.mvps = static_cast<double>(sweeps) * static_cast<double>(rows) / elapsed / 1e6;
  return cell;
}

double CellRate(const std::vector<Cell>& cells, const std::string& kernel,
                const std::string& isa, std::size_t dim) {
  for (const auto& c : cells) {
    if (c.kernel == kernel && c.isa == isa && c.dim == dim) return c.mvps;
  }
  return 0.0;
}

void WriteJson(const std::string& path, const std::vector<Cell>& cells,
               const std::vector<vdb::dist::KernelIsa>& isas) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n");
  std::fprintf(f, "  \"cpu\": \"%s\",\n", vdb::CpuFeatureString().c_str());
  std::fprintf(f, "  \"default_isa\": \"%s\",\n",
               std::string(vdb::dist::KernelIsaName(vdb::dist::BestSupportedIsa())).c_str());
  std::fprintf(f, "  \"isas\": [");
  for (std::size_t i = 0; i < isas.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 std::string(vdb::dist::KernelIsaName(isas[i])).c_str());
  }
  std::fprintf(f, "],\n  \"results\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"isa\": \"%s\", \"dim\": %zu, "
                 "\"rows\": %zu, \"sweeps\": %zu, \"gbps\": %.3f, "
                 "\"mvps\": %.3f}%s\n",
                 c.kernel.c_str(), c.isa.c_str(), c.dim, c.rows, c.sweeps,
                 c.gbps, c.mvps, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n\n", path.c_str(), cells.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdb;
  bench::PrintHeader("micro_kernels — runtime-dispatched distance kernels",
                     "engine microbench (DESIGN.md 'Kernel dispatch'); paper "
                     "dim 2560 from Ockerman et al., SC'25 workshops, sec. 2");

  auto config = Config::FromArgs(argc - 1, argv + 1);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  const std::string out_path = config->GetString("out", "BENCH_kernels.json");
  const double min_seconds =
      static_cast<double>(config->GetInt("min-ms", 60)) / 1000.0;
  const bool check = config->GetBool("check", false);

  std::printf("host: %s\n", CpuFeatureString().c_str());

  const std::vector<std::size_t> dims = {64, 256, 960, 2560};
  const auto isas = dist::SupportedIsas();
  std::vector<Cell> cells;

  for (const std::size_t dim : dims) {
    // Size each matrix to ~1 MiB: big enough to exercise the multi-row block
    // loop and the prefetcher, small enough to stay L2-resident so the sweep
    // measures kernel throughput rather than this host's DRAM/LLC bandwidth
    // (which flattens every ISA to the same ~20 GB/s ceiling).
    const std::size_t rows =
        std::max<std::size_t>(64, (1u << 20) / (dim * sizeof(Scalar)));
    Rng rng(0x9e3779b9u ^ dim);
    std::vector<Scalar> base(rows * dim);
    for (auto& x : base) x = static_cast<Scalar>(rng.NextDouble() * 2.0 - 1.0);
    std::vector<Scalar> query(dim);
    for (auto& x : query) x = static_cast<Scalar>(rng.NextDouble() * 2.0 - 1.0);
    std::vector<std::uint8_t> codes(rows * dim);
    for (auto& c : codes) c = static_cast<std::uint8_t>(rng.NextU64(256));
    std::vector<Scalar> out(rows);
    const VectorView q(query.data(), dim);

    for (const auto isa : isas) {
      dist::ForceKernelIsa(isa);
      const auto& table = dist::ActiveKernels();
      const std::string isa_name(table.name);
      const std::size_t row_bytes = dim * sizeof(Scalar);
      Stopwatch isa_watch;

      cells.push_back(Measure("dot", isa_name, dim, rows, row_bytes, min_seconds, [&] {
        float acc = 0.f;
        for (std::size_t r = 0; r < rows; ++r) {
          acc += table.dot(query.data(), base.data() + r * dim, dim);
        }
        g_sink = acc;
      }));
      cells.push_back(Measure("l2", isa_name, dim, rows, row_bytes, min_seconds, [&] {
        float acc = 0.f;
        for (std::size_t r = 0; r < rows; ++r) {
          acc += table.l2sq(query.data(), base.data() + r * dim, dim);
        }
        g_sink = acc;
      }));
      cells.push_back(Measure("dot_batch", isa_name, dim, rows, row_bytes, min_seconds, [&] {
        DotProductBatch(q, base.data(), rows, out.data());
        g_sink = out[rows - 1];
      }));
      cells.push_back(Measure("l2_batch", isa_name, dim, rows, row_bytes, min_seconds, [&] {
        L2SquaredDistanceBatch(q, base.data(), rows, out.data());
        g_sink = out[rows - 1];
      }));
      cells.push_back(Measure("dot_u8", isa_name, dim, rows, dim /*1B codes*/, min_seconds, [&] {
        float acc = 0.f;
        for (std::size_t r = 0; r < rows; ++r) {
          acc += DotProductU8(query.data(), codes.data() + r * dim, dim);
        }
        g_sink = acc;
      }));

      obs::RecordStageSeconds("index.kernel." + isa_name, isa_watch.ElapsedSeconds());
    }
  }
  dist::ForceKernelIsa(dist::BestSupportedIsa());

  // --- Blocked SQ8 scan at 768-d over a shard-sized code set (391 blocks,
  // 25,024 rows, 19 MB — past L2, as one search_batch_sq8 shard): one kernel
  // call per block scores Q queries. GB/s counts code bytes per query (Q x
  // the codes of a sweep), so a kernel that walks each block once per query
  // tile shows the reuse as a rate above its Q = 1 row. Reported only.
  constexpr std::size_t kBlockedDim = 768;
  constexpr std::size_t kBlockedRows = 391 * dist::kSqBlockRows;
  const std::vector<std::size_t> batch_sizes = {1, 4, 8, 16};
  const std::size_t max_batch = batch_sizes.back();
  {
    Rng rng(0x5eed);
    std::vector<std::uint8_t> blocked(kBlockedRows * kBlockedDim);
    for (auto& c : blocked) c = static_cast<std::uint8_t>(rng.NextU64(256));
    std::vector<std::vector<float>> q_float(max_batch, std::vector<float>(kBlockedDim));
    std::vector<std::vector<std::int8_t>> q_int(max_batch,
                                                std::vector<std::int8_t>(kBlockedDim));
    std::vector<const float*> q_float_ptrs;
    std::vector<const std::int8_t*> q_int_ptrs;
    for (std::size_t j = 0; j < max_batch; ++j) {
      for (auto& x : q_float[j]) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
      for (auto& x : q_int[j]) x = static_cast<std::int8_t>(rng.NextU64(256));
      q_float_ptrs.push_back(q_float[j].data());
      q_int_ptrs.push_back(q_int[j].data());
    }
    std::vector<float> out_float(max_batch * dist::kSqBlockRows);
    std::vector<std::int32_t> out_int(max_batch * dist::kSqBlockRows);
    const std::size_t block_bytes = kBlockedDim * dist::kSqBlockRows;
    for (const auto isa : isas) {
      const dist::KernelTable& table = *dist::KernelsFor(isa);
      const std::string isa_name(table.name);
      for (const std::size_t nq : batch_sizes) {
        cells.push_back(Measure(
            "dot_u8q_blocked_q" + std::to_string(nq), isa_name, kBlockedDim, kBlockedRows,
            kBlockedDim * nq, min_seconds, [&] {
              for (std::size_t b = 0; b < kBlockedRows / dist::kSqBlockRows; ++b) {
                table.dot_u8q_blocked(q_int_ptrs.data(), nq, blocked.data() + b * block_bytes,
                                      kBlockedDim, out_int.data());
              }
              g_sink = static_cast<float>(out_int[0]);
            }));
        cells.push_back(Measure(
            "dot_u8_blocked_q" + std::to_string(nq), isa_name, kBlockedDim, kBlockedRows,
            kBlockedDim * nq, min_seconds, [&] {
              for (std::size_t b = 0; b < kBlockedRows / dist::kSqBlockRows; ++b) {
                table.dot_u8_blocked(q_float_ptrs.data(), nq, blocked.data() + b * block_bytes,
                                     kBlockedDim, out_float.data());
              }
              g_sink = out_float[0];
            }));
      }
    }
  }

  // --- Render per-dim tables (columns: kernel rows, one rate pair per ISA).
  for (const std::size_t dim : dims) {
    TextTable table("dim=" + std::to_string(dim) + " — GB/s | Mvec/s per ISA");
    std::vector<std::string> header = {"kernel"};
    for (const auto isa : isas) header.push_back(std::string(dist::KernelIsaName(isa)));
    table.SetHeader(header);
    for (const std::string kernel : {"dot", "l2", "dot_batch", "l2_batch", "dot_u8"}) {
      std::vector<std::string> row = {kernel};
      for (const auto isa : isas) {
        const std::string isa_name(dist::KernelIsaName(isa));
        for (const auto& c : cells) {
          if (c.kernel == kernel && c.isa == isa_name && c.dim == dim) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%6.2f | %7.2f", c.gbps, c.mvps);
            row.push_back(buf);
          }
        }
      }
      table.AddRow(row);
    }
    std::printf("%s\n", table.Render().c_str());
  }

  {
    TextTable table("dim=768 blocked SQ8, 25,024 rows — GB/s of codes per query");
    std::vector<std::string> header = {"kernel"};
    for (const auto isa : isas) header.push_back(std::string(dist::KernelIsaName(isa)));
    table.SetHeader(header);
    for (const std::string base : {"dot_u8q_blocked", "dot_u8_blocked"}) {
      for (const std::size_t nq : batch_sizes) {
        const std::string kernel = base + "_q" + std::to_string(nq);
        std::vector<std::string> row = {kernel};
        for (const auto isa : isas) {
          const std::string isa_name(dist::KernelIsaName(isa));
          for (const auto& c : cells) {
            if (c.kernel == kernel && c.isa == isa_name) row.push_back(TextTable::Num(c.gbps, 2));
          }
        }
        table.AddRow(row);
      }
    }
    std::printf("%s\n", table.Render().c_str());
  }

  WriteJson(out_path, cells, isas);

  // --- Acceptance gate: batch SIMD kernels vs scalar batch at the paper dim.
  ComparisonReport report("micro_kernels");
  bool gate_ok = true;
  const double scalar_dot = CellRate(cells, "dot_batch", "scalar", 2560);
  const double scalar_l2 = CellRate(cells, "l2_batch", "scalar", 2560);
  for (const auto isa : isas) {
    if (isa == dist::KernelIsa::kScalar) continue;
    const std::string isa_name(dist::KernelIsaName(isa));
    const double dot_speedup =
        scalar_dot > 0 ? CellRate(cells, "dot_batch", isa_name, 2560) / scalar_dot : 0;
    const double l2_speedup =
        scalar_l2 > 0 ? CellRate(cells, "l2_batch", isa_name, 2560) / scalar_l2 : 0;
    std::printf("2560-d batch speedup vs scalar [%s]: dot %.2fx, l2 %.2fx\n",
                isa_name.c_str(), dot_speedup, l2_speedup);
    if (isa == dist::KernelIsa::kAvx2) {
      const bool ok = dot_speedup >= 3.0 && l2_speedup >= 3.0;
      report.AddClaim("avx2 batch kernels >= 3x scalar at 2560-d", ok);
      gate_ok = gate_ok && ok;
    }
  }
  if (isas.size() == 1) {
    std::printf("host supports only the scalar kernels; SIMD speedup gate "
                "not applicable (scalar cells above still measured).\n");
    report.AddClaim("scalar kernels measured on non-SIMD host", !cells.empty());
  }
  std::printf("\n");

  const int rc = bench::FinishWithReport(report);
  if (check && !gate_ok) {
    std::fprintf(stderr, "--check=1: SIMD speedup gate FAILED\n");
    return 1;
  }
  return rc;
}
