#pragma once

/// \file distance.hpp
/// Distance/similarity kernels for high-dimensional float vectors — the
/// innermost loops of every index. Calls route through a per-ISA kernel table
/// (scalar / AVX2+FMA / AVX-512) selected once at startup via CPUID and
/// overridable with VDB_KERNEL=scalar|avx2|avx512|auto; see dist/kernels.hpp
/// for the dispatch machinery and DESIGN.md "Kernel dispatch".
///
/// Score convention: **higher score = better match** for every metric.
///   - kInnerProduct: score = <a, b>
///   - kCosine:       score = <a, b> / (|a||b|)   (1.0 == identical direction)
///   - kL2:           score = -|a - b|^2          (negated squared distance)
/// A single convention lets top-k heaps and k-way merges be metric-agnostic,
/// mirroring how Qdrant normalizes all metrics into a similarity ordering.

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vdb {

enum class Metric : int { kL2 = 0, kInnerProduct = 1, kCosine = 2 };

/// "l2", "ip", "cosine".
std::string_view MetricName(Metric metric);
Result<Metric> ParseMetric(const std::string& name);

/// Norms at or below this threshold are treated as zero everywhere norms are
/// consulted: cosine scoring returns 0 and NormalizeInPlace leaves the vector
/// unchanged. One shared epsilon keeps the normalized-ingest path and the
/// raw-scoring path agreeing on denormal-norm vectors.
inline constexpr Scalar kNormEpsilon = 1e-30f;
inline bool IsZeroNorm(Scalar norm) { return !(norm > kNormEpsilon); }

/// Raw kernels. Preconditions: a.size() == b.size().
Scalar DotProduct(VectorView a, VectorView b);
Scalar L2SquaredDistance(VectorView a, VectorView b);
Scalar Norm(VectorView a);

/// Batch kernels over `count` contiguous row-major vectors of query.size()
/// starting at `base`; out must hold `count` scalars. These feed the hot
/// scans (flat, SQ rerank, ADC tables, k-means assignment) with the
/// multi-row SIMD kernels.
void DotProductBatch(VectorView query, const Scalar* base, std::size_t count,
                     Scalar* out);
void L2SquaredDistanceBatch(VectorView query, const Scalar* base,
                            std::size_t count, Scalar* out);

/// Dot of a float query against u8 codes widened to float — the SQ8 scan
/// kernel: sum_i query[i] * codes[i].
float DotProductU8(const float* query, const std::uint8_t* codes, std::size_t n);

/// Rows per transposed SQ8 code block (see dist::kSqBlockRows).
inline constexpr std::size_t kSq8BlockRows = 64;

/// Blocked/transposed (PDX-style) SQ8 scan kernel over a batch of queries.
/// `block` holds kSq8BlockRows rows of `n` codes in dimension-major order
/// (`block[i * kSq8BlockRows + r]`); for each query j < nq writes all
/// kSq8BlockRows partial dots
///   out[j * kSq8BlockRows + r] = sum_i queries[j][i] * block[i * kSq8BlockRows + r].
/// The block is walked once per query tile of the active table, not once
/// per query, and every query's outputs are bit-identical to an nq = 1 call.
/// Padding rows (zero codes) score query-independently to 0 and are masked
/// by the caller.
void DotProductU8Blocked(const float* const* queries, std::size_t nq,
                         const std::uint8_t* block, std::size_t n, float* out);

/// Integer coarse variant of DotProductU8Blocked: the queries are
/// pre-quantized to i8 and the block is scored with exact integer MACs,
/// writing raw sums. Callers scale the i32 sums back to float partial dots
/// (see Sq8Ranges::QuantizeAdjusted) and should only prefer this over the
/// float kernel when FastU8QBlockedActive() — the exact rerank pass absorbs
/// the query quantization error.
void DotProductU8QBlocked(const std::int8_t* const* queries, std::size_t nq,
                          const std::uint8_t* block, std::size_t n,
                          std::int32_t* out);

/// Walks of one code block that scoring `nq` queries costs on the active
/// table's integer (`integer` = true) or float blocked kernel:
/// ceil(nq / tile).
std::size_t U8BlockedPasses(bool integer, std::size_t nq);

/// True when the active dispatch table's integer blocked kernel is the
/// vpdpbusd fast path (AVX512BW+VNNI host running the avx512 table) — i.e.
/// when DotProductU8QBlocked actually beats the float blocked kernel.
bool FastU8QBlockedActive();

/// Unified scoring entry point (higher is better; see convention above).
Scalar Score(Metric metric, VectorView a, VectorView b);

/// Scores `query` against `count` rows addressed by pointer (gathered
/// scoring — HNSW neighbour expansion). Rows must each hold query.size()
/// scalars; out must hold `count`.
void ScoreRows(Metric metric, VectorView query, const Scalar* const* rows,
               std::size_t count, Scalar* out);

/// Scores `query` against `count` contiguous row-major vectors starting at
/// `base` and writes into `out` (size >= count). Row-blocked over the
/// multi-row kernels with next-block prefetch; amortizes the query's norm
/// computation for cosine.
void ScoreBatch(Metric metric, VectorView query, const Scalar* base,
                std::size_t dim, std::size_t count, Scalar* out);

/// In-place L2 normalization; vectors with ~zero norm (kNormEpsilon) are
/// left unchanged.
void NormalizeInPlace(Vector& v);

/// True when the metric benefits from pre-normalized storage (cosine reduces
/// to dot product on unit vectors — Qdrant does exactly this at upload time).
bool PrefersNormalized(Metric metric);

/// Name of the kernel table scoring currently routes through ("scalar",
/// "avx2", "avx512") — for logs and bench metadata.
std::string_view ActiveKernelName();

}  // namespace vdb
