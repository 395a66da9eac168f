#pragma once

/// \file kernels.hpp
/// Runtime-dispatched SIMD kernel tables behind the public distance API.
///
/// Layout: one KernelTable per ISA, each defined in its own translation unit
/// compiled with per-file ISA flags (`-mavx2 -mfma`, `-mavx512f`) so the rest
/// of the binary stays portable to baseline x86-64 (and non-x86 entirely).
/// The dispatcher picks a table once at startup from CPUID, overridable with
/// `VDB_KERNEL=scalar|avx2|avx512|auto`; every vdb::DotProduct /
/// L2SquaredDistance / ScoreBatch call routes through the active table.
///
/// The multi-row entry points (`dot_rows` / `l2_rows`) are the throughput
/// kernels: they score one query against `count` rows addressed by pointer,
/// processing `block_rows` rows per inner pass so the query streams through
/// registers once per block instead of once per row. Contiguous scans (flat,
/// SQ, ADC tables, k-means) pass pointers into a row-major block; HNSW passes
/// gathered neighbour rows.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vdb::dist {

enum class KernelIsa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Rows per transposed SQ8 code block (the PDX-style layout): a block stores
/// kSqBlockRows rows dimension-major (`block[d * kSqBlockRows + r]`), so the
/// scan loop streams one 64-byte cache line of codes per dimension instead of
/// strided row-major reads. 64 rows x 4-byte accumulators also fills exactly
/// eight ymm (or four zmm) registers.
inline constexpr std::size_t kSqBlockRows = 64;

std::string_view KernelIsaName(KernelIsa isa);

/// Parses "scalar" / "avx2" / "avx512". ("auto" is resolved by
/// ResolveKernelChoice, not here, because it is not a concrete table.)
Result<KernelIsa> ParseKernelIsa(const std::string& name);

/// One multi-query blocked SQ8 kernel entry. The function scores `nq`
/// queries against one transposed code block, writing `nq` x kSqBlockRows
/// outputs query-major. It walks the block once per `tile` queries — the
/// tile is a per-ISA compile-time constant sized to the ISA's registers —
/// so a batch streams each block ceil(nq / tile) times instead of nq times.
/// Within one query the accumulation order over dimensions does not depend
/// on nq or on the query's position in the tile, so every query's output is
/// bit-identical to a single-query (nq = 1) call on the same table.
template <class Query, class Out>
struct BlockedKernel {
  using Fn = void (*)(const Query* const* queries, std::size_t nq,
                      const std::uint8_t* block, std::size_t n, Out* out);
  Fn fn;
  /// Queries scored per walk of the block.
  std::size_t tile;

  void operator()(const Query* const* queries, std::size_t nq,
                  const std::uint8_t* block, std::size_t n, Out* out) const {
    fn(queries, nq, block, n, out);
  }
  /// Single-query form: out[r] for one query (an nq = 1 call).
  void operator()(const Query* query, const std::uint8_t* block, std::size_t n,
                  Out* out) const {
    fn(&query, 1, block, n, out);
  }
  /// Walks of one block a batch of `nq` queries costs.
  std::size_t Passes(std::size_t nq) const { return (nq + tile - 1) / tile; }
};

/// Raw kernel function table for one ISA. All pointers are non-null.
struct KernelTable {
  KernelIsa isa;
  const char* name;
  /// Rows per inner pass of the multi-row kernels (1 scalar, 4 AVX2, 8
  /// AVX-512); also the sweet-spot granularity for callers batching work.
  std::size_t block_rows;

  /// sum_i a[i]*b[i]
  Scalar (*dot)(const Scalar* a, const Scalar* b, std::size_t n);
  /// sum_i (a[i]-b[i])^2
  Scalar (*l2sq)(const Scalar* a, const Scalar* b, std::size_t n);
  /// out[r] = dot(q, rows[r]) for r in [0, count)
  void (*dot_rows)(const Scalar* q, const Scalar* const* rows,
                   std::size_t count, std::size_t n, Scalar* out);
  /// out[r] = l2sq(q, rows[r]) for r in [0, count)
  void (*l2_rows)(const Scalar* q, const Scalar* const* rows,
                  std::size_t count, std::size_t n, Scalar* out);
  /// sum_i q[i]*codes[i] with u8 codes widened to float (SQ8 scans).
  float (*dot_u8)(const float* q, const std::uint8_t* codes, std::size_t n);
  /// Multi-query transposed-block kernel: `block` holds kSqBlockRows rows of
  /// n codes in dimension-major order (`block[i * kSqBlockRows + r]`); for
  /// every query j < nq it writes
  ///   out[j * kSqBlockRows + r] = sum_i queries[j][i] * block[i * kSqBlockRows + r].
  /// Flat/IVF compressed scans stream whole blocks through this.
  BlockedKernel<float, float> dot_u8_blocked;
  /// Integer coarse variant of dot_u8_blocked for rerank-backed scans: the
  /// queries arrive pre-quantized to i8 (see Sq8Ranges::QuantizeAdjusted)
  /// and the block is scored with pure integer MACs into raw i32 sums.
  /// Exact integer arithmetic — every ISA's result is bit-equal, so parity
  /// tests compare with ==. On AVX512BW+VNNI hosts this is the vpdpbusd fast
  /// path (4x less memory traffic than the float scan with no
  /// widen-to-float port pressure); elsewhere it is a correct reference loop
  /// that callers should not prefer over the float kernel (see
  /// dist::FastU8QBlockedActive).
  BlockedKernel<std::int8_t, std::int32_t> dot_u8q_blocked;
};

/// Always available; bit-identical to the pre-dispatch scalar kernels.
const KernelTable& ScalarKernels();
/// nullptr when this binary was built without the ISA TU (non-x86 target or
/// a compiler lacking the flag) — *not* a statement about the host CPU.
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();

/// Table for a specific ISA, or nullptr when the binary lacks the TU or the
/// host CPU lacks the feature. Scalar always resolves.
const KernelTable* KernelsFor(KernelIsa isa);

/// Best ISA both this binary and the host CPU support.
KernelIsa BestSupportedIsa();

/// Every ISA KernelsFor() would resolve on this host, scalar first.
std::vector<KernelIsa> SupportedIsas();

/// Resolves a VDB_KERNEL override value ("scalar", "avx2", "avx512", "auto",
/// "") to the ISA the dispatcher will use. Pure — no env read — so tests can
/// cover every combination. Unknown values and ISAs the host or binary lack
/// fall back to BestSupportedIsa(); when that happens (or the value is
/// unknown) `note` receives a one-line explanation for the startup log.
KernelIsa ResolveKernelChoice(const std::string& requested, std::string* note);

/// The table every public distance call routes through. Selected on first
/// use from VDB_KERNEL (default "auto"); cached for the process lifetime
/// until ForceKernelIsa() swaps it.
const KernelTable& ActiveKernels();

/// Forces the active table (bench sweeps, parity tests, dispatch-leg CI).
/// Unsupported requests clamp to BestSupportedIsa(); returns the ISA actually
/// installed. Safe to call concurrently with scoring (atomic pointer swap),
/// though in-flight batches finish on the previous table.
KernelIsa ForceKernelIsa(KernelIsa isa);

}  // namespace vdb::dist
