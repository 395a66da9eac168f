#include "dist/kernels.hpp"

// AVX-512F kernels: 16-wide FMA, 8 rows per multi-row pass, masked tails (no
// scalar remainder loop in the row kernels). Only this TU is compiled with
// -mavx512f; the dispatcher enters it only when CPUID reports avx512f.

#if defined(VDB_DIST_BUILD_AVX512)

#include <immintrin.h>

#include <cstring>

#include "common/cpuid.hpp"
#include "dist/kernels_blocked_ref.hpp"

namespace vdb::dist {
namespace {

inline __mmask16 TailMask(std::size_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1u);
}

float DotAvx512(const Scalar* a, const Scalar* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16), _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
  }
  if (i < n) {
    const __mmask16 mask = TailMask(n - i);
    const __m512 av = _mm512_maskz_loadu_ps(mask, a + i);
    const __m512 bv = _mm512_maskz_loadu_ps(mask, b + i);
    acc0 = _mm512_fmadd_ps(av, bv, acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float L2Avx512(const Scalar* a, const Scalar* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(a + i + 16), _mm512_loadu_ps(b + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 d = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  if (i < n) {
    const __mmask16 mask = TailMask(n - i);
    // Masked-off lanes are zero in both loads, so their difference is zero
    // and contributes nothing to the accumulator.
    const __m512 d = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, a + i),
                                   _mm512_maskz_loadu_ps(mask, b + i));
    acc0 = _mm512_fmadd_ps(d, d, acc0);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

// Eight rows per pass: one query load feeds eight FMAs (zmm pressure: 8
// accumulators + 1 query + 1 row temp, well under 32 registers).
void DotRowsAvx512(const Scalar* q, const Scalar* const* rows,
                   std::size_t count, std::size_t n, Scalar* out) {
  std::size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    if (r + 16 <= count) {
      for (std::size_t p = 0; p < 8; ++p) {
        _mm_prefetch(reinterpret_cast<const char*>(rows[r + 8 + p]), _MM_HINT_T0);
      }
    }
    __m512 acc[8];
    for (auto& a : acc) a = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm512_fmadd_ps(qv, _mm512_loadu_ps(rows[r + j] + i), acc[j]);
      }
    }
    if (i < n) {
      const __mmask16 mask = TailMask(n - i);
      const __m512 qv = _mm512_maskz_loadu_ps(mask, q + i);
      for (std::size_t j = 0; j < 8; ++j) {
        acc[j] = _mm512_fmadd_ps(qv, _mm512_maskz_loadu_ps(mask, rows[r + j] + i), acc[j]);
      }
    }
    for (std::size_t j = 0; j < 8; ++j) out[r + j] = _mm512_reduce_add_ps(acc[j]);
  }
  for (; r < count; ++r) out[r] = DotAvx512(q, rows[r], n);
}

void L2RowsAvx512(const Scalar* q, const Scalar* const* rows,
                  std::size_t count, std::size_t n, Scalar* out) {
  std::size_t r = 0;
  for (; r + 8 <= count; r += 8) {
    if (r + 16 <= count) {
      for (std::size_t p = 0; p < 8; ++p) {
        _mm_prefetch(reinterpret_cast<const char*>(rows[r + 8 + p]), _MM_HINT_T0);
      }
    }
    __m512 acc[8];
    for (auto& a : acc) a = _mm512_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 qv = _mm512_loadu_ps(q + i);
      for (std::size_t j = 0; j < 8; ++j) {
        const __m512 d = _mm512_sub_ps(qv, _mm512_loadu_ps(rows[r + j] + i));
        acc[j] = _mm512_fmadd_ps(d, d, acc[j]);
      }
    }
    if (i < n) {
      const __mmask16 mask = TailMask(n - i);
      const __m512 qv = _mm512_maskz_loadu_ps(mask, q + i);
      for (std::size_t j = 0; j < 8; ++j) {
        const __m512 d = _mm512_sub_ps(qv, _mm512_maskz_loadu_ps(mask, rows[r + j] + i));
        acc[j] = _mm512_fmadd_ps(d, d, acc[j]);
      }
    }
    for (std::size_t j = 0; j < 8; ++j) out[r + j] = _mm512_reduce_add_ps(acc[j]);
  }
  for (; r < count; ++r) out[r] = L2Avx512(q, rows[r], n);
}

float DotU8Avx512(const float* q, const std::uint8_t* codes, std::size_t n) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m512 vals = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(q + i), vals, acc);
  }
  float sum = _mm512_reduce_add_ps(acc);
  for (; i < n; ++i) sum += q[i] * static_cast<float>(codes[i]);
  return sum;
}

// 64-row transposed block in four zmm accumulators per query; per
// dimension each 16-byte code group is widened to float once and feeds one
// FMA per query of the tile (four queries: 16 accumulators, four broadcasts
// and one code vector stay in registers). Per row the FMA chain runs over
// dimensions in order for any tile width, so a query's sums match a
// one-query call bit for bit.
template <std::size_t kTile>
void DotU8BlockedTileAvx512(const float* const* q, const std::uint8_t* block,
                            std::size_t n, float* out) {
  __m512 acc[kTile][4];
  VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
    VDB_UNROLL_TILE for (std::size_t j = 0; j < 4; ++j) acc[t][j] = _mm512_setzero_ps();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* col = block + i * kSqBlockRows;
    _mm_prefetch(reinterpret_cast<const char*>(col + kSqBlockRows), _MM_HINT_T0);
    __m512 qv[kTile];
    VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) qv[t] = _mm512_set1_ps(q[t][i]);
    VDB_UNROLL_TILE for (std::size_t j = 0; j < 4; ++j) {
      const __m128i bytes =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + j * 16));
      const __m512 vals = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes));
      VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
        acc[t][j] = _mm512_fmadd_ps(qv[t], vals, acc[t][j]);
      }
    }
  }
  VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
    VDB_UNROLL_TILE for (std::size_t j = 0; j < 4; ++j) {
      _mm512_storeu_ps(out + t * kSqBlockRows + j * 16, acc[t][j]);
    }
  }
}

constexpr std::size_t kAvx512FloatTile = 4;

void DotU8BlockedAvx512(const float* const* q, std::size_t nq,
                        const std::uint8_t* block, std::size_t n, float* out) {
  ForEachQueryTile<kAvx512FloatTile>(nq, [&](std::size_t q0, auto width) {
    DotU8BlockedTileAvx512<decltype(width)::value>(q + q0, block, n,
                                                   out + q0 * kSqBlockRows);
  });
}

// Eight queries per walk of a block on the integer entry. The VNNI tile
// keeps 32 zmm accumulators live, so the compiler spills a few to L1; the
// walk still costs far less than streaming the block once per query.
constexpr std::size_t kAvx512IntTile = 8;

#if defined(__GNUC__) || defined(__clang__)
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vnni")
// vpdpbusd fast path: each instruction fuses 64 u8 x i8 products into 16 i32
// accumulators, but it sums groups of four ADJACENT bytes — in the transposed
// block those are four different rows of the same dimension. So the kernel
// processes four dimensions per step and interleaves their code lines on the
// fly (punpck bytes then words) into per-row [d0,d1,d2,d3] groups; one
// broadcast of the matching four query bytes then scores 64 rows x 4 dims in
// four vpdpbusd. The unpacks are computed once per four-dimension group and
// shared by every query of the tile. They shuffle rows into a fixed
// permutation of the accumulator lanes (within each 128-bit lane), undone
// once per block when the sums are stored.
template <std::size_t kTile>
void DotU8QBlockedVnniTile(const std::int8_t* const* q, const std::uint8_t* block,
                           std::size_t n, std::int32_t* out) {
  __m512i acc[kTile][4];
  VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
    VDB_UNROLL_TILE for (std::size_t k = 0; k < 4; ++k) acc[t][k] = _mm512_setzero_si512();
  }
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto* cols = block + i * kSqBlockRows;
    const __m512i c0 = _mm512_loadu_si512(cols);
    const __m512i c1 = _mm512_loadu_si512(cols + kSqBlockRows);
    const __m512i c2 = _mm512_loadu_si512(cols + 2 * kSqBlockRows);
    const __m512i c3 = _mm512_loadu_si512(cols + 3 * kSqBlockRows);
    const __m512i t0 = _mm512_unpacklo_epi8(c0, c1);
    const __m512i t1 = _mm512_unpackhi_epi8(c0, c1);
    const __m512i t2 = _mm512_unpacklo_epi8(c2, c3);
    const __m512i t3 = _mm512_unpackhi_epi8(c2, c3);
    const __m512i groups[4] = {
        _mm512_unpacklo_epi16(t0, t2), _mm512_unpackhi_epi16(t0, t2),
        _mm512_unpacklo_epi16(t1, t3), _mm512_unpackhi_epi16(t1, t3)};
    VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
      std::int32_t qword;
      std::memcpy(&qword, q[t] + i, sizeof(qword));
      const __m512i qv = _mm512_set1_epi32(qword);
      VDB_UNROLL_TILE for (std::size_t k = 0; k < 4; ++k) {
        acc[t][k] = _mm512_dpbusd_epi32(acc[t][k], groups[k], qv);
      }
    }
  }
  VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
    std::int32_t* query_out = out + t * kSqBlockRows;
    // acc[t][k] lane m holds row 16*(m/4) + 4*k + m%4 (the unpack permutation).
    alignas(64) std::int32_t lanes[4][16];
    VDB_UNROLL_TILE for (std::size_t k = 0; k < 4; ++k) _mm512_store_si512(lanes[k], acc[t][k]);
    VDB_UNROLL_TILE for (std::size_t k = 0; k < 4; ++k) {
      for (std::size_t m = 0; m < 16; ++m) {
        query_out[16 * (m / 4) + 4 * k + (m % 4)] = lanes[k][m];
      }
    }
    for (std::size_t d = i; d < n; ++d) {  // tail dimensions (n not a multiple of 4)
      const std::int32_t qd = q[t][d];
      const std::uint8_t* col = block + d * kSqBlockRows;
      for (std::size_t r = 0; r < kSqBlockRows; ++r) {
        query_out[r] += qd * static_cast<std::int32_t>(col[r]);
      }
    }
  }
}

void DotU8QBlockedVnni(const std::int8_t* const* q, std::size_t nq,
                       const std::uint8_t* block, std::size_t n, std::int32_t* out) {
  ForEachQueryTile<kAvx512IntTile>(nq, [&](std::size_t q0, auto width) {
    DotU8QBlockedVnniTile<decltype(width)::value>(q + q0, block, n,
                                                  out + q0 * kSqBlockRows);
  });
}
#pragma GCC pop_options

void DotU8QBlockedAvx512(const std::int8_t* const* q, std::size_t nq,
                         const std::uint8_t* block, std::size_t n,
                         std::int32_t* out) {
  // The table is selected on avx512f alone; vnni/bw get their own check so
  // plain-AVX512F hosts still resolve this entry (to the reference loop).
  static const bool vnni =
      HostCpuFeatures().avx512bw && HostCpuFeatures().avx512vnni;
  if (vnni) {
    DotU8QBlockedVnni(q, nq, block, n, out);
    return;
  }
  BlockedRef<kAvx512IntTile>(q, nq, block, n, out);
}
#else
void DotU8QBlockedAvx512(const std::int8_t* const* q, std::size_t nq,
                         const std::uint8_t* block, std::size_t n,
                         std::int32_t* out) {
  BlockedRef<kAvx512IntTile>(q, nq, block, n, out);
}
#endif

constexpr KernelTable kAvx512Table = {
    KernelIsa::kAvx512, "avx512", 8,
    DotAvx512, L2Avx512, DotRowsAvx512, L2RowsAvx512, DotU8Avx512,
    {DotU8BlockedAvx512, kAvx512FloatTile},
    {DotU8QBlockedAvx512, kAvx512IntTile},
};

}  // namespace

const KernelTable* Avx512Kernels() { return &kAvx512Table; }

}  // namespace vdb::dist

#else  // !VDB_DIST_BUILD_AVX512

namespace vdb::dist {
const KernelTable* Avx512Kernels() { return nullptr; }
}  // namespace vdb::dist

#endif
