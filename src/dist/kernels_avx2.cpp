#include "dist/kernels.hpp"

// AVX2+FMA kernels: 8-wide FMA, 4 rows per multi-row pass. This TU is the
// only one compiled with -mavx2 -mfma (see src/CMakeLists.txt); it must not
// be entered unless CPUID reports avx2+fma, which the dispatcher guarantees.

#if defined(VDB_DIST_BUILD_AVX2)

#include <immintrin.h>

#include "dist/kernels_blocked_ref.hpp"

namespace vdb::dist {
namespace {

inline float Hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_movehdup_ps(sum));
  return _mm_cvtss_f32(sum);
}

float DotAvx2(const Scalar* a, const Scalar* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float sum = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

float L2Avx2(const Scalar* a, const Scalar* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  float sum = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

// Four rows per pass: each query register load is amortized over four FMAs,
// and the next block's rows are prefetched while this block computes.
void DotRowsAvx2(const Scalar* q, const Scalar* const* rows,
                 std::size_t count, std::size_t n, Scalar* out) {
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    if (r + 8 <= count) {
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 4]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 5]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 6]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 7]), _MM_HINT_T0);
    }
    const Scalar* r0 = rows[r];
    const Scalar* r1 = rows[r + 1];
    const Scalar* r2 = rows[r + 2];
    const Scalar* r3 = rows[r + 3];
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      acc0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r0 + i), acc0);
      acc1 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r1 + i), acc1);
      acc2 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r2 + i), acc2);
      acc3 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r3 + i), acc3);
    }
    float s0 = Hsum256(acc0);
    float s1 = Hsum256(acc1);
    float s2 = Hsum256(acc2);
    float s3 = Hsum256(acc3);
    for (; i < n; ++i) {
      const float qi = q[i];
      s0 += qi * r0[i];
      s1 += qi * r1[i];
      s2 += qi * r2[i];
      s3 += qi * r3[i];
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = DotAvx2(q, rows[r], n);
}

void L2RowsAvx2(const Scalar* q, const Scalar* const* rows,
                std::size_t count, std::size_t n, Scalar* out) {
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    if (r + 8 <= count) {
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 4]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 5]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 6]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(rows[r + 7]), _MM_HINT_T0);
    }
    const Scalar* r0 = rows[r];
    const Scalar* r1 = rows[r + 1];
    const Scalar* r2 = rows[r + 2];
    const Scalar* r3 = rows[r + 3];
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 qv = _mm256_loadu_ps(q + i);
      const __m256 d0 = _mm256_sub_ps(qv, _mm256_loadu_ps(r0 + i));
      const __m256 d1 = _mm256_sub_ps(qv, _mm256_loadu_ps(r1 + i));
      const __m256 d2 = _mm256_sub_ps(qv, _mm256_loadu_ps(r2 + i));
      const __m256 d3 = _mm256_sub_ps(qv, _mm256_loadu_ps(r3 + i));
      acc0 = _mm256_fmadd_ps(d0, d0, acc0);
      acc1 = _mm256_fmadd_ps(d1, d1, acc1);
      acc2 = _mm256_fmadd_ps(d2, d2, acc2);
      acc3 = _mm256_fmadd_ps(d3, d3, acc3);
    }
    float s0 = Hsum256(acc0);
    float s1 = Hsum256(acc1);
    float s2 = Hsum256(acc2);
    float s3 = Hsum256(acc3);
    for (; i < n; ++i) {
      const float qi = q[i];
      const float d0 = qi - r0[i];
      const float d1 = qi - r1[i];
      const float d2 = qi - r2[i];
      const float d3 = qi - r3[i];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) out[r] = L2Avx2(q, rows[r], n);
}

float DotU8Avx2(const float* q, const std::uint8_t* codes, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i bytes =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i));
    const __m256 vals = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(q + i), vals, acc);
  }
  float sum = Hsum256(acc);
  for (; i < n; ++i) sum += q[i] * static_cast<float>(codes[i]);
  return sum;
}

// Widens one 8-row code group to float once and feeds it to every query of
// the tile. A pass covers 8 / kTile of the block's eight 8-row groups, so a
// tile holds eight ymm accumulators whatever its width (tile 2: two passes
// over half-lines), and the block's bytes stream once per tile. Per row the
// FMA chain runs over dimensions in order for any tile width, so a query's
// sums match a one-query call bit for bit.
template <std::size_t kTile>
void DotU8BlockedTileAvx2(const float* const* q, const std::uint8_t* block,
                          std::size_t n, float* out) {
  constexpr std::size_t kGroups = 8 / kTile;
  for (std::size_t pass = 0; pass < kTile; ++pass) {
    const std::uint8_t* lines = block + pass * kGroups * 8;
    __m256 acc[kTile][kGroups];
    VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
      VDB_UNROLL_TILE for (std::size_t j = 0; j < kGroups; ++j) {
        acc[t][j] = _mm256_setzero_ps();
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t* col = lines + i * kSqBlockRows;
      _mm_prefetch(reinterpret_cast<const char*>(col + kSqBlockRows), _MM_HINT_T0);
      __m256 qv[kTile];
      VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) qv[t] = _mm256_set1_ps(q[t][i]);
      VDB_UNROLL_TILE for (std::size_t j = 0; j < kGroups; ++j) {
        const __m128i bytes =
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col + j * 8));
        const __m256 vals = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
        VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
          acc[t][j] = _mm256_fmadd_ps(qv[t], vals, acc[t][j]);
        }
      }
    }
    VDB_UNROLL_TILE for (std::size_t t = 0; t < kTile; ++t) {
      VDB_UNROLL_TILE for (std::size_t j = 0; j < kGroups; ++j) {
        _mm256_storeu_ps(out + t * kSqBlockRows + pass * kGroups * 8 + j * 8,
                         acc[t][j]);
      }
    }
  }
}

constexpr std::size_t kAvx2FloatTile = 2;

void DotU8BlockedAvx2(const float* const* q, std::size_t nq,
                      const std::uint8_t* block, std::size_t n, float* out) {
  ForEachQueryTile<kAvx2FloatTile>(nq, [&](std::size_t q0, auto width) {
    DotU8BlockedTileAvx2<decltype(width)::value>(q + q0, block, n,
                                                 out + q0 * kSqBlockRows);
  });
}

// The integer entry is the plain reference loop — GCC auto-vectorizes it
// with the AVX2 integer ops this TU is built with. Exact integer math, so it
// stays bit-equal to scalar; the genuinely fast integer path (vpdpbusd)
// lives in the avx512 table.
constexpr std::size_t kAvx2IntTile = 4;

constexpr KernelTable kAvx2Table = {
    KernelIsa::kAvx2, "avx2", 4,
    DotAvx2, L2Avx2, DotRowsAvx2, L2RowsAvx2, DotU8Avx2,
    {DotU8BlockedAvx2, kAvx2FloatTile},
    {BlockedRef<kAvx2IntTile, std::int8_t, std::int32_t>, kAvx2IntTile},
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }

}  // namespace vdb::dist

#else  // !VDB_DIST_BUILD_AVX2

namespace vdb::dist {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace vdb::dist

#endif
