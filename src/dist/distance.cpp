#include "dist/distance.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/cpuid.hpp"
#include "dist/kernels.hpp"

namespace vdb {

namespace {

/// Rows per pointer-block in the contiguous-batch wrappers. Large enough to
/// amortize pointer setup, small enough to stay in L1 (64 pointers + 64
/// scores = 768 bytes).
constexpr std::size_t kRowBlock = 64;

/// Builds the row-pointer block for `count` (<= kRowBlock) contiguous rows
/// and prefetches the first cache line of each upcoming row.
inline void FillRowBlock(const Scalar* base, std::size_t dim, std::size_t count,
                         const Scalar** rows) {
  for (std::size_t r = 0; r < count; ++r) {
    rows[r] = base + r * dim;
    __builtin_prefetch(rows[r]);
  }
}

}  // namespace

std::string_view MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL2: return "l2";
    case Metric::kInnerProduct: return "ip";
    case Metric::kCosine: return "cosine";
  }
  return "?";
}

Result<Metric> ParseMetric(const std::string& name) {
  if (name == "l2" || name == "euclid" || name == "euclidean") return Metric::kL2;
  if (name == "ip" || name == "dot" || name == "inner_product") return Metric::kInnerProduct;
  if (name == "cosine" || name == "cos") return Metric::kCosine;
  return Status::InvalidArgument("unknown metric '" + name + "'");
}

Scalar DotProduct(VectorView a, VectorView b) {
  assert(a.size() == b.size());
  return dist::ActiveKernels().dot(a.data(), b.data(), a.size());
}

Scalar L2SquaredDistance(VectorView a, VectorView b) {
  assert(a.size() == b.size());
  return dist::ActiveKernels().l2sq(a.data(), b.data(), a.size());
}

Scalar Norm(VectorView a) { return std::sqrt(DotProduct(a, a)); }

void DotProductBatch(VectorView query, const Scalar* base, std::size_t count,
                     Scalar* out) {
  const dist::KernelTable& k = dist::ActiveKernels();
  const std::size_t dim = query.size();
  const Scalar* rows[kRowBlock];
  for (std::size_t begin = 0; begin < count; begin += kRowBlock) {
    const std::size_t n = std::min(kRowBlock, count - begin);
    FillRowBlock(base + begin * dim, dim, n, rows);
    k.dot_rows(query.data(), rows, n, dim, out + begin);
  }
}

void L2SquaredDistanceBatch(VectorView query, const Scalar* base,
                            std::size_t count, Scalar* out) {
  const dist::KernelTable& k = dist::ActiveKernels();
  const std::size_t dim = query.size();
  const Scalar* rows[kRowBlock];
  for (std::size_t begin = 0; begin < count; begin += kRowBlock) {
    const std::size_t n = std::min(kRowBlock, count - begin);
    FillRowBlock(base + begin * dim, dim, n, rows);
    k.l2_rows(query.data(), rows, n, dim, out + begin);
  }
}

float DotProductU8(const float* query, const std::uint8_t* codes, std::size_t n) {
  return dist::ActiveKernels().dot_u8(query, codes, n);
}

void DotProductU8Blocked(const float* const* queries, std::size_t nq,
                         const std::uint8_t* block, std::size_t n, float* out) {
  static_assert(kSq8BlockRows == dist::kSqBlockRows);
  dist::ActiveKernels().dot_u8_blocked(queries, nq, block, n, out);
}

void DotProductU8QBlocked(const std::int8_t* const* queries, std::size_t nq,
                          const std::uint8_t* block, std::size_t n,
                          std::int32_t* out) {
  dist::ActiveKernels().dot_u8q_blocked(queries, nq, block, n, out);
}

std::size_t U8BlockedPasses(bool integer, std::size_t nq) {
  const dist::KernelTable& table = dist::ActiveKernels();
  return integer ? table.dot_u8q_blocked.Passes(nq) : table.dot_u8_blocked.Passes(nq);
}

bool FastU8QBlockedActive() {
  return dist::ActiveKernels().isa == dist::KernelIsa::kAvx512 &&
         HostCpuFeatures().avx512bw && HostCpuFeatures().avx512vnni;
}

Scalar Score(Metric metric, VectorView a, VectorView b) {
  switch (metric) {
    case Metric::kL2:
      return -L2SquaredDistance(a, b);
    case Metric::kInnerProduct:
      return DotProduct(a, b);
    case Metric::kCosine: {
      const Scalar na = Norm(a);
      const Scalar nb = Norm(b);
      if (IsZeroNorm(na) || IsZeroNorm(nb)) return 0.f;
      return DotProduct(a, b) / (na * nb);
    }
  }
  return 0.f;
}

void ScoreRows(Metric metric, VectorView query, const Scalar* const* rows,
               std::size_t count, Scalar* out) {
  const dist::KernelTable& k = dist::ActiveKernels();
  const std::size_t dim = query.size();
  switch (metric) {
    case Metric::kL2:
      k.l2_rows(query.data(), rows, count, dim, out);
      for (std::size_t r = 0; r < count; ++r) out[r] = -out[r];
      break;
    case Metric::kInnerProduct:
      k.dot_rows(query.data(), rows, count, dim, out);
      break;
    case Metric::kCosine: {
      const Scalar query_norm = Norm(query);
      k.dot_rows(query.data(), rows, count, dim, out);
      for (std::size_t r = 0; r < count; ++r) {
        const Scalar nv = std::sqrt(k.dot(rows[r], rows[r], dim));
        out[r] = (IsZeroNorm(query_norm) || IsZeroNorm(nv))
                     ? 0.f
                     : out[r] / (query_norm * nv);
      }
      break;
    }
  }
}

void ScoreBatch(Metric metric, VectorView query, const Scalar* base,
                std::size_t dim, std::size_t count, Scalar* out) {
  assert(query.size() == dim);
  const Scalar* rows[kRowBlock];
  for (std::size_t begin = 0; begin < count; begin += kRowBlock) {
    const std::size_t n = std::min(kRowBlock, count - begin);
    FillRowBlock(base + begin * dim, dim, n, rows);
    ScoreRows(metric, query, rows, n, out + begin);
  }
}

void NormalizeInPlace(Vector& v) {
  const Scalar n = Norm(v);
  if (IsZeroNorm(n)) return;
  const Scalar inv = 1.0f / n;
  for (auto& x : v) x *= inv;
}

bool PrefersNormalized(Metric metric) { return metric == Metric::kCosine; }

std::string_view ActiveKernelName() { return dist::ActiveKernels().name; }

}  // namespace vdb
