#pragma once

/// \file kernels_blocked_ref.hpp
/// Portable multi-query blocked SQ8 loop shared by the per-ISA kernel TUs
/// (the scalar table's entries, the AVX2 integer entry, and the AVX-512
/// integer entry on hosts without VNNI). Private to src/dist.
///
/// Everything here has internal linkage on purpose: each ISA TU is compiled
/// with its own -m flags, so an inline or template function with external
/// linkage would let the linker keep one TU's copy (say, the AVX2 build) and
/// run it from the scalar table on a host without AVX2.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "dist/kernels.hpp"

/// Fully unrolls a loop over the queries of a tile or the row groups of a
/// block. The SIMD tile kernels need it: at -O2 GCC otherwise leaves the
/// per-query accumulator arrays on the stack instead of in registers.
#define VDB_UNROLL_TILE _Pragma("GCC unroll 16")

namespace vdb::dist {
namespace {

/// Scores `nq` queries against one transposed block, `kTile` queries per
/// walk of the block. Per query and row the sum runs over dimensions in
/// ascending order, exactly as a single-query loop would, so the tile a query
/// lands in never changes its result.
template <std::size_t kTile, class Query, class Out>
void BlockedRef(const Query* const* queries, std::size_t nq,
                const std::uint8_t* block, std::size_t n, Out* out) {
  for (std::size_t q0 = 0; q0 < nq; q0 += kTile) {
    const std::size_t tile = std::min(kTile, nq - q0);
    Out* tile_out = out + q0 * kSqBlockRows;
    std::fill(tile_out, tile_out + tile * kSqBlockRows, Out{});
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t* col = block + i * kSqBlockRows;
      for (std::size_t j = 0; j < tile; ++j) {
        const Out qi = static_cast<Out>(queries[q0 + j][i]);
        Out* row_out = tile_out + j * kSqBlockRows;
        for (std::size_t r = 0; r < kSqBlockRows; ++r) {
          row_out[r] += qi * static_cast<Out>(col[r]);
        }
      }
    }
  }
}

/// Splits `nq` queries into tiles of `kTile` and calls
/// `tile_fn(first_query, std::integral_constant<std::size_t, width>{})` per
/// tile; the trailing partial tile gets its exact width as a compile-time
/// constant too, so SIMD tile kernels keep every accumulator in registers.
template <std::size_t kWidth, class TileFn>
void RunRemainderTile(std::size_t q0, std::size_t rest, TileFn& tile_fn) {
  if (rest == kWidth) {
    tile_fn(q0, std::integral_constant<std::size_t, kWidth>{});
  } else if constexpr (kWidth > 1) {
    RunRemainderTile<kWidth - 1>(q0, rest, tile_fn);
  }
}

template <std::size_t kTile, class TileFn>
void ForEachQueryTile(std::size_t nq, TileFn&& tile_fn) {
  std::size_t q0 = 0;
  for (; q0 + kTile <= nq; q0 += kTile) {
    tile_fn(q0, std::integral_constant<std::size_t, kTile>{});
  }
  if constexpr (kTile > 1) {
    if (q0 < nq) RunRemainderTile<kTile - 1>(q0, nq - q0, tile_fn);
  }
}

}  // namespace
}  // namespace vdb::dist
