#include "index/sq8_codes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace vdb {

void Sq8Ranges::Train(const VectorStore& store, double quantile) {
  const std::size_t n = store.Size();
  const std::size_t dim = store.Dim();
  const double q = std::clamp(quantile, 0.5, 1.0);

  // Per-dimension clipped ranges. Collect a column sample per dimension; for
  // bounded memory, sample at most 4096 rows (deterministic stride).
  const std::size_t sample = std::min<std::size_t>(n, 4096);
  const std::size_t stride = std::max<std::size_t>(1, n / sample);
  min_.assign(dim, 0.f);
  scale_.assign(dim, 1.f);
  std::vector<float> column;
  column.reserve(sample);
  for (std::size_t d = 0; d < dim; ++d) {
    column.clear();
    for (std::size_t row = 0; row < n; row += stride) {
      column.push_back(store.At(static_cast<std::uint32_t>(row))[d]);
    }
    std::sort(column.begin(), column.end());
    const auto lo_index = static_cast<std::size_t>((1.0 - q) * (column.size() - 1));
    const auto hi_index = static_cast<std::size_t>(q * (column.size() - 1));
    float lo = column[lo_index];
    float hi = column[hi_index];
    if (hi - lo < 1e-12f) hi = lo + 1e-6f;  // constant dimension
    min_[d] = lo;
    scale_[d] = (hi - lo) / 255.0f;
  }
  trained_ = true;
}

void Sq8Ranges::Adopt(std::vector<float> min, std::vector<float> scale) {
  min_ = std::move(min);
  scale_ = std::move(scale);
  trained_ = true;
}

void Sq8Ranges::Encode(const float* v, std::uint8_t* out) const {
  const std::size_t dim = min_.size();
  for (std::size_t d = 0; d < dim; ++d) {
    const float normalized = (v[d] - min_[d]) / scale_[d];
    // Round to nearest (+0.5 then truncate on the clamped non-negative
    // value): halves the worst-case round-trip error vs truncation.
    out[d] = static_cast<std::uint8_t>(std::clamp(normalized, 0.f, 255.f) + 0.5f);
  }
}

Vector Sq8Ranges::Decode(const std::uint8_t* codes) const {
  Vector out(min_.size());
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = min_[d] + scale_[d] * static_cast<float>(codes[d]);
  }
  return out;
}

float Sq8Ranges::DecodedNormSq(const std::uint8_t* codes) const {
  float acc = 0.f;
  for (std::size_t d = 0; d < min_.size(); ++d) {
    const float v = min_[d] + scale_[d] * static_cast<float>(codes[d]);
    acc += v * v;
  }
  return acc;
}

Sq8Ranges::PreparedQuery Sq8Ranges::Prepare(VectorView query) const {
  PreparedQuery prep;
  const std::size_t dim = min_.size();
  prep.adj.resize(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    prep.adj[d] = query[d] * scale_[d];
    prep.bias += query[d] * min_[d];
    prep.query_norm_sq += query[d] * query[d];
  }
  return prep;
}

Sq8Ranges::QuantizedQuery Sq8Ranges::QuantizeAdjusted(
    const std::vector<float>& adj) {
  QuantizedQuery out;
  out.q.resize(adj.size());
  float max_abs = 0.f;
  for (const float a : adj) max_abs = std::max(max_abs, std::abs(a));
  if (max_abs == 0.f) return out;  // all-zero query: factor 0, all-zero codes
  out.factor = max_abs / 127.f;
  const float inv = 127.f / max_abs;
  for (std::size_t d = 0; d < adj.size(); ++d) {
    out.q[d] = static_cast<std::int8_t>(std::lround(adj[d] * inv));
  }
  return out;
}

void Sq8BlockedCodes::Reset(std::size_t dim) {
  dim_ = dim;
  rows_ = 0;
  mapped_ = nullptr;
  mapped_blocks_ = 0;
  tail_.clear();
}

void Sq8BlockedCodes::Append(const std::uint8_t* row_codes) {
  const std::size_t local = rows_ - mapped_blocks_ * kBlockRows;
  const std::size_t block = local / kBlockRows;
  const std::size_t r = local % kBlockRows;
  if (tail_.size() < (block + 1) * BlockBytes()) {
    tail_.resize((block + 1) * BlockBytes(), 0);  // padding rows stay zero
  }
  std::uint8_t* base = tail_.data() + block * BlockBytes();
  for (std::size_t d = 0; d < dim_; ++d) {
    base[d * kBlockRows + r] = row_codes[d];
  }
  ++rows_;
}

void Sq8BlockedCodes::AttachMapped(const std::uint8_t* blocks, std::size_t rows,
                                   std::size_t dim) {
  Reset(dim);
  mapped_ = blocks;
  mapped_blocks_ = rows / kBlockRows;
  rows_ = mapped_blocks_ * kBlockRows;
  // Copy the trailing partial block onto the heap so Append() can keep
  // filling it (the mapping is read-only).
  const std::size_t remainder = rows % kBlockRows;
  if (remainder > 0) {
    const std::uint8_t* last = blocks + mapped_blocks_ * BlockBytes();
    std::vector<std::uint8_t> row(dim_);
    for (std::size_t r = 0; r < remainder; ++r) {
      for (std::size_t d = 0; d < dim_; ++d) row[d] = last[d * kBlockRows + r];
      Append(row.data());
    }
  }
}

const std::uint8_t* Sq8BlockedCodes::BlockPtr(std::size_t b) const {
  if (b < mapped_blocks_) return mapped_ + b * BlockBytes();
  return tail_.data() + (b - mapped_blocks_) * BlockBytes();
}

void Sq8BlockedCodes::ScoreBlock(std::size_t b, const float* const* q_adj,
                                 std::size_t nq, float* out) const {
  DotProductU8Blocked(q_adj, nq, BlockPtr(b), dim_, out);
}

void Sq8BlockedCodes::ScoreBlockQ(std::size_t b, const std::int8_t* const* q_i8,
                                  std::size_t nq, std::int32_t* out) const {
  DotProductU8QBlocked(q_i8, nq, BlockPtr(b), dim_, out);
}

void Sq8BlockedCodes::CopyRow(std::size_t row, std::uint8_t* out) const {
  const std::uint8_t* base = BlockPtr(row / kBlockRows);
  const std::size_t r = row % kBlockRows;
  for (std::size_t d = 0; d < dim_; ++d) out[d] = base[d * kBlockRows + r];
}

std::vector<std::uint8_t> Sq8BlockedCodes::ToBlockedImage() const {
  std::vector<std::uint8_t> image(NumBlocks() * BlockBytes(), 0);
  const std::size_t mapped_bytes = mapped_blocks_ * BlockBytes();
  if (mapped_bytes > 0) std::memcpy(image.data(), mapped_, mapped_bytes);
  if (!tail_.empty()) {
    std::memcpy(image.data() + mapped_bytes, tail_.data(),
                std::min(tail_.size(), image.size() - mapped_bytes));
  }
  return image;
}

}  // namespace vdb
