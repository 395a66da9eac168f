#include "index/ivf_pq_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"

namespace vdb {

IvfPqIndex::IvfPqIndex(const VectorStore& store, IvfPqParams params)
    : store_(store), params_(params) {
  if (params_.n_subspaces == 0) {
    params_.n_subspaces = std::min<std::size_t>(64, std::max<std::size_t>(1, store.Dim() / 8));
  }
  // Shrink subspace count until it divides the dimension.
  while (params_.n_subspaces > 1 && store.Dim() % params_.n_subspaces != 0) {
    --params_.n_subspaces;
  }
  sub_dim_ = store.Dim() / params_.n_subspaces;
  if (params_.codebook_size > 256) params_.codebook_size = 256;  // 8-bit codes
}

Status IvfPqIndex::Build() {
  Stopwatch watch;
  const std::size_t n = store_.Size();
  if (n == 0) return Status::FailedPrecondition("empty store");

  // --- Sample training vectors.
  Rng rng(params_.seed);
  const std::size_t sample_size = std::min(params_.train_sample, n);
  std::vector<std::uint32_t> sample_offsets;
  sample_offsets.reserve(sample_size);
  if (sample_size == n) {
    for (std::uint32_t i = 0; i < n; ++i) sample_offsets.push_back(i);
  } else {
    // Reservoir-free: random distinct-ish picks are fine for training.
    for (std::size_t i = 0; i < sample_size; ++i) {
      sample_offsets.push_back(static_cast<std::uint32_t>(rng.NextU64(n)));
    }
  }
  const std::size_t dim = store_.Dim();
  std::vector<Scalar> sample(sample_size * dim);
  for (std::size_t i = 0; i < sample_size; ++i) {
    std::memcpy(sample.data() + i * dim, store_.At(sample_offsets[i]).data(),
                dim * sizeof(Scalar));
  }

  // --- Train the coarse quantizer.
  KMeansParams coarse_params;
  coarse_params.k = std::min(params_.n_lists, sample_size);
  coarse_params.seed = rng.NextU64();
  auto coarse = KMeansCluster(sample.data(), sample_size, dim, coarse_params);
  params_.n_lists = coarse_params.k;
  coarse_centroids_ = std::move(coarse.centroids);

  // --- Train one codebook per subspace on residual-free subvectors.
  // (Classic IVFADC trains on residuals; subvector training is simpler and
  // sufficient for the recall targets our tests assert.)
  codebooks_.assign(params_.n_subspaces, {});
  std::vector<Scalar> sub_data(sample_size * sub_dim_);
  for (std::size_t s = 0; s < params_.n_subspaces; ++s) {
    for (std::size_t i = 0; i < sample_size; ++i) {
      std::memcpy(sub_data.data() + i * sub_dim_,
                  sample.data() + i * dim + s * sub_dim_, sub_dim_ * sizeof(Scalar));
    }
    KMeansParams pq_params;
    pq_params.k = std::min(params_.codebook_size, sample_size);
    pq_params.max_iterations = 15;
    pq_params.seed = rng.NextU64();
    auto result = KMeansCluster(sub_data.data(), sample_size, sub_dim_, pq_params);
    // Pad the codebook to the full size so code bytes are always valid.
    result.centroids.resize(params_.codebook_size * sub_dim_, 0.f);
    codebooks_[s] = std::move(result.centroids);
  }
  trained_ = true;

  // --- Encode every live vector into its inverted list.
  lists_.assign(params_.n_lists, {});
  stats_.indexed_count = 0;  // Add() counts each encoded entry
  for (std::uint32_t offset = 0; offset < n; ++offset) {
    if (store_.IsDeleted(offset)) continue;
    VDB_RETURN_IF_ERROR(Add(offset));
  }

  stats_.build_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

void IvfPqIndex::Encode(VectorView v, std::uint8_t* codes_out) const {
  for (std::size_t s = 0; s < params_.n_subspaces; ++s) {
    const VectorView sub(v.data() + s * sub_dim_, sub_dim_);
    codes_out[s] = static_cast<std::uint8_t>(
        NearestCentroid(sub, codebooks_[s], sub_dim_));
  }
}

Status IvfPqIndex::Add(std::uint32_t offset) {
  if (!trained_) {
    return Status::FailedPrecondition("IVF-PQ requires Build() before Add()");
  }
  if (offset >= store_.Size()) return Status::OutOfRange("offset beyond store");
  const VectorView v = store_.At(offset);
  const std::uint32_t list = NearestCentroid(v, coarse_centroids_, store_.Dim());
  std::vector<std::uint8_t> row(params_.n_subspaces);
  Encode(v, row.data());
  std::unique_lock lock(lists_mutex_);
  auto& inverted = lists_[list];
  const std::size_t entry = inverted.offsets.size();
  inverted.offsets.push_back(offset);
  // Scatter the row-major codes into the transposed block (padding entries
  // of a fresh block stay zero — they are masked by entry index at scan).
  const std::size_t block = entry / kAdcBlock;
  const std::size_t r = entry % kAdcBlock;
  const std::size_t block_bytes = params_.n_subspaces * kAdcBlock;
  if (inverted.codes.size() < (block + 1) * block_bytes) {
    inverted.codes.resize((block + 1) * block_bytes, 0);
  }
  std::uint8_t* base = inverted.codes.data() + block * block_bytes;
  for (std::size_t s = 0; s < params_.n_subspaces; ++s) {
    base[s * kAdcBlock + r] = row[s];
  }
  ++stats_.indexed_count;
  return Status::Ok();
}

std::vector<float> IvfPqIndex::BuildAdcTable(VectorView query) const {
  // Each codebook is a contiguous row-major block of centroids, so one
  // batched kernel call fills a whole subspace's table row.
  std::vector<float> table(params_.n_subspaces * params_.codebook_size);
  const bool ip_convention = store_.SearchMetric() == Metric::kInnerProduct;
  for (std::size_t s = 0; s < params_.n_subspaces; ++s) {
    const VectorView q_sub(query.data() + s * sub_dim_, sub_dim_);
    if (ip_convention) {
      DotProductBatch(q_sub, codebooks_[s].data(), params_.codebook_size,
                      table.data() + s * params_.codebook_size);
    } else {
      L2SquaredDistanceBatch(q_sub, codebooks_[s].data(), params_.codebook_size,
                             table.data() + s * params_.codebook_size);
    }
  }
  return table;
}

Result<std::vector<ScoredPoint>> IvfPqIndex::Search(VectorView query,
                                                    const SearchParams& params) const {
  if (!trained_) return Status::FailedPrecondition("index not built");
  if (query.size() != store_.Dim()) return Status::InvalidArgument("query dim mismatch");

  Vector normalized;
  VectorView effective = query;
  if (PrefersNormalized(store_.GetMetric())) {
    normalized.assign(query.begin(), query.end());
    NormalizeInPlace(normalized);
    effective = normalized;
  }

  // Rank inverted lists by centroid distance (one batched kernel sweep over
  // the contiguous centroid block); probe the closest n_probes.
  std::vector<float> centroid_dists(params_.n_lists);
  L2SquaredDistanceBatch(effective, coarse_centroids_.data(), params_.n_lists,
                         centroid_dists.data());
  std::vector<std::pair<float, std::uint32_t>> list_order;
  list_order.reserve(params_.n_lists);
  for (std::size_t l = 0; l < params_.n_lists; ++l) {
    list_order.emplace_back(centroid_dists[l], static_cast<std::uint32_t>(l));
  }
  const std::size_t probes = std::min(params.n_probes, params_.n_lists);
  std::partial_sort(list_order.begin(), list_order.begin() + static_cast<std::ptrdiff_t>(probes),
                    list_order.end());

  const auto adc = BuildAdcTable(effective);
  // IP-convention stores sum dot-product tables (approximate <q, decode(x)>,
  // already higher-is-better); L2 stores sum squared distances and negate.
  const float sign = store_.SearchMetric() == Metric::kInnerProduct ? 1.f : -1.f;
  const std::size_t fetch = params_.rerank > 0 ? std::max(params.k, params_.rerank) : params.k;
  TopK collector(fetch);
  float acc[kAdcBlock];
  const std::size_t block_bytes = params_.n_subspaces * kAdcBlock;
  std::shared_lock lists_lock(lists_mutex_);  // the probe beside Add
  for (std::size_t p = 0; p < probes; ++p) {
    const auto& inverted = lists_[list_order[p].second];
    const std::size_t entries = inverted.offsets.size();
    // Transposed ADC: accumulate one contiguous 64-entry code line per
    // subspace so table gathers stream instead of striding across rows.
    for (std::size_t block = 0; block * kAdcBlock < entries; ++block) {
      std::fill(acc, acc + kAdcBlock, 0.f);
      const std::uint8_t* base = inverted.codes.data() + block * block_bytes;
      for (std::size_t s = 0; s < params_.n_subspaces; ++s) {
        const float* table_row = adc.data() + s * params_.codebook_size;
        const std::uint8_t* code_row = base + s * kAdcBlock;
        for (std::size_t r = 0; r < kAdcBlock; ++r) {
          acc[r] += table_row[code_row[r]];
        }
      }
      const std::size_t limit = std::min(kAdcBlock, entries - block * kAdcBlock);
      for (std::size_t r = 0; r < limit; ++r) {
        const std::uint32_t offset = inverted.offsets[block * kAdcBlock + r];
        if (store_.IsDeleted(offset)) continue;
        collector.Push(ScoredPoint{offset, sign * acc[r]});  // keyed by offset
      }
    }
  }

  lists_lock.unlock();
  auto coarse_hits = collector.Take();
  if (params_.rerank > 0) {
    TopK reranked(params.k);
    for (const auto& hit : coarse_hits) {
      const auto offset = static_cast<std::uint32_t>(hit.id);
      reranked.Push(store_.IdAt(offset),
                    Score(store_.SearchMetric(), effective, store_.At(offset)));
    }
    return reranked.Take();
  }
  std::vector<ScoredPoint> out;
  out.reserve(std::min(coarse_hits.size(), params.k));
  for (std::size_t i = 0; i < coarse_hits.size() && i < params.k; ++i) {
    const auto offset = static_cast<std::uint32_t>(coarse_hits[i].id);
    out.push_back(ScoredPoint{store_.IdAt(offset), coarse_hits[i].score});
  }
  return out;
}

std::uint64_t IvfPqIndex::MemoryBytes() const {
  std::uint64_t bytes = coarse_centroids_.size() * sizeof(Scalar);
  for (const auto& codebook : codebooks_) bytes += codebook.size() * sizeof(Scalar);
  for (const auto& list : lists_) {
    bytes += list.offsets.size() * sizeof(std::uint32_t) + list.codes.size();
  }
  return bytes;
}

std::vector<std::uint8_t> IvfPqIndex::EncodeForTest(VectorView v) const {
  std::vector<std::uint8_t> codes(params_.n_subspaces);
  Encode(v, codes.data());
  return codes;
}

Vector IvfPqIndex::DecodeForTest(const std::vector<std::uint8_t>& codes) const {
  Vector out(store_.Dim(), 0.f);
  for (std::size_t s = 0; s < params_.n_subspaces && s < codes.size(); ++s) {
    std::memcpy(out.data() + s * sub_dim_,
                codebooks_[s].data() + static_cast<std::size_t>(codes[s]) * sub_dim_,
                sub_dim_ * sizeof(Scalar));
  }
  return out;
}

}  // namespace vdb
