#include "index/sq_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>

#include "common/stopwatch.hpp"
#include "index/search_arena.hpp"
#include "obs/obs.hpp"

namespace vdb {

SqIndex::SqIndex(const VectorStore& store, SqParams params)
    : store_(store), params_(params) {
  params_.quantile = std::clamp(params_.quantile, 0.5, 1.0);
  codes_.Reset(store_.Dim());
}

Status SqIndex::Build() {
  Stopwatch watch;
  const std::size_t n = store_.Size();
  if (n == 0) return Status::FailedPrecondition("empty store");

  if (segment_ == nullptr) {
    // Fresh build: (re)train the ranges on the current store and re-encode
    // everything. With a mapped segment attached the ranges are fixed —
    // retraining would silently invalidate every mapped code — so only the
    // uncovered tail is encoded below.
    ranges_.Train(store_, params_.quantile);
    codes_.Reset(store_.Dim());
    offsets_.clear();
    tail_norms_.clear();
    encode_watermark_ = 0;
  }

  for (std::uint32_t offset = encode_watermark_;
       offset < static_cast<std::uint32_t>(n); ++offset) {
    if (store_.IsDeleted(offset)) continue;
    VDB_RETURN_IF_ERROR(Add(offset));
  }
  encode_watermark_ = static_cast<std::uint32_t>(n);
  stats_.indexed_count = offsets_.size();
  stats_.build_seconds += watch.ElapsedSeconds();
  return Status::Ok();
}

Status SqIndex::Add(std::uint32_t offset) {
  if (!ranges_.Trained()) {
    return Status::FailedPrecondition("SQ8 requires Build() before Add()");
  }
  if (offset >= store_.Size()) return Status::OutOfRange("offset beyond store");
  std::vector<std::uint8_t> row(store_.Dim());
  ranges_.Encode(store_.At(offset).data(), row.data());
  const float norm_sq = ranges_.DecodedNormSq(row.data());
  std::unique_lock lock(codes_mutex_);
  codes_.Append(row.data());
  tail_norms_.push_back(norm_sq);
  offsets_.push_back(offset);
  encode_watermark_ = std::max(encode_watermark_, offset + 1);
  stats_.indexed_count = offsets_.size();
  return Status::Ok();
}

float SqIndex::NormSqAt(std::size_t row) const {
  if (row < mapped_norm_rows_) return mapped_norms_[row];
  return tail_norms_[row - mapped_norm_rows_];
}

Result<std::vector<ScoredPoint>> SqIndex::Search(VectorView query,
                                                 const SearchParams& params) const {
  VDB_ASSIGN_OR_RETURN(auto results,
                       SearchBatch(std::span<const VectorView>(&query, 1), params));
  return std::move(results.front());
}

Result<std::vector<std::vector<ScoredPoint>>> SqIndex::SearchBatch(
    std::span<const VectorView> queries, const SearchParams& params) const {
  if (!ranges_.Trained()) return Status::FailedPrecondition("index not built");
  const std::size_t nq = queries.size();
  if (nq == 0) return std::vector<std::vector<ScoredPoint>>{};
  for (const VectorView query : queries) {
    if (query.size() != store_.Dim()) return Status::InvalidArgument("query dim mismatch");
  }

  // Prepare (and, for cosine stores, normalize) every query once per batch.
  std::vector<Vector> normalized;
  std::vector<VectorView> effective(queries.begin(), queries.end());
  if (PrefersNormalized(store_.GetMetric())) {
    normalized.resize(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      normalized[q].assign(queries[q].begin(), queries[q].end());
      NormalizeInPlace(normalized[q]);
      effective[q] = normalized[q];
    }
  }
  std::vector<Sq8Ranges::PreparedQuery> prep(nq);
  std::vector<const float*> adj(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    prep[q] = ranges_.Prepare(effective[q]);
    adj[q] = prep[q].adj.data();
  }
  const Metric metric = store_.SearchMetric();

  const std::size_t fetch =
      params_.rerank > 0 ? std::max(params.k, params_.rerank) : params.k;
  std::shared_lock codes_lock(codes_mutex_);  // the coarse scan beside Add
  const std::size_t rows = codes_.Rows();
  const bool no_deletes = store_.DeletedCount() == 0;

  // Coarse scores only rank the rerank frontier, so with rerank on and a
  // VNNI-capable host the scan takes the integer kernel: queries quantized
  // to i8 once, 4x less port pressure than widening codes to float, and the
  // exact rerank below absorbs the extra quantization error. The no-rerank
  // path keeps the float kernel — those scores leave the index and must obey
  // the cross-shard merge tolerances.
  const bool int_scan = params_.rerank > 0 && FastU8QBlockedActive();
  std::vector<Sq8Ranges::QuantizedQuery> quantized(int_scan ? nq : 0);
  std::vector<const std::int8_t*> q_i8(quantized.size());
  for (std::size_t q = 0; q < quantized.size(); ++q) {
    quantized[q] = Sq8Ranges::QuantizeAdjusted(prep[q].adj);
    q_i8[q] = quantized[q].q.data();
  }

  // Scans blocks [block_lo, block_hi) into one TopK per query. Each block is
  // scored against the whole batch by one kernel call, which walks it once
  // per query tile. The serial path runs one full-range call; fan-out runs
  // one call per chunk of blocks on arena threads (each with private TopKs —
  // coarse ids are store offsets and chunks are disjoint, so merging dedups
  // nothing).
  const auto scan_blocks = [&](std::size_t block_lo, std::size_t block_hi,
                               std::vector<TopK>& out) {
    std::vector<float> block_scores(nq * Sq8BlockedCodes::kBlockRows);
    std::vector<std::int32_t> block_sums(int_scan ? block_scores.size() : 0);
    for (std::size_t b = block_lo; b < block_hi; ++b) {
      const std::size_t base = b * Sq8BlockedCodes::kBlockRows;
      const std::size_t limit = std::min(Sq8BlockedCodes::kBlockRows, rows - base);
      if (int_scan) {
        codes_.ScoreBlockQ(b, q_i8.data(), nq, block_sums.data());
      } else {
        codes_.ScoreBlock(b, adj.data(), nq, block_scores.data());
      }
      for (std::size_t q = 0; q < nq; ++q) {
        float* scores = block_scores.data() + q * Sq8BlockedCodes::kBlockRows;
        if (int_scan) {
          const std::int32_t* sums = block_sums.data() + q * Sq8BlockedCodes::kBlockRows;
          for (std::size_t r = 0; r < limit; ++r) {
            scores[r] = quantized[q].factor * static_cast<float>(sums[r]);
          }
        }
        TopK& top = out[q];
        float threshold = top.Full() ? top.Threshold()
                                     : -std::numeric_limits<float>::infinity();
        for (std::size_t r = 0; r < limit; ++r) {
          const float score =
              FinishSq8Score(metric, prep[q], scores[r], NormSqAt(base + r));
          if (score <= threshold && top.Full()) continue;
          const std::uint32_t offset = offsets_[base + r];
          if (!no_deletes && store_.IsDeleted(offset)) continue;
          top.Push(ScoredPoint{offset, score});
          if (top.Full()) threshold = top.Threshold();
        }
      }
    }
    VDB_COUNTER_ADD("index.sq8.block_passes",
                    (block_hi - block_lo) * U8BlockedPasses(int_scan, nq));
  };
  const auto fresh_topks = [&] {
    std::vector<TopK> topks;
    topks.reserve(nq);
    for (std::size_t q = 0; q < nq; ++q) topks.emplace_back(fetch);
    return topks;
  };

  constexpr std::size_t kMinBlocksPerChunk = 16;  // 1024 rows
  const std::size_t num_blocks = codes_.NumBlocks();
  const std::size_t fanout =
      std::min(params.intra_fanout,
               std::max<std::size_t>(1, num_blocks / kMinBlocksPerChunk));
  std::vector<std::vector<ScoredPoint>> candidates(nq);
  if (fanout > 1) {
    const std::size_t per_chunk = (num_blocks + fanout - 1) / fanout;
    // partial[q][c]: query q's best `fetch` within chunk c.
    std::vector<std::vector<std::vector<ScoredPoint>>> partial(
        nq, std::vector<std::vector<ScoredPoint>>(fanout));
    SearchArena::Instance().ParallelFor(
        fanout, 0, fanout, /*grain=*/1, [&](std::size_t c) {
          std::vector<TopK> local = fresh_topks();
          const std::size_t lo = c * per_chunk;
          scan_blocks(lo, std::min(num_blocks, lo + per_chunk), local);
          for (std::size_t q = 0; q < nq; ++q) partial[q][c] = local[q].Take();
        });
    for (std::size_t q = 0; q < nq; ++q) candidates[q] = MergeTopK(partial[q], fetch);
  } else {
    std::vector<TopK> coarse = fresh_topks();
    scan_blocks(0, num_blocks, coarse);
    for (std::size_t q = 0; q < nq; ++q) candidates[q] = coarse[q].Take();
  }
  codes_lock.unlock();

  std::vector<std::vector<ScoredPoint>> results(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    if (params_.rerank > 0) {
      TopK reranked(params.k);
      for (const auto& candidate : candidates[q]) {
        const auto offset = static_cast<std::uint32_t>(candidate.id);
        reranked.Push(store_.IdAt(offset),
                      Score(metric, effective[q], store_.At(offset)));
      }
      results[q] = reranked.Take();
      continue;
    }
    const std::size_t hits = std::min(candidates[q].size(), params.k);
    results[q].reserve(hits);
    for (std::size_t i = 0; i < hits; ++i) {
      results[q].push_back(ScoredPoint{
          store_.IdAt(static_cast<std::uint32_t>(candidates[q][i].id)),
          candidates[q][i].score});
    }
  }
  return results;
}

Status SqIndex::SaveCodeSegment(const std::filesystem::path& path) const {
  if (!ranges_.Trained()) return Status::FailedPrecondition("index not built");
  // The segment format maps code row i to store offset i, so the encoded
  // rows must be the identity prefix (guaranteed by the caller flushing with
  // zero tombstones and a fully indexed store).
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    if (offsets_[i] != i) {
      return Status::FailedPrecondition("code rows are not offset-identity");
    }
  }
  CodeSegmentData data;
  data.dim = static_cast<std::uint32_t>(store_.Dim());
  data.block_rows = static_cast<std::uint32_t>(Sq8BlockedCodes::kBlockRows);
  data.count = offsets_.size();
  data.dim_min = ranges_.Min();
  data.dim_scale = ranges_.Scale();
  data.norms.resize(data.count);
  for (std::size_t i = 0; i < data.count; ++i) data.norms[i] = NormSqAt(i);
  data.blocks = codes_.ToBlockedImage();
  return WriteCodeSegment(path, data);
}

Status SqIndex::AttachCodeSegment(std::shared_ptr<MappedCodeSegment> segment) {
  if (segment == nullptr) return Status::InvalidArgument("null code segment");
  if (segment->Dim() != store_.Dim()) {
    return Status::FailedPrecondition("code segment dim mismatch");
  }
  if (segment->BlockRows() != Sq8BlockedCodes::kBlockRows) {
    return Status::FailedPrecondition("code segment block_rows mismatch");
  }
  if (segment->Count() > store_.Size()) {
    return Status::FailedPrecondition("code segment covers more rows than store");
  }
  segment_ = std::move(segment);
  ranges_.Adopt(std::vector<float>(segment_->DimMin(), segment_->DimMin() + store_.Dim()),
                std::vector<float>(segment_->DimScale(), segment_->DimScale() + store_.Dim()));
  codes_.AttachMapped(segment_->Blocks(), segment_->Count(), store_.Dim());
  // The partial trailing block was copied to the heap by AttachMapped, but
  // its norms stay readable from the mapped array for the full count.
  mapped_norms_ = segment_->Norms();
  mapped_norm_rows_ = segment_->Count();
  tail_norms_.clear();
  offsets_.resize(segment_->Count());
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    offsets_[i] = static_cast<std::uint32_t>(i);
  }
  encode_watermark_ = static_cast<std::uint32_t>(segment_->Count());
  stats_.indexed_count = offsets_.size();
  return Status::Ok();
}

std::uint64_t SqIndex::MemoryBytes() const {
  return codes_.HeapBytes() + offsets_.size() * sizeof(std::uint32_t) +
         tail_norms_.size() * sizeof(float) +
         (ranges_.Min().size() + ranges_.Scale().size()) * sizeof(float);
}

std::vector<std::uint8_t> SqIndex::EncodeForTest(VectorView v) const {
  std::vector<std::uint8_t> codes(store_.Dim());
  ranges_.Encode(v.data(), codes.data());
  return codes;
}

Vector SqIndex::DecodeForTest(const std::vector<std::uint8_t>& codes) const {
  return ranges_.Decode(codes.data());
}

}  // namespace vdb
