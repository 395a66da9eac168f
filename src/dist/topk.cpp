#include "dist/topk.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_set>

namespace vdb {
namespace {

/// Min-heap comparator on score (worst at front), ties broken on id so
/// ordering is deterministic across runs and platforms.
struct WorstFirst {
  bool operator()(const ScoredPoint& a, const ScoredPoint& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
};

/// Best-first ordering for final output.
struct BestFirst {
  bool operator()(const ScoredPoint& a, const ScoredPoint& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
};

}  // namespace

TopK::TopK(std::size_t k) : k_(k) { heap_.reserve(k + 1); }

Scalar TopK::Threshold() const {
  return heap_.empty() ? -std::numeric_limits<Scalar>::infinity() : heap_.front().score;
}

bool TopK::Push(ScoredPoint candidate) {
  if (k_ == 0) return false;
  if (heap_.size() < k_) {
    heap_.push_back(candidate);
    std::push_heap(heap_.begin(), heap_.end(), WorstFirst{});
    return true;
  }
  // Only candidates strictly better than the retained worst displace it.
  const ScoredPoint& worst = heap_.front();
  const bool better = candidate.score > worst.score ||
                      (candidate.score == worst.score && candidate.id < worst.id);
  if (!better) return false;
  std::pop_heap(heap_.begin(), heap_.end(), WorstFirst{});
  heap_.back() = candidate;
  std::push_heap(heap_.begin(), heap_.end(), WorstFirst{});
  return true;
}

std::vector<ScoredPoint> TopK::Take() {
  std::vector<ScoredPoint> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), BestFirst{});
  return out;
}

std::vector<ScoredPoint> MergeTopK(
    const std::vector<std::vector<ScoredPoint>>& partials, std::size_t k) {
  // K-way merge via a heap of (list, position) cursors. Lists are best-first,
  // so the heap surfaces the globally best next candidate.
  struct Cursor {
    std::size_t list;
    std::size_t pos;
    ScoredPoint hit;
  };
  struct CursorWorse {
    bool operator()(const Cursor& a, const Cursor& b) const {
      if (a.hit.score != b.hit.score) return a.hit.score < b.hit.score;
      return a.hit.id > b.hit.id;
    }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, CursorWorse> heap;
  for (std::size_t i = 0; i < partials.size(); ++i) {
    if (!partials[i].empty()) heap.push(Cursor{i, 0, partials[i][0]});
  }
  std::vector<ScoredPoint> out;
  out.reserve(k);
  // A small k dedups by scanning the output, which allocates nothing; a
  // hash set allocates a node per hit on every merge of every query. The scan
  // is quadratic in k, so a large k takes the hash set. The cutoff is where
  // the two cross in bench/micro_engine BM_MergeTopK (32 replicated lists):
  // the scan is ~1.3x faster at k 10, even at k 128 and ~3x slower at k 1024.
  constexpr std::size_t kScanDedupMaxK = 128;
  std::unordered_set<PointId> seen;
  const auto first_sighting = [&](PointId id) {
    if (k > kScanDedupMaxK) return seen.insert(id).second;
    return std::none_of(out.begin(), out.end(),
                        [id](const ScoredPoint& hit) { return hit.id == id; });
  };
  while (!heap.empty() && out.size() < k) {
    Cursor top = heap.top();
    heap.pop();
    if (first_sighting(top.hit.id)) out.push_back(top.hit);
    const std::size_t next = top.pos + 1;
    if (next < partials[top.list].size()) {
      heap.push(Cursor{top.list, next, partials[top.list][next]});
    }
  }
  return out;
}

double RecallAtK(const std::vector<ScoredPoint>& got,
                 const std::vector<ScoredPoint>& expected, std::size_t k) {
  if (expected.empty() || k == 0) return 1.0;
  const std::size_t limit = std::min(k, expected.size());
  std::unordered_set<PointId> truth;
  for (std::size_t i = 0; i < limit; ++i) truth.insert(expected[i].id);
  std::size_t found = 0;
  for (std::size_t i = 0; i < got.size() && i < k; ++i) {
    found += truth.count(got[i].id);
  }
  return static_cast<double>(found) / static_cast<double>(limit);
}

}  // namespace vdb
