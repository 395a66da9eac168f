#include "index/sq_index.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "index/factory.hpp"
#include "obs/obs.hpp"
#include "storage/segment.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

SqParams DefaultParams() {
  SqParams params;
  params.rerank = 32;
  return params;
}

TEST(SqIndexTest, AddBeforeBuildFails) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 10);
  SqIndex index(store, DefaultParams());
  EXPECT_EQ(index.Add(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(index.Ready());
}

TEST(SqIndexTest, BuildOnEmptyStoreFails) {
  VectorStore store(16, Metric::kCosine);
  SqIndex index(store, DefaultParams());
  EXPECT_EQ(index.Build().code(), StatusCode::kFailedPrecondition);
}

TEST(SqIndexTest, EncodeDecodeBoundedError) {
  VectorStore store(32, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 1000);
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());

  // Quantization error per dimension is at most one step (range/255) for
  // in-range values; outliers beyond the 99% clipping quantile clamp, so the
  // relative reconstruction error stays within a few percent.
  for (std::uint32_t offset = 0; offset < 50; ++offset) {
    const VectorView v = store.At(offset);
    const auto codes = index.EncodeForTest(v);
    const Vector decoded = index.DecodeForTest(codes);
    const float err = L2SquaredDistance(v, decoded);
    const float norm = DotProduct(v, v);
    EXPECT_LT(err, norm * 0.025f) << "offset " << offset;
  }
}

TEST(SqIndexTest, EncodeRoundsToNearest) {
  // Round-trip error must be at most scale/2 per in-range dimension; a
  // truncating encoder is off by up to a full step and fails this bound.
  VectorStore store(8, Metric::kL2);
  Rng rng(11);
  for (PointId i = 0; i < 400; ++i) {
    Vector v(8);
    for (auto& x : v) x = static_cast<Scalar>(rng.NextDouble(-2.0, 2.0));
    ASSERT_TRUE(store.Add(i, v).ok());
  }
  SqParams params = DefaultParams();
  params.quantile = 1.0;  // exact min/max: every stored value is in range
  SqIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());

  // Recover min/scale from the decoder: decoded = min + scale * code.
  const Vector range_min = index.DecodeForTest(std::vector<std::uint8_t>(8, 0));
  const Vector range_one = index.DecodeForTest(std::vector<std::uint8_t>(8, 1));
  Vector scale(8);
  for (std::size_t d = 0; d < 8; ++d) scale[d] = range_one[d] - range_min[d];

  for (std::uint32_t offset = 0; offset < 400; ++offset) {
    const VectorView v = store.At(offset);
    const Vector decoded = index.DecodeForTest(index.EncodeForTest(v));
    for (std::size_t d = 0; d < 8; ++d) {
      EXPECT_LE(std::abs(decoded[d] - v[d]), scale[d] * 0.5f + 1e-5f)
          << "offset " << offset << " dim " << d;
    }
  }
}

TEST(SqIndexTest, IndexedCountTracksBuildAndAdd) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 120);
  (void)store.MarkDeleted(3);
  (void)store.MarkDeleted(77);
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());
  EXPECT_EQ(index.Stats().indexed_count, 118u);  // deleted rows not encoded

  Rng rng(5);
  Vector v(16);
  for (auto& x : v) x = static_cast<Scalar>(rng.NextGaussian());
  auto offset = store.Add(999, v);
  ASSERT_TRUE(offset.ok());
  ASSERT_TRUE(index.Add(*offset).ok());
  EXPECT_EQ(index.Stats().indexed_count, 119u);  // Add() must count too

  ASSERT_TRUE(index.Build().ok());  // idempotent over the already-covered range
  EXPECT_EQ(index.Stats().indexed_count, 119u);
}

TEST(SqIndexTest, NoRerankScoresMatchInnerProductConvention) {
  // Values live far from zero so an unfolded bias (sum_d q[d]*min[d]) would
  // shift every score by a large constant — the no-rerank output must still
  // approximate the exact inner product itself.
  VectorStore store(16, Metric::kInnerProduct);
  Rng rng(21);
  for (PointId i = 0; i < 300; ++i) {
    Vector v(16);
    for (auto& x : v) x = static_cast<Scalar>(rng.NextDouble(10.0, 11.0));
    ASSERT_TRUE(store.Add(i, v).ok());
  }
  SqParams params = DefaultParams();
  params.rerank = 0;
  params.quantile = 1.0;
  SqIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());

  Vector query(16);
  for (auto& x : query) x = static_cast<Scalar>(rng.NextDouble(-1.0, 1.0));
  SearchParams search;
  search.k = 10;
  auto hits = index.Search(query, search);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 10u);
  for (const auto& hit : *hits) {
    const auto it = static_cast<std::uint32_t>(hit.id);  // ids == offsets here
    const float exact = Score(Metric::kInnerProduct, query, store.At(it));
    EXPECT_NEAR(hit.score, exact, 0.5f) << "id " << hit.id;
  }
}

TEST(SqIndexTest, NoRerankScoresMatchL2Convention) {
  VectorStore store(16, Metric::kL2);
  Rng rng(22);
  for (PointId i = 0; i < 300; ++i) {
    Vector v(16);
    for (auto& x : v) x = static_cast<Scalar>(rng.NextDouble(5.0, 7.0));
    ASSERT_TRUE(store.Add(i, v).ok());
  }
  SqParams params = DefaultParams();
  params.rerank = 0;
  params.quantile = 1.0;
  SqIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());

  Vector query(16);
  for (auto& x : query) x = static_cast<Scalar>(rng.NextDouble(5.0, 7.0));
  SearchParams search;
  search.k = 10;
  auto hits = index.Search(query, search);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 10u);
  for (const auto& hit : *hits) {
    const auto it = static_cast<std::uint32_t>(hit.id);
    const float exact = Score(Metric::kL2, query, store.At(it));  // -|q-x|^2
    // Tolerance covers the quantization error of both <q,x> and |x|^2; a
    // wrong-convention score would be off by hundreds here.
    EXPECT_NEAR(hit.score, exact, 1.5f) << "id " << hit.id;
  }
}

TEST(SqIndexTest, RecallCloseToExactWithRerank) {
  VectorStore store(32, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, 1500);
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());
  SearchParams params;
  const double recall = vdb::testing::MeanRecall(index, store, raw, 25, 10, params);
  EXPECT_GE(recall, 0.95);
}

TEST(SqIndexTest, NoRerankStillDecent) {
  VectorStore store(32, Metric::kCosine);
  const auto raw = vdb::testing::FillRandomStore(store, 1000);
  SqParams params = DefaultParams();
  params.rerank = 0;
  SqIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());
  SearchParams search;
  const double recall = vdb::testing::MeanRecall(index, store, raw, 20, 10, search);
  EXPECT_GE(recall, 0.7);
}

TEST(SqIndexTest, MemoryRoughlyQuarterOfFloat) {
  VectorStore store(256, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 500);
  SqParams params = DefaultParams();
  SqIndex index(store, params);
  ASSERT_TRUE(index.Build().ok());
  // codes = n*dim bytes vs store n*dim*4 bytes (plus small side tables).
  EXPECT_LT(index.MemoryBytes(), store.MemoryBytes() / 3);
}

TEST(SqIndexTest, IncrementalAddAfterBuild) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 300);
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());

  Rng rng(3);
  Vector v(16);
  for (auto& x : v) x = static_cast<Scalar>(rng.NextGaussian());
  auto offset = store.Add(777, v);
  ASSERT_TRUE(offset.ok());
  ASSERT_TRUE(index.Add(*offset).ok());

  SearchParams params;
  params.k = 1;
  auto hits = index.Search(v, params);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ((*hits)[0].id, 777u);
}

TEST(SqIndexTest, DeletedPointsExcluded) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 200);
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());
  (void)store.MarkDeleted(5);
  SearchParams params;
  params.k = 200;
  auto hits = index.Search(store.At(5), params);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : *hits) EXPECT_NE(hit.id, 5u);
}

TEST(SqIndexTest, ConstantDimensionHandled) {
  // A dimension with zero spread must not divide by zero.
  VectorStore store(4, Metric::kL2);
  for (PointId i = 0; i < 20; ++i) {
    (void)store.Add(i, Vector{1.0f, static_cast<Scalar>(i), 0.5f, -2.0f});
  }
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());
  SearchParams params;
  params.k = 3;
  auto hits = index.Search(Vector{1.0f, 10.0f, 0.5f, -2.0f}, params);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 3u);
}

TEST(SqIndexTest, FactoryCreatesSq8) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 20);
  IndexSpec spec;
  spec.type = "sq8";
  auto index = CreateIndex(store, spec);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->Type(), "sq8");
}

TEST(SqIndexTest, SearchValidatesState) {
  VectorStore store(16, Metric::kCosine);
  vdb::testing::FillRandomStore(store, 10);
  SqIndex index(store, DefaultParams());
  SearchParams params;
  EXPECT_EQ(index.Search(store.At(0), params).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(index.Build().ok());
  EXPECT_FALSE(index.Search(Vector{1, 2}, params).ok());
}


// ---- One walk per batch ----------------------------------------------------

/// Queries near stored points, one per stride, with a little noise.
std::vector<Vector> NearQueries(const std::vector<Vector>& raw, std::size_t count) {
  Rng rng(91);
  std::vector<Vector> queries;
  for (std::size_t q = 0; q < count; ++q) {
    Vector v = raw[(q * 97) % raw.size()];
    for (auto& x : v) x += 0.1f * static_cast<Scalar>(rng.NextGaussian());
    queries.push_back(std::move(v));
  }
  return queries;
}

/// SearchBatch over the first nq queries must give every query exactly the
/// ids and scores a batch of one gives, for batch sizes around the kernels'
/// query tiles.
void ExpectBatchMatchesPerQuery(const SqIndex& index, const std::vector<Vector>& queries,
                                const SearchParams& params, const std::string& label) {
  for (const std::size_t nq : {1u, 2u, 7u, 8u, 9u, 16u, 17u}) {
    const std::vector<VectorView> batch(queries.begin(),
                                        queries.begin() + static_cast<std::ptrdiff_t>(nq));
    auto batched = index.SearchBatch(batch, params);
    ASSERT_TRUE(batched.ok()) << label;
    ASSERT_EQ(batched->size(), nq) << label;
    for (std::size_t q = 0; q < nq; ++q) {
      auto single = index.Search(batch[q], params);
      ASSERT_TRUE(single.ok()) << label;
      ASSERT_FALSE(single->empty()) << label;
      EXPECT_EQ((*batched)[q], *single) << label << " nq=" << nq << " query " << q;
    }
  }
}

TEST(SqIndexTest, SearchBatchMatchesPerQuerySearchExactly) {
  // 37 dims leaves a dimension tail past the 4-dim VNNI groups; 3213 rows
  // give 51 blocks (a partial trailing one) — enough for a 3-way block split.
  constexpr std::size_t kDim = 37;
  constexpr std::size_t kRows = 50 * 64 + 13;
  for (const Metric metric : {Metric::kInnerProduct, Metric::kL2}) {
    VectorStore store(kDim, metric);
    const auto raw = vdb::testing::FillRandomStore(store, kRows);
    const auto queries = NearQueries(raw, 17);
    for (const std::size_t rerank : {0u, 32u}) {
      SqParams sq;
      sq.rerank = rerank;
      SqIndex index(store, sq);
      ASSERT_TRUE(index.Build().ok());
      for (const std::size_t width : {1u, 3u}) {
        SearchParams params;
        params.k = 10;
        params.intra_fanout = width;
        ExpectBatchMatchesPerQuery(index, queries, params,
                                   std::string(metric == Metric::kL2 ? "l2" : "ip") +
                                       " rerank=" + std::to_string(rerank) +
                                       " width=" + std::to_string(width));
      }
    }
  }
}

TEST(SqIndexTest, SearchBatchMatchesPerQuerySearchWithTombstones) {
  VectorStore store(24, Metric::kInnerProduct);
  const auto raw = vdb::testing::FillRandomStore(store, 40 * 64 + 5);
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());
  // Tombstone the points the queries sit next to, so the scan must skip
  // them inside the coarse walk.
  for (std::size_t q = 0; q < 17; ++q) (void)store.MarkDeleted((q * 97) % raw.size());
  const auto queries = NearQueries(raw, 17);
  for (const std::size_t width : {1u, 3u}) {
    SearchParams params;
    params.k = 10;
    params.intra_fanout = width;
    ExpectBatchMatchesPerQuery(index, queries, params,
                               "tombstones width=" + std::to_string(width));
  }
}

TEST(SqIndexTest, SearchBatchMatchesPerQuerySearchOverAttachedSegmentAndHeapTail) {
  vdb::testing::TempDir dir("sq8batch");
  constexpr std::size_t kDim = 29;
  VectorStore store(kDim, Metric::kL2);
  auto raw = vdb::testing::FillRandomStore(store, 30 * 64 + 21);
  {
    SqIndex writer(store, DefaultParams());
    ASSERT_TRUE(writer.Build().ok());
    ASSERT_TRUE(writer.SaveCodeSegment(dir.Path() / "codes.sq8").ok());
  }
  // Points past the segment land in the heap tail after attach.
  Rng rng(5);
  for (PointId id = 100000; id < 100000 + 150; ++id) {
    Vector v(kDim);
    for (auto& x : v) x = static_cast<Scalar>(rng.NextGaussian());
    ASSERT_TRUE(store.Add(id, v).ok());
    raw.push_back(std::move(v));
  }
  auto segment = MappedCodeSegment::Open(dir.Path() / "codes.sq8");
  ASSERT_TRUE(segment.ok());
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.AttachCodeSegment(*segment).ok());
  ASSERT_TRUE(index.Build().ok());
  ASSERT_EQ(index.Stats().indexed_count, store.Size());
  const auto queries = NearQueries(raw, 17);
  for (const std::size_t width : {1u, 3u}) {
    SearchParams params;
    params.k = 10;
    params.intra_fanout = width;
    ExpectBatchMatchesPerQuery(index, queries, params,
                               "segment width=" + std::to_string(width));
  }
}

TEST(SqIndexTest, EmptyBatchYieldsNoResults) {
  VectorStore store(8, Metric::kL2);
  vdb::testing::FillRandomStore(store, 70);
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());
  auto results = index.SearchBatch({}, SearchParams{});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

#ifndef VDB_OBS_DISABLED
std::uint64_t CounterValue(const std::string& name) {
  for (const auto& [counter, value] :
       obs::MetricsRegistry::Instance().CounterValues()) {
    if (counter == name) return value;
  }
  return 0;
}

// The timing-free gate on the batch walk: a batch of 16 walks each code block
// ceil(16 / tile) times on the active table, where 16 per-query searches
// walk it 16 times.
TEST(SqIndexTest, BatchWalksEachBlockOncePerQueryTile) {
  VectorStore store(32, Metric::kInnerProduct);
  const auto raw = vdb::testing::FillRandomStore(store, 20 * 64 + 7);
  SqIndex index(store, DefaultParams());
  ASSERT_TRUE(index.Build().ok());
  const std::uint64_t blocks = 21;
  const auto queries = NearQueries(raw, 16);
  const std::vector<VectorView> batch(queries.begin(), queries.end());
  SearchParams params;
  params.k = 10;
  const bool integer = FastU8QBlockedActive();

  const std::uint64_t before = CounterValue("index.sq8.block_passes");
  ASSERT_TRUE(index.SearchBatch(batch, params).ok());
  const std::uint64_t batched = CounterValue("index.sq8.block_passes") - before;
  EXPECT_EQ(batched, blocks * U8BlockedPasses(integer, 16));
  EXPECT_LT(batched, blocks * 16);

  const std::uint64_t before_single = CounterValue("index.sq8.block_passes");
  for (const VectorView query : batch) ASSERT_TRUE(index.Search(query, params).ok());
  EXPECT_EQ(CounterValue("index.sq8.block_passes") - before_single, blocks * 16);
}
#endif

}  // namespace
}  // namespace vdb
