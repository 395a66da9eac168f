#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "rpc/codec.hpp"

namespace vdb {
namespace {

PointRecord MakePoint(PointId id, std::size_t dim, Rng& rng, bool with_payload) {
  PointRecord point;
  point.id = id;
  point.vector.resize(dim);
  for (auto& v : point.vector) v = static_cast<Scalar>(rng.NextDouble(-1.0, 1.0));
  if (with_payload) {
    point.payload["source"] = std::string("paper-") + std::to_string(id);
    point.payload["year"] = static_cast<std::int64_t>(2000 + id % 25);
    point.payload["score"] = 0.5 * static_cast<double>(id);
    point.payload["oa"] = (id % 2) == 0;
  }
  return point;
}

std::vector<PointRecord> MakeBatch(std::size_t count, std::size_t dim,
                                   std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<PointRecord> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(MakePoint(static_cast<PointId>(i + 1), dim, rng, i % 3 != 2));
  }
  return points;
}

// Copies a decoded batch back into records, for comparison with the input.
std::vector<PointRecord> Materialize(const PointBatchView& view) {
  std::vector<PointRecord> points;
  for (std::size_t i = 0; i < view.size(); ++i) {
    PointRecord point;
    point.id = view.id(i);
    point.vector.assign(view.vector(i).begin(), view.vector(i).end());
    auto payload = view.payload(i);
    EXPECT_TRUE(payload.ok()) << "point " << i;
    if (payload.ok()) point.payload = std::move(*payload);
    points.push_back(std::move(point));
  }
  return points;
}

void ExpectPointsEqual(const std::vector<PointRecord>& a,
                       const std::vector<PointRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].vector, b[i].vector) << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << i;
  }
}

// ---- Point batch views ----------------------------------------------------

TEST(PointBatchViewTest, RoundTripAcrossAwkwardDims) {
  // Dims straddling the 16-scalar alignment unit: 1 scalar, just under/over
  // one unit, a prime, and a multi-unit width.
  for (const std::size_t dim : {1u, 3u, 15u, 16u, 17u, 31u, 97u, 160u}) {
    const auto points = MakeBatch(13, dim, /*seed=*/dim);
    const Message msg = EncodeUpsertBatch(7, points);
    auto view = DecodeUpsertBatchView(msg);
    ASSERT_TRUE(view.ok()) << "dim " << dim << ": " << view.status().ToString();
    EXPECT_EQ(view->shard(), 7u);
    ASSERT_EQ(view->size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(view->id(i), points[i].id);
      const VectorView vec = view->vector(i);
      ASSERT_EQ(vec.size(), dim);
      EXPECT_EQ(std::memcmp(vec.data(), points[i].vector.data(),
                            dim * sizeof(Scalar)),
                0);
    }
    ExpectPointsEqual(Materialize(*view), points);
  }
}

TEST(PointBatchViewTest, VectorsAreCacheLineAligned) {
  const auto points = MakeBatch(9, 17);
  const Message msg = EncodeUpsertBatch(0, points);
  auto view = DecodeUpsertBatchView(msg);
  ASSERT_TRUE(view.ok());
  for (std::size_t i = 0; i < view->size(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view->vector(i).data()) %
                  rpc::kBufferAlignment,
              0u)
        << "vector " << i;
  }
}

TEST(PointBatchViewTest, EmptyBatchRoundTrips) {
  const Message msg = EncodeUpsertBatch(3, std::vector<PointRecord>{});
  auto view = DecodeUpsertBatchView(msg);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->shard(), 3u);
  EXPECT_TRUE(view->empty());
  EXPECT_TRUE(Materialize(*view).empty());
}

TEST(PointBatchViewTest, ViewOutlivesTheDecodedMessage) {
  const auto points = MakeBatch(5, 33);
  UpsertBatchView view;
  {
    Message msg = EncodeUpsertBatch(1, points);
    auto decoded = DecodeUpsertBatchView(msg);
    ASSERT_TRUE(decoded.ok());
    view = *decoded;
    msg.body = rpc::Buffer();  // drop the caller's reference
  }
  // The view holds its own reference to the body slab, so its spans are
  // still valid.
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.id(i), points[i].id);
    EXPECT_EQ(std::memcmp(view.vector(i).data(), points[i].vector.data(),
                          points[i].vector.size() * sizeof(Scalar)),
              0);
  }
}

TEST(PointBatchViewTest, IndexSubsetEncodingMatchesMaterializedSubset) {
  const auto points = MakeBatch(20, 31);
  const std::vector<std::uint32_t> indices = {1, 4, 5, 11, 19};
  const Message subset_msg = EncodeUpsertBatch(2, points, indices);

  std::vector<PointRecord> subset;
  for (const std::uint32_t i : indices) subset.push_back(points[i]);
  const Message eager_msg = EncodeUpsertBatch(2, subset);

  // Same wire bytes: an index-list encode is indistinguishable on the wire
  // from encoding a materialized copy of the subset.
  EXPECT_EQ(subset_msg.body, eager_msg.body);

  auto view = DecodeUpsertBatchView(subset_msg);
  ASSERT_TRUE(view.ok());
  ExpectPointsEqual(Materialize(*view), subset);
}

TEST(PointBatchViewTest, EveryTruncationIsRejected) {
  const auto points = MakeBatch(4, 17);
  const Message msg = EncodeUpsertBatch(0, points);
  for (std::size_t cut = 0; cut < msg.body.size(); ++cut) {
    Message truncated = msg;
    truncated.body.resize(cut);
    EXPECT_FALSE(DecodeUpsertBatchView(truncated).ok()) << "cut " << cut;
  }
}

TEST(PointBatchViewTest, UnalignedVectorRegionOffsetIsRejected) {
  const auto points = MakeBatch(2, 16);
  const Message msg = EncodeUpsertBatch(0, points);
  // Corrupt the header's vec_region_off (bytes 12..15) to a non-scalar-aligned
  // value; decode must reject rather than hand out misaligned views.
  Message tampered;
  tampered.type = msg.type;
  tampered.body = rpc::Buffer::CopyOf(msg.body.data(), msg.body.size());
  std::uint32_t vec_region_off = 0;
  std::memcpy(&vec_region_off, tampered.body.data() + 12, 4);
  const std::uint32_t unaligned = vec_region_off + 1;
  std::memcpy(tampered.body.MutableData() + 12, &unaligned, 4);
  EXPECT_FALSE(DecodeUpsertBatchView(tampered).ok());
}

TEST(PointBatchViewTest, PayloadEntryLongerThanItsBlobIsRejected) {
  Rng rng(7);
  const std::vector<PointRecord> points = {MakePoint(1, 4, rng, true)};
  const Message msg = EncodeUpsertBatch(0, points);
  // Stretch entry 0's pay_len (table at 16, field at +20) into the zero pad
  // before the vector region: the view still decodes, but the payload must not.
  Message tampered;
  tampered.type = msg.type;
  tampered.body = rpc::Buffer::CopyOf(msg.body.data(), msg.body.size());
  std::uint32_t pay_len = 0;
  std::memcpy(&pay_len, tampered.body.data() + 16 + 20, 4);
  ++pay_len;
  std::memcpy(tampered.body.MutableData() + 16 + 20, &pay_len, 4);
  auto view = DecodeUpsertBatchView(tampered);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto payload = view->payload(0);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kCorruption);
}

TEST(PointBatchViewTest, SnapshotPageAndMigrationChunkUseTheSameLayout) {
  const auto points = MakeBatch(6, 15);
  const Message page = EncodeSnapshotPage(9, points);
  const Message chunk = EncodeMigrationChunk(9, points);
  EXPECT_EQ(page.type, MessageType::kSnapshotStreamResponse);
  EXPECT_EQ(chunk.type, MessageType::kMigrationChunkRequest);
  EXPECT_EQ(page.body, chunk.body);
  auto page_view = DecodeSnapshotPageView(page);
  auto chunk_view = DecodeMigrationChunkView(chunk);
  ASSERT_TRUE(page_view.ok());
  ASSERT_TRUE(chunk_view.ok());
  EXPECT_EQ(page_view->shard(), 9u);
  ExpectPointsEqual(Materialize(*page_view), points);
  ExpectPointsEqual(Materialize(*chunk_view), points);
  // Each view decoder accepts only its own type.
  EXPECT_FALSE(DecodeSnapshotPageView(chunk).ok());
  EXPECT_FALSE(DecodeMigrationChunkView(page).ok());
}

TEST(PointBatchViewTest, ForwardedSnapshotPageIsTheMigrationChunk) {
  const auto points = MakeBatch(5, 17);
  const Message page = EncodeSnapshotPage(4, points);
  auto chunk = MigrationChunkFromSnapshotPage(page, 4);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  EXPECT_EQ(chunk->type, MessageType::kMigrationChunkRequest);
  EXPECT_EQ(chunk->body, EncodeMigrationChunk(4, points).body);
  EXPECT_TRUE(chunk->body.SharesSlabWith(page.body));  // no copy

  EXPECT_EQ(MigrationChunkFromSnapshotPage(EncodeUpsertBatch(4, points), 4)
                .status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MigrationChunkFromSnapshotPage(page, 5).status().code(),
            StatusCode::kInvalidArgument);
  Message short_page = page;
  short_page.body.resize(3);
  EXPECT_EQ(MigrationChunkFromSnapshotPage(short_page, 4).status().code(),
            StatusCode::kCorruption);
}

// ---- Search request views -------------------------------------------------

TEST(SearchRequestViewTest, RoundTripWithFilterAndDeadline) {
  Rng rng(7);
  Vector query(97);
  for (auto& v : query) v = static_cast<Scalar>(rng.NextDouble(-1.0, 1.0));
  SearchParams params;
  params.k = 25;
  params.ef_search = 111;
  params.n_probes = 5;
  Filter filter;
  filter.field = "source";
  filter.value = std::string("paper-3");

  const Message msg = EncodeSearch(query, params, /*fan_out=*/false,
                                   /*allow_partial=*/true, filter, 1.25);
  EXPECT_EQ(msg.type, MessageType::kSearchBatchRequest);
  auto view = DecodeSearchRequestView(msg);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 1u);
  EXPECT_FALSE(view->fan_out());
  EXPECT_TRUE(view->allow_partial());
  EXPECT_EQ(view->params().k, params.k);
  EXPECT_EQ(view->params().ef_search, params.ef_search);
  EXPECT_EQ(view->params().n_probes, params.n_probes);
  EXPECT_EQ(view->filter().field, "source");
  EXPECT_EQ(view->filter().value, PayloadValue(std::string("paper-3")));
  EXPECT_DOUBLE_EQ(view->deadline_seconds(), 1.25);
  const VectorView decoded_query = view->query(0);
  ASSERT_EQ(decoded_query.size(), query.size());
  EXPECT_EQ(std::memcmp(decoded_query.data(), query.data(),
                        query.size() * sizeof(Scalar)),
            0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(decoded_query.data()) %
                rpc::kBufferAlignment,
            0u);
}

TEST(SearchRequestViewTest, EveryTruncationIsRejected) {
  Vector query(19, 0.5F);
  const Message msg =
      EncodeSearch(query, SearchParams{}, true, false, Filter{}, 0.0);
  for (std::size_t cut = 0; cut < msg.body.size(); ++cut) {
    Message truncated = msg;
    truncated.body.resize(cut);
    EXPECT_FALSE(DecodeSearchRequestView(truncated).ok()) << "cut " << cut;
  }
}

TEST(SearchBatchRequestViewTest, RoundTripManyQueries) {
  Rng rng(11);
  std::vector<Vector> queries;
  for (std::size_t q = 0; q < 17; ++q) {
    Vector query(33);
    for (auto& v : query) v = static_cast<Scalar>(rng.NextDouble(-1.0, 1.0));
    queries.push_back(std::move(query));
  }
  SearchParams params;
  params.k = 4;
  const Message msg = EncodeSearchBatch(queries, params, /*fan_out=*/true,
                                        /*allow_partial=*/false, 0.75);
  auto view = DecodeSearchBatchRequestView(msg);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), queries.size());
  EXPECT_TRUE(view->fan_out());
  EXPECT_FALSE(view->allow_partial());
  EXPECT_DOUBLE_EQ(view->deadline_seconds(), 0.75);
  EXPECT_EQ(view->params().k, 4u);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const VectorView decoded = view->query(q);
    ASSERT_EQ(decoded.size(), queries[q].size());
    EXPECT_EQ(std::memcmp(decoded.data(), queries[q].data(),
                          queries[q].size() * sizeof(Scalar)),
              0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(decoded.data()) %
                  alignof(Scalar),
              0u);
  }
}

TEST(SearchBatchRequestViewTest, EmptyBatchRoundTrips) {
  const Message msg = EncodeSearchBatch(std::vector<Vector>{}, SearchParams{},
                                        false, false, 0.0);
  auto view = DecodeSearchBatchRequestView(msg);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->empty());
}

Message FilteredBatch() {
  static const Vector query(9, 1.0F);
  const VectorView queries[] = {query, query, query};
  Filter filter;
  filter.field = "topic";
  filter.value = std::int64_t{3};
  return EncodeSearchBatch(queries, SearchParams{}, true, false, filter, 0.0);
}

TEST(SearchBatchRequestViewTest, EveryTruncationIsRejected) {
  std::vector<Vector> queries(3, Vector(9, 1.0F));
  for (const Message& msg :
       {EncodeSearchBatch(queries, SearchParams{}, true, false, 0.0), FilteredBatch()}) {
    for (std::size_t cut = 0; cut < msg.body.size(); ++cut) {
      Message truncated = msg;
      truncated.body.resize(cut);
      EXPECT_EQ(DecodeSearchBatchRequestView(truncated).status().code(),
                StatusCode::kCorruption)
          << "cut " << cut;
    }
    Message padded = msg;
    padded.body.resize(msg.body.size() + 1);
    EXPECT_EQ(DecodeSearchBatchRequestView(padded).status().code(),
              StatusCode::kCorruption);
  }
}

TEST(SearchBatchRequestViewTest, LyingFilterLengthIsCorruption) {
  const Message msg = FilteredBatch();
  ASSERT_TRUE(DecodeSearchBatchRequestView(msg).ok());
  std::uint32_t filter_len = 0;
  std::memcpy(&filter_len, msg.body.data() + 20, sizeof(filter_len));
  ASSERT_GT(filter_len, 0u);
  // Longer than the body, one byte short or long of the blob, and no filter
  // at all (which would silently widen the search) all fail the same way.
  for (const std::uint32_t lie :
       {0xFFFFFFFFu, filter_len - 1, filter_len + 1, std::uint32_t{0}}) {
    Message lying{MessageType::kSearchBatchRequest,
                  rpc::Buffer::Allocate(msg.body.size())};
    std::memcpy(lying.body.MutableData(), msg.body.data(), msg.body.size());
    std::memcpy(lying.body.MutableData() + 20, &lie, sizeof(lie));
    EXPECT_EQ(DecodeSearchBatchRequestView(lying).status().code(),
              StatusCode::kCorruption)
        << "filter_len " << lie;
  }
}

}  // namespace
}  // namespace vdb
