#include "storage/payload_store.hpp"

#include <gtest/gtest.h>

namespace vdb {
namespace {

Payload BioPayload() {
  return Payload{{"title", std::string("synthetic-paper-1")},
                 {"topic", std::int64_t{42}},
                 {"score", 0.93},
                 {"open_access", true}};
}

TEST(PayloadCodecTest, RoundTripAllTypes) {
  const Payload original = BioPayload();
  const auto bytes = EncodePayload(original);
  auto decoded = DecodePayload(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(PayloadCodecTest, EmptyPayloadRoundTrip) {
  const auto bytes = EncodePayload({});
  auto decoded = DecodePayload(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(PayloadCodecTest, TruncationDetected) {
  const auto bytes = EncodePayload(BioPayload());
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    auto decoded = DecodePayload(bytes.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(PayloadCodecTest, TrailingByteIsCorruption) {
  auto bytes = EncodePayload(BioPayload());
  bytes.push_back(0);
  auto decoded = DecodePayload(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(PayloadCodecTest, RepeatedKeyIsCorruption) {
  // Two fields, both "a": the second would silently replace the first.
  const auto one = EncodePayload(Payload{{"a", std::int64_t{1}}});
  std::vector<std::uint8_t> bytes = {2, 0, 0, 0};
  bytes.insert(bytes.end(), one.begin() + 4, one.end());
  bytes.insert(bytes.end(), one.begin() + 4, one.end());
  auto decoded = DecodePayload(bytes.data(), bytes.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(PayloadCodecTest, CanonicalEncodingIsDeterministic) {
  // Ordered map => same bytes regardless of insertion order.
  Payload a;
  a["z"] = std::int64_t{1};
  a["a"] = std::int64_t{2};
  Payload b;
  b["a"] = std::int64_t{2};
  b["z"] = std::int64_t{1};
  EXPECT_EQ(EncodePayload(a), EncodePayload(b));
}

TEST(PayloadStoreTest, SetGetRemove) {
  PayloadStore store;
  store.Set(1, BioPayload());
  EXPECT_TRUE(store.Contains(1));
  auto payload = store.Get(1);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(std::get<std::int64_t>((*payload)["topic"]), 42);
  store.Remove(1);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_EQ(store.Get(1).status().code(), StatusCode::kNotFound);
}

TEST(PayloadStoreTest, MergeAddsAndOverwritesFields) {
  PayloadStore store;
  store.Set(1, Payload{{"a", std::int64_t{1}}, {"b", std::int64_t{2}}});
  store.Merge(1, Payload{{"b", std::int64_t{20}}, {"c", std::int64_t{3}}});
  auto payload = store.Get(1);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(std::get<std::int64_t>((*payload)["a"]), 1);
  EXPECT_EQ(std::get<std::int64_t>((*payload)["b"]), 20);
  EXPECT_EQ(std::get<std::int64_t>((*payload)["c"]), 3);
}

TEST(PayloadStoreTest, MergeOnMissingCreates) {
  PayloadStore store;
  store.Merge(5, Payload{{"x", true}});
  EXPECT_TRUE(store.Contains(5));
}

TEST(PayloadStoreTest, MatchesChecksFieldEquality) {
  PayloadStore store;
  store.Set(1, Payload{{"topic", std::int64_t{7}}});
  EXPECT_TRUE(store.Matches(1, "topic", std::int64_t{7}));
  EXPECT_FALSE(store.Matches(1, "topic", std::int64_t{8}));
  EXPECT_FALSE(store.Matches(1, "year", std::int64_t{7}));
  EXPECT_FALSE(store.Matches(2, "topic", std::int64_t{7}));
  // Type-strict: int 7 != string "7".
  EXPECT_FALSE(store.Matches(1, "topic", std::string("7")));
}

TEST(PayloadStoreTest, ScanEqualsFindsAllMatching) {
  PayloadStore store;
  for (PointId id = 0; id < 100; ++id) {
    store.Set(id, Payload{{"topic", static_cast<std::int64_t>(id % 10)}});
  }
  auto hits = store.ScanEquals("topic", std::int64_t{3});
  EXPECT_EQ(hits.size(), 10u);
  for (const PointId id : hits) EXPECT_EQ(id % 10, 3u);
}

TEST(PayloadStoreTest, MemoryBytesGrows) {
  PayloadStore store;
  const auto empty = store.MemoryBytes();
  for (PointId id = 0; id < 50; ++id) store.Set(id, BioPayload());
  EXPECT_GT(store.MemoryBytes(), empty);
}

}  // namespace
}  // namespace vdb
