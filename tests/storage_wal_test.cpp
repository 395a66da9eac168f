#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "storage/crc32.hpp"
#include "test_util.hpp"

namespace vdb {
namespace {

using vdb::testing::TempDir;

std::string FileHex(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)), {});
  std::string hex;
  for (const unsigned char b : bytes) {
    hex += "0123456789abcdef"[b >> 4];
    hex += "0123456789abcdef"[b & 15];
  }
  return hex;
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (Castagnoli test vector).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, ChainingMatchesSingleShot) {
  const std::string data = "hello world, this is a wal record";
  const std::uint32_t whole = Crc32c(data.data(), data.size());
  const std::uint32_t first = Crc32c(data.data(), 10);
  const std::uint32_t chained = Crc32c(data.data() + 10, data.size() - 10, first);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "some segment bytes";
  const std::uint32_t before = Crc32c(data.data(), data.size());
  data[4] ^= 0x01;
  EXPECT_NE(before, Crc32c(data.data(), data.size()));
}

TEST(WalPayloadTest, UpsertRoundTrip) {
  const Vector v{1.5f, -2.5f, 3.25f};
  const auto payload = EncodeUpsertPayload(77, v);
  auto decoded = DecodeUpsertPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 77u);
  EXPECT_EQ(decoded->vector, v);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(WalPayloadTest, UpsertRoundTripWithPayload) {
  const Vector v{1.5f, -2.5f, 3.25f};
  const Payload meta{{"genre", PayloadValue{std::string("jazz")}},
                     {"year", PayloadValue{std::int64_t{1959}}}};
  const auto payload = EncodeUpsertPayload(77, v, meta);
  auto decoded = DecodeUpsertPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 77u);
  EXPECT_EQ(decoded->vector, v);
  EXPECT_EQ(decoded->payload, meta);
}

TEST(WalPayloadTest, DeleteRoundTrip) {
  const auto payload = EncodeDeletePayload(123456789ULL);
  auto decoded = DecodeDeletePayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, 123456789ULL);
}

TEST(WalPayloadTest, TruncatedPayloadRejected) {
  auto payload = EncodeUpsertPayload(1, Vector{1, 2, 3});
  payload.resize(payload.size() - 2);
  EXPECT_EQ(DecodeUpsertPayload(payload).status().code(), StatusCode::kCorruption);
}

TEST(WalTest, AppendAndReplay) {
  TempDir dir("wal");
  const auto path = dir.Path() / "wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendUpsert(1, Vector{1, 2}).ok());
    ASSERT_TRUE(writer->AppendUpsert(2, Vector{3, 4}).ok());
    ASSERT_TRUE(writer->AppendDelete(1).ok());
    ASSERT_TRUE(writer->AppendCheckpoint(5).ok());
    ASSERT_TRUE(writer->Sync().ok());
    EXPECT_GT(writer->BytesWritten(), 0u);
  }
  std::vector<WalRecordType> types;
  auto replayed = WalReader::Replay(path, [&](const WalRecord& record) {
    types.push_back(record.type);
    return Status::Ok();
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 4u);
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0], WalRecordType::kUpsert);
  EXPECT_EQ(types[2], WalRecordType::kDelete);
  EXPECT_EQ(types[3], WalRecordType::kCheckpoint);
}

TEST(WalTest, MissingFileIsEmptyLog) {
  TempDir dir("wal");
  auto replayed = WalReader::Replay(dir.Path() / "nope.log",
                                    [](const WalRecord&) { return Status::Ok(); });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 0u);
}

TEST(WalTest, TornTailIsSilentlyDropped) {
  TempDir dir("wal");
  const auto path = dir.Path() / "wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendUpsert(1, Vector{1, 2}).ok());
    ASSERT_TRUE(writer->AppendUpsert(2, Vector{3, 4}).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  // Truncate mid-way through the second record: a crash during append.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 5);

  std::size_t seen = 0;
  auto replayed = WalReader::Replay(path, [&](const WalRecord&) {
    ++seen;
    return Status::Ok();
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 1u);
  EXPECT_EQ(seen, 1u);
}

TEST(WalTest, MidLogCorruptionReported) {
  // Flip one byte of the FIRST record: corruption followed by a valid record
  // -> must be reported, not silently treated as a torn tail. Byte 12 is in
  // the payload; byte 7 is the high byte of the length, which then claims
  // far more than the file holds.
  for (const std::streamoff at : {12, 7}) {
    TempDir dir("wal");
    const auto path = dir.Path() / "wal.log";
    {
      auto writer = WalWriter::Open(path);
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE(writer->AppendUpsert(1, Vector{1, 2}).ok());
      ASSERT_TRUE(writer->AppendUpsert(2, Vector{3, 4}).ok());
      ASSERT_TRUE(writer->Sync().ok());
    }
    {
      std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
      char byte;
      file.seekg(at);
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0xFF);
      file.seekp(at);
      file.write(&byte, 1);
    }
    auto replayed =
        WalReader::Replay(path, [](const WalRecord&) { return Status::Ok(); });
    EXPECT_FALSE(replayed.ok()) << "byte " << at;
    EXPECT_EQ(replayed.status().code(), StatusCode::kCorruption) << "byte " << at;
  }
}

TEST(WalTest, VisitorErrorAbortsReplay) {
  TempDir dir("wal");
  const auto path = dir.Path() / "wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendUpsert(1, Vector{1}).ok());
    ASSERT_TRUE(writer->AppendUpsert(2, Vector{2}).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto replayed = WalReader::Replay(
      path, [](const WalRecord&) { return Status::Internal("visitor bailed"); });
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInternal);
}

TEST(WalTest, AppendAfterReopenContinuesLog) {
  TempDir dir("wal");
  const auto path = dir.Path() / "wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendUpsert(1, Vector{1}).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendUpsert(2, Vector{2}).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  auto replayed =
      WalReader::Replay(path, [](const WalRecord&) { return Status::Ok(); });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 2u);
}

// Pins the on-disk record format: an upsert with a payload, then a delete.
TEST(WalTest, FrameBytesMatchGolden) {
  TempDir dir("wal");
  const auto path = dir.Path() / "wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->AppendUpsert(7, Vector{1.0f, -2.0f}, {{"k", std::int64_t{5}}}).ok());
    ASSERT_TRUE(writer->AppendDelete(7).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  EXPECT_EQ(FileHex(path),
            "8e68026327000000010700000000000000020000000000803f000000c0010000"
            "00010000006b010500000000000000c6b72dac09000000020700000000000000");
}

}  // namespace
}  // namespace vdb
