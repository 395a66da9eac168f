#include "storage/segment.hpp"

#include <cstring>
#include <limits>
#include <string>

#include "common/faults.hpp"
#include "obs/obs.hpp"
#include "storage/sealed_file.hpp"

namespace vdb {
namespace {

/// The fixed fields in front of a row segment's rows.
struct SegmentHeader {
  std::uint32_t magic = kSegmentMagic;
  std::uint32_t version = kSegmentVersion;
  std::uint32_t dim = 0;
  std::uint32_t metric = 0;
  std::uint64_t count = 0;
};

void Fields(auto& ar, Is<SegmentHeader> auto& h) {
  ar(h.magic, h.version, h.dim, h.metric, h.count);
}

/// A row segment's fields: the header, then the rows it counts, read straight
/// into `s`. Returns the header as written or read; a reader checks it.
SegmentHeader SegmentFields(auto& ar, Is<SegmentData> auto& s) {
  SegmentHeader h{.dim = s.dim,
                  .metric = static_cast<std::uint32_t>(s.metric),
                  .count = s.ids.size()};
  ar(h);
  ar(Block(s.ids, h.count), Block(s.vectors, SaturatingMul(h.count, h.dim)));
  return h;
}

/// A code segment: the same 24-byte header shape with block_rows in the
/// metric slot, so the f32 regions that follow stay aligned in a mapping.
struct CodeSegmentImage {
  std::uint32_t magic = kCodeSegmentMagic;
  std::uint32_t version = kCodeSegmentVersion;
  std::uint32_t dim = 0;
  std::uint32_t block_rows = 0;
  std::uint64_t count = 0;
  std::span<const float> dim_min;
  std::span<const float> dim_scale;
  std::span<const float> norms;
  std::span<const std::uint8_t> codes;
};

/// Code bytes: whole blocks of block_rows rows, dim bytes each.
std::uint64_t CodeBytes(const CodeSegmentImage& s) {
  if (s.block_rows == 0) return std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t blocks =
      s.count / s.block_rows + (s.count % s.block_rows != 0 ? 1 : 0);
  return SaturatingMul(SaturatingMul(blocks, s.block_rows), s.dim);
}

void Fields(auto& ar, Is<CodeSegmentImage> auto& s) {
  ar(s.magic, s.version, s.dim, s.block_rows, s.count);
  ar(Block(s.dim_min, s.dim), Block(s.dim_scale, s.dim),
     Block(s.norms, s.count), Block(s.codes, CodeBytes(s)));
}

Result<MappedFile> MapSegmentFile(const std::filesystem::path& path) {
  VDB_SPAN("storage.segment_read");
  // One consultation per segment read (site "segment/read"): kCorrupt flips a
  // deterministic byte so the trailing CRC rejects the file — corrupt vectors
  // must never reach a caller; kFail models an unreadable device.
  faults::FaultDecision fault;
  if (const auto plan = faults::StorageFaultPlan(); plan != nullptr) {
    fault = plan->Evaluate("segment/read");
    if (fault.fail) return Status::IoError("injected segment read failure");
  }
  VDB_ASSIGN_OR_RETURN(auto file, MappedFile::Open(path));
  if (const std::size_t size = file.bytes().size();
      fault.corrupt && size > sizeof(std::uint32_t)) {
    VDB_RETURN_IF_ERROR(
        file.FlipByte(fault.corrupt_salt % (size - sizeof(std::uint32_t))));
  }
  return file;
}

}  // namespace

std::vector<std::uint8_t> EncodeSegment(const SegmentData& data) {
  SizeArchive size;
  SegmentFields(size, data);
  const std::size_t body = size.put.bytes;
  std::vector<std::uint8_t> image(body + sizeof(std::uint32_t));
  WriteArchive out{image.data()};
  SegmentFields(out, data);
  const std::uint32_t crc = Crc32c(image.data(), body);
  std::memcpy(image.data() + body, &crc, sizeof(crc));
  return image;
}

Result<SegmentData> DecodeSegment(std::span<const std::uint8_t> image) {
  VDB_ASSIGN_OR_RETURN(const auto body, Unseal(image, "segment"));
  ReadArchive in(body);
  SegmentData data;
  const SegmentHeader header = SegmentFields(in, data);
  if (!in.ok() || !in.done()) {
    return Status::Corruption("segment fields do not fill the file");
  }
  if (header.magic != kSegmentMagic) return Status::Corruption("bad segment magic");
  if (header.version != kSegmentVersion) {
    return Status::Corruption("unsupported segment version " +
                              std::to_string(header.version));
  }
  data.dim = header.dim;
  data.metric = static_cast<Metric>(header.metric);
  return data;
}

Status WriteSegment(const std::filesystem::path& path, const SegmentData& data) {
  VDB_SPAN("storage.segment_write");
  if (data.vectors.size() != data.ids.size() * data.dim) {
    return Status::InvalidArgument("segment vectors/ids size mismatch");
  }
  return WriteFileAtomic(path, [&](std::ostream& out) {
    SealedWriter writer(out);
    SegmentFields(writer, data);
    return writer.Seal();
  });
}

Result<SegmentData> ReadSegment(const std::filesystem::path& path) {
  VDB_ASSIGN_OR_RETURN(const auto file, MapSegmentFile(path));
  return DecodeSegment(file.bytes());
}

Status VerifySegment(const std::filesystem::path& path) {
  return ReadSegment(path).status();
}

Status WriteCodeSegment(const std::filesystem::path& path,
                        const CodeSegmentData& data) {
  VDB_SPAN("storage.segment_write");
  if (data.block_rows == 0 || data.dim == 0) {
    return Status::InvalidArgument("code segment needs dim and block_rows");
  }
  CodeSegmentImage image;
  image.dim = data.dim;
  image.block_rows = data.block_rows;
  image.count = data.count;
  image.dim_min = data.dim_min;
  image.dim_scale = data.dim_scale;
  image.norms = data.norms;
  image.codes = data.blocks;
  if (data.dim_min.size() != data.dim || data.dim_scale.size() != data.dim ||
      data.norms.size() != data.count || data.blocks.size() != CodeBytes(image)) {
    return Status::InvalidArgument("code segment field sizes inconsistent");
  }
  return WriteFileAtomic(path, [&](std::ostream& out) {
    SealedWriter writer(out);
    writer(image);
    return writer.Seal();
  });
}

Result<std::shared_ptr<MappedCodeSegment>> MappedCodeSegment::Open(
    const std::filesystem::path& path) {
  VDB_SPAN("storage.segment_read");
  // Same fault site as row segments: a kFail plan entry models an unreadable
  // device for the compressed path too. (kCorrupt cannot flip bytes in a
  // read-only mapping; CRC coverage is exercised by the corruption tests
  // rewriting the file instead.)
  if (const auto plan = faults::StorageFaultPlan(); plan != nullptr) {
    if (plan->Evaluate("segment/read").fail) {
      return Status::IoError("injected segment read failure");
    }
  }

  VDB_ASSIGN_OR_RETURN(auto file, MappedFile::Open(path));
  std::shared_ptr<MappedCodeSegment> segment(new MappedCodeSegment());
  segment->file_ = std::move(file);
  VDB_ASSIGN_OR_RETURN(const auto body,
                       Unseal(segment->file_.bytes(), "code segment"));
  CodeSegmentImage image;
  if (!Decode(body, image)) {
    return Status::Corruption("code segment fields do not fill the file");
  }
  if (image.magic != kCodeSegmentMagic) {
    return Status::Corruption("bad code segment magic");
  }
  if (image.version != kCodeSegmentVersion) {
    return Status::Corruption("unsupported code segment version " +
                              std::to_string(image.version));
  }
  if (image.dim == 0) return Status::Corruption("code segment zero dim");

  segment->dim_ = image.dim;
  segment->block_rows_ = image.block_rows;
  segment->count_ = image.count;
  segment->dim_min_ = image.dim_min.data();
  segment->dim_scale_ = image.dim_scale.data();
  segment->norms_ = image.norms.data();
  segment->blocks_ = image.codes.data();
  return segment;
}

}  // namespace vdb
