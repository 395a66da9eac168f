#include "storage/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>

#include "common/faults.hpp"
#include "obs/obs.hpp"
#include "storage/crc32.hpp"

namespace vdb {
namespace {

struct Header {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t dim;
  std::uint32_t metric;
  std::uint64_t count;
};
static_assert(sizeof(Header) == 24);

/// Code segments reuse the same 24-byte header shape with block_rows in the
/// metric slot; the 8-byte-aligned size keeps the f32 regions that follow
/// naturally aligned in the mapping.
struct CodeHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t dim;
  std::uint32_t block_rows;
  std::uint64_t count;
};
static_assert(sizeof(CodeHeader) == 24);

}  // namespace

Status WriteSegment(const std::filesystem::path& path, const SegmentData& data) {
  VDB_SPAN("storage.segment_write");
  if (data.vectors.size() != data.ids.size() * data.dim) {
    return Status::InvalidArgument("segment vectors/ids size mismatch");
  }
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::IoError("cannot create " + tmp.string());

    Header header{kSegmentMagic, kSegmentVersion, data.dim,
                  static_cast<std::uint32_t>(data.metric), data.ids.size()};
    std::uint32_t crc = Crc32c(&header, sizeof(header));
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));

    if (!data.ids.empty()) {
      const std::size_t id_bytes = data.ids.size() * sizeof(PointId);
      crc = Crc32c(data.ids.data(), id_bytes, crc);
      out.write(reinterpret_cast<const char*>(data.ids.data()),
                static_cast<std::streamsize>(id_bytes));

      const std::size_t vec_bytes = data.vectors.size() * sizeof(Scalar);
      crc = Crc32c(data.vectors.data(), vec_bytes, crc);
      out.write(reinterpret_cast<const char*>(data.vectors.data()),
                static_cast<std::streamsize>(vec_bytes));
    }
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    if (!out.good()) return Status::IoError("segment write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("segment rename failed: " + ec.message());
  return Status::Ok();
}

namespace {

Result<SegmentData> ReadSegmentImpl(const std::filesystem::path& path,
                                    bool materialize) {
  VDB_SPAN("storage.segment_read");
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::NotFound("no segment at " + path.string());

  // One consultation per segment read (site "segment/read"): kCorrupt flips a
  // deterministic payload byte so the trailing CRC rejects the file — corrupt
  // vectors must never reach a caller; kFail models an unreadable device.
  faults::FaultDecision fault;
  if (const auto plan = faults::StorageFaultPlan(); plan != nullptr) {
    fault = plan->Evaluate("segment/read");
    if (fault.fail) return Status::IoError("injected segment read failure");
  }

  Header header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (in.gcount() != sizeof(header)) return Status::Corruption("segment truncated header");
  if (header.magic != kSegmentMagic) return Status::Corruption("bad segment magic");
  if (header.version != kSegmentVersion) {
    return Status::Corruption("unsupported segment version " + std::to_string(header.version));
  }
  std::uint32_t crc = Crc32c(&header, sizeof(header));
  // The count and dim come from the file: bound them by the bytes it holds
  // before sizing anything from them.
  std::error_code ec;
  const std::uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("segment size unreadable: " + ec.message());
  const std::uint64_t point_bytes =
      sizeof(PointId) + std::uint64_t{header.dim} * sizeof(Scalar);
  const std::uint64_t body_bytes = file_bytes - sizeof(header) - sizeof(crc);
  if (file_bytes < sizeof(header) + sizeof(crc) ||
      header.count > body_bytes / point_bytes) {
    return Status::Corruption("segment count " + std::to_string(header.count) +
                              " exceeds the file");
  }

  SegmentData data;
  data.dim = header.dim;
  data.metric = static_cast<Metric>(header.metric);
  data.ids.resize(header.count);
  data.vectors.resize(header.count * header.dim);

  if (header.count > 0) {
    const std::size_t id_bytes = data.ids.size() * sizeof(PointId);
    in.read(reinterpret_cast<char*>(data.ids.data()),
            static_cast<std::streamsize>(id_bytes));
    if (in.gcount() != static_cast<std::streamsize>(id_bytes)) {
      return Status::Corruption("segment truncated ids");
    }
    crc = Crc32c(data.ids.data(), id_bytes, crc);

    const std::size_t vec_bytes = data.vectors.size() * sizeof(Scalar);
    in.read(reinterpret_cast<char*>(data.vectors.data()),
            static_cast<std::streamsize>(vec_bytes));
    if (in.gcount() != static_cast<std::streamsize>(vec_bytes)) {
      return Status::Corruption("segment truncated vectors");
    }
    if (fault.corrupt) {
      reinterpret_cast<std::uint8_t*>(data.vectors.data())[fault.corrupt_salt %
                                                           vec_bytes] ^= 0xFF;
    }
    crc = Crc32c(data.vectors.data(), vec_bytes, crc);
  }

  std::uint32_t stored_crc = 0;
  in.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  if (in.gcount() != sizeof(stored_crc)) return Status::Corruption("segment missing crc");
  if (stored_crc != crc) return Status::Corruption("segment crc mismatch");

  if (!materialize) {
    data.ids.clear();
    data.vectors.clear();
  }
  return data;
}

}  // namespace

Result<SegmentData> ReadSegment(const std::filesystem::path& path) {
  return ReadSegmentImpl(path, /*materialize=*/true);
}

Status VerifySegment(const std::filesystem::path& path) {
  auto result = ReadSegmentImpl(path, /*materialize=*/false);
  return result.ok() ? Status::Ok() : result.status();
}

Status WriteCodeSegment(const std::filesystem::path& path,
                        const CodeSegmentData& data) {
  VDB_SPAN("storage.segment_write");
  if (data.block_rows == 0 || data.dim == 0) {
    return Status::InvalidArgument("code segment needs dim and block_rows");
  }
  const std::size_t blocks =
      (data.count + data.block_rows - 1) / data.block_rows;
  if (data.dim_min.size() != data.dim || data.dim_scale.size() != data.dim ||
      data.norms.size() != data.count ||
      data.blocks.size() != blocks * data.block_rows * data.dim) {
    return Status::InvalidArgument("code segment field sizes inconsistent");
  }
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::IoError("cannot create " + tmp.string());

    CodeHeader header{kCodeSegmentMagic, kCodeSegmentVersion, data.dim,
                      data.block_rows, data.count};
    std::uint32_t crc = Crc32c(&header, sizeof(header));
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    const auto append = [&](const void* bytes, std::size_t size) {
      if (size == 0) return;
      crc = Crc32c(bytes, size, crc);
      out.write(reinterpret_cast<const char*>(bytes),
                static_cast<std::streamsize>(size));
    };
    append(data.dim_min.data(), data.dim_min.size() * sizeof(float));
    append(data.dim_scale.data(), data.dim_scale.size() * sizeof(float));
    append(data.norms.data(), data.norms.size() * sizeof(float));
    append(data.blocks.data(), data.blocks.size());
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    if (!out.good()) return Status::IoError("code segment write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("code segment rename failed: " + ec.message());
  return Status::Ok();
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

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("no code segment at " + path.string());
  struct stat st {};
  if (::fstat(fd, &st) != 0 ||
      st.st_size < static_cast<off_t>(sizeof(CodeHeader) + sizeof(std::uint32_t))) {
    ::close(fd);
    return Status::Corruption("code segment truncated header");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) return Status::IoError("mmap failed for " + path.string());

  std::shared_ptr<MappedCodeSegment> segment(new MappedCodeSegment());
  segment->map_ = map;
  segment->map_size_ = size;

  const auto* bytes = static_cast<const std::uint8_t*>(map);
  CodeHeader header;
  std::memcpy(&header, bytes, sizeof(header));
  if (header.magic != kCodeSegmentMagic) {
    return Status::Corruption("bad code segment magic");
  }
  if (header.version != kCodeSegmentVersion) {
    return Status::Corruption("unsupported code segment version " +
                              std::to_string(header.version));
  }
  if (header.dim == 0 || header.block_rows == 0) {
    return Status::Corruption("code segment zero dim/block_rows");
  }
  const std::size_t blocks =
      (header.count + header.block_rows - 1) / header.block_rows;
  const std::size_t want = sizeof(CodeHeader) +
                           2 * header.dim * sizeof(float) +
                           header.count * sizeof(float) +
                           blocks * header.block_rows * header.dim +
                           sizeof(std::uint32_t);
  if (size != want) return Status::Corruption("code segment size mismatch");

  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes + size - sizeof(stored_crc), sizeof(stored_crc));
  if (Crc32c(bytes, size - sizeof(stored_crc)) != stored_crc) {
    return Status::Corruption("code segment crc mismatch");
  }

  segment->dim_ = header.dim;
  segment->block_rows_ = header.block_rows;
  segment->count_ = header.count;
  std::size_t off = sizeof(CodeHeader);
  segment->dim_min_ = reinterpret_cast<const float*>(bytes + off);
  off += header.dim * sizeof(float);
  segment->dim_scale_ = reinterpret_cast<const float*>(bytes + off);
  off += header.dim * sizeof(float);
  segment->norms_ = reinterpret_cast<const float*>(bytes + off);
  off += header.count * sizeof(float);
  segment->blocks_ = bytes + off;
  return segment;
}

MappedCodeSegment::~MappedCodeSegment() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

}  // namespace vdb
