#include "storage/sealed_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <string>

namespace vdb {

Status SealedWriter::Seal() {
  const std::uint32_t crc = ar_.put.crc;
  ar_.put.out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return ar_.put.out.good() ? Status::Ok() : Status::IoError("sealed write failed");
}

Result<std::span<const std::uint8_t>> Unseal(std::span<const std::uint8_t> image,
                                             std::string_view what) {
  if (image.size() < sizeof(std::uint32_t)) {
    return Status::Corruption(std::string(what) + " truncated");
  }
  const auto body = image.first(image.size() - sizeof(std::uint32_t));
  std::uint32_t stored = 0;
  std::memcpy(&stored, image.data() + body.size(), sizeof(stored));
  if (Crc32c(body.data(), body.size()) != stored) {
    return Status::Corruption(std::string(what) + " crc mismatch");
  }
  return body;
}

Status WriteFileAtomic(const std::filesystem::path& path,
                       const std::function<Status(std::ostream&)>& write) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::IoError("cannot create " + tmp.string());
    VDB_RETURN_IF_ERROR(write(out));
    if (!out.good()) return Status::IoError("write failed: " + tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("rename failed: " + ec.message());
  return Status::Ok();
}

Result<MappedFile> MappedFile::Open(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("no file at " + path.string());
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat " + path.string());
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // An empty file has nothing to map; its bytes() is empty.
  void* map = size == 0 ? nullptr
                        : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) return Status::IoError("mmap failed for " + path.string());
  MappedFile file;
  file.map_ = {map, Unmap{size}};
  return file;
}

void MappedFile::Unmap::operator()(void* map) const { ::munmap(map, size); }

Status MappedFile::FlipByte(std::size_t at) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  auto* bytes = static_cast<std::uint8_t*>(map_.get());
  void* start = bytes + at / page * page;
  if (::mprotect(start, page, PROT_READ | PROT_WRITE) != 0) {
    return Status::IoError("cannot make a mapped page writable");
  }
  bytes[at] ^= 0xFF;
  ::mprotect(start, page, PROT_READ);
  return Status::Ok();
}

}  // namespace vdb
