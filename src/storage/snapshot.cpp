#include "storage/snapshot.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "storage/crc32.hpp"
#include "storage/sealed_file.hpp"

namespace vdb {

Status WriteManifest(const std::filesystem::path& path,
                     const SnapshotManifest& manifest) {
  std::ostringstream body;
  body << "sequence=" << manifest.sequence << "\n";
  body << "dim=" << manifest.dim << "\n";
  body << "metric=" << manifest.metric << "\n";
  body << "wal_records_applied=" << manifest.wal_records_applied << "\n";
  if (!manifest.wal_file.empty()) {
    body << "wal_file=" << manifest.wal_file << "\n";
  }
  if (manifest.wal_start_record != 0) {
    body << "wal_start_record=" << manifest.wal_start_record << "\n";
  }
  if (manifest.wal_applied_offset != 0) {
    body << "wal_applied_offset=" << manifest.wal_applied_offset << "\n";
  }
  if (!manifest.hnsw_graph_file.empty()) {
    body << "hnsw_graph=" << manifest.hnsw_graph_file << "\n";
  }
  if (!manifest.sq8_codes_file.empty()) {
    body << "sq8_codes=" << manifest.sq8_codes_file << "\n";
  }
  for (const auto& file : manifest.segment_files) {
    body << "segment=" << file << "\n";
  }
  const std::string text = body.str();
  const std::uint32_t crc = Crc32c(text.data(), text.size());

  return WriteFileAtomic(path, [&](std::ostream& out) {
    out << text << "crc=" << crc << "\n";
    return Status::Ok();
  });
}

namespace {

/// A decimal value that must fill `text` and fit in T.
template <class T>
Result<T> ParseNumber(const std::string& key, const std::string& text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return Status::Corruption("manifest " + key + " is not a number: '" + text + "'");
  }
  return value;
}

}  // namespace

Result<SnapshotManifest> ReadManifest(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("no manifest at " + path.string());

  SnapshotManifest manifest;
  std::string body;
  std::string line;
  bool saw_crc = false;
  std::uint32_t stored_crc = 0;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return Status::Corruption("manifest line without '='");
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "crc") {
      VDB_ASSIGN_OR_RETURN(stored_crc, ParseNumber<std::uint32_t>(key, value));
      saw_crc = true;
      break;
    }
    body += line + "\n";
    if (key == "sequence") {
      VDB_ASSIGN_OR_RETURN(manifest.sequence, ParseNumber<std::uint64_t>(key, value));
    } else if (key == "dim") {
      VDB_ASSIGN_OR_RETURN(manifest.dim, ParseNumber<std::uint32_t>(key, value));
    } else if (key == "metric") {
      manifest.metric = value;
    } else if (key == "wal_records_applied") {
      VDB_ASSIGN_OR_RETURN(manifest.wal_records_applied,
                           ParseNumber<std::uint64_t>(key, value));
    } else if (key == "wal_file") {
      manifest.wal_file = value;
    } else if (key == "wal_start_record") {
      VDB_ASSIGN_OR_RETURN(manifest.wal_start_record,
                           ParseNumber<std::uint64_t>(key, value));
    } else if (key == "wal_applied_offset") {
      VDB_ASSIGN_OR_RETURN(manifest.wal_applied_offset,
                           ParseNumber<std::uint64_t>(key, value));
    } else if (key == "hnsw_graph") {
      manifest.hnsw_graph_file = value;
    } else if (key == "sq8_codes") {
      manifest.sq8_codes_file = value;
    } else if (key == "segment") {
      manifest.segment_files.push_back(value);
    } else {
      return Status::Corruption("unknown manifest key '" + key + "'");
    }
  }
  if (!saw_crc) return Status::Corruption("manifest missing crc");
  if (Crc32c(body.data(), body.size()) != stored_crc) {
    return Status::Corruption("manifest crc mismatch");
  }
  return manifest;
}

}  // namespace vdb
