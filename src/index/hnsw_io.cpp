/// \file hnsw_io.cpp
/// HNSW graph serialization. Persisting the graph alongside the vector
/// segments turns restart-time index reconstruction (hours at paper scale,
/// fig. 3) into a linear read. Format (little-endian):
///   [magic u32][version u32][m u32][m0 u32]
///   [node_count u64][entry u32][max_level i32]
///   node_count x { offset u32, level i32, (level+1) x { n u32, n x u32 } }
///   [crc32c of everything above u32]

#include <iterator>
#include <limits>
#include <ostream>

#include "index/hnsw_index.hpp"
#include "storage/sealed_file.hpp"

namespace vdb {
namespace {

constexpr std::uint32_t kHnswMagic = 0x56444248u;  // "VDBH"
constexpr std::uint32_t kHnswVersion = 1;
constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;
constexpr std::int32_t kMaxLevel = 64;

struct GraphHeader {
  std::uint32_t magic = kHnswMagic;
  std::uint32_t version = kHnswVersion;
  std::uint32_t m = 0;
  std::uint32_t m0 = 0;
  std::uint64_t node_count = 0;
  std::uint32_t entry = kNoEntry;
  std::int32_t max_level = -1;
};

void Fields(auto& ar, Is<GraphHeader> auto& h) {
  ar(h.magic, h.version, h.m, h.m0, h.node_count, h.entry, h.max_level);
}

struct NodeImage {
  std::uint32_t offset = 0;
  std::int32_t level = 0;
  std::vector<std::vector<std::uint32_t>> links;  ///< level + 1 layers
};

/// Layers of a node at `level`; an implausible level asks for more layers
/// than any file holds, so the read fails before allocating them.
std::uint64_t LayerCount(std::int32_t level) {
  return level >= 0 && level <= kMaxLevel ? static_cast<std::uint64_t>(level) + 1
                                          : std::numeric_limits<std::uint64_t>::max();
}

void Fields(auto& ar, Is<NodeImage> auto& n) {
  ar(n.offset, n.level);
  ar(Block(n.links, LayerCount(n.level)));
}

}  // namespace

Status HnswIndex::SaveToStream(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(graph_mutex_);

  GraphHeader header;
  header.m = static_cast<std::uint32_t>(params_.m);
  header.m0 = static_cast<std::uint32_t>(params_.m0);
  header.node_count = node_count_;
  header.entry = has_entry_ ? entry_point_ : kNoEntry;
  header.max_level = max_level_;
  SealedWriter writer(out);
  writer(header);

  NodeImage record;
  for (std::uint32_t offset = 0; offset < store_.Size(); ++offset) {
    const Node* node = nodes_.At(offset);
    if (node == nullptr) continue;
    {
      std::lock_guard<std::mutex> node_lock(node->mutex);
      record.offset = offset;
      record.level = node->level;
      record.links.assign(node->links.begin(), node->links.end());
    }
    writer(record);
  }
  return writer.Seal();
}

Status HnswIndex::LoadFromStream(std::istream& in) {
  const std::vector<std::uint8_t> image((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  return LoadFromBytes(image);
}

Status HnswIndex::LoadFromBytes(std::span<const std::uint8_t> image) {
  VDB_ASSIGN_OR_RETURN(const auto body, Unseal(image, "hnsw graph"));
  ReadArchive in(body);
  GraphHeader header;
  in(header);
  if (!in.ok()) return Status::Corruption("hnsw graph truncated");
  if (header.magic != kHnswMagic) return Status::Corruption("bad hnsw graph magic");
  if (header.version != kHnswVersion) {
    return Status::Corruption("unsupported hnsw graph version");
  }
  if (header.m != params_.m || header.m0 != params_.m0) {
    return Status::FailedPrecondition("hnsw graph built with different (m, m0)");
  }

  // Stage into a plain vector first so a corrupt stream never leaves the
  // index half-replaced; the table swap below happens only after full decode.
  std::vector<std::unique_ptr<Node>> nodes(store_.Size());
  if (nodes.size() > nodes_.Capacity()) {
    return Status::FailedPrecondition(
        "store larger than the node table (HnswParams::max_nodes)");
  }
  std::size_t loaded = 0;
  for (std::uint64_t i = 0; i < header.node_count; ++i) {
    NodeImage record;
    in(record);
    if (!in.ok()) {
      return Status::Corruption("hnsw graph node " + std::to_string(i) + " malformed");
    }
    if (record.offset >= nodes.size()) {
      return Status::FailedPrecondition("graph references offset beyond the store");
    }
    for (const auto& links : record.links) {
      for (const std::uint32_t neighbor : links) {
        if (neighbor >= nodes.size()) {
          return Status::Corruption("neighbour offset out of range");
        }
      }
    }
    auto node = std::make_unique<Node>(record.offset, record.level);
    node->links = std::move(record.links);
    nodes[record.offset] = std::move(node);
    ++loaded;
  }
  if (!in.done()) return Status::Corruption("hnsw graph has trailing bytes");
  const std::uint32_t entry = header.entry;
  if (entry != kNoEntry && (entry >= nodes.size() || nodes[entry] == nullptr)) {
    return Status::Corruption("entry point missing from graph");
  }

  // Precondition for Clear(): the caller must not run searches concurrently
  // with a load — replacing the graph invalidates lock-free readers.
  std::lock_guard<std::mutex> lock(graph_mutex_);
  nodes_.Clear();
  node_count_ = 0;
  for (std::uint32_t offset = 0; offset < nodes.size(); ++offset) {
    if (nodes[offset] == nullptr) continue;
    nodes_.Put(offset, std::move(nodes[offset]));
    ++node_count_;
  }
  has_entry_ = entry != kNoEntry;
  entry_point_ = has_entry_ ? entry : 0;
  max_level_ = has_entry_ ? header.max_level : -1;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.indexed_count = loaded;
  }
  // The graph file carries no codes; re-derive them from the store so a
  // recovered sq8 index searches compressed immediately.
  if (params_.sq8 && has_entry_) EncodeAllSq8();
  return Status::Ok();
}

Status HnswIndex::SaveToFile(const std::filesystem::path& path) const {
  return WriteFileAtomic(path, [&](std::ostream& out) { return SaveToStream(out); });
}

Status HnswIndex::LoadFromFile(const std::filesystem::path& path) {
  VDB_ASSIGN_OR_RETURN(const auto file, MappedFile::Open(path));
  return LoadFromBytes(file.bytes());
}

}  // namespace vdb
