#include "storage/payload_store.hpp"

#include <cstring>

namespace vdb {
namespace {

enum class Tag : std::uint8_t { kString = 0, kInt = 1, kDouble = 2, kBool = 3 };

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool Remaining(std::size_t n) const { return pos + n <= size; }

  Result<std::uint32_t> U32() {
    if (!Remaining(4)) return Status::Corruption("payload truncated u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    return v;
  }

  Result<std::string> String() {
    VDB_ASSIGN_OR_RETURN(const std::uint32_t n, U32());
    if (!Remaining(n)) return Status::Corruption("payload truncated string");
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
};

}  // namespace

std::size_t PayloadWireSize(const Payload& payload) {
  std::size_t bytes = 4;  // field count
  for (const auto& [key, value] : payload) {
    bytes += 4 + key.size() + 1;  // key + tag
    switch (static_cast<Tag>(value.index())) {
      case Tag::kString:
        bytes += 4 + std::get<std::string>(value).size();
        break;
      case Tag::kInt:
      case Tag::kDouble:
        bytes += 8;
        break;
      case Tag::kBool:
        bytes += 1;
        break;
    }
  }
  return bytes;
}

std::size_t EncodePayloadTo(const Payload& payload, std::uint8_t* out) {
  std::uint8_t* p = out;
  const auto put_u32 = [&p](std::uint32_t v) {
    std::memcpy(p, &v, 4);
    p += 4;
  };
  const auto put_bytes = [&p](const void* data, std::size_t n) {
    std::memcpy(p, data, n);
    p += n;
  };
  put_u32(static_cast<std::uint32_t>(payload.size()));
  for (const auto& [key, value] : payload) {
    put_u32(static_cast<std::uint32_t>(key.size()));
    put_bytes(key.data(), key.size());
    *p++ = static_cast<std::uint8_t>(value.index());
    switch (static_cast<Tag>(value.index())) {
      case Tag::kString: {
        const auto& s = std::get<std::string>(value);
        put_u32(static_cast<std::uint32_t>(s.size()));
        put_bytes(s.data(), s.size());
        break;
      }
      case Tag::kInt: {
        const auto v = std::get<std::int64_t>(value);
        put_bytes(&v, sizeof(v));
        break;
      }
      case Tag::kDouble: {
        const auto v = std::get<double>(value);
        put_bytes(&v, sizeof(v));
        break;
      }
      case Tag::kBool:
        *p++ = std::get<bool>(value) ? 1 : 0;
        break;
    }
  }
  return static_cast<std::size_t>(p - out);
}

std::vector<std::uint8_t> EncodePayload(const Payload& payload) {
  std::vector<std::uint8_t> out(PayloadWireSize(payload));
  EncodePayloadTo(payload, out.data());
  return out;
}

Result<Payload> DecodePayload(const std::uint8_t* data, std::size_t size) {
  Reader reader{data, size};
  VDB_ASSIGN_OR_RETURN(const std::uint32_t fields, reader.U32());
  Payload payload;
  for (std::uint32_t i = 0; i < fields; ++i) {
    VDB_ASSIGN_OR_RETURN(std::string key, reader.String());
    if (!reader.Remaining(1)) return Status::Corruption("payload truncated tag");
    const Tag tag = static_cast<Tag>(data[reader.pos++]);
    PayloadValue value;
    switch (tag) {
      case Tag::kString: {
        VDB_ASSIGN_OR_RETURN(std::string v, reader.String());
        value = std::move(v);
        break;
      }
      case Tag::kInt: {
        if (!reader.Remaining(8)) return Status::Corruption("payload truncated int");
        std::int64_t v;
        std::memcpy(&v, data + reader.pos, sizeof(v));
        reader.pos += sizeof(v);
        value = v;
        break;
      }
      case Tag::kDouble: {
        if (!reader.Remaining(8)) return Status::Corruption("payload truncated double");
        double v;
        std::memcpy(&v, data + reader.pos, sizeof(v));
        reader.pos += sizeof(v);
        value = v;
        break;
      }
      case Tag::kBool: {
        if (!reader.Remaining(1)) return Status::Corruption("payload truncated bool");
        value = data[reader.pos++] != 0;
        break;
      }
      default:
        return Status::Corruption("unknown payload tag");
    }
    // A repeated key or a byte left over would make the encoding ambiguous.
    if (!payload.emplace(std::move(key), std::move(value)).second) {
      return Status::Corruption("payload repeats a key");
    }
  }
  if (reader.pos != size) return Status::Corruption("payload has trailing bytes");
  return payload;
}

void PayloadStore::Set(PointId id, Payload payload) {
  payloads_[id] = std::move(payload);
}

void PayloadStore::Merge(PointId id, const Payload& fields) {
  auto& existing = payloads_[id];
  for (const auto& [key, value] : fields) existing[key] = value;
}

Result<Payload> PayloadStore::Get(PointId id) const {
  const auto it = payloads_.find(id);
  if (it == payloads_.end()) return Status::NotFound("no payload for point");
  return it->second;
}

bool PayloadStore::Contains(PointId id) const { return payloads_.count(id) != 0; }

void PayloadStore::Remove(PointId id) { payloads_.erase(id); }

bool PayloadStore::Matches(PointId id, const std::string& field,
                           const PayloadValue& value) const {
  const auto it = payloads_.find(id);
  if (it == payloads_.end()) return false;
  const auto field_it = it->second.find(field);
  return field_it != it->second.end() && field_it->second == value;
}

std::vector<PointId> PayloadStore::ScanEquals(const std::string& field,
                                              const PayloadValue& value) const {
  std::vector<PointId> out;
  for (const auto& [id, payload] : payloads_) {
    const auto it = payload.find(field);
    if (it != payload.end() && it->second == value) out.push_back(id);
  }
  return out;
}

std::uint64_t PayloadStore::MemoryBytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [id, payload] : payloads_) {
    bytes += sizeof(id) + 48;
    for (const auto& [key, value] : payload) {
      bytes += key.size() + 32;
      if (const auto* s = std::get_if<std::string>(&value)) bytes += s->size();
    }
  }
  return bytes;
}

}  // namespace vdb
