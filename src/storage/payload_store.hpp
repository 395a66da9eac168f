#pragma once

/// \file payload_store.hpp
/// Key/value payload (metadata) attached to points — the paper's workload
/// attaches paper text metadata to each embedding; predicated queries
/// (section 2.1 footnote) filter on these fields. Values are a small tagged
/// union (string / int / double / bool) with binary (de)serialization.

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace vdb {

using PayloadValue = std::variant<std::string, std::int64_t, double, bool>;

/// Field name -> value. Ordered map so serialization is canonical.
using Payload = std::map<std::string, PayloadValue>;

/// One point (id + embedding + metadata) as it travels through batch APIs,
/// RPC messages, and shard transfers.
struct PointRecord {
  PointId id = kInvalidPointId;
  Vector vector;
  Payload payload;
};

/// Equality predicate on one payload field (the paper's "predicated queries",
/// section 2.1 footnote 4). An empty field means "no filter".
struct Filter {
  std::string field;
  PayloadValue value;

  bool Active() const { return !field.empty(); }
};

/// Binary encoding of one payload (length-prefixed fields, tagged values).
/// The decoder is strict: Corruption unless the fields fill exactly `size`
/// bytes with no key repeated.
std::vector<std::uint8_t> EncodePayload(const Payload& payload);
Result<Payload> DecodePayload(const std::uint8_t* data, std::size_t size);

/// Exact size of EncodePayload(payload) without allocating — the codec
/// presizes message bodies from this.
std::size_t PayloadWireSize(const Payload& payload);
/// Encodes straight into `out` (caller guarantees PayloadWireSize bytes).
/// Returns the number of bytes written.
std::size_t EncodePayloadTo(const Payload& payload, std::uint8_t* out);

/// In-memory payload store keyed by PointId, with equality-filter scans.
class PayloadStore {
 public:
  void Set(PointId id, Payload payload);
  /// Merges fields into an existing payload (Qdrant set_payload semantics).
  void Merge(PointId id, const Payload& fields);
  Result<Payload> Get(PointId id) const;
  bool Contains(PointId id) const;
  void Remove(PointId id);
  std::size_t Size() const { return payloads_.size(); }

  /// True when the point's payload has `field` equal to `value`.
  bool Matches(PointId id, const std::string& field, const PayloadValue& value) const;

  /// Ids whose payload matches the filter (prefiltering support).
  std::vector<PointId> ScanEquals(const std::string& field,
                                  const PayloadValue& value) const;

  std::uint64_t MemoryBytes() const;

 private:
  std::unordered_map<PointId, Payload> payloads_;
};

}  // namespace vdb
