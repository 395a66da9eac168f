#pragma once

/// \file transport.hpp
/// RPC transport abstraction plus the in-process reference implementation.
///
/// `Transport` is the seam between the cluster layer (workers, router,
/// clients) and the message plane: named endpoints with handlers on the
/// server side, `CallAsync`/`Call` on the client side, a fault-injection
/// hook, and byte/call accounting. Three planes implement it —
///   * `InprocTransport` (this file): thread-per-endpoint queues inside one
///     process; stands in for Qdrant's gRPC plane while keeping the
///     concurrency structure (per-worker service threads, queueing under
///     saturation) that drives the paper's section 3.4 observations.
///   * `TcpTransport` (tcp_transport.hpp): length-prefixed nonblocking TCP,
///     the real wire for multi-process runs.
///   * the discrete-event simulator models the same call surface.
/// The conformance suite (tests/rpc_transport_conformance_test.cpp) runs one
/// battery against every implementation so the planes cannot drift apart.

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/faults.hpp"
#include "common/mpmc_queue.hpp"
#include "common/status.hpp"
#include "rpc/codec.hpp"

namespace vdb {

/// Server-side request handler. Must be thread-safe when the endpoint runs
/// more than one service thread.
using RpcHandler = std::function<Message(const Message&)>;

/// Models one-way message delay as a function of payload size. Return seconds;
/// the transport delays response completion by the round trip (applied
/// asynchronously: overlapping in-flight calls overlap their latency).
using LatencyModel = std::function<double(std::size_t wire_bytes)>;

/// Zero-latency model (default).
LatencyModel NoLatency();

/// latency = base + bytes/bandwidth. Rough Slingshot-style point-to-point.
LatencyModel LinearLatency(double base_seconds, double bytes_per_second);

struct TransportStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Largest message body any transport accepts by default (frames also carry
/// a header; see rpc/frame.hpp). Callers sending more get ResourceExhausted
/// back instead of an unbounded allocation on the receive side.
inline constexpr std::size_t kDefaultMaxBodyBytes = std::size_t{256} << 20;

/// Abstract message plane. Implementations must honor the same contract:
///  * `CallAsync` never throws and never blocks indefinitely — every future
///    resolves, either with the handler's response or with an ErrorResponse
///    message (`MessageToStatus` recovers the Status).
///  * Unknown endpoint / closed endpoint / dropped connection => Unavailable.
///  * Bodies larger than `MaxBodyBytes()` => ResourceExhausted, and the
///    transport remains usable afterwards.
///  * Unregistering an endpoint fails queued-but-unstarted calls with
///    Unavailable; a handler already running completes and its response is
///    still delivered.
///  * The caller's trace context (trace id + span id) is visible to the
///    handler, so span trees stay connected across hops.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers an endpoint served by `service_threads` threads.
  virtual Status RegisterEndpoint(const std::string& name, RpcHandler handler,
                                  std::size_t service_threads = 1) = 0;

  /// Removes an endpoint. Queued calls fail with Unavailable; an in-flight
  /// handler finishes first (its response is still delivered).
  virtual Status UnregisterEndpoint(const std::string& name) = 0;

  virtual bool HasEndpoint(const std::string& name) const = 0;

  /// Asynchronous call; the future resolves with the response (or an
  /// ErrorResponse message when the endpoint is unknown/closed).
  virtual std::future<Message> CallAsync(const std::string& endpoint,
                                         Message request) = 0;

  /// Synchronous convenience wrapper (counts received bytes in Stats()).
  virtual Message Call(const std::string& endpoint, Message request);

  /// Installs a latency model applied to every call (both directions).
  /// Inproc uses it to simulate the interconnect; TCP adds it on top of the
  /// real wire (useful for modeling slower links on loopback).
  virtual void SetLatencyModel(LatencyModel model) = 0;

  /// Installs a fault plan consulted on every send at site "rpc/<endpoint>".
  /// Faults applied here: kFail/kCrash reject the call with Unavailable
  /// (connection refused), kDrop swallows the request — the handler never
  /// runs — and surfaces Unavailable only after the rule's sampled delay
  /// (silence, as a real lost packet), kDelay stretches the round trip,
  /// kCorrupt flips a wire byte where a wire exists (TCP; detected by frame
  /// CRC, surfaces as Unavailable after the connection drops). nullptr
  /// clears. Install before traffic for reproducible runs.
  virtual void SetFaultPlan(std::shared_ptr<faults::FaultPlan> plan) = 0;

  virtual TransportStats Stats() const = 0;

  /// Largest accepted message body, in bytes.
  virtual std::size_t MaxBodyBytes() const { return kDefaultMaxBodyBytes; }
};

/// Thread-per-endpoint in-process transport.
class InprocTransport final : public Transport {
 public:
  explicit InprocTransport(std::size_t max_body_bytes = kDefaultMaxBodyBytes);
  ~InprocTransport() override;

  InprocTransport(const InprocTransport&) = delete;
  InprocTransport& operator=(const InprocTransport&) = delete;

  Status RegisterEndpoint(const std::string& name, RpcHandler handler,
                          std::size_t service_threads = 1) override;
  Status UnregisterEndpoint(const std::string& name) override;
  bool HasEndpoint(const std::string& name) const override;
  std::future<Message> CallAsync(const std::string& endpoint, Message request) override;
  void SetLatencyModel(LatencyModel model) override;
  void SetFaultPlan(std::shared_ptr<faults::FaultPlan> plan) override;
  TransportStats Stats() const override;
  std::size_t MaxBodyBytes() const override { return max_body_bytes_; }

 private:
  struct Endpoint;

  std::shared_ptr<Endpoint> Find(const std::string& name) const;

  const std::size_t max_body_bytes_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Endpoint>> endpoints_;
  LatencyModel latency_;
  std::shared_ptr<faults::FaultPlan> fault_plan_;
  mutable std::mutex stats_mutex_;
  TransportStats stats_;  // bytes_received lives in bytes_received_
  std::atomic<std::uint64_t> bytes_received_{0};
};

}  // namespace vdb
