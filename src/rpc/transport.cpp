#include "rpc/transport.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "common/trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace vdb {

LatencyModel NoLatency() {
  return [](std::size_t) { return 0.0; };
}

LatencyModel LinearLatency(double base_seconds, double bytes_per_second) {
  return [=](std::size_t bytes) {
    return base_seconds + static_cast<double>(bytes) / bytes_per_second;
  };
}

namespace {

void SleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

struct PendingCall {
  Message request;
  std::promise<Message> response;
  /// Round-trip network delay applied asynchronously (never blocks the
  /// caller or a service thread — a real NIC doesn't hold a CPU while a
  /// message is in flight).
  double rtt_delay = 0.0;
  /// Caller's full trace context (trace id + innermost span + attribution),
  /// re-installed on the service thread that runs the handler — the
  /// in-process analogue of a trace header on the wire. Carrying the span id
  /// (not just the trace id) keeps handler-side spans parented under the
  /// caller's span, so span trees stay connected across hops.
  obs::TraceContext trace_ctx;
};

}  // namespace

Message Transport::Call(const std::string& endpoint, Message request) {
  return CallAsync(endpoint, std::move(request)).get();
}

struct InprocTransport::Endpoint {
  InprocTransport& owner;  // outlives the service threads (joined at Shutdown)
  std::string name;
  RpcHandler handler;
  MpmcQueue<PendingCall> queue;
  std::vector<std::thread> threads;

  Endpoint(InprocTransport& o, std::string n, RpcHandler h)
      : owner(o), name(std::move(n)), handler(std::move(h)) {}

  void Serve() {
    // PopUnlessClosed (not Pop): once Shutdown closes the queue, service
    // threads must stop immediately instead of draining — queued calls are
    // failed back to their callers by Shutdown, never handed to a handler
    // that may be mid-teardown.
    while (auto call = queue.PopUnlessClosed()) {
      obs::TraceContextScope trace(call->trace_ctx);
      Message response;
      {
        VDB_SPAN("rpc.handle");
        response = handler(call->request);
      }
      // Every reply a handler sends back, whether the caller waits on it
      // synchronously or not (a fan-out's peer calls are async). No lock:
      // this runs on the reply's critical path on every service thread.
      owner.bytes_received_.fetch_add(response.WireBytes(), std::memory_order_relaxed);
      if (call->rtt_delay > 0.0) {
        // Deliver after the simulated round trip without occupying a service
        // thread: overlapping in-flight RPCs must not serialize on latency.
        std::thread([delay = call->rtt_delay,
                     promise = std::move(call->response),
                     value = std::move(response)]() mutable {
          SleepSeconds(delay);
          promise.set_value(std::move(value));
        }).detach();
      } else {
        call->response.set_value(std::move(response));
      }
    }
  }

  void Shutdown() {
    queue.Close();
    // Calls queued behind a busy handler at close time fail with Unavailable
    // — the conformance contract for endpoint shutdown mid-call. Draining
    // here (not in Serve) guarantees the handler is never invoked after the
    // endpoint is deregistered, and that every accepted promise resolves.
    for (auto& call : queue.DrainNow()) {
      call.response.set_value(EncodeErrorResponse(
          Status::Unavailable("endpoint '" + name + "' closed")));
    }
    for (auto& thread : threads) {
      if (thread.joinable()) thread.join();
    }
  }
};

InprocTransport::InprocTransport(std::size_t max_body_bytes)
    : max_body_bytes_(max_body_bytes), latency_(NoLatency()) {}

InprocTransport::~InprocTransport() {
  std::unordered_map<std::string, std::shared_ptr<Endpoint>> endpoints;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    endpoints.swap(endpoints_);
  }
  for (auto& [name, endpoint] : endpoints) endpoint->Shutdown();
}

Status InprocTransport::RegisterEndpoint(const std::string& name, RpcHandler handler,
                                         std::size_t service_threads) {
  auto endpoint = std::make_shared<Endpoint>(*this, name, std::move(handler));
  const std::size_t threads = std::max<std::size_t>(1, service_threads);
  for (std::size_t i = 0; i < threads; ++i) {
    endpoint->threads.emplace_back([ep = endpoint.get()] { ep->Serve(); });
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (endpoints_.count(name) != 0) {
    endpoint->Shutdown();
    return Status::AlreadyExists("endpoint '" + name + "' already registered");
  }
  endpoints_[name] = std::move(endpoint);
  return Status::Ok();
}

Status InprocTransport::UnregisterEndpoint(const std::string& name) {
  std::shared_ptr<Endpoint> endpoint;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = endpoints_.find(name);
    if (it == endpoints_.end()) return Status::NotFound("endpoint '" + name + "'");
    endpoint = it->second;
    endpoints_.erase(it);
  }
  endpoint->Shutdown();
  return Status::Ok();
}

bool InprocTransport::HasEndpoint(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return endpoints_.count(name) != 0;
}

std::shared_ptr<InprocTransport::Endpoint> InprocTransport::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = endpoints_.find(name);
  return it == endpoints_.end() ? nullptr : it->second;
}

std::future<Message> InprocTransport::CallAsync(const std::string& endpoint_name,
                                                Message request) {
  const std::size_t wire_bytes = request.WireBytes();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.calls;
    stats_.bytes_sent += wire_bytes;
  }

  auto endpoint = Find(endpoint_name);
  std::promise<Message> promise;
  std::future<Message> future = promise.get_future();
  if (request.body.size() > max_body_bytes_) {
    promise.set_value(EncodeErrorResponse(Status::ResourceExhausted(
        "message body exceeds transport limit (" +
        std::to_string(request.body.size()) + " > " +
        std::to_string(max_body_bytes_) + " bytes)")));
    return future;
  }
  if (endpoint == nullptr) {
    promise.set_value(
        EncodeErrorResponse(Status::Unavailable("no endpoint '" + endpoint_name + "'")));
    return future;
  }

  LatencyModel latency;
  std::shared_ptr<faults::FaultPlan> fault_plan;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    latency = latency_;
    fault_plan = fault_plan_;
  }

  double injected_delay = 0.0;
  if (fault_plan != nullptr) {
    const faults::FaultDecision decision =
        fault_plan->Evaluate("rpc/" + endpoint_name);
    if (decision.fail || decision.crash) {
      VDB_FLIGHT(kFault, "rpc/" + endpoint_name,
                 decision.crash ? "injected crash" : "injected fail", 0);
      promise.set_value(EncodeErrorResponse(
          Status::Unavailable("injected fault at rpc/" + endpoint_name)));
      return future;
    }
    if (decision.drop) {
      VDB_FLIGHT(kFault, "rpc/" + endpoint_name, "injected drop",
                 static_cast<std::int64_t>(decision.delay_seconds * 1e6));
      // The request vanishes before the handler: the caller observes only
      // silence, resolved as Unavailable once the sampled detection delay
      // elapses (so deadline-based callers time out first when configured).
      Message dropped = EncodeErrorResponse(
          Status::Unavailable("injected drop at rpc/" + endpoint_name));
      if (decision.delay_seconds > 0.0) {
        std::thread([delay = decision.delay_seconds, promise = std::move(promise),
                     value = std::move(dropped)]() mutable {
          SleepSeconds(delay);
          promise.set_value(std::move(value));
        }).detach();
      } else {
        promise.set_value(std::move(dropped));
      }
      return future;
    }
    if (decision.delay_seconds > 0.0) {
      VDB_FLIGHT(kFault, "rpc/" + endpoint_name, "injected delay",
                 static_cast<std::int64_t>(decision.delay_seconds * 1e6));
    }
    injected_delay = decision.delay_seconds;
  }

  PendingCall call;
  call.request = std::move(request);
  call.response = std::move(promise);
  call.trace_ctx = obs::CurrentTraceContext();
  // Round trip: request transit (size-dependent) + response transit
  // (responses are small: top-k ids). Applied asynchronously after the
  // handler so concurrent in-flight calls overlap their latency, as on a
  // real network.
  call.rtt_delay = latency(wire_bytes) + latency(256) + injected_delay;

  if (!endpoint->queue.Push(std::move(call))) {
    std::promise<Message> closed;
    future = closed.get_future();
    closed.set_value(
        EncodeErrorResponse(Status::Unavailable("endpoint '" + endpoint_name + "' closed")));
  }
  return future;
}

void InprocTransport::SetLatencyModel(LatencyModel model) {
  std::lock_guard<std::mutex> lock(mutex_);
  latency_ = std::move(model);
}

void InprocTransport::SetFaultPlan(std::shared_ptr<faults::FaultPlan> plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  fault_plan_ = std::move(plan);
}

TransportStats InprocTransport::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  TransportStats stats = stats_;
  stats.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace vdb
