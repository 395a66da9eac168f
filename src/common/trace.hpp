#pragma once

/// \file trace.hpp
/// Trace-context propagation primitives for the observability layer
/// (src/obs). Every thread carries a TraceContext: the trace id of the
/// logical request it is currently serving, the innermost open span (so new
/// spans know their parent), and worker/node attribution. The in-process
/// transport copies the caller's full context into the service thread that
/// runs the handler, and the SearchArena re-installs it on pool threads a
/// batch search runs on, so span trees stay connected across every hop of a fan-out
/// (the paper's routing vs. per-worker-search decomposition).
///
/// This header is dependency-free and always compiled in — a thread-local
/// read/write is negligible even on hot paths. The expensive parts of
/// observability (histograms, span-event tables, the flight recorder) live
/// in obs/ and compile out under VDB_OBS_DISABLED.

#include <atomic>
#include <cstdint>

namespace vdb::obs {

/// Sentinel attribution values ("not attributed"). Worker/node ids in this
/// codebase are small dense integers, so all-ones never collides.
inline constexpr std::uint32_t kNoWorker = 0xFFFFFFFFu;
inline constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;
inline constexpr std::uint64_t kNoShard = ~0ull;

/// The per-thread trace state. `trace_id == 0` means untraced (spans still
/// aggregate into the global registry, they just skip the per-trace table).
/// `span_id` is the innermost open span on this thread for this trace
/// (0 = directly under the trace root); `span_name` points at the open
/// span's registry-owned name (stable for the process lifetime) and exists
/// so log lines can say which span they were emitted under.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint32_t worker = kNoWorker;
  std::uint32_t node = kNoNode;
  const char* span_name = nullptr;
};

/// A detached parent reference for code that cannot use thread-locals —
/// the discrete-event simulator runs every virtual actor interleaved on one
/// thread, so sim handlers thread a TraceToken through their callbacks
/// instead (see obs::RecordSpanEventAt).
struct TraceToken {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

namespace internal {
inline thread_local TraceContext g_trace_context;
inline std::atomic<std::uint64_t> g_next_trace_id{1};
inline std::atomic<std::uint64_t> g_next_span_id{1};
}  // namespace internal

/// Trace id active on this thread; 0 = untraced.
inline std::uint64_t CurrentTraceId() {
  return internal::g_trace_context.trace_id;
}

/// Full trace context active on this thread (copy).
inline TraceContext CurrentTraceContext() { return internal::g_trace_context; }

/// Mutable access for span push/pop (SpanTimer) — not for general use.
inline TraceContext& MutableTraceContext() { return internal::g_trace_context; }

/// Allocates a fresh process-unique trace id (never 0).
inline std::uint64_t NewTraceId() {
  return internal::g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

/// Allocates a fresh process-unique span id (never 0). Span ids share one
/// sequence across traces; uniqueness is process-wide. For cross-process
/// uniqueness (TracePull assembles span trees from many vdbd processes into
/// one timeline), each daemon calls SeedProcessIds at startup.
inline std::uint64_t NewSpanId() {
  return internal::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

/// Offsets this process's span-id sequence into a disjoint range. Every
/// process mints span ids from a counter starting at 1, so two vdbd workers
/// would collide on ids 1, 2, 3… and a cross-process trace assembly could not
/// tell their spans (or parent links) apart. vdbd calls this once at startup
/// with its worker id; the 2^40 stride leaves room for ~10^12 spans per
/// process. Trace ids are left alone — they are minted by whichever process
/// roots the trace and cross the wire with the request, so workers never mint
/// a competing id for the same logical trace.
inline void SeedProcessIds(std::uint64_t salt) {
  internal::g_next_span_id.store(((salt + 1) << 40) + 1,
                                 std::memory_order_relaxed);
}

/// RAII: installs `id` as the thread's trace id with a fresh (empty) span
/// stack, restoring the previous full context on scope exit. Worker/node
/// attribution is preserved — a service thread keeps its identity across the
/// traces it serves. Open one at the root of a logical call (client/bench/
/// test) and the transport carries it into every handler the call reaches.
class TraceScope {
 public:
  explicit TraceScope(std::uint64_t id) : prev_(internal::g_trace_context) {
    internal::g_trace_context.trace_id = id;
    internal::g_trace_context.span_id = 0;
    internal::g_trace_context.span_name = nullptr;
  }
  ~TraceScope() { internal::g_trace_context = prev_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext prev_;
};

/// RAII: installs a full captured context (trace id AND parent span), as the
/// transport does when a handler runs on a service thread: spans opened under
/// this scope become children of the caller's innermost span.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx)
      : prev_(internal::g_trace_context) {
    internal::g_trace_context = ctx;
  }
  ~TraceContextScope() { internal::g_trace_context = prev_; }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// RAII: tags the current thread as executing on behalf of `worker` (and
/// optionally `node`) so every span recorded underneath attributes to it.
/// Worker::Handle opens one around the whole dispatch.
class ScopedWorkerAttribution {
 public:
  explicit ScopedWorkerAttribution(std::uint32_t worker,
                                   std::uint32_t node = kNoNode)
      : prev_worker_(internal::g_trace_context.worker),
        prev_node_(internal::g_trace_context.node) {
    internal::g_trace_context.worker = worker;
    if (node != kNoNode) internal::g_trace_context.node = node;
  }
  ~ScopedWorkerAttribution() {
    internal::g_trace_context.worker = prev_worker_;
    internal::g_trace_context.node = prev_node_;
  }
  ScopedWorkerAttribution(const ScopedWorkerAttribution&) = delete;
  ScopedWorkerAttribution& operator=(const ScopedWorkerAttribution&) = delete;

 private:
  std::uint32_t prev_worker_;
  std::uint32_t prev_node_;
};

}  // namespace vdb::obs
