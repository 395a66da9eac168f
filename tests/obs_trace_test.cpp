/// Tests for the span-tree / timeline half of the observability layer:
/// parent-child structure across transport hops and worker pool threads,
/// Chrome trace-event JSON shape, gauge and flight-recorder concurrency
/// (run under TSan in CI), and slow-query-log top-N ordering. Built only
/// when the layer is compiled in (gated on NOT VDB_OBS_DISABLED).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/trace_collector.hpp"
#include "rpc/transport.hpp"

namespace vdb {
namespace {

using obs::SpanEvent;

std::vector<SpanEvent> DrainTrace(std::uint64_t trace_id) {
  return obs::MetricsRegistry::Instance().TakeTraceEvents(trace_id);
}

const SpanEvent* FindSpan(const std::vector<SpanEvent>& events,
                          const std::string& name) {
  for (const auto& event : events) {
    if (event.name == name) return &event;
  }
  return nullptr;
}

// ---- span trees -------------------------------------------------------------

TEST(SpanTreeTest, NestedSpansParentUnderEnclosingSpan) {
  obs::MetricsRegistry::Instance().Reset();
  const std::uint64_t trace_id = obs::NewTraceId();
  {
    obs::TraceScope scope(trace_id);
    VDB_SPAN("outer.op");
    { VDB_SPAN("inner.op"); }
  }
  const auto events = DrainTrace(trace_id);
  ASSERT_EQ(events.size(), 2u);
  const SpanEvent* outer = FindSpan(events, "outer.op");
  const SpanEvent* inner = FindSpan(events, "inner.op");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);  // direct child of the trace root
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_NE(inner->span_id, outer->span_id);
  // The child's window nests inside the parent's.
  EXPECT_GE(inner->start_seconds, outer->start_seconds);
  EXPECT_LE(inner->start_seconds + inner->duration_seconds,
            outer->start_seconds + outer->duration_seconds + 1e-9);
}

TEST(SpanTreeTest, TransportHopParentsHandlerSpansUnderCallerSpan) {
  obs::MetricsRegistry::Instance().Reset();
  InprocTransport transport;
  ASSERT_TRUE(transport
                  .RegisterEndpoint("worker-0",
                                    [](const Message& request) {
                                      VDB_SPAN("handler.work");
                                      return request;
                                    },
                                    /*service_threads=*/1)
                  .ok());

  const std::uint64_t trace_id = obs::NewTraceId();
  std::uint64_t caller_span_id = 0;
  {
    obs::TraceScope scope(trace_id);
    VDB_SPAN("caller.op");
    (void)transport.Call("worker-0", Message{});
    caller_span_id = obs::CurrentTraceContext().span_id;
  }

  const auto events = DrainTrace(trace_id);
  const SpanEvent* caller = FindSpan(events, "caller.op");
  const SpanEvent* rpc = FindSpan(events, "rpc.handle");
  const SpanEvent* handler = FindSpan(events, "handler.work");
  ASSERT_NE(caller, nullptr);
  ASSERT_NE(rpc, nullptr);
  ASSERT_NE(handler, nullptr);
  EXPECT_EQ(caller->span_id, caller_span_id);
  // The service thread re-installed the caller's context: rpc.handle is a
  // child of caller.op even though it ran on a different OS thread...
  EXPECT_EQ(rpc->parent_id, caller->span_id);
  EXPECT_NE(rpc->thread_id, caller->thread_id);
  // ...and the handler's own span nests under rpc.handle.
  EXPECT_EQ(handler->parent_id, rpc->span_id);
}

TEST(SpanTreeTest, WorkerPoolThreadsInheritTraceAndAttribution) {
  obs::MetricsRegistry::Instance().Reset();
  ClusterConfig config;
  config.num_workers = 2;
  config.collection_template.dim = 4;
  config.collection_template.index.type = "flat";
  auto cluster = LocalCluster::Start(config);
  ASSERT_TRUE(cluster.ok());

  std::vector<PointRecord> points;
  for (PointId id = 0; id < 64; ++id) {
    PointRecord record;
    record.id = id;
    record.vector = {static_cast<Scalar>(id), 1.0f, 2.0f, 3.0f};
    points.push_back(std::move(record));
  }
  ASSERT_TRUE((*cluster)->GetRouter().UpsertBatch(points).ok());

  const std::uint64_t trace_id = obs::NewTraceId();
  {
    obs::TraceScope scope(trace_id);
    SearchParams params;
    params.k = 4;
    std::vector<Vector> queries(8, Vector{1.0f, 1.0f, 1.0f, 1.0f});
    const auto results = (*cluster)->GetRouter().SearchBatch(queries, params);
    ASSERT_TRUE(results.ok());
  }

  const auto events = DrainTrace(trace_id);
  // The per-query spans run on the arena threads the worker's batch search
  // fans out to (the flat index's default VectorIndex::SearchBatch); each
  // must carry the trace id and the owning worker's attribution.
  std::size_t batch_spans = 0;
  bool saw_attribution = false;
  for (const auto& event : events) {
    if (event.name != "index.search_batch.query") continue;
    ++batch_spans;
    EXPECT_EQ(event.trace_id, trace_id);
    EXPECT_NE(event.parent_id, 0u);
    if (event.worker != obs::kNoWorker) saw_attribution = true;
  }
  EXPECT_GE(batch_spans, 8u);
  EXPECT_TRUE(saw_attribution);
}

// ---- Chrome trace JSON ------------------------------------------------------

SpanEvent MakeEvent(std::uint64_t trace, std::uint64_t span,
                    std::uint64_t parent, const std::string& name,
                    std::uint32_t worker, std::uint32_t node, double start,
                    double duration) {
  SpanEvent event;
  event.name = name;
  event.trace_id = trace;
  event.span_id = span;
  event.parent_id = parent;
  event.worker = worker;
  event.node = node;
  event.start_seconds = start;
  event.duration_seconds = duration;
  return event;
}

/// Minimal structural JSON check: balanced braces/brackets outside strings,
/// no trailing garbage. Not a full parser, but catches broken escaping and
/// truncated output — the ways hand-rolled JSON emitters actually fail.
bool JsonStructureValid(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

TEST(ChromeTraceTest, JsonHasExpectedShape) {
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent(7, 100, 0, "client.query_batch", obs::kNoWorker,
                             obs::kNoNode, 10.0, 0.050));
  events.push_back(MakeEvent(7, 101, 100, "worker.fanout", 0, 1, 10.001, 0.048));
  events.push_back(
      MakeEvent(7, 102, 101, "worker.search_local", 1, 1, 10.002, 0.030));
  SpanEvent with_shard =
      MakeEvent(7, 103, 101, "worker.upsert", 2, 2, 10.003, 0.010);
  with_shard.shard = 5;
  events.push_back(with_shard);

  const obs::TraceCollector collector(events);
  const std::string json = collector.ChromeTraceJson();

  EXPECT_TRUE(JsonStructureValid(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // One complete event per span.
  std::size_t complete_events = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events, events.size());
  // Metadata events name the process (node) and thread (worker) lanes.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Timestamps are relative to the trace start: the earliest span is at 0.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  // Parent links and shard attribution survive into args.
  EXPECT_NE(json.find("\"parent\":\"101\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":\"5\""), std::string::npos);
}

TEST(ChromeTraceTest, JsonEscapesSpanNames) {
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent(9, 1, 0, "weird\"name\\with\ncontrol", 0, 0,
                             0.0, 0.001));
  const obs::TraceCollector collector(events);
  const std::string json = collector.ChromeTraceJson();
  EXPECT_TRUE(JsonStructureValid(json)) << json;
}

TEST(ChromeTraceTest, AsciiGanttListsEverySpanOnce) {
  std::vector<SpanEvent> events;
  events.push_back(MakeEvent(3, 1, 0, "root", obs::kNoWorker, obs::kNoNode,
                             0.0, 0.100));
  events.push_back(MakeEvent(3, 2, 1, "leg_a", 0, 0, 0.000, 0.040));
  events.push_back(MakeEvent(3, 3, 1, "leg_b", 1, 0, 0.010, 0.090));
  const obs::TraceCollector collector(events);
  const std::string gantt = collector.AsciiGantt();
  EXPECT_NE(gantt.find("3 spans"), std::string::npos);
  EXPECT_NE(gantt.find("root"), std::string::npos);
  EXPECT_NE(gantt.find("leg_a"), std::string::npos);
  EXPECT_NE(gantt.find("leg_b"), std::string::npos);
  EXPECT_NE(gantt.find("worker 1"), std::string::npos);
}

// ---- straggler table --------------------------------------------------------

TEST(StragglerTest, TableReportsPerWorkerSpreadAcrossTraces) {
  std::vector<obs::TraceRecord> traces;
  for (int t = 0; t < 3; ++t) {
    obs::TraceRecord record;
    record.trace_id = 100 + static_cast<std::uint64_t>(t);
    record.root_name = "client.query_batch";
    record.duration_seconds = 0.100;
    // Worker 0 is consistently 4x slower than worker 1.
    record.events.push_back(
        MakeEvent(record.trace_id, 1, 0, "worker.search", 0, 0, 0.0, 0.080));
    record.events.push_back(
        MakeEvent(record.trace_id, 2, 0, "worker.search", 1, 0, 0.0, 0.020));
    traces.push_back(std::move(record));
  }
  const std::string table = obs::RenderStragglerTable(traces);
  EXPECT_NE(table.find("straggler"), std::string::npos);
  EXPECT_NE(table.find("spread"), std::string::npos);
  EXPECT_NE(table.find("4.00x"), std::string::npos) << table;
}

TEST(StragglerTest, IntervalUnionDoesNotDoubleCountNestedSpans) {
  std::vector<obs::TraceRecord> traces;
  obs::TraceRecord record;
  record.trace_id = 200;
  record.root_name = "root";
  record.duration_seconds = 0.100;
  // Worker 0: an outer 50 ms span with a fully-nested 40 ms child. Busy time
  // must be 50 ms, not 90. Worker 1: a plain 25 ms span -> 2.00x spread.
  record.events.push_back(
      MakeEvent(200, 1, 0, "outer", 0, 0, 0.000, 0.050));
  record.events.push_back(
      MakeEvent(200, 2, 1, "inner", 0, 0, 0.005, 0.040));
  record.events.push_back(
      MakeEvent(200, 3, 0, "peer", 1, 0, 0.000, 0.025));
  traces.push_back(std::move(record));
  const std::string table = obs::RenderStragglerTable(traces);
  EXPECT_NE(table.find("2.00x"), std::string::npos) << table;
}

// ---- gauges -----------------------------------------------------------------

TEST(GaugeTest, ConcurrentAddsBalanceAndMaxIsHighWaterMark) {
  obs::MetricsRegistry::Instance().Reset();
  auto& gauge = obs::MetricsRegistry::Instance().GaugeFor("test.gauge");
  constexpr int kThreads = 8;
  constexpr int kReps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kReps; ++i) {
        gauge.Add(3);
        gauge.Add(-3);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_GE(gauge.Max(), 3);
  EXPECT_LE(gauge.Max(), 3 * kThreads);
}

TEST(GaugeTest, GaugeScopeRestoresOnExit) {
  obs::MetricsRegistry::Instance().Reset();
  auto& gauge = obs::MetricsRegistry::Instance().GaugeFor("test.scope_gauge");
  {
    obs::GaugeScope in_flight(gauge);
    EXPECT_EQ(gauge.Value(), 1);
    {
      obs::GaugeScope nested(gauge);
      EXPECT_EQ(gauge.Value(), 2);
    }
    EXPECT_EQ(gauge.Value(), 1);
  }
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(gauge.Max(), 2);
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRecorderTest, ConcurrentRecordersNeverCorruptTheRing) {
  auto& recorder = obs::FlightRecorder::Instance();
  recorder.Clear();
  constexpr int kThreads = 8;
  constexpr int kReps = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kReps; ++i) {
        recorder.Record(obs::FlightRecorder::EventKind::kNote,
                        "thread." + std::to_string(t), "rep", i);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto events = recorder.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), obs::FlightRecorder::kCapacity);
  // Snapshot is ordered by sequence; names are intact (no torn writes).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
  for (const auto& event : events) {
    const std::string name(event.name);
    EXPECT_EQ(name.rfind("thread.", 0), 0u) << name;
  }
}

TEST(FlightRecorderTest, DumpRendersRecentEventsAndClears) {
  auto& recorder = obs::FlightRecorder::Instance();
  recorder.Clear();
  recorder.Record(obs::FlightRecorder::EventKind::kFault, "rpc/worker/3",
                  "injected crash", 0);
  recorder.Record(obs::FlightRecorder::EventKind::kRetry, "worker/3",
                  "Unavailable", 2);
  const std::string dump = obs::FlightRecorderDump();
  EXPECT_NE(dump.find("flight recorder"), std::string::npos);
  EXPECT_NE(dump.find("fault"), std::string::npos);
  EXPECT_NE(dump.find("rpc/worker/3"), std::string::npos);
  EXPECT_NE(dump.find("injected crash"), std::string::npos);
  EXPECT_NE(dump.find("retry"), std::string::npos);
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, TracedSpansLandInTheRing) {
  auto& recorder = obs::FlightRecorder::Instance();
  recorder.Clear();
  obs::MetricsRegistry::Instance().Reset();
  const std::uint64_t trace_id = obs::NewTraceId();
  {
    obs::TraceScope scope(trace_id);
    VDB_SPAN("flight.traced_span");
  }
  (void)DrainTrace(trace_id);
  const auto events = recorder.Snapshot();
  bool saw_span = false;
  for (const auto& event : events) {
    if (event.kind == obs::FlightRecorder::EventKind::kSpan &&
        std::string(event.name) == "flight.traced_span") {
      saw_span = true;
      EXPECT_EQ(event.trace_id, trace_id);
    }
  }
  EXPECT_TRUE(saw_span);
}

// ---- slow-query log ---------------------------------------------------------

TEST(SlowQueryLogTest, KeepsTopNByDurationAboveThreshold) {
  auto& log = obs::SlowQueryLog::Instance();
  log.Clear();
  log.Configure(/*threshold_seconds=*/0.010, /*keep=*/4);
  obs::MetricsRegistry::Instance().Reset();

  // 20 traces with shuffled durations 1..20 ms; only >10 ms clears the
  // threshold, and only the slowest 4 of those may survive.
  Rng rng(42);
  std::vector<double> durations;
  for (int i = 1; i <= 20; ++i) durations.push_back(0.001 * i);
  for (std::size_t i = durations.size(); i > 1; --i) {
    std::swap(durations[i - 1], durations[rng.NextU64(i)]);
  }
  for (const double duration : durations) {
    const std::uint64_t trace_id = obs::NewTraceId();
    obs::RecordSpanEventAt("slow.op", obs::TraceToken{trace_id, 0}, 0.0,
                           duration);
    obs::OfferSlowTrace(trace_id, "slow.op", duration);
  }

  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_DOUBLE_EQ(entries[0].duration_seconds, 0.020);
  EXPECT_DOUBLE_EQ(entries[1].duration_seconds, 0.019);
  EXPECT_DOUBLE_EQ(entries[2].duration_seconds, 0.018);
  EXPECT_DOUBLE_EQ(entries[3].duration_seconds, 0.017);
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.root_name, "slow.op");
    ASSERT_EQ(entry.events.size(), 1u);
    EXPECT_EQ(entry.events[0].name, "slow.op");
  }
  log.Clear();
}

TEST(SlowQueryLogTest, OfferAlwaysDrainsTheRegistry) {
  auto& log = obs::SlowQueryLog::Instance();
  log.Clear();
  log.Configure(/*threshold_seconds=*/1.0, /*keep=*/4);  // nothing qualifies
  obs::MetricsRegistry::Instance().Reset();

  const std::uint64_t trace_id = obs::NewTraceId();
  obs::RecordSpanEventAt("fast.op", obs::TraceToken{trace_id, 0}, 0.0, 0.001);
  obs::OfferSlowTrace(trace_id, "fast.op", 0.001);
  // Below threshold: not retained, but the registry entry is still drained
  // (completed traces never linger in the bounded table).
  EXPECT_EQ(log.Size(), 0u);
  EXPECT_TRUE(DrainTrace(trace_id).empty());
  log.Clear();
  log.Configure(0.0, 8);
}

TEST(SlowQueryLogTest, TraceRootOffersOnDestruction) {
  auto& log = obs::SlowQueryLog::Instance();
  log.Clear();
  log.Configure(/*threshold_seconds=*/0.0, /*keep=*/8);
  obs::MetricsRegistry::Instance().Reset();
  std::uint64_t trace_id = 0;
  {
    obs::TraceRoot root("test.phase");
    trace_id = root.id();
    VDB_SPAN("test.phase_body");
  }
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace_id, trace_id);
  EXPECT_EQ(entries[0].root_name, "test.phase");
  EXPECT_NE(FindSpan(entries[0].events, "test.phase_body"), nullptr);
  log.Clear();
}

// ---- drop accounting --------------------------------------------------------
// Both bounded retention structures must account for what they shed: the
// registry's live-trace LRU bumps obs.trace.dropped, the slow-query log bumps
// obs.slowlog.dropped. A scraper watching these counters can tell "quiet
// cluster" from "interesting traces are being evicted before I pull them".

TEST(DropCountersTest, TraceTableEvictionBumpsObsTraceDropped) {
  obs::MetricsRegistry::Instance().Reset();
  auto& dropped =
      obs::MetricsRegistry::Instance().CounterFor("obs.trace.dropped");
  ASSERT_EQ(dropped.Value(), 0u);
  // One more live trace than the LRU table holds: the oldest is evicted.
  for (std::size_t i = 0; i < obs::MetricsRegistry::kMaxTraces + 1; ++i) {
    obs::RecordSpanEventAt("evict.op", obs::TraceToken{obs::NewTraceId(), 0},
                           0.0, 0.001);
  }
  EXPECT_GE(dropped.Value(), 1u);
  obs::MetricsRegistry::Instance().Reset();
}

TEST(DropCountersTest, SlowQueryLogDropsBumpObsSlowlogDropped) {
  auto& log = obs::SlowQueryLog::Instance();
  log.Clear();
  log.Configure(/*threshold_seconds=*/0.010, /*keep=*/2);
  obs::MetricsRegistry::Instance().Reset();
  auto& dropped =
      obs::MetricsRegistry::Instance().CounterFor("obs.slowlog.dropped");

  const auto offer = [](double duration) {
    const std::uint64_t trace_id = obs::NewTraceId();
    obs::RecordSpanEventAt("slow.op", obs::TraceToken{trace_id, 0}, 0.0,
                           duration);
    obs::OfferSlowTrace(trace_id, "slow.op", duration);
  };

  offer(0.001);  // below threshold -> dropped
  EXPECT_EQ(dropped.Value(), 1u);
  offer(0.030);  // retained (log now holds 1 of 2)
  offer(0.020);  // retained (log full)
  EXPECT_EQ(dropped.Value(), 1u);
  offer(0.015);  // beaten by the current top-2 -> dropped
  EXPECT_EQ(dropped.Value(), 2u);
  offer(0.040);  // retained; displaces the 0.020 entry -> dropped
  EXPECT_EQ(dropped.Value(), 3u);

  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_DOUBLE_EQ(entries[0].duration_seconds, 0.040);
  EXPECT_DOUBLE_EQ(entries[1].duration_seconds, 0.030);
  log.Clear();
  log.Configure(0.0, 8);
}

}  // namespace
}  // namespace vdb
