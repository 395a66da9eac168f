/// \file vdbtop.cpp
/// Live cluster top: polls every vdbd admin endpoint's `/metrics.bin`,
/// decodes the snapshots, and renders a refreshing per-worker table (QPS,
/// per-stage p50/p99, arena occupancy, send-queue bytes, backlog high-water)
/// followed by the aggregated cluster stage breakdown.
///
///   vdbtop --admin=127.0.0.1:7101 --admin=127.0.0.1:7102 --interval=2
///
/// QPS is the per-interval delta of the worker.queries_searched counter
/// (single and batched queries alike), so the first refresh shows "-" (no
/// previous sample to difference against).
/// vdbtop itself never touches this process's registry: it is pure decode +
/// render over snapshot wire blobs, which is why it links (and works) even
/// in VDB_OBS_DISABLED builds — against instrumented daemons it still shows
/// everything; an obs-disabled daemon answers 404 and shows up as "down".

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "daemon/admin_server.hpp"
#include "metrics/table.hpp"
#include "obs/snapshot.hpp"

namespace {

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

struct Options {
  std::vector<Endpoint> admins;
  double interval_seconds = 2.0;
  std::uint64_t iterations = 0;  // 0 = forever
  bool clear_screen = true;
  bool csv = false;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --admin=<host:port> [--admin=...] "
               "[--interval=<sec>] [--iterations=<n>] [--no-clear] [--csv]\n"
               "Polls vdbd admin endpoints' /metrics.bin and renders a live "
               "per-worker cluster table.\n",
               argv0);
}

std::optional<Endpoint> ParseEndpoint(const std::string& value) {
  const auto colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  const int port = std::atoi(value.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return std::nullopt;
  return Endpoint{value.substr(0, colon), static_cast<std::uint16_t>(port)};
}

std::string FmtBytes(std::int64_t bytes) {
  char buf[32];
  if (bytes >= (std::int64_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (std::int64_t{1} << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(bytes));
  }
  return buf;
}

/// p50/p99 of a span in ms as "0.42/1.87", or "-" when the worker has no
/// samples for it.
std::string FmtSpanCell(const vdb::obs::MetricsSnapshot& snapshot,
                        const std::string& span) {
  const auto it = snapshot.spans.find(span);
  if (it == snapshot.spans.end() || it->second.Count() == 0) return "-";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.2f/%.2f", it->second.Quantile(0.5) / 1e3,
                it->second.Quantile(0.99) / 1e3);
  return buf;
}

std::int64_t GaugeValue(const vdb::obs::MetricsSnapshot& snapshot,
                        const std::string& name) {
  const auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0 : it->second.value;
}

std::uint64_t CounterValue(const vdb::obs::MetricsSnapshot& snapshot,
                           const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string flag = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--admin") {
      const auto endpoint = ParseEndpoint(value);
      if (!endpoint) {
        std::fprintf(stderr, "bad --admin '%s' (want host:port)\n", value.c_str());
        return 2;
      }
      options.admins.push_back(*endpoint);
    } else if (flag == "--interval") {
      options.interval_seconds = std::atof(value.c_str());
      if (options.interval_seconds <= 0.0) options.interval_seconds = 2.0;
    } else if (flag == "--iterations") {
      options.iterations = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--no-clear") {
      options.clear_screen = false;
    } else if (flag == "--csv") {
      options.csv = true;
      options.clear_screen = false;
    } else if (flag == "--help" || flag == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.admins.empty()) {
    Usage(argv[0]);
    return 2;
  }

  // Previous tick's search counts per endpoint index, for the QPS delta.
  std::map<std::size_t, std::uint64_t> prev_searches;

  for (std::uint64_t tick = 0;
       options.iterations == 0 || tick < options.iterations; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(options.interval_seconds));
    }

    std::vector<vdb::obs::MetricsSnapshot> snapshots;
    std::vector<std::string> down;
    std::vector<std::size_t> endpoint_of;  // snapshot index -> admin index
    for (std::size_t i = 0; i < options.admins.size(); ++i) {
      const Endpoint& admin = options.admins[i];
      auto body = vdb::daemon::HttpGet(admin.host, admin.port, "/metrics.bin",
                                       /*timeout_seconds=*/2.0);
      if (!body.ok()) {
        down.push_back(admin.host + ":" + std::to_string(admin.port) + " (" +
                       body.status().message() + ")");
        continue;
      }
      auto snapshot = vdb::obs::DecodeMetricsSnapshot(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(body->data()), body->size()));
      if (!snapshot.ok()) {
        down.push_back(admin.host + ":" + std::to_string(admin.port) + " (" +
                       snapshot.status().message() + ")");
        continue;
      }
      endpoint_of.push_back(i);
      snapshots.push_back(std::move(snapshot).value());
    }

    vdb::TextTable table("vdbtop — " + std::to_string(snapshots.size()) + "/" +
                         std::to_string(options.admins.size()) + " workers up");
    table.SetHeader({"worker", "pid", "qps", "search p50/p99 ms",
                     "rpc p50/p99 ms", "wal p50/p99 ms", "arena occ",
                     "sendq", "backlog hw"});
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      const vdb::obs::MetricsSnapshot& snapshot = snapshots[i];
      const std::uint64_t searches = CounterValue(snapshot, "worker.queries_searched");
      std::string qps = "-";
      const auto prev = prev_searches.find(endpoint_of[i]);
      if (prev != prev_searches.end() && searches >= prev->second && tick > 0) {
        qps = vdb::TextTable::Num(
            static_cast<double>(searches - prev->second) / options.interval_seconds, 1);
      }
      prev_searches[endpoint_of[i]] = searches;

      const auto backlog = snapshot.gauges.find("worker.search_backlog");
      table.AddRow({
          snapshot.worker == vdb::obs::kNoWorker
              ? "?"
              : "w" + std::to_string(snapshot.worker),
          std::to_string(snapshot.pid),
          qps,
          FmtSpanCell(snapshot, "worker.search_local"),
          FmtSpanCell(snapshot, "rpc.handle"),
          FmtSpanCell(snapshot, "storage.wal_append"),
          vdb::TextTable::Int(GaugeValue(snapshot, "arena.occupancy")),
          FmtBytes(GaugeValue(snapshot, "rpc.tcp.sendq.bytes")),
          backlog == snapshot.gauges.end()
              ? "-"
              : vdb::TextTable::Int(backlog->second.window_max),
      });
    }

    std::string out;
    if (options.clear_screen) out += "\x1b[2J\x1b[H";
    out += options.csv ? table.RenderCsv() : table.Render();
    for (const std::string& d : down) out += "  down: " + d + "\n";
    if (!options.csv && !snapshots.empty()) {
      out += "\n";
      out += vdb::obs::RenderClusterStageBreakdown(snapshots);
    }
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }
  return 0;
}
