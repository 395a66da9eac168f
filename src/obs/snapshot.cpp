#include "obs/snapshot.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <utility>

#include "common/archive.hpp"
#include "metrics/table.hpp"
#include "obs/obs.hpp"

namespace vdb::obs {

void Fields(auto& ar, Is<GaugeSnapshot> auto& g) {
  ar(g.value, g.max, g.window_max);
}

namespace {

// ---------------------------------------------------------------------------
// Blob format. The snapshot travels opaquely inside MetricsPull responses and
// admin /metrics.bin bodies:
//   [magic u32][version u8][worker u32][pid u32][epoch f64]
//   [counters: map name -> u64][gauges: map name -> 3 x i64]
//   [spans: map name -> count u64, sum/min/max f64, layout u32,
//           non-zero buckets: list of (index u32, count u64)]
// ---------------------------------------------------------------------------

constexpr std::uint32_t kSnapshotMagic = 0x4D424456u;  // "VDBM" little-endian
constexpr std::uint8_t kSnapshotVersion = 1;

struct BucketImage {
  std::uint32_t index = 0;
  std::uint64_t count = 0;
};

struct SpanImage {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t layout = 0;  ///< bucket count of the encoding build
  std::vector<BucketImage> buckets;  ///< the non-zero ones, by index
};

struct SnapshotImage {
  std::uint32_t magic = kSnapshotMagic;
  std::uint8_t version = kSnapshotVersion;
  std::uint32_t worker = kNoWorker;
  std::uint32_t pid = 0;
  double epoch_unix_seconds = 0.0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, SpanImage> spans;
};

void Fields(auto& ar, Is<BucketImage> auto& b) { ar(b.index, b.count); }
void Fields(auto& ar, Is<SpanImage> auto& s) {
  ar(s.count, s.sum, s.min, s.max, s.layout, s.buckets);
}
void Fields(auto& ar, Is<SnapshotImage> auto& s) {
  ar(s.magic, s.version, s.worker, s.pid, s.epoch_unix_seconds, s.counters,
     s.gauges, s.spans);
}

// ---------------------------------------------------------------------------
// Prometheus rendering
// ---------------------------------------------------------------------------

/// Registry names are dot-separated (`rpc.tcp.sendq.bytes`); Prometheus
/// metric names admit [a-zA-Z0-9_:]. Dots become underscores, anything else
/// illegal becomes '_' too, and a leading digit gets a '_' prefix.
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string FmtValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// "worker=\"3\"" or "" — every series of a per-worker snapshot carries the
/// worker label so a Prometheus server scraping many vdbd admin ports keeps
/// the processes apart even behind one job.
std::string WorkerLabel(const MetricsSnapshot& snapshot) {
  if (snapshot.worker == kNoWorker) return {};
  return "worker=\"" + std::to_string(snapshot.worker) + "\"";
}

void EmitSample(std::string& out, const std::string& family,
                const std::string& labels, const std::string& value) {
  out += family;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

// ---------------------------------------------------------------------------
// Lint support
// ---------------------------------------------------------------------------

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool IsValidLabelName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool ParseFloatValue(const std::string& text) {
  if (text == "+Inf" || text == "-Inf" || text == "Inf" || text == "NaN") return true;
  if (text.empty()) return false;
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

struct SampleLine {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::string value;
};

/// Parses `name[{labels}] value [timestamp]`; returns an error Status naming
/// the offense so the lint test failure is actionable.
Status ParseSampleLine(const std::string& line, SampleLine& out) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out.name = line.substr(0, i);
  if (!IsValidMetricName(out.name)) {
    return Status::InvalidArgument("bad metric name: '" + out.name + "'");
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      if (eq == std::string::npos) {
        return Status::InvalidArgument("label without '=' in: " + line);
      }
      const std::string label = line.substr(i, eq - i);
      if (!IsValidLabelName(label)) {
        return Status::InvalidArgument("bad label name: '" + label + "'");
      }
      i = eq + 1;
      if (i >= line.size() || line[i] != '"') {
        return Status::InvalidArgument("unquoted label value in: " + line);
      }
      ++i;
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          ++i;
          if (i >= line.size()) {
            return Status::InvalidArgument("dangling escape in: " + line);
          }
          const char esc = line[i];
          if (esc != '\\' && esc != '"' && esc != 'n') {
            return Status::InvalidArgument("bad escape in label value: " + line);
          }
        }
        value.push_back(line[i]);
        ++i;
      }
      if (i >= line.size()) {
        return Status::InvalidArgument("unterminated label value in: " + line);
      }
      ++i;  // closing quote
      out.labels.emplace_back(label, value);
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) {
      return Status::InvalidArgument("unterminated label set in: " + line);
    }
    ++i;  // closing brace
  }
  if (i >= line.size() || line[i] != ' ') {
    return Status::InvalidArgument("missing value in: " + line);
  }
  ++i;
  std::size_t value_end = line.find(' ', i);
  if (value_end == std::string::npos) value_end = line.size();
  out.value = line.substr(i, value_end - i);
  if (!ParseFloatValue(out.value)) {
    return Status::InvalidArgument("non-numeric value '" + out.value +
                                   "' in: " + line);
  }
  // Anything after the value must be an integer timestamp.
  if (value_end < line.size()) {
    const std::string ts = line.substr(value_end + 1);
    if (ts.empty() ||
        !std::all_of(ts.begin(), ts.end(), [](char c) {
          return (c >= '0' && c <= '9') || c == '-';
        })) {
      return Status::InvalidArgument("trailing garbage after value in: " + line);
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Cluster breakdown
// ---------------------------------------------------------------------------

/// Local copy of the stage grouping (obs.cpp's lives in an anonymous
/// namespace and compiles out under VDB_OBS_DISABLED; this renderer must not).
std::string SnapshotStageOf(const std::string& span) {
  static constexpr const char* kStages[] = {"client", "router", "worker",
                                            "index", "storage"};
  for (const char* stage : kStages) {
    const std::string prefix = std::string(stage) + ".";
    if (span.rfind(prefix, 0) == 0) return stage;
  }
  return "other";
}

std::string FmtMsCell(double microseconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", microseconds / 1e3);
  return buf;
}

}  // namespace

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  if (worker != other.worker) worker = kNoWorker;
  if (pid != other.pid) pid = 0;
  if (epoch_unix_seconds != other.epoch_unix_seconds) epoch_unix_seconds = 0.0;
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, gauge] : other.gauges) {
    GaugeSnapshot& mine = gauges[name];
    mine.value += gauge.value;
    mine.max = std::max(mine.max, gauge.max);
    mine.window_max = std::max(mine.window_max, gauge.window_max);
  }
  for (const auto& [name, hist] : other.spans) spans[name].Merge(hist);
}

std::vector<std::uint8_t> EncodeMetricsSnapshot(const MetricsSnapshot& snapshot) {
  SnapshotImage image;
  image.worker = snapshot.worker;
  image.pid = snapshot.pid;
  image.epoch_unix_seconds = snapshot.epoch_unix_seconds;
  image.counters = snapshot.counters;
  image.gauges = snapshot.gauges;
  for (const auto& [name, hist] : snapshot.spans) {
    SpanImage& span = image.spans[name];
    span.count = hist.Count();
    span.sum = hist.Sum();
    span.min = hist.Min();
    span.max = hist.Max();
    span.layout = static_cast<std::uint32_t>(hist.NumBuckets());
    for (std::size_t b = 0; b < hist.NumBuckets(); ++b) {
      if (hist.BucketCount(b) == 0) continue;
      span.buckets.push_back({static_cast<std::uint32_t>(b), hist.BucketCount(b)});
    }
  }
  return Encode(image);
}

Result<MetricsSnapshot> DecodeMetricsSnapshot(
    std::span<const std::uint8_t> bytes) {
  SnapshotImage image;
  ReadArchive in(bytes);
  in(image.magic, image.version);
  if (!in.ok() || image.magic != kSnapshotMagic) {
    return Status::Corruption("metrics snapshot: bad magic");
  }
  if (image.version != kSnapshotVersion) {
    return Status::Corruption("metrics snapshot: unsupported version " +
                              std::to_string(image.version));
  }
  if (!Decode(bytes, image)) {
    return Status::Corruption("metrics snapshot: truncated or malformed");
  }
  MetricsSnapshot snapshot;
  snapshot.worker = image.worker;
  snapshot.pid = image.pid;
  snapshot.epoch_unix_seconds = image.epoch_unix_seconds;
  snapshot.counters = std::move(image.counters);
  snapshot.gauges = std::move(image.gauges);

  const std::size_t expected_buckets = LatencyHistogram().NumBuckets();
  for (auto& [name, span] : image.spans) {
    if (span.layout != expected_buckets) {
      return Status::Corruption(
          "metrics snapshot: span '" + name + "' has " + std::to_string(span.layout) +
          " buckets, this build expects " + std::to_string(expected_buckets));
    }
    std::vector<std::uint64_t> buckets(span.layout, 0);
    std::uint64_t bucket_total = 0;
    std::int64_t prev = -1;
    for (const BucketImage& bucket : span.buckets) {
      if (bucket.index >= span.layout ||
          static_cast<std::int64_t>(bucket.index) <= prev) {
        return Status::Corruption("metrics snapshot: span '" + name +
                                  "' has out-of-order or out-of-range bucket " +
                                  std::to_string(bucket.index));
      }
      prev = bucket.index;
      buckets[bucket.index] = bucket.count;
      bucket_total += bucket.count;
    }
    if (bucket_total != span.count) {
      return Status::Corruption(
          "metrics snapshot: span '" + name + "' bucket counts sum to " +
          std::to_string(bucket_total) + " but header says " +
          std::to_string(span.count));
    }
    snapshot.spans.emplace(name, LatencyHistogram::FromParts(
                                     std::move(buckets), span.count, span.sum,
                                     span.min, span.max));
  }
  return snapshot;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  const std::string worker_label = WorkerLabel(snapshot);
  // Distinct registry names can sanitize to the same Prometheus family
  // ("a.b" vs "a_b"); the first wins and later collisions are skipped so the
  // exposition never carries duplicate series.
  std::set<std::string> emitted;

  for (const auto& [name, value] : snapshot.counters) {
    const std::string family = "vdb_" + SanitizeMetricName(name) + "_total";
    if (!emitted.insert(family).second) continue;
    out += "# HELP " + family + " Counter " + name + " (vdb registry)\n";
    out += "# TYPE " + family + " counter\n";
    EmitSample(out, family, worker_label, std::to_string(value));
  }

  for (const auto& [name, gauge] : snapshot.gauges) {
    const std::string base = "vdb_" + SanitizeMetricName(name);
    if (!emitted.insert(base).second) continue;
    out += "# HELP " + base + " Gauge " + name + " current level\n";
    out += "# TYPE " + base + " gauge\n";
    EmitSample(out, base, worker_label, std::to_string(gauge.value));
    const std::string high = base + "_high_water";
    if (emitted.insert(high).second) {
      out += "# HELP " + high + " Gauge " + name + " lifetime high-water\n";
      out += "# TYPE " + high + " gauge\n";
      EmitSample(out, high, worker_label, std::to_string(gauge.max));
    }
    const std::string window = base + "_window_high_water";
    if (emitted.insert(window).second) {
      out += "# HELP " + window + " Gauge " + name + " scrape-window high-water\n";
      out += "# TYPE " + window + " gauge\n";
      EmitSample(out, window, worker_label, std::to_string(gauge.window_max));
    }
  }

  for (const auto& [name, hist] : snapshot.spans) {
    const std::string family = "vdb_" + SanitizeMetricName(name) + "_microseconds";
    if (!emitted.insert(family).second) continue;
    out += "# HELP " + family + " Span " + name + " latency summary (microseconds)\n";
    out += "# TYPE " + family + " summary\n";
    const char* quantiles[] = {"0.5", "0.9", "0.99"};
    const double qs[] = {0.5, 0.9, 0.99};
    for (int i = 0; i < 3; ++i) {
      std::string labels = "quantile=\"" + std::string(quantiles[i]) + "\"";
      if (!worker_label.empty()) labels = worker_label + "," + labels;
      EmitSample(out, family, labels, FmtValue(hist.Quantile(qs[i])));
    }
    EmitSample(out, family + "_sum", worker_label, FmtValue(hist.Sum()));
    EmitSample(out, family + "_count", worker_label,
               std::to_string(hist.Count()));
  }
  return out;
}

Status LintPrometheusText(const std::string& text) {
  std::set<std::string> helped;
  std::set<std::string> typed;
  std::set<std::string> sampled_families;
  std::set<std::string> series;
  // family -> declared type ("counter"/"gauge"/"summary"/"histogram"/"untyped")
  std::map<std::string, std::string> family_type;

  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP <name> <docstring>" / "# TYPE <name> <type>" / free comment.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_type = line[2] == 'T';
        const std::string rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        const std::string family = rest.substr(0, space);
        if (!IsValidMetricName(family)) {
          return Status::InvalidArgument("bad family name in: " + line);
        }
        if (is_type) {
          if (space == std::string::npos) {
            return Status::InvalidArgument("TYPE without a type: " + line);
          }
          const std::string type = rest.substr(space + 1);
          if (type != "counter" && type != "gauge" && type != "summary" &&
              type != "histogram" && type != "untyped") {
            return Status::InvalidArgument("unknown type '" + type +
                                           "' in: " + line);
          }
          if (!typed.insert(family).second) {
            return Status::InvalidArgument("duplicate TYPE for " + family);
          }
          if (sampled_families.count(family)) {
            return Status::InvalidArgument("TYPE for " + family +
                                           " after its samples");
          }
          family_type[family] = type;
        } else {
          if (!helped.insert(family).second) {
            return Status::InvalidArgument("duplicate HELP for " + family);
          }
        }
      }
      continue;
    }

    SampleLine sample;
    VDB_RETURN_IF_ERROR(ParseSampleLine(line, sample));

    // Resolve the sample to a declared family: its own name, or — for
    // summary/histogram children — the name minus _sum/_count/_bucket.
    std::string family;
    if (family_type.count(sample.name)) {
      family = sample.name;
    } else {
      for (const char* suffix : {"_sum", "_count", "_bucket"}) {
        const std::size_t len = std::strlen(suffix);
        if (sample.name.size() > len &&
            sample.name.compare(sample.name.size() - len, len, suffix) == 0) {
          const std::string base = sample.name.substr(0, sample.name.size() - len);
          auto it = family_type.find(base);
          if (it != family_type.end() &&
              (it->second == "summary" || it->second == "histogram")) {
            family = base;
            break;
          }
        }
      }
    }
    if (family.empty()) {
      return Status::InvalidArgument("sample '" + sample.name +
                                     "' has no TYPE declaration");
    }
    if (!helped.count(family)) {
      return Status::InvalidArgument("family " + family + " has no HELP");
    }
    sampled_families.insert(family);

    std::sort(sample.labels.begin(), sample.labels.end());
    std::string key = sample.name;
    for (const auto& [label, value] : sample.labels) {
      key += '|' + label + '=' + value;
    }
    if (!series.insert(key).second) {
      return Status::InvalidArgument("duplicate series: " + line);
    }
  }
  return Status::Ok();
}

std::string RenderClusterStageBreakdown(
    const std::vector<MetricsSnapshot>& per_worker) {
  MetricsSnapshot merged;
  for (const auto& snapshot : per_worker) merged.Merge(snapshot);

  TextTable table("cluster per-stage breakdown (" +
                  std::to_string(per_worker.size()) + " workers; '*' = p99 > 1.5x median)");
  std::vector<std::string> header = {"stage", "span", "calls", "total s",
                                     "p99 ms"};
  for (std::size_t w = 0; w < per_worker.size(); ++w) {
    const std::uint32_t id = per_worker[w].worker;
    header.push_back(id == kNoWorker ? "p" + std::to_string(w) + " p99"
                                     : "w" + std::to_string(id) + " p99");
  }
  table.SetHeader(std::move(header));

  const char* all_stages[] = {"client", "router", "worker",
                              "index",  "storage", "other"};
  for (const char* stage : all_stages) {
    std::uint64_t stage_calls = 0;
    double stage_seconds = 0.0;
    bool any = false;
    for (const auto& [name, hist] : merged.spans) {
      if (SnapshotStageOf(name) != stage) continue;
      if (hist.Count() == 0) continue;
      any = true;
      stage_calls += hist.Count();
      stage_seconds += hist.Sum() / 1e6;

      // Per-worker p99 cells; the straggler mark compares against the median
      // across workers that actually ran this span.
      std::vector<double> p99s(per_worker.size(), -1.0);
      std::vector<double> nonzero;
      for (std::size_t w = 0; w < per_worker.size(); ++w) {
        auto it = per_worker[w].spans.find(name);
        if (it == per_worker[w].spans.end() || it->second.Count() == 0) continue;
        p99s[w] = it->second.Quantile(0.99);
        nonzero.push_back(p99s[w]);
      }
      double median = 0.0;
      if (!nonzero.empty()) {
        std::sort(nonzero.begin(), nonzero.end());
        median = nonzero[nonzero.size() / 2];
      }

      std::vector<std::string> row = {
          stage, name, TextTable::Int(static_cast<std::int64_t>(hist.Count())),
          TextTable::Num(hist.Sum() / 1e6, 3), FmtMsCell(hist.Quantile(0.99))};
      for (std::size_t w = 0; w < per_worker.size(); ++w) {
        if (p99s[w] < 0.0) {
          row.push_back("-");
          continue;
        }
        std::string cell = FmtMsCell(p99s[w]);
        if (nonzero.size() >= 2 && median > 0.0 && p99s[w] > 1.5 * median) {
          cell += "*";
        }
        row.push_back(std::move(cell));
      }
      table.AddRow(std::move(row));
    }
    if (any) {
      std::vector<std::string> total = {
          stage, "(stage total)",
          TextTable::Int(static_cast<std::int64_t>(stage_calls)),
          TextTable::Num(stage_seconds, 3), "-"};
      for (std::size_t w = 0; w < per_worker.size(); ++w) total.push_back("-");
      table.AddRow(std::move(total));
    } else if (std::string(stage) != "other") {
      std::vector<std::string> row = {stage, "-", "0", "0.000", "-"};
      for (std::size_t w = 0; w < per_worker.size(); ++w) row.push_back("-");
      table.AddRow(std::move(row));
    }
  }
  return table.Render();
}

#ifndef VDB_OBS_DISABLED

MetricsSnapshot CaptureMetricsSnapshot(bool reset_windows) {
  MetricsSnapshot snapshot;
  snapshot.pid = ProcessId();
  snapshot.epoch_unix_seconds = EpochUnixSeconds();
  MetricsRegistry& registry = MetricsRegistry::Instance();
  for (auto& [name, value] : registry.CounterValues()) {
    snapshot.counters[name] = value;
  }
  for (auto& [name, gauge] : registry.GaugeSamples(reset_windows)) {
    snapshot.gauges[name] = GaugeSnapshot{gauge.value, gauge.max,
                                          gauge.window_max};
  }
  for (auto& [name, hist] : registry.SpanHistograms()) {
    snapshot.spans.emplace(name, std::move(hist));
  }
  return snapshot;
}

#endif  // VDB_OBS_DISABLED

}  // namespace vdb::obs
