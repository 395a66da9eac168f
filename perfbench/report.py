"""Turns the raw record written by perfbench_e2e into the benchmark's metrics.

Every statistic the benchmark reports is computed here, from raw samples:
percentiles under the tail rule, the peel's self times and residual, and the
end-to-end and per-layer metric tables. Result records (the printed result
plus the host fingerprint) are written and read back through this module too.
"""

import json
import math
from pathlib import Path

# Percentiles the tail rule may pick from, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

# Recall@10 below these floors fails the run (speed bought with quality).
RECALL_FLOOR = {"search_tcp": 0.95, "search_batch_sq8": 0.90, "ingest_mixed": 0.95}

# Peel chains, outermost entry first: (entry span, name of its self row). An
# entry's self time is its time minus the time of the entry below it; the last
# entry is a leaf whose self time is its whole time.
SEARCH_CHAIN = (
    ("router.search", "router.self"),
    ("rpc.entry_call", "worker.fanout_self"),
    ("rpc.local_call", "rpc.transport_self"),
    ("worker.handle_local", "worker.dispatch_self"),
    ("collection.search", "collection.search"),
)
# The write-path rows share their leaf: durable and in-memory-indexed upserts
# each differ from the deferred in-memory upsert by one layer.
STORAGE_CHAIN = (
    ("collection.upsert_durable", "storage.self"),
    ("collection.upsert_deferred", "collection.upsert_deferred"),
)
INDEX_CHAIN = (
    ("collection.upsert_mem", "index.insert_self"),
    ("collection.upsert_deferred", "collection.upsert_deferred"),
)

KERNEL_ISAS = ("scalar", "avx2", "avx512")

# Throughput is the median over slices of this many seconds, so a burst of
# host contention that covers a few slices does not move it.
SLICE_S = 2.0

RESULT_SCHEMA = 1


def percentile(samples, pct):
    """Linear-interpolated percentile (0..100) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples):
    return percentile(samples, 50.0)


def tail_percentile(samples, highest=99.0):
    """The highest percentile (up to `highest`) with at least MIN_BEYOND
    samples beyond it, as (percentile, value). Falls back to the median when
    the sample is too small for any tail."""
    n = len(samples)
    for pct in PERCENTILE_LADDER:
        if pct > highest:
            continue
        beyond = n - math.ceil(n * pct / 100.0)
        if beyond >= MIN_BEYOND:
            return pct, percentile(samples, pct)
    return 50.0, median(samples)


def slice_rate(done_s, items, window_s, slice_s=SLICE_S):
    """Items completed per second: the median over the whole `slice_s` slices
    of [0, window_s) of each slice's completions. `done_s` holds each call's
    completion time; `items` (the total) is spread evenly over the calls."""
    if not done_s:
        return 0.0
    slices = max(1, int(window_s // slice_s))
    counts = [0] * slices
    for t in done_s:
        if 0 <= t < slices * slice_s:
            counts[int(t // slice_s)] += 1
    per_call = items / len(done_s)
    return median([c * per_call / slice_s for c in counts])


def group_spans(spans):
    """[[input, layer, value], ...] -> {layer: {input: value}}."""
    by_layer = {}
    for input_id, layer, value in spans:
        by_layer.setdefault(layer, {})[input_id] = value
    return by_layer


def self_times(by_layer, chain):
    """Per-input self time of every entry in `chain`, over the inputs that
    have a span for every entry. Returns {self name: [values]}."""
    entries = [entry for entry, _ in chain]
    inputs = set.intersection(*(set(by_layer.get(e, {})) for e in entries))
    rows = {name: [] for _, name in chain}
    for input_id in sorted(inputs):
        for i, (entry, name) in enumerate(chain):
            value = by_layer[entry][input_id]
            if i + 1 < len(chain):
                value -= by_layer[chain[i + 1][0]][input_id]
            rows[name].append(value)
    return rows


def peel_rows(spans, chain):
    """Medians of each entry and each self row of `chain`, plus the residual:
    the outermost entry's median minus the sum of the self rows' medians.
    Self rows plus the residual add up to the outermost entry exactly."""
    by_layer = group_spans(spans)
    selves = self_times(by_layer, chain)
    if not selves[chain[0][1]]:
        raise ValueError("no peel input has a span for every entry of the chain")
    entries = {entry: median(list(by_layer[entry].values())) for entry, _ in chain}
    self_medians = {name: median(values) for name, values in selves.items()}
    residual = entries[chain[0][0]] - sum(self_medians.values())
    return entries, self_medians, residual


# ---- metrics ---------------------------------------------------------------


def _rate(log):
    return slice_rate(log["done_s"], log["items"], log["seconds"])


def _ops(record):
    """Every client-visible operation of the run: (attempted, failed)."""
    logs = [record["setup_upserts"], record["builds"], record["discarded"],
            record["load"]["search"], record["load"]["upsert"]]
    if "traced_load" in record:
        logs += [record["traced_load"]["search"], record["traced_load"]["upsert"]]
    return sum(int(l["attempted"]) for l in logs), sum(int(l["failed"]) for l in logs)


def end_to_end(record):
    """{name: (value, unit, note)} for a --trace 0 record."""
    load = record["load"]
    ingest = record["workload"] == "ingest_mixed"
    search = load["search"]
    upserts = load["upsert"] if ingest else record["setup_upserts"]
    calls = len(search["latency"])
    p_search, search_tail = tail_percentile(search["latency"])
    p_upsert, upsert_tail = tail_percentile(upserts["latency"])
    attempted, failed = _ops(record)
    checks = record["checks"]
    build = load["index_build_s"] if ingest else median(record["index_build_s"])
    if ingest:
        upsert_rate = (_rate(upserts), "writer, median of 2 s slices")
    else:
        rates = record["setup_upsert_rate"]
        upsert_rate = (median(rates), f"set-up bulk load, median of {len(rates)}")
    return {
        "search_qps": (_rate(search), "1/s",
                       f"{int(search['items'])} queries, median of 2 s slices"),
        "search_p50_us": (median(search["latency"]), "us", f"p50 of {calls} calls"),
        "search_p99_us": (search_tail, "us", f"p{p_search:g} of {calls} calls"),
        "upsert_pts_per_s": (upsert_rate[0], "pts/s",
                             f"{int(upserts['items'])} points, {upsert_rate[1]}"),
        "upsert_p50_ms": (median(upserts["latency"]), "ms",
                          f"p50 of {len(upserts['latency'])} batches"),
        "upsert_p99_ms": (upsert_tail, "ms",
                          f"p{p_upsert:g} of {len(upserts['latency'])} batches"),
        "recall_at_10": (checks["recall_hits"] / checks["recall_total"], "ratio",
                         f"{int(checks['recall_total'])} ids checked"),
        "setup_s": (median(record["setup_s"]), "s", f"median of {len(record['setup_s'])}"),
        "index_build_s": (build, "s", "time to the first 32768 acked points" if ingest
                          else f"median of {len(record['index_build_s'])} builds"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", "VmHWM"),
        "stored_bytes_per_user_byte": (record["stored_bytes"] / record["user_bytes"], "ratio",
                                       "on disk" if ingest else "in memory"),
        "success_rate": ((attempted - failed) / attempted, "ratio",
                         f"{attempted - failed} of {attempted} calls"),
    }


def per_layer(record):
    """{name: (value, unit, note)} for a --trace 1 record."""
    peel = record["peel"]
    spans = peel["spans"]
    by_layer = group_spans(spans)
    scalars = peel["scalars"]
    traced = record["traced_load"]
    untraced = record["load"]
    ingest = record["workload"] == "ingest_mixed"

    def med(layer):
        return median(list(by_layer[layer].values()))

    # Slowest of the four peer-local calls over their median, per input.
    peers = [by_layer[f"rpc.local_call.w{w}"] for w in range(4)]
    straggler = [max(p[i] for p in peers) / median([p[i] for p in peers]) for i in peers[0]]

    entries, selves, residual = peel_rows(spans, SEARCH_CHAIN)
    s_entries, s_selves, _ = peel_rows(spans, STORAGE_CHAIN)
    i_entries, i_selves, _ = peel_rows(spans, INDEX_CHAIN)
    queries = traced["search"]["items"]
    # Throughput the tracing could cost: search for search workloads, the
    # writer's for ingest_mixed.
    primary = "upsert" if ingest else "search"
    base, with_trace = _rate(untraced[primary]), _rate(traced[primary])
    n = len(by_layer["router.search"])
    rows = {
        "router.search_us": (entries["router.search"], "us", f"peel, {n} inputs"),
        "router.self_us": (selves["router.self"], "us", "router.search - rpc.entry_call"),
        "router.queue_wait_us": (median(traced["search"]["latency"]) - entries["router.search"],
                                 "us", "p50 under load - p50 idle"),
        "rpc.entry_call_us": (entries["rpc.entry_call"], "us", "Transport::Call, fan_out"),
        "rpc.local_call_us": (entries["rpc.local_call"], "us", "peer-local endpoint"),
        "rpc.transport_self_us": (selves["rpc.transport_self"], "us",
                                  "rpc.local_call - worker.handle_local"),
        "worker.fanout_self_us": (selves["worker.fanout_self"], "us",
                                  "rpc.entry_call - rpc.local_call"),
        "worker.straggler_ratio": (median(straggler), "ratio", "max/median of 4 local calls"),
        "worker.handle_local_us": (entries["worker.handle_local"], "us", "Worker::Handle"),
        "worker.dispatch_self_us": (selves["worker.dispatch_self"], "us",
                                    "worker.handle_local - collection.search"),
        "collection.search_us": (selves["collection.search"], "us", "one shard, per call"),
        "residual_us": (residual, "us", "router.search_us - sum of self rows"),
        "rpc.calls_per_query": (traced["rpc_calls"] / queries, "count", "traced load"),
        "rpc.bytes_per_query": (traced["rpc_bytes"] / queries, "B", "traced load"),
        "worker.peer_calls_per_query": (traced["peer_calls"] / queries, "count", "traced load"),
        "codec.search_roundtrip_us": (med("codec.search_roundtrip"), "us", "per call"),
        "codec.upsert_encode_us": (med("codec.upsert_encode"), "us", "256 points"),
        "codec.upsert_decode_us": (med("codec.upsert_decode"), "us", "256 points"),
        "index.fanout1_us": (med("index.fanout1"), "us", "one query, intra_fanout 1"),
        "index.fanoutN_us": (med("index.fanoutN"), "us", "one query, intra_fanout nproc"),
        "index.build_shard_s": (scalars["index.build_shard_s"], "s", "one standalone shard"),
        "collection.upsert_durable_ms": (s_entries["collection.upsert_durable"], "ms",
                                         "256 points, WAL, deferred indexing"),
        "collection.upsert_mem_ms": (i_entries["collection.upsert_mem"], "ms",
                                     "256 points, incremental HNSW"),
        "collection.upsert_deferred_ms": (s_entries["collection.upsert_deferred"], "ms",
                                          "256 points, deferred indexing"),
        "storage.self_ms": (s_selves["storage.self"], "ms", "durable - deferred"),
        "index.insert_self_ms": (i_selves["index.insert_self"], "ms", "in-memory - deferred"),
        "storage.flush_ms": (med("storage.flush"), "ms", "512 new points per flush"),
        "storage.segments_flushed": (scalars["storage.segments_flushed"], "count", "cluster"),
        "storage.wal_bytes_per_user_byte": (scalars["storage.wal_bytes_per_user_byte"], "ratio",
                                            "cluster"),
        "collection.memory_bytes_per_point": (scalars["collection.memory_bytes_per_point"], "B",
                                              "cluster"),
        "trace.overhead_pct": ((base / with_trace - 1.0) * 100.0 if with_trace > 0 else 0.0, "%",
                               f"{primary} throughput, untraced vs traced"),
    }
    for kernel in ("dot_rows", "dot_u8q_blocked"):
        for isa in KERNEL_ISAS:
            name = f"dist.{kernel}_gbps.{isa}"
            # An ISA this host or build lacks reads 0.
            rows[name] = (med(name) if name in by_layer else 0.0, "GB/s",
                          "768-d, shard-sized rows")
    return rows


def checks_pass(record):
    """(ok, reasons) for the output checks of a record."""
    checks = record["checks"]
    reasons = []
    for key in ("bad_results", "lost_acked", "unindexed"):
        if checks[key] != 0:
            reasons.append(f"{key}={int(checks[key])}")
    if checks["recall_total"] <= 0:
        reasons.append("no recall sample")
    else:
        recall = checks["recall_hits"] / checks["recall_total"]
        floor = RECALL_FLOOR[record["workload"]]
        if recall < floor:
            reasons.append(f"recall_at_10={recall:.4f} below floor {floor}")
    if record["workload"] == "ingest_mixed" and record["load"]["index_build_s"] <= 0:
        reasons.append("ingest never reached 32768 acked points")
    return not reasons, reasons


def summarize(record):
    """The printed result object for a raw record, plus notes per metric."""
    rows = per_layer(record) if record["trace"] else end_to_end(record)
    ok, reasons = checks_pass(record)
    attempted, failed = _ops(record)
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()},
    }
    notes = {name: note for name, (_, _, note) in rows.items()}
    return result, notes, reasons


# ---- records ---------------------------------------------------------------


def read_record(path):
    """Loads the raw record perfbench_e2e wrote."""
    with open(path, encoding="utf-8") as f:
        record = json.load(f)
    for key in ("workload", "trace", "fingerprint", "load", "checks", "setup_s"):
        if key not in record:
            raise ValueError(f"raw record {path} lacks '{key}'")
    return record


def validate_result(result):
    """Raises ValueError unless `result` has the printed result's shape."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} must be a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("attempted must be >= 1 and failed within it")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["unit"], str):
            raise ValueError(f"metric {name} must have exactly value and unit")
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} value {value!r} is not a finite number")


def write_result(path, workload, seed, trace, fingerprint, result, notes):
    """Writes a result record: the printed result, its notes and the host
    fingerprint. Results are only comparable when fingerprints are equal."""
    validate_result(result)
    record = {
        "schema": RESULT_SCHEMA,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "fingerprint": fingerprint,
        "result": result,
        "notes": notes,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)


def read_result(path):
    """Reads a result record back, checking its schema and result shape."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("schema") != RESULT_SCHEMA:
        raise ValueError(f"{path}: unknown schema {record.get('schema')!r}")
    for key in ("workload", "seed", "trace", "fingerprint", "result", "notes"):
        if key not in record:
            raise ValueError(f"{path}: lacks '{key}'")
    validate_result(record["result"])
    return record
