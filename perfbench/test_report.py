"""Unit tests for the benchmark's own helpers (report.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import tempfile
import unittest
from pathlib import Path

import report

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TailPercentileTest(unittest.TestCase):
    def test_picks_p99_only_with_ten_samples_beyond(self):
        self.assertEqual(report.tail_percentile(list(range(1000)))[0], 99.0)
        # 999 samples leave 9 beyond p99, so the rule steps down to p95.
        self.assertEqual(report.tail_percentile(list(range(999)))[0], 95.0)
        self.assertEqual(report.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(report.tail_percentile(list(range(20)))[0], 50.0)

    def test_never_reports_above_the_requested_ceiling(self):
        pct, _ = report.tail_percentile(list(range(100000)), highest=99.0)
        self.assertEqual(pct, 99.0)
        pct, _ = report.tail_percentile(list(range(100000)), highest=99.9)
        self.assertEqual(pct, 99.9)

    def test_tiny_sample_falls_back_to_median(self):
        self.assertEqual(report.tail_percentile([5.0, 1.0, 3.0]), (50.0, 3.0))

    def test_value_interpolates(self):
        samples = [float(v) for v in range(1, 1001)]
        pct, value = report.tail_percentile(samples)
        self.assertEqual(pct, 99.0)
        self.assertAlmostEqual(value, 990.01)
        self.assertAlmostEqual(report.median([4.0, 1.0, 3.0, 2.0]), 2.5)


def chain_spans(inputs):
    """Peel spans for SEARCH_CHAIN from {input: [entry times, outermost first]}."""
    spans = []
    for input_id, times in inputs.items():
        for (entry, _), value in zip(report.SEARCH_CHAIN, times):
            spans.append([input_id, entry, value])
    return spans


class SliceRateTest(unittest.TestCase):
    def test_median_over_whole_slices(self):
        # 10 calls in [0, 2), 2 in [2, 4), 6 in [4, 6); 6.5 s window -> 3 slices.
        done = [0.1] * 10 + [2.5] * 2 + [5.0] * 6 + [6.2]
        self.assertEqual(report.slice_rate(done, len(done), 6.5), 3.0)
        # A batch call counts all its items.
        self.assertEqual(report.slice_rate(done, 16 * len(done), 6.5), 48.0)

    def test_a_stalled_slice_does_not_move_the_median(self):
        steady = [i * 0.01 for i in range(1000)]  # 100 per second for 10 s
        stalled = [t for t in steady if not 2.0 <= t < 4.0]
        self.assertEqual(report.slice_rate(steady, 1000, 10.0), 100.0)
        self.assertEqual(report.slice_rate(stalled, len(stalled), 10.0), 100.0)

    def test_empty_log_is_zero(self):
        self.assertEqual(report.slice_rate([], 0, 20.0), 0.0)


class PeelTest(unittest.TestCase):
    def test_self_time_is_entry_minus_the_entry_below(self):
        spans = chain_spans({1: [100.0, 80.0, 50.0, 40.0, 30.0]})
        entries, selves, residual = report.peel_rows(spans, report.SEARCH_CHAIN)
        self.assertEqual(selves, {"router.self": 20.0, "worker.fanout_self": 30.0,
                                  "rpc.transport_self": 10.0, "worker.dispatch_self": 10.0,
                                  "collection.search": 30.0})
        self.assertEqual(entries["router.search"], 100.0)
        self.assertEqual(residual, 0.0)

    def test_residual_closes_the_sum_when_medians_do_not_add(self):
        spans = chain_spans({
            1: [100.0, 90.0, 50.0, 40.0, 30.0],
            2: [200.0, 120.0, 110.0, 60.0, 10.0],
            3: [150.0, 100.0, 70.0, 65.0, 50.0],
        })
        entries, selves, residual = report.peel_rows(spans, report.SEARCH_CHAIN)
        self.assertNotEqual(residual, 0.0)
        self.assertAlmostEqual(sum(selves.values()) + residual, entries["router.search"])

    def test_inputs_missing_an_entry_are_skipped(self):
        spans = chain_spans({1: [100.0, 80.0, 50.0, 40.0, 30.0],
                             2: [900.0, 800.0, 500.0, 400.0, 300.0]})
        spans = [s for s in spans if not (s[0] == 2 and s[1] == "worker.handle_local")]
        selves = report.self_times(report.group_spans(spans), report.SEARCH_CHAIN)
        self.assertEqual(selves["router.self"], [20.0])

    def test_no_complete_input_is_an_error(self):
        with self.assertRaises(ValueError):
            report.peel_rows([[1, "router.search", 5.0]], report.SEARCH_CHAIN)


def ok_result():
    return {"correct": True, "attempted": 12, "failed": 1,
            "metrics": {"search_qps": {"value": 1804.25, "unit": "1/s"}}}


class ResultRecordTest(unittest.TestCase):
    def test_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "results" / "search_tcp-seed1-trace0.json"
            fingerprint = {"cpu_model": "x", "dist_isa": "avx512"}
            report.write_result(path, "search_tcp", 1, 0, fingerprint, ok_result(),
                                {"search_qps": "9022 queries"})
            back = report.read_result(path)
        self.assertEqual(back["result"], ok_result())
        self.assertEqual(back["fingerprint"], fingerprint)
        self.assertEqual((back["workload"], back["seed"], back["trace"]), ("search_tcp", 1, 0))

    def test_rejects_malformed_results(self):
        bad = []
        for mutate in (
                lambda r: r.pop("failed"),
                lambda r: r.update(attempted=0),
                lambda r: r.update(correct="yes"),
                lambda r: r.update(attempted=3.0),
                lambda r: r["metrics"]["search_qps"].update(value=math.nan),
                lambda r: r["metrics"]["search_qps"].pop("unit"),
        ):
            result = ok_result()
            mutate(result)
            bad.append(result)
        for result in bad:
            with self.assertRaises(ValueError):
                report.validate_result(result)

    def test_read_rejects_unknown_schema(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.json"
            report.write_result(path, "search_tcp", 1, 0, {}, ok_result(), {})
            record = json.loads(path.read_text())
            record["schema"] = 99
            path.write_text(json.dumps(record))
            with self.assertRaises(ValueError):
                report.read_result(path)


def fake_record(workload, trace):
    """A raw record shaped like perfbench_e2e's, with small made-up samples."""
    log = {"latency": [float(v) for v in range(1, 41)], "done_s": [v / 10 for v in range(40)],
           "attempted": 40, "failed": 0, "items": 40, "seconds": 4.0}
    load = {"search": log, "upsert": log, "index_build_s": 3.5, "spans": [],
            "rpc_calls": 160, "rpc_bytes": 64000, "peer_calls": 120}
    record = {"workload": workload, "seed": 1, "trace": trace, "seconds": 2,
              "fingerprint": {}, "load": load, "setup_s": [1.0, 2.0, 3.0],
              "index_build_s": [0.5, 0.6, 0.7], "setup_upsert_rate": [9.0, 8.0, 7.0],
              "setup_upserts": log,
              "builds": {"latency": [], "attempted": 3, "failed": 0, "items": 0,
                         "seconds": 0.0},
              "discarded": {"latency": [], "attempted": 5, "failed": 0, "items": 0,
                            "seconds": 0.0},
              "checks": {"bad_results": 0, "lost_acked": 0, "unindexed": 0,
                         "recall_hits": 98, "recall_total": 100},
              "peak_rss_mb": 300.0, "stored_bytes": 1100, "user_bytes": 1000}
    if trace:
        spans = chain_spans({i: [100.0 + i, 80.0, 50.0, 40.0, 30.0] for i in range(1, 5)})
        for i in range(1, 5):
            spans += [[i, "collection.upsert_durable", 3.0], [i, "collection.upsert_mem", 2.5],
                      [i, "collection.upsert_deferred", 0.5]]
            for layer in ("codec.search_roundtrip", "codec.upsert_encode",
                          "codec.upsert_decode", "index.fanout1", "index.fanoutN",
                          "storage.flush", "dist.dot_rows_gbps.avx2"):
                spans.append([i, layer, 1.0 + i])
            for w, value in enumerate((50.0, 40.0, 60.0, 100.0)):
                spans.append([i, f"rpc.local_call.w{w}", value])
        record["traced_load"] = load
        record["peel"] = {"spans": spans, "scalars": {
            "index.build_shard_s": 1.2, "storage.segments_flushed": 0.0,
            "storage.wal_bytes_per_user_byte": 1.01,
            "collection.memory_bytes_per_point": 3600.0}}
    return record


class SummarizeTest(unittest.TestCase):
    def test_metric_names_match_the_benchmark_declaration(self):
        declared = json.loads(BENCHMARK_JSON.read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = {m["name"] for m in declared[key]}
            units = {m["name"]: m["unit"] for m in declared[key]}
            for workload in report.RECALL_FLOOR:
                result, _, _ = report.summarize(fake_record(workload, trace))
                report.validate_result(result)
                self.assertEqual(set(result["metrics"]), names, (workload, key))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], units[name], name)

    def test_checks_fail_the_run(self):
        record = fake_record("search_tcp", 0)
        self.assertTrue(report.summarize(record)[0]["correct"])
        record["checks"]["lost_acked"] = 2
        result, _, reasons = report.summarize(record)
        self.assertFalse(result["correct"])
        self.assertIn("lost_acked=2", reasons)
        record = fake_record("search_batch_sq8", 0)
        record["checks"]["recall_hits"] = 50
        self.assertFalse(report.summarize(record)[0]["correct"])

    def test_failed_calls_count_against_success_rate(self):
        record = fake_record("ingest_mixed", 0)
        record["load"]["upsert"] = dict(record["load"]["upsert"], attempted=41, failed=1)
        result, _, _ = report.summarize(record)
        self.assertEqual(result["failed"], 1)
        rate = result["metrics"]["success_rate"]["value"]
        self.assertAlmostEqual(rate, 1.0 - 1.0 / result["attempted"])

    def test_straggler_ratio_is_slowest_over_median_peer(self):
        result, _, _ = report.summarize(fake_record("search_tcp", 1))
        self.assertAlmostEqual(result["metrics"]["worker.straggler_ratio"]["value"], 100.0 / 55.0)
        # ISAs the host lacks read 0.
        self.assertEqual(result["metrics"]["dist.dot_rows_gbps.avx512"]["value"], 0.0)

    def test_peel_rows_add_up_to_router_search(self):
        result, _, _ = report.summarize(fake_record("search_tcp", 1))
        m = {k: v["value"] for k, v in result["metrics"].items()}
        selves = (m["router.self_us"] + m["worker.fanout_self_us"] + m["rpc.transport_self_us"]
                  + m["worker.dispatch_self_us"] + m["collection.search_us"])
        self.assertAlmostEqual(selves + m["residual_us"], m["router.search_us"])


if __name__ == "__main__":
    unittest.main()
