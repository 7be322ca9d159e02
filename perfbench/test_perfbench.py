"""Tests of the benchmark itself (no simulator build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import tempfile
import unittest
import zlib
from pathlib import Path

import checks
import run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

CLI_OUTPUT = b"""scenario=grid nodes=16 threads=1 simulated=0.500s
events processed:  44213
frames sent:       452
frames delivered:  1134 (collisions 85)
EP ISRs:           3487
uC wakeups:        16
packets at sink:   55 (origins 14, max depth 6)

channel.framesSent                 452  # frames put on the air
node0.radio.framesSent              30  # frames transmitted
node1.radio.framesSent              28  # frames transmitted
"""


def ulpbench_result(**over):
    """A plausible `ulpbench run --layers` result."""
    r = {"nodes": 16, "threads": 1, "parse_s": 3e-4,
         "lower_s": 1e-4, "log_open_s": 0.0, "network_s": 2.5e-3,
         "sleep_s": 1e-5, "setup_s": 3e-3, "run_s": 1e-2, "cpu_run_s": 1e-2,
         "finish_s": 0.0, "sim_s": 1e-2, "dump_s": 1e-3, "teardown_s": 1e-4,
         "wall_s": 1.5e-2, "rss_network_kb": 900, "peak_rss_kb": 13000,
         "events": 44213, "sent": 452, "delivered": 1134, "collisions": 85,
         "ep_isrs": 3487, "wakeups": 16, "fabric_linked": 0,
         "fabric_drops": 0, "sink_packets": 55, "trace_records": 0,
         "trace_dropped": 0, "stats_crc": 1, "stats_bytes": 1,
         "stats_lines": 3, "firmware_s": 1.5e-3,
         "spatial_model_s": 2e-5, "partition_s": 0.0, "layers_s": 2e-3,
         "warn_lines": 0}
    r.update(over)
    return r


class MetricNames(unittest.TestCase):
    def test_names_match_the_allowed_alphabet(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER) + \
                list(run.WORKLOADS):
            self.assertRegex(name, NAME)


class EmittedMetrics(unittest.TestCase):
    """Every workload reports every end-to-end metric, non-zero, and its
    per-layer figures use only declared names."""

    def single_run(self, layers, traced, parallel=False):
        r = ulpbench_result(trace_records=10, trace_bytes=240)
        e = {"wall_s": 1.0, "read_s": 0.2, "export_s": 0.8,
             "peak_rss_kb": 200000, "chrome_bytes": 5000} if traced else None
        u = ulpbench_result() if traced else None
        p = ulpbench_result(threads=2, run_s=5e-3, cpu_run_s=9e-3,
                            partition_s=1e-5) if parallel else None
        return run.SingleRun.figures(r, e, u, layers, p)

    def ensemble(self):
        return run.Ensemble.figures(1.7, 13000, 0.005, 4000, 3e-3,
                                    [12.0, 13.0, 15.0])

    def test_end_to_end_on_every_workload(self):
        for figures in (self.single_run(False, False),
                        self.single_run(False, True), self.ensemble()):
            for name in run.END_TO_END:
                self.assertGreater(figures[name], 0, name)

    def test_layer_figures_are_declared(self):
        declared = set(run.END_TO_END) | set(run.PER_LAYER)
        for figures in (self.single_run(True, False),
                        self.single_run(True, True),
                        self.single_run(True, False, parallel=True)):
            self.assertLessEqual(set(figures), declared)

    def test_traced_run_reports_the_parallel_run(self):
        figures = self.single_run(True, False, parallel=True)
        self.assertEqual(figures["sim.parallel_run_s"], 5e-3)
        self.assertAlmostEqual(figures["sim.parallel_speedup"], 2.0)
        self.assertEqual(figures["core.partition_s"], 1e-5)
        self.assertNotIn("sim.parallel_run_s", self.single_run(True, False))

    def test_traced_run_reports_the_untraced_broadcast_run(self):
        figures = self.single_run(True, True)
        self.assertEqual(figures["net.broadcast_run_s"], 1e-2)
        self.assertAlmostEqual(figures["net.broadcast_events_per_host_s"],
                               44213 / 1e-2)
        self.assertNotIn("net.broadcast_run_s", self.single_run(True, False))

    def test_aggregate_reports_exactly_the_table(self):
        samples = [self.single_run(True, True), self.single_run(True, True)]
        table = run.aggregate(samples, run.PER_LAYER)
        self.assertEqual(list(table), list(run.PER_LAYER))
        self.assertEqual(table["campaign.expand_s"], (0.0, 0.0, 0.0))


class CorrectnessChecker(unittest.TestCase):
    def test_parses_cli_counters(self):
        counters, dump = checks.parse_cli_run(CLI_OUTPUT)
        self.assertEqual(counters["events"], 44213)
        self.assertEqual(counters["collisions"], 85)
        self.assertEqual(counters["sink_packets"], 55)
        self.assertEqual(counters["fabric_linked"], 0)
        self.assertTrue(dump.startswith(b"channel.framesSent"))
        self.assertEqual(checks.compare_counters(counters,
                                                 ulpbench_result()), [])
        self.assertTrue(checks.compare_counters(
            counters, ulpbench_result(sent=451)))

    def test_rejects_a_dump_with_one_altered_line(self):
        _, dump = checks.parse_cli_run(CLI_OUTPUT)
        altered = dump.replace(b"node1.radio.framesSent              28",
                               b"node1.radio.framesSent              29")
        self.assertNotEqual(dump, altered)
        self.assertEqual(checks.compare_dumps(dump, dump), [])
        problems = checks.compare_dumps(dump, altered)
        self.assertEqual(len(problems), 1)
        self.assertIn("line 3", problems[0])
        self.assertEqual(checks.check_dump_digest(
            dump, zlib.crc32(dump), len(dump)), [])
        self.assertTrue(checks.check_dump_digest(
            dump, zlib.crc32(altered), len(altered)))

    def test_rejects_a_run_that_differs_from_the_cli(self):
        wl = run.SingleRun.__new__(run.SingleRun)
        wl.traced = False
        wl.ref, wl.ref_dump = checks.parse_cli_run(CLI_OUTPUT)
        good = ulpbench_result(stats_crc=zlib.crc32(wl.ref_dump),
                               stats_bytes=len(wl.ref_dump))
        self.assertEqual(wl.check_run(good), [])
        self.assertTrue(wl.check_run(dict(good, events=1)))
        self.assertTrue(wl.check_run(dict(good, stats_crc=2)))

    def test_rejects_a_store_with_one_failed_record(self):
        stats = {"events": 10, "sent": 2}
        lines = [json.dumps({"type": "campaign", "runs": 3})]
        for rid in range(3):
            lines.append(json.dumps({"id": rid, "status": "ok",
                                     "attempts": 1, "elapsed_us": 100,
                                     "stats": stats, "error": ""}))
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.jsonl"
            good.write_text("\n".join(lines) + "\n")
            _, ref = checks.load_store(good)
            self.assertEqual(checks.check_store(ref, ref, 3), (0, []))

            lines[2] = json.dumps({"id": 1, "status": "failed",
                                   "attempts": 2, "elapsed_us": 0,
                                   "stats": {}, "error": "worker died"})
            bad = Path(tmp) / "bad.jsonl"
            bad.write_text("\n".join(lines) + "\n")
            _, records = checks.load_store(bad)
            failed, problems = checks.check_store(records, ref, 3)
            self.assertEqual(failed, 1)
            self.assertIn("run 1", problems[0])

    def test_rejects_a_retried_or_missing_run(self):
        ok = {"id": 0, "status": "ok", "attempts": 1, "stats": {"e": 1}}
        ref = {0: ok, 1: dict(ok, id=1)}
        self.assertEqual(checks.check_store({0: ok}, ref, 2)[0], 1)
        self.assertEqual(checks.check_store(
            {0: ok, 1: dict(ok, id=1, attempts=2)}, ref, 2)[0], 1)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(checks.spread([1.0, 1.0, 1.0, 1.0]), 0.0)
        q1, med, q3 = checks.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertAlmostEqual(checks.spread([1.0, 2.0, 3.0, 4.0, 5.0]),
                               (q3 - q1) / 3.0)


if __name__ == "__main__":
    unittest.main()
