#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ulpsim simulator.

    python3 perfbench/run.py --workload grid-10k --seed 1 --seconds 15 --trace 0

Run from the repository root. It builds the simulator from the
repository's sources into .bench_build/ (perfbench/CMakeLists.txt),
writes its generated inputs under .bench_work/, runs one workload for
--seconds seconds of measured samples and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
table. See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"

# BENCHMARK.json declares the metrics (name -> unit) and the workloads
# (name -> why). Every workload reports every end-to-end metric; a
# per-layer metric of a layer a workload does not exercise reads 0.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}

# The scenarios follow examples/multihop_grid.ini and
# examples/fabric_linked.ini; they are spelled out here so that editing
# an example does not silently change the benchmark.
GRID = """[scenario]
name = {name}
seconds = {seconds}
seed = {seed}
threads = {threads}

[nodes]
count = {count}
app = app3
period = 2000
signal = sine:60,5
placement = grid
spacing = 40

[radio]
model = spatial
path-loss-exponent = 2.8
sensitivity-dbm = -90

[routes]
sink = 0
"""

FABRIC = """[scenario]
name = fabric-linked
seconds = {seconds}
seed = {seed}
threads = 1

[nodes]
count = 256
app = app1
period = 2000
signal = const:200

[events]
link = timer.fire -> adc.sample
link = adc.threshold -> msgproc.tx
link = msgproc.txready -> radio.tx
link = radio.txdone -> radio.gate
"""

FABRIC_TRACE = """
[trace]
out = {trace}
energy-period = 0.01
"""

ENSEMBLE_RUNS = 256
ENSEMBLE_JOBS = 2
# Member set-ups timed in-process per sample, in two processes (before
# and after the campaign) so that one slow spell of the host weighs less.
ENSEMBLE_SETUPS = 64


class Failure(Exception):
    """A check the benchmark cannot continue past."""


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------------
# Build and host facts


def build():
    """Configure once, then build incrementally; output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "ulpsim.cc").is_file():
        raise Failure("no simulator sources (src/, tools/) next to "
                      "perfbench/; run from a repository checkout")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    with open(logfile, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            steps.append(cmd)
        steps.append(["cmake", "--build", str(BUILD), "-j",
                      str(max(1, min(4, os.cpu_count() or 1)))])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                sys.stderr.write(logfile.read_text()[-4000:])
                raise Failure("build failed: " + " ".join(cmd))


def host_facts():
    cache = (BUILD / "CMakeCache.txt").read_text()

    def cached(key):
        m = re.search(r"^%s:\w+=(.*)$" % key, cache, re.M)
        return m.group(1) if m else "?"
    compiler = cached("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"vcpus": os.cpu_count(), "compiler": version,
            "build_type": cached("CMAKE_BUILD_TYPE")}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_pct(before, after):
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


# --------------------------------------------------------------------------
# Running the tools


def tool(name):
    return str(BUILD / name)


def ulpbench(args, stderr_path=None):
    """Run ulpbench and return its JSON line (plus stderr warn lines)."""
    with open(stderr_path or os.devnull, "w") as err:
        proc = subprocess.run([tool("ulpbench")] + args,
                              stdout=subprocess.PIPE, stderr=err)
    if proc.returncode != 0:
        raise Failure("ulpbench %s exited %d" % (args[0], proc.returncode))
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if stderr_path:
        with open(stderr_path, "rb") as f:
            out["warn_lines"] = sum(1 for line in f
                                    if line.startswith(b"warn:"))
    return out


def timed(cmd, stdout_path):
    """Run @p cmd; return (wall seconds, peak RSS KiB of it and its
    children, exit code)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# --------------------------------------------------------------------------
# Workloads. prepare() makes the untimed, cold reference run and checks;
# sample(layers) performs and checks one sample's operations and returns
# its figures.


class Workload:
    """Shared sample loop; subclasses define prepare() and sample()."""

    def __init__(self, name, work, seed):
        self.work = work
        self.rng = random.Random("%s:%d" % (name, seed))
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def record(self, ops, bad, problems):
        self.attempted += ops
        self.failed += bad
        self.problems.extend(problems)


class SingleRun(Workload):
    """One `ulpsim run --stats` equivalent per sample, through ulpbench."""

    ops_per_sample = 1

    def __init__(self, name, work, seed, count, seconds,
                 traced=False, probe=None, parallel=0):
        super().__init__(name, work, seed)
        self.traced = traced
        # A traced workload whose obs.*, fabric.* and net.broadcast_*
        # figures the traced (--trace 1) samples report; its operations
        # count as ours.
        self.probe = probe
        self.probe_ready = False
        if probe:
            probe.record = self.record
        self.scenario = work / "scenario.ini"
        self.trace_dir = work / "trace"
        scenario_seed = self.rng.randrange(1, 1 << 31)
        if traced:
            # The same scenario without its [trace] section: the
            # broadcast medium's own cost and the trace overhead's base.
            self.untraced = work / "untraced.ini"
            text = FABRIC.format(seconds=seconds, seed=scenario_seed)
            self.untraced.write_text(text)
            text += FABRIC_TRACE.format(trace=self.trace_dir)
        else:
            text = GRID.format(name=name, seconds=seconds, seed=scenario_seed,
                               threads=1, count=count)
        self.scenario.write_text(text)
        # The same scenario on the parallel kernel at K=@p parallel:
        # checked once against the K=1 dump and timed in the traced
        # samples only, since it moves too much with the host's load.
        self.parallel = None
        if parallel:
            self.parallel = work / "parallel.ini"
            self.parallel.write_text(GRID.format(
                name=name, seconds=seconds, seed=scenario_seed,
                threads=parallel, count=count))

    def cli_run(self, scenario, extra, out_path):
        wall, _, code = timed([tool("ulpsim"), "run", str(scenario),
                               "--stats"] + extra, out_path)
        if code != 0:
            raise Failure("ulpsim run exited %d" % code)
        return (wall,) + checks.parse_cli_run(Path(out_path).read_bytes())

    def prepare(self):
        """Untimed and cold: what `ulpsim run` prints is the reference.
        Returns its wall time (the warm-up, kept out of the figures)."""
        shutil.rmtree(self.trace_dir, ignore_errors=True)
        wall, self.ref, self.ref_dump = self.cli_run(
            self.scenario, [], self.work / "cli.txt")
        if self.parallel:
            # The parallel kernel's stats oracle: K>1 gives the K=1 dump.
            _, _, dump = self.cli_run(self.parallel, [],
                                      self.work / "cli-parallel.txt")
            bad = checks.compare_dumps(self.ref_dump, dump)
            self.record(1, 1 if bad else 0, ["K>1 vs K=1: " + b for b in bad])
        if self.traced:
            self.ref_attempted_records = (self.ref["trace_records"] +
                                          self.ref["trace_dropped"])
            _, self.untraced_ref, self.untraced_dump = self.cli_run(
                self.untraced, [], self.work / "cli-untraced.txt")
            # ulpbench's read-back of the CLI's trace agrees with
            # `ulptrace summary` on the same directory.
            e = ulpbench(["export", str(self.trace_dir)])
            summary = subprocess.run([tool("ulptrace"), "summary",
                                      str(self.trace_dir)],
                                     capture_output=True).stdout
            bad = []
            if zlib.crc32(summary) != e["summary_crc"]:
                bad.append("ulpbench's trace digest differs from "
                           "`ulptrace summary`")
            if not e["chrome_valid"]:
                bad.append("Chrome JSON invalid: " + e["chrome_error"])
            self.record(1, 1 if bad else 0, bad)
        return wall

    def check_run(self, r, untraced=False):
        """Counters and dump digest equal the CLI's on the same scenario;
        a traced run also attempted as many trace records as the CLI's."""
        ref, dump = ((self.untraced_ref, self.untraced_dump) if untraced
                     else (self.ref, self.ref_dump))
        problems = checks.compare_counters(ref, r)
        problems += checks.check_dump_digest(dump, r["stats_crc"],
                                             r["stats_bytes"])
        if self.traced and not untraced and \
                r["trace_records"] + r["trace_dropped"] != \
                self.ref_attempted_records:
            problems.append("trace records attempted differ from "
                            "`ulpsim run`")
        return problems

    def sample(self, layers=False):
        calib = ulpbench(["calib"])["calib_ms"]
        ticks = cpu_ticks()
        if self.traced:
            shutil.rmtree(self.trace_dir, ignore_errors=True)
        r = ulpbench(["run", str(self.scenario)] +
                     (["--layers"] if layers else []),
                     stderr_path=self.work / "ulpbench.err")
        problems = self.check_run(r)
        e = u = p = None
        if self.traced:
            # The export belongs to the run's operation.
            e = ulpbench(["export", str(self.trace_dir)])
            if not e["chrome_valid"]:
                problems.append("Chrome JSON invalid: " + e["chrome_error"])
            if e["records"] != r["trace_records"]:
                problems.append("read back %d of %d trace records"
                                % (e["records"], r["trace_records"]))
        self.record(1, 1 if problems else 0, problems)
        if self.traced and layers:
            r["trace_bytes"] = tree_bytes(self.trace_dir)
            # An operation of its own, checked against the CLI's run of
            # the untraced scenario.
            u = ulpbench(["run", str(self.untraced)])
            bad = self.check_run(u, untraced=True)
            self.record(1, 1 if bad else 0, bad)
        if self.parallel and layers:
            # An operation of its own, with the K=1 run's counters and dump.
            p = ulpbench(["run", str(self.parallel), "--layers"])
            bad = self.check_run(p)
            self.record(1, 1 if bad else 0, bad)
        steal = steal_pct(ticks, cpu_ticks())
        f = self.figures(r, e, u, layers, p)
        f["host.steal_pct"] = steal
        f["host.calib_ms"] = calib
        if layers and self.probe:
            if not self.probe_ready:
                self.probe.prepare()
                self.probe_ready = True
            f.update((k, v) for k, v in self.probe.sample(True).items()
                     if k.startswith(("obs.", "fabric.", "net.broadcast_")))
        return f

    @staticmethod
    def figures(r, e, u, layers, p=None):
        export_s = e["wall_s"] if e else 0.0
        f = {
            "wall_s": r["wall_s"] + export_s,
            "setup_s": r["setup_s"],
            "sim_s": r["sim_s"],
            "peak_rss_mb": max(r["peak_rss_kb"],
                               e["peak_rss_kb"] if e else 0) / 1024.0,
        }
        if layers:
            f.update(layer_figures(r))
        if layers and p:
            f.update({
                "core.partition_s": p["partition_s"],
                "sim.parallel_run_s": p["run_s"],
                "sim.parallel_cpu_s": p["cpu_run_s"],
                "sim.parallel_speedup": r["run_s"] / p["run_s"],
            })
        if layers and u:
            records = r["trace_records"]
            f.update({
                "net.broadcast_run_s": u["run_s"],
                "net.broadcast_events_per_host_s": u["events"] / u["run_s"],
                "obs.records": records,
                "obs.dropped": r["trace_dropped"],
                "obs.drop_ratio": r["trace_dropped"] /
                max(1, records + r["trace_dropped"]),
                "obs.trace_bytes": r["trace_bytes"],
                "obs.finish_s": r["finish_s"],
                "obs.trace_overhead_ratio": r["sim_s"] / u["sim_s"],
                "obs.read_merge_s": e["read_s"],
                "obs.export_chrome_s": e["export_s"],
                "obs.chrome_bytes": e["chrome_bytes"],
            })
        return f


def layer_figures(r):
    """Per-layer figures of one `ulpbench run --layers` result."""
    nodes = r["nodes"]
    return {
        "scenario.parse_s": r["parse_s"],
        "scenario.lower_s": r["lower_s"],
        "core.firmware_build_s": r["firmware_s"],
        "core.firmware_us_per_node": r["firmware_s"] / nodes * 1e6,
        "core.network_build_s": r["network_s"],
        "core.node_build_self_s": r["network_s"] - r["firmware_s"] -
        r["spatial_model_s"] - r["partition_s"],
        "core.rss_per_node_kb": r["rss_network_kb"] / nodes,
        "core.partition_s": r["partition_s"],
        "core.ep_isrs": r["ep_isrs"],
        "core.mcu_wakeups": r["wakeups"],
        "core.warn_lines": r["warn_lines"],
        "net.spatial_model_s": r["spatial_model_s"],
        "net.frames_sent": r["sent"],
        "net.frames_delivered": r["delivered"],
        "net.collisions": r["collisions"],
        "net.delivery_ratio": r["delivered"] / max(1, r["sent"]),
        "sim.run_s": r["run_s"],
        "sim.cpu_s": r["cpu_run_s"],
        "sim.events": r["events"],
        "sim.events_per_host_s": r["events"] / r["run_s"],
        "sim.stats_dump_s": r["dump_s"],
        "sim.stats_lines": r["stats_lines"],
        "fabric.linked": r["fabric_linked"],
        "fabric.drops": r["fabric_drops"],
        "bench.layers_s": r["layers_s"],
    }


class Ensemble(Workload):
    """`ulpsim campaign run --jobs=2` of a 256-seed ensemble per sample."""

    ops_per_sample = ENSEMBLE_RUNS

    def __init__(self, name, work, seed):
        super().__init__(name, work, seed)
        self.seed_base = self.rng.randrange(1, 1 << 31)
        self.member = work / "grid16.ini"
        self.member.write_text(GRID.format(
            name="grid16", seconds=0.5, seed=self.seed_base, threads=1,
            count=16))
        self.spec = work / "ensemble.ini"
        self.spec.write_text(
            "[campaign]\nname = ensemble\nscenario = grid16.ini\n"
            "repeat = %d\nseed-base = %d\n" % (ENSEMBLE_RUNS, self.seed_base))
        self.samples = 0

    @staticmethod
    def figures(wall, rss, report_s, report_rss, setup_s, elapsed_ms):
        """End-to-end figures: the campaign and its report as the user
        runs them, one run's set-up, and one run's total in its worker
        (the store's median elapsed_us, which includes that run's
        set-up)."""
        return {
            "wall_s": wall + report_s,
            "setup_s": setup_s,
            "sim_s": statistics.median(elapsed_ms) / 1e3,
            "peak_rss_mb": max(rss, report_rss) / 1024.0,
        }

    def campaign(self, jobs, store):
        if store.exists():
            store.unlink()
        wall, rss, code = timed(
            [tool("ulpsim"), "campaign", "run", str(self.spec),
             "--jobs=%d" % jobs, "--store=%s" % store],
            store.with_suffix(".out"))
        return wall, rss, code

    def prepare(self):
        """Untimed and cold: one --jobs=1 pass gives every run's reference
        stats. Returns its wall time (the warm-up)."""
        store = self.work / "reference.jsonl"
        wall, _, code = self.campaign(1, store)
        if code != 0:
            raise Failure("reference campaign exited %d" % code)
        _, self.ref = checks.load_store(store)
        failed, problems = checks.check_store(self.ref, self.ref,
                                              ENSEMBLE_RUNS)
        if failed:
            raise Failure("reference campaign: " + problems[0])
        return wall

    def sample(self, layers=False):
        self.samples += 1
        store = self.work / ("s%d.jsonl" % self.samples)
        calib = ulpbench(["calib"])["calib_ms"]
        setups = [ulpbench(["setup", str(self.member), str(self.seed_base),
                          str(ENSEMBLE_SETUPS)])]
        ticks = cpu_ticks()
        wall, rss, code = self.campaign(ENSEMBLE_JOBS, store)
        report_s, report_rss, report_code = timed(
            [tool("ulpsim"), "campaign", "report", str(store)],
            self.work / "report.out")
        steal = steal_pct(ticks, cpu_ticks())
        setups.append(ulpbench(["setup", str(self.member),
                              str(self.seed_base + ENSEMBLE_SETUPS),
                              str(ENSEMBLE_SETUPS)]))

        problems = []
        if code != 0 or report_code != 0:
            problems.append("campaign run/report exited %d/%d"
                            % (code, report_code))
        try:
            _, records = checks.load_store(store)
        except (OSError, ValueError) as exc:
            records = {}
            problems.append("store unreadable: %s" % exc)
        failed, bad = checks.check_store(records, self.ref, ENSEMBLE_RUNS)
        problems += bad
        self.record(ENSEMBLE_RUNS, failed, problems)

        elapsed = sorted(r["elapsed_us"] / 1e3
                         for r in records.values()) or [0.0]
        f = self.figures(wall, rss, report_s, report_rss,
                         statistics.median(x["setup_s"] for x in setups),
                         elapsed)
        f["host.steal_pct"] = steal
        f["host.calib_ms"] = calib
        if layers:
            q = checks.quartiles(elapsed)
            p95 = elapsed[min(len(elapsed) - 1,
                              int(round(0.95 * (len(elapsed) - 1))))]
            one = ulpbench(["run", str(self.member), "--layers"],
                         stderr_path=self.work / "member.err")
            f.update(layer_figures(one))
            f.update({
                "campaign.expand_s": ulpbench(
                    ["expand", str(self.spec), str(self.member),
                     "20"])["expand_s"],
                "campaign.runs_per_s": ENSEMBLE_RUNS / wall,
                "campaign.worker_exec_ms_p50": q[1],
                "campaign.worker_exec_ms_p95": p95,
                "campaign.worker_exec_samples": len(elapsed),
                "campaign.dispatch_overhead_ratio":
                    1.0 - sum(elapsed) / 1e3 / (ENSEMBLE_JOBS * wall),
                "campaign.retried": sum(1 for r in records.values()
                                        if r.get("attempts", 1) > 1),
                "campaign.failed": sum(1 for r in records.values()
                                       if r.get("status") != "ok"),
                "campaign.store_bytes":
                    store.stat().st_size if store.exists() else 0,
            })
        store.unlink(missing_ok=True)
        return f


def make_workload(name, work, seed):
    if name == "grid-10k":
        return SingleRun(name, work, seed, count=10000, seconds=0.05)
    if name == "grid-1k":
        # The traced samples also run the grid at K=2 and
        # examples/fabric_linked.ini with telemetry on (K=1 plus the
        # trace flusher, one after the other) and export it: the
        # parallel kernel, the broadcast medium, fabric, and obs write
        # and read paths. Their times swing too much with the host's
        # load to be end-to-end workloads of their own.
        (work / "fabric").mkdir()
        probe = SingleRun("fabric", work / "fabric", seed, count=256,
                          seconds=1, traced=True)
        return SingleRun(name, work, seed, count=1024, seconds=3,
                         probe=probe, parallel=2)
    return Ensemble(name, work, seed)


# --------------------------------------------------------------------------
# Aggregation and output


def aggregate(samples, names):
    """Median of each metric over the measured samples."""
    out = {}
    for name in names:
        values = [s.get(name, 0.0) for s in samples]
        out[name] = checks.quartiles(values)
    return out


def print_table(title, table, units, n):
    log("%s (medians of %d samples; q1 .. q3)" % (title, n))
    for name, (q1, med, q3) in table.items():
        log("  %-34s %14.6g %-6s  %.6g .. %.6g"
            % (name, med, units[name], q1, q3))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if args.workload not in WORKLOADS:
            raise Failure("unknown workload '%s' (known: %s)"
                          % (args.workload, ", ".join(WORKLOADS)))
        build()
        host = host_facts()
        work = WORK / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = make_workload(args.workload, work, args.seed)
        layers = bool(args.trace)
        log("workload %s (%s), seed %d, host: %d vCPUs, %s, %s"
            % (args.workload, WORKLOADS[args.workload], args.seed,
               host["vcpus"], host["compiler"], host["build_type"]))
        # The cold first run is the untimed reference run; it is the
        # warm-up and stays out of the figures.
        log("warm-up  %.4f s (reference run, not aggregated)"
            % wl.prepare())
        samples, took = [], []
        start = time.perf_counter()
        deadline = start + args.seconds
        # Start another sample only while it is expected to end by the
        # deadline plus half a sample, so a run measures about --seconds.
        while len(took) < 3 or \
                time.perf_counter() + statistics.median(took) / 2 < deadline:
            t0 = time.perf_counter()
            try:
                s = wl.sample(layers)
            except Failure as exc:
                # A tool that crashed fails the sample's operations.
                wl.record(wl.ops_per_sample, wl.ops_per_sample, [str(exc)])
                continue
            finally:
                took.append(time.perf_counter() - t0)
            samples.append(s)
            log("sample %2d wall %.4f s  setup %.4f s  sim %.4f s  "
                "calib %.2f ms  steal %.1f%%"
                % (len(samples), s["wall_s"], s["setup_s"], s["sim_s"],
                   s["host.calib_ms"], s["host.steal_pct"]))
        if not samples:
            raise Failure("no sample completed: " + "; ".join(wl.problems[:3]))
    except Failure as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1

    for p in wl.problems[:20]:
        log("FAILED CHECK: " + p)
    if layers:
        units = PER_LAYER
        for s in samples:
            s["host.vcpus"] = host["vcpus"]
            s["bench.samples"] = len(samples)
    else:
        units = END_TO_END
    table = aggregate(samples, units)
    print_table("%s metrics, %s" % ("per-layer" if layers else "end-to-end",
                                     args.workload), table, units,
                len(samples))
    if layers:
        # The split must account for the end-to-end figure it explains.
        parts = statistics.median(
            s["scenario.parse_s"] + s["scenario.lower_s"] +
            s["core.network_build_s"] for s in samples)
        q1, med, q3 = checks.quartiles([s["setup_s"] for s in samples])
        log("setup accounting: parse + lower + network build = %.6g s; "
            "setup_s = %.6g s (q1 %.6g .. q3 %.6g)" % (parts, med, q1, q3))
    result = {
        "correct": not wl.problems and wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": med, "unit": units[name]}
                    for name, (_, med, _) in table.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
