#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 perfbench/steadiness.py --runs 10 [--workload grid-10k ...]

Runs `run.py` --runs times per workload, each with another seed, for
BENCHMARK.json's run_seconds. For each end-to-end metric it prints the
median and quartiles of the per-run values, and their spread (q3 - q1
over the median) next to the metric's bound. A benchmark is steady
when every spread is below a third of its bound.
"""

import argparse
import json
import subprocess
import sys

import checks
import run


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=list(run.WORKLOADS))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workload or list(run.WORKLOADS):
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed,
                                                      out.stderr))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s  failed %d of %d%s" % (
                workload, seed, " ".join(
                    "%s=%.6g" % (n, v[-1]) for n, v in values.items()),
                result["failed"], result["attempted"],
                "" if result["correct"] else "  INCORRECT"), flush=True)
        for name, vals in values.items():
            q1, med, q3 = checks.quartiles(vals)
            spread = checks.spread(vals)
            ok = spread < bounds[name] / 3
            steady &= ok
            print("  %-13s %-12s median %.6g  q1 %.6g  q3 %.6g  "
                  "spread %.3f  bound %.2f  %s"
                  % (workload, name, med, q1, q3, spread, bounds[name],
                     "ok" if ok else "WIDE"), flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
