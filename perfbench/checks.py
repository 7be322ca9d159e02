"""Correctness checks and statistics for the ulpsim benchmark.

Everything here is a pure function over texts and numbers the
benchmark already collected, so the tests can feed it altered inputs.
Each check returns a list of problems; an empty list means it passed.
"""

import json
import re
import statistics
import zlib

# The modeled counters `ulpsim run` prints, by the key ulpbench uses.
_CLI_COUNTERS = [
    ("events", r"^events processed:\s+(\d+)"),
    ("sent", r"^frames sent:\s+(\d+)"),
    ("delivered", r"^frames delivered:\s+(\d+)"),
    ("collisions", r"^frames delivered:\s+\d+ \(collisions (\d+)\)"),
    ("ep_isrs", r"^EP ISRs:\s+(\d+)"),
    ("wakeups", r"^uC wakeups:\s+(\d+)"),
    ("fabric_linked", r"^fabric linked:\s+(\d+)"),
    ("fabric_drops", r"^fabric linked:\s+\d+ \(busy drops (\d+)\)"),
    ("sink_packets", r"^packets at sink:\s+(\d+)"),
]

MODELED_COUNTERS = [key for key, _ in _CLI_COUNTERS]


def parse_cli_run(text):
    """Split `ulpsim run --stats` output into (counters, stats dump).

    Counters the CLI does not print for this scenario (no fabric links,
    no sink) read as 0, as ulpbench reports them. The dump is
    everything after the first blank line.
    """
    head, sep, dump = text.partition(b"\n\n")
    if not sep:
        raise ValueError("no stats dump after the counter lines")
    lines = head.decode().splitlines()
    counters = {}
    for key, pattern in _CLI_COUNTERS:
        counters[key] = 0
        for line in lines:
            m = re.match(pattern, line)
            if m:
                counters[key] = int(m.group(1))
    trace = re.search(r"^trace records:\s+(\d+) \((\d+) dropped\)",
                      head.decode(), re.M)
    if trace:
        counters["trace_records"] = int(trace.group(1))
        counters["trace_dropped"] = int(trace.group(2))
    return counters, dump


def compare_counters(expected, got, keys=MODELED_COUNTERS):
    """Problems where @p got differs from @p expected on any of @p keys."""
    return ["%s: %s, expected %s" % (k, got.get(k), expected.get(k))
            for k in keys if got.get(k) != expected.get(k)]


def check_dump_digest(dump, crc, nbytes):
    """ulpbench's CRC-32 and size of its dump must match @p dump."""
    if len(dump) != nbytes or zlib.crc32(dump) != crc:
        return ["stats dump differs from `ulpsim run --stats` "
                "(%d bytes, crc %d; expected %d bytes, crc %d)"
                % (nbytes, crc, len(dump), zlib.crc32(dump))]
    return []


def compare_dumps(expected, got):
    """Byte identity of two stats dumps, naming the first differing line."""
    if expected == got:
        return []
    a, b = expected.split(b"\n"), got.split(b"\n")
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return ["stats dump line %d differs: %r != %r"
                    % (i + 1, y[:80], x[:80])]
    return ["stats dump has %d lines, expected %d" % (len(b), len(a))]


def load_store(path):
    """Read a campaign JSONL store: (header, {id: record})."""
    with open(path, "rb") as f:
        lines = f.read().decode().splitlines()
    if not lines:
        raise ValueError("empty store")
    header = json.loads(lines[0])
    records = {}
    for line in lines[1:]:
        rec = json.loads(line)
        records[rec["id"]] = rec
    return header, records


def check_store(records, reference, runs):
    """Every run has one record, `ok` on the first attempt, with the same
    stats as the reference pass. Returns (failed record count, problems).
    """
    problems = []
    failed = 0
    for rid in range(runs):
        rec = records.get(rid)
        why = None
        if rec is None:
            why = "missing"
        elif rec.get("status") != "ok":
            why = "status %s: %s" % (rec.get("status"),
                                     rec.get("error", "")[:120])
        elif rec.get("attempts") != 1:
            why = "%s attempts" % rec.get("attempts")
        elif rec.get("stats") != reference[rid].get("stats"):
            why = "stats differ from the --jobs=1 pass"
        if why:
            failed += 1
            problems.append("run %d: %s" % (rid, why))
    return failed, problems


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
