"""rcbij benchmark: certification workloads, end-to-end and per-module metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Each workload is a batch job in one closed loop: one process, ``--jobs 1``,
and the next cell or path starts only when the previous one is done.  A run
repeats the job in fresh interpreters (``child.py``) for ``--seconds``, so
every sample starts with rcbij's module caches cold, as a command-line user
does.  Why each workload is there and which metric each per-module count
should move is in ``predictions.json``.

End-to-end metrics, an item being one cell (verify, sums) or one round trip
(map):

- ``setup_s``: interpreter start until rcbij is imported and the workload's
  per-type tables are built; median over the samples.
- ``wall_s``: interpreter start until the job is done; fastest sample.
- ``configs_per_s``: rigged configurations certified (verify) or counted
  (sums), or round trips (map), per second of item time.
- ``item_ms_p50``, ``item_ms_tail``: median and tail of the item times; the
  tail is the highest whole percentile with at least ten items above it.
- ``peak_rss_mb``: peak resident memory of a sample; median.

Item times are each item's best over the run's samples (see
``end_to_end_metrics``).  ``fail_frac``, failed over attempted items, is
printed with them and is the ``failed``/``attempted`` pair of the result.

Every output is checked: against the X = M identity and the round trip the
program itself certifies, and against ``reference.json``, digests of the
outputs at the commit that defined this benchmark.  An item fails on a "NO"
row, an exit code other than 0, a path that does not come back, an output
whose digest differs from the reference, or one missing from it.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
samples alternate untraced and traced (``tracer.py``) and the metrics are
the per-module ones.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print each metric by name and unit.  Each run also writes a
record with the raw samples to ``.bench_runs/`` at the checkout root.
Exit codes: 0 correct, 1 an output failed its check, 2 the benchmark could
not run (for instance no ``src/rcbij`` beside this directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from child import digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
RECORDS = os.path.join(ROOT, ".bench_runs")
SAMPLE_TIMEOUT_S = 150

# The default battery of ``rcbij verify``, listed here so that set-up can
# build its 14 types before the command runs.
BATTERY = [
    ["A1", 1], ["A1", 2], ["A1", 3], ["B1", 3], ["C1", 2], ["C1", 3],
    ["D1", 4], ["A2", 1], ["A2", 2], ["A2dag", 1], ["A2dag", 2],
    ["A2odd", 2], ["D2", 2], ["D2", 3],
]
# The pinned cells of the roadmap: (type, n, lambda, L).
MAP_CELLS = [
    ["A2", 2, [2, 1], 7], ["D2", 3, [2, 1, 0], 6],
    ["B1", 3, [1, 1, 0], 6], ["C1", 3, [2, 0, 0], 6],
]

WORKLOADS = {
    "verify-battery": {
        "kind": "verify", "args": ["--max-len", "4"], "types": BATTERY,
    },
    "sums": {
        "kind": "sums",
        "grid": [["A2", 2, 7], ["B1", 3, 6], ["C1", 3, 7], ["D1", 4, 5],
                 ["D2", 3, 6]],
    },
    # share: the part of each pinned cell's paths drawn with the seed
    "map": {"kind": "map", "cells": MAP_CELLS, "share": 1 / 4},
}

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("configs_per_s", "1/s"),
    ("item_ms_p50", "ms"), ("item_ms_tail", "ms"), ("peak_rss_mb", "MB"),
]
# (metric, unit): every per-module metric the traced run reports
PER_LAYER = [
    ("rc.vacancy2.calls", "count"), ("rc.vacancy2.s", "s"),
    ("rc.validate_rc.calls", "count"), ("rc.validate_rc.s", "s"),
    ("bijection.delta.calls", "count"), ("bijection.delta.self_s", "s"),
    ("bijection.delta_inverse.calls", "count"),
    ("bijection.delta_inverse.self_s", "s"),
    ("bijection.inverse_candidates", "count"),
    ("bijection.inverse_delta_calls", "count"),
    ("bijection.inverse_yield", "ratio"),
    ("bijection.phi.calls", "count"), ("bijection.phi_inverse.calls", "count"),
    ("crystal.enumerate_highest.calls", "count"),
    ("crystal.enumerate_highest.s", "s"), ("crystal.paths", "count"),
    ("energy.xbar.s", "s"), ("energy.dbar.calls", "count"),
    ("rc.enumerate_rc.s", "s"), ("rc.configs", "count"),
    ("rc.rc_genfun.s", "s"), ("rc.fermionic_m.s", "s"),
    ("rc.cc2_total.calls", "count"), ("qpoly.qbinom.calls", "count"),
    ("qpoly.self_s", "s"), ("cli.cells", "count"),
    ("cli.verify_cell.self_s", "s"), ("cartan.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_reference(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read reference %s: %s" % (path, exc))


def make_spec(workload: dict, seed: int, reference: dict) -> dict:
    """The child's input: workload, types to build, and the drawn paths."""
    spec = dict(workload)
    if workload["kind"] == "sums":
        spec["types"] = [g[:2] for g in workload["grid"]]
    elif workload["kind"] == "map":
        # every path of a pinned cell is a key of the map reference
        rng = random.Random(seed)
        paths = []
        for fam, n, _lam, L in workload["cells"]:
            prefix = "%s %d " % (fam, n)
            words = sorted(
                key[len(prefix):].split(" ") for key in reference["map"]
                if key.startswith(prefix) and key.count(" ") == L + 1
            )
            drawn = rng.sample(words, math.ceil(len(words) * workload["share"]))
            paths += [{"type": fam, "n": n, "word": w} for w in drawn]
        rng.shuffle(paths)
        spec["paths"] = paths
        spec["types"] = [c[:2] for c in workload["cells"]]
    return spec


def run_child(spec: dict, trace: bool) -> dict:
    """One sample in a fresh interpreter; returns the child's output."""
    payload = json.dumps(dict(spec, trace=trace))
    # a fixed hash seed keeps set iteration, and so the traced counts, the
    # same from one interpreter to the next
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD], input=payload, stdout=subprocess.PIPE,
            text=True, env=env, cwd=ROOT, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a sample ran longer than %d s" % SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("sample process exited with %d" % proc.returncode)
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t0
    out["wall_s"] = out["t_done"] - t0
    out["work_s"] = out["t_done"] - out["t_ready"]
    return out


def check(kind: str, results: dict, reference: dict):
    """Gate one sample's outputs; returns (items, failed, configs)."""
    if kind == "verify":
        ref = reference["verify"]
        lines = results["tsv"].splitlines()
        failed = 0
        configs = 0
        for line in lines[1:]:
            cols = line.split("\t")
            configs += int(cols[4])
            key = " ".join(cols[:4])
            if cols[8] != "yes" or ref.get(key) != digest(line):
                failed += 1
        items = max(len(lines) - 1, 1)
        # a failing row explains exit code 1; anything else fails the sample
        if (results["exit"] != 0 and not failed) or not lines or (
                digest(lines[0]) != reference["verify_header"]):
            failed = items
        return items, failed, configs
    if kind == "sums":
        ref = reference["sums"]
        cells = results["cells"]
        failed = sum(
            1 for c in cells
            if not c["equal"] or ref.get(c["key"]) != c["digest"]
        )
        return len(cells), failed, sum(c["configs"] for c in cells)
    ref = reference["map"]
    trips = results["trips"]
    failed = sum(
        1 for t in trips
        if not t["round_trip"] or ref.get(t["key"]) != t["digest"]
    )
    return len(trips), failed, len(trips)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n items above it."""
    return max(50, math.floor(100 - 1000 / n)) if n else 50


def percentile(sorted_xs, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100 * len(sorted_xs)))
    return sorted_xs[k - 1]


def end_to_end_metrics(samples, configs: int, tail_p: int):
    """End-to-end metrics of one run from its untraced samples.

    Interference from other tenants of a shared machine only ever adds
    time, in bursts of seconds, so a run is summarised by what its samples
    could do: ``wall_s`` is the fastest sample, and the item metrics and
    ``configs_per_s`` come from each item's best time over the samples
    (every sample runs the same items in the same order).  ``setup_s`` and
    ``peak_rss_mb`` are medians over the samples.
    """
    lengths = {len(o["item_s"]) for o in samples}
    if len(lengths) != 1:
        raise BenchError("samples timed different item counts %s" % lengths)
    best = sorted(map(min, zip(*(o["item_s"] for o in samples))))
    values = {
        "setup_s": statistics.median(o["setup_s"] for o in samples),
        "wall_s": min(o["wall_s"] for o in samples),
        "configs_per_s": configs / sum(best),
        "item_ms_p50": 1e3 * percentile(best, 50),
        "item_ms_tail": 1e3 * percentile(best, tail_p),
        "peak_rss_mb": statistics.median(
            o["maxrss_kb"] / 1024 for o in samples),
    }
    raw = {
        "setup_s": [o["setup_s"] for o in samples],
        "wall_s": [o["wall_s"] for o in samples],
        "work_s": [o["work_s"] for o in samples],
        "peak_rss_mb": [o["maxrss_kb"] / 1024 for o in samples],
        "item_ms_p50": [1e3 * statistics.median(o["item_s"])
                        for o in samples],
        "best_item_s": best,
    }
    return values, raw


def layer_metrics(tr: dict) -> dict:
    """Per-module metrics from one traced sample's aggregates."""
    calls, total, self_s = tr["calls"], tr["total_s"], tr["self_s"]
    below = {(a, c): k for a, c, k in tr["below"]}
    m = {}
    for name, unit in PER_LAYER:
        span, _, what = name.rpartition(".")
        if what == "calls":
            m[name] = calls.get(span, 0)
        elif what == "s":
            m[name] = total.get(span, 0.0)
        elif what == "self_s" and span.count("."):
            m[name] = self_s.get(span, 0.0)
        elif what == "self_s":
            m[name] = sum(v for k, v in self_s.items()
                          if k.startswith(span + "."))
    # validations under delta_inverse: its candidates and, inside each
    # forward delta it runs on them, delta's own check
    cand = below.get(("bijection.delta_inverse", "rc.validate_rc"), 0)
    m["bijection.inverse_candidates"] = cand
    m["bijection.inverse_delta_calls"] = below.get(
        ("bijection.delta_inverse", "bijection.delta"), 0)
    found = tr["returns"].get("bijection.delta_inverse", 0)
    m["bijection.inverse_yield"] = found / cand if cand else 0.0
    m["crystal.paths"] = tr["sizes"].get("crystal.enumerate_highest", 0)
    m["rc.configs"] = tr["sizes"].get("rc.enumerate_rc", 0)
    m["cli.cells"] = calls.get("cli.verify_cell", 0)
    return m


def summary(values) -> dict:
    xs = list(values)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2]}


def run_info(seed: int) -> dict:
    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            p = subprocess.run(["git", *args], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(dirty),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "seed": seed,
    }


def run_workload(name: str, workload: dict, seed: int, seconds: float,
                 trace: bool, reference: dict) -> dict:
    """Measure one workload for about ``seconds``; returns the run record."""
    spec = make_spec(workload, seed, reference)
    plain, traced = [], []
    attempted = failed = 0
    start = time.monotonic()
    rounds = 0
    # at least two rounds, so that a traced run can compare its counts
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            out = run_child(spec, is_traced)
            items, bad, configs = check(workload["kind"], out.pop("results"),
                                        reference)
            attempted += items
            failed += bad
            (traced if is_traced else plain).append((out, items, configs))
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= 2 and elapsed * (rounds + 1) / rounds > seconds:
            break
    items, configs = plain[0][1], plain[0][2]
    tail_p = tail_percentile(items)
    values, raw = end_to_end_metrics([o for o, _i, _c in plain], configs,
                                     tail_p)
    record = {
        "workload": name,
        "spec": workload,
        "info": run_info(seed),
        "seconds": seconds,
        "samples": len(plain),
        "items_per_sample": items,
        "configs_per_sample": configs,
        "tail_percentile": tail_p,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": values,
        "raw": raw,
        "quartiles": {k: summary(v) for k, v in raw.items()},
    }
    correct = failed == 0
    if trace:
        layers = [layer_metrics(o["trace"]) for o, _i, _c in traced]
        counts = [
            {k: v for k, v in m.items() if not isinstance(v, float)}
            for m in layers
        ]
        record["counts_repeat"] = all(c == counts[0] for c in counts)
        correct = correct and record["counts_repeat"]
        # counts repeat exactly, so any sample's count is the count; times
        # are medians over the traced samples
        per_layer = {
            k: layers[0][k] if u == "count"
            else statistics.median(m[k] for m in layers)
            for k, u in PER_LAYER if k != "trace.overhead_frac"
        }
        per_layer["trace.overhead_frac"] = min(
            o["wall_s"] for o, _i, _c in traced) / values["wall_s"] - 1
        record["per_layer"] = per_layer
        record["traced_samples"] = len(traced)
        record["trace"] = [o["trace"] for o, _i, _c in traced]
    record["correct"] = correct
    return record


def write_record(record: dict, seed: int, trace: bool) -> str:
    os.makedirs(RECORDS, exist_ok=True)
    path = os.path.join(
        RECORDS, "%s-seed%d-trace%d.json" % (record["workload"], seed, trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return os.path.relpath(path, ROOT)


def report(record: dict, trace: bool) -> dict:
    """Print each metric by name and unit; return the result's metrics."""
    table = PER_LAYER if trace else END_TO_END
    section = record["per_layer"] if trace else record["end_to_end"]
    print("%s: %d sample(s), %d items each, seed %d%s" % (
        record["workload"], record["samples"], record["items_per_sample"],
        record["info"]["seed"],
        ", %d traced" % record["traced_samples"] if trace else ""))
    metrics = {}
    for name, unit in table:
        value = section[name]
        metrics[name] = {"value": value, "unit": unit}
        extra = ""
        if name == "item_ms_tail":
            extra = "  (p%d of %d items, best of %d samples each)" % (
                record["tail_percentile"], record["items_per_sample"],
                record["samples"])
        print("  %-34s %.6g %s%s" % (name, value, unit, extra))
    frac = record["failed"] / record["attempted"]
    print("  %-34s %.6g ratio  (%d of %d items)" % (
        "fail_frac", frac, record["failed"], record["attempted"]))
    if trace and not record["counts_repeat"]:
        print("  traced counts differ between samples of this run")
    return metrics


def main(argv=None, workloads=WORKLOADS, reference_path=REFERENCE) -> int:
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", default="all",
                   choices=["all", *workloads])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    trace = bool(args.trace)
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "rcbij")):
            raise BenchError("no src/rcbij beside %s" % HERE)
        reference = load_reference(reference_path)
        names = list(workloads) if args.workload == "all" else [args.workload]
        records = [
            run_workload(name, workloads[name], args.seed, args.seconds,
                         trace, reference)
            for name in names
        ]
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    metrics = {}
    for record in records:
        shown = report(record, trace)
        print("  record %s" % write_record(record, args.seed, trace))
        if len(records) == 1:
            metrics = shown
        else:
            metrics.update(
                {"%s.%s" % (record["workload"], k): v
                 for k, v in shown.items()})
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
