"""One measured sample of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per sample, so every sample pays for
rcbij's module-level caches the way a command-line user does.  It reads a
JSON spec on stdin, imports rcbij from the checkout's ``src``, builds the
per-type tables (the end of set-up), runs the workload once, and writes one
JSON line to stdout.  Timestamps are ``time.monotonic()``, which on Linux
is one clock for all processes, so the parent can subtract its own start
time from them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_tables(types):
    """Fill the per-type caches that every command builds first."""
    from rcbij.cartan import AffineType, form2_matrix, kac_data
    from rcbij.crystal import arrows
    from rcbij.energy import b_natural, local_hbar

    out = []
    for fam, n in types:
        at = AffineType(fam, n)
        kac_data(at)
        form2_matrix(at)
        arrows(at)
        local_hbar(at)
        b_natural(at)
        out.append(at)
    return out


def run_verify(args, item_s):
    """``rcbij verify`` in-process; items are the cells it certifies."""
    from rcbij import cli

    inner = cli._verify_cell

    def timed_cell(*args):
        t0 = time.perf_counter()
        try:
            return inner(*args)
        finally:
            item_s.append(time.perf_counter() - t0)

    cli._verify_cell = timed_cell
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", *args, "--jobs", "1"])
    return lambda: {"exit": code, "tsv": buf.getvalue()}


def sums_cells(spec, ats):
    """Every dominant weight of every (type, max length) in the grid."""
    from rcbij.cartan import dominant_weights

    return [
        (at, lam, L)
        for at, (_f, _n, max_len) in zip(ats, spec["grid"])
        for L in range(max_len + 1)
        for lam in dominant_weights(at, L)
    ]


def run_sums(cells, item_s):
    """X-bar, the rigged-configuration sum and M-bar for every grid cell."""
    from rcbij.energy import xbar
    from rcbij.rc import fermionic_m, rc_genfun

    polys = []
    for at, lam, L in cells:
        t0 = time.perf_counter()
        x = xbar(at, lam, L)
        f = rc_genfun(at, lam, L)
        m = fermionic_m(at, lam, L)
        item_s.append(time.perf_counter() - t0)
        polys.append((at, lam, L, x, f, m))

    def results():
        return {"cells": [
            {
                "key": "%s %d %d %s" % (at.family, at.n, L,
                                        ",".join(map(str, lam))),
                "digest": digest("%s|%s|%s" % (x, f, m)),
                "equal": x == f == m,
                "configs": f.at_one(),
            }
            for at, lam, L, x, f, m in polys
        ]}
    return results


def _cli(main, argv, stdin_text):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


def run_map(paths, item_s):
    """``rcbij map`` path -> rc -> path for each drawn path."""
    from rcbij import cli

    trips = []
    for path in paths:
        blob = json.dumps(path)
        t0 = time.perf_counter()
        code1, rc_json = _cli(cli.main, ["map", "--dir", "path2rc"], blob)
        code2, back = _cli(cli.main, ["map", "--dir", "rc2path"], rc_json)
        item_s.append(time.perf_counter() - t0)
        trips.append((path, code1, rc_json, code2, back))

    def results():
        out = []
        for path, code1, rc_json, code2, back in trips:
            ok = code1 == 0 and code2 == 0
            if ok:
                ok = json.loads(back)["word"] == path["word"]
            out.append({
                "key": "%s %d %s" % (path["type"], path["n"],
                                     " ".join(path["word"])),
                "digest": digest(rc_json),
                "round_trip": ok,
            })
        return {"trips": out}
    return results


# kind -> (inputs from the spec and the built types, the measured work)
KINDS = {
    "verify": (lambda spec, ats: spec["args"], run_verify),
    "sums": (sums_cells, run_sums),
    "map": (lambda spec, ats: spec["paths"], run_map),
}


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    ``ru_maxrss`` would also count the parent's resident set, which the
    child shares between fork and exec; the kernel's high-water mark of
    the current address space does not.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    # One core for the whole sample: the job is single-threaded, and the
    # highest-numbered core is the one least shared with the kernel's own
    # work and device interrupts, which land on core 0 first.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.load(sys.stdin)
    sys.path.insert(0, SRC)
    import rcbij.cli  # noqa: F401  (loads every rcbij module)

    if not os.path.abspath(rcbij.__file__).startswith(SRC + os.sep):
        print("rcbij imported from %s, not %s" % (rcbij.__file__, SRC),
              file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    make_inputs, work = KINDS[spec["kind"]]
    inputs = make_inputs(spec, build_tables(spec["types"]))
    t_ready = time.monotonic()
    item_s = []
    results = work(inputs, item_s)
    t_done = time.monotonic()
    out = {
        "t_ready": t_ready,
        "t_done": t_done,
        "item_s": item_s,
        "maxrss_kb": peak_rss_kb(),
        "results": results(),
        "trace": tracer.dump() if tracer else None,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
