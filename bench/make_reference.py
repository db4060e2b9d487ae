"""Write ``reference.json``, the digests every benchmark run is gated on.

    python3 bench/make_reference.py

Run it only when a change is meant to alter rcbij's output, and say so in
the change: the reference is what keeps the benchmark from timing wrong
answers.  It runs each workload once, at full size, through the same child
as the benchmark, refuses to write anything if the program's own checks
fail, and records the digest of every ``verify`` row, of every ``sums``
cell's three polynomials, and of the ``map`` rc JSON of every path of the
pinned cells (whose keys are also the paths the map workload draws from).
"""

from __future__ import annotations

import json
import os
import sys

from child import SRC, digest
from run import MAP_CELLS, REFERENCE, WORKLOADS, make_spec, run_child


def main() -> int:
    sys.path.insert(0, SRC)
    from rcbij.cartan import AffineType
    from rcbij.crystal import enumerate_highest, letter_str

    ref = {"verify": {}, "sums": {}, "map": {}}
    for name, wl in WORKLOADS.items():
        if wl["kind"] == "map":
            continue
        out = run_child(make_spec(wl, 0, ref), trace=False)["results"]
        if wl["kind"] == "sums":
            for cell in out["cells"]:
                if not cell["equal"]:
                    print("%s: X != M on %s, no reference written"
                          % (name, cell["key"]))
                    return 1
                ref["sums"][cell["key"]] = cell["digest"]
            continue
        lines = out["tsv"].splitlines()
        if out["exit"] != 0 or any(ln.split("\t")[8] != "yes"
                                   for ln in lines[1:]):
            print("%s: verify failed, no reference written" % name)
            return 1
        ref["verify_header"] = digest(lines[0])
        for line in lines[1:]:
            ref["verify"][" ".join(line.split("\t")[:4])] = digest(line)

    paths = [
        {"type": fam, "n": n, "word": [letter_str(b) for b in word]}
        for fam, n, lam, L in MAP_CELLS
        for word in enumerate_highest(AffineType(fam, n), tuple(lam), L)
    ]
    spec = {"kind": "map", "paths": paths, "types": [c[:2] for c in MAP_CELLS]}
    for trip in run_child(spec, trace=False)["results"]["trips"]:
        if not trip["round_trip"]:
            print("map: round trip failed on %s, no reference written"
                  % trip["key"])
            return 1
        ref["map"][trip["key"]] = trip["digest"]

    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %s: %s" % (os.path.relpath(REFERENCE), {
        k: len(v) for k, v in ref.items() if isinstance(v, dict)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
