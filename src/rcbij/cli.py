"""Command-line front end.

Subcommands: x, m, f, rc-enum, path-enum, map, verify, graph.  All output
is deterministic given the flags; half-integers print as k/2.  Exit codes:
0 ok, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bijection import (
    NoPreimage,
    delta,
    delta_inverse,
    phi,
    phi_inverse,
    phi_tilde,
)
from .cartan import (
    FAMILIES,
    AffineType,
    RankError,
    dominant_weights,
)
from .crystal import (
    dot_export,
    enumerate_highest,
    letter_str,
    letters,
    wt_letter,
    wt_path,
)
from .energy import dbar, local_hbar, xbar
from .rc import (
    InvalidRC,
    cc2_total,
    complement,
    enumerate_rc,
    fermionic_m,
    rc_from_json,
    rc_genfun,
    rc_to_json,
    validate_rc,
)


def _fmt_half(x2: int) -> str:
    return str(x2 // 2) if x2 % 2 == 0 else "%d/2" % x2


def _type_from_args(args) -> AffineType:
    return AffineType(args.type, args.n, relax_rank=args.relax_rank)


def _weight_from_args(at, args):
    if args.weight is None:
        print("error: --weight is required here", file=sys.stderr)
        raise SystemExit(2)
    lam = tuple(int(x) for x in args.weight.split(","))
    if len(lam) != at.weight_len:
        print(
            "error: weight needs %d entries for %s" % (at.weight_len, at),
            file=sys.stderr,
        )
        raise SystemExit(2)
    return lam


def cmd_x(args) -> int:
    at = _type_from_args(args)
    if args.dump_h:
        h = local_hbar(at)
        for (x, y) in sorted(h, key=lambda p: (str(p[0]), str(p[1]))):
            print("%s\t%s\t%d" % (letter_str(x), letter_str(y), h[(x, y)]))
        return 0
    lam = _weight_from_args(at, args)
    if args.len is None:
        print("error: --len is required here", file=sys.stderr)
        return 2
    print(xbar(at, lam, args.len))
    return 0


def cmd_m(args) -> int:
    at = _type_from_args(args)
    lam = _weight_from_args(at, args)
    print(fermionic_m(at, lam, args.len))
    return 0


def cmd_f(args) -> int:
    at = _type_from_args(args)
    lam = _weight_from_args(at, args)
    print(rc_genfun(at, lam, args.len))
    return 0


def cmd_rc_enum(args) -> int:
    at = _type_from_args(args)
    lam = _weight_from_args(at, args)
    for rc in sorted(enumerate_rc(at, lam, args.len)):
        if args.json:
            print(json.dumps(rc_to_json(at, lam, args.len, rc), sort_keys=True))
        else:
            parts = []
            for a in range(at.n):
                strs = ",".join(
                    "%s:%s" % (_fmt_half(ln), _fmt_half(rg)) for ln, rg in rc[a]
                )
                parts.append("(%s)" % strs)
            print(
                " ".join(parts), "cc=%s" % _fmt_half(cc2_total(at, rc))
            )
    return 0


def cmd_path_enum(args) -> int:
    at = _type_from_args(args)
    lam = _weight_from_args(at, args)
    for word in enumerate_highest(at, lam, args.len):
        row = " ".join(letter_str(b) for b in word)
        print("%s  dbar=%d" % (row, dbar(at, word)))
    return 0


def cmd_map(args) -> int:
    data = json.load(sys.stdin)
    if args.dir == "rc2path":
        at, lam, L, rc = rc_from_json(data)
        try:
            validate_rc(at, lam, L, rc)
        except InvalidRC as exc:
            print("error: invalid rigged configuration: %s" % exc,
                  file=sys.stderr)
            return 2
        fn = phi_tilde if args.tilde else phi
        word = fn(at, lam, L, rc)
        print(
            json.dumps(
                {
                    "type": at.family,
                    "n": at.n,
                    "L": L,
                    "lambda": list(lam),
                    "word": [letter_str(b) for b in word],
                },
                sort_keys=True,
            )
        )
        return 0
    at = AffineType(data["type"], data["n"])
    known = {letter_str(b): b for b in letters(at)}
    unknown = [s for s in data["word"] if str(s) not in known]
    if unknown:
        print("error: %r is not a letter of %s" % (unknown[0], at),
              file=sys.stderr)
        return 2
    word = tuple(known[str(s)] for s in data["word"])
    lam = wt_path(at, word)
    L = len(word)
    try:
        rc = phi_inverse(at, lam, L, word)
    except NoPreimage as exc:
        print("error: not a classically restricted path: %s" % exc,
              file=sys.stderr)
        return 2
    if args.tilde:
        rc = complement(at, L, rc)
    print(json.dumps(rc_to_json(at, lam, L, rc), sort_keys=True))
    return 0


def _verify_cell(at: AffineType, lam, L: int):
    """Run the main certificate on one cell; returns (ok, row, detail)."""
    paths = enumerate_highest(at, lam, L)
    rcs = enumerate_rc(at, lam, L)
    xb = xbar(at, lam, L)
    mb = rc_genfun(at, lam, L)
    ok = xb == mb and len(paths) == len(rcs)
    detail = None
    if fermionic_m(at, lam, L) != mb:
        ok = False
        detail = "fermionic sum disagrees with rigged enumeration"
    seen = {}
    for rc in rcs:
        word = phi(at, lam, L, rc)
        if word in seen or word not in set(paths):
            ok = False
            detail = detail or "phi not injective onto the path set"
            break
        seen[word] = rc
        if cc2_total(at, rc) != 2 * dbar(at, phi_tilde(at, lam, L, rc)):
            ok = False
            detail = "statistic mismatch on %r" % (rc,)
            break
        # round trip through one removal step
        if L >= 1:
            b, rc_small, _tr = delta(at, lam, L, rc)
            rho = tuple(x - y for x, y in zip(lam, wt_letter(at, b)))
            back = delta_inverse(at, b, rho, L - 1, rc_small)
            if back != rc:
                ok = False
                detail = "round trip failed on %r" % (rc,)
                break
    if ok and rcs:
        rc0 = rcs[0]
        if phi_inverse(at, lam, L, phi(at, lam, L, rc0)) != rc0:
            ok = False
            detail = "phi_inverse round trip failed"
    return ok, (len(rcs), len(paths), str(xb), str(mb)), detail


def _run_cell(cell):
    """_verify_cell on one (type, weight, L) cell, timed; picklable for --jobs."""
    at, lam, L = cell
    t0 = time.monotonic()
    ok, row, detail = _verify_cell(at, lam, L)
    return cell, ok, row, detail, time.monotonic() - t0


def _cells_for(at: AffineType, max_len: int):
    return [
        (at, lam, L)
        for L in range(0, max_len + 1)
        for lam in dominant_weights(at, L)
    ]


def cmd_verify(args) -> int:
    cells = []
    if args.grid:
        with open(args.grid) as fh:
            conf = json.load(fh)
        for entry in conf["cells"]:
            at = AffineType(entry["type"], entry["n"], relax_rank=args.relax_rank)
            if "lambda" in entry:
                cells.append((at, tuple(entry["lambda"]), entry["L"]))
            else:
                cells.extend(_cells_for(at, entry["max_len"]))
    elif args.type is not None:
        at = _type_from_args(args)
        cells.extend(_cells_for(at, args.max_len))
    else:
        # no selection: the whole desk-scale battery
        for fam, n in (("A1", 1), ("A1", 2), ("A1", 3), ("B1", 3),
                       ("C1", 2), ("C1", 3), ("D1", 4), ("A2", 1),
                       ("A2", 2), ("A2dag", 1), ("A2dag", 2),
                       ("A2odd", 2), ("D2", 2), ("D2", 3)):
            cells.extend(_cells_for(AffineType(fam, n), args.max_len))

    if args.jobs > 1:
        import multiprocessing as mp

        with mp.Pool(args.jobs) as pool:
            results = pool.map(_run_cell, cells)
    else:
        results = [_run_cell(cell) for cell in cells]

    failed = 0
    print("type\tn\tL\tlambda\t|RC|\t|P|\tXbar\tMbar\tequal" +
          ("\truntime" if args.timings else ""))
    for (at, lam, L), ok, row, detail, dt in results:
        nrc, npath, xs, ms = row
        line = "%s\t%d\t%d\t%s\t%d\t%d\t%s\t%s\t%s" % (
            at.family, at.n, L, ",".join(map(str, lam)), nrc, npath, xs, ms,
            "yes" if ok else "NO",
        )
        if args.timings:
            line += "\t%.3f" % dt
        print(line)
        if not ok:
            failed += 1
            print(
                json.dumps(
                    {
                        "type": at.family,
                        "n": at.n,
                        "L": L,
                        "lambda": list(lam),
                        "detail": detail,
                    }
                ),
                file=sys.stderr,
            )
    return 1 if failed else 0


def cmd_graph(args) -> int:
    at = _type_from_args(args)
    if not args.dot:
        print("error: graph currently only emits --dot", file=sys.stderr)
        return 2
    sys.stdout.write(dot_export(at))
    return 0


def _build_parser():
    p = argparse.ArgumentParser(prog="rcbij")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, weight=True):
        sp.add_argument("--type", choices=FAMILIES, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--relax-rank", action="store_true")
        if weight:
            sp.add_argument("--len", type=int, required=True)
            sp.add_argument("--weight", type=str, default=None)

    sp = sub.add_parser("x", help="one-dimensional sum Xbar")
    common(sp)
    sp.add_argument("--dump-h", action="store_true")
    sp.set_defaults(fn=cmd_x)
    # --dump-h does not need --len/--weight
    for opt in sp._actions:
        if opt.dest in ("len",):
            opt.required = False

    sp = sub.add_parser("m", help="fermionic sum Mbar")
    common(sp)
    sp.set_defaults(fn=cmd_m)

    sp = sub.add_parser("f", help="rigged-configuration generating function")
    common(sp)
    sp.set_defaults(fn=cmd_f)

    sp = sub.add_parser("rc-enum", help="list rigged configurations")
    common(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_rc_enum)

    sp = sub.add_parser("path-enum", help="list classically restricted paths")
    common(sp)
    sp.set_defaults(fn=cmd_path_enum)

    sp = sub.add_parser("map", help="apply the bijection to stdin JSON")
    sp.add_argument("--dir", choices=("rc2path", "path2rc"), required=True)
    sp.add_argument("--tilde", action="store_true")
    sp.set_defaults(fn=cmd_map)

    sp = sub.add_parser("verify", help="exhaustive certificate over a grid")
    sp.add_argument("--type", choices=FAMILIES)
    sp.add_argument("--n", type=int)
    sp.add_argument("--max-len", type=int, default=4)
    sp.add_argument("--grid", type=str, default=None)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--relax-rank", action="store_true")
    sp.add_argument("--timings", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("graph", help="DOT export of the crystal graph")
    sp.add_argument("--type", choices=FAMILIES, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--relax-rank", action="store_true")
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(fn=cmd_graph)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except RankError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
