"""Command-line front end.

Subcommands: x, m, f, rc-enum, path-enum, map, verify, graph.  All output
is deterministic given the flags; half-integers print as k/2.  Exit codes:
0 ok, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time

from .bijection import NoPreimage, _phi, phi_inverse
from .cartan import FAMILIES, AffineType, RankError, is_dominant
from .crystal import (
    dot_export,
    enumerate_highest,
    letter_str,
    letters,
    wt_path,
)
from .energy import PropagationError, dbar, local_hbar, xbar
from .rc import (
    Config,
    _json_int,
    cc_configs,
    complement,
    fermionic_m,
    rc_from_json,
    rc_genfun,
    rc_to_json,
    rigged,
    rigged_cc2,
    validate_rc,
)
from .verify import BATTERY, Levels, cells_for
from .verify import verify_cell as _verify_cell


def _fmt_half(x2: int) -> str:
    return str(x2 // 2) if x2 % 2 == 0 else "%d/2" % x2


def _type_from_args(args) -> AffineType:
    return AffineType(args.type, args.n, relax_rank=args.relax_rank)


def _usage_error(msg: str):
    print("error: %s" % msg, file=sys.stderr)
    raise SystemExit(2)


def _check_len(L: int) -> None:
    if L < 0:
        _usage_error("length %d is negative" % L)


def _check_cell(at: AffineType, lam, L: int) -> None:
    """Exit 2 unless lam is a dominant weight of at and L >= 0."""
    if len(lam) != at.weight_len:
        _usage_error("weight needs %d entries for %s" % (at.weight_len, at))
    if not is_dominant(at, lam):
        _usage_error("weight %s is not dominant for %s"
                     % (",".join(map(str, lam)), at))
    _check_len(L)


def _cell_from_args(args):
    """The type, weight and length of the arguments, checked."""
    at = _type_from_args(args)
    if args.weight is None:
        _usage_error("--weight is required here")
    if args.len is None:
        _usage_error("--len is required here")
    try:
        lam = tuple(int(x) for x in args.weight.split(","))
    except ValueError:
        _usage_error("--weight takes comma-separated integers")
    _check_cell(at, lam, args.len)
    return at, lam, args.len


def cmd_x(args) -> int:
    if args.dump_h:
        h = local_hbar(_type_from_args(args))
        for (x, y) in sorted(h, key=lambda p: (str(p[0]), str(p[1]))):
            print("%s\t%s\t%d" % (letter_str(x), letter_str(y), h[(x, y)]))
        return 0
    print(xbar(*_cell_from_args(args)))
    return 0


def cmd_m(args) -> int:
    print(fermionic_m(*_cell_from_args(args)))
    return 0


def cmd_f(args) -> int:
    print(rc_genfun(*_cell_from_args(args)))
    return 0


def cmd_rc_enum(args) -> int:
    at, lam, L = _cell_from_args(args)
    configs = cc_configs(at, lam, L)
    for rc, cc2 in sorted(zip(rigged(at, configs), rigged_cc2(at, configs))):
        if args.json:
            print(json.dumps(rc_to_json(at, lam, L, rc), sort_keys=True))
        else:
            parts = ["(%s)" % ",".join("%s:%s" % (_fmt_half(ln), _fmt_half(rg))
                                       for ln, rg in node) for node in rc]
            print(" ".join(parts), "cc=%s" % _fmt_half(cc2))
    return 0


def cmd_path_enum(args) -> int:
    at, lam, L = _cell_from_args(args)
    for word in enumerate_highest(at, lam, L):
        row = " ".join(letter_str(b) for b in word)
        print("%s  dbar=%d" % (row, dbar(at, word)))
    return 0


def _json_load(fh):
    """json.load, with JSON nested too deeply to parse as a ValueError."""
    try:
        return json.load(fh)
    except RecursionError:
        raise ValueError("nested too deeply") from None


def _stdin_object() -> dict:
    """The JSON object on stdin; exit 2 on anything else."""
    try:
        data = _json_load(sys.stdin)
    except ValueError as exc:
        _usage_error("stdin is not JSON: %s" % exc)
    if not isinstance(data, dict):
        _usage_error("map reads a JSON object, not %s" % type(data).__name__)
    return data


def cmd_map(args) -> int:
    data = _stdin_object()
    if args.dir == "rc2path":
        try:
            at, lam, L, rc = rc_from_json(data)
            _check_cell(at, lam, L)
            cf = validate_rc(at, lam, L, rc)
        except ValueError as exc:  # InvalidRC, or an unknown family
            _usage_error("invalid rigged configuration: %s" % exc)
        if args.tilde:  # phi of the complement, off the checked Config
            cf = Config(at, L, cf.complement())
        word = _phi(cf, lam)
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
    try:
        at = AffineType(data["type"], _json_int(data["n"], "n"))
        letters_in = data["word"]
    except KeyError as exc:
        _usage_error("invalid path: missing key %s" % exc)
    except ValueError as exc:  # InvalidRC, or an unknown family
        _usage_error("invalid path: %s" % exc)
    if not isinstance(letters_in, list):
        _usage_error("invalid path: the word is not a list of letters")
    known = {letter_str(b): b for b in letters(at)}
    for s in letters_in:
        if type(s) is not str:  # "1", never the JSON number 1
            _usage_error("invalid path: letters are strings, not %r" % (s,))
        if s not in known:
            _usage_error("%r is not a letter of %s" % (s, at))
    word = tuple(known[s] for s in letters_in)
    lam = wt_path(at, word)
    L = len(word)
    try:
        rc = phi_inverse(at, lam, L, word)
    except NoPreimage as exc:
        _usage_error("not a classically restricted path: %s" % exc)
    if args.tilde:
        rc = complement(at, L, rc)
    print(json.dumps(rc_to_json(at, lam, L, rc), sort_keys=True))
    return 0


def _run_cells(run):
    """_verify_cell on each cell of a run of one type, timed; picklable.

    The cells share one level table.  _verify_cell is looked up at each
    call, so the benchmark's timer and tracer can rebind
    ``cli._verify_cell``.
    """
    levels = Levels()
    results = []
    for cell in run:
        t0 = time.monotonic()
        ok, row, failure = _verify_cell(*cell, levels)
        results.append((cell, ok, row, failure, time.monotonic() - t0))
    return results


def _grid_cells(path: str, relax_rank: bool):
    """The cells of a grid file, each checked like a cell on the command line."""
    cells = []
    try:
        with open(path) as fh:
            entries = _json_load(fh)["cells"]
        for entry in entries:
            at = AffineType(entry["type"], _json_int(entry["n"], "n"),
                            relax_rank=relax_rank)
            if "lambda" not in entry:
                max_len = _json_int(entry["max_len"], "max_len")
                _check_len(max_len)
                cells.extend(cells_for(at, max_len))
                continue
            lam = tuple(_json_int(x, "a lambda entry") for x in entry["lambda"])
            L = _json_int(entry["L"], "L")
            _check_cell(at, lam, L)
            cells.append((at, lam, L))
    except KeyError as exc:
        _usage_error("grid file %s lacks the key %s" % (path, exc))
    except (OSError, TypeError, ValueError) as exc:
        _usage_error("bad grid file %s: %s" % (path, exc))
    return cells


def cmd_verify(args) -> int:
    if (args.type is None) != (args.n is None):
        _usage_error("verify takes --type and --n together")
    _check_len(args.max_len)
    if args.jobs < 1:
        _usage_error("--jobs takes a positive count, not %d" % args.jobs)
    cells = []
    if args.grid:
        cells.extend(_grid_cells(args.grid, args.relax_rank))
    elif args.type is not None:
        cells.extend(cells_for(_type_from_args(args), args.max_len))
    else:
        for fam, n in BATTERY:
            cells.extend(cells_for(AffineType(fam, n), args.max_len))

    # consecutive cells of one type form a run; --jobs hands out whole runs
    runs = [list(run) for _at, run in itertools.groupby(cells, lambda c: c[0])]
    workers = min(args.jobs, len(runs))  # at most one worker per run
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            per_run = pool.map(_run_cells, runs)
    else:
        per_run = [_run_cells(run) for run in runs]
    results = itertools.chain.from_iterable(per_run)

    failed = 0
    print("type\tn\tL\tlambda\t|RC|\t|P|\tXbar\tMbar\tequal" +
          ("\truntime" if args.timings else ""))
    for (at, lam, L), ok, row, failure, dt in results:
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
            cell = {"type": at.family, "n": at.n, "L": L, "lambda": list(lam)}
            print(json.dumps(dict(cell, **failure)), file=sys.stderr)
    return 1 if failed else 0


def cmd_graph(args) -> int:
    at = _type_from_args(args)
    if not args.dot:
        _usage_error("graph currently only emits --dot")
    sys.stdout.write(dot_export(at))
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused after."""
    p = argparse.ArgumentParser(prog="rcbij")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--type", choices=FAMILIES, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--relax-rank", action="store_true")
        sp.add_argument("--len", type=int, default=None)
        sp.add_argument("--weight", type=str, default=None)

    # the commands on one cell, each with at most one flag of its own
    for name, fn, flag, help_ in (
        ("x", cmd_x, "--dump-h", "one-dimensional sum Xbar"),
        ("m", cmd_m, None, "fermionic sum Mbar"),
        ("f", cmd_f, None, "rigged-configuration generating function"),
        ("rc-enum", cmd_rc_enum, "--json", "list rigged configurations"),
        ("path-enum", cmd_path_enum, None, "list classically restricted paths"),
    ):
        sp = sub.add_parser(name, help=help_)
        common(sp)
        if flag:
            sp.add_argument(flag, action="store_true")
        sp.set_defaults(fn=fn)

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
    except (RankError, PropagationError) as exc:  # a rank it cannot build
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
