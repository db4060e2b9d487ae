"""Mutation testing of one rcbij module against the tier-1 tests.

    python tools/mutate.py src/rcbij/bijection.py

Each mutant changes one spot of the module: one comparison swapped
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``), one call of
``min`` made a call of ``max`` or the other way round, or one integer
literal raised by 1.  ``src``, ``tests``, ``bench`` and ``pyproject.toml``
are copied into a temporary directory once, the working tree is never
written, and each mutant replaces the module in the copy before
``pytest -x`` runs there, for at most ``TIMEOUT`` seconds, on every test
but ``SKIPPED``.  A mutant is killed when the tests fail, error or time
out.

The mutants are written with ``ast.unparse``, so the module is first run
unmutated in that form: if the tests fail on it, nothing is reported.
The survivors are printed with the reason for each one known to be
equivalent (``EQUIVALENT``); the exit code is 1 when a survivor has no
recorded reason, and 2 when the unmutated run fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")
# Not run on a mutant: it checks EQUIVALENT against the source text, which
# a mutant changes at its spot, so it would kill every excused mutant.
SKIPPED = "tests/test_tools.py"
TIMEOUT = 120  # seconds per test run; the tier-1 suite takes under 30
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!="}
CALL_SWAPS = {"min": "max", "max": "min"}

# Survivors known to be equivalent: (module, a piece of the mutated
# spot's source line, mutation, why no test can tell the mutant apart).
EQUIVALENT = [
    ("bijection.py", "prev = 0", "0 -> 1",
     "every doubled length is >= 1, so a bound of 0 or 1 excludes nothing"),
    ("bijection.py", "fs.chain(range(n, 0, -1), 0)", "0 -> 1",
     "case P: no doubled length 1 where E is a letter"),
    ("bijection.py", "form2[-1][-1] > form2[-2][-2]", "> -> >=",
     "past the tail and the fork, no diagram has roots of one length at "
     "nodes n-1 and n"),
    ("bijection.py", "quasi = p2 - max(r for r in box(", "max -> min",
     "at p2 = 2 the box holds one rigging below 2 (0, or 1 on A2dag's "
     "half-odd lattice), so its max and its min agree"),
    ("bijection.py", "MEMO_CAP = 8192", "8192 -> 8193",
     "the cap bounds the step memos and changes no answer; a memo reaches "
     "it only after thousands of distinct steps, which no test takes"),
    ("bijection.py", "quasi if 0 in bs else 0", "0 -> 1",
     "where 0 is no letter (C1, A2) the doubled riggings and vacancies at "
     "node n are even, so no string sits 1 below its vacancy"),
    ("cartan.py", "combinations_with_replacement(range(L, -1, -1)", "1 -> 2",
     "a head entry of -1 makes the head end in -1, so the last entry's "
     "range(1 or 0, 0) is empty and the weight is never built"),
    ("cli.py", "failed += 1", "1 -> 2",
     "only the truthiness of failed is read"),
    ("cli.py", "return exc.code if isinstance(exc.code, int) else 2",
     "2 -> 3",
     "every SystemExit raised after parsing is _usage_error's SystemExit(2), "
     "whose code is an int"),
    ("crystal.py", "EMPTY = 10 ** 6", "10 -> 11",
     "the sentinel only has to exceed every letter (at most n + 1), and "
     "JSON and the CLI write it as E, never as its value"),
    ("crystal.py", "EMPTY = 10 ** 6", "6 -> 7",
     "the sentinel only has to exceed every letter (at most n + 1), and "
     "JSON and the CLI write it as E, never as its value"),
    ("crystal.py", "v[abs(b) - 1] = 1 if b > 0 else -1", "> -> >=",
     "the line is reached only for a letter b other than 0 and E, where "
     "b > 0 and b >= 0 agree"),
    ("rc.py", "return range(lo, p2 - lo + 1, 2)", "1 -> 2",
     "every doubled vacancy is even (C[a][b] is even wherever node a's or "
     "node b's lattice is odd), so the end p2 - lo + 2 adds no value to "
     "the step-2 range"),
    ("rc.py", "+= c * (x if x < i2 else i2)", "< -> <=",
     "x if x <= i2 else i2 is min(x, i2) as well"),
    ("qpoly.py", "prev = [(1,)] * (m + 1)", "1 -> 2",
     "the row list's entry m + 1 is never read"),
    ("qpoly.py", "parts.append(body if c > 0", "> -> >=",
     "no stored coefficient is 0"),
    ("qpoly.py", 'parts.append(("+ " if c > 0', "> -> >=",
     "no stored coefficient is 0"),
    ("qpoly.py", 'pw = "q^%d" % (e // 2) if e > 0', "> -> >=",
     "the branch is reached for e other than 0 (and 2)"),
    ("qpoly.py", 'pw = "q^%d" % (e // 2) if e > 0', "0 -> 1",
     "the branch is reached for even e other than 0, and no even e has "
     "0 < e <= 1"),
]


def known_reason(module, text, desc):
    """The recorded reason a survivor is equivalent, or None."""
    for mod, piece, mutation, reason in EQUIVALENT:
        if (mod, mutation) == (module, desc) and piece in text:
            return reason
    return None


def sites(tree):
    """Every mutable spot of tree, in a fixed walk order.

    A spot is (node, index of the operator or None for a literal or a
    called name, description).
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]
                    out.append((node, k, "%s -> %s" % (SYMBOL[type(op)],
                                                       SYMBOL[new])))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in CALL_SWAPS):
            name = node.func.id
            out.append((node.func, None, "%s -> %s" % (name,
                                                       CALL_SWAPS[name])))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, None, "%d -> %d" % (node.value,
                                                  node.value + 1)))
    return out


def mutant_source(source, index):
    """source with its index-th spot mutated, unparsed."""
    tree = ast.parse(source)
    node, k, _desc = sites(tree)[index]
    if isinstance(node, ast.Name):
        node.id = CALL_SWAPS[node.id]
    elif k is None:
        node.value += 1
    else:
        node.ops[k] = SWAPS[type(node.ops[k])]()
    return ast.unparse(tree)


def run_tests(copy):
    """True when the tests pass on the copy within TIMEOUT seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--ignore", SKIPPED, "tests"],
            cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="path of the module, e.g. "
                    "src/rcbij/bijection.py")
    args = ap.parse_args(argv)
    module = Path(args.module).resolve()
    rel = module.relative_to(ROOT)
    source = module.read_text()
    lines = source.splitlines()
    spots = [(node.lineno, desc)
             for node, _k, desc in sites(ast.parse(source))]
    with tempfile.TemporaryDirectory(prefix="rcbij-mutate-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, copy / name)
        target = copy / rel
        target.write_text(ast.unparse(ast.parse(source)))
        if not run_tests(copy):
            print("the tests fail on the unmutated module; no report")
            return 2
        survivors = []
        t0 = time.monotonic()
        for index, (line, desc) in enumerate(spots):
            target.write_text(mutant_source(source, index))
            if run_tests(copy):
                survivors.append((line, lines[line - 1].strip(), desc))
        elapsed = time.monotonic() - t0
    print("%s: %d of %d mutants killed in %.0f s"
          % (rel, len(spots) - len(survivors), len(spots), elapsed))
    unexplained = 0
    for line, text, desc in survivors:
        reason = known_reason(module.name, text, desc)
        unexplained += reason is None
        print("  survivor %s:%d  %s  [%s]  %s"
              % (rel, line, text, desc, reason or "NOT KNOWN EQUIVALENT"))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
