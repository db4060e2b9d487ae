"""Bad input never ends in a traceback: arbitrary JSON and flag values.

Each command either succeeds (exit 0, nothing on stderr) or refuses its
input with exit 2 and exactly one ``error:`` line on stderr.  An exception
that escapes ``cli.main`` fails the test.  The drawn ranks are at most 4,
or one above the ceiling, which is refused; the drawn lengths are at most
4, so every accepted input runs in milliseconds.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import GRID_TYPES
from rcbij.bijection import NoPreimage, phi_inverse
from rcbij.cartan import _MAX_RANK, FAMILIES, dominant_weights
from rcbij.cli import main
from rcbij.crystal import letters, wt_path
from rcbij.rc import rc_to_json

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None, suppress_health_check=[HealthCheck.too_slow])

leaf = (st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=2)
        | st.floats(allow_nan=False, allow_infinity=False))
anything = st.recursive(
    leaf, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=6)


def mostly(good, bad=anything):
    """good three times in four, bad (any JSON value) the fourth."""
    return st.one_of(good, good, good, bad)


family = mostly(st.sampled_from(FAMILIES))
rank = mostly(st.integers(1, 4) | st.just(_MAX_RANK + 1))
length = mostly(st.integers(-1, 4))
weight = mostly(st.lists(st.integers(-1, 4), max_size=5))
string = mostly(st.fixed_dictionaries(
    {"len2": st.integers(-1, 6), "rig2": st.integers(-3, 6)}))
node = mostly(st.fixed_dictionaries(
    {"a": st.integers(0, 5), "strings": st.lists(string, max_size=3)}))
letter = mostly(st.sampled_from(["1", "1", "2", "-1", "-2", "0", "E", "5"]))


rc_json = st.fixed_dictionaries(
    {"type": family, "n": rank}, optional={
        "L": length, "lambda": weight,
        "nu": mostly(st.lists(node, max_size=4))})
path_json = st.fixed_dictionaries(
    {"type": family, "n": rank},
    optional={"word": mostly(st.lists(letter, max_size=4))})


@st.composite
def near_rc_json(draw):
    """The rigged configuration of a drawn path, with one entry perhaps
    moved: a rigging or a length by one step, or a key replaced."""
    at = draw(st.sampled_from(GRID_TYPES))
    # 1 three times as likely, so that more words are restricted paths
    word = draw(st.lists(st.sampled_from(letters(at) + (1, 1)), max_size=4))
    lam, L = wt_path(at, word), len(word)
    try:
        rc = phi_inverse(at, lam, L, tuple(word))
    except NoPreimage:
        return rc_to_json(at, (0,) * at.weight_len, 0, ((),) * at.n)
    data = rc_to_json(at, lam, L, rc)
    strings = [s for node in data["nu"] for s in node["strings"]]
    change = draw(st.sampled_from(["none", "none", "step", "key"]))
    if change == "step" and strings:
        s = draw(st.sampled_from(strings))
        s[draw(st.sampled_from(["len2", "rig2"]))] += draw(
            st.sampled_from([-2, -1, 1, 2]))
    elif change == "key":
        data[draw(st.sampled_from(sorted(data)))] = draw(anything)
    return data


@st.composite
def cell(draw):
    """A grid cell: a battery type at a length up to 4 (or -1), with one of
    its dominant weights or a list of small ints."""
    at = draw(st.sampled_from(GRID_TYPES))
    L = draw(st.sampled_from([-1, 0, 1, 2, 2, 3, 3, 4, 4]))
    lam = draw(mostly(st.sampled_from(dominant_weights(at, max(L, 0))),
                      st.lists(st.integers(-1, 4), max_size=5)))
    return {"type": at.family, "n": at.n, "L": L, "lambda": list(lam)}


grid_cell = st.one_of(cell(), cell(), st.fixed_dictionaries(
    {"type": family, "n": rank},
    optional={"L": length, "lambda": weight, "max_len": length}))
grid_json = mostly(st.fixed_dictionaries(
    {"cells": st.lists(grid_cell, max_size=2)}))
stdin_text = st.one_of(near_rc_json(), near_rc_json(), path_json, path_json,
                       rc_json, anything).map(json.dumps) | st.text(max_size=4)
text = st.text(max_size=3)
flag_rank = st.sampled_from(["-1", "0", str(_MAX_RANK + 1)]) | text


@st.composite
def cell_flags(draw):
    """The flags of a drawn cell, one of them perhaps replaced."""
    c = draw(cell())
    flags = [["--type", c["type"]], ["--n", str(c["n"])],
             ["--len", str(c["L"])],
             ["--weight", ",".join(map(str, c["lambda"]))]]
    k = draw(st.integers(0, 7))  # 4 to 7 replace none
    if k < 4:
        flags[k][1] = draw(flag_rank if k == 1 else text)
    return sum(flags, [])


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, err.getvalue()


def _check(argv, stdin_text=""):
    code, err = _run(argv, stdin_text)
    assert code in (0, 2), (argv, stdin_text, code, err)
    if code:  # argparse prints its usage before its one error line
        assert [ln for ln in err.splitlines() if "error:" in ln] == [
            err.splitlines()[-1]], (argv, stdin_text, err)
    else:
        assert err == "", (argv, stdin_text, err)


@FUZZ
@given(st.sampled_from(["rc2path", "path2rc"]), st.booleans(), stdin_text)
def test_map_never_ends_in_a_traceback(direction, tilde, stdin):
    _check(["map", "--dir", direction] + ["--tilde"] * tilde, stdin)


@FUZZ
@given(grid_json, st.sampled_from(["1"] * 5 + ["0", "-1", "x"]),
       st.booleans())
def test_verify_grid_never_ends_in_a_traceback(grid, jobs, relax):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.json")
        with open(path, "w") as fh:
            json.dump(grid, fh)
        _check(["verify", "--grid", path, "--jobs", jobs]
               + ["--relax-rank"] * relax)


@FUZZ
@given(st.sampled_from(["x", "m", "f", "rc-enum", "path-enum"]),
       cell_flags(), st.booleans(), st.booleans())
def test_cell_commands_never_end_in_a_traceback(cmd, flags, relax, own_flag):
    flag = {"x": ["--dump-h"], "rc-enum": ["--json"]}.get(cmd, [])
    _check([cmd] + flags + ["--relax-rank"] * relax + flag * own_flag)
