"""Faults planted in one layer, as ``rcbij.verify`` sees it, are caught."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import out_of_box
from rcbij import verify
from rcbij.bijection import NoPreimage
from rcbij.cartan import AffineType
from rcbij.cli import main
from rcbij.qpoly import QPoly
from rcbij.rc import (
    InvalidRC,
    complement,
    enumerate_rc,
    rc_from_json,
    rc_to_json,
)

# several configurations and a removal step each
CELL = (AffineType("C1", 2), (1, 0), 3)

# types certified in level runs, L <= 4
LEVEL_TYPES = [AffineType(fam, n) for fam, n in (
    ("C1", 2), ("B1", 3), ("D2", 2), ("A2", 2), ("A2dag", 1),
)]


def raising(exc):
    """A breaker that makes the layer raise exc."""
    def broken(*args):
        raise exc
    return lambda f: broken


# (layer, how to break it given the real function, the check that fails)
PLANTED = [
    ("rc_genfun", lambda f: lambda *a: f(*a) + QPoly.one(), "xbar=rc_genfun"),
    ("fermionic_m", lambda f: lambda *a: f(*a) + QPoly.one(),
     "fermionic_m=rc_genfun"),
    ("enumerate_highest", lambda f: lambda *a: f(*a)[1:], "|rc|=|paths|"),
    ("phi", lambda f: lambda *a: (), "phi"),
    ("dbar", lambda f: lambda *a: f(*a) + 1, "cc=2dbar"),
    ("complement", lambda f: lambda at, L, rc: out_of_box(at, L, f(at, L, rc)),
     "cc=2dbar"),
    ("delta_inverse", lambda f: lambda *a: (), "delta_inverse"),
    ("phi_inverse", lambda f: lambda *a: (), "phi_inverse"),
    pytest.param("delta_inverse", raising(NoPreimage("planted")),
                 "delta_inverse", id="delta_inverse-raises-delta_inverse"),
    pytest.param("phi", raising(InvalidRC("planted")), "phi",
                 id="phi-raises-phi"),
]


@pytest.mark.parametrize("layer,breaker,check", PLANTED)
def test_planted_fault_names_its_check(monkeypatch, layer, breaker, check):
    monkeypatch.setattr(verify, layer, breaker(getattr(verify, layer)))
    ok, _row, failure = verify.verify_cell(*CELL)
    assert not ok and failure["check"] == check
    if verify.CHECKS.index(check) < verify.CHECKS.index("phi"):
        assert failure["rc"] is None
        return
    at, lam, L, rc = rc_from_json(failure["rc"])
    assert (at, lam, L) == CELL
    assert rc in enumerate_rc(*CELL)
    assert rc_to_json(at, lam, L, rc) == failure["rc"]


def test_verify_writes_failure_record(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(verify, "dbar", lambda at, word: 99)
    gridfile = tmp_path / "grid.json"
    gridfile.write_text(json.dumps(
        {"cells": [{"type": "C1", "n": 2, "L": 3, "lambda": [1, 0]}]}
    ))
    assert main(["verify", "--grid", str(gridfile)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].endswith("\tNO")
    (line,) = err.splitlines()
    record = json.loads(line)
    assert list(record) == ["type", "n", "L", "lambda", "check", "rc"]
    assert record["check"] == "cc=2dbar"
    assert record["rc"]["lambda"] == [1, 0]


def test_verify_tsv_matches_bench_reference():
    """``verify --max-len 4`` prints the TSV the benchmark gates on.

    bench/reference.json holds the first 16 hex digits of the sha256 of
    the header and of each row, keyed by the row's first four columns.
    """
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
    ref = json.loads(path.read_text())
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify", "--max-len", "4"])
    header, *rows = buf.getvalue().splitlines()

    def digest(line):
        return hashlib.sha256(line.encode()).hexdigest()[:16]

    assert code == 0 and digest(header) == ref["verify_header"]
    assert {" ".join(row.split("\t")[:4]): digest(row) for row in rows} \
        == ref["verify"]
    assert len(rows) == len(ref["verify"])


def test_level_table_changes_no_answer():
    for at in LEVEL_TYPES:
        levels = verify.Levels()
        for cell in verify.cells_for(at, 4):
            assert verify.verify_cell(*cell, levels) == \
                verify.verify_cell(*cell), cell


@pytest.mark.parametrize("at", LEVEL_TYPES, ids=str)
def test_level_run_catches_wrong_delta(monkeypatch, at):
    """A delta that complements its smaller configuration is caught.

    The words of the smaller configurations then come from the table of
    the level below, so a table hit must not hide the wrong step.
    """
    real = verify.delta

    def wrong(at, lam, L, rc):
        b, small, tr = real(at, lam, L, rc)
        return b, complement(at, L - 1, small), tr

    monkeypatch.setattr(verify, "delta", wrong)
    levels = verify.Levels()
    checks = []
    for cell in verify.cells_for(at, 4):
        ok, _row, failure = verify.verify_cell(*cell, levels)
        if not ok:
            checks.append(failure["check"])
    # complementing is a bijection of the smaller cell, so phi stays
    # injective; the statistic breaks
    assert checks and set(checks) == {"cc=2dbar"}


def test_level_run_validates_a_missed_step(monkeypatch):
    """A delta whose smaller configuration leaves its box fails phi.

    That configuration is in no table, so the miss is validated before
    the recursion would run on it; the failure names the first
    configuration whose step went wrong.
    """
    real = verify.delta

    def wrong(at, lam, L, rc):
        b, small, tr = real(at, lam, L, rc)
        return b, out_of_box(at, L - 1, small), tr

    monkeypatch.setattr(verify, "delta", wrong)
    recursed = []  # the configurations verify_cell runs phi on
    real_phi = verify.phi
    monkeypatch.setattr(
        verify, "phi", lambda *a: recursed.append(a[3]) or real_phi(*a))
    at = AffineType("C1", 2)
    levels = verify.Levels()
    failed = 0
    for cell in verify.cells_for(at, 4):
        ok, _row, failure = verify.verify_cell(*cell, levels)
        # the configurations whose smaller configuration has a string
        broken = [rc for rc in enumerate_rc(*cell)
                  if cell[2] and any(real(*cell, rc)[1])]
        assert ok == (not broken), cell
        if not ok:
            assert failure["check"] == "phi"
            assert rc_from_json(failure["rc"]) == cell + (broken[0],)
            failed += 1
    assert failed == 7
    # validated before the recursion: phi ran on no broken configuration
    assert recursed and not any(any(rc) for rc in recursed)
