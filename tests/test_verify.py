"""Faults planted in one layer, as ``rcbij.verify`` sees it, are caught."""

import json

import pytest

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
