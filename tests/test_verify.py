"""Faults planted in one layer, as ``rcbij.verify`` sees it, are caught."""

import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import EXTENDED, out_of_box
import oracles
from oracles import cc2_total_by_form
from rcbij import bijection, energy, rc as rc_mod, verify
from rcbij.bijection import NoPreimage
from rcbij.cartan import AffineType
from rcbij.cli import main
from rcbij.crystal import enumerate_highest
from rcbij.energy import xbar
from rcbij.qpoly import QPoly
from rcbij.rc import (
    Config,
    InvalidRC,
    cc_configs,
    complement,
    complements,
    enumerate_rc,
    fermionic_m,
    rc_from_json,
    rc_genfun,
    rc_to_json,
    rigged_cc2,
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


def complements_out_of_box(f):
    """Every complement raised out of its box, as for CELL's length."""
    return lambda at, configs: [out_of_box(at, CELL[2], rc_c)
                                for rc_c in f(at, configs)]


# (layer, how to break it given the real function, the check that fails).
# The rigged-configuration sum, the fermionic sum and the complements are
# read off the cell's one admissible pass, so their faults are planted in
# the functions verify_cell reads them from; their ids are the ones of the
# faults they replace.  The path energies feed Xbar as well as the cc
# check, so a wrong dbar or a lost path now fails Xbar first, and a lost
# rigged configuration is what |rc|=|paths| is left to catch.
PLANTED = [
    pytest.param("rigged_cc2", lambda f: lambda *a: f(*a) + [0],
                 "xbar=rc_genfun", id="rc_genfun-<lambda>-xbar=rc_genfun"),
    pytest.param("fermionic", lambda f: lambda *a: f(*a) + QPoly({0: 1}),
                 "fermionic_m=rc_genfun",
                 id="fermionic_m-<lambda>-fermionic_m=rc_genfun"),
    ("enumerate_highest", lambda f: lambda *a: f(*a)[1:], "xbar=rc_genfun"),
    ("rigged", lambda f: lambda *a: f(*a)[1:], "|rc|=|paths|"),
    ("phi", lambda f: lambda *a: (), "phi"),
    ("dbar", lambda f: lambda *a: f(*a) + 1, "xbar=rc_genfun"),
    pytest.param("complements", complements_out_of_box, "cc=2dbar",
                 id="complement-<lambda>-cc=2dbar"),
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
    # every planted fault breaks the cell's first configuration
    assert rc == enumerate_rc(*CELL)[0]
    assert rc_to_json(at, lam, L, rc) == failure["rc"]


def test_planted_faults_cover_every_check():
    planted = {p.values[2] if hasattr(p, "values") else p[2]
               for p in PLANTED}
    assert planted == set(verify.CHECKS)


def test_verify_writes_failure_record(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(verify, "complements", complements_out_of_box(
        verify.complements))
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


def test_level_table_changes_no_answer(monkeypatch):
    """A level run gives each cell's answer, and its table holds every
    smaller configuration: phi runs only on the one configuration at
    L = 0, and no smaller configuration is validated."""
    calls = Counter()
    for name in ("phi", "validate_rc"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, _name=name, _real=real:
                            calls.update([_name]) or _real(*a))
    for at in LEVEL_TYPES:
        levels = verify.Levels()
        for cell in verify.cells_for(at, 4):
            calls.clear()
            in_run = verify.verify_cell(*cell, levels)
            assert calls == (Counter(phi=1) if cell[2] == 0 else Counter())
            assert in_run == verify.verify_cell(*cell), cell


@pytest.mark.parametrize("at", LEVEL_TYPES, ids=str)
def test_level_run_catches_wrong_delta(monkeypatch, at):
    """A delta that complements its smaller configuration is caught.

    The words of the smaller configurations then come from the table of
    the level below, so a table hit must not hide the wrong step.
    """
    real = verify.delta_step

    def wrong(at, lam, L, rc):
        b, small = real(at, lam, L, rc)
        return b, complement(at, L - 1, small)

    monkeypatch.setattr(verify, "delta_step", wrong)
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
    real = verify.delta_step

    def wrong(at, lam, L, rc):
        b, small = real(at, lam, L, rc)
        return b, out_of_box(at, L - 1, small)

    monkeypatch.setattr(verify, "delta_step", wrong)
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


# cells whose configurations step down to smaller ones with strings
PINNED = [
    CELL,
    (AffineType("A2", 2), (2, 1), 5),
    (AffineType("D2", 3), (2, 1, 0), 4),
    (AffineType("B1", 3), (1, 1, 0), 4),
]


@pytest.mark.parametrize("cell", PINNED, ids=str)
def test_one_pass_per_cell(monkeypatch, cell):
    """verify_cell builds each side of a cell once.

    One path enumeration and one dbar per path; one admissible pass, which
    gives every cc with it (neither the form's double sum nor the per-rc
    cc2_total runs); one Config for each configuration's
    delta step and one for its delta_inverse check; and inside each phi
    and phi_inverse it runs, one Config per configuration (L + 1 of them).
    """
    paths = enumerate_highest(*cell)
    calls = Counter()
    configs_in = []  # (the map, its length L, the Configs built in it)

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def configs_built(name, fn):
        def wrapped(*args):
            before = calls["Config"]
            try:
                return fn(*args)
            finally:
                L = args[2] if name.startswith("phi") else None
                configs_in.append((name, L, calls["Config"] - before))
        return wrapped

    for module, name in ((verify, "enumerate_highest"),
                         (energy, "enumerate_highest"),
                         (verify, "dbar"), (energy, "dbar"),
                         (rc_mod, "_admissible"), (rc_mod, "cc2_total"),
                         (oracles, "cc2_config_by_form")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(Config, "__init__",
                        counted("Config", Config.__init__))
    for name in ("phi", "phi_inverse", "delta_step", "delta_inverse"):
        monkeypatch.setattr(verify, name,
                            configs_built(name, getattr(verify, name)))

    ok, row, _failure = verify.verify_cell(*cell)
    assert ok and row[1] == len(paths) > 1
    assert calls["enumerate_highest"] == 1
    assert calls["dbar"] == len(paths)
    assert calls["_admissible"] == 1
    assert calls["cc2_total"] == calls["cc2_config_by_form"] == 0
    per_step = Counter(name for name, _L, _k in configs_in)
    assert per_step["delta_step"] == per_step["delta_inverse"] == row[0]
    assert set(per_step) == {"phi", "phi_inverse", "delta_step",
                             "delta_inverse"}
    one_each = ("delta_step", "delta_inverse")
    assert all(k == (1 if name in one_each else L + 1)
               for name, L, k in configs_in), configs_in


def test_no_trace_on_the_hot_path(monkeypatch):
    """Only the public delta builds a DeltaTrace: phi, phi_inverse and
    verify_cell step without one."""
    built = []
    real = bijection.DeltaTrace
    monkeypatch.setattr(bijection, "DeltaTrace",
                        lambda *a: built.append(a) or real(*a))
    for cell in PINNED:
        assert verify.verify_cell(*cell)[0]
        for rc in enumerate_rc(*cell):
            word = bijection.phi(*cell, rc)
            assert bijection.phi_inverse(*cell, word) == rc
    assert not built
    bijection.delta(*CELL, enumerate_rc(*CELL)[0])
    assert len(built) == 1


def _extended_cells():
    return [cell for at in EXTENDED for cell in verify.cells_for(at, 4)]


def test_verify_row_is_what_the_commands_print(battery):
    """verify_cell's row is the public functions' answers.

    ``rcbij rc-enum``, ``path-enum``, ``x``, ``f`` and ``m`` print these
    functions, so they print what ``verify`` certifies.  The cc of each
    rigged configuration and its complement off the boxes are the form's
    cc (the oracle) and complement, which ``map --tilde`` reads.
    """
    answers = {cell: row for cell, (_rcs, (_ok, row, _f)) in battery.items()
               if cell[2] <= 4}
    levels = verify.Levels()
    for cell in _extended_cells():
        answers[cell] = verify.verify_cell(*cell, levels)[1]
    assert len(answers) > 1500
    for cell, row in answers.items():
        at, _lam, L = cell
        rcs = enumerate_rc(*cell)
        mb = rc_genfun(*cell)
        assert row == (len(rcs), len(enumerate_highest(*cell)),
                       str(xbar(*cell)), str(mb)), cell
        assert fermionic_m(*cell) == mb, cell
        configs = cc_configs(*cell)
        assert rigged_cc2(at, configs) == \
            [cc2_total_by_form(at, rc) for rc in rcs], cell
        assert complements(at, configs) == \
            [complement(at, L, rc) for rc in rcs], cell
