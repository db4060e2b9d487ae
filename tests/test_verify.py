"""Faults planted in one layer, as ``rcbij.verify`` sees it, are caught."""

import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import EXTENDED, GRID_TYPES, empty_memos, out_of_box
import oracles
from oracles import cc2_total_by_form
from rcbij import bijection, energy, rc as rc_mod, verify
from rcbij.bijection import NoPreimage
from rcbij.cartan import AffineType, dominant_weights
from rcbij.cli import main
from rcbij.crystal import enumerate_highest, rest_weight
from rcbij.energy import xbar
from rcbij.qpoly import QPoly
from rcbij.rc import (
    Config,
    InvalidRC,
    cc_configs,
    complement,
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


def complement_out_of_box(f):
    """Config.complement with its result raised out of its box."""
    return lambda cf: out_of_box(cf.at, cf.L, f(cf))


# (layer, how to break it given the real function, the check that fails).
# A layer is a name in verify, or Config.complement, the complement map
# --tilde prints.  The rigged-configuration sum and the fermionic sum are
# read off the cell's one admissible pass, so their faults are planted in
# the functions verify_cell reads them from; their ids are the ones of the
# faults they replace.  The path energies feed Xbar as well as the cc
# check, so a wrong dbar or a lost path now fails Xbar first, and a lost
# rigged configuration is what |rc|=|paths| is left to catch.  The path
# energies come off the path memo, so their fault is planted in dbars,
# which reads them, with the id of the fault in dbar it replaces.  The
# delta_inverse check steps from the smaller Config the phi check read,
# so its faults are planted in _delta_inverse, with the ids of the faults
# in the public delta_inverse they replace.
PLANTED = [
    pytest.param("rigged_cc2", lambda f: lambda *a: f(*a) + [0],
                 "xbar=rc_genfun", id="rc_genfun-<lambda>-xbar=rc_genfun"),
    pytest.param("fermionic", lambda f: lambda *a: f(*a) + QPoly({0: 1}),
                 "fermionic_m=rc_genfun",
                 id="fermionic_m-<lambda>-fermionic_m=rc_genfun"),
    ("enumerate_highest", lambda f: lambda *a: f(*a)[1:], "xbar=rc_genfun"),
    ("rigged", lambda f: lambda *a: f(*a)[1:], "|rc|=|paths|"),
    pytest.param("_phi", lambda f: lambda *a: (), "phi",
                 id="phi-<lambda>-phi"),
    pytest.param("dbars", lambda f: lambda *a: [d + 1 for d in f(*a)],
                 "xbar=rc_genfun", id="dbar-<lambda>-xbar=rc_genfun"),
    pytest.param("Config.complement", complement_out_of_box, "cc=2dbar",
                 id="complement-<lambda>-cc=2dbar"),
    pytest.param("_delta_inverse", lambda f: lambda *a: (), "delta_inverse",
                 id="delta_inverse-<lambda>-delta_inverse"),
    ("phi_inverse", lambda f: lambda *a: (), "phi_inverse"),
    pytest.param("_delta_inverse", raising(NoPreimage("planted")),
                 "delta_inverse", id="delta_inverse-raises-delta_inverse"),
    pytest.param("_phi", raising(InvalidRC("planted")), "phi",
                 id="phi-raises-phi"),
]


def plant(monkeypatch, layer, breaker):
    owner = Config if layer.startswith("Config.") else verify
    name = layer.rpartition(".")[2]
    monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))


@pytest.mark.parametrize("layer,breaker,check", PLANTED)
def test_planted_fault_names_its_check(monkeypatch, layer, breaker, check):
    plant(monkeypatch, layer, breaker)
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


def test_empty_cell_runs_only_its_emptiness_checks(monkeypatch):
    """An empty cell, with no path and no configuration, builds both sides
    once and passes on that alone: no energy, Config, sum or map is read
    or built for it.  The battery has 403 of them to L = 4."""
    cells = [cell for at in GRID_TYPES for cell in verify.cells_for(at, 4)
             if not enumerate_highest(*cell) and not cc_configs(*cell)]
    assert len(cells) == 403
    calls = Counter()

    def counted(name, fn):
        return lambda *a: calls.update([name]) or fn(*a)

    for name in ("enumerate_highest", "cc_configs", "dbars", "rigged",
                 "rigged_cc2", "fermionic", "_delta", "_phi", "validate_rc",
                 "_delta_inverse", "phi_inverse"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    monkeypatch.setattr(QPoly, "count",
                        staticmethod(counted("QPoly.count", QPoly.count)))
    for cell in cells:
        calls.clear()
        assert verify.verify_cell(*cell) == (True, (0, 0, "0", "0"), None)
        assert calls == Counter(enumerate_highest=1, cc_configs=1), cell


# three empty cells, each at a type and length where another cell is not
EMPTY = [
    (AffineType("C1", 2), (0, 0), 1),
    (AffineType("A2", 2), (2, 1), 2),
    (AffineType("D1", 4), (1, 1, 1, -1), 1),
]


@pytest.mark.parametrize("side", ["paths", "configs"])
@pytest.mark.parametrize("cell", EMPTY, ids=str)
def test_one_empty_side_still_fails(monkeypatch, cell, side):
    """An empty cell with a path planted on its path side, or another
    cell's configurations on its rc side, fails Xbar: only a cell with
    both sides empty passes unchecked."""
    at, lam, L = cell
    assert not enumerate_highest(*cell) and not cc_configs(*cell)
    if side == "paths":
        monkeypatch.setattr(verify, "enumerate_highest",
                            lambda *a: [(1,) * L])
        monkeypatch.setattr(verify, "dbars", lambda *a: [0])
    else:
        configs = next(c for c in (cc_configs(at, mu, L)
                                   for mu in dominant_weights(at, L)) if c)
        monkeypatch.setattr(verify, "cc_configs", lambda *a: configs)
    ok, _row, failure = verify.verify_cell(*cell)
    assert not ok
    assert failure == {"check": "xbar=rc_genfun", "rc": None}


def test_planted_faults_cover_every_check():
    planted = {p.values[2] if hasattr(p, "values") else p[2]
               for p in PLANTED}
    assert planted == set(verify.CHECKS)


def test_verify_writes_failure_record(monkeypatch, capsys, tmp_path):
    plant(monkeypatch, "Config.complement", complement_out_of_box)
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
    # with the fault undone, the record's configuration replays through map
    monkeypatch.undo()
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record["rc"])))
    assert main(["map", "--dir", "rc2path"]) == 0
    out, err = capsys.readouterr()
    (line,) = out.splitlines()
    word = json.loads(line)
    assert {k: word[k] for k in ("type", "n", "L", "lambda")} == \
        {k: record[k] for k in ("type", "n", "L", "lambda")}
    assert len(word["word"]) == 3 and not err


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
    for name in ("_phi", "validate_rc"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, _name=name, _real=real:
                            calls.update([_name]) or _real(*a))
    for at in LEVEL_TYPES:
        levels = {}
        for cell in verify.cells_for(at, 4):
            calls.clear()
            in_run = verify.verify_cell(*cell, levels)
            assert calls == (Counter(_phi=1) if cell[2] == 0 else Counter())
            assert in_run == verify.verify_cell(*cell), cell
    # out of order on one table: L = 0..4, then 2, then 4 again; the
    # table holds at most the cell's level and the one below it
    at = LEVEL_TYPES[0]
    levels = {}
    other = {(AffineType("B1", 3), 1): {}, (at, 0): {}}  # dropped at once
    for L in (0, 1, 2, 3, 4, 2, 4):
        for lam in dominant_weights(at, L):
            if L == 3:
                levels.update(other)
            in_run = verify.verify_cell(at, lam, L, levels)
            assert in_run == verify.verify_cell(at, lam, L), (at, lam, L)
            assert levels.keys() <= {(at, L - 1), (at, L)}, (at, lam, L)
            assert (at, L) in levels


@pytest.mark.parametrize("at", LEVEL_TYPES, ids=str)
def test_level_run_catches_wrong_delta(monkeypatch, at):
    """A delta that complements its smaller configuration is caught.

    The words of the smaller configurations then come from the table of
    the level below, so a table hit must not hide the wrong step.
    """
    real = verify._delta

    def wrong(cf, lam):
        b, small, sc = real(cf, lam)
        return b, complement(cf.at, cf.L - 1, small), sc

    monkeypatch.setattr(verify, "_delta", wrong)
    levels = {}
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
    real = verify._delta

    def wrong(cf, lam):
        b, small, sc = real(cf, lam)
        return b, out_of_box(cf.at, cf.L - 1, small), sc

    monkeypatch.setattr(verify, "_delta", wrong)
    recursed = []  # the configurations verify_cell runs phi on
    real_phi = verify._phi
    monkeypatch.setattr(
        verify, "_phi", lambda cf, lam: recursed.append(cf.rc)
        or real_phi(cf, lam))
    at = AffineType("C1", 2)
    levels = {}
    failed = 0
    for cell in verify.cells_for(at, 4):
        ok, _row, failure = verify.verify_cell(*cell, levels)
        # the configurations whose smaller configuration has a string
        broken = [rc for rc in enumerate_rc(*cell)
                  if cell[2] and any(bijection.delta(*cell, rc)[1])]
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

    One path enumeration and one read of the energies the path memo built
    with the paths, and no dbar call; one admissible pass, which
    gives every cc with it (neither the form's double sum nor the per-rc
    cc2_total runs).  In the phi loop, one Config per configuration, which
    rigged builds off that pass (not through Config.__init__), and which
    its delta step and its complement both read; with an empty level
    table each smaller configuration is validated into one Config, which
    phi steps from (L - 1 more).  None for the delta_inverse checks, each
    of which steps from the very Config its configuration's smaller one
    was validated into, and L + 1 inside phi_inverse.  The type's memos
    start empty, so a pass or a box addition an earlier test kept does
    not stand in for this one, and the table of checked phi steps is
    emptied before each recursion, so each one runs cold.

    Warm, once a certificate of the cell has filled the type's tables,
    each recursion meets the rest of its word after one delta step and
    phi_inverse takes no step: neither builds a Config of its own but the
    empty one phi_inverse starts from.
    """
    at = cell[0]
    empty_memos(monkeypatch, at)
    cold = [True]
    real_phi = verify._phi

    def phi_cold(cf, lam):
        if cold[0]:
            at.tails.clear()
        return real_phi(cf, lam)

    monkeypatch.setattr(verify, "_phi", phi_cold)
    paths = enumerate_highest(*cell)
    calls = Counter()
    configs_in = []  # (the map, the Configs built in it)
    # the Configs each one read
    read = {"_delta": [], "complement": [], "_delta_inverse": []}

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
                configs_in.append((name, calls["Config"] - before))
        return wrapped

    def reading(name, fn):
        def wrapped(cf, *args):
            read[name].append(cf)
            return fn(cf, *args)
        return wrapped

    for module, name in ((verify, "enumerate_highest"),
                         (energy, "enumerate_highest"),
                         (verify, "dbars"), (energy, "dbars"),
                         (energy, "dbar"),
                         (rc_mod, "_admissible"), (rc_mod, "cc2_total"),
                         (oracles, "cc2_config_by_form")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(Config, "__init__",
                        counted("Config", Config.__init__))
    real_rigged = verify.rigged
    from_groups = []  # the Configs rigged built

    def rigged(*args):
        out = real_rigged(*args)
        from_groups.extend(out)
        return out

    monkeypatch.setattr(verify, "rigged", rigged)
    real_validate = verify.validate_rc
    validated = []  # the Configs validate_rc built

    def validate_rc(*args):
        validated.append(real_validate(*args))
        return validated[-1]

    monkeypatch.setattr(verify, "validate_rc", validate_rc)
    monkeypatch.setattr(Config, "complement",
                        reading("complement", Config.complement))
    for name in ("_delta", "_delta_inverse"):
        monkeypatch.setattr(verify, name, reading(name, getattr(verify, name)))
    for name in ("_phi", "validate_rc", "phi_inverse", "_delta_inverse",
                 "_delta"):
        monkeypatch.setattr(verify, name,
                            configs_built(name, getattr(verify, name)))

    ok, row, _failure = verify.verify_cell(*cell)
    assert ok and row[1] == len(paths) > 1
    assert calls["enumerate_highest"] == 1
    assert calls["dbars"] == 1 and calls["dbar"] == 0
    assert calls["_admissible"] == 1
    assert calls["cc2_total"] == calls["cc2_config_by_form"] == 0
    L, nrc = cell[2], row[0]
    per_map = {}
    for name, k in configs_in:
        per_map.setdefault(name, []).append(k)
    assert per_map == {"_delta": [0] * nrc, "validate_rc": [1] * nrc,
                       "_phi": [L - 1] * nrc, "_delta_inverse": [0] * nrc,
                       "phi_inverse": [L + 1]}
    # each delta_inverse check read the Config its smaller configuration
    # was validated into, the table being empty
    assert len(validated) == nrc
    assert all(a is b for a, b in zip(read["_delta_inverse"], validated,
                                      strict=True))
    # the rest were built by rigged, one per configuration, and none by
    # verify_cell itself
    assert calls["Config"] - sum(k for _name, k in configs_in) == 0
    assert len(from_groups) == nrc
    # ... and each was read by its delta step and then its complement
    assert all(a is b for a, b in zip(read["_delta"], from_groups,
                                      strict=True))
    assert all(a is b for a, b in zip(read["_delta"], read["complement"],
                                      strict=True))
    assert [cf.rc for cf in read["_delta"]] == enumerate_rc(*cell)
    cold[0] = False
    assert verify.verify_cell(*cell)[0]  # fills at.tails
    configs_in.clear()
    calls.clear()
    from_groups.clear()
    validated.clear()
    read["_delta_inverse"].clear()
    assert verify.verify_cell(*cell) == (ok, row, None)
    per_map = {}
    for name, k in configs_in:
        per_map.setdefault(name, []).append(k)
    assert per_map == {"_delta": [0] * nrc, "validate_rc": [1] * nrc,
                       "_phi": [0] * nrc, "_delta_inverse": [0] * nrc,
                       "phi_inverse": [1]}
    assert calls["Config"] - sum(k for _name, k in configs_in) == 0
    assert len(from_groups) == nrc
    assert all(a is b for a, b in zip(read["_delta_inverse"], validated,
                                      strict=True))


@pytest.mark.parametrize("cell", PINNED, ids=str)
def test_delta_inverse_reads_the_held_config(monkeypatch, cell):
    """In a level run, each delta_inverse check steps from the very Config
    the level table holds for its smaller configuration, or on a miss from
    the one validate_rc built.  After a run to L = 5 the table holds
    levels 4 and 5 only, each Config under the key of its own rc and L.
    """
    at = cell[0]
    real_validate, real_inverse = verify.validate_rc, verify._delta_inverse
    validated, read = [], []  # the Configs validate_rc built; each check's

    def validate_rc(*args):
        validated.append(real_validate(*args))
        return validated[-1]

    monkeypatch.setattr(verify, "validate_rc", validate_rc)
    monkeypatch.setattr(verify, "_delta_inverse", lambda cf, b: (
        read.append((cf, b)) or real_inverse(cf, b)))
    levels = {}
    hits = 0
    for c in verify.cells_for(at, 5):
        L = c[2]
        below = dict(levels.get((at, L - 1), {}))
        validated.clear()
        read.clear()
        assert verify.verify_cell(*c, levels)[0]
        missed = iter(validated)
        for cf, b in read:
            # the smaller configuration's weight: the letter off the cell's
            held = below.get((rest_weight(at, c[1], b), cf.rc))
            if held is None:
                assert cf is next(missed)
            else:
                assert cf is held[1]
                hits += 1
        assert next(missed, None) is None
        assert len(read) == (L > 0) * len(enumerate_rc(*c))
    assert hits > 0
    assert set(levels) == {(at, 4), (at, 5)}
    for (at1, L), table in levels.items():
        for (lam, rc), (word, cf) in table.items():
            assert (cf.at, cf.L, cf.rc) == (at1, L, rc)
            assert len(word) == L


def test_delta_inverse_check_reads_no_weight(monkeypatch):
    """verify's delta_inverse check only adds boxes: while it runs, no
    letter's weight is built and neither dominance nor rest_weight is
    read, though the delta steps of the same cells read rest_weight."""
    inside, calls = [], {"inside": [], "outside": []}
    real = verify._delta_inverse

    def check(cf, b):
        inside.append(b)
        try:
            return real(cf, b)
        finally:
            inside.pop()

    def counted(name, fn):
        return lambda *a: (calls["inside" if inside else "outside"]
                           .append(name) or fn(*a))

    monkeypatch.setattr(verify, "_delta_inverse", check)
    for name in ("wt_letter", "is_dominant", "rest_weight"):
        monkeypatch.setattr(bijection, name,
                            counted(name, getattr(bijection, name)))
    for cell in PINNED:
        assert verify.verify_cell(*cell)[0]
    assert not calls["inside"] and "rest_weight" in calls["outside"]


@pytest.mark.parametrize("cell", PINNED, ids=str)
def test_out_of_box_rigging_in_a_group_built_config(monkeypatch, cell):
    """An out-of-box rigging planted in the first Config rigged builds off
    the admissible pass fails the phi check, which names that
    configuration.  The cell runs with the level table of the cells below
    it filled: the smaller configuration the planted Config steps to is in
    no table, so verify_cell validates it.
    """
    at, lam, L = cell
    levels = {}
    for below in verify.cells_for(at, L - 1):
        assert verify.verify_cell(*below, levels)[0]
    real = verify.rigged
    planted = []

    def rigged(*args):
        cfs = real(*args)
        cf = cfs[0]
        bad = out_of_box(at, L, cf.rc)
        assert bad != cf.rc
        # by read off the planted rc, in its own dicts: the by of the
        # other Configs, shared with this one, stays as it was
        cf.rc, cf.by = bad, Config(at, L, bad).by
        planted.append(bad)
        return cfs

    monkeypatch.setattr(verify, "rigged", rigged)
    ok, _row, failure = verify.verify_cell(*cell, levels)
    assert not ok and failure["check"] == "phi"
    assert rc_from_json(failure["rc"]) == cell + (planted[0],)


def shift_a_held_vacancy(levels, cell):
    """The first rc of the cell whose box addition changes when one
    vacancy of the held Config of its smaller configuration is two
    higher; that Config's p2 is left replaced whole by the shifted one,
    and its siblings keep the p2 they share.
    """
    at, lam, L = cell
    below = levels[(at, L - 1)]
    for rc in enumerate_rc(*cell):
        b, rc_small, sc = bijection._delta(Config(at, L, rc), lam)
        _word, held = below[(sc.rho, rc_small)]
        kept = held.p2
        for a, p2 in enumerate(kept):
            for i2 in p2:
                held.p2 = kept[:a] + ({**p2, i2: p2[i2] + 2},) + kept[a + 1:]
                try:
                    if bijection._delta_inverse(held, b) != rc:
                        return rc
                except NoPreimage:
                    return rc
        held.p2 = kept
    raise AssertionError("no vacancy shift changes a box addition")


# CELL's box additions take no string of the smaller configuration, so
# no vacancy of its held Configs is read
@pytest.mark.parametrize("cell,fault", [
    pytest.param(cell, fault, id="%s-%s" % (cell, fault))
    for fault, cells in (("_delta_inverse", PINNED), ("held p2", PINNED[1:]))
    for cell in cells])
def test_planted_fault_on_the_held_path(monkeypatch, cell, fault):
    """A fault on the path the delta_inverse check runs in a level run
    fails that check and names a configuration of the cell.

    The level table of the cells below is filled, so every smaller
    configuration is a hit (none is validated) and the check steps from
    the held Config.  The fault is a _delta_inverse that adds no boxes,
    or a held Config of level L - 1 whose p2 has one vacancy shifted; the
    phi check reads the held word, so only the delta_inverse check can
    see that.
    """
    at, lam, L = cell
    levels = {}
    for below in verify.cells_for(at, L - 1):
        assert verify.verify_cell(*below, levels)[0]
    monkeypatch.setattr(verify, "validate_rc",
                        lambda *a: pytest.fail("a miss in a filled table"))
    if fault == "_delta_inverse":
        plant(monkeypatch, "_delta_inverse", lambda f: lambda *a: ())
        named = enumerate_rc(*cell)[0]
    else:
        named = shift_a_held_vacancy(levels, cell)
    ok, _row, failure = verify.verify_cell(*cell, levels)
    assert not ok and failure["check"] == "delta_inverse"
    assert rc_from_json(failure["rc"]) == cell + (named,)


def test_verify_takes_each_phi_inverse_step_once(monkeypatch):
    """verify --max-len 4 takes each distinct box addition of its
    phi_inverse checks once: 212 of the 653 steps those checks fold, and
    none on a second run in the same process."""
    empty_memos(monkeypatch,
                *(AffineType(fam, n) for fam, n in verify.BATTERY))
    folded, fresh, inside = [], [], []
    real_inverse, real_step = verify.phi_inverse, bijection._delta_inverse

    def phi_inverse(at, lam, L, word):
        folded.append(L)
        inside.append(word)
        try:
            return real_inverse(at, lam, L, word)
        finally:
            inside.pop()

    monkeypatch.setattr(verify, "phi_inverse", phi_inverse)
    monkeypatch.setattr(bijection, "_delta_inverse", lambda *a: (
        fresh.append(a) if inside else None) or real_step(*a))
    for taken in (212, 0):
        folded.clear()
        fresh.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["verify", "--max-len", "4"]) == 0
        assert sum(folded) == 653 and len(fresh) == taken


def test_warm_phi_inverse_check_takes_box_additions(monkeypatch):
    """verify's phi_inverse check folds its word by box additions, never
    off the chains phi kept: with at.tails warm from a passing run and
    phi of every configuration and complement of the cell, and the box
    additions untaken, a _delta_inverse that adds no boxes fails that
    check, and only it."""
    at, _lam, L = CELL
    empty_memos(monkeypatch, at)
    assert verify.verify_cell(*CELL)[0]
    for rc in enumerate_rc(*CELL):
        bijection.phi(*CELL, rc)
        bijection.phi(*CELL, complement(at, L, rc))
    at.grown.clear()
    monkeypatch.setattr(bijection, "_delta_inverse", lambda cf, b: cf.rc)
    ok, _row, failure = verify.verify_cell(*CELL)
    assert not ok and failure["check"] == "phi_inverse"


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
    rigged configuration is the form's cc (the oracle).
    """
    answers = {cell: row for cell, (_rcs, (_ok, row, _f)) in battery.items()
               if cell[2] <= 4}
    levels = {}
    for cell in _extended_cells():
        answers[cell] = verify.verify_cell(*cell, levels)[1]
    assert len(answers) > 1500
    for cell, row in answers.items():
        at = cell[0]
        rcs = enumerate_rc(*cell)
        mb = rc_genfun(*cell)
        assert row == (len(rcs), len(enumerate_highest(*cell)),
                       str(xbar(*cell)), str(mb)), cell
        assert fermionic_m(*cell) == mb, cell
        configs = cc_configs(*cell)
        assert rigged_cc2(at, configs) == \
            [cc2_total_by_form(at, rc) for rc in rcs], cell

