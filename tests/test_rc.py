import io
import json
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conftest import EXTENDED, GRID_TYPES, MAP_CELLS
from rcbij import rc as rc_mod
from rcbij.bijection import delta
from rcbij.cartan import AffineType, dominant_weights, form2_matrix, kac_data
from rcbij.cli import main
from rcbij.crystal import enumerate_highest
from rcbij.qpoly import QPoly
from rcbij.rc import (
    Config,
    InvalidRC,
    _partitions,
    _vacancy_table,
    cc2_total,
    cc_configs,
    complement,
    config_of,
    enumerate_rc,
    fermionic,
    fermionic_m,
    normalized_sizes,
    rc_from_json,
    rc_genfun,
    rc_to_json,
    rigged,
    vacancy2,
    validate_rc,
)
from oracles import (
    cc2_config_by_form,
    cc2_total_by_form,
    enumerate_configs,
    fermionic_by_products,
    is_admissible_config,
    is_admissible_config_full,
    vacancy2_by_family,
    vacancy2_general,
)


# Relaxed ranks, the D1 fork included, whose vacancy tables tier-1 builds.
RELAXED = [
    AffineType("C1", 1, relax_rank=True),
    AffineType("B1", 2, relax_rank=True),
    AffineType("D1", 3, relax_rank=True),
    AffineType("A2odd", 2, relax_rank=True),
]


def all_sized_configs(at, lam, L):
    """Every size-constrained configuration, admissible or not."""
    sizes = normalized_sizes(at, lam, L)
    if sizes is None:
        return []
    up2 = kac_data(at).up2
    per = [
        [tuple(p * up2[a] for p in part) for part in _partitions(c)]
        for a, c in enumerate(sizes)
    ]
    return list(product(*per))


def test_vacancy_empty_config():
    for at in GRID_TYPES:
        nu = tuple(tuple() for _ in range(at.n))
        L = 4
        for a in range(1, at.n + 1):
            u = kac_data(at).up2[a - 1]
            for i2 in (u, 2 * u, 5 * u):
                want = 2 * L if a == 1 else 0
                assert vacancy2(at, L, nu, a, i2) == want


def test_vacancy_A2_example():
    # rank 1, L = 1, single box: vacancy 0 at length 1
    at = AffineType("A2", 1)
    assert vacancy2(at, 1, ((2,),), 1, 2) == 0


def test_doubled_vacancies_even():
    # box's step-2 range needs an even doubled vacancy: each term
    # C[a][b] min(x, i2) of vacancy2 is even, because the coefficient is
    # even wherever node a's or node b's lattice is odd
    for at in GRID_TYPES + EXTENDED + RELAXED:
        up2, rows = _vacancy_table(at)
        for a, row in enumerate(rows):
            for b, c in row:
                assert c % 2 == 0 or up2[a] % 2 == up2[b] % 2 == 0, (at, a, b)


def test_vacancy_off_lattice_rejected():
    at = AffineType("C1", 2)
    with pytest.raises(ValueError):
        vacancy2(at, 1, ((), ()), 2, 2)  # node 2 lattice is even lengths
    with pytest.raises(ValueError):
        vacancy2(at, 1, ((), ()), 1, 0)  # lengths are positive


def test_vacancy_matches_general_formula():
    # the derived table shares its inputs with the general formula, so it
    # is also held to the hand-written per-family formulas
    for at in GRID_TYPES:
        up2 = kac_data(at).up2
        for L in range(0, 4):
            for lam in dominant_weights(at, L):
                for nu in all_sized_configs(at, lam, L):
                    for a in range(1, at.n + 1):
                        top = max(nu[a - 1], default=0) + 2 * up2[a - 1]
                        for i2 in range(up2[a - 1], top + 1, up2[a - 1]):
                            p2 = vacancy2(at, L, nu, a, i2)
                            assert p2 == vacancy2_by_family(
                                at, L, nu, a, i2
                            ), (at, L, lam, nu, a, i2)
                            assert Fraction(p2) == vacancy2_general(
                                at, L, nu, a, i2
                            ), (at, L, lam, nu, a, i2)


def test_config_vacancies_are_vacancy2(battery):
    """A Config's vacancies, computed when it is built, are vacancy2's on
    every occupied length, longest first, of every battery configuration
    to L = 6 and of each one's delta image."""
    seen = 0
    for (at, lam, L), (rcs, _answer) in battery.items():
        for rc in rcs:
            cells = [(L, rc)] + ([(L - 1, delta(at, lam, L, rc)[1])]
                                 if L else [])
            for L1, rc1 in cells:
                cf, nu = Config(at, L1, rc1), config_of(rc1)
                for a in range(1, at.n + 1):
                    lens = sorted(set(nu[a - 1]), reverse=True)
                    assert list(cf.by[a - 1]) == list(cf.p2[a - 1]) == lens
                    for i2 in lens:
                        assert cf.p2[a - 1][i2] == vacancy2(
                            at, L1, nu, a, i2), (at, L1, rc1, a, i2)
                        seen += 1
    assert seen > 10000


def test_rigged_configs_equal_built_configs(battery):
    """The Config rigged reads off the admissible pass equals the one
    Config.__init__ builds from its rc, field by field and in the order of
    each node's lengths, on every rigged configuration of the battery
    cells to L = 5 and of the four pinned map cells."""
    cells = [cell for cell in battery if cell[2] <= 5] + MAP_CELLS
    seen = 0
    for at, lam, L in cells:
        cfs = rigged(at, L, cc_configs(at, lam, L))
        assert [cf.rc for cf in cfs] == enumerate_rc(at, lam, L)
        for cf in cfs:
            built = Config(at, L, cf.rc)
            assert (cf.at, cf.L) == (at, L)
            for field in ("rc", "nu", "by", "p2"):
                mine, theirs = getattr(cf, field), getattr(built, field)
                assert mine == theirs, (at, lam, L, cf.rc, field)
                if field in ("by", "p2"):
                    assert [list(d) for d in mine] == \
                        [list(d) for d in theirs], (at, lam, L, cf.rc)
            seen += 1
    assert seen > 2500


def _m_at(nu, a, i2, n):
    if not 1 <= a <= n:
        return 0
    return sum(1 for x in nu[a - 1] if x == i2)


def second_difference_rhs(at, L, nu, a, i2):
    """The per-family m-combination equal to -P_{i-u} + 2P_i - P_{i+u}.

    Each row is forced by (and verified against) the general vacancy
    formula.  The L-term applies at node 1 and the smallest index, which
    matters for the rank-1 twisted families where node n is node 1.
    """
    n = at.n
    fam = at.family
    u = kac_data(at).up2[a - 1]
    m = lambda b, j2=i2: _m_at(nu, b, j2, n)
    base = 2 * L if (a == 1 and i2 == u) else 0
    if fam == "A1":
        return base + 2 * (m(a - 1) - 2 * m(a) + m(a + 1))
    if fam == "D1":
        if a <= n - 3:
            return base + 2 * (m(a - 1) - 2 * m(a) + m(a + 1))
        if a == n - 2:
            return base + 2 * (m(n - 3) - 2 * m(n - 2) + m(n - 1) + m(n))
        return base + 2 * (m(n - 2) - 2 * m(a))
    if fam == "B1":
        if a <= n - 2:
            return base + 2 * (m(a - 1) - 2 * m(a) + m(a + 1))
        if a == n - 1:
            return base + 2 * (m(n - 2) - 2 * m(n - 1)) + (
                4 * _m_at(nu, n, i2, n)
                + 2 * _m_at(nu, n, i2 + 1, n)
                + 2 * _m_at(nu, n, i2 - 1, n)
            )
        return base + 2 * _m_at(nu, n - 1, i2, n) - 4 * m(n)
    if fam in ("C1", "A2", "A2dag"):
        if a <= n - 1:
            return base + 2 * (m(a - 1) - 2 * m(a) + m(a + 1))
        if fam == "C1":
            return base + 2 * (
                _m_at(nu, n - 1, i2 - 2, n)
                + 2 * _m_at(nu, n - 1, i2, n)
                + _m_at(nu, n - 1, i2 + 2, n)
                - 2 * m(n)
            )
        return base + 2 * (m(n - 1) - m(n))
    if fam == "A2odd":
        if a <= n - 2:
            return base + 2 * (m(a - 1) - 2 * m(a) + m(a + 1))
        if a == n - 1:
            return base + 2 * (m(n - 2) - 2 * m(n - 1) + 2 * m(n))
        return base + 2 * (m(n - 1) - 2 * m(n))
    if fam == "D2":
        if a <= n - 1:
            return base + 2 * (m(a - 1) - 2 * m(a) + m(a + 1))
        return base + 2 * (2 * m(n - 1) - 2 * m(n))
    raise ValueError(fam)


def test_second_differences_and_convexity():
    for at in GRID_TYPES:
        up2 = kac_data(at).up2
        for L in range(0, 4):
            for lam in dominant_weights(at, L):
                for nu in all_sized_configs(at, lam, L):
                    for a in range(1, at.n + 1):
                        u = up2[a - 1]
                        top = max(nu[a - 1], default=0) + 2 * u
                        for i2 in range(u, top + 1, u):
                            pm = vacancy2(at, L, nu, a, i2 - u) if i2 > u else 0
                            pc = vacancy2(at, L, nu, a, i2)
                            pp = vacancy2(at, L, nu, a, i2 + u)
                            assert -pm + 2 * pc - pp == second_difference_rhs(
                                at, L, nu, a, i2
                            ), (at, L, lam, nu, a, i2)
                            if _m_at(nu, a, i2, at.n) == 0:
                                assert 2 * pc >= pm + pp


def test_asymptotic_vacancies():
    for at in GRID_TYPES:
        n = at.n
        up2 = kac_data(at).up2
        for L in range(0, 4):
            for lam in dominant_weights(at, L):
                for nu in enumerate_configs(at, lam, L):
                    big = max(
                        (max(node, default=0) for node in nu), default=0
                    ) + 4
                    for a in range(1, n):
                        i2 = (big // up2[a - 1] + 1) * up2[a - 1]
                        assert vacancy2(at, L, nu, a, i2) == 2 * (
                            lam[a - 1] - lam[a]
                        )
                    i2 = (big // up2[n - 1] + 1) * up2[n - 1]
                    got = vacancy2(at, L, nu, n, i2)
                    if at.family in ("B1", "D2"):
                        want = 4 * lam[n - 1]
                    elif at.family == "D1":
                        want = 2 * (lam[n - 2] + lam[n - 1])
                    elif at.family == "A1":
                        want = 2 * (lam[n - 1] - lam[n])
                    else:
                        want = 2 * lam[n - 1]
                    assert got == want


def test_admissibility_equivalence():
    # checking only occupied lengths is equivalent to the full check, and
    # the pruned enumeration keeps exactly the admissible configurations
    # of the full product, in its order (at the D1 fork the check of node
    # n-2 waits for the last node)
    for at in GRID_TYPES + EXTENDED + RELAXED:
        for L in range(0, 5 if at.n <= 3 else 4):
            for lam in dominant_weights(at, L):
                full = []
                for nu in all_sized_configs(at, lam, L):
                    ok = is_admissible_config_full(at, L, nu)
                    assert is_admissible_config(at, L, nu) == ok, (at, L, nu)
                    if ok:
                        full.append(nu)
                assert enumerate_configs(at, lam, L) == full, (at, lam, L)


def test_enumerate_rc_trivial():
    for at in GRID_TYPES:
        L = 3
        lam = [0] * at.weight_len
        lam[0] = L
        rcs = enumerate_rc(at, tuple(lam), L)
        assert rcs == [tuple(tuple() for _ in range(at.n))]


def test_enumerate_rc_A2_single():
    at = AffineType("A2", 1)
    assert enumerate_rc(at, (0,), 1) == [(((2, 0),),)]


def test_enumerate_rc_counts_match_paths():
    at = AffineType("C1", 2)
    rcs = enumerate_rc(at, (1, 0), 3)
    paths = enumerate_highest(at, (1, 0), 3)
    assert len(rcs) == len(paths) == 3


def test_enumerate_rc_validates():
    for at in GRID_TYPES:
        for L in range(0, 4):
            for lam in dominant_weights(at, L):
                rcs = enumerate_rc(at, lam, L)
                assert len(set(rcs)) == len(rcs)
                for rc in rcs:
                    validate_rc(at, lam, L, rc)
                    assert rc == tuple(
                        tuple(sorted(node, reverse=True)) for node in rc
                    ), "not in normal form"


def test_validate_rc_rejects_lengths_off_lattice(capsys, monkeypatch):
    # C1 n=2, L=3, lam=(1,0): node 2 takes lengths 2, 4, ... (doubled 4, 8)
    at, lam, L = AffineType("C1", 2), (1, 0), 3
    rc = (((4, 2),), ((4, 0),))
    validate_rc(at, lam, L, rc)
    planted = [
        (((4, 2), (0, 0)), ((4, 0),)),  # a string of length zero
        (((4, 2),), ((2, 0), (2, 0))),  # length 1 at node 2, same size
    ]
    for bad in planted:
        with pytest.raises(InvalidRC, match="length off lattice"):
            validate_rc(at, lam, L, bad)
        blob = json.dumps(rc_to_json(at, lam, L, bad))
        monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
        assert main(["map", "--dir", "rc2path"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid rigged configuration: length off lattice\n"
        )


@pytest.mark.parametrize("fam,n,lam,L,rc,why", [
    # node 1 must hold 2 boxes at (1, 0), L = 3; it holds 1
    ("C1", 2, (1, 0), 3, (((2, 0),), ()), "size constraint violated"),
    # (1, 1, 0) has size 2, not 3: L eps_1 - lam is off the A_2 roots
    ("A1", 2, (1, 1, 0), 3, ((), ()), "no configurations exist for this "
     "weight"),
], ids=("size", "no-configurations"))
def test_validate_rc_refuses(capsys, monkeypatch, fam, n, lam, L, rc, why):
    at = AffineType(fam, n)
    with pytest.raises(InvalidRC, match=why):
        validate_rc(at, lam, L, rc)
    blob = json.dumps(rc_to_json(at, lam, L, rc))
    monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
    assert main(["map", "--dir", "rc2path"]) == 2
    assert capsys.readouterr().err == (
        "error: invalid rigged configuration: %s\n" % why)


def test_a2dag_odd_riggings_halfodd():
    at = AffineType("A2dag", 1)
    rcs = enumerate_rc(at, (1,), 3)
    odd = [rc for rc in rcs if any(ln == 2 for ln, _rg in rc[0])]
    assert odd == [(((2, 1), (2, 1)),)]  # both riggings 1/2


def test_cc_examples():
    at = AffineType("A2", 1)
    assert cc2_config_by_form(at, (tuple(),)) == 0
    assert cc2_config_by_form(at, ((2,),)) == 2  # cc = 1
    assert cc2_total(at, (((2, 0),),)) == 2
    at = AffineType("C1", 2)
    assert cc2_config_by_form(at, ((2, 2), (4,))) == 6  # cc = 3
    assert cc2_total(at, (((2, 0), (2, 0)), ((4, 0),))) == 6


def test_cc_read_off_the_vacancies(battery):
    """The cc that cc_configs and cc2_total read off the vacancies is the
    form's double sum, and fermionic is the sum of QPoly products, on the
    battery at L <= 6 and the extended ranks at L <= 4."""
    cells = list(battery) + [(at, lam, L) for at in EXTENDED
                             for L in range(5)
                             for lam in dominant_weights(at, L)]
    n_configs = 0
    for cell in cells:
        at = cell[0]
        configs = cc_configs(*cell)
        nus = enumerate_configs(*cell)
        assert [cc2 for cc2, _g in configs] == \
            [cc2_config_by_form(at, nu) for nu in nus], cell
        assert fermionic(at, configs) == fermionic_by_products(*cell), cell
        n_configs += len(nus)
    assert n_configs > 1500
    for cell in cells[::25]:
        for rc in enumerate_rc(*cell):
            assert cc2_total(cell[0], rc) == cc2_total_by_form(cell[0], rc)


def test_odd_cc_refused(monkeypatch):
    """A configuration whose vacancies make the doubled cc odd is refused,
    not rounded, and the pass that refused it keeps nothing: a second
    call refuses it again."""
    at, L = AffineType("C1", 2), 1
    odd = (((2,), ()), [(1, 2, 1, 1, range(0, 2, 2))])
    monkeypatch.setitem(vars(at), "last_cell", {})  # an empty slot
    monkeypatch.setattr(rc_mod, "_admissible", lambda *args: [odd])
    for _ in range(2):
        with pytest.raises(ValueError, match="odd doubled cc"):
            cc_configs(at, (1, 0), L)
    assert at.last_cell == {}


def counting_passes(monkeypatch, at):
    """A Counter of the admissible passes run from now on, with at's
    last-cell slot emptied."""
    calls = Counter()
    real = rc_mod._admissible
    monkeypatch.setitem(vars(at), "last_cell", {})
    monkeypatch.setattr(rc_mod, "_admissible",
                        lambda *a: calls.update(["pass"]) or real(*a))
    return calls


def test_one_pass_per_cell_across_the_entry_points(monkeypatch):
    """rc_genfun, fermionic_m, enumerate_rc and cc_configs of one cell,
    called in turn, share one admissible pass; another cell runs its own,
    and the first cell then runs a pass again."""
    at = AffineType("C1", 2)
    calls = counting_passes(monkeypatch, at)
    cell, other = (at, (1, 0), 3), (at, (0, 0), 2)
    mb = rc_genfun(*cell)
    assert fermionic_m(*cell) == mb
    rcs = enumerate_rc(*cell)
    assert len(rcs) == len(enumerate_highest(*cell)) > 1
    configs = cc_configs(*cell)
    assert calls["pass"] == 1
    assert list(at.last_cell) == [((1, 0), 3)]
    assert at.last_cell[(1, 0), 3] is configs
    rc_genfun(*other)
    assert calls["pass"] == 2 and list(at.last_cell) == [((0, 0), 2)]
    assert enumerate_rc(*cell) == rcs and calls["pass"] == 3


def test_weight_as_a_list_hits_the_slot(monkeypatch):
    """The slot is keyed on the weight as a tuple, however it is given."""
    at = AffineType("A2", 2)
    calls = counting_passes(monkeypatch, at)
    configs = cc_configs(at, (1, 0), 3)
    assert cc_configs(at, [1, 0], 3) is configs
    assert fermionic_m(at, [1, 0], 3) == rc_genfun(at, (1, 0), 3)
    assert calls["pass"] == 1


def test_stored_pass_is_a_fresh_pass(battery):
    """On every battery cell with L <= 5, what the slot holds is an
    immutable tuple equal to a fresh pass: the cc of each admissible
    configuration by the form's double sum, with its groups."""
    cells = [cell for cell in battery if cell[2] <= 5]
    assert len(cells) > 1000
    for cell in cells:
        at, lam, L = cell
        stored = cc_configs(*cell)
        assert at.last_cell == {(lam, L): stored}
        assert cc_configs(*cell) is stored
        fresh = tuple((cc2_config_by_form(at, nu), groups)
                      for nu, groups in rc_mod._admissible(*cell))
        assert stored == fresh, cell
        assert type(stored) is tuple
        assert all(type(groups) is tuple for _cc2, groups in stored)


def test_cc_oracle():
    # independent expansion of the double sum with Fractions, on every type
    # whose vacancy table tier-1 builds
    grid = [(at, 2) for at in GRID_TYPES] + [(at, 3) for at in EXTENDED]
    for at, max_len in grid:
        kd = kac_data(at)
        f2 = form2_matrix(at)
        for L in range(0, max_len + 1):
            for lam in dominant_weights(at, L):
                for nu in enumerate_configs(at, lam, L):
                    acc = Fraction(0)
                    for a in range(1, at.n + 1):
                        for b in range(1, at.n + 1):
                            for x2 in nu[a - 1]:
                                for y2 in nu[b - 1]:
                                    j = Fraction(x2, kd.up2[a - 1])
                                    k = Fraction(y2, kd.up2[b - 1])
                                    acc += Fraction(f2[a - 1][b - 1], 4) * min(
                                        kd.t_lat[b - 1] * j,
                                        kd.t_lat[a - 1] * k,
                                    )
                    assert acc == Fraction(cc2_config_by_form(at, nu), 2)


def test_cc_total_weighting():
    # A4(2): a rigging of size s contributes 2s
    at = AffineType("A2", 2)
    rc = (((2, 2),), tuple())
    nu = config_of(rc)
    assert cc2_total(at, rc) - cc2_config_by_form(at, nu) == 2 * 2
    # A2dag odd string: rigging 1/2 contributes 1/2
    at = AffineType("A2dag", 1)
    rc = (((2, 1),),)
    assert cc2_total(at, rc) - cc2_config_by_form(at, config_of(rc)) == 1


def test_complement():
    at = AffineType("C1", 2)
    for L in range(0, 4):
        for lam in dominant_weights(at, L):
            for rc in enumerate_rc(at, lam, L):
                crc = complement(at, L, rc)
                assert config_of(crc) == config_of(rc)
                assert complement(at, L, crc) == rc
    # all-zero riggings become the vacancy numbers
    rc = (((4, 0),), ((4, 0),))
    crc = complement(at, 3, rc)
    nu = config_of(rc)
    assert crc[0][0][1] == vacancy2(at, 3, nu, 1, 4)
    # A2dag odd string with vacancy 1: rigging 1/2 is a fixed point
    at = AffineType("A2dag", 1)
    assert complement(at, 2, (((2, 1),),)) == (((2, 1),),)


def test_fermionic_m_equals_rc_genfun():
    # rc_genfun reads cc off the admissible pass; the oracle is the
    # form's cc on each enumerated rigged configuration
    for at in GRID_TYPES + EXTENDED:
        for L in range(0, 4):
            for lam in dominant_weights(at, L):
                gf = rc_genfun(at, lam, L)
                assert fermionic_m(at, lam, L) == gf, (at, lam, L)
                counts = Counter(
                    cc2_total_by_form(at, rc)
                    for rc in enumerate_rc(at, lam, L)
                )
                assert gf == QPoly(counts), (at, lam, L)


def test_fermionic_m_examples():
    at = AffineType("C1", 3)
    lam = (3, 0, 0)
    assert fermionic_m(at, lam, 3) == QPoly({0: 1})
    assert fermionic_m(AffineType("A2", 1), (0,), 1) == QPoly({2: 1})


def test_json_roundtrip():
    at = AffineType("C1", 2)
    lam, L = (1, 0), 3
    for rc in enumerate_rc(at, lam, L):
        blob = json.dumps(rc_to_json(at, lam, L, rc))
        at2, lam2, L2, rc2 = rc_from_json(json.loads(blob))
        assert (at2, lam2, L2, rc2) == (at, lam, L, rc)
