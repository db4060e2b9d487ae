"""Coverage beyond the standard grid: higher ranks and the deep B cases.

The whole default battery is certified up to six factors, in the
session's one level run per type (conftest).  The type-B double
selection at the spin node first occurs there, outside the standard grid,
so its three smallest steps are frozen here as well; they exercise both
new-rigging branches of the second selected string (singular when the
selections collide at the next node, quasi-singular when the return scan
died out).  At six factors the last-node cases Q and QS of B1, D2 and
A2dag, with the quasi-singular riggings and A2dag's half-odd box tops, are
common enough to compare the box-addition inverse with the candidate
search on every step; so is D1's fork, where the return scan bounds node
n-2 by the shorter of the two strings it took at nodes n-1 and n.
The relaxed ranks below the enforced bounds are certified in full too:
their Kac data and box widths come from the smallest diagrams.
"""

from conftest import EXTENDED
from rcbij.cartan import AffineType, dominant_weights
from rcbij.crystal import wt_letter
from rcbij.bijection import delta, delta_inverse
from rcbij.rc import enumerate_rc
from rcbij.verify import cells_for, verify_cell
from oracles import delta_inverse_search

B_QS_STEPS = [
    # (lam, L, rc, letter, rc_after, ellbar)
    (
        (1, 0, 0), 6,
        (((2, 0),) * 5, ((4, 0), (2, 0), (2, 0), (2, 0)), ((4, 0), (1, 0))),
        -2,
        (((2, 0),) * 4, ((2, 0),) * 3, ((3, 0),)),
        (10 ** 9, 4, 4),
    ),
    (
        (1, 1, 0), 6,
        (((2, 0),) * 5, ((2, 0),) * 4, ((3, 0), (1, 0))),
        -3,
        (((2, 0),) * 4, ((2, 0),) * 3, ((2, 2),)),
        (10 ** 9, 10 ** 9, 3),
    ),
    (
        (1, 1, 1), 6,
        (((2, 0),) * 5, ((2, 0),) * 4, ((2, 4), (1, 0))),
        -1,
        (((2, 0),) * 3, ((2, 0),) * 2, ((1, 0),)),
        (2, 2, 2),
    ),
]


def test_b_double_selection_frozen_steps():
    at = AffineType("B1", 3)
    for lam, L, rc, letter, after, ellbar in B_QS_STEPS:
        b, rc2, tr = delta(at, lam, L, rc)
        assert b == letter
        assert rc2 == after
        assert tr.cases[at.n - 1] == "QS"
        assert tr.ellbar == ellbar
        rho = tuple(x - y for x, y in zip(lam, wt_letter(at, b)))
        assert delta_inverse(at, b, rho, L - 1, rc2) == rc


def test_battery_at_length_6(battery):
    """Every battery cell with L <= 6 passes, L = 6 included.

    The session's level runs (conftest) certify them once; the acceptance
    grid reads its L <= 5 cells from the same runs.
    """
    for cell, (_rcs, (ok, _row, failure)) in battery.items():
        assert ok, (cell, failure)
    assert {L for _at, _lam, L in battery} == set(range(7))


# Relaxed ranks with the length each is certified to.
RELAXED = [
    (AffineType("C1", 1, relax_rank=True), 6),
    (AffineType("B1", 2, relax_rank=True), 5),
    (AffineType("D1", 3, relax_rank=True), 4),
]


def test_extended_ranks_full_checks():
    for at, max_len in [(at, 4) for at in EXTENDED] + RELAXED:
        levels = {}
        for cell in cells_for(at, max_len):
            ok, _row, failure = verify_cell(*cell, levels)
            assert ok, (cell, failure)


def test_delta_inverse_matches_search_at_length_6():
    steps = 0
    for fam, n in (("B1", 3), ("D2", 2), ("D2", 3), ("A2dag", 2), ("D1", 4)):
        at = AffineType(fam, n)
        for lam in dominant_weights(at, 6):
            for rc in enumerate_rc(at, lam, 6):
                b, small, _tr = delta(at, lam, 6, rc)
                rho = tuple(x - y for x, y in zip(lam, wt_letter(at, b)))
                got = delta_inverse(at, b, rho, 5, small)
                assert got == delta_inverse_search(at, b, rho, 5, small) == rc
                steps += 1
    assert steps > 3500
