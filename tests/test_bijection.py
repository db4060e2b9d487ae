import pytest

from conftest import GRID_TYPES, out_of_box
from rcbij import bijection
from rcbij.cartan import AffineType, dominant_weights, is_dominant
from rcbij.crystal import EMPTY, wt_letter
from rcbij.rc import INF, InvalidRC, complement, enumerate_rc, validate_rc
from rcbij.bijection import (
    DeltaTrace,
    NoPreimage,
    delta,
    delta_inverse,
    phi,
    phi_inverse,
)
from oracles import verify_delta_identities

SMALL_GRID = [at for at in GRID_TYPES if at.n <= 3]


def empty_rc(at):
    return tuple(tuple() for _ in range(at.n))


def test_delta_trivial_cell():
    for at in GRID_TYPES:
        lam = [0] * at.weight_len
        lam[0] = 3
        b, rc2, tr = delta(at, tuple(lam), 3, empty_rc(at))
        assert b == 1 and rc2 == empty_rc(at)
        assert all(x == INF for x in tr.ell + tr.ellbar)


def test_delta_A2_phi_case():
    at = AffineType("A2", 1)
    b, rc2, tr = delta(at, (0,), 1, (((2, 0),),))
    assert b == EMPTY and rc2 == empty_rc(at)
    assert tr.cases == ("P",)


def test_delta_frozen_C2_step():
    # one nontrivial step at C2, L=3, recorded from the exhaustive run:
    # the doubly singular configuration collapses entirely and extracts
    # the barred top letter
    at = AffineType("C1", 2)
    rc = (((4, 2),), ((4, 0),))
    b, rc2, tr = delta(at, (1, 0), 3, rc)
    assert b == -1
    assert rc2 == empty_rc(at)
    assert tr.ell == (2, 2) and tr.ellbar == (4, 4)
    assert tr.cases == ("S", "S")
    # a trace is a named tuple: repr, equality and hash of its fields
    assert repr(tr) == ("DeltaTrace(ell=(2, 2), ellbar=(4, 4), "
                        "cases=('S', 'S'), rank=-1)")
    assert tr == DeltaTrace((2, 2), (4, 4), ("S", "S"), -1)
    assert hash(tr) == hash(((2, 2), (4, 4), ("S", "S"), -1))
    assert tr._fields == ("ell", "ellbar", "cases", "rank")


def test_delta_well_defined_over_grid():
    # property (I): the new weight is dominant (asserted inside delta,
    # with the zero-letter side condition) and (II): the output validates
    for at in SMALL_GRID:
        for L in range(1, 4):
            for lam in dominant_weights(at, L):
                for rc in enumerate_rc(at, lam, L):
                    b, rc2, _tr = delta(at, lam, L, rc)
                    rho = tuple(
                        x - y for x, y in zip(lam, wt_letter(at, b))
                    )
                    assert is_dominant(at, rho)
                    if b == 0:
                        assert lam[at.n - 1] > 0
                    validate_rc(at, rho, L - 1, rc2)


def _selection_sequence(at, tr):
    """Forward and return selections in scan order, case-S merged."""
    n = at.n
    fwd = []
    for a in range(1, n + 1):
        if tr.cases[a - 1] in ("S",):
            fwd.append((a, tr.ellbar[a - 1]))
        elif tr.ell[a - 1] < INF:
            fwd.append((a, tr.ell[a - 1]))
    ret = [
        (a, tr.ellbar[a - 1])
        for a in range(n - 1, 0, -1)
        if tr.ellbar[a - 1] < INF and tr.cases[a - 1] != "S"
    ]
    return fwd, ret


def test_trace_monotonicity():
    for at in SMALL_GRID:
        slack = 1 if at.family == "B1" else 0
        for L in range(1, 5):
            for lam in dominant_weights(at, L):
                for rc in enumerate_rc(at, lam, L):
                    _b, _rc2, tr = delta(at, lam, L, rc)
                    fwd, ret = _selection_sequence(at, tr)
                    for (a1, x), (a2, y) in zip(fwd, fwd[1:]):
                        if at.family == "D1" and a2 == at.n:
                            continue  # the fork pair is unordered
                        assert y + (slack if a2 == at.n else 0) >= x, tr
                    last = fwd[-1][1] if fwd else 0
                    for _a, y in ret:
                        assert y >= last, tr
                        last = y
                    if at.family == "A2dag" and tr.ell[at.n - 1] < INF:
                        assert (tr.ell[at.n - 1] // 2) % 2 == 1
                        if tr.ellbar[at.n - 1] < INF:
                            assert (tr.ellbar[at.n - 1] // 2) % 2 == 0


def _scrambled(rc):
    """rc with every node's strings shortest first: out of normal form."""
    return tuple(tuple(reversed(node)) for node in rc)


def test_order_of_strings_changes_no_step():
    """delta, delta_inverse and validate_rc read a node's strings in
    normal-form order whatever the order they are given in."""
    moved = 0
    for at in SMALL_GRID:
        for L in range(1, 5):
            for lam in dominant_weights(at, L):
                for rc in enumerate_rc(at, lam, L):
                    mixed = _scrambled(rc)
                    moved += mixed != rc
                    b, small, tr = delta(at, lam, L, rc)
                    assert delta(at, lam, L, mixed) == (b, small, tr)
                    rho = tuple(x - y for x, y in zip(lam, wt_letter(at, b)))
                    assert delta_inverse(at, b, rho, L - 1,
                                         _scrambled(small)) == rc
                    validate_rc(at, lam, L, mixed)
                    bad = out_of_box(at, L, rc)
                    if bad != rc:
                        with pytest.raises(InvalidRC, match="out of box"):
                            validate_rc(at, lam, L, _scrambled(bad))
    assert moved > 100


def test_phi_trivial():
    at = AffineType("D1", 4)
    assert phi(at, (3, 0, 0, 0), 3, empty_rc(at)) == (1, 1, 1)


def test_phi_A2_L1():
    at = AffineType("A2", 1)
    assert phi(at, (0,), 1, (((2, 0),),)) == (EMPTY,)
    assert phi(at, (0,), 1, complement(at, 1, (((2, 0),),))) == (EMPTY,)


def test_delta_inverse_trivial():
    for at in GRID_TYPES:
        rho = tuple([0] * at.weight_len)
        rc = delta_inverse(at, 1, rho, 0, empty_rc(at))
        assert rc == empty_rc(at)


def test_delta_inverse_A2_phi():
    at = AffineType("A2", 1)
    assert delta_inverse(at, EMPTY, (0,), 0, empty_rc(at)) == (((2, 0),),)


def test_delta_inverse_no_preimage():
    at = AffineType("C1", 2)
    with pytest.raises(NoPreimage):
        delta_inverse(at, -1, (0, 0), 0, empty_rc(at))  # weight not dominant


def test_phi_inverse_round_trip():
    for at in SMALL_GRID:
        for L in range(0, 4):
            for lam in dominant_weights(at, L):
                for rc in enumerate_rc(at, lam, L):
                    word = phi(at, lam, L, rc)
                    assert phi_inverse(at, lam, L, word) == rc
                    trc = phi_inverse(at, lam, L,
                                      phi(at, lam, L, complement(at, L, rc)))
                    assert complement(at, L, trc) == rc


# five configurations, each leaving strings after its first step
FIVE = (AffineType("C1", 2), (1, 1), 4)


def test_phi_validates_each_step(monkeypatch):
    """phi rejects a smaller configuration that left its box.

    phi steps on each configuration's Config, so the fault is planted in
    the step that reads one.
    """
    real = bijection._delta

    def wrong(cf, lam):
        b, small, sc = real(cf, lam)
        return b, out_of_box(cf.at, cf.L - 1, small), sc

    rcs = enumerate_rc(*FIVE)
    assert len(rcs) == 5
    monkeypatch.setattr(bijection, "_delta", wrong)
    for rc in rcs:
        # validate_rc's own words: the first step is caught
        with pytest.raises(InvalidRC, match="rigging out of box"):
            phi(*FIVE, rc)


@pytest.mark.parametrize("breaker,why", [
    (complement, "does not invert delta"),  # valid, but not the preimage
    (out_of_box, "no preimage: rigging out of box"),  # not valid
], ids=("complement", "out_of_box"))
def test_phi_inverse_checks_each_box_addition(monkeypatch, breaker, why):
    """phi_inverse rejects a box addition that is invalid or wrong.

    Each step hands the Config of the smaller configuration to the box
    addition, so the fault is planted in the addition that reads one.
    """
    at, lam, L = FIVE
    words = [phi(at, lam, L, rc) for rc in enumerate_rc(*FIVE)]
    real = bijection._delta_inverse

    def wrong(cf, b, rho):
        return breaker(cf.at, cf.L + 1, real(cf, b, rho))

    monkeypatch.setattr(bijection, "_delta_inverse", wrong)
    for word in words:
        with pytest.raises(NoPreimage, match=why):
            phi_inverse(at, lam, L, word)


def test_identities_over_grid():
    for at in SMALL_GRID:
        for L in range(1, 5):
            for lam in dominant_weights(at, L):
                for rc in enumerate_rc(at, lam, L):
                    report = verify_delta_identities(at, lam, L, rc)
                    assert report["ok"], (at, lam, L, rc, report)


def test_identities_trivial_step():
    at = AffineType("C1", 2)
    report = verify_delta_identities(at, (2, 0), 2, empty_rc(at))
    assert report["ok"] and report["rank"] == 1
    # Delta cc = 0 matches the empty first column


def test_identities_A2_phi_step():
    # the phi-extraction drops cc by 2*alpha - 1 = 1
    at = AffineType("A2", 1)
    rc = (((2, 0),),)
    report = verify_delta_identities(at, (0,), 1, rc)
    assert report["ok"]
    assert report["delta_cc.info"][0] == 2  # doubled: cc drop = 1
