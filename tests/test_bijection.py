import copy
import math
import random

import pytest

from conftest import GRID_TYPES, MAP_CELLS, empty_memos, out_of_box
from rcbij import bijection
from rcbij.cartan import AffineType, dominant_weights, is_dominant
from rcbij.crystal import EMPTY, enumerate_highest, letter_str, wt_letter
from rcbij.rc import (
    INF,
    Config,
    InvalidRC,
    cc_configs,
    complement,
    enumerate_rc,
    rigged,
    validate_config,
    validate_rc,
)
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
    for b, why in ((-1, "cannot come off"),  # weight not dominant
                   (7, "7 is not a letter")):
        with pytest.raises(NoPreimage, match=why):
            delta_inverse(at, b, (0, 0), 0, empty_rc(at))


@pytest.mark.parametrize("lam,L,exc,why", [
    ((0, 0), 0, ValueError, "delta needs L >= 1"),
    ((1, 1), 1, InvalidRC, r"letter 1 cannot come off the weight \(1, 1\)"),
], ids=("L=0", "letter-off-weight"))
def test_delta_refuses_bad_input(lam, L, exc, why):
    at = AffineType("C1", 2)
    with pytest.raises(exc, match=why):
        delta(at, lam, L, empty_rc(at))


@pytest.mark.parametrize("lam,L,word,exc,why", [
    ((1, 0), 1, (), ValueError, "word of length 0, expected 1"),
    ((1, 1), 2, (1, 1), NoPreimage, r"weight is not \(1, 1\)"),
    # no letter, before a lookup of a suffix holding it (a list: TypeError)
    ((1, 0), 1, [[1]], NoPreimage, r"\[1\] is not a letter"),
    ((2, 0), 2, [[1], 1], NoPreimage, r"\[1\] is not a letter"),
], ids=("wrong-length", "wrong-weight", "list", "list-after-a-letter"))
def test_phi_inverse_refuses_bad_words(lam, L, word, exc, why):
    with pytest.raises(exc, match=why):
        phi_inverse(AffineType("C1", 2), lam, L, word)


@pytest.mark.parametrize("b", [1.0, True, "1"], ids=repr)
def test_letters_are_ints(monkeypatch, b):
    """A value equal to the letter 1, or its string, is no letter.

    phi_inverse refuses it cold and warm: 1.0 and True hash as 1, so the
    memo would answer for (1, 1).  delta_inverse refuses it too, and no
    memo keeps a word holding it.
    """
    at = AffineType("A2", 2)
    empty_memos(monkeypatch, at)
    for _warm in range(2):
        with pytest.raises(NoPreimage, match="is not a letter"):
            phi_inverse(at, (2, 0), 2, (b, 1))
        assert phi_inverse(at, (2, 0), 2, (1, 1)) == empty_rc(at)
    with pytest.raises(NoPreimage, match="is not a letter"):
        delta_inverse(at, b, (1, 0), 1, empty_rc(at))
    kept = list(at.grown) + list(at.tails.values())
    assert all(type(x) is int for word in kept for x in word)


def test_fork_bound_round_trip():
    """delta_inverse undoes delta on D1 n=4, lam = (1, 1, 0, 0), L = 6.

    Here delta_inverse must bound the chain below the D fork by the
    shorter of the two fork strings: the longer one gives another rc.
    """
    at, lam, L = AffineType("D1", 4), (1, 1, 0, 0), 6
    for rc in enumerate_rc(at, lam, L):
        b, small, _tr = delta(at, lam, L, rc)
        rho = tuple(x - y for x, y in zip(lam, wt_letter(at, b)))
        assert delta_inverse(at, b, rho, L - 1, small) == rc, rc


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


def snapshot(cf):
    """Every field of cf, copied deep; the type, which is interned, as it
    is."""
    return (cf.at,) + tuple(copy.deepcopy(getattr(cf, field))
                            for field in ("L", "rc", "nu", "by", "p2"))


def test_no_step_writes_into_a_config(battery):
    """_delta, _delta_inverse, Config.complement, validate_config and _phi
    leave every field of every Config of the battery cells to L = 5 as it
    was built, the parts it shares with other Configs included.

    The Configs are the ones rigged builds off each cell's admissible
    pass, which share their nu and p2 and some of their by, and the ones
    Config builds from each rc.  verify's level table holds the first kind
    past their cell, and each delta_inverse check steps from one of them,
    as here: the box addition onto the Config of delta(rc) gives rc back.
    """
    built = []  # (a Config, its snapshot)
    held = {}  # (type, L, weight, rc) -> the Config rigged built
    for at, lam, L in battery:
        if L > 5:
            continue
        cfs = rigged(at, L, cc_configs(at, lam, L))
        fresh = [Config(at, L, cf.rc) for cf in cfs]
        built += [(cf, snapshot(cf)) for cf in cfs + fresh]
        held.update(((at, L, lam, cf.rc), cf) for cf in cfs)
        for cf in cfs + fresh:
            validate_config(cf, lam)
            cf.complement()
            bijection._phi(cf, lam)
            if L:
                b, small, sc = bijection._delta(cf, lam)
                below = held[at, L - 1, sc.rho, small]
                assert bijection._delta_inverse(below, b) == cf.rc
    assert len(built) > 4000
    for cf, before in built:
        assert snapshot(cf) == before, before


# five configurations, each leaving strings after its first step
FIVE = (AffineType("C1", 2), (1, 1), 4)


def test_phi_validates_each_step(monkeypatch):
    """phi rejects a smaller configuration that left its box.

    phi steps on each configuration's Config, so the fault is planted in
    the step that reads one.  The type's memos start empty: no chain an
    earlier test kept stands in for a planted step.
    """
    empty_memos(monkeypatch, FIVE[0])
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
    The type's memos start empty: no box addition an earlier test kept
    stands in for a planted one.
    """
    at, lam, L = FIVE
    empty_memos(monkeypatch, at)
    words = [phi(at, lam, L, rc) for rc in enumerate_rc(*FIVE)]
    real = bijection._delta_inverse

    def wrong(cf, b):
        return breaker(cf.at, cf.L + 1, real(cf, b))

    monkeypatch.setattr(bijection, "_delta_inverse", wrong)
    for word in words:
        with pytest.raises(NoPreimage, match=why):
            phi_inverse(at, lam, L, word)


def counting_steps(monkeypatch, name="_delta_inverse"):
    """The steps bijection.<name> takes from now on, one list entry each:
    the box additions of phi_inverse by default."""
    fresh = []
    real = getattr(bijection, name)
    monkeypatch.setattr(bijection, name,
                        lambda *a: fresh.append(a) or real(*a))
    return fresh


@pytest.mark.parametrize("cell", MAP_CELLS, ids=str)
def test_phi_inverse_warm_as_cold(monkeypatch, cell):
    """phi_inverse reads off a warm table what it builds on a cold one.

    For every path of the cell: cold, the table emptied before each word;
    filling, one table for all words, which then holds each distinct
    suffix once; warm, every step read off that table, none taken.
    """
    at, _lam, L = cell
    rcs = enumerate_rc(*cell)
    words = [phi(*cell, rc) for rc in rcs]
    paths = enumerate_highest(*cell)
    assert set(words) == set(paths) and len(words) == len(paths)
    empty_memos(monkeypatch, at)
    cold = []
    for word in words:
        at.grown.clear()
        cold.append(phi_inverse(*cell, word))
    at.grown.clear()
    filling = [phi_inverse(*cell, word) for word in words]
    assert len(at.grown) == len({w[j:] for w in words for j in range(L)})
    fresh = counting_steps(monkeypatch)
    warm = [phi_inverse(*cell, list(word)) for word in words]
    assert not fresh
    assert cold == filling == warm == rcs


@pytest.mark.parametrize("lam,word,why,kept", [
    ((2, -1), (-2, 1, 1), r"letter -2 cannot come off the weight \(2, -1\)",
     {(1,), (1, 1)}),
    ((3, 0), (-1, 1, 1), r"weight is not \(3, 0\)",
     {(1,), (1, 1), (-1, 1, 1)}),
    ((2, 0), (1, 7, 1), "7 is not a letter", {(1,)}),
], ids=("not-highest", "wrong-weight", "no-letter"))
def test_phi_inverse_refuses_warm_as_cold(monkeypatch, lam, word, why, kept):
    """A word that is not a path raises the same NoPreimage warm and cold.

    The steps before the one that raised passed and are kept; the second
    call takes none and leaves the table as it was.
    """
    at = AffineType("C1", 2)
    empty_memos(monkeypatch, at)
    seen = []
    for _warm in range(2):
        with pytest.raises(NoPreimage, match=why) as info:
            phi_inverse(at, lam, len(word), word)
        seen.append((str(info.value), dict(at.grown)))
    assert seen[0] == seen[1] and set(at.grown) == kept


def test_phi_inverse_keeps_no_failed_step(monkeypatch):
    """A box addition that fails its checks is not kept.

    With every step of FIVE's words kept, a fault planted in the box
    addition is first met one letter further on; it raises, and the table
    keeps nothing of it.  The same words then pass with the real step.
    """
    at, lam, L = FIVE
    empty_memos(monkeypatch, at)
    words = [phi(at, lam, L, rc) for rc in enumerate_rc(*FIVE)]
    for word in words:
        phi_inverse(at, lam, L, word)
    kept = dict(at.grown)
    longer = [(1,) + word for word in words]
    real = bijection._delta_inverse
    monkeypatch.setattr(bijection, "_delta_inverse", lambda cf, b:
                        out_of_box(cf.at, cf.L + 1, real(cf, b)))
    for word in longer:
        with pytest.raises(NoPreimage, match="rigging out of box"):
            phi_inverse(at, (lam[0] + 1,) + lam[1:], L + 1, word)
    assert at.grown == kept
    monkeypatch.setattr(bijection, "_delta_inverse", real)
    fresh = counting_steps(monkeypatch)
    for word in longer:
        phi_inverse(at, (lam[0] + 1,) + lam[1:], L + 1, word)
    assert len(fresh) == len(longer)
    assert len(at.grown) == len(kept) + len(longer)


@pytest.mark.parametrize("cell", MAP_CELLS, ids=str)
def test_phi_warm_as_cold(monkeypatch, cell):
    """phi reads off a warm table the words it steps to on a cold one.

    For every configuration of the cell and for its complement (the word
    ``map --tilde`` prints): cold, the table emptied before each one;
    filling, one table for all; warm, each chain met in that table after
    its first delta step.  All three give the enumerated paths.
    """
    at, _lam, L = cell
    rcs = enumerate_rc(*cell)
    paths = enumerate_highest(*cell)
    empty_memos(monkeypatch, at)
    real = bijection._delta
    for start in (rcs, [complement(at, L, rc) for rc in rcs]):
        cold = []
        for rc in start:
            at.tails.clear()
            cold.append(phi(*cell, rc))
        at.tails.clear()
        filling = [phi(*cell, rc) for rc in start]
        fresh = counting_steps(monkeypatch, "_delta")
        warm = [phi(*cell, rc) for rc in start]
        monkeypatch.setattr(bijection, "_delta", real)
        assert len(fresh) == len(start)
        assert cold == filling == warm
        assert sorted(cold) == sorted(paths) and len(set(cold)) == len(cold)


@pytest.mark.parametrize("cell", MAP_CELLS, ids=str)
def test_phi_refuses_warm_as_cold(monkeypatch, cell):
    """A first step that leaves its box raises the same InvalidRC with the
    table warm and cold, and leaves the table as large as it was."""
    at, _lam, L = cell
    rcs = enumerate_rc(*cell)
    empty_memos(monkeypatch, at)
    words = [phi(*cell, rc) for rc in rcs]
    real = bijection._delta

    def wrong(cf, lam):
        b, small, sc = real(cf, lam)
        if cf.L == L:
            small = out_of_box(cf.at, L - 1, small)
        return b, small, sc

    monkeypatch.setattr(bijection, "_delta", wrong)
    for table in (dict(at.tails), {}):
        monkeypatch.setitem(vars(at), "tails", table)
        size = len(table)
        for rc in rcs:
            with pytest.raises(InvalidRC, match="rigging out of box"):
                phi(*cell, rc)
            assert len(table) == size
    monkeypatch.setattr(bijection, "_delta", real)
    assert [phi(*cell, rc) for rc in rcs] == words


def test_phi_keys_the_rest_by_length(monkeypatch):
    """A kept chain answers only at the length it was checked at.

    phi takes its rc as valid, so an empty rc given at too short a length
    steps to the empty configuration the chain of (3, 0) at L = 3 kept at
    weight (2, 0).  Warm as cold it is validated there and refused.  So is
    an empty rc that steps to one phi_inverse kept at a shorter length.
    """
    at = AffineType("C1", 2)
    empty_memos(monkeypatch, at)
    assert phi(at, (3, 0), 3, empty_rc(at)) == (1, 1, 1)
    for table in (at.tails, {}):
        monkeypatch.setitem(vars(at), "tails", table)
        with pytest.raises(InvalidRC, match="no configurations exist"):
            phi(at, (3, 0), 2, empty_rc(at))
    # a chain phi_inverse kept: the empty rc of weight (1, 0) at L = 1,
    # which the empty rc of (2, 0) at L = 3 steps to at L = 2
    empty_memos(monkeypatch, at)
    phi_inverse(at, (1, 0), 1, (1,))
    with pytest.raises(InvalidRC, match="no configurations exist"):
        phi(at, (2, 0), 3, empty_rc(at))


class Poisoned(dict):
    """A memo that takes writes but fails the test on every read."""

    def get(self, *a):
        pytest.fail("a read of a poisoned memo")

    __getitem__ = __contains__ = get


@pytest.mark.parametrize("cell", MAP_CELLS, ids=str)
def test_step_memos_go_one_way(monkeypatch, cell):
    """phi reads the chains phi_inverse kept, and never the other way.

    With every entry of at.tails given a wrong word and each read of it
    failing, a cold fold still gives every configuration of the cell.
    phi, over those configurations and their complements, leaves at.grown
    as the fold of half the cell's words left it.
    """
    at, _lam, L = cell
    rcs = enumerate_rc(*cell)
    words = [phi(*cell, rc) for rc in rcs]
    empty_memos(monkeypatch, at)
    for word in words:
        phi_inverse(*cell, word)
    monkeypatch.setitem(vars(at), "tails", Poisoned(
        (key, (EMPTY,) * key[0]) for key in at.tails))
    at.grown.clear()
    assert [phi_inverse(*cell, word) for word in words] == rcs
    monkeypatch.setitem(vars(at), "tails", {})
    at.grown.clear()
    for word in words[::2]:
        phi_inverse(*cell, word)
    kept = dict(at.grown)
    for rc in rcs + [complement(at, L, rc) for rc in rcs]:
        phi(*cell, rc)
    assert at.grown == kept


def map_sample(seed):
    """The paths the map benchmark draws with seed: a quarter of each
    pinned cell's paths, as lists of letter strings sorted, drawn in cell
    order (its shuffle does not change which paths are drawn)."""
    rng = random.Random(seed)
    out = []
    for cell in MAP_CELLS:
        words = sorted([letter_str(b) for b in p]
                       for p in enumerate_highest(*cell))
        drawn = rng.sample(words, math.ceil(len(words) / 4))
        out += [(cell, w) for w in drawn]
    return out


def test_phi_steps_each_distinct_suffix_once(monkeypatch):
    """Over the map benchmark's seed-0 sample, path2rc takes one delta
    check per distinct suffix of the drawn words (the whole word included,
    the empty one not): 681 of their 1,327 steps.  rc2path after it reads
    each word off the chain path2rc kept: no delta step, and no Config
    but the one validate_rc builds per call.  rc2path alone, on empty
    memos, steps once per distinct suffix too."""
    sample = map_sample(0)
    types = {cell[0] for cell in MAP_CELLS}
    empty_memos(monkeypatch, *types)
    fresh = counting_steps(monkeypatch, "_delta")
    trips = []
    for cell, w in sample:
        known = {letter_str(b): b for b in cell[0].letters}
        word = tuple(known[s] for s in w)
        trips.append((cell, word, phi_inverse(*cell, word)))
    suffixes = {(cell[0], word[j:]) for cell, word, _rc in trips
                for j in range(cell[2])}
    assert len(sample) == 199
    assert sum(cell[2] for cell, _w, _rc in trips) == 1327
    assert len(fresh) == len(suffixes) == 681
    built = []
    real_init = Config.__init__
    monkeypatch.setattr(Config, "__init__", lambda cf, *a: (
        built.append(a) or real_init(cf, *a)))

    def rc2path():  # as cli.cmd_map runs it
        for cell, word, rc in trips:
            assert bijection._phi(validate_rc(*cell, rc), cell[1]) == word

    fresh.clear()
    rc2path()
    assert not fresh and len(built) == len(trips)
    empty_memos(monkeypatch, *types)
    rc2path()
    assert len(fresh) == 681


def test_step_memos_stay_under_their_cap(monkeypatch):
    """With a small cap each step memo is cleared when it fills, stays at
    or under the cap after every call, and changes no answer."""
    answers = []
    for cell in MAP_CELLS:
        rcs = enumerate_rc(*cell)
        answers.append((cell, rcs, [phi(*cell, rc) for rc in rcs]))
    cap = 5
    monkeypatch.setattr(bijection, "MEMO_CAP", cap)
    for cell, rcs, words in answers:
        at = cell[0]
        empty_memos(monkeypatch, at)
        for rc, word in zip(rcs, words):
            assert phi_inverse(*cell, word) == rc
            assert phi(*cell, rc) == word
            assert 0 < len(at.grown) <= cap and 0 < len(at.tails) <= cap


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
