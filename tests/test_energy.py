import pytest

from conftest import EXTENDED, GRID_TYPES, buildable_types, empty_memos
from oracles import local_hbar_by_probe
from rcbij import energy
from rcbij.cartan import AffineType, dominant_weights
from rcbij.crystal import EMPTY, enumerate_highest, letters
from rcbij.energy import (
    PropagationError,
    b_natural,
    dbar,
    dbars,
    local_hbar,
    xbar,
)
from rcbij.qpoly import QPoly


def test_propagation_covers_all_pairs():
    # uniqueness of the local energy made operational: full coverage with
    # no conflicts (a conflict would raise)
    for at in GRID_TYPES:
        h = local_hbar(at)
        assert len(h) == len(letters(at)) ** 2


def test_disconnected_pair_graph_refused(monkeypatch):
    # without its 0-arrows the pair graph of C1 n=2 falls apart into the
    # classical components of B (x) B; the build names how many of the
    # |B|^2 = 16 pairs it reached (the 10 of the component of 1 (x) 1)
    arrows = energy.arrows
    monkeypatch.setattr(energy, "arrows", lambda at: (
        arrows(at)[0], {i: e for i, e in arrows(at)[1].items() if i}))
    with pytest.raises(PropagationError, match=r"reached 10 of 16$"):
        local_hbar.__wrapped__(AffineType("C1", 2))


def test_local_energy_matches_the_probe_of_every_pair():
    # the pair graph read off the arrows by the tensor-product rule gives
    # the table that trying every e_i on every pair gives: on every type
    # at ranks 1-8 and at three families at rank 20
    types = buildable_types() + [AffineType(f, 20)
                                 for f in ("C1", "D1", "A2odd")]
    for at in types:
        assert local_hbar(at) == local_hbar_by_probe(at), at


def test_h_normalization():
    for at in GRID_TYPES:
        assert local_hbar(at)[(1, 1)] == 0


def test_hbar_D_barred_one_one():
    assert local_hbar(AffineType("D1", 4))[(-1, 1)] == 2


def _chain_pos(at):
    pos, i = {}, 0
    for b in letters(at):
        if b == EMPTY:
            continue
        if at.family == "D1" and b == -at.n:
            pos[b] = pos[at.n]
            continue
        pos[b] = i
        i += 1
    return pos


def _leq(at, x, y):
    # chain order as displayed; None when incomparable or phi involved
    if x == EMPTY or y == EMPTY:
        return None
    if at.family == "D1" and abs(x) == at.n and abs(y) == at.n and x != y:
        return None
    pos = _chain_pos(at)
    return pos[x] <= pos[y]


def test_hbar_value_table_C():
    for n in (2, 3):
        at = AffineType("C1", n)
        for (x, y), v in local_hbar(at).items():
            assert v == (0 if _leq(at, x, y) else 1), (x, y)


def test_hbar_value_table_B():
    at = AffineType("B1", 3)
    for (x, y), v in local_hbar(at).items():
        if (x, y) == (-1, 1):
            assert v == 2
        elif _leq(at, x, y) and not (x == 0 and y == 0):
            assert v == 0
        else:
            assert v == 1


def test_hbar_value_table_D():
    at = AffineType("D1", 4)
    n = at.n
    for (x, y), v in local_hbar(at).items():
        if _leq(at, x, y):
            assert v == 0
        elif (x, y) == (-1, 1):
            assert v == 2
        elif abs(x) == n and abs(y) == n and x != y:
            assert v == 1  # n (x) nbar and nbar (x) n
        elif x != -1 and y != 1:
            assert v == 1


def test_hbar_value_table_A2():
    for n in (1, 2):
        at = AffineType("A2", n)
        for (x, y), v in local_hbar(at).items():
            if x == EMPTY and y == EMPTY:
                assert v == 2
            elif x == EMPTY or y == EMPTY:
                assert v == 1
            elif _leq(at, x, y):
                assert v == 0
            else:
                assert v == 2


def test_hbar_value_table_A2odd():
    at = AffineType("A2odd", 2)
    for (x, y), v in local_hbar(at).items():
        if (x, y) == (-1, 1):
            assert v == 2
        elif _leq(at, x, y):
            assert v == 0
        else:
            assert v == 1


def test_hbar_value_table_D2():
    for n in (2, 3):
        at = AffineType("D2", n)
        for (x, y), v in local_hbar(at).items():
            if x == EMPTY and y == EMPTY:
                assert v == 2
            elif x == EMPTY or y == EMPTY:
                assert v == 1
            elif x == 0 and y == 0:
                assert v == 2
            elif _leq(at, x, y):
                assert v == 0
            else:
                assert v == 2


def test_hbar_value_table_A2dag():
    for n in (1, 2):
        at = AffineType("A2dag", n)
        for (x, y), v in local_hbar(at).items():
            if x == 0 and y == 0:
                assert v == 1
            elif _leq(at, x, y):
                assert v == 0
            else:
                assert v == 1


def test_b_natural_values():
    # phi(b) = Lambda_0 has a unique solution per type; for the two
    # starred families the zero-arrows force the barred letter, and the
    # statistic cannot tell it apart from the unbarred one (see
    # test_b_natural_choice_immaterial).
    want = {
        "A1": lambda at: at.n + 1,
        "B1": lambda at: -1,
        "C1": lambda at: -1,
        "D1": lambda at: -1,  # *
        "A2": lambda at: EMPTY,
        "A2dag": lambda at: -1,  # *
        "A2odd": lambda at: -1,
        "D2": lambda at: EMPTY,
    }
    for at in GRID_TYPES:
        assert b_natural(at) == want[at.family](at)


def test_b_natural_choice_immaterial():
    # for D1 and A2dag, using the unbarred letter instead of the computed
    # barred one changes no intrinsic energy on any restricted path
    for fam, n in (("D1", 4), ("A2dag", 1), ("A2dag", 2)):
        at = AffineType(fam, n)
        h = local_hbar(at)
        for L in range(1, 4):
            for lam in dominant_weights(at, L):
                for word in enumerate_highest(at, lam, L):
                    alt = (
                        ebar_with(at, word, 1)
                        - L * h[(1, 1)]
                    )
                    assert dbar(at, word) == alt, (at, word)


def ebar_with(at, word, bnat):
    h = local_hbar(at)
    L = len(word)
    total = L * h[(word[-1], bnat)]
    for idx in range(L - 1):
        total += (idx + 1) * h[(word[idx], word[idx + 1])]
    return total


def test_dbar_examples():
    for at in GRID_TYPES:
        assert dbar(at, (1, 1, 1)) == 0
        assert dbar(at, (1,)) == 0
        assert dbar(at, tuple()) == 0
    assert dbar(AffineType("A2", 1), (EMPTY,)) == 1
    assert dbar(AffineType("D2", 2), (EMPTY,)) == 1
    # the unbarred intrinsic energy -dbar is nonpositive on restricted paths
    assert -dbar(AffineType("A2", 1), (EMPTY,)) == -1


def test_dbar_of_the_empty_word_builds_no_table(monkeypatch):
    """dbar of the empty word is 0 without the |B|^2 local energy table: a
    type whose table is not built yet does not build it for that word."""
    at = AffineType("C1", 200)
    monkeypatch.delitem(vars(at), "local_hbar", raising=False)
    assert dbar(at, ()) == 0
    assert "local_hbar" not in vars(at)


def test_xbar_examples():
    at = AffineType("C1", 2)
    assert xbar(at, (2, 0), 2) == QPoly({0: 1})
    assert xbar(AffineType("A2", 1), (0,), 1) == QPoly({2: 1})
    assert xbar(at, (0, 0), 2) == QPoly({2: 1})


def test_xbar_nonnegative_exponents():
    # Xbar lives in Z>=0[q]: nonnegative coefficients, exponents >= 0
    for at in GRID_TYPES:
        for L in range(0, 4):
            for lam in dominant_weights(at, L):
                p = xbar(at, lam, L)
                assert all(e >= 0 and c > 0 for e, c in p.terms.items()), (
                    at,
                    lam,
                    L,
                )


# type -> the greatest length: the battery to L = 6, the extended ranks to
# L = 4, and the grid of the benchmark's sums workload, where it is longer
SUMS_GRID = {AffineType("A2", 2): 7, AffineType("B1", 3): 6,
             AffineType("C1", 3): 7, AffineType("D1", 4): 5,
             AffineType("D2", 3): 6}
MEMO_GRID = dict.fromkeys(GRID_TYPES, 6) | dict.fromkeys(EXTENDED, 4)
MEMO_GRID.update({at: max(L, MEMO_GRID.get(at, 0))
                  for at, L in SUMS_GRID.items()})


def t_of(at, word):
    """The sum of the word's adjacent local energies and its end term."""
    h, bnat = local_hbar(at), b_natural(at)
    if not word:
        return 0
    return (sum(h[pair] for pair in zip(word, word[1:]))
            + h[word[-1], bnat] - h[1, bnat])


@pytest.mark.parametrize("at,max_len", MEMO_GRID.items(),
                         ids=lambda v: str(v) if isinstance(v, AffineType)
                         else "L%d" % v)
def test_memo_energy_is_dbar(monkeypatch, at, max_len):
    # the path memo builds each path's dbar, and the sum T it is built
    # from, with the path: both equal their definitions on every path of
    # every state the memo holds once the type's cells are enumerated,
    # each cell's words come in sorted order, and Xbar is the sum of
    # q^dbar over them, as it was defined before the memo carried dbar
    empty_memos(monkeypatch, at)
    for L in range(max_len + 1):
        for lam in dominant_weights(at, L):
            words = enumerate_highest(at, lam, L)
            assert list(words) == sorted(words), (at, lam, L)
            assert dbars(at, lam, L) == tuple(dbar(at, w) for w in words)
            assert xbar(at, lam, L) == QPoly.count(
                [2 * dbar(at, w) for w in words]), (at, lam, L)
    held = 0
    for (lam, L), (words, ds, ts) in at.paths.items():
        assert len(words) == len(ds) == len(ts), (at, lam, L)
        assert all(len(w) == L for w in words), (at, lam, L)
        assert ds == tuple(dbar(at, w) for w in words), (at, lam, L)
        assert ts == tuple(t_of(at, w) for w in words), (at, lam, L)
        held += len(words)
    assert held
