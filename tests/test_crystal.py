from collections import Counter
from itertools import product

from conftest import BATTERY_MAX_LEN, GRID_TYPES, buildable_types
from rcbij.cartan import AffineType, dominant_weights
from rcbij.crystal import (
    EMPTY,
    arrows,
    dot_export,
    enumerate_highest,
    letter_str,
    letters,
    rest_weight,
    wt_letter,
    wt_path,
)
from oracles import (
    arrows_dense,
    classical_weight_steps_ok,
    enumerate_highest_bruteforce,
    eps_phi_word,
    is_classically_highest,
    rest_weight_rule,
    tensor_e,
    tensor_f,
    zero_step_vector,
)


def test_letter_inventories():
    assert letters(AffineType("A1", 2)) == (1, 2, 3)
    assert letters(AffineType("C1", 2)) == (1, 2, -2, -1)
    assert letters(AffineType("B1", 3)) == (1, 2, 3, 0, -3, -2, -1)
    assert letters(AffineType("A2", 1)) == (1, -1, EMPTY)
    assert letters(AffineType("A2dag", 1)) == (1, 0, -1)
    assert letters(AffineType("D2", 2)) == (1, 2, 0, -2, -1, EMPTY)
    assert letters(AffineType("D1", 4)) == (1, 2, 3, 4, -4, -3, -2, -1)


def test_letter_serialization():
    # letter_str is one-to-one, and int() reads back every letter but E
    for at in GRID_TYPES:
        for b in letters(at):
            assert b == EMPTY or int(letter_str(b)) == b
        assert len({letter_str(b) for b in letters(at)}) == len(letters(at))
    assert letter_str(EMPTY) == "E" and letter_str(-3) == "-3"


def test_apply_f_examples():
    f, _e = arrows(AffineType("C1", 2))
    assert f[1][1] == 2
    assert f[0][-1] == 1
    for at in GRID_TYPES:
        assert -1 not in arrows(at)[0][1]
    assert 3 not in f  # C1 n=2 has the nodes 0, 1 and 2


def test_apply_e_examples():
    _f, e = arrows(AffineType("C1", 2))
    assert e[1][2] == 1
    _f, e = arrows(AffineType("A1", 2))
    assert e[0][1] == 3


def test_arrows_inverse_pair():
    for at in GRID_TYPES:
        f, e = arrows(at)
        for i in range(at.n + 1):
            for b, v in f[i].items():
                assert e[i][v] == b


def test_arrows_match_the_dense_rule():
    """The arrows found by trying only the letters a step meets are the
    arrows of trying every letter, in the same order, on the 59 oracle
    types at ranks 1-8 and at ranks 20 and 40."""
    high = [AffineType(fam, n) for fam in ("C1", "D1", "A2odd", "D2")
            for n in (20, 40)]
    types = buildable_types() + high
    assert len(types) == 59 + 8
    for at in types:
        f, e = arrows(at)
        f_dense, e_dense = arrows_dense(at)
        assert f == f_dense and e == e_dense, at
        assert [list(m.items()) for m in f.values()] == \
            [list(m.items()) for m in f_dense.values()], at


def test_classical_weight_steps():
    for at in GRID_TYPES:
        assert classical_weight_steps_ok(at)


def test_zero_arrow_step():
    want = {
        "A1": None,  # eps_1 - eps_{n+1}
        "B1": (1, 1, 0),
        "C1": (2, 0),
        "D1": (1, 1, 0, 0),
        "A2": (1,),
        "A2dag": (2,),
        "A2odd": (1, 1),
        "D2": (1, 0),
    }
    for fam, n in [("B1", 3), ("C1", 2), ("D1", 4), ("A2", 1),
                   ("A2dag", 1), ("A2odd", 2), ("D2", 2)]:
        assert zero_step_vector(AffineType(fam, n)) == want[fam]
    v = zero_step_vector(AffineType("A1", 3))
    assert v == (1, 0, 0, -1)


def test_weights():
    at = AffineType("B1", 3)
    assert wt_letter(at, 2) == (0, 1, 0)
    assert wt_letter(at, -1) == (-1, 0, 0)
    assert wt_letter(at, 0) == (0, 0, 0)
    assert wt_letter(AffineType("A2", 2), EMPTY) == (0, 0)


def test_letter_weights_sum_to_zero():
    # letters pair off (zero/empty self-paired); for type A the sum is the
    # diagonal vector, which is zero in the sl weight lattice
    for at in GRID_TYPES:
        total = [0] * at.weight_len
        for b in letters(at):
            for i, x in enumerate(wt_letter(at, b)):
                total[i] += x
        if at.family == "A1":
            assert len(set(total)) == 1
        else:
            assert all(x == 0 for x in total)


def test_weight_additivity():
    at = AffineType("C1", 2)
    word = (-1, 2, 1, -2)
    acc = [0, 0]
    for b in word:
        acc = [x + y for x, y in zip(acc, wt_letter(at, b))]
    assert wt_path(at, word) == tuple(acc)


def test_tensor_rule_examples():
    at = AffineType("C1", 2)
    # single letters reduce to the plain arrows
    assert tensor_e(at, 1, (2,)) == (1,)
    assert tensor_f(at, 1, (1,)) == (2,)
    # 2 (x) 1 is killed by e_1; 2 (x) 2 moves in the left factor
    assert tensor_e(at, 1, (2, 1)) is None
    assert tensor_e(at, 1, (2, 2)) == (1, 2)


def test_eps_phi_word_against_repeated_application():
    for at in GRID_TYPES[:8]:
        B = letters(at)
        for word in product(B, repeat=2):
            for i in range(at.n + 1):
                k, w = 0, word
                while True:
                    w = tensor_e(at, i, w)
                    if w is None:
                        break
                    k += 1
                assert eps_phi_word(at, i, word)[0] == k, (at, i, word)
                k, w = 0, word
                while True:
                    w = tensor_f(at, i, w)
                    if w is None:
                        break
                    k += 1
                assert eps_phi_word(at, i, word)[1] == k, (at, i, word)


def test_tensor_e_f_inverse_on_words():
    at = AffineType("D2", 2)
    for word in product(letters(at), repeat=2):
        for i in range(at.n + 1):
            w = tensor_f(at, i, word)
            if w is not None:
                assert tensor_e(at, i, w) == word


def test_highest_trivial_weight():
    for at in GRID_TYPES:
        L = 3
        lam = [0] * at.weight_len
        lam[0] = L
        paths = enumerate_highest(at, tuple(lam), L)
        assert paths == ((1, 1, 1),)


def test_highest_A2_phi_path():
    at = AffineType("A2", 1)
    assert enumerate_highest(at, (0,), 1) == ((EMPTY,),)


def test_highest_empty_path():
    at = AffineType("C1", 2)
    assert enumerate_highest(at, (0, 0), 0) == (tuple(),)
    assert enumerate_highest(at, (1, 0), 0) == tuple()


def test_highest_C2_L3_frozen():
    at = AffineType("C1", 2)
    got = set(enumerate_highest(at, (1, 0), 3))
    assert got == {(-2, 2, 1), (-1, 1, 1), (1, -1, 1)}


def test_highest_zero_letter_condition():
    # a path may start with the zero letter only when lambda_n > 0
    at = AffineType("A2dag", 1)
    assert (0, 1) in enumerate_highest(at, (1,), 2)
    for word in enumerate_highest(at, (0,), 2):
        assert word[0] != 0


def test_rest_weight_memo_matches_rule():
    # every letter off every battery weight to L = 6, asked twice (the
    # second time the memo answers) and once with the weight as a list
    seen = Counter()
    for at in GRID_TYPES:
        for L in range(BATTERY_MAX_LEN + 1):
            for lam in dominant_weights(at, L):
                for b in letters(at):
                    want = rest_weight_rule(at, lam, b)
                    assert rest_weight(at, lam, b) == want, (at, lam, b)
                    assert rest_weight(at, lam, b) == want, (at, lam, b)
                    assert rest_weight(at, list(lam), b) == want, (at, lam, b)
                    seen[want is None, b == 0, lam[at.n - 1] > 0] += 1
    # None off the dominant chamber; the zero letter comes off exactly
    # where lam_n > 0, although lam - wt(0) = lam is always dominant
    assert seen[True, False, False] and seen[True, False, True]
    assert seen[True, True, False] and seen[False, True, True]
    assert not seen[False, True, False] and not seen[True, True, True]


def test_highest_matches_bruteforce():
    for at in GRID_TYPES:
        for L in range(0, 4):
            if len(letters(at)) ** L > 3000:
                continue
            for lam in dominant_weights(at, L):
                assert (
                    tuple(sorted(enumerate_highest(at, lam, L)))
                    == enumerate_highest_bruteforce(at, lam, L)
                ), (at, lam, L)


def test_highest_really_highest():
    at = AffineType("B1", 3)
    for lam in dominant_weights(at, 3):
        for word in enumerate_highest(at, lam, 3):
            assert is_classically_highest(at, word)
            assert wt_path(at, word) == lam


def test_dot_export_has_fork():
    dot = dot_export(AffineType("D1", 4))
    assert '"3" -> "4" [label="3"];' in dot
    assert '"3" -> "-4" [label="4"];' in dot
    assert '"4" -> "-3" [label="4"];' in dot
    assert '"-4" -> "-3" [label="3"];' in dot
    assert dot.startswith("digraph")
