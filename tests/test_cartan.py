import fractions
import inspect
import pickle
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from conftest import GRID_TYPES, buildable_types
from oracles import (
    G0BAR,
    GBAR,
    dominant_weights_by_family,
    form2_by_table,
    g0bar_roots,
    iota_image_by_fractions,
    is_dominant_by_family,
    kac_by_table,
    max_ratio_by_fraction,
    normalized_sizes_by_family,
    theta0_by_table,
    weight_len_by_family,
)
from rcbij import cartan
from rcbij.bijection import _end
from rcbij.cartan import (
    FAMILIES,
    AffineType,
    RankError,
    coroot_pairings,
    dominant_weights,
    form2_matrix,
    iota2,
    iota_image,
    is_dominant,
    kac_data,
    simple_root_vectors,
    theta0,
)
from rcbij.crystal import letters
from rcbij.energy import local_hbar
from rcbij.rc import _vacancy_table, normalized_sizes


def test_rank_ranges_enforced():
    with pytest.raises(RankError):
        AffineType("B1", 2)
    with pytest.raises(RankError):
        AffineType("D1", 3)
    with pytest.raises(RankError):
        AffineType("C1", 1)
    # escape hatch
    assert AffineType("C1", 1, relax_rank=True).n == 1
    # the ceiling, 400 for every family, relaxed or not: no table of a
    # larger rank is ever built
    assert AffineType("D2", 400).n == 400
    refused = r"rank must be in 1\.\.400, got"
    for n in (401, 10 ** 20):
        for relax in (False, True):
            with pytest.raises(RankError, match=refused):
                AffineType("D2", n, relax_rank=relax)


def test_kac_example_C3():
    kd = kac_data(AffineType("C1", 3))
    assert kd.a == (1, 2, 2, 1)
    assert kd.a_vee[0] == 1
    assert kd.t == (2, 2, 1)
    assert kd.t_vee == (1, 1, 1)
    assert kd.up2 == (2, 2, 4)  # upsilon = (1, 1, 2)


def test_kac_example_A2dag_rank1():
    kd = kac_data(AffineType("A2dag", 1))
    assert kd.a == (1, 2)
    assert kd.a_vee[0] == 2
    assert kd.t == (2,)
    assert kd.t_vee == (1,)


def test_kac_type_A_all_ones():
    for n in (1, 2, 5):
        kd = kac_data(AffineType("A1", n))
        assert set(kd.a) == {1} and set(kd.a_vee) == {1}
        assert set(kd.t) == {1} and set(kd.t_vee) == {1}


def test_a0_vee_rule():
    for at in GRID_TYPES:
        want = 2 if at.family == "A2dag" else 1
        assert kac_data(at).a_vee[0] == kac_by_table(at)["a_vee"][0] == want


def test_tt_shortcuts():
    # t_vee = 1 for untwisted, t = a_0^vee for twisted
    for at in GRID_TYPES:
        kd = kac_data(at)
        if kac_by_table(at)["r"] == 1:
            assert all(x == 1 for x in kd.t_vee)
        else:
            assert all(x == kd.a_vee[0] for x in kd.t)


def test_diagram_annotations():
    # the t (untwisted) / t_vee (twisted) markings on the diagrams
    assert kac_data(AffineType("B1", 3)).t == (1, 1, 2)
    assert kac_data(AffineType("C1", 2)).t == (2, 1)
    assert kac_data(AffineType("D1", 4)).t == (1, 1, 1, 1)
    assert kac_data(AffineType("A2", 2)).t_vee == (2, 2)
    assert kac_data(AffineType("A2dag", 2)).t_vee == (1, 1)
    assert kac_data(AffineType("A2odd", 2)).t_vee == (1, 2)
    assert kac_data(AffineType("D2", 3)).t_vee == (2, 2, 1)


def test_upsilon_rule():
    for at in GRID_TYPES:
        up2 = kac_data(at).up2
        for a in range(1, at.n + 1):
            if at.family == "C1" and a == at.n:
                assert up2[a - 1] == 4
            elif at.family == "B1" and a == at.n:
                assert up2[a - 1] == 1
            else:
                assert up2[a - 1] == 2


def test_eps_rule():
    # eps_a scales the g0bar root to the gbar root
    for at in GRID_TYPES:
        eps = kac_by_table(at)["eps"]
        pairs = zip(simple_root_vectors(at), g0bar_roots(at))
        for a, (root, root0) in enumerate(pairs, 1):
            assert eps[a - 1] == (2 if at.family == "A2" and a == at.n else 1)
            assert root == tuple(eps[a - 1] * x for x in root0)


def test_form_matrix_examples():
    assert form2_matrix(AffineType("A2", 1)) == ((4,),)  # (a~|a~) = 2
    f2 = form2_matrix(AffineType("B1", 3))
    assert f2[2][2] == 2 and f2[0][0] == 4 and f2[0][1] == -2
    f2 = form2_matrix(AffineType("D1", 4))
    # simply laced: form equals the Cartan matrix
    for i in range(4):
        assert f2[i][i] == 4
    assert f2[1][2] == f2[1][3] == -2 and f2[2][3] == 0


def test_form_symmetric():
    for at in GRID_TYPES:
        f2 = form2_matrix(at)
        for i in range(at.n):
            for j in range(at.n):
                assert f2[i][j] == f2[j][i]


def test_forms_crosscheck():
    # (iota(alpha_b) | iota(alpha_b)) = a_0 (alpha_b | alpha_b), where the
    # affine normalized form gives (alpha_b|alpha_b) = 2 a_b^vee / a_b.
    for at in GRID_TYPES:
        kd = kac_data(at)
        eps = kac_by_table(at)["eps"]
        f2 = form2_matrix(at)
        for b in range(1, at.n + 1):
            lhs = Fraction(eps[b - 1] ** 2 * f2[b - 1][b - 1], 2)
            rhs = kd.a[0] * Fraction(2 * kd.a_vee[b], kd.a[b])
            assert lhs == rhs, (at, b)


def test_root_datum_matches_hand_tables():
    """The data derived from (gbar, theta_0) equal the hand tables.

    Every family at ranks 1-8, relaxed ranks included.
    """
    fields = ("a", "a_vee", "t", "t_vee", "up2", "t_lat")
    for at in buildable_types():
        want = kac_by_table(at)
        kd = kac_data(at)
        assert (at.gbar, at.g0bar) == (GBAR[at.family],
                                       G0BAR[at.family]), at
        assert {k: getattr(kd, k) for k in fields} == {
            k: want[k] for k in fields}, at
        assert form2_matrix(at) == form2_by_table(at), at
        assert theta0(at) == theta0_by_table(at), at
    # the form, read off each root's nonzero entries, at higher ranks too
    for fam in FAMILIES:
        for n in (12, 20, 40):
            at = AffineType(fam, n)
            assert form2_matrix(at) == form2_by_table(at), at


def test_integer_t_rule_matches_the_fraction_rule():
    # t and t^vee are compared and divided in ints: on every buildable
    # type, and on every small ratio, integral or not
    for at in buildable_types():
        kd = kac_data(at)
        nodes = range(1, at.n + 1)
        assert kd.t == tuple(max_ratio_by_fraction(kd.a[i], kd.a_vee[i],
                                                   kd.a_vee[0]) for i in nodes)
        assert kd.t_vee == tuple(max_ratio_by_fraction(kd.a_vee[i], kd.a[i],
                                                       kd.a[0]) for i in nodes)
    for p, q, least in product(range(1, 9), range(1, 5), range(1, 4)):
        want = max_ratio_by_fraction(p, q, least)
        got = cartan._max_ratio(p, q, least)
        assert got == (want if want.denominator == 1 else None), (p, q, least)
        assert got is None or type(got) is int


def test_weight_space_matches_hand_rules():
    """Weight length, dominance, the cells' weights and their column sums,
    read off the gbar roots, equal the per-family hand rules.

    Dominance on the signed box [-2, 2]^k for k <= 5; the weights for
    L <= 7 at ranks <= 3 and L <= 4 above; the column sums on all of those
    cells, and on type A weights at a length they do not sum to.  The
    hand rule reads the column sums in Fractions, so the doubled integer
    ones are held to that route too, and so is their halving reader.
    """
    cells = 0
    for at in buildable_types():
        k = at.weight_len
        assert k == weight_len_by_family(at), at
        if k <= 5:
            for lam in product(range(-2, 3), repeat=k):
                assert is_dominant(at, lam) == is_dominant_by_family(
                    at, lam), (at, lam)
        for L in range(8 if at.n <= 3 else 5):
            weights = dominant_weights(at, L)
            assert weights == dominant_weights_by_family(at, L), (at, L)
            for lam in weights:
                cells += 1
                assert normalized_sizes(at, lam, L) == (
                    normalized_sizes_by_family(at, lam, L)), (at, lam, L)
                assert iota_image(at, lam, L) == (
                    iota_image_by_fractions(at, lam, L)), (at, lam, L)
                if at.family == "A1":  # no column sums at another length
                    assert normalized_sizes(at, lam, L + 1) is None
                    assert normalized_sizes_by_family(at, lam, L + 1) is None
    assert cells == 17274


def test_normalized_sizes_build_no_fraction(monkeypatch):
    # the column sums are doubled ints: a cell without configurations is
    # found by parity or sign, and no Fraction is built on the way
    # (the Fraction oracle runs first: with fractions.Fraction replaced,
    # building any Fraction fails, also from a name imported before)
    wants = {}
    for at in GRID_TYPES:
        for L in range(6):
            # and one weight too long for L, whose first column sum is < 0
            over = (L + 1,) + (0,) * (at.weight_len - 1)
            for lam in dominant_weights(at, L) + [over]:
                wants[at, lam, L] = normalized_sizes_by_family(at, lam, L)

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    for at in GRID_TYPES:
        monkeypatch.setitem(at.__dict__, "sizes", {})  # an empty memo
    for (at, lam, L), want in wants.items():
        assert normalized_sizes(at, lam, L) == want, (at, lam, L)
    for at in GRID_TYPES:
        assert None in at.sizes.values(), at


def test_equal_types_share_one_table_object():
    # a type is one object, whichever instance builds a table first: the
    # relaxed instance of an in-range rank too
    plain = AffineType("C1", 3)
    relaxed = AffineType("C1", 3, relax_rank=True)
    assert relaxed is plain is AffineType(n=3, family="C1")
    assert kac_data(relaxed) is kac_data(plain) is plain.kac_data
    assert letters(relaxed) is letters(AffineType("C1", 3))
    assert _vacancy_table(plain) is relaxed._vacancy_table
    assert _end(relaxed) is plain._end
    assert plain.root_entries is AffineType("C1", 3).root_entries
    # other ranks and families are other objects, with other tables
    for other in (AffineType("C1", 4), AffineType("A2odd", 3)):
        assert other is not plain and other != plain
        assert other._vacancy_table != plain._vacancy_table
    with pytest.raises(AttributeError):
        plain.no_such_table
    # every construction checks the rank, also of an interned type
    low = AffineType("C1", 1, relax_rank=True)
    assert AffineType("C1", 1, relax_rank=True) is low
    with pytest.raises(RankError):
        AffineType("C1", 1)
    # a rank that is no int is refused, not interned as an int's equal
    for n in (True, 2.0):
        with pytest.raises(RankError):
            AffineType("A1", n)
    assert type(AffineType("A1", 1).n) is int


def test_type_behaves_as_the_frozen_record_it_was():
    # repr, equality, hash and refusals, pinned to the frozen dataclass
    # AffineType was (pickling: the test below); the hash is that of
    # (family, n), so sets of types iterate in one order for a given
    # PYTHONHASHSEED
    at = AffineType("C1", 2)
    assert repr(at) == "AffineType(family='C1', n=2)" and str(at) == "C1(n=2)"
    assert hash(at) == hash(("C1", 2))
    assert at == AffineType("C1", 2, relax_rank=True)
    assert at != AffineType("C1", 3) and at != AffineType("A2odd", 2)
    assert at != ("C1", 2) and at.__eq__(("C1", 2)) is NotImplemented
    for change in (lambda: setattr(at, "n", 3), lambda: delattr(at, "n"),
                   lambda: setattr(at, "family", "B1"),
                   lambda: setattr(at, "fresh", 1)):
        with pytest.raises(AttributeError):
            change()
    assert (at.family, at.n, hasattr(at, "fresh")) == ("C1", 2, False)
    # the checks run in one order: family, rank kind, range, least rank
    # unrelaxed, least rank relaxed
    for args, exc, msg in (
        (([1], 2), ValueError, "unknown family [1]"),
        (("X", 2.0), ValueError, "unknown family 'X'"),
        (("A1", True), RankError, "rank must be an integer, got True"),
        (("A1", "2"), RankError, "rank must be an integer, got '2'"),
        (("A1", 0, True), RankError, "rank must be in 1..400, got 0"),
        (("B1", 401, True), RankError, "rank must be in 1..400, got 401"),
        (("B1", 1), RankError, "family B1 needs rank >= 3 (got 1); pass "
                               "relax_rank to override"),
        (("B1", 1, True), RankError,
         "family B1 needs rank >= 2, even relaxed"),
        (("D2", 1, True), RankError,
         "family D2 needs rank >= 2, even relaxed"),
    ):
        with pytest.raises(exc) as info:
            AffineType(*args)
        assert type(info.value) is exc and str(info.value) == msg, args
    assert not {("X", 2.0), ("B1", 1)} & cartan._INTERNED.keys()


def test_kac_data_is_a_named_tuple_of_six_fields():
    kd = kac_data(AffineType("C1", 2))
    assert kd._fields == ("a", "a_vee", "t", "t_vee", "up2", "t_lat")
    assert repr(kd) == ("KacData(a=(1, 2, 1), a_vee=(1, 1, 1), t=(2, 1), "
                        "t_vee=(1, 1), up2=(2, 4), t_lat=(2, 1))")
    assert hash(kd) == hash(tuple(kd))
    with pytest.raises(AttributeError):
        kd.t = (1, 1)


def test_pickled_type_is_reinterned_without_tables():
    for at in (AffineType("D1", 4), AffineType("C1", 1, relax_rank=True)):
        local_hbar(at)  # built: the tables are on the instance
        _end(at)
        blob = pickle.dumps(at)
        assert pickle.loads(blob) is at
        assert len(blob) < 100 and b"hbar" not in blob, blob


def test_dominance_examples():
    assert is_dominant(AffineType("D1", 4), (2, 1, 1, -1))
    assert is_dominant(AffineType("C1", 2), (0, 0))
    assert not is_dominant(AffineType("B1", 3), (1, 2, 0))
    assert not is_dominant(AffineType("D1", 4), (2, 1, 1, -2))
    assert is_dominant(AffineType("A1", 2), (2, 1, 0))
    with pytest.raises(ValueError):
        is_dominant(AffineType("C1", 2), (1, 0, 0))


def test_dominance_matches_coroot_pairings():
    for at in GRID_TYPES:
        for lam in dominant_weights(at, 3):
            assert min(coroot_pairings(at, lam)) >= 0
        # scan a small signed box for negatives too
        n = at.weight_len
        if n > 3:
            continue
        for lam in product(range(-2, 3), repeat=n):
            want = min(coroot_pairings(at, lam)) >= 0
            assert is_dominant(at, lam) == want, (at, lam)


def test_iota_trivial_weight():
    for at in GRID_TYPES:
        L = 3
        lam = [0] * at.weight_len
        lam[0] = L
        if not is_dominant(at, lam):
            continue
        assert all(x == 0 for x in iota_image(at, tuple(lam), L))


def test_iota_examples():
    # column sums matching the size constraints
    assert iota_image(AffineType("C1", 2), (0, 0), 2) == (2, 1)
    assert iota_image(AffineType("D1", 4), (1, 1, 0, 0), 2) == (1, 0, 0, 0)


def test_iota_matches_size_constraints():
    # per-family area formulas, checked against the linear algebra route
    for at in GRID_TYPES:
        n = at.n
        kd = kac_data(at)
        for L in range(0, 4):
            for lam in dominant_weights(at, L):
                c = iota_image(at, lam, L)
                areas = [ci * Fraction(u, 2) for ci, u in zip(c, kd.up2)]
                if at.family == "A1":
                    want = [
                        Fraction(sum(lam[a:])) for a in range(1, n + 1)
                    ]
                elif at.family == "D1":
                    want = [Fraction(L - sum(lam[:a])) for a in range(1, n - 1)]
                    want.append(Fraction(L - sum(lam[: n - 1]) + lam[n - 1], 2))
                    want.append(Fraction(L - sum(lam), 2))
                elif at.family in ("B1", "A2odd"):
                    want = [Fraction(L - sum(lam[:a])) for a in range(1, n)]
                    want.append(Fraction(L - sum(lam), 2))
                else:  # C-shaped constraints
                    want = [Fraction(L - sum(lam[:a])) for a in range(1, n + 1)]
                assert areas == want, (at, L, lam)


def test_root_vector_realizations():
    at = AffineType("B1", 3)
    assert simple_root_vectors(at)[-1] == (0, 0, 1)
    at = AffineType("C1", 3)
    assert simple_root_vectors(at)[-1] == (0, 0, 2)
    at = AffineType("D1", 4)
    assert simple_root_vectors(at)[-1] == (0, 0, 1, 1)
    # A2 has C_n roots for the crystal and B_n for the form
    at = AffineType("A2", 2)
    assert simple_root_vectors(at)[-1] == (0, 2)
    assert g0bar_roots(at)[-1] == (0, 1)


SRC = Path(__file__).resolve().parent.parent / "src" / "rcbij"
# A family-name test: ==, != or in against a quoted family code.  A kind
# test does the same against a classical kind, so moving a family test
# onto gbar's kind is no reduction; both are counted.
FAMILY_TEST = re.compile(r'(==|!=|\bin) *\(?"(A1|B1|C1|D1|A2|A2dag|A2odd|D2)"')
KIND_TEST = re.compile(r'(==|!=|\bin) *\(?"[ABCD]"')


def test_family_name_tests_ratchet():
    text = "".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    assert len(FAMILY_TEST.findall(text)) <= 5
    assert len(KIND_TEST.findall(text)) <= 5
    # the weight space is read off the gbar roots, with no family or kind
    for fn in (AffineType.weight_len.func, AffineType.root_entries.func,
               AffineType.roots_sum_zero.func, is_dominant, iota2,
               iota_image, dominant_weights, normalized_sizes):
        body = inspect.getsource(fn)
        assert ".family" not in body and not KIND_TEST.search(body), fn
    # the diagram's ends are read off its data, never off the family code,
    # which a table keyed by family would read without a test the grep sees
    assert ".family" not in (SRC / "bijection.py").read_text()
