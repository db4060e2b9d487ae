from math import comb

import pytest
from hypothesis import given, strategies as st

from rcbij.qpoly import QPoly, qbinom, qbinom_row


def poly(d):
    return QPoly(d)


def test_add_examples():
    one_plus_q = poly({0: 1, 2: 1})
    assert one_plus_q + poly({2: 1}) == poly({0: 1, 2: 2})


def test_mul_examples():
    assert poly({0: 1, 2: 1}) * poly({0: 1, 2: -1}) == poly({0: 1, 4: -1})
    # q^(1/2) * q^(1/2) = q
    assert poly({1: 1}) * poly({1: 1}) == poly({2: 1})


def test_zero_coefficients_dropped():
    assert poly({2: 0, 0: 1}).terms == {0: 1}
    assert (poly({2: 1}) + poly({2: -1})) == QPoly()
    assert poly({0: 1}) + poly({2: -1}) == poly({0: 1, 2: -1})
    # so truth, hash and repr read the stored terms alone
    assert not poly({2: 0}) and poly({2: 1})
    assert hash(poly({2: 0, 0: 1})) == hash(poly({0: 1}))
    assert repr(poly({0: 1, 1: -2})) == "QPoly(1 - 2*q^(1/2))"
    with pytest.raises(AttributeError, match="immutable"):
        poly({0: 1}).terms = {}


def test_qbinom_small():
    assert qbinom(1, 1, 1) == qbinom(1, 1) == poly({0: 1, 2: 1})
    assert qbinom(0, 5, 1) == QPoly({0: 1})
    assert qbinom(5, 0, 3) == QPoly({0: 1})


def test_qbinom_frozen_2_2_2():
    # [4 choose 2] at q^2
    assert qbinom(2, 2, 2) == poly({0: 1, 4: 1, 8: 2, 12: 1, 16: 1})
    assert str(qbinom(2, 2, 2)) == "1 + q^2 + 2*q^4 + q^6 + q^8"


@pytest.mark.parametrize("p,m,t", [(2, 3, 1), (3, 3, 2), (4, 1, 3), (5, 2, 1)])
def test_qbinom_symmetry_and_count(p, m, t):
    assert qbinom(p, m, t) == qbinom(m, p, t)
    assert qbinom(p, m, t).at_one() == comb(p + m, m)
    assert max(qbinom(p, m, t).terms) == 2 * t * p * m


def test_qbinom_palindromic():
    # p*m + 1 positive coefficients at q^0, q^t, ..., q^(t*p*m), read the
    # same both ways and summing to binom(p+m, m)
    for p in range(6):
        for m in range(6):
            for t in (1, 2, 3):
                terms = qbinom(p, m, t).coeffs_sorted()
                assert [e for e, _c in terms] == list(
                    range(0, 2 * t * p * m + 1, 2 * t))
                coeffs = [c for _e, c in terms]
                assert min(coeffs) > 0 and coeffs == coeffs[::-1]
                assert sum(coeffs) == comb(p + m, m)


def test_qbinom_result_is_not_the_memo():
    """Changing the terms of one qbinom result leaves the next call's
    answer as it was: the memo holds immutable rows, not QPolys."""
    first = qbinom(2, 2, 2)
    first.terms[0] = 7
    first.terms[16] += 1
    assert qbinom(2, 2, 2) == poly({0: 1, 4: 1, 8: 2, 12: 1, 16: 1})
    assert qbinom_row(2, 2) == (1, 1, 2, 1, 1)


@pytest.mark.parametrize("p,m,t", [(-1, 2, 1), (2, -1, 1), (2, 2, 0)])
def test_qbinom_rejects_bad_arguments(p, m, t):
    with pytest.raises(ValueError):
        qbinom(p, m, t)


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-4, max_value=4),
    max_size=5,
).map(QPoly)


@given(small_polys, small_polys)
def test_mul_commutative(p, r):
    assert p * r == r * p


@given(small_polys, small_polys, small_polys)
def test_mul_associative(p, r, s):
    assert (p * r) * s == p * (r * s)


@given(small_polys, small_polys, small_polys)
def test_distributive(p, r, s):
    assert p * (r + s) == p * r + p * s


def test_string_forms():
    assert str(QPoly()) == "0"
    assert str(poly({0: 1, 2: 2, 4: 1})) == "1 + 2*q + q^2"
    assert str(poly({1: 1})) == "q^(1/2)"
    assert str(poly({-3: 1})) == "q^(-3/2)"
    assert str(poly({-6: 1})) == "q^(-3)"
    assert str(poly({0: 1, 2: -1})) == "1 - q"

