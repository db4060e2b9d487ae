"""Exact polynomials in q with exponents in (1/2)Z.

Exponents are stored doubled (an exponent of 3/2 is keyed as 3), so all
arithmetic is integer arithmetic.  Coefficients are ints and zero
coefficients are never stored, which makes equality structural.
"""

from __future__ import annotations


class QPoly:
    """Immutable Laurent-ish polynomial in q with half-integer exponents."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """terms: mapping doubled-exponent -> integer coefficient."""
        if terms is None:
            terms = {}
        clean = {e: c for e, c in terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def zero() -> "QPoly":
        return QPoly({})

    @staticmethod
    def one() -> "QPoly":
        return QPoly({0: 1})

    @staticmethod
    def q_power(exp2: int, coeff: int = 1) -> "QPoly":
        """coeff * q^(exp2/2)."""
        return QPoly({exp2: coeff})

    @staticmethod
    def count(exps2) -> "QPoly":
        """The sum of q^(e/2) over the doubled exponents e, one term each."""
        out: dict[int, int] = {}
        for e in exps2:
            out[e] = out.get(e, 0) + 1
        return QPoly(out)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "QPoly") -> "QPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return QPoly(out)

    def __mul__(self, other: "QPoly") -> "QPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPoly(out)

    def at_one(self) -> int:
        """Evaluate at q = 1."""
        return sum(self.terms.values())

    def coeffs_sorted(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.coeffs_sorted():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if e == 2:
                    pw = "q"
                elif e % 2 == 0:
                    pw = "q^%d" % (e // 2) if e > 0 else "q^(%d)" % (e // 2)
                else:
                    pw = "q^(%d/2)" % e
                body = pw if mag == 1 else "%d*%s" % (mag, pw)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "QPoly(%s)" % str(self)


def qbinom(p: int, m: int, t: int = 1) -> QPoly:
    """Gaussian binomial [p+m choose m] evaluated at q^t.

    Computed by the q-Pascal recurrence [n k] = [n-1 k-1] + q^k [n-1 k],
    so coefficients stay integral throughout.  Degree is t*p*m and the
    coefficient list is palindromic; test_qpoly checks both, and that the
    coefficients sum to binom(p+m, m).
    """
    if p < 0 or m < 0 or t < 1:
        raise ValueError("qbinom needs p, m >= 0 and t >= 1")
    n = p + m
    row = {0: [1]}  # k -> coefficient list of [n' choose k]_q at current n'
    for np_ in range(1, n + 1):
        new = {}
        for k in range(0, min(np_, m) + 1):
            if k == 0 or k == np_:
                new[k] = [1]
                continue
            res = list(row[k - 1])
            shifted = row[k]
            if len(res) < k + len(shifted):
                res += [0] * (k + len(shifted) - len(res))
            for i, c in enumerate(shifted):
                res[k + i] += c
            new[k] = res
        row = new
    return QPoly({2 * t * k: c for k, c in enumerate(row[m]) if c})
