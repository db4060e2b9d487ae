"""Exact polynomials in q with exponents in (1/2)Z.

Exponents are stored doubled (an exponent of 3/2 is keyed as 3), so all
arithmetic is integer arithmetic.  Coefficients are ints and zero
coefficients are never stored, which makes equality structural.
"""

from __future__ import annotations

from functools import lru_cache


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

    Its coefficients are ``qbinom_row(p, m)``; t only scales the
    exponents, so the degree is t*p*m.
    """
    if p < 0 or m < 0 or t < 1:
        raise ValueError("qbinom needs p, m >= 0 and t >= 1")
    return QPoly({2 * t * k: c for k, c in enumerate(qbinom_row(p, m))})


@lru_cache(maxsize=None)
def qbinom_row(p: int, m: int) -> tuple:
    """The coefficients of [p+m choose m] in q, from q^0 up; all positive.

    Built once per (p, m), row by row in p, by the q-Pascal recurrence
    [p+k choose k] = [p+k-1 choose k-1] + q^k [p-1+k choose k].  The memo
    holds tuples, which no caller can change.
    """
    prev = [(1,)] * (m + 1)  # [0+k choose k] for k = 0..m
    for pp in range(1, p + 1):
        cur = [(1,)]
        for k in range(1, m + 1):
            out = list(cur[k - 1]) + [0] * pp
            for j, c in enumerate(prev[k], k):
                out[j] += c
            cur.append(tuple(out))
        prev = cur
    return prev[m]
