"""Affine Cartan data for the eight nonexceptional families.

Families are named by the short codes used in the CLI and JSON formats:

    A1    untwisted A, rank n >= 1
    B1    untwisted B, rank n >= 3
    C1    untwisted C, rank n >= 2
    D1    untwisted D, rank n >= 4
    A2    twisted A, even case, rank n >= 1
    A2dag twisted A, even case with reversed node labels, rank n >= 1
    A2odd twisted A, odd case, rank n >= 2
    D2    twisted D, rank n >= 2

All rationals that occur here have denominator 1 or 2.  Quantities that can
be half-integral are stored doubled (suffix ``2``); everything else is a
plain int.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

FAMILIES = ("A1", "B1", "C1", "D1", "A2", "A2dag", "A2odd", "D2")

_MIN_RANK = {
    "A1": 1, "B1": 3, "C1": 2, "D1": 4,
    "A2": 1, "A2dag": 1, "A2odd": 2, "D2": 2,
}

# The least rank with a diagram to read, relaxed or not.  Below it _labels
# gives the family or its dual the wrong number of labels (B1 n=1, D1
# n<=2, A2odd n=1); D2 n=1 has node 1 as node n too, and its rigged
# configurations miss paths: lam = (0), L = 1 has the path E but none.
_LEAST_RANK = {"B1": 2, "D1": 3, "A2odd": 2, "D2": 2}

# Classical subalgebra used for weights and dominance (gbar), and the one
# whose root realization carries the normalized form (g0bar).  They differ
# only for A2, where gbar = C_n but the form lives on B_n.
_GBAR = {
    "A1": "A", "B1": "B", "C1": "C", "D1": "D",
    "A2": "C", "A2dag": "B", "A2odd": "C", "D2": "B",
}
_G0BAR = {
    "A1": "A", "B1": "B", "C1": "C", "D1": "D",
    "A2": "B", "A2dag": "B", "A2odd": "C", "D2": "B",
}

# Doubled value of the form normalization kappa, where (eps_i|eps_j) is
# kappa * delta_ij in the g0bar realization.
_KAPPA2 = {
    "A1": 2, "B1": 2, "C1": 1, "D1": 2,
    "A2": 4, "A2dag": 2, "A2odd": 2, "D2": 4,
}


class RankError(ValueError):
    """Rank outside the supported range for the family."""


@dataclass(frozen=True)
class AffineType:
    """One nonexceptional affine family together with its rank."""

    family: str
    n: int
    relax_rank: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if self.n < 1:
            raise RankError("rank must be positive, got %d" % self.n)
        if not self.relax_rank and self.n < _MIN_RANK[self.family]:
            raise RankError(
                "family %s needs rank >= %d (got %d); pass relax_rank to "
                "override" % (self.family, _MIN_RANK[self.family], self.n)
            )
        if self.n < _LEAST_RANK.get(self.family, 1):
            raise RankError("family %s needs rank >= %d, even relaxed"
                            % (self.family, _LEAST_RANK[self.family]))

    @property
    def gbar(self) -> str:
        return _GBAR[self.family]

    @property
    def g0bar(self) -> str:
        return _G0BAR[self.family]

    @property
    def weight_len(self) -> int:
        """Length of classical weight vectors (n+1 for type A, else n)."""
        return self.n + 1 if self.family == "A1" else self.n

    def __str__(self):
        return "%s(n=%d)" % (self.family, self.n)


@dataclass(frozen=True)
class KacData:
    """Kac labels and the scaling constants derived from them.

    a, a_vee are indexed 0..n.  t, t_vee, eps are indexed 1..n (stored as
    tuples of length n).  up2 holds the doubled box widths upsilon_a.
    t_lat is the scaling actually used in the vacancy/cc formulas; it is
    t with the single exception of A2dag (see the A2dag remark below).
    """

    a: tuple
    a_vee: tuple
    r: int
    t: tuple
    t_vee: tuple
    up2: tuple
    eps: tuple
    t_lat: tuple

    @property
    def a0_vee(self) -> int:
        return self.a_vee[0]


def _labels(family: str, n: int) -> tuple:
    """Kac labels a_0..a_n, read off the expansion of the null root."""
    if family == "A1":
        return (1,) * (n + 1)
    if family == "B1":
        return ((1, 1) + (2,) * (n - 1))[: n + 1]
    if family == "C1":
        return (1,) + (2,) * (n - 1) + (1,)
    if family == "D1":
        return (1, 1) + (2,) * (n - 3) + (1, 1)
    if family == "A2":
        return (2,) * n + (1,)
    if family == "A2dag":
        return (1,) + (2,) * n
    if family == "A2odd":
        return (1, 1) + (2,) * (n - 2) + (1,)
    if family == "D2":
        return (1,) * (n + 1)
    raise ValueError(family)


# Reversing all arrows maps each diagram onto the one whose labels give the
# dual labels: A1<->A1, B1<->A2odd's diagram, C1<->D2's, D1<->D1,
# A2<->A2dag's diagram.
_DUAL_DIAGRAM = {
    "A1": "A1", "B1": "A2odd", "C1": "D2", "D1": "D1",
    "A2": "A2dag", "A2dag": "A2", "A2odd": "B1", "D2": "C1",
}


@lru_cache(maxsize=None)
def kac_data(at: AffineType) -> KacData:
    fam, n = at.family, at.n
    a = _labels(fam, n)
    a_vee = _labels(_DUAL_DIAGRAM[fam], n)
    r = 1 if fam in ("A1", "B1", "C1", "D1") else 2
    # t_i = max(a_i/a_i^vee, a_0^vee), t_i^vee = max(a_i^vee/a_i, a_0);
    # both are always 1 or 2 for these families.
    t = tuple(max(Fraction(a[i], a_vee[i]), a_vee[0]) for i in range(1, n + 1))
    t_vee = tuple(max(Fraction(a_vee[i], a[i]), a[0]) for i in range(1, n + 1))
    if any(x.denominator != 1 for x in t + t_vee):
        raise ValueError("%s: t or t^vee is not integral" % at)
    t = tuple(int(x) for x in t)
    t_vee = tuple(int(x) for x in t_vee)
    up2 = [2] * n
    if fam == "C1":
        up2[n - 1] = 4
    elif fam == "B1":
        up2[n - 1] = 1
    eps = tuple(2 if (fam == "A2" and i == n) else 1 for i in range(1, n + 1))
    # A2dag: its rigged-configuration combinatorics (vacancy formula shaped
    # like C1 with integer indices everywhere, plain area statistic) is the
    # t == 1 normalization, not the raw t == 2 of the Kac labels.
    t_lat = (1,) * n if fam == "A2dag" else t
    return KacData(a, a_vee, r, t, t_vee, tuple(up2), eps, t_lat)


def simple_root_vectors(at: AffineType, which: str = "g0bar"):
    """Realizations of the classical simple roots in the epsilon basis.

    Returns a list of n integer vectors; for type A they live in Z^(n+1),
    otherwise in Z^n.  ``which`` picks the subalgebra: the form lives on
    g0bar, the crystal's classical structure on gbar (they differ only
    for A2).
    """
    n = at.n
    kind = at.g0bar if which == "g0bar" else at.gbar
    if kind == "A":
        vecs = []
        for a in range(1, n + 1):
            v = [0] * (n + 1)
            v[a - 1], v[a] = 1, -1
            vecs.append(tuple(v))
        return vecs
    vecs = []
    for a in range(1, n):
        v = [0] * n
        v[a - 1], v[a] = 1, -1
        vecs.append(tuple(v))
    last = [0] * n
    if kind == "B":
        last[n - 1] = 1
    elif kind == "C":
        last[n - 1] = 2
    elif kind == "D":
        last[n - 2], last[n - 1] = 1, 1
    vecs.append(tuple(last))
    return vecs


def theta0(at: AffineType) -> tuple:
    """theta_0 = (1/a_0) sum_{i>=1} a_i alpha_i over the gbar roots, in eps."""
    a = kac_data(at).a
    roots = simple_root_vectors(at, which="gbar")
    return tuple(sum(a[i] * r[k] for i, r in enumerate(roots, 1)) // a[0]
                 for k in range(at.weight_len))


@lru_cache(maxsize=None)
def form2_matrix(at: AffineType):
    """Doubled form matrix: entry [a][b] is 2*(alpha~_a | alpha~_b)."""
    vecs = simple_root_vectors(at)
    k2 = _KAPPA2[at.family]
    n = at.n
    return tuple(
        tuple(k2 * sum(x * y for x, y in zip(vecs[i], vecs[j])) for j in range(n))
        for i in range(n)
    )


def coroot_pairings(at: AffineType, lam) -> list:
    """<lam, h_a> for the classical (gbar) coroots, via 2(lam|alpha)/(alpha|alpha)."""
    vecs = simple_root_vectors(at, which="gbar")
    k2 = _KAPPA2[at.family]
    out = []
    for v in vecs:
        num = 2 * k2 * sum(x * y for x, y in zip(lam, v))
        den = k2 * sum(x * x for x in v)
        if num % den:
            raise ValueError("%r is not an integral weight" % (lam,))
        out.append(num // den)
    return out


def is_dominant(at: AffineType, lam) -> bool:
    """Dominance for the classical subalgebra gbar."""
    lam = tuple(lam)
    if len(lam) != at.weight_len:
        raise ValueError(
            "weight length %d, expected %d" % (len(lam), at.weight_len)
        )
    n = at.n
    if at.family == "A1":
        return all(lam[a] >= lam[a + 1] for a in range(n))
    if at.family == "D1":
        head = all(lam[a] >= lam[a + 1] for a in range(n - 1))
        return head and lam[n - 2] + lam[n - 1] >= 0
    head = all(lam[a] >= lam[a + 1] for a in range(n - 1))
    return head and lam[n - 1] >= 0


def iota_image(at: AffineType, lam, L: int):
    """Coefficients of iota(L*Lambda_1 - lam) in the alpha~ basis.

    These are the prescribed column sums of the quasipartitions of a
    lam-configuration (in normalized units, i.e. counting boxes of width
    upsilon_a as one).  Returned as a tuple of Fractions.

    iota is the identity on epsilon coordinates for every family, including
    A2 where the factor 2 on the last fundamental weight exactly cancels
    the halving in the B_n weight.
    """
    if not is_dominant(at, lam):
        raise ValueError("weight %r is not dominant for %s" % (lam, at))
    if L < 0:
        raise ValueError("L must be nonnegative")
    n = at.n
    v = [Fraction(-x) for x in lam]
    v[0] += L
    kind = at.g0bar
    partial = []
    run = Fraction(0)
    for a in range(n):
        run += v[a]
        partial.append(run)
    if kind in ("A", "B"):
        # for type A, v has n+1 entries and this is an image only when
        # they sum to 0; normalized_sizes checks that
        return tuple(partial)
    if kind == "C":
        out = partial[:-1] + [partial[-1] / 2]
        return tuple(out)
    if kind == "D":
        s = sum(v[: n - 1])
        return tuple(partial[: n - 2] + [(s - v[n - 1]) / 2, (s + v[n - 1]) / 2])
    raise ValueError(kind)


def dominant_weights(at: AffineType, L: int):
    """All dominant weights with entries bounded by L, sorted.

    For type A these are the partitions of exactly L (other weights index
    empty cells by the weight-sum constraint); for the other families the
    whole dominance cone intersected with the size-L box.
    """
    n = at.weight_len
    out = []

    def rec(acc):
        if len(acc) == n - 1:
            hi = acc[-1] if acc else L
            lo = -hi if at.family == "D1" else 0
            for v in range(lo, hi + 1):
                out.append(tuple(acc) + (v,))
            return
        hi = acc[-1] if acc else L
        for v in range(hi, -1, -1):
            rec(acc + [v])

    rec([])
    if at.family == "A1":
        out = [lam for lam in out if sum(lam) == L]
    return sorted(out)
