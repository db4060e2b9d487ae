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

Everything is read off one root datum per family (``_ROOT_DATUM``): the
kind of the classical subalgebra gbar and theta_0, the classical part of
-alpha_0, in the epsilon basis.  The Kac labels a are the coefficients of
theta_0 = sum_{i>=1} (a_i/a_0) alpha_i over the gbar roots, the dual
labels a^vee are proportional to a_i (alpha_i|alpha_i) with alpha_0 =
-theta_0, and t, t^vee, the box widths and the normalized form follow
from them (Kac, Infinite dimensional Lie algebras, Tables Aff 1-2).  Three
exceptions are named where they apply: A2dag's t_lat and the box width of
relaxed C1 n=1 (``kac_data``), and A2's form, which the paper puts on B_n
(``AffineType.g0bar``, ``form2_matrix``).  gbar's simple roots
(``simple_root_vectors``) are eps_a - eps_{a+1} and one last root per kind,
as offsets from eps_n (``_LAST_ROOT``): the kind is read off it, never
tested.  A weight has as many entries as a root (``weight_len``), is
dominant when it pairs nonnegatively with every root (``is_dominant``), and
has column sums when L*eps_1 - lam lies in the roots' span (``iota2``).

All rationals that occur here have denominator 1 or 2.  Quantities that can
be half-integral are stored doubled (suffix ``2``); everything else is a
plain int, and so are the column sums (``iota2``): a weight has
configurations only where they are even and nonnegative.  t and t^vee are
ratios compared and divided in ints (``kac_data``), so there is no
``Fraction`` anywhere, but in ``iota_image``, the halved column sums that
only the tests and the benchmark's tracer read.

``AffineType`` is interned, so each type is one object that holds its
tables: its kinds and memos are set when it is interned, and a function
decorated ``per_type`` becomes a cached property, built on its first read,
and is replaced by a reader of it.  Hot paths read ``at.<table>`` directly.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, wraps
from itertools import accumulate, combinations_with_replacement
from math import gcd

FAMILIES = ("A1", "B1", "C1", "D1", "A2", "A2dag", "A2odd", "D2")

_MIN_RANK = {
    "A1": 1, "B1": 3, "C1": 2, "D1": 4,
    "A2": 1, "A2dag": 1, "A2odd": 2, "D2": 2,
}

# The least rank with a diagram to read, relaxed or not.  Below it theta_0
# is no positive combination of all the gbar simple roots (B1 n=1, D1
# n<=2, A2odd n=1); D2 n=1 has node 1 as node n too, and its rigged
# configurations miss paths: lam = (0), L = 1 has the path E but none.
_LEAST_RANK = {"B1": 2, "D1": 3, "A2odd": 2, "D2": 2}

# The greatest rank, relaxed or not: a type's tables grow with the square of
# its rank (the form, the local energy on |B|^2 pairs).
_MAX_RANK = 400

# The root datum: gbar's kind and theta_0 as {epsilon index: coefficient},
# where index -1 is the last coordinate.
_ROOT_DATUM = {
    "A1": ("A", {0: 1, -1: -1}),  # eps_1 - eps_{n+1}
    "B1": ("B", {0: 1, 1: 1}),    # eps_1 + eps_2
    "C1": ("C", {0: 2}),          # 2 eps_1
    "D1": ("D", {0: 1, 1: 1}),    # eps_1 + eps_2
    "A2": ("C", {0: 1}),          # eps_1
    "A2dag": ("B", {0: 2}),       # 2 eps_1
    "A2odd": ("C", {0: 1, 1: 1}),  # eps_1 + eps_2
    "D2": ("B", {0: 1}),          # eps_1
}

# The last simple root alpha_n of each kind: {offset from eps_n: coefficient}.
_LAST_ROOT = {
    "A": {0: 1, 1: -1}, "B": {0: 1}, "C": {0: 2}, "D": {-1: 1, 0: 1},
}
# Its partial sums up to eps_n, right-aligned: the last n serve rank n.
_LAST_SUMS = {kind: list(accumulate(root.get(k, 0) for k in
                                    range(1 - _MAX_RANK, 1)))
              for kind, root in _LAST_ROOT.items()}


class RankError(ValueError):
    """Rank outside the supported range for the family."""


_INTERNED = {}  # (family, n) -> the one AffineType of that type


class AffineType:
    """One nonexceptional affine family together with its rank.

    Interned: a valid (family, n) has one instance, made whole when it is
    first built: family, n, the kinds gbar and g0bar and six empty memos
    are plain attributes.  relax_rank only widens the rank check, which
    every construction runs.  Immutable: the memos fill in place, and the
    tables are cached properties, which write the instance's __dict__.
    """

    def __new__(cls, family, n, relax_rank=False):
        # family is checked before (family, n) is hashed: a JSON list or
        # object is refused as an unknown family
        if family not in FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        if type(n) is not int:
            raise RankError("rank must be an integer, got %r" % (n,))
        if not 1 <= n <= _MAX_RANK:
            raise RankError("rank must be in 1..%d, got %d" % (_MAX_RANK, n))
        if not relax_rank and n < _MIN_RANK[family]:
            raise RankError(
                "family %s needs rank >= %d (got %d); pass relax_rank to "
                "override" % (family, _MIN_RANK[family], n)
            )
        if n < _LEAST_RANK.get(family, 1):
            raise RankError("family %s needs rank >= %d, even relaxed"
                            % (family, _LEAST_RANK[family]))
        at = _INTERNED.get((family, n))
        if at is None:
            at = _INTERNED[family, n] = super().__new__(cls)
            # gbar: the classical kind (weights, dominance, crystal); g0bar:
            # the kind whose roots carry the form, B_n for A2 as in the paper;
            # then the memos of rc.normalized_sizes, crystal.rest_weight,
            # crystal.enumerate_highest, rc.cc_configs (its last cell),
            # bijection.phi_inverse (its checked box additions) and
            # bijection.phi (the rest of each word it checked)
            gbar = _ROOT_DATUM[family][0]
            vars(at).update(family=family, n=n, gbar=gbar,
                            g0bar="B" if family == "A2" else gbar,
                            sizes={}, rest={}, paths={}, last_cell={},
                            grown={}, tails={})
        return at

    def __hash__(self):  # the hash of (family, n), so set order is the key's
        return hash((self.family, self.n))

    def __repr__(self):
        return "AffineType(family=%r, n=%r)" % (self.family, self.n)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):  # re-interned where it is unpickled, no table
        return AffineType, (self.family, self.n, True)

    def __str__(self):
        return "%s(n=%d)" % (self.family, self.n)


def per_type(build):
    """build(at) as the table of its name on every type, built on its
    first read (a cached property of AffineType); returns its reader."""
    name = build.__name__
    table = cached_property(build)
    table.__set_name__(AffineType, name)
    setattr(AffineType, name, table)
    return wraps(build)(lambda at: getattr(at, name))


@per_type
def weight_len(at: AffineType) -> int:
    """Length of a gbar simple-root vector: n+1 for type A, else n."""
    return len(simple_root_vectors(at)[0])


@per_type
def root_entries(at: AffineType) -> tuple:
    """(i, c, j, d) per gbar simple root: its nonzero entries, so that it
    pairs with lam as c lam_i + d lam_j (d = 0 where it has one)."""
    nz = [[(k, x) for k, x in enumerate(v) if x] + [(0, 0)]
          for v in simple_root_vectors(at)]
    return tuple(e[0] + e[1] for e in nz)


class KacData(namedtuple("KacData", "a a_vee t t_vee up2 t_lat")):
    """Kac labels and the scaling constants derived from them.

    a, a_vee are indexed 0..n.  t, t_vee, up2 are indexed 1..n (stored as
    tuples of length n).  up2 holds the doubled box widths upsilon_a.
    t_lat is the scaling actually used in the vacancy/cc formulas; it is
    t with the single exception of A2dag (see the A2dag remark below).
    """

    __slots__ = ()


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def _pair(u, v) -> int:
    """The epsilon product of two roots given by their root_entries."""
    return sum(c * x for k, c in (u[:2], u[2:]) for m, x in (v[:2], v[2:])
               if k == m)


def _primitive(xs) -> tuple:
    """The primitive integer vector on the ray of the ints xs."""
    g = gcd(*xs)
    return tuple(x // g for x in xs)


def _root_coords(kind: str, v, n: int) -> list:
    """Doubled coordinates c of the integer epsilon vector v in the simple
    roots of kind_n: with s and r the partial sums of v and of alpha_n over
    eps_1..eps_n, 2c_n = 2s_n/r_n (r_n is 1 or 2), 2c_k = 2s_k - 2c_n r_k.

    For type A, v has n+1 entries and lies in the root span only when
    they sum to 0; the callers see to that.
    """
    s, r = list(accumulate(v[:n])), _LAST_SUMS[kind][-n:]
    cn = 2 * s[-1] // r[-1]
    return [2 * x - cn * y for x, y in zip(s[:-1], r)] + [cn]


def _max_ratio(p: int, q: int, least: int):
    """max(p/q, least) for positive ints, or None where it is no int."""
    whole, rest = divmod(p, q)
    return None if rest and whole >= least else max(whole, least)


@per_type
def kac_data(at: AffineType) -> KacData:
    n = at.n
    th = theta0(at)
    a = _primitive([2] + _root_coords(at.gbar, th, n))
    # (alpha_0|alpha_0) = (theta_0|theta_0)
    roots = [th] + simple_root_vectors(at)
    a_vee = _primitive([ai * _dot(r, r) for ai, r in zip(a, roots)])
    # t_i = max(a_i/a_i^vee, a_0^vee), t_i^vee = max(a_i^vee/a_i, a_0);
    # both are always 1 or 2 for these families.
    t = tuple(_max_ratio(a[i], a_vee[i], a_vee[0]) for i in range(1, n + 1))
    t_vee = tuple(_max_ratio(a_vee[i], a[i], a[0]) for i in range(1, n + 1))
    if None in t + t_vee:
        raise ValueError("%s: t or t^vee is not integral" % at)
    # A2dag: its rigged-configuration combinatorics (vacancy formula shaped
    # like C1 with integer indices everywhere, plain area statistic) is the
    # t == 1 normalization, not the raw t == 2 of the Kac labels.
    t_lat = (1,) * n if at.family == "A2dag" else t
    up2 = tuple(2 * t_lat[0] // x for x in t_lat)
    # Relaxed C1 n=1 keeps C1's width 2 at node n, where the rule gives 1:
    # with width 1, verify --type C1 --n 1 --relax-rank fails from L = 2
    # on, at the delta_inverse check (first at lam = (0), nu = ((1,),)).
    if at.family == "C1" and n == 1:
        up2 = (4,)
    return KacData(a, a_vee, t, t_vee, up2, t_lat)


def simple_root_vectors(at: AffineType):
    """Realizations of the gbar simple roots in the epsilon basis.

    Returns a list of n integer vectors in Z^(n + max offset of alpha_n):
    Z^(n+1) for type A, otherwise Z^n.
    """
    n, last = at.n, _LAST_ROOT[at.gbar]
    vecs = []
    for a in range(1, n + 1):  # alpha_a = eps_a - eps_{a+1} before alpha_n
        v = [0] * (n + max(last))
        for k, c in (last if a == n else {0: 1, 1: -1}).items():
            v[a - 1 + k] = c
        vecs.append(tuple(v))
    return vecs


def theta0(at: AffineType) -> tuple:
    """theta_0, the classical part of -alpha_0, in the epsilon basis."""
    v = [0] * at.weight_len
    for k, c in _ROOT_DATUM[at.family][1].items():
        v[k] += c
    return tuple(v)


@per_type
def form2_matrix(at: AffineType):
    """Doubled form matrix: entry [a][b] is 2*(alpha~_a | alpha~_b).

    Kac's normalization 2(alpha_1|alpha_1) = 4 a_1^vee / a_1 scales the
    epsilon products of the gbar roots (over their root_entries) to ints.
    """
    if at.family == "A2":  # on B_n, where the paper puts it: twice A2dag's
        return tuple(tuple(2 * x for x in row)
                     for row in form2_matrix(AffineType("A2dag", at.n)))
    kd, ents = kac_data(at), at.root_entries
    num, den = 4 * kd.a_vee[1], kd.a[1] * _pair(ents[0], ents[0])
    return tuple(tuple(num * _pair(u, v) // den for v in ents) for u in ents)


def coroot_pairings(at: AffineType, lam) -> list:
    """<lam, h_a> for the classical (gbar) coroots, via 2(lam|alpha)/(alpha|alpha)."""
    out = []
    for v in simple_root_vectors(at):
        num, den = 2 * _dot(lam, v), _dot(v, v)
        if num % den:
            raise ValueError("%r is not an integral weight" % (lam,))
        out.append(num // den)
    return out


def is_dominant(at: AffineType, lam) -> bool:
    """Dominance for gbar: lam pairs nonnegatively with every simple root."""
    if len(lam) != at.weight_len:
        raise ValueError(
            "weight length %d, expected %d" % (len(lam), at.weight_len)
        )
    for i, c, j, d in at.root_entries:
        if c * lam[i] + d * lam[j] < 0:
            return False
    return True


def iota2(at: AffineType, lam, L: int):
    """Coefficients of iota(L*Lambda_1 - lam) in the alpha~ basis, doubled.

    These are the prescribed column sums of the quasipartitions of a
    lam-configuration (in normalized units, i.e. counting boxes of width
    upsilon_a as one).  Returned as a tuple of ints, twice the sums, or
    None off the roots' span (in type A, where lam must sum to L).

    iota is the identity on epsilon coordinates for every family, including
    A2 where the factor 2 on the last fundamental weight exactly cancels
    the halving in the B_n weight.
    """
    if not is_dominant(at, lam):
        raise ValueError("weight %r is not dominant for %s" % (lam, at))
    if L < 0:
        raise ValueError("L must be nonnegative")
    v = [-x for x in lam]
    v[0] += L
    if at.weight_len > at.n and sum(v):  # type A: its roots sum to 0
        return None
    return tuple(_root_coords(at.g0bar, v, at.n))


def iota_image(at: AffineType, lam, L: int):
    """iota2 halved: the column sums as Fractions, or None."""
    from fractions import Fraction  # only tests and the tracer read this

    c2 = iota2(at, lam, L)
    return None if c2 is None else tuple(Fraction(x, 2) for x in c2)


def dominant_weights(at: AffineType, L: int):
    """The dominant lam with entries at most L and L*eps_1 - lam in the
    root span (in type A, of size L), sorted.  The last entry may go
    negative only where eps_1 - theta_0 has a negative entry: never in type
    A, whose weights with one have no paths, and dominance keeps it in D."""
    n = at.weight_len
    signed = any(x > (k == 0) for k, x in enumerate(theta0(at)))
    sized = at.weight_len > at.n  # type A: its roots sum to 0
    out = []
    for head in combinations_with_replacement(range(L, -1, -1), n - 1):
        hi = head[-1] if head else L
        for v in range(-hi if signed else 0, hi + 1):
            lam = head + (v,)
            if is_dominant(at, lam) and (sum(lam) == L or not sized):
                out.append(lam)
    return sorted(out)
