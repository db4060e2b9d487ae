"""Rigged configurations: vacancy numbers, enumeration, cc, and M-bar.

Representation conventions, used across the package:

* a configuration ``nu`` is a tuple with one entry per classical node
  a = 1..n; entry a-1 is a tuple of doubled string lengths (len2),
  sorted descending.  A length of 3/2 is stored as 3.
* a rigged configuration ``rc`` is the same shape with (len2, rig2)
  pairs, sorted descending; riggings are doubled too.  This normal form
  is the value that is compared, hashed and written as JSON.
* ``Config`` wraps one rc for the code that reads it string by string
  (``validate_config``, ``Config.complement`` and the steps of
  ``bijection``): rc in normal form, whatever the order it is given in,
  at each node the strings' riggings grouped by length as tuples, longest
  first, and the doubled vacancy of each occupied length; nothing writes
  into a Config once it is built.  Built from an rc, it reads
  them in one pass; ``rigged`` builds the Configs of a cell off its
  admissible pass instead, with no sort and no vacancy pass.  The
  complement is read off it, by ``map --tilde`` and ``verify`` alike.
* ``_admissible`` places a configuration node by node and reads the
  vacancies of each occupied length once, pruning as it goes.
  ``cc_configs`` pairs each admissible configuration's groups with its
  cc; ``rigged``, ``rigged_cc2`` and ``fermionic`` read that one tuple,
  and ``enumerate_rc`` (the rcs of ``rigged``), ``rc_genfun`` and
  ``fermionic_m`` read them.  The type keeps the tuple of the last cell
  read (``at.last_cell``), so those three run its pass once.
* cc is read off the vacancies.  With C the matrix of
  ``_vacancy_table``, p2(a, x) = 2L[a=1] + sum_b C[a][b] Q_x(nu^(b)),
  and cc's quadratic form has the same matrix, so
  cc2(nu) = -1/2 sum_a t^vee_a sum_{x in nu^(a)} (p2(a, x) - 2L[a=1]).
  ``fermionic`` reads the Gaussian binomials off ``qpoly.qbinom_row``,
  whose coefficient rows are memoized there per (p, m), as tuples.

Everything is exact integer arithmetic.  The vacancy numbers and cc come
from one integer matrix per type, derived from the normalized form, and
every family's rigging box comes from ``box``.  The column sums are
``cartan.iota2``'s doubled ints, halved where even and nonnegative.  The
vacancy matrix, the box widths, t^vee and the column sums' memo are read
off the type itself (``at._vacancy_table``, ``at.kac_data``, ``at.sizes``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

from .cartan import AffineType, form2_matrix, iota2, kac_data, per_type
from .qpoly import QPoly, qbinom_row

INF = 10 ** 9  # larger than any doubled length


def normalized_sizes(at: AffineType, lam, L: int):
    """Column sums required of a lam-configuration, or None if impossible.

    Entry a-1 is sum_i i*m_i at node a in normalized units.  None means
    the linear system has no nonnegative integer solution, i.e. there are
    no configurations (and no paths) for this weight at all.  Kept in
    at.sizes.
    """
    lam, sizes = tuple(lam), at.sizes
    if (lam, L) not in sizes:
        c2 = iota2(at, lam, L)  # None outside the root span
        ok = c2 is not None and not any(x % 2 or x < 0 for x in c2)
        sizes[lam, L] = tuple(x // 2 for x in c2) if ok else None
    return sizes[lam, L]


@per_type
def _vacancy_table(at: AffineType):
    """Box widths and, per node a, the nonzero entries (b, C[a][b]).

    The doubled vacancy is 2L[a=1] + sum_b C[a][b] Q_i(nu^(b)), with
    Q_i the doubled area of the first i columns.  Reading the general
    formula's min(t_b i, t_a k) in doubled lengths gives
    C[a][b] = -form2[a][b] K / (t_a^vee up2[a] up2[b]), where
    K = t_b up2[b] (t from t_lat) must be one constant for every node.
    """
    kd = kac_data(at)
    form2 = form2_matrix(at)
    n = at.n
    ks = {kd.t_lat[b] * kd.up2[b] for b in range(n)}
    if len(ks) != 1:
        raise ValueError("%s: t*upsilon is not constant over the nodes" % at)
    (k,) = ks
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            num = -form2[a][b] * k
            den = kd.t_vee[a] * kd.up2[a] * kd.up2[b]
            if num % den:
                raise ValueError("%s: vacancy coefficient not integral" % at)
            if num:
                row.append((b, num // den))
        rows.append(tuple(row))
    return kd.up2, tuple(rows)


@per_type
def _due(at: AffineType):
    """Per node d, the nodes whose row of ``_vacancy_table`` ends at d."""
    due = [[] for _ in range(at.n)]
    for a, row in enumerate(at._vacancy_table[1], 1):
        due[max(b for b, _c in row)].append(a)
    return tuple(map(tuple, due))


def vacancy2(at: AffineType, L: int, nu, a: int, i2: int) -> int:
    """Doubled vacancy number at node a, doubled length i2 (> 0)."""
    up2, rows = at._vacancy_table
    if i2 <= 0 or i2 % up2[a - 1] != 0:
        raise ValueError("index %d not on the node-%d lattice" % (i2, a))
    return _row_vacancy(rows[a - 1], 2 * L if a == 1 else 0, nu, i2)


def _row_vacancy(row, total: int, nu, i2: int) -> int:
    """total plus the part of the doubled vacancy at length i2 that the
    row of ``_vacancy_table`` reads off nu."""
    for b, c in row:
        # c times Q_i: the doubled area of the first i columns at node b
        for x in nu[b]:
            total += c * (x if x < i2 else i2)
    return total


def box(at: AffineType, a: int, i2: int, p2: int) -> range:
    """The doubled riggings allowed on a string of length i2 at node a.

    Riggings run from 0 to the vacancy p2 in unit steps, except on the
    odd-length strings at the last node of A2dag, whose riggings are
    half-odd: 1/2, 3/2, ..., p - 1/2.
    """
    lo = 1 if at.family == "A2dag" and a == at.n and (i2 // 2) % 2 == 1 else 0
    return range(lo, p2 - lo + 1, 2)


class InvalidRC(ValueError):
    """A rigged configuration breaks one of its structural invariants."""


def config_of(rc):
    """Forget the riggings."""
    return tuple([tuple([ln for ln, _ in node]) for node in rc])


class Config:
    """A rigged configuration at length L, read string by string.

    rc is the rigged configuration in normal form, whatever the order it
    is given in, and nu its configuration.  by[a-1] and p2[a-1] map each
    occupied len2 at node a, longest first, to its riggings (a tuple,
    largest first) and to its doubled vacancy.  ``rigged`` builds the
    Configs of enumerated rigged configurations off their groups, without
    this constructor.  Nothing writes into a Config once it is built, so
    Configs may share their parts and outlive their cell.
    """

    __slots__ = ("at", "L", "rc", "nu", "by", "p2")

    def __init__(self, at: AffineType, L: int, rc):
        self.at = at
        self.L = L
        self.rc = rc = tuple([tuple(sorted(node, reverse=True))
                              for node in rc])
        self.nu = nu = config_of(rc)
        bys, p2s = [], []
        total = 2 * L  # node 1's part of the vacancy
        for node, row in zip(rc, at._vacancy_table[1]):
            by, p2 = {}, {}
            for ln, rg in node:
                if ln in by:
                    by[ln] += (rg,)
                else:  # no lattice check: validate_config reports that
                    by[ln] = (rg,)
                    p2[ln] = _row_vacancy(row, total, nu, ln)
            bys.append(by)
            p2s.append(p2)
            total = 0
        self.by, self.p2 = tuple(bys), tuple(p2s)

    def complement(self):
        """rc with every rigging complemented in its box: p2 - rg."""
        return tuple(tuple([(ln, p2[ln] - rg) for ln, rigs in by.items()
                            for rg in reversed(rigs)])
                     for by, p2 in zip(self.by, self.p2))


def _node_groups(at: AffineType, L: int, nu, a: int, row):
    """(a, len2, multiplicity, p2, box) for each occupied length at node a.

    The lengths come in their order in nu, on node a's lattice.  None if
    a box is empty, i.e. node a is inadmissible.  Only the nodes of row,
    node a's row of ``_vacancy_table``, are read.
    """
    node = nu[a - 1]
    base = 2 * L if a == 1 else 0
    out = []
    for i2 in dict.fromkeys(node):
        p2 = base  # _row_vacancy, inline
        for b, c in row:
            for x in nu[b]:
                p2 += c * (x if x < i2 else i2)
        bx = box(at, a, i2, p2)
        if not bx:
            return None
        out.append((a, i2, node.count(i2), p2, bx))
    return out


@lru_cache(maxsize=None)
def _partitions(total: int, width: int = 1, most: int = INF):
    """All weakly decreasing tuples of positive ints at most ``most`` with
    the given sum, in reverse lexicographic order, each part times width."""
    if total == 0:
        return ((),)
    return tuple((p * width,) + rest for p in range(min(total, most), 0, -1)
                 for rest in _partitions(total - p, width, p))


def _admissible(at: AffineType, lam, L: int):
    """(nu, its occupied groups) for every admissible lam-configuration.

    The nodes are placed in order, each running through the partitions of
    its column sum in its box width (kept per process by ``_partitions``),
    so the configurations come in the order of the product of those lists.
    Node a is checked (``_node_groups``) once every node of its row of
    ``_vacancy_table`` is placed (the type's ``_due``), on a chain one node
    later, and a prefix that fails is not extended.
    """
    sizes = normalized_sizes(at, lam, L)
    if sizes is None:
        return ()
    (up2, rows), due, n = at._vacancy_table, at._due, at.n
    per_node = [_partitions(c, w) for c, w in zip(sizes, up2)]
    nu = [()] * n
    groups = [None] * n

    def place(d):
        for part in per_node[d]:
            nu[d] = part
            for a in due[d]:
                groups[a - 1] = _node_groups(at, L, nu, a, rows[a - 1])
                if groups[a - 1] is None:
                    break
            else:
                if d + 1 < n:
                    yield from place(d + 1)
                else:
                    yield tuple(nu), tuple(g for gs in groups for g in gs)

    return place(0)


def cc_configs(at: AffineType, lam, L: int):
    """(doubled cc of nu, occupied groups) for each admissible nu, in order.

    The one admissible pass of a cell: ``rigged``, ``rigged_cc2`` and
    ``fermionic`` all read this tuple, kept in at.last_cell until another
    cell is read (a pass that raises keeps nothing).  The cc comes off
    the groups' vacancies (module docstring).
    """
    cell, last = (tuple(lam), L), at.last_cell
    if cell not in last:
        t_vee = at.kac_data.t_vee
        out = []
        for nu, groups in _admissible(at, lam, L):
            area2 = sum(t_vee[a - 1] * m * p2 for a, _i2, m, p2, _bx in groups)
            out.append((-_half(at, area2 - 2 * L * t_vee[0] * len(nu[0])),
                        groups))
        last.clear()
        last[cell] = tuple(out)
    return last[cell]


def _half(at: AffineType, x2: int) -> int:
    """x2 / 2; the form makes every doubled cc sum even."""
    if x2 % 2:
        raise ValueError("%s: the form gives an odd doubled cc" % at)
    return x2 // 2


def _multisets(bx: range, m: int):
    """The multisets of m riggings from the box bx, each largest first, in
    the order of ``rigged``."""
    return combinations_with_replacement(bx[::-1], m)


def rigged(at: AffineType, L: int, configs):
    """The Config at length L of every rigged configuration of configs.

    configs holds pairs whose second entry is a configuration's occupied
    groups.  Each Config is read off the groups and a rigging multiset per
    group, longest group and largest rigging first, so rc is in normal
    form.  Those of a configuration share its nu and p2, and a node's by
    with all that pick its riggings alike, riggings as tuples.
    """
    n, new, out, no_strings = at.n, object.__new__, [], [((), {})]
    for _x, groups in configs:
        nu, p2, picks = [()] * n, [{}] * n, [no_strings] * n
        for a, i2, m, p, bx in groups:  # (strings, by) of each node's picks
            a -= 1
            picks[a] = [(s + tuple([(i2, rg) for rg in rigs]),
                         {**by, i2: rigs})
                        for s, by in picks[a] for rigs in _multisets(bx, m)]
            nu[a] += (i2,) * m
            p2[a] = {**p2[a], i2: p}
        nu, p2 = tuple(nu), tuple(p2)
        for pick in product(*picks):
            cf = new(Config)
            cf.at, cf.L, cf.nu, cf.p2 = at, L, nu, p2
            cf.rc, cf.by = zip(*pick)
            out.append(cf)
    return out


def rigged_cc2(at: AffineType, configs):
    """The doubled cc of each rigged configuration, in the order of rigged.

    configs is ``cc_configs``'s list: the cc of the configuration, read
    once, plus t^vee_a times the sum of the riggings at node a.
    """
    t_vee = at.kac_data.t_vee
    out = []
    for e2, groups in configs:
        weights = [[t_vee[a - 1] * sum(rigs) for rigs in _multisets(bx, m)]
                   for a, _i2, m, _p2, bx in groups]
        out += [e2 + sum(picks) for picks in product(*weights)]
    return out


def enumerate_rc(at: AffineType, lam, L: int):
    """All rigged configurations for the weight lam, in normal form."""
    return [cf.rc for cf in rigged(at, L, cc_configs(at, lam, L))]


def validate_rc(at: AffineType, lam, L: int, rc) -> Config:
    """Check every structural invariant; raises InvalidRC on failure."""
    cf = Config(at, L, rc)
    validate_config(cf, lam)
    return cf


def validate_config(cf: Config, lam) -> None:
    """validate_rc of cf.rc at the weight lam, reading cf's vacancies."""
    at = cf.at
    up2 = at.kac_data.up2
    sizes = normalized_sizes(at, lam, cf.L)
    if sizes is None:
        raise InvalidRC("no configurations exist for this weight")
    for a in range(at.n):
        if sum(cf.nu[a]) != sizes[a] * up2[a]:
            raise InvalidRC("size constraint violated")
        for ln in cf.by[a]:
            if ln <= 0 or ln % up2[a]:
                raise InvalidRC("length off lattice")
    out_of_box = False  # reported once every length is known admissible
    for a, (by, p2) in enumerate(zip(cf.by, cf.p2), 1):
        for ln, rigs in by.items():
            bx = box(at, a, ln, p2[ln])
            if not bx:
                raise InvalidRC("inadmissible configuration")
            for rg in rigs:
                if rg not in bx:
                    out_of_box = True
    if out_of_box:
        raise InvalidRC("rigging out of box")


def cc2_total(at: AffineType, rc) -> int:
    """Doubled cc of one rigged configuration: for each string at node a,
    t^vee_a times its rigging less half its vacancy without 2L[a=1] (the
    identity of ``cc_configs``)."""
    nu, rows = config_of(rc), at._vacancy_table[1]
    return _half(at, sum(tv * (2 * rg - _row_vacancy(row, 0, nu, ln))
                         for tv, row, node in zip(at.kac_data.t_vee, rows, rc)
                         for ln, rg in node))


def complement(at: AffineType, L: int, rc):
    """Complement every rigging in its box; an involution."""
    return Config(at, L, rc).complement()


def rc_genfun(at: AffineType, lam, L: int) -> QPoly:
    """Generating function of rigged configurations by cc.

    Every rigging multiset of every admissible configuration is counted
    one by one, by ``rigged_cc2``.
    """
    return QPoly.count(rigged_cc2(at, cc_configs(at, lam, L)))


def fermionic_m(at: AffineType, lam, L: int) -> QPoly:
    """The fermionic sum: q^cc times a product of Gaussian binomials."""
    return fermionic(at, cc_configs(at, lam, L))


def fermionic(at: AffineType, configs) -> QPoly:
    """fermionic_m of ``cc_configs``'s list, summed in one dict.

    Each admissible configuration contributes q^cc of its configuration
    times, for every occupied length, the generating function of rigging
    multisets drawn from the box: with m strings and a box of k values
    starting at s (doubled), that is q^(t^vee m s / 2) times
    [k - 1 + m choose m] at q^(t^vee), the row ``qbinom_row(k - 1, m)``.
    Only A2dag's half-odd boxes have s > 0.  rc_genfun counts the same
    riggings one by one.
    """
    t_vee = at.kac_data.t_vee
    total = {}
    for e2, groups in configs:
        term = {e2: 1}
        for a, _i2, m, _p2, bx in groups:
            tv, row = t_vee[a - 1], qbinom_row(len(bx) - 1, m)
            shifted = {}
            for e, c in term.items():
                e += tv * m * bx.start
                for r in row:
                    shifted[e] = shifted.get(e, 0) + c * r
                    e += 2 * tv
            term = shifted
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return QPoly(total)


def _cell_json(at: AffineType, lam, L: int) -> dict:
    """The JSON header of a cell, in the order every record prints it."""
    return {"type": at.family, "n": at.n, "L": L, "lambda": list(lam)}


def rc_to_json(at: AffineType, lam, L: int, rc) -> dict:
    nu = [{"a": a, "strings": [{"len2": ln, "rig2": rg} for ln, rg in node]}
          for a, node in enumerate(rc, 1)]
    return dict(_cell_json(at, lam, L), nu=nu)


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _json_as(kind, x, what: str):
    """x, when its JSON kind is kind (int, list or dict); else InvalidRC."""
    if type(x) is not kind:
        raise InvalidRC("%s must be %s, got %r" % (what, _JSON_KINDS[kind], x))
    return x


def _json_int(x, what: str) -> int:
    return _json_as(int, x, what)


def rc_from_json(data: dict, relax_rank: bool = False):
    """(type, weight, L, rc) of rigged-configuration JSON.

    Raises InvalidRC on a missing key, an entry of the wrong JSON kind (the
    weight, nu and each node's strings are lists, each node and string an
    object) or a node index outside 1..n or given twice, and ValueError on
    an unknown family or a rank outside its range (relax_rank widens it as
    ``AffineType`` does).
    """
    try:
        at = AffineType(data["type"], _json_int(data["n"], "n"), relax_rank)
        lam = tuple(_json_int(x, "a lambda entry")
                    for x in _json_as(list, data["lambda"], "lambda"))
        L = _json_int(data["L"], "L")
        nodes = [[] for _ in range(at.n)]
        given = set()
        for entry in _json_as(list, data["nu"], "nu"):
            a = _json_int(_json_as(dict, entry, "a node")["a"], "a")
            if not 1 <= a <= at.n:
                raise InvalidRC("node index %r outside 1..%d" % (a, at.n))
            if a in given:
                raise InvalidRC("node index %r given twice" % a)
            given.add(a)
            for s in _json_as(list, entry["strings"], "strings"):
                s = _json_as(dict, s, "a string")
                nodes[a - 1].append(
                    (_json_int(s["len2"], "len2"), _json_int(s["rig2"], "rig2"))
                )
    except KeyError as exc:
        raise InvalidRC("missing key %s" % exc)
    rc = tuple(tuple(sorted(node, reverse=True)) for node in nodes)
    return at, lam, L, rc
