"""Test-only oracles: slow or independent reimplementations to compare against.

Nothing in the package imports this module.  Each oracle computes the same
quantity as a production function by a different route (brute force, a
hand-written per-family formula or table, exact Fractions), so agreement
is evidence that both are right.  The Kac data by hand tables
(``kac_by_table``, ``form2_by_table`` on ``g0bar_roots``,
``theta0_by_table``) check what ``rcbij.cartan`` derives from one root
datum per family, and the weight space by hand (``is_dominant_by_family``
and its neighbours) what it reads off the gbar simple roots.  The tensor rule on words (``tensor_e``,
``tensor_f``) is the crystal's definition, which
``enumerate_highest_bruteforce`` applies to every word; it reads eps_i of
a letter by ``eps_letter``.  ``arrows_dense`` tries every letter at every
node to check the arrows that ``rcbij.crystal.arrows`` finds by trying
only the letters a step meets, and
``local_hbar_by_probe`` tries it (``pair_e``) on every pair and node to
check the local energy that ``rcbij.energy.local_hbar`` reads off the
arrows.  t and t^vee by the
Fraction rule (``max_ratio_by_fraction``) check the integer one of
``rcbij.cartan.kac_data``.  The column sums
in Fractions (``iota_image_by_fractions``) check the doubled integer ones
that ``rcbij.rc.normalized_sizes`` reads, and ``rest_weight_rule`` the
memo of ``rcbij.crystal.rest_weight``.  ``is_admissible_config`` and
``enumerate_configs`` read the production admissible pass, for tests that
compare it with the full check.  cc by the quadratic form's double sum
(``cc2_config_by_form``, ``cc2_total_by_form``) checks the cc that
``rcbij.rc.cc_configs`` reads off the vacancies, and the sum of QPoly
products (``fermionic_by_products``) the one-dict ``rcbij.rc.fermionic``.
``verify_delta_identities`` checks the paper's per-step identities (the
change of the vacancy numbers and of cc across one removal step) against
``delta``.
"""

from fractions import Fraction
from functools import partial
from itertools import product

from rcbij.bijection import DeltaTrace, NoPreimage, delta
from rcbij.cartan import (
    AffineType,
    form2_matrix,
    is_dominant,
    kac_data,
    simple_root_vectors,
    theta0,
)
from rcbij.crystal import (
    EMPTY,
    _eps_phi,
    arrows,
    letters,
    phi_letter,
    rest_weight,
    wt_letter,
    wt_path,
)
from rcbij.energy import local_hbar
from rcbij.qpoly import QPoly, qbinom
from rcbij.rc import (
    INF,
    InvalidRC,
    _admissible,
    _node_groups,
    _vacancy_table,
    box,
    complement,
    config_of,
    enumerate_rc,
    normalized_sizes,
    validate_rc,
    vacancy2,
)


# The Kac data as hand tables (Kac, Infinite dimensional Lie algebras,
# Tables Aff 1-2).  gbar carries weights and the crystal, g0bar the form;
# they differ only for A2, where the paper puts the form on B_n.
GBAR = {
    "A1": "A", "B1": "B", "C1": "C", "D1": "D",
    "A2": "C", "A2dag": "B", "A2odd": "C", "D2": "B",
}
G0BAR = dict(GBAR, A2="B")

# Doubled form normalization kappa: (eps_i|eps_j) = kappa delta_ij in the
# g0bar realization.
KAPPA2 = {
    "A1": 2, "B1": 2, "C1": 1, "D1": 2,
    "A2": 4, "A2dag": 2, "A2odd": 2, "D2": 4,
}

# Reversing all arrows maps each diagram onto the one whose labels give the
# dual labels.
DUAL_DIAGRAM = {
    "A1": "A1", "B1": "A2odd", "C1": "D2", "D1": "D1",
    "A2": "A2dag", "A2dag": "A2", "A2odd": "B1", "D2": "C1",
}


def labels_by_table(family: str, n: int) -> tuple:
    """Kac labels a_0..a_n, read off the expansion of the null root."""
    return {
        "A1": (1,) * (n + 1),
        "B1": ((1, 1) + (2,) * (n - 1))[: n + 1],
        "C1": (1,) + (2,) * (n - 1) + (1,),
        "D1": (1, 1) + (2,) * (n - 3) + (1, 1),
        "A2": (2,) * n + (1,),
        "A2dag": (1,) + (2,) * n,
        "A2odd": (1, 1) + (2,) * (n - 2) + (1,),
        "D2": (1,) * (n + 1),
    }[family]


def max_ratio_by_fraction(p: int, q: int, least: int) -> Fraction:
    """max(p/q, least) as a Fraction: t_i = max(a_i/a_i^vee, a_0^vee)
    and t_i^vee = max(a_i^vee/a_i, a_0)."""
    return max(Fraction(p, q), least)


def kac_by_table(at: AffineType) -> dict:
    """The Kac data from the hand tables, with r and eps as well.

    r is the twist order; eps_a is 2 at A2's node n, where the gbar root
    is twice the g0bar root, and 1 elsewhere.  The box widths are 2 at
    C1's node n, 1/2 at B1's and 1 elsewhere.
    """
    fam, n = at.family, at.n
    a = labels_by_table(fam, n)
    a_vee = labels_by_table(DUAL_DIAGRAM[fam], n)
    nodes = range(1, n + 1)
    t = tuple(int(max_ratio_by_fraction(a[i], a_vee[i], a_vee[0]))
              for i in nodes)
    t_vee = tuple(int(max_ratio_by_fraction(a_vee[i], a[i], a[0]))
                  for i in nodes)
    last = {"C1": 4, "B1": 1}.get(fam, 2)
    return {
        "a": a,
        "a_vee": a_vee,
        "r": 1 if fam in ("A1", "B1", "C1", "D1") else 2,
        "t": t,
        "t_vee": t_vee,
        "up2": tuple(last if i == n else 2 for i in nodes),
        "eps": tuple(2 if fam == "A2" and i == n else 1 for i in nodes),
        "t_lat": (1,) * n if fam == "A2dag" else t,
    }


def g0bar_roots(at: AffineType) -> list:
    """The g0bar simple roots by hand: eps_a - eps_{a+1}, then alpha_n of
    g0bar's kind, eps_n (B), 2 eps_n (C) or eps_{n-1} + eps_n (D).  Type A
    has n+1 coordinates and eps_n - eps_{n+1} last."""
    kind, n = G0BAR[at.family], at.n
    roots = []
    for a in range(n):
        v = [0] * (n + 1 if kind == "A" else n)
        if kind == "A" or a < n - 1:
            v[a], v[a + 1] = 1, -1
        elif kind == "D":
            v[a - 1] = v[a] = 1
        else:
            v[a] = 2 if kind == "C" else 1
        roots.append(tuple(v))
    return roots


def form2_by_table(at: AffineType):
    """Doubled form matrix: KAPPA2 times the epsilon products of g0bar."""
    vecs = g0bar_roots(at)
    k2 = KAPPA2[at.family]
    return tuple(tuple(k2 * sum(x * y for x, y in zip(u, v)) for v in vecs)
                 for u in vecs)


def theta0_by_table(at: AffineType) -> tuple:
    """theta_0 = (1/a_0) sum_{i>=1} a_i alpha_i over the gbar roots."""
    a = labels_by_table(at.family, at.n)
    roots = simple_root_vectors(at)
    return tuple(sum(a[i] * r[k] for i, r in enumerate(roots, 1)) // a[0]
                 for k in range(at.weight_len))


# The weight space by hand, per family: what ``rcbij.cartan`` reads off the
# gbar simple roots.


def weight_len_by_family(at: AffineType) -> int:
    """n+1 coordinates for type A, n otherwise."""
    return at.n + 1 if at.family == "A1" else at.n


def is_dominant_by_family(at: AffineType, lam) -> bool:
    """Dominance by three rules: type A, D1, and B/C-shaped the rest."""
    n = at.n
    if at.family == "A1":
        return all(lam[a] >= lam[a + 1] for a in range(n))
    head = all(lam[a] >= lam[a + 1] for a in range(n - 1))
    if at.family == "D1":
        return head and lam[n - 2] + lam[n - 1] >= 0
    return head and lam[n - 1] >= 0


def dominant_weights_by_family(at: AffineType, L: int):
    """Non-increasing weights with entries in [0, L], the last one in
    [-hi, hi] for D1; for A1, only those of size L.  Sorted."""
    n = weight_len_by_family(at)
    out = []

    def rec(acc):
        hi = acc[-1] if acc else L
        if len(acc) == n - 1:
            lo = -hi if at.family == "D1" else 0
            out.extend(tuple(acc) + (v,) for v in range(lo, hi + 1))
            return
        for v in range(hi, -1, -1):
            rec(acc + [v])

    rec([])
    if at.family == "A1":
        out = [lam for lam in out if sum(lam) == L]
    return sorted(out)


def iota_image_by_fractions(at: AffineType, lam, L: int):
    """The coordinates of L*eps_1 - lam in g0bar's simple roots, in
    Fractions: partial sums, halved at C's last root and D's fork.  For
    type A it ignores whether lam has size L."""
    n = at.n
    v = [Fraction(-x) for x in lam]
    v[0] += L
    partial = [sum(v[:k]) for k in range(1, n + 1)]
    kind = G0BAR[at.family]
    if kind == "C":
        return tuple(partial[:-1] + [partial[-1] / 2])
    if kind == "D":
        s = partial[n - 2]
        return tuple(partial[: n - 2] + [(s - v[n - 1]) / 2,
                                         (s + v[n - 1]) / 2])
    return tuple(partial)


def normalized_sizes_by_family(at: AffineType, lam, L: int):
    """The column sums when they are nonnegative integers, else None; a
    type A weight has them only when it has size L."""
    if at.family == "A1" and sum(lam) != L:
        return None
    c = iota_image_by_fractions(at, lam, L)
    if any(x.denominator != 1 or x < 0 for x in c):
        return None
    return tuple(int(x) for x in c)


def rest_weight_rule(at: AffineType, lam, b):
    """lam - wt(b) where it is dominant and, for the zero letter, lam_n > 0;
    else None.  Computed afresh on every call."""
    rho = tuple(x - y for x, y in zip(lam, wt_letter(at, b)))
    if not is_dominant(at, rho) or (b == 0 and lam[at.n - 1] <= 0):
        return None
    return rho


def is_admissible_config(at: AffineType, L: int, nu) -> bool:
    """Every occupied length has room for a rigging, by the pass's check.

    Checking occupied lengths only is equivalent to checking every index.
    """
    rows = _vacancy_table(at)[1]
    return all(_node_groups(at, L, nu, a, rows[a - 1]) is not None
               for a in range(1, at.n + 1))


def enumerate_configs(at: AffineType, lam, L: int):
    """All admissible lam-configurations (configuration parts only)."""
    return [nu for nu, _groups in _admissible(at, lam, L)]


def cc2_config_by_form(at: AffineType, nu) -> int:
    """Doubled configuration statistic, the quadratic form's double sum.

    With C the matrix of _vacancy_table, the doubled cc is
    -1/2 sum_a t^vee_a sum_b C[a][b] sum_{x in nu^(a), y in nu^(b)} min(x, y).
    """
    t_vee = kac_data(at).t_vee
    _up2, rows = _vacancy_table(at)
    total = 0
    for a, row in enumerate(rows):
        for b, c in row:
            area = sum(x if x < y else y for x in nu[a] for y in nu[b])
            total += t_vee[a] * c * area
    if total % 2:
        raise ValueError("%s: the form gives an odd doubled cc" % at)
    return -total // 2


def cc2_total_by_form(at: AffineType, rc) -> int:
    """Doubled cc statistic: configuration part plus weighted rigging area."""
    t_vee = kac_data(at).t_vee
    return cc2_config_by_form(at, config_of(rc)) + sum(
        tv * rg for tv, node in zip(t_vee, rc) for _ln, rg in node)


def fermionic_by_products(at: AffineType, lam, L: int) -> QPoly:
    """The fermionic sum as a sum of QPoly products, term by term.

    Each admissible configuration gives q^cc, cc by the form's double sum,
    times one ``qbinom`` per occupied length, shifted by the start of its
    box.
    """
    t_vee = kac_data(at).t_vee
    total = QPoly()
    for nu, groups in _admissible(at, lam, L):
        term = QPoly({cc2_config_by_form(at, nu): 1})
        for a, _i2, m, _p2, bx in groups:
            tv = t_vee[a - 1]
            term = term * QPoly({tv * m * bx.start: 1})
            term = term * qbinom(len(bx) - 1, m, tv)
        total = total + term
    return total


def vacancy2_by_family(at: AffineType, L: int, nu, a: int, i2: int) -> int:
    """Doubled vacancy number from the hand-written per-family formulas."""
    n = at.n
    up2 = kac_data(at).up2
    if i2 <= 0 or i2 % up2[a - 1] != 0:
        raise ValueError("index %d not on the node-%d lattice" % (i2, a))

    def Q(b):
        return sum(min(x, i2) for x in nu[b - 1]) if 1 <= b <= n else 0

    fam = at.family
    base = 2 * L if a == 1 else 0
    if fam == "A1":
        return base + Q(a - 1) - 2 * Q(a) + Q(a + 1)
    if fam == "D1":
        if a <= n - 3:
            return base + Q(a - 1) - 2 * Q(a) + Q(a + 1)
        if a == n - 2:
            return base + Q(n - 3) - 2 * Q(n - 2) + Q(n - 1) + Q(n)
        return base + Q(n - 2) - 2 * Q(a)
    if fam == "B1":
        if a <= n - 2:
            return base + Q(a - 1) - 2 * Q(a) + Q(a + 1)
        if a == n - 1:
            return base + Q(n - 2) - 2 * Q(n - 1) + 2 * Q(n)
        return base + 2 * Q(n - 1) - 4 * Q(n)
    if fam in ("C1", "A2", "A2dag"):
        if a < n:
            return base + Q(a - 1) - 2 * Q(a) + Q(a + 1)
        return base + Q(n - 1) - Q(n)
    if fam == "A2odd":
        if a <= n - 2:
            return base + Q(a - 1) - 2 * Q(a) + Q(a + 1)
        if a == n - 1:
            return base + Q(n - 2) - 2 * Q(n - 1) + 2 * Q(n)
        return base + Q(n - 1) - 2 * Q(n)
    if fam == "D2":
        if a < n:
            return base + Q(a - 1) - 2 * Q(a) + Q(a + 1)
        return base + 2 * Q(n - 1) - 2 * Q(n)
    raise ValueError(fam)


def vacancy2_general(at: AffineType, L: int, nu, a: int, i2: int):
    """The general vacancy formula, doubled, in exact Fractions.

    p_i^(a) = sum_k L_k^(a) min(i,k)
              - (1/t_a^vee) sum_b (a~_a|a~_b) min(t_b i, t_a k) m_k^(b)
    in normalized indices, returned as a Fraction of the doubled value.
    """
    kd = kac_data(at)
    form2 = form2_matrix(at)
    n = at.n
    i_norm = Fraction(i2, kd.up2[a - 1])
    total = Fraction(L) * min(i_norm, 1) if a == 1 else Fraction(0)
    acc = Fraction(0)
    for b in range(1, n + 1):
        fb = form2[a - 1][b - 1]
        if fb == 0:
            continue
        tb, ta = kd.t_lat[b - 1], kd.t_lat[a - 1]
        for x2 in nu[b - 1]:
            k_norm = Fraction(x2, kd.up2[b - 1])
            acc += Fraction(fb, 2) * min(tb * i_norm, ta * k_norm)
    total -= acc / kd.t_vee[a - 1]
    return 2 * total


def is_admissible_config_full(at: AffineType, L: int, nu) -> bool:
    """Admissibility checked on every lattice index up to the longest string.

    For A2dag an occupied odd length at the last node needs vacancy >= 1,
    so that its half-odd riggings have room.
    """
    n = at.n
    up2 = kac_data(at).up2
    for a in range(1, n + 1):
        top = max(nu[a - 1], default=0) + up2[a - 1]
        for i2 in range(up2[a - 1], top + 1, up2[a - 1]):
            if vacancy2(at, L, nu, a, i2) < 0:
                return False
            if (
                at.family == "A2dag"
                and a == n
                and (i2 // 2) % 2 == 1
                and i2 in nu[a - 1]
                and vacancy2(at, L, nu, a, i2) < 2
            ):
                return False
    return True


def delta_preimages(at: AffineType, lam, L: int):
    """Every configuration of the cell grouped by its delta image.

    Runs delta once over the whole cell; maps each (letter, smaller rc)
    to the configurations giving it, in enumeration order.
    """
    groups = {}
    for rc in enumerate_rc(at, lam, L):
        groups.setdefault(delta(at, lam, L, rc)[:2], []).append(rc)
    return groups


def _config_with(nodes, grown):
    """Configuration of nodes (lists of pairs) plus the (a, len2) in grown."""
    return tuple(
        tuple(sorted([ln for ln, _ in node] + [g for b, g in grown if b == a],
                     reverse=True))
        for a, node in enumerate(nodes, 1)
    )


def _letter_budget_moves(node_pairs, budget, up2):
    """All ways to lengthen strings of one node by `budget` lattice steps.

    Yields lists of (pair_or_None, new_len2); None means a new string.
    """
    if budget == 0:
        yield []
        return
    choices = sorted(set(node_pairs), reverse=True)
    if budget == 1:
        for p in choices:
            yield [(p, p[0] + up2)]
        yield [(None, up2)]
        return
    if budget == 2:
        for p in choices:
            yield [(p, p[0] + 2 * up2)]
        yield [(None, 2 * up2)]
        for i, p in enumerate(choices):
            for q in choices[i:]:
                if p == q and node_pairs.count(p) < 2:
                    continue
                yield [(p, p[0] + up2), (q, q[0] + up2)]
        yield from ([(p, p[0] + up2), (None, up2)] for p in choices)
        yield [(None, up2), (None, up2)]
        return
    raise ValueError("budget out of range: %d" % budget)


def _old_rig_values(at, a, len2, p2):
    """Possible riggings of a string about to be selected by delta.

    That is the top of its box, or for B1 and D2 at the last node, where
    delta also selects quasi-singular strings, the top two values.
    """
    top = box(at, a, len2, p2)[::-1]
    return list(top[:2] if at.family in ("B1", "D2") and a == at.n else top[:1])


def delta_inverse_search(at: AffineType, b, rho, L_small: int, rc_small):
    """Search the reverse moves and filter the candidates by delta.

    Per node the number of lattice steps to add is pinned by the size
    constraints, the lengthened strings must carry a rigging delta is
    allowed to select, and the forward map filters the handful of
    candidates.
    """
    lam = tuple(x + y for x, y in zip(rho, wt_letter(at, b)))
    L = L_small + 1
    n = at.n
    if not is_dominant(at, lam):
        raise NoPreimage("letter not appendable: weight not dominant")
    if b == 0 and at.family != "A1" and lam[n - 1] <= 0:
        raise NoPreimage("zero letter needs lambda_n > 0")
    c_big = normalized_sizes(at, lam, L)
    c_small = normalized_sizes(at, rho, L_small)
    if c_big is None or c_small is None:
        raise NoPreimage("size constraints unsolvable")
    budgets = [x - y for x, y in zip(c_big, c_small)]
    if any(x < 0 or x > 2 for x in budgets):
        raise NoPreimage("impossible box budget %r" % (budgets,))
    kd = kac_data(at)
    per_node = [
        list(_letter_budget_moves(list(rc_small[a]), budgets[a], kd.up2[a]))
        for a in range(n)
    ]
    matches = []
    seen = set()
    for combo in product(*per_node):
        nodes = [list(rc_small[a]) for a in range(n)]
        grown = []  # (a, new_len2)
        for a in range(n):
            for pair, new_len2 in combo[a]:
                if pair is not None:
                    nodes[a].remove(pair)
                grown.append((a + 1, new_len2))
        ok = True
        nu_cand = _config_with(nodes, grown)
        rig_options = []
        for a, new_len2 in grown:
            try:
                p2 = vacancy2(at, L, nu_cand, a, new_len2)
            except ValueError:
                ok = False
                break
            vals = _old_rig_values(at, a, new_len2, p2)
            if not vals:
                ok = False
                break
            rig_options.append(vals)
        if not ok:
            continue
        for rig_pick in product(*rig_options):
            cand_nodes = [list(nodes[a]) for a in range(n)]
            for (a, new_len2), rig in zip(grown, rig_pick):
                cand_nodes[a - 1].append((new_len2, rig))
            cand = tuple(
                tuple(sorted(node, reverse=True)) for node in cand_nodes
            )
            if cand in seen:
                continue
            seen.add(cand)
            try:
                validate_rc(at, lam, L, cand)
            except InvalidRC:
                continue
            bb, out, _tr = delta(at, lam, L, cand)
            if bb == b and out == rc_small:
                matches.append(cand)
    if len(matches) != 1:
        raise NoPreimage(
            "expected exactly one preimage, found %d" % len(matches)
        )
    return matches[0]


def eps_letter(at: AffineType, i: int, b) -> int:
    """eps_i of one letter, off the crystal's table."""
    return _eps_phi(at)[0][i][b]


def arrows_dense(at: AffineType):
    """``rcbij.crystal.arrows`` by trying every letter at every node: the
    weight of each letter plus the node's step, looked up among the
    weights of all letters on the node's strings."""
    steps = [theta0(at)] + [
        tuple(-x for x in r) for r in simple_root_vectors(at)
    ]
    bs = letters(at)
    f, e = {}, {}
    for i, step in enumerate(steps):
        off = EMPTY if i else (0 if EMPTY in bs else None)  # on no i-string
        on = {wt_letter(at, b): b for b in bs if b != off}
        f[i] = {}
        for w, b in on.items():
            v = on.get(tuple(x + y for x, y in zip(w, step)))
            if v is not None:
                f[i][b] = v
        e[i] = {v: k for k, v in f[i].items()}
    return f, e


def pair_e(at: AffineType, i: int, pair):
    """e_i on a two-factor tensor; returns (new_pair, side) or None."""
    x, y = pair
    e = arrows(at)[1][i]
    if eps_letter(at, i, x) > phi_letter(at, i, y):
        return (e[x], y), "left"
    ny = e.get(y)
    return ((x, ny), "right") if ny is not None else None


def local_hbar_by_probe(at: AffineType):
    """The barred local energy by trying every e_i on every pair of
    B (x) B, then propagating from 1 (x) 1: +1 where e_0 moves the left
    factor, -1 where it moves the right one.  Raises ValueError where the
    increments conflict or miss a pair."""
    B = letters(at)
    edges = {}
    for p in product(B, repeat=2):
        for i in range(at.n + 1):
            r = pair_e(at, i, p)
            if r is not None:
                q, side = r
                d = 0 if i else (1 if side == "left" else -1)
                edges.setdefault(p, []).append((q, d))
                edges.setdefault(q, []).append((p, -d))
    h, todo = {(1, 1): 0}, [(1, 1)]  # depth first, unlike local_hbar
    while todo:
        p = todo.pop()
        for q, d in edges.get(p, ()):
            if q not in h:
                h[q] = h[p] + d
                todo.append(q)
            elif h[q] != h[p] + d:
                raise ValueError("conflicting energy at %r" % (q,))
    if len(h) != len(B) ** 2:
        raise ValueError("reached %d of %d pairs" % (len(h), len(B) ** 2))
    return h


def _suffix_phi(at: AffineType, i: int, word):
    """phi_i of every suffix word[j:] by the two-factor rule; 0 past the end."""
    suff = [0] * (len(word) + 1)
    for j in range(len(word) - 1, -1, -1):
        eb, pb = eps_letter(at, i, word[j]), phi_letter(at, i, word[j])
        suff[j] = pb + max(0, suff[j + 1] - eb)
    return suff


def tensor_e(at: AffineType, i: int, word):
    """e_i on a word, or None; the two-factor rule applied right-nested.

    e_i acts on the leftmost factor whose eps_i exceeds phi_i of the
    factors to its right; when there is none, e_i kills the word.
    """
    word = tuple(word)
    e = arrows(at)[1][i]
    suff_phi = _suffix_phi(at, i, word)
    for j, b in enumerate(word):
        if eps_letter(at, i, b) > suff_phi[j + 1]:
            return word[:j] + (e[b],) + word[j + 1:]
    return None


def tensor_f(at: AffineType, i: int, word):
    """f_i on a word, or None.

    f_i acts on the leftmost factor whose eps_i is at least phi_i of the
    factors to its right, so on the last factor at the latest, and kills
    the word when no i-arrow leaves that factor.
    """
    word = tuple(word)
    f = arrows(at)[0][i]
    suff_phi = _suffix_phi(at, i, word)
    for j, b in enumerate(word):
        if eps_letter(at, i, b) >= suff_phi[j + 1]:
            nb = f.get(b)
            return None if nb is None else word[:j] + (nb,) + word[j + 1:]
    return None  # the empty word


def is_classically_highest(at: AffineType, word) -> bool:
    """True iff e_i kills the word for every classical node i."""
    return all(tensor_e(at, i, word) is None for i in range(1, at.n + 1))


def enumerate_highest_bruteforce(at: AffineType, lam, L: int):
    """Filter every word by weight and the highest-weight condition."""
    lam = tuple(lam)
    out = []
    for word in product(letters(at), repeat=L):
        if wt_path(at, word) != lam:
            continue
        if is_classically_highest(at, word):
            out.append(word)
    return tuple(sorted(out))


def eps_phi_word(at: AffineType, i: int, word):
    """(eps_i, phi_i) of a tensor word, by the two-factor composition rule."""
    ev, pv = 0, 0
    for b in reversed(word):  # fold right to left: x tensor (rest)
        eb, pb = eps_letter(at, i, b), phi_letter(at, i, b)
        ev, pv = ev + max(0, eb - pv), pb + max(0, pv - eb)
    return ev, pv


def zero_step_vector(at: AffineType) -> tuple:
    """The constant classical weight change along every 0-arrow."""
    f, _ = arrows(at)
    steps = {
        tuple(x - y for x, y in zip(wt_letter(at, v), wt_letter(at, b)))
        for b, v in f[0].items()
    }
    if len(steps) != 1:
        raise ValueError("0-arrows do not share a weight step")
    return next(iter(steps))


def classical_weight_steps_ok(at: AffineType) -> bool:
    """Check wt(f_i(b)) = wt(b) - alpha_i for every classical arrow."""
    f, _ = arrows(at)
    roots = simple_root_vectors(at)
    for i in range(1, at.n + 1):
        alpha = roots[i - 1]
        for b, v in f[i].items():
            d = tuple(x - y for x, y in zip(wt_letter(at, b), wt_letter(at, v)))
            if d != alpha:
                return False
    return True


def ell_at(trace: DeltaTrace, a: int) -> int:
    """ell at node a with the scan conventions: 0 at node 0, INF past n."""
    if a == 0:
        return 0
    return trace.ell[a - 1] if 1 <= a <= len(trace.ell) else INF


def ellbar_at(trace: DeltaTrace, a: int) -> int:
    """ellbar at node a; INF outside the nodes 1..n."""
    return trace.ellbar[a - 1] if 1 <= a <= len(trace.ellbar) else INF


def _chi(x2, i2):
    return 1 if x2 <= i2 else 0


def vacancy_change2(at: AffineType, trace: DeltaTrace, a: int, i2: int) -> int:
    """Doubled predicted change (new minus old) of the vacancy at (a, i2)."""
    n = at.n
    fam = at.family
    el = partial(ell_at, trace)
    eb = partial(ellbar_at, trace)

    def std():
        return (
            -_chi(el(a - 1), i2)
            + 2 * _chi(el(a), i2)
            - _chi(el(a + 1), i2)
            - _chi(eb(a - 1), i2)
            + 2 * _chi(eb(a), i2)
            - _chi(eb(a + 1), i2)
        )

    if fam == "A1":
        return 2 * (
            -_chi(el(a - 1), i2) + 2 * _chi(el(a), i2) - _chi(el(a + 1), i2)
        )
    if fam == "D1":
        if a <= n - 3:
            return 2 * std()
        if a == n - 2:
            return 2 * (
                -_chi(el(n - 3), i2)
                + 2 * _chi(el(n - 2), i2)
                - _chi(el(n - 1), i2)
                - _chi(eb(n - 3), i2)
                + 2 * _chi(eb(n - 2), i2)
                - _chi(el(n), i2)
            )
        return 2 * (
            -_chi(el(n - 2), i2) - _chi(eb(n - 2), i2) + 2 * _chi(el(a), i2)
        )
    if fam == "B1":
        if a <= n - 1:
            return 2 * std()
        ln1, lb1 = el(n - 1), eb(n - 1)
        return 2 * (
            -_chi(ln1 - 1, i2)
            - _chi(ln1, i2)
            + 2 * _chi(el(n), i2)
            - _chi(lb1 - 1, i2)
            - _chi(lb1, i2)
            + 2 * _chi(eb(n), i2)
        )
    if fam in ("C1", "A2", "A2dag"):
        if a <= n - 1:
            return 2 * std()
        return 2 * (
            -_chi(el(n - 1), i2)
            - _chi(eb(n - 1), i2)
            + _chi(el(n), i2)
            + _chi(eb(n), i2)
        )
    if fam == "A2odd":
        if a <= n - 1:
            return 2 * std()
        return 2 * (
            -_chi(el(n - 1), i2) + 2 * _chi(el(n), i2) - _chi(eb(n - 1), i2)
        )
    if fam == "D2":
        if a <= n - 1:
            return 2 * std()
        return 2 * (
            -2 * _chi(el(n - 1), i2)
            + 2 * _chi(el(n), i2)
            - 2 * _chi(eb(n - 1), i2)
            + 2 * _chi(eb(n), i2)
        )
    raise ValueError(fam)


def verify_delta_identities(at: AffineType, lam, L: int, rc) -> dict:
    """Check the statistic and vacancy identities across one primed step.

    The primed step is complement, delta, complement.  Returns a report
    dict with one boolean per identity plus the observed values; the
    caller decides whether to raise.
    """
    n = at.n
    fam = at.family
    kd = kac_data(at)
    lam = tuple(lam)
    if L == 0:
        return {"ok": True, "rank": None}
    crc = complement(at, L, rc)
    b, crc2, trace = delta(at, lam, L, crc)
    rho = rest_weight(at, lam, b)
    rc2 = complement(at, L - 1, crc2)
    report: dict = {"ok": True, "rank": b}

    def check(name, cond, info=None):
        report[name] = bool(cond)
        if info is not None:
            report[name + ".info"] = info
        if not cond:
            report["ok"] = False

    dcc2 = cc2_total_by_form(at, rc) - cc2_total_by_form(at, rc2)
    alpha1 = len(rc[0])
    phiflag = 1 if b == EMPTY else 0
    if fam in ("A2", "D2"):
        expected2 = 2 * (2 * alpha1 - phiflag)
    else:
        expected2 = 2 * alpha1
    check("delta_cc", dcc2 == expected2, (dcc2, expected2))
    if fam != "A2dag":
        # a_0^vee is 1 away from A2dag, so this stays integral
        gen2 = 2 * kd.t_vee[0] * alpha1 - 2 * phiflag
        check("delta_cc_generic", dcc2 == gen2, (dcc2, gen2))

    # vacancy-change identity on the delta step crc -> crc2
    nu, nu2 = config_of(crc), config_of(crc2)
    ok_cv = True
    bad = None
    for a in range(1, n + 1):
        top = max(
            max(nu[a - 1], default=0), max(nu2[a - 1], default=0)
        ) + 2 * kd.up2[a - 1]
        for i2 in range(kd.up2[a - 1], top + 1, kd.up2[a - 1]):
            lhs = vacancy2(at, L - 1, nu2, a, i2)
            rhs = vacancy2(at, L, nu, a, i2) + vacancy_change2(at, trace, a, i2)
            if lhs != rhs:
                ok_cv = False
                bad = (a, i2, lhs, rhs)
                break
        if not ok_cv:
            break
    check("vacancy_change", ok_cv, bad)

    if L >= 2:
        b2, _crc3, _tr2 = delta(at, rho, L - 1, crc2)
        h2 = local_hbar(at)[(b, b2)]
        phiflag2 = 1 if b2 == EMPTY else 0
        alpha1t = len(rc2[0])
        ell1 = 1 if ell_at(trace, 1) == 2 else 0
        ellbar1 = 1 if ellbar_at(trace, 1) == 2 else 0
        if fam == "A1":
            # plain column-count difference; no shortcut form exists here
            pred = alpha1 - alpha1t
        elif fam in ("D1", "B1", "A2odd"):
            pred = ell1 + ellbar1
        elif fam in ("C1", "A2dag"):
            pred = ell1
        else:  # A2, D2
            pred = 2 * ell1 - phiflag + phiflag2
        check("hbar_steps", h2 == pred, (h2, pred, b, b2))
        if fam != "A2dag":
            genh = kd.t_vee[0] * (alpha1 - alpha1t) - phiflag + phiflag2
            check("hbar_generic", h2 == genh, (h2, genh))
    return report
