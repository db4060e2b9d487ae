"""The box-removal map, its inverse, and the recursive bijection.

delta extracts one letter from a rigged configuration by the per-family
scan over singular strings, shortening the selected strings and resetting
their riggings.  Iterating it gives the bijection onto classically
restricted paths; composing with rigging complementation gives the
statistic-preserving variant.

delta_inverse adds the boxes back: the same scans run in reverse over the
smaller configuration, with the same case flags, choose the strings to
lengthen, and one forward delta on the result checks it.

Traces record the selected lengths (doubled, INF when undefined) and the
case flags, which is what the change-of-vacancy and change-of-statistic
identities are stated in terms of.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import AffineType, is_dominant, kac_data
from .crystal import EMPTY, letters, rest_weight, wt_letter
from .energy import local_hbar
from .rc import (
    INF,
    Config,
    InvalidRC,
    cc2_total,
    complement,
    config_of,
    validate_rc,
    vacancy2,
)


class NoPreimage(ValueError):
    """delta_inverse found no (or not exactly one) matching configuration."""


@dataclass(frozen=True)
class DeltaTrace:
    """Selected string lengths and case flags of one box-removal step.

    ell and ellbar are tuples indexed by node-1 holding doubled lengths,
    INF where undefined.  cases holds one of '', 'S', 'Q', 'QS', 'P' per
    node.  rank is the extracted letter.
    """

    ell: tuple
    ellbar: tuple
    cases: tuple
    rank: object

    def ell_at(self, a: int) -> int:
        """ell at node a with the scan conventions: node 0 is 0."""
        if a == 0:
            return 0
        if 1 <= a <= len(self.ell):
            return self.ell[a - 1]
        return INF

    def ellbar_at(self, a: int) -> int:
        if 1 <= a <= len(self.ellbar):
            return self.ellbar[a - 1]
        return INF


def delta(at: AffineType, lam, L: int, rc):
    """One box-removal step: returns (letter, smaller rc, trace)."""
    if L < 1:
        raise ValueError("delta needs L >= 1")
    n = at.n
    fam = at.family
    cf = Config(at, L, rc)
    ell: dict[int, int] = {}
    ellbar: dict[int, int] = {}
    cases: dict[int, str] = {}
    # removals: (node, len2, old rigging's offset below the vacancy or None
    # for the largest rigging of that length, shrink2, new rigging's offset)
    removals: list = []
    b = None

    def min_sing(a, lo, need_two_at=None):
        """Minimal occupied length >= lo with a singular string.

        When the candidate equals need_two_at, two singular strings are
        required there (the forward scan already claimed one).
        """
        for i2 in sorted(cf.by[a - 1]):
            if i2 < lo:
                continue
            cnt = cf.count(a, i2)
            if cnt >= 2 or (cnt == 1 and i2 != need_two_at):
                return i2
        return None

    def fwd(last_node):
        nonlocal b
        prev = 0
        for a in range(1, last_node + 1):
            i2 = min_sing(a, prev)
            if i2 is None:
                b = a
                return False
            ell[a] = i2
            prev = i2
        return True

    def ret(first_node, prevbar, merge):
        """The return scan from first_node down, bounded below by prevbar.

        With merge (the C shape), a length the forward scan selected that
        equals the bound is taken by both scans, merged into one double
        shortening (case S); without it (D, B, A2odd) such a length needs
        a second singular string.
        """
        nonlocal b
        for a in range(first_node, 0, -1):
            if merge and ell.get(a) == prevbar:
                cases[a] = "S"
                ellbar[a], ell[a] = prevbar, prevbar - 2
                continue
            i2 = min_sing(a, prevbar, None if merge else ell.get(a))
            if i2 is None:
                b = -(a + 1)
                return
            ellbar[a] = prevbar = i2
        b = -1

    # Each block scans and appends the removals at its last node or fork
    # that the standard rule below does not describe.
    if fam == "A1":
        if fwd(n):
            b = n + 1

    elif fam == "D1":
        if fwd(n - 2):
            prev = ell.get(n - 2, 0)
            i2 = min_sing(n - 1, prev)
            j2 = min_sing(n, prev)
            if i2 is None and j2 is None:
                b = n - 1
            elif i2 is not None and j2 is None:
                ell[n - 1] = i2
                b = n
            elif j2 is not None and i2 is None:
                ell[n] = j2
                b = -n
            else:
                ell[n - 1], ell[n] = i2, j2
                ret(n - 2, max(i2, j2), False)

    elif fam == "B1":
        if fwd(n - 1):
            prev = ell.get(n - 1, 0)
            lo = max(prev - 1, 1)
            found = kind = None
            for i2 in sorted(cf.by[n - 1]):
                if i2 < lo:
                    continue
                if i2 == prev - 1:
                    if cf.count(n, i2):
                        found, kind = i2, "Q"
                        break
                    continue
                if cf.count(n, i2):
                    found, kind = i2, "S"
                    break
                if cf.count(n, i2, 2):
                    found, kind = i2, "Q"
                    break
            if found is None:
                b = n
            elif kind == "S":
                ellbar[n], ell[n] = found, found - 1
                cases[n] = "S"
                removals.append((n, found, 0, 2, 0))
                ret(n - 1, found, False)
            else:
                ell[n] = found
                removals.append((n, found, None, 1, 0))
                j2 = None
                for c2 in sorted(cf.by[n - 1]):
                    if c2 > found and c2 >= prev and cf.count(n, c2):
                        j2 = c2
                        break
                if j2 is None:
                    b = 0
                    cases[n] = "Q"
                else:
                    ellbar[n] = j2
                    cases[n] = "QS"
                    ret(n - 1, j2, False)
                    # the second string's new rigging is singular exactly
                    # when the return scan selected its length at node n-1
                    new_off = 0 if j2 == ellbar.get(n - 1) else 2
                    removals.append((n, j2, None, 1, new_off))

    elif fam in ("C1", "A2"):
        if fwd(n):
            if fam == "A2" and ell[n] == 2:
                b = EMPTY
                cases[n] = "P"
            else:
                # two columns come off the selected string
                cases[n] = "S"
                ellbar[n] = ell[n]
                ell[n] = ellbar[n] - 2
                ret(n - 1, ellbar[n], True)

    elif fam == "A2odd":
        if fwd(n):
            # one string, selected by both scans, loses one column
            ellbar[n] = ell[n]
            removals.append((n, ell[n], 0, 2, 0))
            ret(n - 1, ellbar[n], False)

    elif fam in ("D2", "A2dag"):
        if fwd(n - 1):
            prev = ell.get(n - 1, 0)
            found = kind = None
            for i2 in sorted(cf.by[n - 1]):
                if i2 < prev:
                    continue
                if fam == "D2":
                    if cf.count(n, i2):
                        found, kind = i2, ("P" if i2 == 2 else "S")
                        break
                    if cf.count(n, i2, 2):
                        found, kind, off = i2, "Q", 2
                        break
                else:
                    # A2dag: a rigging at the top of its box is singular
                    # on an integer string and quasi on a half-odd one
                    bx = cf.box(n, i2)
                    if bx and cf.count(n, i2, cf.vac(n, i2) - bx[-1]):
                        found, off = i2, cf.vac(n, i2) - bx[-1]
                        kind = "Q" if off else "S"
                        break
            if found is None:
                b = n
            elif kind == "P":
                ell[n] = found
                cases[n] = "P"
                b = EMPTY
            elif kind == "S":
                ellbar[n], ell[n] = found, found - 2
                cases[n] = "S"
                ret(n - 1, found, True)
            else:  # Q
                ell[n] = found
                removals.append((n, found, off, 2, 0))
                # half-odd strings of A2dag carry odd riggings and even
                # vacancies, so they are never singular here
                j2 = None
                for c2 in sorted(cf.by[n - 1]):
                    if c2 > found and cf.count(n, c2):
                        j2 = c2
                        break
                if j2 is None:
                    b = 0
                    cases[n] = "Q"
                else:
                    ellbar[n] = j2
                    cases[n] = "QS"
                    removals.append((n, j2, 0, 2, off))
                    ret(n - 1, j2, True)

    else:
        raise ValueError(fam)

    # The standard rule at every other node: a selected string loses one
    # column, or two under case S, where both scans selected the same
    # string (ell one column below ellbar); it becomes singular.
    own = {r[0] for r in removals}
    for a in range(1, n + 1):
        if a in own:
            continue
        if cases.get(a) == "S":
            removals.append((a, ellbar[a], 0, 4, 0))
            continue
        if a in ell:
            removals.append((a, ell[a], 0, 2, 0))
        if a in ellbar:
            removals.append((a, ellbar[a], 0, 2, 0))

    rho = rest_weight(at, lam, b)
    if rho is None:
        raise InvalidRC("letter %s cannot come off the weight %r" % (b, lam))

    rc2 = _move_strings(
        cf, L - 1, [(a, i2, o, i2 - d2, p) for a, i2, o, d2, p in removals]
    )
    validate_rc(at, rho, L - 1, rc2)
    trace = DeltaTrace(
        ell=tuple(ell.get(a, INF) for a in range(1, n + 1)),
        ellbar=tuple(ellbar.get(a, INF) for a in range(1, n + 1)),
        cases=tuple(cases.get(a, "") for a in range(1, n + 1)),
        rank=b,
    )
    return b, rc2, trace


def _move_strings(cf, L2, moves):
    """Replace strings of cf by strings with new riggings.

    A move is (node, len2 or 0 for no old string, the old rigging's offset
    below its vacancy in cf or None for the largest rigging of that
    length, new len2 or 0 for no new string, the new rigging's offset
    below the vacancy of the result at length L2).
    """
    nodes = [list(node) for node in cf.rc]
    for a, len2, old_off, _new_len2, _new_off in moves:
        if not len2:
            continue
        if old_off is None:
            rig = max(cf.by[a - 1][len2])
        else:
            rig = cf.vac(a, len2) - old_off
        nodes[a - 1].remove((len2, rig))
    grown = [(a, len2, off) for a, _len2, _old_off, len2, off in moves
             if len2 > 0]
    # the result's vacancies depend on its lengths only
    shape = Config(cf.at, L2, [
        node + [(len2, 0) for b, len2, _off in grown if b == a]
        for a, node in enumerate(nodes, 1)
    ])
    for a, len2, off in grown:
        nodes[a - 1].append((len2, shape.vac(a, len2) - off))
    return tuple(tuple(sorted(node, reverse=True)) for node in nodes)


def phi(at: AffineType, lam, L: int, rc):
    """The full bijection: iterate delta L times, collecting the letters."""
    word = []
    cur_lam, cur_rc = tuple(lam), rc
    for step in range(L, 0, -1):
        b, cur_rc, _tr = delta(at, cur_lam, step, cur_rc)
        word.append(b)
        cur_lam = rest_weight(at, cur_lam, b)
    if any(cur_lam):
        raise InvalidRC("letters do not exhaust the weight")
    return tuple(word)


def phi_tilde(at: AffineType, lam, L: int, rc):
    """The statistic-matching variant: complement the riggings first."""
    return phi(at, lam, L, complement(at, L, rc))


# Doubled offset below the vacancy of the rigging delta takes as
# quasi-singular at the last node: a whole unit for B1 and D2; for A2dag
# the top of a half-odd box, whose doubled vacancy is even.
_QUASI2 = {"B1": 2, "D2": 2, "A2dag": 1}


class _Fill:
    """Shared helpers for one delta_inverse run on the Config of rc_small.

    additions holds records shaped like delta's removals: (node, len2 in
    rc_small or 0 for a new string, its rigging's offset below the small
    vacancy, grow2, the new rigging's offset below the large vacancy).
    A string taken once is not free for a later choice at its node.
    """

    def __init__(self, cf):
        self.cf = cf
        self.additions = []

    def free(self, a, i2, off):
        """A string of length i2 at node a, off below its vacancy, untaken."""
        taken = sum(1 for r in self.additions if r[:3] == (a, i2, off))
        return self.cf.count(a, i2, off) > taken

    def longest(self, a, hi, off=0):
        """Longest len2 <= hi at node a with a free string off below, or 0."""
        for i2 in sorted(self.cf.by[a - 1], reverse=True):
            if i2 <= hi and self.free(a, i2, off):
                return i2
        return 0

    def chain(self, nodes, hi):
        """The standard rule backwards, node after node.

        Each node's longest singular string no longer than the last one
        taken (or a new string) gains a column and stays singular.
        """
        for a in nodes:
            hi = self.longest(a, hi)
            self.additions.append((a, hi, 0, 2, 0))
        return hi

    def merge_back(self, hi, outward):
        """The return half for case S at node n of C1, A2, D2 and A2dag.

        outward maps a node to the index of its record from the outward
        scan.  Where that string is as long as the bound, delta had merged
        both selections into it (case S), so it gains a second column.
        """
        for a in range(self.cf.at.n - 1, 0, -1):
            rec = self.additions[outward[a]] if a in outward else None
            if rec and rec[1] == hi:
                self.additions[outward[a]] = rec[:3] + (4,) + rec[4:]
            else:
                hi = self.chain((a,), hi)


def _last_node_quasi(fs, at, hi, outward):
    """Node n of B1, D2 and A2dag: case Q, QS or S, then the way back.

    hi is the bound the outward scan left, or None for the zero letter,
    where case Q stands alone.
    """
    n = at.n
    b1 = at.family == "B1"
    up = kac_data(at).up2[n - 1]  # one box: half a column for B1
    quasi = _QUASI2[at.family]
    s = fs.longest(n, INF if hi is None else hi)
    if hi is not None:
        if b1 and hi < INF and fs.free(n, hi + 1, 0):
            # QS where ellbar^(n) = ellbar^(n-1) left the second string
            # singular (the Qprime rigging)
            t, toff = hi + 1, 0
        else:
            t, toff = fs.longest(n, hi, quasi), quasi
        if t <= s:  # case S: the singular string gains two boxes
            fs.additions.append((n, s, 0, 2 * up, 0))
            if b1:
                fs.chain(range(n - 1, 0, -1), s)
            else:
                fs.merge_back(s, outward)
            return
        fs.additions.append((n, t, toff, up, 0))  # case QS: the second string
    # case Q: the singular string gains a box and was quasi-singular, except
    # for B1 one half box below ell^(n-1), where delta takes it singular
    below = range(n - 1, 0, -1)
    s1 = fs.chain(below[:1], s)
    fs.additions.append((n, s, 0, up, 0 if b1 and s1 == s else quasi))
    fs.chain(below[1:], s1)


def _reverse_scan(at, b, fs):
    """Fill fs.additions with the records that undo a delta step giving b.

    The letter tells where delta's scans stopped.  From there the scans
    run backwards: forward, each selected length bounds the next from
    below, so backwards each choice bounds the next from above.
    """
    n = at.n
    fam = at.family
    if b == EMPTY:  # case P: a singular string of length one at every node
        fs.chain(range(n, 0, -1), 0)
        return
    if b > 0:  # the forward scan stopped at node b
        fs.chain(range(b - 1, 0, -1), INF)
        return
    if b == 0:
        _last_node_quasi(fs, at, None, {})
        return
    # b = -k: the return scan stopped below node k; run it outwards first
    if fam == "D1" and b == -n:  # only node n of the fork was selected
        fs.chain((n,) + tuple(range(n - 2, 0, -1)), INF)
        return
    outward = {}
    hi = INF
    for a in range(-b, n - 1 if fam == "D1" else n):
        outward[a] = len(fs.additions)
        hi = fs.chain((a,), hi)
    if fam == "D1":  # both fork nodes, then below the shorter of the two
        fs.chain(range(n - 2, 0, -1),
                 min(fs.chain((n - 1,), hi), fs.chain((n,), hi)))
    elif fam == "A2odd":  # one string at node n, selected by both scans
        fs.chain(range(n, 0, -1), hi)
    elif fam in _QUASI2:
        _last_node_quasi(fs, at, hi, outward)
    else:  # C1, A2: case S at node n
        s = fs.longest(n, hi)
        fs.additions.append((n, s, 0, 4, 0))
        fs.merge_back(s, outward)


def delta_inverse(at: AffineType, b, rho, L_small: int, rc_small):
    """The unique rc with rank b mapping to rc_small; raises NoPreimage.

    The reverse scan runs delta's scans backwards: node by node it takes
    the longest singular string of rc_small within the bound the previous
    node set, or a new string, with delta's S, Q, QS and P cases mirrored,
    and lengthens the chosen strings.  The result must be a valid rigged
    configuration that delta maps back to (b, rc_small); otherwise there
    is no preimage.
    """
    if b not in letters(at):
        raise NoPreimage("%r is not a letter of %s" % (b, at))
    lam = tuple(x + y for x, y in zip(rho, wt_letter(at, b)))
    L = L_small + 1
    if not is_dominant(at, lam) or rest_weight(at, lam, b) is None:
        raise NoPreimage("letter %s cannot come off the weight %r" % (b, lam))
    fs = _Fill(Config(at, L_small, rc_small))
    _reverse_scan(at, b, fs)
    try:
        rc = _move_strings(fs.cf, L, [
            (a, i2, o, i2 + d2, p) for a, i2, o, d2, p in fs.additions
        ])
        validate_rc(at, lam, L, rc)
        image = delta(at, lam, L, rc)[:2]
    except InvalidRC as exc:
        raise NoPreimage("box addition gives no preimage: %s" % exc)
    if image != (b, rc_small):
        raise NoPreimage("box addition does not invert delta")
    return rc


def phi_inverse(at: AffineType, lam, L: int, word):
    """Right-to-left fold of delta_inverse; inverse of phi."""
    if len(word) != L:
        raise ValueError("word of length %d, expected %d" % (len(word), L))
    rc = tuple(tuple() for _ in range(at.n))
    rho = tuple([0] * at.weight_len)
    for j in range(L - 1, -1, -1):
        b = word[j]
        rc = delta_inverse(at, b, rho, L - 1 - j, rc)
        rho = tuple(x + y for x, y in zip(rho, wt_letter(at, b)))
    if rho != tuple(lam):
        raise NoPreimage("the word's weight is not %r" % (tuple(lam),))
    return rc


def phi_tilde_inverse(at: AffineType, lam, L: int, word):
    return complement(at, L, phi_inverse(at, lam, L, word))


def _chi(x2, i2):
    return 1 if x2 <= i2 else 0


def vacancy_change2(at: AffineType, trace: DeltaTrace, a: int, i2: int) -> int:
    """Doubled predicted change (new minus old) of the vacancy at (a, i2)."""
    n = at.n
    fam = at.family
    el = trace.ell_at
    eb = trace.ellbar_at

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

    dcc2 = cc2_total(at, rc) - cc2_total(at, rc2)
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
        ell1 = 1 if trace.ell_at(1) == 2 else 0
        ellbar1 = 1 if trace.ellbar_at(1) == 2 else 0
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
