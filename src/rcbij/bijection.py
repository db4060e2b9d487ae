"""The box-removal map, its inverse, and the recursive bijection.

delta extracts one letter from a rigged configuration by a scan over
singular strings out to node n and back, shortening the selected strings
and resetting their riggings.  The families differ only at the end of
the diagram: D1's fork, A2odd's single string, and the cases S, P, Q and
QS at node n of B1, C1, A2, D2 and A2dag, which one routine handles, with
the quasi-singular offsets of _QUASI2.  Iterating delta gives the
bijection onto classically restricted paths; composing with rigging
complementation gives the statistic-preserving variant.

delta_inverse adds the boxes back: the same scans run in reverse over the
smaller configuration, with the same case flags and one node-n routine,
choose the strings to lengthen.

Neither step re-checks its result; the callers that cannot vouch for it
do.  phi validates each smaller configuration delta gives it, and
phi_inverse validates each box addition and runs one delta on it to
confirm the image.  ``rcbij.verify`` validates a smaller configuration
only where its level table of certified ones lacks it, and compares each
box addition with the enumerated configuration it must give back.

Traces record the selected lengths (doubled, INF when undefined) and the
case flags, which is what the change-of-vacancy and change-of-statistic
identities are stated in terms of (tests/oracles.py checks them).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import AffineType, is_dominant
from .crystal import EMPTY, letters, rest_weight, wt_letter
from .rc import (
    INF,
    Config,
    InvalidRC,
    complement,
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


# Doubled offset below the vacancy of the rigging delta takes as
# quasi-singular at node n: a whole unit for B1 and D2; for A2dag the top
# of a half-odd box, whose doubled vacancy is even.  C1 and A2 have no
# case Q: their offset 0 is the singular string itself.
_QUASI2 = {"B1": 2, "D2": 2, "A2dag": 1}


def delta(at: AffineType, lam, L: int, rc):
    """One box-removal step: returns (letter, smaller rc, trace).

    Raises InvalidRC when the letter cannot come off lam.  The smaller
    configuration is not validated here: for a valid rc it is valid, and
    phi checks it on the way down.
    """
    if L < 1:
        raise ValueError("delta needs L >= 1")
    n = at.n
    fam = at.family
    cf = Config(at, L, rc)
    ell: dict[int, int] = {}
    ellbar: dict[int, int] = {}
    cases: dict[int, str] = {}
    # removals: (node, len2, old rigging's offset below the vacancy,
    # shrink2, new rigging's offset)
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

    def fwd(last):
        nonlocal b
        prev = 0
        for a in range(1, last + 1):
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

    def last_node():
        """Node n of B1, C1, A2, D2 and A2dag: case S, P, Q or QS.

        The shortest length from the bound up takes a singular string
        (case S, or P on a one-column string where the letter E exists) or
        one _QUASI2 below its vacancy (case Q, QS when a longer singular
        string exists).  For B1 the bound is half a column lower and a
        singular string there is taken as Q, the return scan does not
        merge, and the QS string can keep a singular rigging.
        """
        nonlocal b
        b1 = fam == "B1"
        col = 1 if b1 else 2  # doubled: a column, half a column for B1
        quasi = _QUASI2.get(fam, 0)
        prev = ell.get(n - 1, 0)
        for i2 in sorted(cf.by[n - 1]):
            if i2 < (prev - 1 if b1 else prev):
                continue
            if cf.count(n, i2):
                off = 0
                break
            if quasi and i2 >= prev and cf.count(n, i2, quasi):
                off = quasi
                break
        else:
            b = n
            return
        if not off and i2 >= prev:
            if i2 == col and EMPTY in letters(at):  # case P
                ell[n], cases[n], b = i2, "P", EMPTY
                return
            # case S: both scans take the string, two columns come off
            ellbar[n], ell[n], cases[n] = i2, i2 - col, "S"
            removals.append((n, i2, 0, 2 * col, 0))
            ret(n - 1, i2, not b1)
            return
        # case Q: the string loses a column and becomes singular
        ell[n] = i2
        removals.append((n, i2, off, col, 0))
        j2 = next((c2 for c2 in sorted(cf.by[n - 1])
                   if c2 > i2 and cf.count(n, c2)), None)
        if j2 is None:
            cases[n], b = "Q", 0
            return
        # case QS: a longer singular string loses a column too, and its
        # new rigging is quasi-singular, except for B1 when the return
        # scan took its length at node n-1 (the Qprime rigging)
        ellbar[n], cases[n] = j2, "QS"
        ret(n - 1, j2, not b1)
        qs_off = 0 if b1 and j2 == ellbar.get(n - 1) else quasi
        removals.append((n, j2, 0, col, qs_off))

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

    elif fam == "A2odd":
        if fwd(n):
            # one string, selected by both scans, loses one column
            ellbar[n] = ell[n]
            removals.append((n, ell[n], 0, 2, 0))
            ret(n - 1, ellbar[n], False)

    elif fwd(n - 1):  # B1, C1, A2, D2, A2dag
        last_node()

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
    below its vacancy in cf, new len2 or 0 for no new string, the new
    rigging's offset below the vacancy of the result at length L2).
    """
    nodes = [list(node) for node in cf.rc]
    for a, len2, off, _new_len2, _new_off in moves:
        if len2:
            nodes[a - 1].remove((len2, cf.vac(a, len2) - off))
    grown = [(a, len2, off) for a, _len2, _old_off, len2, off in moves
             if len2 > 0]
    # the result's vacancies depend on its lengths only
    nu = [[ln for ln, _rg in node] for node in nodes]
    for a, len2, _off in grown:
        nu[a - 1].append(len2)
    for a, len2, off in grown:
        nodes[a - 1].append((len2, vacancy2(cf.at, L2, nu, a, len2) - off))
    return tuple(tuple(sorted(node, reverse=True)) for node in nodes)


def phi(at: AffineType, lam, L: int, rc):
    """The full bijection: iterate delta L times, collecting the letters.

    rc itself is taken as valid; each smaller configuration delta steps
    to is validated, so a faulty step raises InvalidRC.
    """
    word = []
    cur_lam, cur_rc = tuple(lam), rc
    for step in range(L, 0, -1):
        b, cur_rc, _tr = delta(at, cur_lam, step, cur_rc)
        word.append(b)
        cur_lam = rest_weight(at, cur_lam, b)
        validate_rc(at, cur_lam, step - 1, cur_rc)
    if any(cur_lam):
        raise InvalidRC("letters do not exhaust the weight")
    return tuple(word)


def phi_tilde(at: AffineType, lam, L: int, rc):
    """The statistic-matching variant: complement the riggings first."""
    return phi(at, lam, L, complement(at, L, rc))


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


def _last_node(fs, at, hi, outward):
    """Node n of B1, C1, A2, D2 and A2dag: case S, Q or QS, then the way back.

    hi is the bound the outward scan left, or None for the zero letter,
    where case Q stands alone.
    """
    n = at.n
    b1 = at.family == "B1"
    col = 1 if b1 else 2  # doubled: a column, half a column for B1
    quasi = _QUASI2.get(at.family, 0)
    s = fs.longest(n, INF if hi is None else hi)
    if hi is not None:
        if b1 and hi < INF and fs.free(n, hi + 1, 0):
            # QS where ellbar^(n) = ellbar^(n-1) left the second string
            # singular (the Qprime rigging)
            t, toff = hi + 1, 0
        else:  # for C1 and A2 t is s
            t, toff = fs.longest(n, hi, quasi), quasi
        if t <= s:  # case S: the singular string gains two columns
            fs.additions.append((n, s, 0, 2 * col, 0))
            if b1:
                fs.chain(range(n - 1, 0, -1), s)
            else:
                fs.merge_back(s, outward)
            return
        fs.additions.append((n, t, toff, col, 0))  # case QS: the second string
    # case Q: the singular string gains a column and was quasi-singular,
    # except for B1 half a column below ell^(n-1), where delta takes it
    # singular
    below = range(n - 1, 0, -1)
    s1 = fs.chain(below[:1], s)
    fs.additions.append((n, s, 0, col, 0 if b1 and s1 == s else quasi))
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
        _last_node(fs, at, None, {})
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
    else:  # B1, C1, A2, D2, A2dag
        _last_node(fs, at, hi, outward)


def delta_inverse(at: AffineType, b, rho, L_small: int, rc_small):
    """The rc with rank b that delta maps to rc_small, by box addition.

    The reverse scan runs delta's scans backwards: node by node it takes
    the longest singular string of rc_small within the bound the previous
    node set, or a new string, with delta's S, Q, QS and P cases mirrored,
    and lengthens the chosen strings.  Raises NoPreimage when b is not a
    letter or cannot come off the larger weight.  The result is not
    checked: when (b, rc_small) is no image of delta it need not be valid
    or map back, which phi_inverse checks.
    """
    if b not in letters(at):
        raise NoPreimage("%r is not a letter of %s" % (b, at))
    lam = tuple(x + y for x, y in zip(rho, wt_letter(at, b)))
    if not is_dominant(at, lam) or rest_weight(at, lam, b) is None:
        raise NoPreimage("letter %s cannot come off the weight %r" % (b, lam))
    fs = _Fill(Config(at, L_small, rc_small))
    _reverse_scan(at, b, fs)
    return _move_strings(fs.cf, L_small + 1, [
        (a, i2, o, i2 + d2, p) for a, i2, o, d2, p in fs.additions
    ])


def phi_inverse(at: AffineType, lam, L: int, word):
    """Right-to-left fold of delta_inverse; inverse of phi.

    Each box addition must be a valid rigged configuration that one delta
    maps back to the letter and the configuration it grew from; otherwise
    the word is not a classically restricted path and NoPreimage is raised.
    """
    if len(word) != L:
        raise ValueError("word of length %d, expected %d" % (len(word), L))
    rc = tuple(tuple() for _ in range(at.n))
    rho = tuple([0] * at.weight_len)
    for j in range(L - 1, -1, -1):
        b = word[j]
        big = delta_inverse(at, b, rho, L - 1 - j, rc)
        rho = tuple(x + y for x, y in zip(rho, wt_letter(at, b)))
        try:
            validate_rc(at, rho, L - j, big)
            image = delta(at, rho, L - j, big)[:2]
        except InvalidRC as exc:
            raise NoPreimage("box addition gives no preimage: %s" % exc)
        if image != (b, rc):
            raise NoPreimage("box addition does not invert delta")
        rc = big
    if rho != tuple(lam):
        raise NoPreimage("the word's weight is not %r" % (tuple(lam),))
    return rc
