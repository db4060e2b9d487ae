"""The box-removal map, its inverse, and the recursive bijection.

delta extracts one letter from a rigged configuration by a scan over
singular strings out to node n and back, shortening the selected strings
and resetting their riggings; delta_inverse adds the boxes back.  The
diagrams differ only at their end: the tail of type A, the fork of nodes
n-1 and n, a single string at node n that both scans select, or the
cases S, P, Q and QS at node n.  Each end is one object, read off the
type's form, box widths and letters by ``_end``: its forward(sc, n) runs
delta's scans into the end and back, and its backward(fs, n, b) runs them
in reverse for each letter b that is not positive.  Both steps end in
``_move_strings``, which copies and sorts only the nodes a move touches:
a Config's rc is in normal form, so the result is too.  Iterating delta
gives the bijection onto classically restricted paths; composing with
rigging complementation gives the statistic-preserving variant.

Both steps read a ``Config`` and build only the result's rc.  The scan
of ``_delta`` yields the letter, which it takes off the weight
(``crystal.rest_weight``); ``_delta_inverse`` is given the letter and
only adds boxes.  The weight is the path's side: that b is a letter that
can come off rho + wt(b) is one rule, ``_grown_weight``.  Neither step
re-checks its result; phi and phi_inverse check each step they take.
phi_inverse adds the boxes one letter at a time from the right, so the
words of a type share their first steps: each step that passes its
checks is kept on the type (``at.grown``), keyed by the suffix of the
word it has added, and is taken and checked once per process.  phi removes
them from the left, and phi(rc) = b . phi(delta(rc)): each configuration
whose chain passed, a checked box addition too, is kept with the rest of
its word (``at.tails``), and phi stops at the first one it meets.  One
way only: phi_inverse reads no ``at.tails``, and phi, which adds no boxes,
writes no ``at.grown``, or verify's phi_inverse check would read back
what phi computed.  A memo is cleared at ``MEMO_CAP`` entries.  Only the public
delta builds a ``DeltaTrace``, off its ``_Scan``.  A trace records the
selected lengths (doubled, INF when undefined) and the case flags, in
which the change-of-vacancy and change-of-statistic identities are stated
(tests/oracles.py checks them).
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import AffineType, form2_matrix, is_dominant, kac_data, per_type
from .crystal import EMPTY, letters, rest_weight, wt_letter
from .rc import INF, Config, InvalidRC, box, vacancy2, validate_config

# A step memo on the type (at.grown, at.tails) that holds this many entries
# is cleared before the next goes in, so a process that maps many long
# words stays bounded; each keeps 681 on map, 124 on A2 n=2 up to L = 9.
MEMO_CAP = 8192


class NoPreimage(ValueError):
    """delta_inverse found no (or not exactly one) matching configuration."""


class DeltaTrace(namedtuple("DeltaTrace", "ell ellbar cases rank")):
    """Selected string lengths and case flags of one box-removal step.

    A named tuple (ell, ellbar, cases, rank).  ell and ellbar are tuples
    indexed by node-1 holding doubled lengths, INF where undefined.  cases
    holds one of '', 'S', 'Q', 'QS', 'P' per node.  rank is the extracted
    letter.
    """

    __slots__ = ()


class _Scan:
    """One delta run on the Config of rc: the lengths its scans selected,
    their cases, the letter b, the weight rho it leaves, and the moves of
    node n's own rule, which replaces the standard rule there."""

    __slots__ = ("cf", "ell", "ellbar", "cases", "moves", "b", "rho")

    def __init__(self, cf):
        self.cf = cf
        self.ell, self.ellbar, self.cases = {}, {}, {}
        self.moves, self.b = [], None

    def min_sing(self, a, lo, need_two_at=None):
        """Minimal occupied length >= lo with a singular string, or two
        where it is need_two_at (the forward scan claimed one there)."""
        by, p2 = self.cf.by[a - 1], self.cf.p2[a - 1]
        for i2 in reversed(by):  # shortest first
            if i2 < lo:
                continue
            cnt = by[i2].count(p2[i2])
            if cnt >= 2 or (cnt == 1 and i2 != need_two_at):
                return i2
        return None

    def fwd(self, last):
        """Scan nodes 1..last forward: the last length, or None if it stops."""
        prev = 0
        for a in range(1, last + 1):
            i2 = self.min_sing(a, prev)
            if i2 is None:
                self.b = a
                return None
            self.ell[a] = prev = i2
        return prev

    def ret(self, first_node, prevbar, merge):
        """The return scan from first_node down, bounded below by prevbar.

        With merge, a length the forward scan selected that equals the bound
        is taken by both scans, merged into one double shortening (case S);
        without it such a length needs a second singular string.
        """
        ell, ellbar = self.ell, self.ellbar
        for a in range(first_node, 0, -1):
            if merge and ell.get(a) == prevbar:
                self.cases[a] = "S"
                ellbar[a], ell[a] = prevbar, prevbar - 2
                continue
            i2 = self.min_sing(a, prevbar, None if merge else ell.get(a))
            if i2 is None:
                self.b = -(a + 1)
                return
            ellbar[a] = prevbar = i2
        self.b = -1


class _Tail:
    """The forward scan runs through node n; all letters are positive."""

    def forward(self, sc, n):
        if sc.fwd(n) is not None:
            sc.b = n + 1


class _Fork:
    """Nodes n-1 and n each take a string from node n-2's length up."""

    def forward(self, sc, n):
        prev = sc.fwd(n - 2)
        if prev is None:
            return
        i2, j2 = sc.min_sing(n - 1, prev), sc.min_sing(n, prev)
        if i2 is None and j2 is None:
            sc.b = n - 1
        elif j2 is None:
            sc.ell[n - 1], sc.b = i2, n
        elif i2 is None:
            sc.ell[n], sc.b = j2, -n
        else:
            sc.ell[n - 1], sc.ell[n] = i2, j2
            sc.ret(n - 2, max(i2, j2), False)

    def backward(self, fs, n, b):
        if b == -n:  # only node n of the fork was selected
            fs.chain((n,) + tuple(range(n - 2, 0, -1)), INF)
        else:  # both fork nodes, then below the shorter of the two
            hi = _outward(fs, -b, n - 1)[0]
            fs.chain(range(n - 2, 0, -1),
                     min(fs.chain((n - 1,), hi), fs.chain((n,), hi)))


class _Single:
    """One string at node n, selected by both scans, loses one column."""

    def forward(self, sc, n):
        i2 = sc.fwd(n)
        if i2 is not None:
            sc.ellbar[n] = i2
            sc.moves.append((n, i2, 0, i2 - 2, 0))
            sc.ret(n - 1, i2, False)

    def backward(self, fs, n, b):
        fs.chain(range(n, 0, -1), _outward(fs, -b, n)[0])


class _NodeN:
    """Node n: the shortest length from the bound up takes a singular string
    (case S, or P on a one-column string where E is a letter) or one quasi
    below its vacancy (case Q, QS when a longer singular string exists).

    A string loses a column, or half a column (half) where node n is
    narrower than node 1: then the bound is half a column lower, a singular
    string there is taken as Q, the return scan does not merge, and the QS
    string can keep a singular rigging (Qprime).
    """

    __slots__ = ("half", "quasi", "case_p")

    def __init__(self, half: bool, quasi: int, case_p: bool):
        self.half, self.quasi, self.case_p = half, quasi, case_p

    def forward(self, sc, n):
        prev = sc.fwd(n - 1)
        if prev is None:
            return
        half, quasi = self.half, self.quasi
        by, p2 = sc.cf.by[n - 1], sc.cf.p2[n - 1]
        col = 1 if half else 2  # doubled
        for i2 in reversed(by):  # shortest first
            if i2 < (prev - 1 if half else prev):
                continue
            if p2[i2] in by[i2]:  # a singular string
                off = 0
                break
            if quasi and i2 >= prev and p2[i2] - quasi in by[i2]:
                off = quasi
                break
        else:
            sc.b = n
            return
        if not off and i2 >= prev:
            if i2 == col and self.case_p:  # case P
                sc.ell[n], sc.cases[n], sc.b = i2, "P", EMPTY
                return
            # case S: both scans take the string, two columns come off
            sc.ellbar[n], sc.ell[n], sc.cases[n] = i2, i2 - col, "S"
            sc.moves.append((n, i2, 0, i2 - 2 * col, 0))
            sc.ret(n - 1, i2, not half)
            return
        # case Q: the string loses a column and becomes singular
        sc.ell[n] = i2
        sc.moves.append((n, i2, off, i2 - col, 0))
        j2 = sc.min_sing(n, i2 + 1)
        if j2 is None:
            sc.cases[n], sc.b = "Q", 0
            return
        # case QS: a longer singular string loses a column too, and its
        # new rigging is quasi-singular, except with a half column when
        # the return scan took its length at node n-1 (Qprime)
        sc.ellbar[n], sc.cases[n] = j2, "QS"
        sc.ret(n - 1, j2, not half)
        qs_off = 0 if half and j2 == sc.ellbar.get(n - 1) else quasi
        sc.moves.append((n, j2, 0, j2 - col, qs_off))

    def backward(self, fs, n, b):
        if b == EMPTY:  # case P: a singular string of length one at every node
            fs.chain(range(n, 0, -1), 0)
            return
        half, quasi = self.half, self.quasi
        col = 1 if half else 2  # doubled
        # the zero letter is case Q alone; below it the return scan ran
        hi, outward = (None, {}) if b == 0 else _outward(fs, -b, n)
        s = fs.longest(n, INF if hi is None else hi)
        if hi is not None:
            if half and fs.free(n, hi + 1, 0):
                # QS, the second string kept singular (Qprime)
                t, toff = hi + 1, 0
            else:  # without case Q, t is s
                t, toff = fs.longest(n, hi, quasi), quasi
            if t <= s:  # case S: the singular string gains two columns
                fs.additions.append((n, s, 0, 2 * col, 0))
                if half:
                    fs.chain(range(n - 1, 0, -1), s)
                else:
                    fs.merge_back(s, outward)
                return
            fs.additions.append((n, t, toff, col, 0))  # case QS, second string
        # case Q: the singular string gains a column and was quasi-singular,
        # but singular with a half column below ell^(n-1)
        below = range(n - 1, 0, -1)
        s1 = fs.chain(below[:1], s)
        fs.additions.append((n, s, 0, col, 0 if half and s1 == s else quasi))
        fs.chain(below[1:], s1)


@per_type
def _end(at: AffineType):
    """The end of the diagram of at, read off its form, widths and letters."""
    n, form2, up2 = at.n, form2_matrix(at), kac_data(at).up2
    if at.weight_len > n:  # weights of n+1 coordinates
        return _Tail()
    if n >= 3 and form2[-1][-3]:  # alpha_n meets alpha_{n-2}
        return _Fork()
    if n >= 2 and form2[-1][-1] > form2[-2][-2] and up2[-1] == up2[-2]:
        return _Single()  # node n is long and as wide as node n-1
    bs = letters(at)
    # case Q where 0 is a letter, at the rigging next below a vacancy p2
    p2 = 2
    quasi = p2 - max(r for r in box(at, n, up2[-1], p2) if r < p2)
    return _NodeN(up2[-1] < up2[0], quasi if 0 in bs else 0, EMPTY in bs)


def delta(at: AffineType, lam, L: int, rc):
    """One box-removal step: returns (letter, smaller rc, trace).

    Raises InvalidRC when the letter cannot come off lam.  The smaller
    configuration is not validated here: for a valid rc it is valid, and
    phi checks it on the way down.
    """
    b, rc2, sc = _delta(Config(at, L, rc), lam)
    nodes = range(1, at.n + 1)
    trace = DeltaTrace(tuple(sc.ell.get(a, INF) for a in nodes),
                       tuple(sc.ellbar.get(a, INF) for a in nodes),
                       tuple(sc.cases.get(a, "") for a in nodes), b)
    return b, rc2, trace


def _delta(cf, lam):
    """delta of cf.rc at lam: the letter, the smaller rc and its _Scan."""
    L, n = cf.L, cf.at.n
    if L < 1:
        raise ValueError("delta needs L >= 1")
    sc = _Scan(cf)
    cf.at._end.forward(sc, n)
    cases, moves = sc.cases, sc.moves

    # The standard rule at every node but node n where the end moved its
    # strings: a selected string loses one column, or two under case S,
    # where both scans selected the same string (ell one column below
    # ellbar); it becomes singular.
    own = n if moves else 0
    for a, i2 in sc.ell.items():
        if a != own and cases.get(a) != "S":
            moves.append((a, i2, 0, i2 - 2, 0))
    for a, i2 in sc.ellbar.items():
        if a != own:
            moves.append((a, i2, 0, i2 - (4 if cases.get(a) == "S" else 2), 0))

    b = sc.b
    sc.rho = rest_weight(cf.at, lam, b)
    if sc.rho is None:
        raise InvalidRC("letter %s cannot come off the weight %r" % (b, lam))
    return b, _move_strings(cf, L - 1, moves), sc


def _move_strings(cf, L2, moves):
    """Replace strings of cf by strings with new riggings.

    A move is (node, len2 or 0 for no old string, the old rigging's offset
    below its vacancy in cf, new len2 or 0 for no new string, the new
    rigging's offset below the vacancy of the result at length L2).  Only
    the nodes a move touches are copied and sorted: cf.rc is in normal
    form.
    """
    nodes, nu, p2 = list(cf.rc), list(cf.nu), cf.p2
    touched, grown = {}, []  # node -> a copy of its strings
    for a, len2, off, new_len2, new_off in moves:
        node = touched.get(a)
        if node is None:
            touched[a] = node = list(nodes[a - 1])
            nu[a - 1] = list(nu[a - 1])
        if len2:
            node.remove((len2, p2[a - 1][len2] - off))
            nu[a - 1].remove(len2)
        if new_len2 > 0:
            nu[a - 1].append(new_len2)
            grown.append((a, new_len2, new_off))
    # the result's vacancies depend on its lengths only
    for a, len2, off in grown:
        touched[a].append((len2, vacancy2(cf.at, L2, nu, a, len2) - off))
    for a, node in touched.items():
        nodes[a - 1] = tuple(sorted(node, reverse=True))
    return tuple(nodes)


def phi(at: AffineType, lam, L: int, rc):
    """The full bijection: iterate delta L times, collecting the letters.

    rc itself is taken as valid; each smaller configuration delta steps
    to is validated, so a faulty step raises InvalidRC.  Each checked
    step is taken once per process, none after phi_inverse (``_phi``).
    """
    return _phi(Config(at, L, rc), lam)


def _phi(cf, lam):
    """phi of cf.rc at the weight lam, stepping from cf.

    phi(rc) = b . phi(delta(rc)), so the rest of the word depends only on
    the smaller configuration, its weight and its length: each one whose
    whole chain passed (every smaller Config validated and the weight used
    up) is kept in ``at.tails`` with the rest of its word, as phi_inverse
    keeps each one it grows, and the walk stops at the first found there,
    cf included.  cf itself, taken as valid without a check, is never
    kept, a chain that raises keeps nothing, and at.grown is not written.
    """
    at, word, cur_lam = cf.at, [], tuple(lam)
    tails, passed, tail = at.tails, [], ()
    if (cf.L, cur_lam, cf.rc) in tails:  # cf's own chain was checked
        return tails[cf.L, cur_lam, cf.rc]
    for step in range(cf.L, 0, -1):
        b, small, sc = _delta(cf, cur_lam)
        word.append(b)
        cur_lam = sc.rho
        key = step - 1, cur_lam, small
        if key in tails:
            tail = tails[key]
            break
        passed.append(key)
        cf = Config(at, step - 1, small)
        validate_config(cf, cur_lam)
    else:
        if any(cur_lam):
            raise InvalidRC("letters do not exhaust the weight")
    word = tuple(word) + tail
    for j, key in enumerate(passed, 1):
        _keep(tails, key, word[j:])
    return word


def _keep(memo, key, value):
    """memo[key] = value, clearing memo first when it holds MEMO_CAP."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value


class _Fill:
    """Shared helpers for one delta_inverse run on the Config of rc_small.

    additions holds records (node, len2 in rc_small or 0 for a new
    string, its rigging's offset below the small vacancy, grow2, the new
    rigging's offset below the large vacancy).
    A string taken once is not free for a later choice at its node.
    """

    __slots__ = ("cf", "additions")

    def __init__(self, cf):
        self.cf = cf
        self.additions = []

    def free(self, a, i2, off):
        """A string of length i2 at node a, off below its vacancy, untaken."""
        rigs = self.cf.by[a - 1].get(i2)
        if rigs is None:
            return False
        left = rigs.count(self.cf.p2[a - 1][i2] - off)
        for x, y, z, _grow2, _new_off in self.additions:
            if x == a and y == i2 and z == off:
                left -= 1
        return left > 0

    def longest(self, a, hi, off=0):
        """Longest len2 <= hi at node a with a free string off below, or 0."""
        for i2 in self.cf.by[a - 1]:  # longest first
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
        """The return half for case S at node n where the scans merge.

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


def _outward(fs, first, stop):
    """Undo the return scan over nodes first..stop-1: (bound, records)."""
    outward, hi = {}, INF
    for a in range(first, stop):
        outward[a] = len(fs.additions)
        hi = fs.chain((a,), hi)
    return hi, outward


def _is_letter(at: AffineType, b):
    """b is an int of at.letters: True and 1.0 equal 1 but are no letter."""
    return type(b) is int and b in at.letters


def _grown_weight(at: AffineType, b, rho):
    """rho + wt(b), the weight a path of weight rho has with b in front.

    Raises NoPreimage unless b is a letter that can come off that weight
    and leave rho: then no rc of rank b steps to one of weight rho.
    """
    if not _is_letter(at, b):
        raise NoPreimage("%r is not a letter of %s" % (b, at))
    lam = tuple([x + y for x, y in zip(rho, wt_letter(at, b))])
    if not is_dominant(at, lam) or rest_weight(at, lam, b) is None:
        raise NoPreimage("letter %s cannot come off the weight %r" % (b, lam))
    return lam


def delta_inverse(at: AffineType, b, rho, L_small: int, rc_small):
    """The rc with rank b that delta maps to rc_small, by box addition.

    The reverse scan runs delta's scans backwards: node by node it takes
    the longest singular string of rc_small within the bound the previous
    node set, or a new string, with delta's S, Q, QS and P cases mirrored,
    and lengthens the chosen strings.  Raises NoPreimage when b is not a
    letter or cannot come off rho + wt(b) (``_grown_weight``).  The result
    is not checked: when (b, rc_small) is no image of delta it need not be
    valid or map back, which phi_inverse checks.
    """
    _grown_weight(at, b, rho)
    return _delta_inverse(Config(at, L_small, rc_small), b)


def _delta_inverse(cf, b):
    """The boxes of the letter b added onto cf.rc, reading cf's vacancies;
    b is a letter that can come off the larger weight."""
    at = cf.at
    fs = _Fill(cf)
    if 0 < b < EMPTY:  # the forward scan stopped at node b
        fs.chain(range(b - 1, 0, -1), INF)
    else:
        at._end.backward(fs, at.n, b)
    return _move_strings(cf, cf.L + 1, [
        (a, i2, o, i2 + d2, p) for a, i2, o, d2, p in fs.additions
    ])


def phi_inverse(at: AffineType, lam, L: int, word):
    """Right-to-left fold of delta_inverse; inverse of phi.

    Each box addition must be a valid rigged configuration that one delta
    maps back to the letter and the configuration it grew from; otherwise
    the word is not a classically restricted path and NoPreimage is raised.
    phi_inverse(b . w) is delta_inverse(b, phi_inverse(w)), so a step reads
    only the suffix of the word it adds a letter to.  Each step that passes
    its checks is kept on the type with its grown Config and weight
    (``at.grown``, keyed by that suffix), and a later word with the same
    suffix reads it there: each distinct step is taken and checked once.
    It keeps the suffix for phi too (``at.tails``), but never reads that.
    A non-letter (no int of at.letters) raises NoPreimage before any suffix
    holding it is looked up, and the word's weight is checked on every call.
    """
    word = tuple(word)
    if len(word) != L:
        raise ValueError("word of length %d, expected %d" % (len(word), L))
    grown = at.grown
    cf = Config(at, 0, tuple(tuple() for _ in range(at.n)))
    rho = tuple([0] * at.weight_len)
    for j in range(L - 1, -1, -1):
        b, suffix = word[j], word[j:]
        # no memo is read for a non-letter: a list would not hash, True is 1
        step = grown.get(suffix) if _is_letter(at, b) else None
        if step is None:
            big_rho = _grown_weight(at, b, rho)
            big = Config(at, L - j, _delta_inverse(cf, b))
            try:
                validate_config(big, big_rho)
                image = _delta(big, big_rho)[:2]
            except InvalidRC as exc:
                raise NoPreimage("box addition gives no preimage: %s" % exc)
            if image != (b, cf.rc):
                raise NoPreimage("box addition does not invert delta")
            step = big, big_rho
            _keep(grown, suffix, step)
            _keep(at.tails, (L - j, big_rho, big.rc), suffix)
        cf, rho = step
    if rho != tuple(lam):
        raise NoPreimage("the word's weight is not %r" % (tuple(lam),))
    return cf.rc
