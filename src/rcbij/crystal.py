"""The vector crystal for each family: letters, arrows, restricted paths.

Letters are encoded as ints: k is k, barred k is -k, the zero letter is 0,
and the empty letter (phi) is the sentinel EMPTY.  A path is a tuple of
letters with index 0 holding the leftmost tensor factor b_L and index -1
the rightmost factor b_1.

The crystal is read off the root data: the letters off gbar's last root,
f_i lowers a letter's weight by alpha_i and f_0 raises it by theta_0.  Its
tables and the memos of ``rest_weight`` and the paths live on the type.
The path memo holds each path's intrinsic energy too, built in the pass
that builds the path from the local energy ``rcbij.energy`` puts on the
type, so Xbar reads one number per path (``energy.dbars``).
"""

from __future__ import annotations

from .cartan import (AffineType, is_dominant, per_type, simple_root_vectors,
                     theta0)

EMPTY = 10 ** 6  # the letter usually written phi


@per_type
def letters(at: AffineType) -> tuple:
    """All letters, in the displayed chain order (phi last where present).

    Type A (weights of n+1 coordinates) has 1..n+1; the others 1..n, then
    0 where eps_n is a simple root (B), then -n..-1, then phi where
    theta_0 = eps_1.
    """
    n = at.n
    if at.weight_len > n:
        return tuple(range(1, n + 2))
    zero = (0,) if (n - 1, 1, 0, 0) in at.root_entries else ()
    empty = (EMPTY,) if theta0(at) == wt_letter(at, 1) else ()
    return tuple(range(1, n + 1)) + zero + tuple(range(-n, 0)) + empty


def letter_str(b) -> str:
    return "E" if b == EMPTY else str(b)


@per_type
def arrows(at: AffineType):
    """(f, e): for each node i, the partial maps b -> f_i(b) and b -> e_i(b).

    f_i(b) is the letter of weight wt(b) - alpha_i, and f_0(b) the letter
    of weight wt(b) + theta_0.  phi lies on no classical string; on the
    0-string it is the letter of weight 0 instead of 0.  A step moves a
    letter to a letter only where both weights meet the step's nonzero
    entries or are 0, so only those letters are tried.
    """
    steps = [theta0(at)] + [
        tuple(-x for x in r) for r in simple_root_vectors(at)
    ]
    bs = letters(at)
    f, e = {}, {}
    for i, step in enumerate(steps):
        off = EMPTY if i else (0 if EMPTY in bs else None)  # on no i-string
        near = {k + 1 for k, x in enumerate(step) if x}  # |b| meeting the step
        on = {wt_letter(at, b): b for b in bs
              if b != off and (abs(b) in near or b in (0, EMPTY))}
        f[i] = {}
        for w, b in on.items():
            v = on.get(tuple(x + y for x, y in zip(w, step)))
            if v is not None:
                f[i][b] = v
        e[i] = {v: k for k, v in f[i].items()}
    return f, e


@per_type
def _eps_phi(at: AffineType):
    """Letter tables eps[i][b], phi[i][b] counted by walking the chains."""
    def walk(step, b):
        k = 0
        while b in step:
            b, k = step[b], k + 1
        return k

    f, e = arrows(at)
    return tuple({i: {b: walk(m[i], b) for b in letters(at)} for i in f}
                 for m in (e, f))


def phi_letter(at: AffineType, i: int, b) -> int:
    return _eps_phi(at)[1][i][b]


def wt_letter(at: AffineType, b) -> tuple:
    """Weight of a letter in the epsilon basis (Z^n, or Z^(n+1) for type A)."""
    v = [0] * at.weight_len
    if b != EMPTY and b != 0:
        v[abs(b) - 1] = 1 if b > 0 else -1
    return tuple(v)


def rest_weight(at: AffineType, lam, b):
    """The weight left when the letter b comes off a path of weight lam.

    A classically restricted path of weight lam can start with b (its
    leftmost factor) exactly when lam - wt(b) is dominant and, for the
    zero letter, lam_n > 0.  Returns lam - wt(b), or None when it cannot;
    kept in at.rest.
    """
    lam, rest = tuple(lam), at.rest
    rho = rest.get((lam, b), rest)  # the memo itself marks a miss
    if rho is rest:
        rho = tuple(x - y for x, y in zip(lam, wt_letter(at, b)))
        ok = is_dominant(at, rho) and (b != 0 or lam[at.n - 1] > 0)
        rest[lam, b] = rho = rho if ok else None
    return rho


def wt_path(at: AffineType, word) -> tuple:
    """Weight of a word: the componentwise sum of its letters' weights."""
    v = [0] * at.weight_len
    for b in word:
        v = [x + y for x, y in zip(v, wt_letter(at, b))]
    return tuple(v)


_NONE = (), (), ()  # a state without paths
_EMPTY_WORD = ((),), (0,), (0,)  # the empty word, of energy 0


def _highest(at: AffineType, lam: tuple, L: int):
    """The paths of (lam, L) with their energies, built on an explicit
    stack: no recursion.  Each state's entry in the type's memo, for every
    cell, is (words, D, T): its paths in sorted order and two int tuples
    parallel to them, read by one lookup so the three keep in step.

    D is the barred intrinsic energy (``energy.dbar``) and T the sum of a
    word's adjacent local energies plus its end term H(w_L (x) natural) -
    H(1 (x) natural), read through the same tables as dbar.  Putting b in
    front of w adds e = H(b (x) w_1), or b's end term when w is empty:
    D(b.w) = D(w) + T(w) + e and T(b.w) = T(w) + e, from D = T = 0 on the
    empty word.  The tables are the type's once ``rcbij.energy``, which
    the package imports, has loaded.
    """
    memo = at.paths
    todo = [(lam, L, None)]  # a state, with its steps once they are found
    while todo:
        wt, ln, steps = todo.pop()
        if (wt, ln) in memo:
            continue
        if ln == 0 or sum(map(abs, wt)) > ln:  # a letter moves |wt|_1 by <= 1
            memo[wt, ln] = _NONE if any(wt) else _EMPTY_WORD
        elif steps is None:  # in ascending letters: joined, they sort
            steps = [(b, rho) for b in sorted(at.letters)
                     if (rho := rest_weight(at, wt, b)) is not None]
            todo.append((wt, ln, steps))
            todo.extend((rho, ln - 1, None) for _b, rho in steps)
        else:
            h, words, ds, ts = at.local_hbar, [], [], []
            if ln == 1:
                end = at.b_natural
                one = h[1, end]
            for b, rho in steps:
                kids, kds, kts = memo[rho, ln - 1]
                for w, d, t in zip(kids, kds, kts):
                    t += h[b, w[0]] if w else h[b, end] - one
                    words.append((b,) + w)
                    ds.append(d + t)
                    ts.append(t)
            memo[wt, ln] = tuple(words), tuple(ds), tuple(ts)
    return memo[lam, L]


def enumerate_highest(at: AffineType, lam, L: int):
    """All classically restricted paths of weight lam in the L-fold power,
    in sorted order.

    Peels letters off the left with rest_weight, which avoids scanning all
    |B|^L words; the energies built with them are read by ``energy.dbars``.
    """
    lam = tuple(lam)
    if not is_dominant(at, lam):
        raise ValueError("weight %r is not dominant for %s" % (lam, at))
    if L < 0:
        raise ValueError("L must be nonnegative")
    return _highest(at, lam, L)[0]


def dot_export(at: AffineType) -> str:
    """DOT text of the full arrow table, edges labeled by the node index."""
    f, _ = arrows(at)
    lines = ["digraph crystal {", '  rankdir=LR;']
    for b in letters(at):
        lines.append('  "%s";' % letter_str(b))
    for i in sorted(f):
        for b in sorted(f[i], key=lambda x: (x == EMPTY, x)):
            lines.append(
                '  "%s" -> "%s" [label="%d"];'
                % (letter_str(b), letter_str(f[i][b]), i)
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
