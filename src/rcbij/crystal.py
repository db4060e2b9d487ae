"""The vector crystal for each family: letters, arrows, restricted paths.

Letters are encoded as ints: k is k, barred k is -k, the zero letter is 0,
and the empty letter (phi) is the sentinel EMPTY.  A path is a tuple of
letters with index 0 holding the leftmost tensor factor b_L and index -1
the rightmost factor b_1.

The arrow tables are hand-transcribed adjacency data; the tests pin them
down through the weight-step invariants, which leave no freedom.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import AffineType, RankError, is_dominant

EMPTY = 10 ** 6  # the letter usually written phi


def letters(at: AffineType) -> tuple:
    """All letters, in the displayed chain order (phi last where present)."""
    n = at.n
    if at.family == "A1":
        return tuple(range(1, n + 2))
    ks = list(range(1, n + 1))
    bars = [-k for k in range(n, 0, -1)]
    if at.family in ("B1", "A2dag"):
        return tuple(ks + [0] + bars)
    if at.family in ("C1", "A2odd"):
        return tuple(ks + bars)
    if at.family == "A2":
        return tuple(ks + bars + [EMPTY])
    if at.family == "D2":
        return tuple(ks + [0] + bars + [EMPTY])
    if at.family == "D1":
        return tuple(ks[:-1] + [n, -n] + bars[1:])
    raise ValueError(at.family)


def letter_str(b) -> str:
    return "E" if b == EMPTY else str(b)


@lru_cache(maxsize=None)
def arrows(at: AffineType):
    """(f, e): for each node i, the partial maps b -> f_i(b) and b -> e_i(b)."""
    n = at.n
    fam = at.family
    f = {i: {} for i in range(n + 1)}
    if fam == "A1":
        for k in range(1, n + 1):
            f[k][k] = k + 1
        f[0][n + 1] = 1
    else:
        for k in range(1, n):
            f[k][k] = k + 1
            f[k][-(k + 1)] = -k
        if fam in ("B1", "A2dag", "D2"):
            f[n][n] = 0
            f[n][0] = -n
        elif fam in ("C1", "A2", "A2odd"):
            f[n][n] = -n
        elif fam == "D1":
            # the fork: two arrows out of n-1 and two into -(n-1)
            f[n - 1][n - 1] = n
            f[n][n - 1] = -n
            f[n][n] = -(n - 1)
            f[n - 1][-n] = -(n - 1)
        if fam in ("B1", "D1", "A2odd"):
            f[0][-1] = 2
            f[0][-2] = 1
        elif fam in ("C1", "A2dag"):
            f[0][-1] = 1
        elif fam in ("A2", "D2"):
            f[0][-1] = EMPTY
            f[0][EMPTY] = 1
    known = set(letters(at))  # a relaxed rank can have arrows out of them
    e = {}
    for i in f:
        if not known.issuperset(f[i].values()):
            raise RankError("%s: arrow %d leads out of the letters" % (at, i))
        e[i] = {v: k for k, v in f[i].items()}
        if len(e[i]) != len(f[i]):
            raise RankError("%s: two %d-arrows end at one letter" % (at, i))
    return f, e


@lru_cache(maxsize=None)
def _eps_phi(at: AffineType):
    """Letter tables eps[i][b], phi[i][b] counted by walking the chains."""
    f, e = arrows(at)
    eps = {}
    phi = {}
    for i in f:
        eps[i] = {}
        phi[i] = {}
        for b in letters(at):
            k, x = 0, b
            while x in e[i]:
                x = e[i][x]
                k += 1
            eps[i][b] = k
            k, x = 0, b
            while x in f[i]:
                x = f[i][x]
                k += 1
            phi[i][b] = k
    return eps, phi


def eps_letter(at: AffineType, i: int, b) -> int:
    return _eps_phi(at)[0][i][b]


def phi_letter(at: AffineType, i: int, b) -> int:
    return _eps_phi(at)[1][i][b]


def wt_letter(at: AffineType, b) -> tuple:
    """Weight of a letter in the epsilon basis (Z^n, or Z^(n+1) for type A)."""
    ln = at.weight_len
    v = [0] * ln
    if b == EMPTY or b == 0:
        return tuple(v)
    if b > 0:
        v[b - 1] = 1
    else:
        v[-b - 1] = -1
    return tuple(v)


def rest_weight(at: AffineType, lam, b):
    """The weight left when the letter b comes off a path of weight lam.

    A classically restricted path of weight lam can start with b (its
    leftmost factor) exactly when lam - wt(b) is dominant and, for the
    zero letter, lam_n > 0.  Returns lam - wt(b), or None when it cannot.
    """
    rho = tuple(x - y for x, y in zip(lam, wt_letter(at, b)))
    if not is_dominant(at, rho) or (b == 0 and lam[at.n - 1] <= 0):
        return None
    return rho


def wt_path(at: AffineType, word) -> tuple:
    """Weight of a word: the componentwise sum of its letters' weights."""
    v = [0] * at.weight_len
    for b in word:
        v = [x + y for x, y in zip(v, wt_letter(at, b))]
    return tuple(v)


@lru_cache(maxsize=None)
def _highest(at: AffineType, lam: tuple, L: int):
    if L == 0:
        return (tuple(),) if all(x == 0 for x in lam) else tuple()
    out = []
    for b in letters(at):
        rho = rest_weight(at, lam, b)
        if rho is None:
            continue
        for rest in _highest(at, rho, L - 1):
            out.append((b,) + rest)
    return tuple(sorted(out))


def enumerate_highest(at: AffineType, lam, L: int):
    """All classically restricted paths of weight lam in the L-fold power.

    Uses the prefix recursion of rest_weight, which avoids scanning all
    |B|^L words.
    """
    lam = tuple(lam)
    if not is_dominant(at, lam):
        raise ValueError("weight %r is not dominant for %s" % (lam, at))
    return _highest(at, lam, L)


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
