"""The vector crystal for each family: letters, arrows, tensor words.

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


def letter_from_str(s: str):
    return EMPTY if s == "E" else int(s)


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


def apply_f(at: AffineType, i: int, b):
    """f_i(b), or None when no i-arrow leaves b."""
    f, _ = arrows(at)
    if i not in f:
        raise ValueError("node index %d out of range" % i)
    return f[i].get(b)


def apply_e(at: AffineType, i: int, b):
    """e_i(b), or None when no i-arrow points at b."""
    _, e = arrows(at)
    if i not in e:
        raise ValueError("node index %d out of range" % i)
    return e[i].get(b)


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
    ln = at.weight_len
    v = [0] * ln
    for b in word:
        if b == EMPTY or b == 0:
            continue
        if b > 0:
            v[b - 1] += 1
        else:
            v[-b - 1] -= 1
    return tuple(v)


def tensor_e(at: AffineType, i: int, word):
    """e_i on a word, or None; the two-factor rule applied right-nested."""
    word = tuple(word)
    if not word:
        return None
    # locate the factor e_i acts on: scan from the left, maintaining
    # eps/phi of the suffix to the right of the current position.
    # e acts on position j iff eps(word[j]) > phi(suffix) and no earlier
    # position soaked it up; unrolled via the recursive rule.
    suff_eps = [0] * (len(word) + 1)
    suff_phi = [0] * (len(word) + 1)
    for j in range(len(word) - 1, -1, -1):
        eb = eps_letter(at, i, word[j])
        pb = phi_letter(at, i, word[j])
        suff_eps[j] = suff_eps[j + 1] + max(0, eb - suff_phi[j + 1])
        suff_phi[j] = pb + max(0, suff_phi[j + 1] - eb)
    for j in range(len(word)):
        if eps_letter(at, i, word[j]) > suff_phi[j + 1]:
            nb = apply_e(at, i, word[j])
            if nb is None:
                return None
            return word[:j] + (nb,) + word[j + 1:]
    # acts on the last factor of the innermost bracket
    nb = apply_e(at, i, word[-1])
    if nb is None:
        return None
    return word[:-1] + (nb,)


def tensor_f(at: AffineType, i: int, word):
    """f_i on a word, or None."""
    word = tuple(word)
    if not word:
        return None
    suff_phi = [0] * (len(word) + 1)
    for j in range(len(word) - 1, -1, -1):
        eb = eps_letter(at, i, word[j])
        pb = phi_letter(at, i, word[j])
        suff_phi[j] = pb + max(0, suff_phi[j + 1] - eb)
    for j in range(len(word)):
        if eps_letter(at, i, word[j]) >= suff_phi[j + 1]:
            nb = apply_f(at, i, word[j])
            if nb is None:
                return None
            return word[:j] + (nb,) + word[j + 1:]
    nb = apply_f(at, i, word[-1])
    if nb is None:
        return None
    return word[:-1] + (nb,)


def is_classically_highest(at: AffineType, word) -> bool:
    """True iff e_i kills the word for every classical node i."""
    return all(tensor_e(at, i, word) is None for i in range(1, at.n + 1))


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
