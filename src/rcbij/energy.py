"""Local and intrinsic energy on tensor powers of the vector crystal.

The local energy table is computed, never hardcoded: the affine crystal
graph on B (x) B, read off the arrows of B by the tensor-product rule
(e_i(x (x) y) moves x where eps_i(x) > phi_i(y), and y otherwise), is
propagated breadth-first from the pair 1 (x) 1 with the increment rule
(+1 when e_0 moves the left factor, -1 when it moves the right factor, 0
for classical moves).  The unique table normalized by H(1 (x) 1) = 0 that
satisfies this rule is the barred local energy; the unbarred one is its
negative.  All statistics exposed here (dbar, dbars, xbar) are the barred
ones, which are the nonnegative ones on restricted paths.

``dbar`` is the definition for one word; the path memo
(``crystal._highest``) builds each path's with the path, reading H through
the same tables, and ``dbars`` and ``xbar`` read it there.
"""

from __future__ import annotations

from collections import deque

from .cartan import AffineType, per_type
from .crystal import (_eps_phi, _highest, arrows, enumerate_highest, letters,
                      phi_letter)
from .qpoly import QPoly


class PropagationError(RuntimeError):
    """The pair graph was disconnected or gave conflicting increments."""


@per_type
def local_hbar(at: AffineType):
    """The barred local energy table on B (x) B as a dict pair -> int."""
    B = letters(at)
    eps, phi = _eps_phi(at)
    edges = {}  # pair -> list of (other_pair, delta along pair -> other)

    def link(p, q, d):
        edges.setdefault(p, []).append((q, d))
        edges.setdefault(q, []).append((p, -d))
    for i, e in arrows(at)[1].items():  # each e_i has at most two arrows
        for b, eb in e.items():
            for c in B:
                if eps[i][b] > phi[i][c]:  # e_i(b (x) c) moves b
                    link((b, c), (eb, c), 0 if i else 1)
                if eps[i][c] <= phi[i][b]:  # e_i(c (x) b) moves b
                    link((c, b), (c, eb), 0 if i else -1)
    start = (1, 1)
    h = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for q, d in edges.get(p, ()):
            v = h[p] + d
            if q in h:
                if h[q] != v:
                    raise PropagationError(
                        "conflicting energy at %r: %d vs %d" % (q, h[q], v)
                    )
            else:
                h[q] = v
                queue.append(q)
    if len(h) != len(B) ** 2:
        raise PropagationError(
            "pair graph disconnected: reached %d of %d" % (len(h), len(B) ** 2)
        )
    return h


@per_type
def b_natural(at: AffineType):
    """The unique letter with phi = Lambda_0 (one 0-arrow out, nothing else)."""
    found = [b for b in letters(at) if phi_letter(at, 0, b) == 1
             and all(phi_letter(at, i, b) == 0 for i in range(1, at.n + 1))]
    if len(found) != 1:
        raise RuntimeError("b natural not unique for %s: %r" % (at, found))
    return found[0]


def dbar(at: AffineType, word) -> int:
    """Barred intrinsic energy: the barred total energy of the word
    (leftmost factor first) relative to the all-ones word."""
    L = len(word)
    if L == 0:  # before the |B|^2 table is read, which it may build
        return 0
    h, bnat = at.local_hbar, at.b_natural
    total = L * (h[(word[-1], bnat)] - h[(1, bnat)])
    for idx in range(L - 1):
        total += (idx + 1) * h[(word[idx], word[idx + 1])]
    return total


def dbars(at: AffineType, lam, L: int) -> tuple:
    """dbar of each path of the cell, in the order of enumerate_highest.

    The path memo builds them with the paths (``crystal._highest``), so no
    local energy is read here.  lam and L are taken as enumerate_highest
    has checked them: call it first.
    """
    return _highest(at, tuple(lam), L)[1]


def xbar(at: AffineType, lam, L: int) -> QPoly:
    """One-dimensional sum in the barred variable: sum of q^dbar over paths.

    enumerate_highest checks the cell; a cell with paths reads their dbar
    off the path memo.
    """
    if not enumerate_highest(at, lam, L):
        return QPoly.count(())
    return QPoly.count([2 * d for d in dbars(at, lam, L)])
