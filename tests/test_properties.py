"""Shrinking property tests of phi and phi_inverse past the exhaustive grid.

hypothesis draws a type of the battery (``GRID_TYPES``) or above it
(``EXTENDED``), as a family and then a rank, a length and a random
source whose every choice it controls, and builds from them what
``test_sampled_paths`` builds from a seeded one: a classically restricted
path, letter by letter from the right (``sample_path``), or a rigged
configuration, its configuration drawn on a sampled path's weight and
each rigging in its box (``sample_rc``).  Each must pass that module's
checks (``path_fault``, ``rc_fault``), and every path one letter away
from a drawn path's steps must round-trip too (``branch_fault``).  A
failure shrinks: hypothesis makes the choices smaller until the word or
configuration is as short and plain as it can get while it still fails.
The draws are derandomized and no example database is kept, so every
run tries the same examples.

A drawn path has 6 to 9 letters.  Its suffixes are the shorter paths it
passes through, each checked at its step, so short words are covered
too; the shortest faults of the diagram's ends (the D fork, first at
L = 6) need the length.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import EXTENDED, GRID_TYPES, empty_memos
from rcbij.bijection import NoPreimage, phi, phi_inverse
from rcbij.rc import InvalidRC
from test_sampled_paths import (
    extensions,
    path_fault,
    rc_fault,
    sample_path,
    sample_rc,
)

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def by_family():
    """family -> its types in GRID_TYPES and EXTENDED, lowest rank first."""
    out = {}
    for at in sorted(GRID_TYPES + EXTENDED, key=lambda at: at.n):
        out.setdefault(at.family, []).append(at)
    return out


FAMILY_TYPES = by_family()
# a family, then one of its ranks: a fault found at a higher rank shrinks
# to the lowest rank where the same choices still fail
types = st.builds(lambda ats, k: ats[k % len(ats)],
                  st.sampled_from([FAMILY_TYPES[fam]
                                   for fam in sorted(FAMILY_TYPES)]),
                  st.integers(0, 3))
choices = st.randoms(use_true_random=False)


def branch_fault(at, word):
    """None, or the shortest path that phi(phi_inverse(.)) does not give
    back among those that differ from a suffix of word in its first
    letter only."""
    rho = (0,) * at.weight_len
    for j in range(len(word) - 1, -1, -1):
        rest = word[j + 1:]
        for b, lam in extensions(at, rho):
            v = (b,) + rest
            try:
                if phi(at, lam, len(v), phi_inverse(at, lam, len(v), v)) != v:
                    return v
            except (InvalidRC, NoPreimage):
                return v
            if b == word[j]:
                grown = lam
        rho = grown
    return None


@PROPERTY
@given(types, st.integers(6, 9), choices)
def test_drawn_paths(at, L, rng):
    lam, word = sample_path(at, L, rng)
    fault = path_fault(at, lam, L, word)
    assert fault is None, "%s %r %r: %s" % (at, lam, word, fault)
    with pytest.MonkeyPatch.context() as mp:
        # warm, phi reads the chain the fold kept; cold, it steps down
        empty_memos(mp, at)
        rc = phi_inverse(at, lam, L, word)
        assert (L, lam, rc) in at.tails and phi(at, lam, L, rc) == word
        empty_memos(mp, at)
        assert phi(at, lam, L, rc) == word
    branch = branch_fault(at, word)
    assert branch is None, "%s %r: %r" % (at, word, branch)


@settings(PROPERTY, max_examples=100)
@given(types, st.integers(0, 6), choices)
def test_drawn_rigged_configurations(at, L, rng):
    lam, rc = sample_rc(at, L, rng)
    fault = rc_fault(at, lam, L, rc)
    assert fault is None, "%s %r %r: %s" % (at, lam, rc, fault)
