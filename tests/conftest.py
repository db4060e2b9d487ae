import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rcbij.cartan import FAMILIES, AffineType, RankError  # noqa: E402
from rcbij.rc import Config, enumerate_rc  # noqa: E402
from rcbij.verify import BATTERY, cells_for, verify_cell  # noqa: E402

# The verification grid: the default battery of ``rcbij verify``.
GRID_TYPES = [AffineType(fam, n) for fam, n in BATTERY]

# Ranks above the battery's, one per family.
EXTENDED = [
    AffineType("A1", 4),
    AffineType("B1", 4),
    AffineType("C1", 4),
    AffineType("D1", 5),
    AffineType("A2", 3),
    AffineType("A2dag", 3),
    AffineType("A2odd", 3),
    AffineType("D2", 4),
]

# the four cells ``rcbij map`` is benchmarked on
MAP_CELLS = [
    (AffineType("A2", 2), (2, 1), 7), (AffineType("D2", 3), (2, 1, 0), 6),
    (AffineType("B1", 3), (1, 1, 0), 6), (AffineType("C1", 3), (2, 0, 0), 6),
]


def buildable_types():
    """Every family at ranks 1-8 that can be built, relaxed ranks included."""
    out = []
    for fam in FAMILIES:
        for n in range(1, 9):
            try:
                out.append(AffineType(fam, n, relax_rank=True))
            except RankError:
                pass
    # no diagram at B1 n=1, D1 n<=2, A2odd n=1; D2 n=1 is refused too
    assert len(out) == 8 * 8 - 5
    return out


# The battery is certified once per session, up to this length.
BATTERY_MAX_LEN = 6


@pytest.fixture(scope="session")
def battery():
    """cell -> (its configurations, verify_cell's answer), L <= 6.

    One level run per battery type, as ``rcbij verify`` runs it.
    """
    t0 = time.monotonic()
    cells = {}
    for gt in GRID_TYPES:
        levels = {}
        for cell in cells_for(gt, BATTERY_MAX_LEN):
            cells[cell] = (enumerate_rc(*cell), verify_cell(*cell, levels))
    elapsed = time.monotonic() - t0
    assert elapsed < 600, "runtime budget exceeded"
    print("\n[battery] %d cells certified in %.1fs" % (len(cells), elapsed))
    return cells


# The memos every AffineType carries, each empty when the type is interned.
MEMOS = ("sizes", "rest", "paths", "last_cell", "grown", "tails")


def empty_memos(monkeypatch, *types):
    """Give each type empty memos until the test ends.

    A step or pass an earlier test kept then stands in for none that the
    test plants or counts; the memos come back when the test ends.
    """
    for at in types:
        for name in MEMOS:
            monkeypatch.setitem(vars(at), name, {})


def out_of_box(at, L, rc):
    """rc with its first string's rigging raised above its box, or rc.

    The result is no rigged configuration at all; rc without strings is
    returned as it is.
    """
    cf = Config(at, L, rc)
    for a, node in enumerate(rc, 1):
        if node:
            ln, _rg = node[0]
            raised = sorted(node[1:] + ((ln, cf.p2[a - 1][ln] + 2),),
                            reverse=True)
            return rc[:a - 1] + (tuple(raised),) + rc[a:]
    return rc
