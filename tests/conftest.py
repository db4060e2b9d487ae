import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rcbij.cartan import AffineType  # noqa: E402
from rcbij.verify import BATTERY  # noqa: E402

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
