import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rcbij.cartan import AffineType  # noqa: E402
from rcbij.verify import BATTERY  # noqa: E402

# The verification grid: the default battery of ``rcbij verify``.
GRID_TYPES = [AffineType(fam, n) for fam, n in BATTERY]
