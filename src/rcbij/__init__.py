"""Vector crystals, rigged configurations, and the bijection between them.

The package covers the eight nonexceptional affine families.  Entry
points: cartan (tables), crystal (letters/arrows/paths), energy (local and
intrinsic energy, one-dimensional sums), rc (rigged configurations and the
fermionic sum), bijection (box removal and the recursive bijection), cli.
"""

from .cartan import AffineType, FAMILIES, kac_data
from . import energy  # noqa: F401  (its tables, which crystal reads)
from .qpoly import QPoly, qbinom

__all__ = ["AffineType", "FAMILIES", "kac_data", "QPoly", "qbinom"]
