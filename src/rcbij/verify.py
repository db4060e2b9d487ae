"""The cell certificate, shared by ``rcbij verify`` and the test suite.

A cell is a type, a dominant weight lam and a length L.  Certifying it
runs the checks of ``CHECKS`` in order, with exact arithmetic, and reports
the first that fails with the configuration it failed on, as JSON that
``rcbij map --dir rc2path`` reads.
"""

from __future__ import annotations

from .bijection import (
    NoPreimage,
    delta,
    delta_inverse,
    phi,
    phi_inverse,
    phi_tilde,
)
from .cartan import AffineType, dominant_weights
from .crystal import enumerate_highest, rest_weight
from .energy import dbar, xbar
from .rc import (
    InvalidRC,
    cc2_total,
    enumerate_rc,
    fermionic_m,
    rc_genfun,
    rc_to_json,
)

# The default battery: every family at desk-scale ranks.
BATTERY = (
    ("A1", 1), ("A1", 2), ("A1", 3), ("B1", 3), ("C1", 2), ("C1", 3),
    ("D1", 4), ("A2", 1), ("A2", 2), ("A2dag", 1), ("A2dag", 2),
    ("A2odd", 2), ("D2", 2), ("D2", 3),
)

# The checks of a cell, in the order verify_cell runs them.
CHECKS = (
    "xbar=rc_genfun",  # Xbar is the rigged-configuration sum
    "fermionic_m=rc_genfun",  # so is the closed fermionic sum
    "|rc|=|paths|",  # as many rigged configurations as highest paths
    "phi",  # phi maps the configurations injectively into the paths
    "cc=2dbar",  # cc(rc) is twice the energy of phi-tilde(rc)
    "delta_inverse",  # delta_inverse undoes delta on every configuration
    "phi_inverse",  # phi_inverse undoes phi on the first configuration
)


def cells_for(at: AffineType, max_len: int):
    """Every cell of the type with length up to max_len."""
    return [
        (at, lam, L)
        for L in range(0, max_len + 1)
        for lam in dominant_weights(at, L)
    ]


def verify_cell(at: AffineType, lam, L: int):
    """Certify one cell; returns (ok, row, failure).

    row is (|RC|, |P|, Xbar, Mbar) with the sums as strings.  failure is
    None or {"check": name from CHECKS, "rc": the configuration as rc
    JSON, or None for the checks on the whole cell}.  A map raising
    InvalidRC or NoPreimage fails the check it was called for.
    """
    paths = enumerate_highest(at, lam, L)
    rcs = enumerate_rc(at, lam, L)
    xb = xbar(at, lam, L)
    mb = rc_genfun(at, lam, L)
    row = (len(rcs), len(paths), str(xb), str(mb))

    def fail(check, rc=None):
        rc_json = None if rc is None else rc_to_json(at, lam, L, rc)
        return False, row, {"check": check, "rc": rc_json}

    if xb != mb:
        return fail("xbar=rc_genfun")
    if fermionic_m(at, lam, L) != mb:
        return fail("fermionic_m=rc_genfun")
    if len(paths) != len(rcs):
        return fail("|rc|=|paths|")
    unhit = set(paths)
    check = rc = None
    try:
        for rc in rcs:
            check = "phi"
            word = phi(at, lam, L, rc)
            if word not in unhit:  # not a path, or the image of an earlier rc
                return fail(check, rc)
            unhit.remove(word)
            check = "cc=2dbar"
            if cc2_total(at, rc) != 2 * dbar(at, phi_tilde(at, lam, L, rc)):
                return fail(check, rc)
            if L >= 1:
                check = "delta_inverse"
                b, rc_small, _tr = delta(at, lam, L, rc)
                rho = rest_weight(at, lam, b)
                if delta_inverse(at, b, rho, L - 1, rc_small) != rc:
                    return fail(check, rc)
        if rcs:
            check, rc = "phi_inverse", rcs[0]
            if phi_inverse(at, lam, L, phi(at, lam, L, rc)) != rc:
                return fail(check, rc)
    except (InvalidRC, NoPreimage):
        # a map that gives up on a configuration fails the check it was in
        return fail(check, rc)
    return True, row, None
