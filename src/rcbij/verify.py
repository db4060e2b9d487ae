"""The cell certificate, shared by ``rcbij verify`` and the test suite.

A cell is a type, a dominant weight lam and a length L.  Certifying it
runs the checks of ``CHECKS`` in order, with exact arithmetic, and reports
the first that fails with the configuration it failed on, as JSON that
``rcbij map --dir rc2path`` reads.

Each side of the cell is built once.  The path side is the highest paths
with their dbar, read off the path memo (``energy.dbars``); Xbar and the
``cc=2dbar`` check read those energies, and nothing of the rc side.  The
rc side is one admissible pass (``rc.cc_configs``): the rigged
configurations, one ``Config`` each (``rc.rigged``), their cc, the
rigged-configuration sum and the closed fermionic sum all read it.  So
a cell certifies what ``xbar``, ``enumerate_rc``, ``rc_genfun`` and
``fermionic_m`` return, and each Config's delta step and complement
(``Config.complement``) are the ones ``rcbij map`` takes.

phi is defined by recursion on L, phi(rc) = b . phi(delta(rc)), so the
cells of a run share a table of the words certified at each (type, L),
each kept with its configuration's ``Config``.  A cell reads L - 1 and
keeps only L - 1 and L, in any order of cells; in the order of
``cells_for`` each configuration then costs one delta step.

An empty cell, with no path and no rigged configuration, builds both
sides and passes: every check is then a sum or a loop over nothing.  A
cell with one side empty takes every check.

That step is checked once.  A smaller configuration found in the table
is an enumerated configuration of its cell, which proves it valid; only
one the table lacks is validated, and the recursion steps from the
``Config`` the validation built, as far as the first configuration
whose chain an earlier recursion or fold checked (``at.tails``).
The ``delta_inverse`` check adds the letter's boxes back onto that
smaller ``Config`` and compares the result with rc itself, which holds
more than the image check of ``phi_inverse``.  It reads no weight: delta
took the letter off the cell's own.  The ``phi_inverse`` check folds the
first configuration's word back by box additions, none off phi's chains,
taking only those no earlier fold kept (``at.grown``): it must end at rc.
"""

from __future__ import annotations

from .bijection import NoPreimage, _delta, _delta_inverse, _phi, phi_inverse
from .cartan import AffineType, dominant_weights
from .crystal import enumerate_highest
from .energy import dbars
from .qpoly import QPoly
from .rc import (
    InvalidRC,
    cc_configs,
    fermionic,
    rc_to_json,
    rigged,
    rigged_cc2,
    validate_rc,
)

# The default battery: every family at desk-scale ranks.
BATTERY = (
    ("A1", 1), ("A1", 2), ("A1", 3), ("B1", 3), ("C1", 2), ("C1", 3),
    ("D1", 4), ("A2", 1), ("A2", 2), ("A2dag", 1), ("A2dag", 2),
    ("A2odd", 2), ("D2", 2), ("D2", 3),
)

# The row's sum of an empty cell, in qpoly's format.
_ZERO = str(QPoly())

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


def verify_cell(at: AffineType, lam, L: int, levels=None):
    """Certify one cell; returns (ok, row, failure).

    row is (|RC|, |P|, Xbar, Mbar) with the sums as strings.  failure is
    None or {"check": name from CHECKS, "rc": the configuration as rc
    JSON, or None for the checks on the whole cell}.  A map raising
    InvalidRC or NoPreimage fails the check it was called for.  Each
    check runs over every configuration before the next begins.

    levels is the level table of this cell's run, {(type, L): {(weight,
    rc): (phi(rc), the Config of rc)}}, or None for an empty one.  The
    cell drops every key but (at, L - 1), where phi and the Config of
    each smaller configuration are looked up (a miss is validated and
    recursed on), and (at, L), filled with rigged's Configs on a pass.
    The delta_inverse check steps from the smaller Config the phi check
    read.  A cell with no path and no configuration passes once both
    sides are built, with its level kept (empty).
    """
    if levels is None:
        levels = {}
    for key in list(levels):  # drop all but (at, L - 1) and (at, L)
        if key[0] is not at or not L - 1 <= key[1] <= L:
            del levels[key]
    # the path side, which reads nothing of the rc side
    paths = enumerate_highest(at, lam, L)
    energy2 = ({p: 2 * d for p, d in zip(paths, dbars(at, lam, L))}
               if paths else {})
    # the rc side: one admissible pass, and everything read off it
    configs = cc_configs(at, lam, L)
    if not paths and not configs:  # every check is vacuous: 0 = 0
        levels.setdefault((at, L), {})
        return True, (0, 0, _ZERO, _ZERO), None
    cfs = rigged(at, L, configs)
    cc2s = rigged_cc2(at, configs)
    xb, mb = QPoly.count(energy2.values()), QPoly.count(cc2s)
    row = (len(cfs), len(paths), str(xb), str(mb))

    def fail(check, rc=None):
        rc_json = None if rc is None else rc_to_json(at, lam, L, rc)
        return False, row, {"check": check, "rc": rc_json}

    if xb != mb:
        return fail("xbar=rc_genfun")
    if fermionic(at, configs) != mb:
        return fail("fermionic_m=rc_genfun")
    if len(paths) != len(cfs):
        return fail("|rc|=|paths|")
    below = levels.get((at, L - 1), {})
    unhit = {p: p for p in paths}  # each word maps to the enumerated tuple
    words = {}  # rc -> phi(rc)
    steps = []  # (rc, its letter, the Config of delta(rc))
    comps = []  # (rc, its complement off the Config delta read)
    rc = None
    try:
        check = "phi"
        for cf in cfs:
            rc = cf.rc
            if L == 0:
                word = _phi(cf, lam)
            else:
                b, rc_small, sc = _delta(cf, lam)
                rho = sc.rho
                held = below.get((rho, rc_small))
                if held is None:
                    small = validate_rc(at, rho, L - 1, rc_small)
                    held = _phi(small, rho), small
                tail, small = held
                steps.append((rc, b, small))
                word = (b,) + tail
            word = unhit.pop(word, None)
            if word is None:  # not a path, or the image of an earlier rc
                return fail(check, rc)
            words[rc] = word
            comps.append((rc, cf.complement()))
        check = "cc=2dbar"
        for (rc, rc_c), cc2 in zip(comps, cc2s):
            # phi-tilde(rc) is the word of the complement, which the cell
            # enumerates; a complement outside it is itself a fault
            word = words.get(rc_c)
            if word is None or cc2 != energy2[word]:
                return fail(check, rc)
        check = "delta_inverse"
        for rc, b, small in steps:
            if _delta_inverse(small, b) != rc:
                return fail(check, rc)
        if cfs:
            check, rc = "phi_inverse", cfs[0].rc
            if phi_inverse(at, lam, L, words[rc]) != rc:
                return fail(check, rc)
    except (InvalidRC, NoPreimage):
        # a map that gives up on a configuration fails the check it was in
        return fail(check, rc)
    levels.setdefault((at, L), {}).update(
        ((lam, cf.rc), (words[cf.rc], cf)) for cf in cfs)
    return True, row, None
