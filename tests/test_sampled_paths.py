"""The bijection on sampled paths far past the exhaustive grid's lengths.

A classically restricted path is built right to left: the letter b is
prepended to a path of weight rho when rho + wt(b) is dominant and
``rest_weight`` takes b off again to give rho.  The draws come from a
fixed ``random.Random(0)``, three paths at each length for every battery
type, so the sample is the same on every run.  Along each path the
per-step identities of criterion 5 are checked at every configuration
the removal steps pass through.
"""

import random

from conftest import GRID_TYPES
from oracles import verify_delta_identities
from rcbij.bijection import NoPreimage, delta, phi, phi_inverse
from rcbij.cartan import is_dominant
from rcbij.crystal import letters, rest_weight, wt_letter
from rcbij.energy import dbar
from rcbij.rc import InvalidRC, cc2_total, complement, validate_rc

LENGTHS = (10, 20, 40)
PER_LENGTH = 3


def sample_path(at, L, rng):
    """A random classically restricted path of length L and its weight."""
    word, rho = (), (0,) * at.weight_len
    for _ in range(L):
        choices = []
        for b in letters(at):
            lam = tuple(x + y for x, y in zip(rho, wt_letter(at, b)))
            if is_dominant(at, lam) and rest_weight(at, lam, b) == rho:
                choices.append((b, lam))
        b, rho = rng.choice(choices)
        word = (b,) + word
    return rho, word


def path_fault(at, lam, L, word):
    """None if word passes every check, else the first that failed.

    phi_inverse gives a valid configuration, phi gives word back, the cc
    of its complement is twice the energy of word, and the per-step
    identities hold along the removal steps.
    """
    try:
        rc = phi_inverse(at, lam, L, word)
        validate_rc(at, lam, L, rc)
        if phi(at, lam, L, rc) != word:
            return "phi(phi_inverse(p)) != p"
    except (InvalidRC, NoPreimage) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    if cc2_total(at, complement(at, L, rc)) != 2 * dbar(at, word):
        return "cc(complement(phi_inverse(p))) != dbar(p)"
    for step in range(L, 0, -1):
        if not verify_delta_identities(at, lam, step, rc)["ok"]:
            return "identities fail at length %d" % step
        b, rc, _tr = delta(at, lam, step, rc)
        lam = rest_weight(at, lam, b)
    return None


def test_sampled_long_paths():
    rng = random.Random(0)
    faults = []
    count = 0
    for at in GRID_TYPES:
        for L in LENGTHS:
            for _ in range(PER_LENGTH):
                lam, word = sample_path(at, L, rng)
                fault = path_fault(at, lam, L, word)
                if fault is not None:
                    faults.append((str(at), lam, word, fault))
                count += 1
    assert count == len(GRID_TYPES) * len(LENGTHS) * PER_LENGTH == 126
    assert not faults, "%d of %d paths: %r" % (len(faults), count, faults[:3])
