"""The bijection on sampled paths and rigged configurations far past the
exhaustive grid's lengths.

A classically restricted path is built right to left: the letter b is
prepended to a path of weight rho when rho + wt(b) is dominant and
``rest_weight`` takes b off again to give rho.  A rigged configuration
is drawn from the other side: its configuration by rejection from random
partitions of the column sums ``normalized_sizes`` prescribes, until one
is admissible, and each rigging at random in its box.  The draws come
from fixed ``random.Random`` seeds, three at each length for every
battery type and one at each length for the ranks above the battery's
(``EXTENDED``), so the sample is the same on every run.  Along each path
the per-step identities of criterion 5 are checked at every
configuration the removal steps pass through.
"""

import random

from conftest import EXTENDED, GRID_TYPES
from oracles import (
    cc2_total_by_form,
    is_admissible_config,
    is_classically_highest,
    verify_delta_identities,
)
from rcbij.bijection import NoPreimage, delta, phi, phi_inverse
from rcbij.cartan import form2_matrix, is_dominant, kac_data
from rcbij.crystal import letters, rest_weight, wt_letter, wt_path
from rcbij.energy import dbar
from rcbij.rc import (
    InvalidRC,
    box,
    complement,
    normalized_sizes,
    vacancy2,
    validate_rc,
)

LENGTHS = (10, 20, 40)
PER_LENGTH = 3
DRAWS = len(LENGTHS) * (PER_LENGTH * len(GRID_TYPES) + len(EXTENDED))


def draws():
    """The (type, length) of every draw, battery types first."""
    for at in GRID_TYPES:
        for L in LENGTHS:
            for _ in range(PER_LENGTH):
                yield at, L
    for at in EXTENDED:
        for L in LENGTHS:
            yield at, L


def extensions(at, rho):
    """(b, lam) for each letter b that a path of weight rho can take in
    front, where lam = rho + wt(b) is the weight it then has."""
    out = []
    for b in letters(at):
        lam = tuple(x + y for x, y in zip(rho, wt_letter(at, b)))
        if is_dominant(at, lam) and rest_weight(at, lam, b) == rho:
            out.append((b, lam))
    return out


def sample_path(at, L, rng):
    """A random classically restricted path of length L and its weight."""
    word, rho = (), (0,) * at.weight_len
    for _ in range(L):
        b, rho = rng.choice(extensions(at, rho))
        word = (b,) + word
    return rho, word


def random_partition(total, rng):
    """A random partition of total: a random number of parts, cut from a
    row of total boxes at random places."""
    if not total:
        return ()
    cuts = sorted(rng.sample(range(1, total), rng.randint(1, total) - 1))
    return tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [total])),
                        reverse=True))


def take_off(parts, rng):
    """Take a box off a random corner of the partition parts, a list."""
    i = rng.choice([i for i, x in enumerate(parts)
                    if x > (parts + [0])[i + 1]])
    parts[i] -= 1
    if not parts[i]:
        parts.pop()


def put_on(parts, rng):
    """Put a box on a random outer corner of the partition parts, a list."""
    i = rng.choice([i for i in range(len(parts) + 1)
                    if i == 0 or parts[i - 1] > (parts + [0])[i]])
    if i == len(parts):
        parts.append(0)
    parts[i] += 1


def reshaped(parts, total, rng):
    """parts with boxes taken off or put on at random corners until it sums
    to total, then up to three boxes moved from corner to corner."""
    parts = list(parts)
    while sum(parts) > total:
        take_off(parts, rng)
    while sum(parts) < total:
        put_on(parts, rng)
    for _ in range(rng.randint(0, 3) if total else 0):
        take_off(parts, rng)
        put_on(parts, rng)
    return tuple(parts)


def sample_config(at, lam, L, rng):
    """A random admissible configuration of weight lam at length L, or None.

    Node 1 takes a random partition of its column sum, and each later node
    the partition of its neighbour on the diagram before it, in its own box
    width, reshaped to its column sum.  A draw that is not admissible is
    rejected, up to 300 times.
    """
    sizes = normalized_sizes(at, lam, L)
    up2 = kac_data(at).up2
    form2 = form2_matrix(at)
    for _ in range(300):
        nu = [tuple(up2[0] * p for p in random_partition(sizes[0], rng))]
        for a in range(1, at.n):
            before = nu[max(b for b in range(a) if form2[a][b])]
            base = [x // up2[a] for x in before if x >= up2[a]]
            nu.append(tuple(up2[a] * p for p in reshaped(base, sizes[a], rng)))
        if is_admissible_config(at, L, tuple(nu)):
            return tuple(nu)
    return None


def sample_rc(at, L, rng):
    """A random rigged configuration at length L and its weight.

    The weight is that of a sampled path, so its cell is not empty; when
    no admissible configuration of it is drawn, the next sampled path's
    weight is tried.  Each rigging is drawn from its box.
    """
    for _ in range(100):
        lam, _word = sample_path(at, L, rng)
        nu = sample_config(at, lam, L, rng)
        if nu is not None:
            break
    else:
        raise AssertionError("no admissible configuration drawn for %s" % at)
    rigged = [[(i2, rng.choice(box(at, a, i2, vacancy2(at, L, nu, a, i2))))
               for i2 in node] for a, node in enumerate(nu, 1)]
    return lam, tuple(tuple(sorted(node, reverse=True)) for node in rigged)


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
    if cc2_total_by_form(at, complement(at, L, rc)) != 2 * dbar(at, word):
        return "cc(complement(phi_inverse(p))) != dbar(p)"
    for step in range(L, 0, -1):
        if not verify_delta_identities(at, lam, step, rc)["ok"]:
            return "identities fail at length %d" % step
        b, rc, _tr = delta(at, lam, step, rc)
        lam = rest_weight(at, lam, b)
    return None


def rc_fault(at, lam, L, rc):
    """None if rc passes every check, else the first that failed.

    phi gives a classically restricted path of weight lam, and
    phi_inverse gives rc back.
    """
    try:
        validate_rc(at, lam, L, rc)
        word = phi(at, lam, L, rc)
        if wt_path(at, word) != lam or not is_classically_highest(at, word):
            return "phi(rc) is not classically restricted"
        if phi_inverse(at, lam, L, word) != rc:
            return "phi_inverse(phi(rc)) != rc"
    except (InvalidRC, NoPreimage) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None


def test_sampled_long_paths():
    rng = random.Random(0)
    faults = []
    count = 0
    for at, L in draws():
        lam, word = sample_path(at, L, rng)
        fault = path_fault(at, lam, L, word)
        if fault is not None:
            faults.append((str(at), lam, word, fault))
        count += 1
    assert count == DRAWS == 150
    assert not faults, "%d of %d paths: %r" % (len(faults), count, faults[:3])


def test_sampled_rigged_configurations():
    rng = random.Random(1)
    faults = []
    count = 0
    for at, L in draws():
        lam, rc = sample_rc(at, L, rng)
        fault = rc_fault(at, lam, L, rc)
        if fault is not None:
            faults.append((str(at), lam, rc, fault))
        count += 1
    assert count == DRAWS == 150
    assert not faults, "%d of %d configurations: %r" % (
        len(faults), count, faults[:3])
