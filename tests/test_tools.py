"""The survivors ``tools/mutate.py`` excuses are mutants it still makes."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutate():
    spec = importlib.util.spec_from_file_location(
        "mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_equivalent_entry_matches_src():
    """Each EQUIVALENT entry matches a mutant of its module as the tool
    matches a survivor: a spot with the entry's mutation whose source
    line holds the entry's piece.  An entry whose line moved away or
    changed would excuse nothing, or a later mutant it was not written
    for."""
    mutate = load_mutate()
    spots = {}  # module -> (mutation, source line) of each of its mutants
    stale = []
    for module, piece, mutation, _why in mutate.EQUIVALENT:
        if module not in spots:
            source = (ROOT / "src" / "rcbij" / module).read_text()
            lines = source.splitlines()
            spots[module] = [(desc, lines[node.lineno - 1]) for node, _k, desc
                             in mutate.sites(ast.parse(source))]
        if not any(desc == mutation and piece in line
                   for desc, line in spots[module]):
            stale.append((module, piece, mutation))
    assert mutate.EQUIVALENT and not stale, stale
