"""Built-in test-bed groups, given by permutation generators.

Element 0 is always the identity; the numbering is the BFS order produced by
group_from_generators, so element indices are stable across runs.
"""

from functools import lru_cache

from .grp import FiniteGroup, group_from_generators

_GENERATORS = {
    "C2": [(1, 0)],
    "C4": [(1, 2, 3, 0)],
    "C6": [(1, 2, 3, 4, 5, 0)],
    "V4": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "S3": [(1, 2, 0), (1, 0, 2)],
    "D4": [(1, 2, 3, 0), (3, 2, 1, 0)],
    # i and j acting on the eight unit quaternions
    "Q8": [(1, 4, 3, 6, 5, 0, 7, 2), (2, 7, 4, 1, 6, 3, 0, 5)],
}

_EXPECTED_ORDERS = {"C2": 2, "C4": 4, "C6": 6, "V4": 4, "S3": 6, "D4": 8, "Q8": 8}


def corpus_names():
    """Canonical ordering of the built-in groups."""
    return ("C2", "C4", "C6", "V4", "S3", "D4", "Q8")


@lru_cache(maxsize=None)
def corpus_group(name) -> FiniteGroup:
    """A built-in group by name, constructed once and cached."""
    if name not in _GENERATORS:
        raise KeyError(f"unknown corpus group {name!r}")
    g = group_from_generators(_GENERATORS[name])
    assert g.order == _EXPECTED_ORDERS[name]
    return g
