"""Scaling-ladder child: regulator-constant tables over larger groups.

Builds each ladder group from inline permutation generators in a fresh
process, so every library cache starts cold, then computes the subgroup
class table, the Brauer relation basis and the regulator constants of
Z[G], Z and Z[G/K] for three seed-chosen classes K.  Prints one JSON object;
the harness checks it against the permutation-lattice closed form.

    PYTHONPATH=src python3 bench/ladder.py --seed 0 [--groups A4,S4]
"""

import argparse
import json
import random
import sys
import time

from factoreq import (
    all_subgroups,
    brauer_relation_basis,
    coset_action,
    group_from_generators,
    permutation_lattice,
    regular_lattice,
    regulator_constants_table,
    trivial_lattice,
)

# Name -> permutation generators in one-line image notation.
LADDER = {
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D8": [[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]],
    "C2_4": [
        [1, 0, 2, 3, 4, 5, 6, 7],
        [0, 1, 3, 2, 4, 5, 6, 7],
        [0, 1, 2, 3, 5, 4, 6, 7],
        [0, 1, 2, 3, 4, 5, 7, 6],
    ],
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "C2xS4": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]],
}


def pick_coset_classes(table, rng):
    """One class K for each of the three smallest proper non-trivial orders.

    Fixing the orders keeps the module ranks |G/K|, and so the work, the same
    for every seed; the seed only chooses among classes of equal order.
    """
    by_order = {}
    for ci, cls in enumerate(table):
        if 1 < cls.order < table.group.order:
            by_order.setdefault(cls.order, []).append(ci)
    return [rng.choice(by_order[o]) for o in sorted(by_order)[:3]]


def _rat(x):
    return f"{x.numerator}/{x.denominator}"


def run_group(name, rng):
    t0 = time.perf_counter()
    group = group_from_generators(LADDER[name])
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    regular = regulator_constants_table(basis, regular_lattice(group))
    trivial = regulator_constants_table(basis, trivial_lattice(group))
    cosets = {}
    for ci in pick_coset_classes(table, rng):
        lattice = permutation_lattice(group, coset_action(group, table[ci].representative))
        cosets[str(ci)] = [_rat(c) for c in regulator_constants_table(basis, lattice)]
    return {
        "name": name,
        "order": group.order,
        "classes": [
            {"order": cls.order, "cyclic": cls.is_cyclic, "rep": list(cls.representative.elements)}
            for cls in table
        ],
        "relations": [list(theta.coeffs) for theta in basis],
        "regular": [_rat(c) for c in regular],
        "trivial": [_rat(c) for c in trivial],
        "cosets": cosets,
        "s": time.perf_counter() - t0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--groups", default=",".join(LADDER))
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    out = [run_group(name, rng) for name in args.groups.split(",")]
    sys.stdout.write(json.dumps({"seed": args.seed, "groups": out}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
