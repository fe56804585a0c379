"""Time and peak memory of C_Θ(Z[G]) at orders 144, 240 and 720, one fresh process per group.

    python3 tools/scale.py

For each group of `GROUPS` (S4×S3, C2×S5 and S6) a child process runs
`child`: it builds the group from its generators, the subgroup class table
and the Brauer relation basis (the set-up), then the regulator constants of
the regular lattice Z[G] over that basis (the table). Z[G] is a permutation
lattice and K(G) is the kernel of the fixed-point map, so every constant is
1; the child checks that, prints one JSON line (order, class count, set-up
and table seconds, and its own peak resident set `ru_maxrss` in MB) and
exits 1 on a wrong constant. A forked child's peak starts at its parent's
resident set, so this process imports nothing from factoreq. It exits 1 if
any child did not exit 0.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Name -> permutation generators in one-line image notation.
GROUPS = {
    "S4xS3": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 0, 4, 5, 6], [0, 1, 2, 3, 5, 4, 6], [0, 1, 2, 3, 5, 6, 4]],
    "C2xS5": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 0, 5, 6], [0, 1, 2, 3, 4, 6, 5]],
    "S6": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]],
}


def child(gens):
    """Set up G from `gens`, compute C_Θ(Z[G]) over its Brauer basis and print one JSON line.

    Returns 0 if every constant is 1, else 1.
    """
    from factoreq import (
        all_subgroups,
        brauer_relation_basis,
        group_from_generators,
        regular_lattice,
        regulator_constants_table,
    )

    t0 = time.perf_counter()
    group = group_from_generators(gens)
    classes = len(all_subgroups(group))
    basis = brauer_relation_basis(group)
    t1 = time.perf_counter()
    constants = regulator_constants_table(basis, regular_lattice(group))
    t2 = time.perf_counter()
    ok = all(c == 1 for c in constants)
    print(json.dumps({
        "order": group.order,
        "classes": classes,
        "setup_s": round(t1 - t0, 3),
        "table_s": round(t2 - t1, 3),
        "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "ok": ok,
    }), flush=True)
    return 0 if ok else 1


def main():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "tools"), str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    status = 0
    for name in GROUPS:
        code = f"import scale; raise SystemExit(scale.child(scale.GROUPS[{name!r}]))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
        print(f"{name}: {proc.stdout.strip()}", flush=True)
        if proc.returncode:
            print(f"{name}: child exited {proc.returncode}", flush=True)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
