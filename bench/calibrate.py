"""A fixed job that measures how fast the host runs Python right now.

    python3 bench/calibrate.py

The harness runs it as a child next to every timed operation and divides the
operation's wall time by this job's (see run.py).  It starts the interpreter,
imports the standard-library modules factoreq's CLI imports and does exact
integer and rational arithmetic of a fixed size, so it slows down with the
host the way a factoreq child does.  It imports nothing from factoreq: a
change to the program must not change the yardstick.
"""

import argparse  # noqa: F401  the CLI's start-up imports
import dataclasses  # noqa: F401
import json  # noqa: F401
import random
from fractions import Fraction


def bareiss_determinant(rows):
    """Fraction-free elimination, the kind of loop factoreq's kernels run."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def main():
    rng = random.Random(0)
    total = Fraction(0)
    for _ in range(6):
        m = [[rng.randint(-9, 9) for _ in range(20)] for _ in range(20)]
        total += Fraction(bareiss_determinant(m), 1 + rng.randint(1, 99))
    print(total.numerator % 1000003)


if __name__ == "__main__":
    main()
