"""A long seeded run of the CLI fuzz generator over group, module and relation documents.

    python3 tools/fuzz_cli.py

Case i of the `CASES` cases is of kind `KINDS[i % 3]`, drawn by `_case` from
`tests/test_cli_fuzz.py` (whose tier-1 slices run a few hundred cases of each
kind) with a `random.Random(SEED)` stream, and is judged by that file's
`_outcome`: it escapes when `factoreq.cli.main` raises, exits other than 0, 2
or 3, or exits non-zero with other than one stderr line or with a traceback.
The script prints each escape and the count of each exit code, and exits 1 if
any case escaped.
"""

import json
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_cli_fuzz import KINDS, LATTICE, _case, _outcome  # noqa: E402

CASES = 10_000
SEED = 1


def main():
    rng, codes, escapes = random.Random(SEED), Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        lattice = Path(tmp) / "lattice.json"
        lattice.write_text(json.dumps(LATTICE))
        for i in range(CASES):
            code, escape = _outcome(*_case(KINDS[i % len(KINDS)], rng, i, str(lattice)))
            codes[code] += 1
            if escape:
                escapes.append(escape)
    for escape in escapes:
        print(f"escape: {escape}")
    print(f"{CASES} cases, seed {SEED}; exit codes "
          + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items(), key=str))
          + f"; {len(escapes)} escapes")
    return 1 if escapes else 0


if __name__ == "__main__":
    raise SystemExit(main())
