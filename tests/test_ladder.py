"""The scaling ladder's answers are pinned.

`bench/ladder.py --seed 0` builds A4, D8, C2^4, S4 and C2×S4 in a fresh
process and prints their subgroup classes, Brauer relation bases and the
regulator constants of Z[G], Z and three coset lattices Z[G/K]. Its JSON,
without the per-group timings `s`, must equal `golden/ladder_seed0.json`, so
a change to the fixed-point chain that moves any class, relation or constant
at these sizes fails here. The benchmark script is only run, never changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _without_timings(obj):
    if isinstance(obj, dict):
        return {k: _without_timings(v) for k, v in obj.items() if k != "s"}
    if isinstance(obj, list):
        return [_without_timings(v) for v in obj]
    return obj


def test_ladder_seed0_matches_golden():
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ladder.py"), "--seed", "0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    want = json.loads((ROOT / "tests" / "golden" / "ladder_seed0.json").read_text(encoding="utf-8"))
    assert _without_timings(json.loads(proc.stdout)) == want
