"""`tools/scale.py`: its child entry on S4, and a parent that stays out of factoreq.

The tool itself runs S4×S3, C2×S5 and S6, which is too slow here; its child
entry is run in-process on S4, and the script is imported and only read.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import factoreq
from test_grp import LADDER

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def scale(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ as it is
    import scale

    return scale


def test_child_prints_one_line_for_s4(scale, capsys):
    assert scale.child(LADDER["S4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {"order", "classes", "setup_s", "table_s", "maxrss_mb", "ok"}
    assert (record["order"], record["classes"], record["ok"]) == (24, 11, True)
    assert record["setup_s"] >= 0 and record["table_s"] >= 0 and record["maxrss_mb"] > 0


def test_child_fails_on_a_wrong_constant(scale, capsys, monkeypatch):
    wrong = (Fraction(1), Fraction(2))
    monkeypatch.setattr(factoreq, "regulator_constants_table", lambda basis, module: wrong)
    assert scale.child(LADDER["S4"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_parent_does_not_import_factoreq():
    code = "import sys, scale; print('factoreq' in sys.modules, sorted(scale.GROUPS))"
    out = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=TOOLS, capture_output=True, text=True, check=True
    ).stdout
    assert out.split(None, 1) == ["False", "['C2xS5', 'S4xS3', 'S6']\n"]
