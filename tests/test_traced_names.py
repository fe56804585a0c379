"""Every function the benchmark's traced launcher rebinds must exist.

`bench/launch.py` looks each name of its TRACED table up on
`factoreq.<module>` when it starts, so a deleted or renamed function breaks
every traced benchmark run. The table is read from the file's syntax tree;
the launcher itself is not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parent.parent / "bench" / "launch.py"


def _traced_table():
    for node in ast.parse(LAUNCH.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAUNCH} defines no TRACED table")


TRACED = [f"{module}.{name}" for module, names in _traced_table().items() for name in names]


def test_traced_table_is_read():
    assert TRACED and len(set(TRACED)) == len(TRACED)


@pytest.mark.parametrize("qualname", TRACED)
def test_traced_name_resolves(qualname):
    module, name = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"factoreq.{module}"), name, None)), qualname
