"""Every function the benchmark's traced launcher rebinds must exist.

`bench/launch.py` looks each name of its TRACED table up on
`factoreq.<module>` when it starts, so a deleted or renamed function breaks
every traced benchmark run. The launcher also reads `sys.modules` right after
`import factoreq.cli`, so that import must load every traced module. The table
is read from the file's syntax tree; the launcher itself is not run.

A traced name that no library module uses any more makes its per-layer
metrics read 0 on every workload, so the set of such names is pinned too.

The benchmark's other scripts import names from `factoreq` directly; those
imports are read from each script's syntax tree and must resolve as well.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = ROOT / "bench" / "launch.py"
SRC = ROOT / "src" / "factoreq"

# Kept only for the benchmark's tracer; the next benchmark change drops them.
# `gram_determinant` stays public and tested: class Gram matrices now come
# from `zgmod._fixed_gram`, down the chain of fixed sublattices.
UNUSED_BY_LIBRARY = {
    "exactla.rational_solve", "exactla.invariant_factors", "zgmod.fp_fixed_lattice",
    "exactla.gram_determinant",
}


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


def _bench_imports():
    """(script, module, name) for every `from factoreq... import name` in bench/*.py."""
    out = []
    for script in sorted(LAUNCH.parent.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "factoreq":
                out.extend((script.name, node.module, alias.name) for alias in node.names)
    return out


BENCH_IMPORTS = _bench_imports()


def test_bench_imports_are_read():
    assert {script for script, _, _ in BENCH_IMPORTS} >= {"ladder.py", "oracle.py", "workloads.py"}


@pytest.mark.parametrize("script,module,name", BENCH_IMPORTS)
def test_bench_import_resolves(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script}: from {module} import {name}"


def _references(source):
    """Names a module reads (calls or passes on) outside their own top-level definition."""
    used = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                used.add(name)
    return used


def test_reference_scan_skips_self_use():
    source = "def f(n):\n    return f(n - 1)\n\n\ndef g():\n    return m.h(k)\n"
    assert _references(source) == {"n", "m", "h", "k"}


def test_traced_names_unused_by_library_are_pinned():
    # `__init__.py` is left out: its imports only re-export public names.
    used = set().union(*(
        _references(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py") if p.name != "__init__.py"
    ))
    assert {q for q in TRACED if q.split(".")[1] not in used} == UNUSED_BY_LIBRARY


def test_cli_start_path_is_eager_and_light():
    # dataclasses pulls in inspect, dis, ast and tokenize: ~15 ms per CLI call.
    probe = (
        "import factoreq.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules)); "
        f"print(' '.join(m for m in {sorted(_traced_table())!r} if 'factoreq.' + m not in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    heavy, missing = out.split("\n")[:2]
    assert heavy == "", f"start path imports {heavy}"
    assert missing == "", f"import factoreq.cli leaves out {missing}"
