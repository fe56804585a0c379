"""Only zgmod asks whether a module is an FpModule.

Every other library module reaches M/tors and M^H/tors through
`lattice_quotient()` and the fixed-point routines, which answer for both
kinds, so the kind of a module is decided in one place. Read from each
module's syntax tree.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "factoreq"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "zgmod.py")


def _fp_kind_checks(source):
    """Line numbers of `isinstance(x, FpModule)` calls, FpModule alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            if (isinstance(kind, ast.Name) and kind.id == "FpModule") or (
                isinstance(kind, ast.Attribute) and kind.attr == "FpModule"
            ):
                lines.append(node.lineno)
    return lines


def test_detector_flags_fp_module_checks():
    source = (
        "if isinstance(m, FpModule) or isinstance(n, (int, zgmod.FpModule)):\n"
        "    pass\n"
        "isinstance(m, ZGLattice)\n"
    )
    assert _fp_kind_checks(source) == [1, 1]


def test_modules_are_found():
    assert {"regfe.py", "arith.py", "suites.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_only_zgmod_checks_for_fp_modules(module):
    assert _fp_kind_checks((SRC / module).read_text(encoding="utf-8")) == []
