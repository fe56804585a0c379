"""Only zgmod asks whether a module is an FpModule; only grp asks whether a value is a Subgroup.

Every other library module reaches M/tors and M^H/tors through
`lattice_quotient()` and the fixed-point routines, which answer for both
kinds, so the kind of a module is decided in one place. Likewise every
subgroup argument goes through `grp._subgroup`, which takes a Subgroup of
the group or an element set of one. Read from each module's syntax tree.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "factoreq"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "zgmod.py")
NOT_GRP = sorted(p.name for p in SRC.glob("*.py") if p.name != "grp.py")


def _kind_checks(source, name="FpModule"):
    """Line numbers of `isinstance(x, <name>)` calls, the class alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            if (isinstance(kind, ast.Name) and kind.id == name) or (
                isinstance(kind, ast.Attribute) and kind.attr == name
            ):
                lines.append(node.lineno)
    return lines


def test_detector_flags_fp_module_checks():
    source = (
        "if isinstance(m, FpModule) or isinstance(n, (int, zgmod.FpModule)):\n"
        "    pass\n"
        "isinstance(m, ZGLattice)\n"
    )
    assert _kind_checks(source) == [1, 1]


def test_detector_flags_subgroup_checks():
    source = (
        "if not isinstance(h, Subgroup):\n"
        "    h = Subgroup(group, h)\n"
        "isinstance(h, (tuple, grp.Subgroup)) or isinstance(h, SubgroupClass)\n"
    )
    assert _kind_checks(source, "Subgroup") == [1, 3]


def test_modules_are_found():
    assert {"regfe.py", "arith.py", "suites.py"} <= set(MODULES)
    assert {"zgmod.py", "burnside.py", "arith.py"} <= set(NOT_GRP)


@pytest.mark.parametrize("module", MODULES)
def test_only_zgmod_checks_for_fp_modules(module):
    assert _kind_checks((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", NOT_GRP)
def test_only_grp_checks_for_subgroups(module):
    assert _kind_checks((SRC / module).read_text(encoding="utf-8"), "Subgroup") == []
