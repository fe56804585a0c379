"""Every name a library module imports is used in that module.

Read from each module's syntax tree; `__init__.py` is left out, since its
imports are the package's public names. Those must be exactly `__all__`, so a
deleted name cannot stay in one list and leave the other.
"""

import ast
from pathlib import Path

import pytest

import factoreq

SRC = Path(__file__).resolve().parent.parent / "src" / "factoreq"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by an import anywhere in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "*"
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_flags_an_unused_import():
    source = "import os.path\nimport math as m\nfrom x import a, b\n\ndef f():\n    from y import c\n    return m.pi + a\n"
    assert _unused_imports(source) == ["b", "c", "os"]


def test_modules_are_found():
    assert {"exactla.py", "regfe.py", "zgmod.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []



def test_all_lists_exactly_the_reexported_names():
    """`__all__` is what `__init__.py` imports from the package's modules, and `__version__`."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    reexported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(factoreq.__all__)) == len(factoreq.__all__)
    assert set(factoreq.__all__) == reexported | {"__version__"}
