"""Every name a library module imports is used in that module.

Read from each module's syntax tree; `__init__.py` is left out, since its
imports are the package's public names. Those must be exactly `__all__`, so a
deleted name cannot stay in one list and leave the other. The public names,
and the public methods, properties and NamedTuple fields of public classes,
that neither the library nor the benchmark scripts read are pinned as well.
"""

import ast
from pathlib import Path

import pytest

import factoreq
from test_traced_names import _references

SRC = Path(__file__).resolve().parent.parent / "src" / "factoreq"
BENCH = SRC.parent.parent / "bench"
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


# Public names that only tests call: candidates for deletion, pinned so that
# a new one shows up here.
TEST_ONLY_PUBLIC = {"gram_determinant", "invariant_factors", "rational_solve"}


def test_public_names_used_only_by_tests_are_pinned():
    sources = [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    used = set().union(*(_references(p.read_text(encoding="utf-8")) for p in sources))
    assert set(factoreq.__all__) - used - {"__version__"} == TEST_ONLY_PUBLIC


def _public_members(source):
    """`Class.member` for each public method, property or annotated field of a public class."""
    out = set()
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                out.add(f"{node.name}.{name}")
    return out


def _attributes_read(source):
    """Every attribute name `source` reads, as in `x.name`, whatever the type of x."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def test_member_scan_finds_methods_properties_and_fields():
    source = (
        "class Rec(NamedTuple):\n    ok: bool\n    _hidden: int\n\n"
        "class Box:\n    size = 0\n    @property\n    def rank(self):\n        return self.size\n"
        "    def grow(self):\n        pass\n    def __len__(self):\n        return 0\n\n"
        "class _Private:\n    def run(self):\n        pass\n"
    )
    assert _public_members(source) == {"Rec.ok", "Box.rank", "Box.grow"}
    assert _attributes_read(source) == {"size"}


# Members that no library or benchmark code reads: test oracles and answer
# fields, pinned so that a new one shows up here. A member counts as read
# when any attribute of its name is read, so `SUnitIndexCheck.index` passes
# on `list.index`; the pin catches new names, not every unread one.
TEST_ONLY_MEMBERS = {
    "ClosedFormCheck.lhs", "ClosedFormCheck.rhs", "FiniteGroup.full_subgroup",
    "KGroupCheck.constants", "LemmaCheck.lhs", "LemmaCheck.rhs",
    "PermAction.fixed_point_count", "SUnitIndexCheck.expected",
    "Subgroup.conjugate_by", "Subgroup.normalizer",
}


def test_public_members_read_only_by_tests_are_pinned():
    library = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    members = set().union(*(_public_members(p.read_text(encoding="utf-8")) for p in library))
    read = set().union(*(
        _attributes_read(p.read_text(encoding="utf-8")) for p in library + sorted(BENCH.glob("*.py"))
    ))
    assert {m for m in members if m.split(".")[1] not in read} == TEST_ONLY_MEMBERS
