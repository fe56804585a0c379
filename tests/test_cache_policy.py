"""One cache policy for groups and modules.

`grp._memo(family)` caches `fn(owner, *args)` in `owner._cache` under
`(family, *args)`. Its contract is tested on a stub owner. Every other cache on
a group or module goes through it, so no library code reads or writes
`._cache` itself; the one exception is the averaged gram, which the one
builder of signed G-set lattices, `_gset_lattice`, seeds with |G|·I and
`_averaged_gram` reads. That is read from each module's syntax tree. The exact
linear algebra keeps no cache keyed on matrix content: its one cache is
`IntMatrix.identity`'s, on the size.
"""

import ast
from pathlib import Path

import pytest

from factoreq import exactla
from factoreq.grp import _memo

SRC = Path(__file__).resolve().parent.parent / "src" / "factoreq"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


class _Owner:
    def __init__(self):
        self._cache = {}


@pytest.mark.parametrize("falsy", [0, None, (), ""])
def test_memo_computes_a_falsy_result_once(falsy):
    calls = []

    @_memo("family")
    def build(owner, x):
        calls.append(x)
        return falsy

    owner = _Owner()
    assert build(owner, 1) == falsy and build(owner, 1) == falsy
    assert calls == [1]
    assert owner._cache == {("family", 1): falsy}


def test_memo_stores_nothing_when_the_call_raises():
    calls = []

    @_memo("family")
    def build(owner, x):
        calls.append(x)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return x

    owner = _Owner()
    with pytest.raises(ValueError, match="first call fails"):
        build(owner, 3)
    assert owner._cache == {}
    assert build(owner, 3) == 3 and build(owner, 3) == 3
    assert calls == [3, 3]
    assert owner._cache == {("family", 3): 3}


def test_memo_keys_by_family_and_arguments_per_owner():
    @_memo("first")
    def first(owner, *args):
        return len(args)

    @_memo("second")
    def second(owner, *args):
        return -len(args)

    owner, other = _Owner(), _Owner()
    assert first(owner) == 0 and first(owner, "a", (1, 2)) == 2
    assert second(owner, "a", (1, 2)) == -2
    assert owner._cache == {("first",): 0, ("first", "a", (1, 2)): 2, ("second", "a", (1, 2)): -2}
    assert other._cache == {}
    assert first.__name__ == "first"


AVG_GRAM_SITES = {("zgmod.py", "_gset_lattice"), ("zgmod.py", "_averaged_gram")}


def _is_avg_gram_site(parent, node):
    """`x._cache["avg_gram"]` or `"avg_gram" (not) in x._cache`."""
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return isinstance(parent.slice, ast.Constant) and parent.slice.value == "avg_gram"
    return (
        isinstance(parent, ast.Compare) and node in parent.comparators
        and isinstance(parent.left, ast.Constant) and parent.left.value == "avg_gram"
        and all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    )


def _cache_touches(source):
    """{top-level definition: kinds} for each `._cache`: "avg_gram" at a seed or read site, else "other"."""
    out = {}
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for parent in ast.walk(top):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.Attribute) and node.attr == "_cache":
                    kind = "avg_gram" if _is_avg_gram_site(parent, node) else "other"
                    out.setdefault(name, set()).add(kind)
    return out


def test_detector_sorts_the_touches():
    source = (
        "def seed(lattice):\n    lattice._cache['avg_gram'] = 1\n"
        "def read(lattice):\n"
        "    if 'avg_gram' not in lattice._cache:\n        pass\n"
        "    return lattice._cache['avg_gram']\n"
        "def other(group):\n    return group._cache.get('subgroup_table')\n"
        "class Module:\n    def quotient(self):\n        return self._cache['quotient']\n"
        "object.__setattr__(m, '_cache', {})\n"
        "'avg_gram' in m._cache or m._cache\n"
    )
    assert _cache_touches(source) == {
        "seed": {"avg_gram"}, "read": {"avg_gram"}, "other": {"other"}, "Module": {"other"},
        "<module>": {"avg_gram", "other"},
    }


def test_modules_are_found():
    assert {"grp.py", "zgmod.py", "burnside.py", "regfe.py", "corpus.py"} <= set(MODULES)


def test_only_memo_and_the_averaged_gram_touch_module_caches():
    touches = {
        (module, name): kinds
        for module in MODULES
        for name, kinds in _cache_touches((SRC / module).read_text(encoding="utf-8")).items()
    }
    assert touches == {("grp.py", "_memo"): {"other"}, **{site: {"avg_gram"} for site in AVG_GRAM_SITES}}


def test_exactla_caches_only_the_identity():
    """Every function of exactla and every method of its classes, by `cache_clear`."""
    cached = {name for name, value in vars(exactla).items() if hasattr(value, "cache_clear")}
    for name, cls in vars(exactla).items():
        if isinstance(cls, type) and cls.__module__ == exactla.__name__:
            cached |= {f"{name}.{attr}" for attr in vars(cls) if hasattr(getattr(cls, attr), "cache_clear")}
    assert cached == {"IntMatrix.identity"}
