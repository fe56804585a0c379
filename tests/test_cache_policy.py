"""One cache policy for groups and modules.

`grp._memo(family)` caches `fn(owner, *args)` in `owner._cache` under
`(family, *args)`. Its contract is tested on a stub owner. Every other cache on
a group or module goes through it, so no library code reads or writes
`._cache` itself; the one exception is the averaged gram, which the one
builder of signed G-set lattices, `_gset_lattice`, seeds with |G|·I and
`_averaged_gram` reads. That is read from each module's syntax tree. The exact
linear algebra keeps no cache keyed on matrix content: its one cache is
`IntMatrix.identity`'s, on the size.

Its other half is one immutability rule, `grp._Frozen`: every record a memo
entry lives on, is keyed by or holds refuses assignment and `del`, so no entry
goes stale after it is stored.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from factoreq import (
    BrauerRelationBasis,
    BurnsideElement,
    FiniteGroup,
    IntMatrix,
    InvariantPairing,
    PermAction,
    Subgroup,
    SubgroupClassTable,
    all_subgroups,
    averaged_pairing,
    brauer_relation_basis,
    corpus_group,
    corpus_names,
    coset_action,
    exactla,
    regular_lattice,
    regulator_constants_table,
)
from factoreq.grp import _Frozen, _memo
from factoreq.zgmod import _Module

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


# --- the immutability rule ----------------------------------------------------------

FROZEN_TYPES = (
    IntMatrix, FiniteGroup, Subgroup, PermAction, BurnsideElement, _Module,
    InvariantPairing, BrauerRelationBasis, SubgroupClassTable,
)


def test_one_base_defines_the_guard():
    defined = {
        (module, top.name, item.name)
        for module in MODULES
        for top in ast.parse((SRC / module).read_text(encoding="utf-8")).body
        if isinstance(top, ast.ClassDef)
        for item in top.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__setattr__", "__delattr__")
    }
    assert defined == {("grp.py", "_Frozen", "__setattr__"), ("grp.py", "_Frozen", "__delattr__")}
    assert all(issubclass(cls, _Frozen) for cls in FROZEN_TYPES)


def _fields(obj):
    """Every slot of the object's classes and every key of its `__dict__`."""
    slots = {name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())}
    return sorted(slots | set(getattr(obj, "__dict__", ())))


@pytest.mark.parametrize("build,fields", [
    (lambda g: g, {"order", "table", "inverse", "element_classes", "class_of_element", "_cache"}),
    (lambda g: g.trivial_subgroup(), {"group", "elements", "_set"}),
    (lambda g: coset_action(g, g.trivial_subgroup()), {"group", "size", "images"}),
    (lambda g: brauer_relation_basis(g)[0], {"group", "coeffs"}),
    (lambda g: averaged_pairing(regular_lattice(g)), {"module", "gram"}),
    (brauer_relation_basis, {"group"}),
    (all_subgroups, {"group"}),
], ids=["FiniteGroup", "Subgroup", "PermAction", "BurnsideElement", "InvariantPairing",
        "BrauerRelationBasis", "SubgroupClassTable"])
def test_records_refuse_assignment_and_deletion(build, fields):
    obj = build(corpus_group("V4"))
    assert set(_fields(obj)) == fields
    before = {name: getattr(obj, name) for name in fields}
    for name in (*sorted(fields), "extra"):
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            delattr(obj, name)
    assert all(getattr(obj, name) is value for name, value in before.items())


@pytest.mark.parametrize("table", [brauer_relation_basis, all_subgroups])
def test_memoized_tables_keep_their_group(table):
    v4, s3 = corpus_group("V4"), corpus_group("S3")
    record = table(v4)
    with pytest.raises(AttributeError, match=f"{type(record).__name__} is immutable"):
        record.group = s3
    with pytest.raises(AttributeError, match=f"{type(record).__name__} is immutable"):
        del record.group
    assert table(v4) is record and record.group is v4
    assert regulator_constants_table(brauer_relation_basis(v4), regular_lattice(v4))


def _immutable_parts(x, modules):
    """True iff `x` is built only from ints, Fractions, strings, None, `_Frozen` records,
    and tuples or frozensets of these; every module met is appended to `modules`.

    A tuple subclass whose instances take new attributes counts only if it is `_Frozen`.
    """
    if isinstance(x, (tuple, frozenset)):
        if type(x) not in (tuple, frozenset) and hasattr(x, "__dict__") and not isinstance(x, _Frozen):
            return False
        return all(_immutable_parts(y, modules) for y in x)
    if isinstance(x, _Module):
        modules.append(x)
    return x is None or isinstance(x, (int, Fraction, str, _Frozen))


def test_detector_refuses_mutable_parts():
    class Record(tuple):
        pass

    class Frozen(_Frozen, tuple):
        pass

    assert _immutable_parts((1, Fraction(1, 2), True, "s", None, frozenset({(2,)})), [])
    assert _immutable_parts(Frozen((IntMatrix.identity(1),)), [])
    for bad in ([1], {1: 2}, {1}, (1, [2]), Record((1,)), object()):
        assert not _immutable_parts(bad, [])


def test_every_memo_entry_is_immutable(suite_report):
    """After `verify all`, every key and value in the corpus groups' caches, and in
    the caches of every module found there, is built from immutable parts."""
    owners = [corpus_group(name) for name in corpus_names()]
    seen, families = set(), set()
    for owner in owners:  # grows as modules are found
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for key, value in owner._cache.items():
            families.add(key if isinstance(key, str) else key[0])
            assert _immutable_parts(key, owners), (owner, key)
            assert _immutable_parts(value, owners), (owner, key)
    assert len(seen) > len(corpus_names())
    assert {"subgroup_table", "brauer_basis", "gset_lattice", "fixed", "avg_gram"} <= families
