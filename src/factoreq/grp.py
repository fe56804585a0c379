"""Finite groups as Cayley tables, with subgroup and conjugacy machinery.

Element 0 is always the identity. Groups are built either by closing a set of
permutations under composition or from an explicit multiplication table.
Beside the one cache policy, `_memo`, is the one immutability rule, `_Frozen`:
what a memo entry lives on, is keyed by or holds refuses assignment and `del`.
"""

from functools import wraps
from operator import index as _as_int, itemgetter
from typing import NamedTuple


class GroupError(ValueError):
    """Raised for invalid group data or exceeded size bounds."""


CLOSURE_BOUND = 2000
_MISSING = object()


def _memo(family):
    """Cache `fn(owner, *args)` in `owner._cache` under `(family, *args)`.

    The one cache policy of groups and modules. A miss is a lookup that gives
    `_MISSING`, so falsy results are cached too; a raising call stores nothing.
    """

    def decorate(fn):
        @wraps(fn)
        def cached(owner, *args):
            cache, key = owner._cache, (family, *args)
            result = cache.get(key, _MISSING)
            if result is _MISSING:
                result = cache[key] = fn(owner, *args)
            return result

        return cached

    return decorate


class _Frozen:
    """Base of every immutable record; its constructor sets each field once by `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class FiniteGroup(_Frozen):
    """Immutable group given by its multiplication table.

    `table[a][b]` is the product a*b. Construction validates the axioms
    exactly, associativity by Light's test on generators (`_validate_table`).
    """

    __slots__ = ("order", "table", "inverse", "element_classes",
                 "class_of_element", "_cache")

    def __init__(self, table, check=True):
        table = tuple(tuple(_as_int(x) for x in row) for row in table)
        n = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        if any(len(row) != n for row in table):
            raise GroupError("multiplication table is not square")
        if check:
            _validate_table(table)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", table)
        inv = tuple(row.index(0) for row in table)
        object.__setattr__(self, "inverse", inv)
        classes, class_of = _element_classes(table, inv)
        object.__setattr__(self, "element_classes", classes)
        object.__setattr__(self, "class_of_element", class_of)
        object.__setattr__(self, "_cache", {})

    def conj(self, x, g):
        """x * g * x^-1."""
        return self.table[self.table[x][g]][self.inverse[x]]

    def element_order(self, g):
        acc, k = g, 1
        while acc != 0:
            acc = self.table[acc][g]
            k += 1
        return k

    def trivial_subgroup(self):
        return Subgroup(self, (0,))

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def closure(self, gens):
        """Subgroup generated by the given elements."""
        return Subgroup(self, _generated(self.table, tuple(gens)))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _generated(table, gens):
    """Sorted elements of <gens>: the identity's orbit under right multiplication.

    In a finite group every inverse is a positive power, so products of the
    generators alone reach the whole subgroup.
    """
    elems = {0}
    queue = [0]
    for x in queue:
        row = table[x]
        for g in gens:
            y = row[g]
            if y not in elems:
                elems.add(y)
                queue.append(y)
    return tuple(sorted(elems))


def _greedy_generators(table, elems):
    """Greedy generators of `elems`, the chain parent <gens[:-1]> and the span <gens>.

    Each generator is the first element outside the span so far; in a group it
    at least doubles the span, so a subgroup needs at most log2 |elems| and they
    span it. The loop stops before one more: a span other than `elems` refuses.
    """
    gens, span, parent = [], (0,), None
    for g in elems:
        if g not in span:
            if 2 << len(gens) > len(elems):
                break
            gens.append(g)
            parent, span = span, _generated(table, tuple(gens))
    return tuple(gens), parent, span


@_memo("generating_set")
def _generating_set(group, elems):
    """Greedy generators of the checked subgroup `elems` and the chain parent (None if trivial)."""
    return _greedy_generators(group.table, elems)[:2]


def _generators(group):
    """Greedy generators of the whole group, cached by `_generating_set`."""
    return _generating_set(group, tuple(range(group.order)))[0]


def _validate_table(table):
    n = len(table)
    rng = tuple(range(n))
    if any(not 0 <= x < n for row in table for x in row):
        raise GroupError("table entry out of range")
    for a in rng:
        if table[0][a] != a or table[a][0] != a:
            raise GroupError("element 0 is not an identity")
        if len(set(table[a])) != n:
            raise GroupError("table row is not a permutation")
        if len({table[b][a] for b in rng}) != n:
            raise GroupError("table column is not a permutation")
    # Light's test: the s with row(a·s) = row(a)∘row(s) for every a are closed
    # under products, so generators whose products reach every element suffice.
    # itemgetter composes in C; a generator means n ≥ 2 indices, so it gives a tuple.
    gens, _, span = _greedy_generators(table, rng)
    if span != rng or any(table[table[a][s]] != compose(table[a])
                          for s in gens for compose in (itemgetter(*table[s]),) for a in rng):
        raise GroupError("multiplication table is not associative")


def _element_classes(table, inv):
    n = len(table)
    class_of = [-1] * n
    classes = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = sorted({table[table[x][g]][inv[x]] for x in range(n)})
        idx = len(classes)
        for h in orbit:
            class_of[h] = idx
        classes.append(tuple(orbit))
    return tuple(classes), tuple(class_of)


class Subgroup(_Frozen):
    """A validated subgroup, stored as a sorted element tuple."""

    __slots__ = ("group", "elements", "_set")

    def __init__(self, group, elements):
        elements = tuple(sorted(set(_as_int(x) for x in elements)))
        eset = frozenset(elements)
        if 0 not in eset:
            raise GroupError("subgroup does not contain the identity")
        if elements[0] < 0 or elements[-1] >= group.order:  # before any table lookup
            raise GroupError("subgroup element out of range")
        if _greedy_generators(group.table, elements)[2] != elements:
            raise GroupError("element set is not closed under multiplication")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_set", eset)

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self._set

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.group), self.elements))

    def is_cyclic(self):
        return any(self.group.element_order(g) == self.order for g in self.elements)

    def conjugate_by(self, x):
        g = self.group
        return Subgroup(g, (g.conj(x, h) for h in self.elements))

    def normalizer(self):
        g = self.group
        return Subgroup(
            g,
            (x for x in range(g.order) if all(g.conj(x, h) in self._set for h in self.elements)),
        )

    def __repr__(self):
        return f"Subgroup{self.elements}"


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups."""

    representative: Subgroup
    members: tuple  # sorted element tuples of every conjugate
    is_cyclic: bool

    @property
    def order(self):
        return self.representative.order


class SubgroupClassTable(_Frozen, tuple):
    """All subgroups of `group`: a tuple of its `SubgroupClass` records.

    Classes are ordered by (subgroup order, lexicographically least member),
    so class indices are canonical and stable.
    """

    def __new__(cls, group, classes):
        table = super().__new__(cls, classes)
        object.__setattr__(table, "group", group)
        return table

    def cyclic_class_count(self):
        return sum(1 for cls in self if cls.is_cyclic)


@_memo("subgroup_table")
def all_subgroups(group):
    """Enumerate all subgroups of `group` up to conjugacy.

    Cyclic extension (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005): start from the cyclic subgroups, then repeatedly extend one
    member of each new class by one outside element per coset until nothing
    new appears. A subgroup's whole conjugacy class is recorded when it is
    first seen; extending one member suffices because
    x<K, g>x^-1 = <xKx^-1, xgx^-1>. Cached per group.
    """
    n = group.order
    t, inv = group.table, group.inverse
    found = set()
    raw_classes = []
    fresh = []

    def discover(gens):
        elems = _generated(t, gens)
        if elems in found:
            return
        members = {tuple(sorted(t[t[x][h]][inv[x]] for h in elems)) for x in range(n)}
        found.update(members)
        raw_classes.append(sorted(members))
        fresh.append((elems, gens))

    for g in range(n):
        discover((g,))
    while fresh:
        frontier, fresh = fresh, []
        for elems, gens in frontier:
            done = set(elems)
            for g in range(n):
                if g in done:
                    continue
                # <K, kg> = <K, g> for every k in K: one element per coset.
                done.update(t[k][g] for k in elems)
                discover(gens + (g,))
    raw_classes.sort(key=lambda ms: (len(ms[0]), ms[0]))
    classes = []
    for ms in raw_classes:
        rep = Subgroup(group, ms[0])
        classes.append(
            SubgroupClass(representative=rep, members=tuple(ms), is_cyclic=rep.is_cyclic())
        )
    return SubgroupClassTable(group, classes)


def group_from_generators(perms, bound=CLOSURE_BOUND):
    """Close a list of permutations (arrays of images) under composition.

    Element 0 of the resulting group is the identity; the remaining elements
    are numbered in BFS discovery order, so the numbering is deterministic.
    """
    perms = [tuple(_as_int(x) for x in p) for p in perms]
    if not perms:
        raise GroupError("at least one generator is required")
    deg = len(perms[0])
    for p in perms:
        if len(p) != deg or sorted(p) != list(range(deg)):
            raise GroupError("not a permutation")
    identity = tuple(range(deg))
    elements = [identity]
    index = {identity: 0}
    for cur in elements:  # grows as it runs: breadth-first discovery order
        for p in perms:
            nxt = tuple(p[cur[i]] for i in range(deg))
            if nxt not in index:
                if len(elements) >= bound:
                    raise GroupError(f"group too large: order exceeds bound {bound}")
                index[nxt] = len(elements)
                elements.append(nxt)
    table = [
        [index[tuple(a[b[i]] for i in range(deg))] for b in elements]
        for a in elements
    ]
    # Composition of permutations is associative; skip the table check.
    return FiniteGroup(table, check=False)


def group_from_table(table):
    """Build a group from a raw Cayley table, renumbering so the identity is 0."""
    table = [list(_as_int(x) for x in row) for row in table]
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise GroupError("multiplication table is not square")
    if any(not 0 <= x < n for row in table for x in row):  # before renumbering
        raise GroupError("table entry out of range")
    ident = next(
        (e for e in range(n) if all(table[e][j] == j and table[j][e] == j for j in range(n))),
        None,
    )
    if ident is None:
        raise GroupError("table has no identity element")
    # Move the identity into slot 0, keeping all other elements in order.
    order = [ident] + [x for x in range(n) if x != ident]
    newpos = {old: new for new, old in enumerate(order)}
    return FiniteGroup([[newpos[table[a][b]] for b in order] for a in order])


class DoubleCoset(NamedTuple):
    """One H-orbit on the coset space G/K."""

    representative: int  # least group element of the representative coset
    size: int            # number of K-cosets in the orbit
    stabilizer_order: int  # |H ∩ gKg^-1| for the representative g


def _subgroup(group, h):
    """The one subgroup check: `h` itself, `Subgroup(group, h)` for an element set, or GroupError."""
    if not isinstance(h, Subgroup):
        return Subgroup(group, h)
    if h.group is not group:
        raise GroupError("subgroup belongs to a different group")
    return h


def left_cosets(group, subgroup):
    """Left cosets gH as sorted tuples, ordered by least element."""
    subgroup = _subgroup(group, subgroup)
    seen = [False] * group.order
    cosets = []
    for g in range(group.order):
        if seen[g]:
            continue
        coset = tuple(sorted(group.table[g][h] for h in subgroup.elements))
        for x in coset:
            seen[x] = True
        cosets.append(coset)
    return cosets


def double_cosets(group, h, k):
    """H-orbits on G/K with sizes and stabilizer-intersection orders."""
    h, k = _subgroup(group, h), _subgroup(group, k)
    # Its own coset lookup, so bench/oracle.py has a route that bypasses coset_action.
    cosets = left_cosets(group, k)
    coset_of = [0] * group.order
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i
    seen, out = set(), []
    for i, coset in enumerate(cosets):
        if i not in seen:
            g = coset[0]
            orbit = {coset_of[group.table[x][g]] for x in h.elements}  # the H-orbit of gK
            seen |= orbit
            stab = sum(1 for x in h.elements if group.conj(group.inverse[g], x) in k)
            out.append(DoubleCoset(representative=g, size=len(orbit), stabilizer_order=stab))
    return out
