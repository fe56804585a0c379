"""Burnside-ring elements, fixed-point counts, and Brauer relations.

K(G), the lattice of Brauer relations, is computed as the integer kernel of
the fixed-point matrix: a virtual permutation representation vanishes exactly
when all its fixed-point counts cancel, so no character theory is needed.
The fixed-point matrix, the relation basis and each coset table are memoized
on the group (`grp._memo`); `coset_action` checks its subgroup before its lookup.
"""

from operator import index as _as_int, mul

from .exactla import IntMatrix, _snf_engine, column_lattice_basis, integer_kernel
from .grp import GroupError, _Frozen, _generators, _memo, _subgroup, all_subgroups, left_cosets


class RelationError(ValueError):
    """Raised when a Burnside element fails a Brauer-relation precondition."""


class PermAction(_Frozen):
    """A G-action on {0..size-1}: one permutation (tuple of images) per element.

    `images[g][x]` is g·x. Checked: the identity fixes every point, and
    images[a·s] = images[a]∘images[s] for every a in G and s in `grp._generators`.
    """

    __slots__ = ("group", "size", "images")

    def __init__(self, group, images):
        images = tuple(tuple(_as_int(x) for x in p) for p in images)
        if len(images) != group.order:
            raise GroupError("need one permutation per group element")
        size = len(images[0])  # a group has at least one element
        for p in images:
            if len(p) != size or sorted(p) != list(range(size)):
                raise GroupError("not a permutation")
        if images[0] != tuple(range(size)) or any(
            images[group.table[a][s]] != tuple(map(images[a].__getitem__, images[s]))
            for s in _generators(group) for a in range(group.order)
        ):
            raise GroupError("permutations are not a left action")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "images", images)

    def fixed_point_count(self, g):
        img = self.images[g]
        return sum(1 for x in range(self.size) if img[x] == x)

    def orbits(self, elements=None):
        """Orbits under a subgroup of G or the element set of one (default: all of G).

        The orbit of x is its image {h·x : h ∈ H}, read off H's element list;
        returned as sorted tuples, ordered by least point.
        """
        group = self.group
        elements = range(group.order) if elements is None else _subgroup(group, elements)
        perms = [self.images[g] for g in elements]
        seen, out = set(), []
        for x in range(self.size):
            if x not in seen:
                orbit = {p[x] for p in perms}
                seen |= orbit
                out.append(tuple(sorted(orbit)))
        return out

    def disjoint_union(self, other):
        if other.group is not self.group:
            raise GroupError("actions live over different groups")
        off = self.size
        images = tuple(
            tuple(p) + tuple(off + q[i] for i in range(other.size))
            for p, q in zip(self.images, other.images)
        )
        return PermAction(self.group, images)


def coset_action(group, subgroup):
    """Left-multiplication action of G on the cosets G/H, ordered by least element; cached."""
    # Checked before the lookup: a foreign subgroup may have the same element tuple.
    return _coset_action(group, _subgroup(group, subgroup).elements)


@_memo("coset_action")
def _coset_action(group, elems):
    cosets = left_cosets(group, elems)
    coset_of = [0] * group.order
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i
    return PermAction(group, tuple(
        tuple(coset_of[group.table[g][coset[0]]] for coset in cosets)
        for g in range(group.order)
    ))


class BurnsideElement(_Frozen):
    """Integer coefficient vector over the subgroup classes of a group."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        coeffs = tuple(_as_int(x) for x in coeffs)
        if len(coeffs) != len(all_subgroups(group)):
            raise RelationError("coefficient count does not match subgroup class count")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, group):
        return cls(group, (0,) * len(all_subgroups(group)))

    def _same_group(self, other):
        if not isinstance(other, BurnsideElement) or other.group is not self.group:
            raise RelationError("Burnside elements live over different groups")

    def __add__(self, other):
        self._same_group(other)
        return BurnsideElement(self.group, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._same_group(other)
        return BurnsideElement(self.group, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return BurnsideElement(self.group, (-a for a in self.coeffs))

    def __mul__(self, scalar):
        return BurnsideElement(self.group, (_as_int(scalar) * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, BurnsideElement)
            and self.group is other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.group), self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def support(self):
        return tuple((i, c) for i, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"BurnsideElement{self.coeffs}"


@_memo("fixed_point_matrix")
def fixed_point_matrix(group):
    """Rows: element conjugacy classes; columns: subgroup classes.

    Entry (c, K) counts the fixed points of a class-c element g acting on
    G/K. The coset xK is fixed by g iff x⁻¹gx ∈ K, so that count is
    |G|·|c ∩ K| / (|c|·|K|), read off one pass over K's elements. Cached per
    group.
    """
    n, classes = group.order, group.element_classes
    columns = []
    for cls in all_subgroups(group):
        k = cls.representative.elements
        meet = [0] * len(classes)
        for x in k:
            meet[group.class_of_element[x]] += 1
        columns.append(tuple(n * hits // (len(c) * len(k)) for hits, c in zip(meet, classes)))
    return IntMatrix._trusted(tuple(zip(*columns)), len(columns))


class BrauerRelationBasis(_Frozen, tuple):
    """A Z-basis of K(G): a tuple of verified, sign-normalized relations.

    It carries `group` too, since an empty basis has no relation to read it from.
    """

    def __new__(cls, group, relations):
        basis = super().__new__(cls, relations)
        for theta in basis:
            if theta.group is not group or not is_brauer_relation(theta):
                raise RelationError("basis vector is not a Brauer relation of this group")
        object.__setattr__(basis, "group", group)
        return basis

    @property
    def rank(self):
        return len(self)


@_memo("brauer_basis")
def brauer_relation_basis(group):
    """Basis of K(G) = integer kernel of the fixed-point matrix; cached per group."""
    # SNF, not HNF: the report carries these vectors (ROADMAP item 2, step 1, done) and
    # corpus-verify pins them until item 2's benchmark step; item 3 then makes them canonical.
    d, v = _snf_engine(fixed_point_matrix(group))
    r = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i])
    relations = []
    for col in list(zip(*v))[r:]:
        vec = list(col)
        lead = next((x for x in vec if x), 0)
        if lead < 0:
            vec = [-x for x in vec]
        relations.append(BurnsideElement(group, vec))
    return BrauerRelationBasis(group, relations)


def is_brauer_relation(theta):
    """True iff all fixed-point counts of the virtual G-set cancel."""
    return all(sum(map(mul, row, theta.coeffs)) == 0 for row in fixed_point_matrix(theta.group)._data)


def relation_is_saturated(basis):
    """True iff the basis spans K(G) itself, so a rank-deficient basis is False.

    A second route to the Smith form's kernel: the Hermite bases of the
    basis's span and of `integer_kernel(F)` must be equal.
    """
    m = IntMatrix.from_columns(
        [theta.coeffs for theta in basis],
        rows=len(all_subgroups(basis.group)),
    )
    kernel = integer_kernel(fixed_point_matrix(basis.group))
    return column_lattice_basis(m) == column_lattice_basis(kernel)
