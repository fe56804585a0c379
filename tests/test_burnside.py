"""Fixed-point matrices and Brauer relations.

Frozen rows and relation vectors are hand-derived from coset counting; the
kernel rank is cross-checked against sympy's rank as an independent oracle.
"""

import ast
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from factoreq import (
    BrauerRelationBasis,
    BurnsideElement,
    GroupError,
    IntMatrix,
    PermAction,
    RelationError,
    Subgroup,
    all_subgroups,
    brauer_relation_basis,
    corpus_group,
    corpus_names,
    coset_action,
    fixed_point_matrix,
    group_from_generators,
    group_from_table,
    is_brauer_relation,
    regular_action,
    regulator_constants_table,
    relation_is_saturated,
    trivial_lattice,
)
from factoreq.jsonio import jsonable

# sign-normalized basis vectors over the canonical subgroup-class order
KNOWN_RELATIONS = {
    "V4": (1, -1, -1, -1, 2),
    "S3": (1, -2, -1, 2),
    "Q8": (0, 1, -1, -1, -1, 2),  # inflation of the V4 relation through Q8/Z
}
KNOWN_RANKS = {"C2": 0, "C4": 0, "C6": 0, "V4": 1, "S3": 1, "D4": 3, "Q8": 1}


def _rows_by_element_order(group):
    f = fixed_point_matrix(group)
    return {
        group.element_order(cls[0]): tuple(f.row(i))
        for i, cls in enumerate(group.element_classes)
    }


# --- fixed-point matrices ------------------------------------------------------


def test_s3_fixed_point_matrix_frozen():
    rows = _rows_by_element_order(corpus_group("S3"))
    # columns: 1, C2, C3, S3 (canonical class order)
    assert rows[1] == (6, 3, 2, 1)
    assert rows[2] == (0, 1, 0, 1)
    assert rows[3] == (0, 0, 2, 1)


def test_v4_fixed_point_matrix_frozen():
    group = corpus_group("V4")
    f = fixed_point_matrix(group)
    assert tuple(f.row(0)) == (4, 2, 2, 2, 1)
    middle_hits = []
    for i in range(1, 4):
        row = tuple(f.row(i))
        assert row[0] == 0 and row[4] == 1
        assert sorted(row[1:4]) == [0, 0, 2]
        middle_hits.append(row.index(2))
    assert sorted(middle_hits) == [1, 2, 3]  # each involution fixes its own G/H


def test_identity_row_lists_all_indexes():
    for name in corpus_names():
        group = corpus_group(name)
        table = all_subgroups(group)
        f = fixed_point_matrix(group)
        assert tuple(f.row(0)) == tuple(
            group.order // cls.order for cls in table
        )


# Permutation generators of the benchmark ladder's groups (one-line images).
LADDER_GENERATORS = {
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D8": [[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]],
    "C2_4": [[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
             [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]],
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "C2xS4": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]],
}


@pytest.mark.parametrize(
    "group",
    [corpus_group(name) for name in corpus_names()]
    + [group_from_generators(gens) for gens in LADDER_GENERATORS.values()],
    ids=list(corpus_names()) + list(LADDER_GENERATORS),
)
def test_fixed_point_matrix_matches_coset_actions(group):
    # Second route: count the fixed cosets of each class representative directly.
    table = all_subgroups(group)
    want = IntMatrix.from_columns(
        [
            [act.fixed_point_count(ecls[0]) for ecls in group.element_classes]
            for act in (coset_action(group, cls.representative) for cls in table)
        ]
    )
    assert fixed_point_matrix(group) == want


def test_columns_constant_on_subgroup_classes():
    group = corpus_group("S3")
    table = all_subgroups(group)
    f = fixed_point_matrix(group)
    for ci, cls in enumerate(table):
        for member in cls.members:
            act = coset_action(group, Subgroup(group, member))
            col = tuple(
                act.fixed_point_count(ecls[0]) for ecls in group.element_classes
            )
            assert col == tuple(f[i, ci] for i in range(f.rows))


# --- relation bases --------------------------------------------------------------


@pytest.mark.parametrize("name", corpus_names())
def test_rank_formula(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    assert basis.rank == len(table) - table.cyclic_class_count()
    assert basis.rank == KNOWN_RANKS[name]


@pytest.mark.parametrize("name", corpus_names())
def test_rank_against_sympy_nullity(name):
    group = corpus_group(name)
    f = fixed_point_matrix(group)
    m = sympy.Matrix([list(f.row(i)) for i in range(f.rows)])
    assert brauer_relation_basis(group).rank == f.cols - m.rank()


@pytest.mark.parametrize("name", ("V4", "S3", "Q8"))
def test_known_relation_vectors(name):
    basis = brauer_relation_basis(corpus_group(name))
    assert len(basis) == 1
    assert basis[0].coeffs == KNOWN_RELATIONS[name]


def test_sign_normalization():
    theta = brauer_relation_basis(corpus_group("V4"))[0]
    lead = next(c for c in theta.coeffs if c)
    assert lead > 0


@pytest.mark.parametrize("name", corpus_names())
def test_relations_have_degree_zero(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    for theta in brauer_relation_basis(group):
        assert sum(n * (group.order // table[ci].order) for ci, n in theta.support()) == 0


@pytest.mark.parametrize("name", corpus_names())
def test_basis_is_saturated(name):
    basis = brauer_relation_basis(corpus_group(name))
    assert relation_is_saturated(basis)
    if basis.rank:
        doubled = [2 * basis[0]] + list(basis)[1:]
        assert not relation_is_saturated(BrauerRelationBasis(basis.group, doubled))
        summed = list(basis)
        summed[0] = summed[0] + summed[-1] * 3 if len(summed) > 1 else -summed[0]
        assert relation_is_saturated(BrauerRelationBasis(basis.group, summed))
        m = sympy.Matrix([list(theta.coeffs) for theta in basis]).T
        sm = sympy_snf(m)
        diag = [abs(sm[i, i]) for i in range(min(sm.rows, sm.cols)) if sm[i, i]]
        assert diag == [1] * basis.rank


@pytest.mark.parametrize("name", corpus_names())
def test_basis_is_a_tuple_of_relations_that_carries_its_group(name):
    group = corpus_group(name)
    basis = brauer_relation_basis(group)
    assert isinstance(basis, tuple) and basis.group is group
    assert basis.rank == len(basis) == KNOWN_RANKS[name]
    assert all(isinstance(theta, BurnsideElement) and theta.group is group for theta in basis)
    assert not hasattr(basis, "relations")
    # Reports write the basis as the list of its relations.
    assert jsonable(basis) == [jsonable(theta) for theta in basis]
    if name in KNOWN_RELATIONS:
        coeffs = {str(ci): n for ci, n in enumerate(KNOWN_RELATIONS[name]) if n}
        assert jsonable(basis) == [{"coeffs": coeffs}]


def test_basis_refuses_a_non_relation_and_a_relation_of_another_group():
    """A V4 relation in an S3 basis would end in an IndexError or a shape mismatch downstream."""
    v4, s3 = corpus_group("V4"), corpus_group("S3")
    with pytest.raises(RelationError, match="basis vector is not a Brauer relation of this group"):
        BrauerRelationBasis(v4, [BurnsideElement(v4, (1, 0, 0, 0, 0))])
    with pytest.raises(RelationError, match="basis vector is not a Brauer relation of this group"):
        BrauerRelationBasis(s3, list(brauer_relation_basis(v4)))


def test_empty_basis_keeps_its_group():
    """C2 has no relations, so only `group` tells its basis from another group's."""
    c2 = corpus_group("C2")
    basis = brauer_relation_basis(c2)
    assert basis == () and basis.group is c2 and jsonable(basis) == []
    with pytest.raises(RelationError, match="relation and module live over different groups"):
        regulator_constants_table(basis, trivial_lattice(corpus_group("S3")))


def test_basis_is_cached():
    group = corpus_group("D4")
    assert brauer_relation_basis(group) is brauer_relation_basis(group)


# --- membership ---------------------------------------------------------------


def test_is_brauer_relation_edge_cases():
    group = corpus_group("V4")
    k = len(all_subgroups(group))
    assert is_brauer_relation(BurnsideElement.zero(group))
    only_g = BurnsideElement(group, (0,) * (k - 1) + (1,))
    assert not is_brauer_relation(only_g)


def test_relation_space_is_closed_under_sums():
    group = corpus_group("D4")
    basis = brauer_relation_basis(group)
    combo = basis[0] + basis[1] * 2 - basis[2] * 3
    assert is_brauer_relation(combo)
    off = BurnsideElement(group, (1,) + (0,) * (len(all_subgroups(group)) - 1))
    assert not is_brauer_relation(combo + off)


def test_burnside_element_arithmetic():
    group = corpus_group("S3")
    a = BurnsideElement(group, (1, -2, -1, 2))
    assert (a - a).is_zero()
    assert (2 * a).coeffs == (2, -4, -2, 4)
    assert a.support() == ((0, 1), (1, -2), (2, -1), (3, 2))
    with pytest.raises(RelationError):
        BurnsideElement(group, (1, 0))  # wrong length
    with pytest.raises(RelationError):
        a + BurnsideElement(corpus_group("V4"), (0, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        a * 1.5
    with pytest.raises(TypeError):
        BurnsideElement(group, (1, -2, -1, 2.0))


# --- permutation actions ----------------------------------------------------------


def test_coset_action_basics():
    group = corpus_group("S3")
    h = next(c.representative for c in all_subgroups(group) if c.order == 2)
    act = coset_action(group, h)
    assert act.size == 3
    assert len(act.orbits()) == 1
    assert sum(1 for g in range(group.order) if act.images[g][0] == 0) == 2


def test_coset_action_is_built_once_per_subgroup():
    group = group_from_table(corpus_group("D4").table)
    for cls in all_subgroups(group):
        h = cls.representative
        assert coset_action(group, h) is coset_action(group, h)
        assert coset_action(group, Subgroup(group, h.elements)) is coset_action(group, h)


def test_coset_action_refuses_a_foreign_subgroup_with_cached_elements():
    group = group_from_table(corpus_group("S3").table)
    twin = group_from_table(group.table)
    h = all_subgroups(group)[1].representative
    coset_action(group, h)
    assert ("coset_action", h.elements) in group._cache
    with pytest.raises(GroupError, match="different group"):
        coset_action(group, Subgroup(twin, h.elements))


def test_orbits_refuse_a_subgroup_of_another_group():
    s3, c6 = corpus_group("S3"), corpus_group("C6")
    act = regular_action(s3)
    with pytest.raises(GroupError, match="different group"):
        act.orbits(Subgroup(c6, (0, 2, 4)))
    h = Subgroup(s3, (0, 1, 3))
    assert act.orbits(h) == act.orbits(h.elements) == [(0, 1, 3), (2, 4, 5)]


SRC = Path(__file__).resolve().parent.parent / "src" / "factoreq"


def _identifiers(source):
    """Every name a module reads, imports, or looks up as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update((node.name, node.asname))
    return out


def test_only_grp_and_burnside_form_left_cosets():
    # Every other module reads cosets off coset_action; `__init__.py` only re-exports.
    users = {
        p.name for p in SRC.glob("*.py")
        if p.name != "__init__.py" and "left_cosets" in _identifiers(p.read_text(encoding="utf-8"))
    }
    assert users == {"grp.py", "burnside.py"}


def test_perm_action_refuses_non_integer_images():
    act = regular_action(corpus_group("C2"))
    assert PermAction(act.group, act.images).images == act.images
    with pytest.raises(TypeError):
        PermAction(act.group, [(0, 1), (1.0, 0)])
    with pytest.raises(GroupError, match="not a permutation"):
        PermAction(act.group, [(0, 1), (1, 1)])


def test_regular_action_fixed_points():
    group = corpus_group("Q8")
    act = regular_action(group)
    assert act.fixed_point_count(0) == 8
    assert all(act.fixed_point_count(g) == 0 for g in range(1, 8))


def test_disjoint_union_sizes():
    group = corpus_group("V4")
    table = all_subgroups(group)
    a = coset_action(group, table[1].representative)
    b = coset_action(group, table[4].representative)
    u = a.disjoint_union(b)
    assert u.size == a.size + b.size
    assert len(u.orbits()) == 2


def test_burnside_elements_compare_and_hash_by_group_and_vector():
    group = group_from_table(corpus_group("S3").table)
    twin = group_from_table(group.table)
    theta = brauer_relation_basis(group)[0]
    same = BurnsideElement(group, list(theta.coeffs))
    assert same is not theta and same == theta and hash(same) == hash(theta)
    assert len({theta, same}) == 1
    other = BurnsideElement(group, [c + (i == 0) for i, c in enumerate(theta.coeffs)])
    assert other != theta and not other == theta
    # The same vector over a twin group built from the same table is another element.
    assert BurnsideElement(twin, theta.coeffs) != theta
    assert len({theta, BurnsideElement(twin, theta.coeffs)}) == 2
