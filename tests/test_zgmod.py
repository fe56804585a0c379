"""Lattices and finitely presented modules over Z[G].

Characters are hand-derived frozen oracles; fixed-point ranks are checked
against the averaging formula rank(M^H) = (1/|H|)·sum of traces over H.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy

from factoreq import (
    ExactLinAlgError,
    FpModule,
    GroupError,
    IntMatrix,
    ModuleError,
    Subgroup,
    ZGLattice,
    all_subgroups,
    brauer_relation_basis,
    character,
    column_lattice_basis,
    conjugated_lattice,
    corpus_group,
    corpus_names,
    coset_action,
    determinant,
    direct_sum,
    find_equivariant_embedding,
    fixed_sublattice,
    fp_fixed_data,
    group_from_table,
    induced_lattice,
    integer_solve,
    invariant_factors,
    left_cosets,
    permutation_lattice,
    random_invariant_pairing,
    rationally_isomorphic,
    regular_lattice,
    regulator_constants_table,
    sublattice_action,
    sunit_lattice,
    trivial_lattice,
    zero_lattice,
)
from factoreq.exactla import _preimage, _snf_engine
from factoreq.suites import _random_module, _random_unimodular, _torsion_twist
from factoreq.grp import _Frozen, _generated, _generating_set
from factoreq.zgmod import (
    _Module,
    _averaged_gram,
    _averaged_map,
    _chain_gram,
    _fixed_chain,
    _fixed_gram,
    _fixed_quotient,
)
from test_grp import _group


def _char_by_element_order(m):
    """Map element order -> character value; asserts constancy per order."""
    group = m.group
    chi = character(m)
    out = {}
    for i, cls in enumerate(group.element_classes):
        k = group.element_order(cls[0])
        if k in out:
            assert out[k] == chi[i], f"order-{k} classes disagree"
        else:
            out[k] = chi[i]
    return out


def _trace(m, g):
    a = m.action[g]
    return sum(a[i, i] for i in range(m.rank))


# --- characters of the standard lattices ----------------------------------------


def test_trivial_and_regular_characters():
    s3 = corpus_group("S3")
    assert character(trivial_lattice(s3)) == (1, 1, 1)
    assert character(regular_lattice(s3)) == (6, 0, 0)
    v4 = corpus_group("V4")
    assert character(trivial_lattice(v4)) == (1, 1, 1, 1)
    assert character(regular_lattice(v4)) == (4, 0, 0, 0)


def test_sign_characters():
    c2 = corpus_group("C2")
    assert character(induced_lattice(c2, c2.full_subgroup(), c2.trivial_subgroup())) == (1, -1)
    s3 = corpus_group("S3")
    a3 = next(c.representative for c in all_subgroups(s3) if c.order == 3)
    eps = _char_by_element_order(induced_lattice(s3, s3.full_subgroup(), a3))
    assert eps == {1: 1, 2: -1, 3: 1}


def test_sign_lattice_requires_index_two_kernel():
    c4 = corpus_group("C4")
    with pytest.raises(ModuleError, match="index 1 or 2 in d"):
        induced_lattice(c4, c4.full_subgroup(), c4.trivial_subgroup())


def test_sign_lattice_refuses_a_subgroup_of_another_group():
    c4 = corpus_group("C4")
    v4 = corpus_group("V4")
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        induced_lattice(v4, v4.full_subgroup(), Subgroup(c4, (0, 2)))
    # Same elements, another group: refused before any cache lookup.
    induced_lattice(c4, c4.full_subgroup(), Subgroup(c4, (0, 2)))
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        induced_lattice(c4, c4.full_subgroup(), Subgroup(group_from_table(c4.table), (0, 2)))


def test_induced_lattice_refuses_a_foreign_d():
    c4, v4 = corpus_group("C4"), corpus_group("V4")
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        induced_lattice(v4, Subgroup(c4, (0, 2)))


def test_induced_lattice_refuses_a_kernel_outside_d():
    v4 = corpus_group("V4")
    with pytest.raises(ModuleError, match="kernel must lie in d"):
        induced_lattice(v4, Subgroup(v4, (0, 1)), Subgroup(v4, (0, 2)))


def test_induced_lattice_refuses_a_kernel_that_is_no_subgroup():
    # An element set of a subgroup is a kernel, as for d: (0,) is the trivial subgroup.
    v4 = corpus_group("V4")
    d = Subgroup(v4, (0, 1))
    assert induced_lattice(v4, d, (0,)) is induced_lattice(v4, d, v4.trivial_subgroup())
    for bad, message in (((1,), "identity"), ((0, 1, 2), "not closed"), ((0, 4), "out of range")):
        with pytest.raises(GroupError, match=message):
            induced_lattice(v4, d, bad)


def test_induced_sign_character_v4():
    v4 = corpus_group("V4")
    ind = induced_lattice(v4, Subgroup(v4, (0, 1)), v4.trivial_subgroup())
    assert ind.rank == 2
    assert character(ind) == (2, -2, 0, 0)


def test_induced_sign_character_q8():
    q8 = corpus_group("Q8")
    z = next(c.representative for c in all_subgroups(q8) if c.order == 2)
    ind = induced_lattice(q8, z, q8.trivial_subgroup())
    assert ind.rank == 4
    assert _char_by_element_order(ind) == {1: 4, 2: -4, 4: 0}


def test_induced_trivial_is_permutation_lattice():
    s3 = corpus_group("S3")
    for cls in all_subgroups(s3):
        d = cls.representative
        perm = permutation_lattice(s3, coset_action(s3, d))
        assert induced_lattice(s3, d) is perm
        assert induced_lattice(s3, d, d) is perm
        assert induced_lattice(s3, d, Subgroup(s3, d.elements)) is perm
    assert induced_lattice(s3, s3.full_subgroup()) is trivial_lattice(s3)
    assert induced_lattice(s3, s3.trivial_subgroup()) is regular_lattice(s3)


def test_induced_sign_lattice_is_built_once_per_group_and_pair():
    d4 = corpus_group("D4")
    # A second group from the same table has its own lattices (and caches).
    twin = group_from_table(d4.table)
    for d in (c.representative for c in all_subgroups(d4)):
        for k in _index2_kernels(d4, d):
            lattice = induced_lattice(d4, d, k)
            assert induced_lattice(d4, Subgroup(d4, d.elements), Subgroup(d4, k.elements)) is lattice
            other = induced_lattice(twin, Subgroup(twin, d.elements), Subgroup(twin, k.elements))
            assert other is not lattice and other.group is twin and other.action == lattice.action


def _reference_induced_action(group, d, sub_action):
    """Induced action matrices from a coset table of their own, filled in densely."""
    cosets = left_cosets(group, d)
    coset_of = [0] * group.order
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i
    reps = [coset[0] for coset in cosets]
    k, r = len(cosets), sub_action[0].rows
    mats = []
    for g in range(group.order):
        rows = [[0] * (k * r) for _ in range(k * r)]
        for i in range(k):
            u = group.table[g][reps[i]]
            j = coset_of[u]
            block = sub_action[group.table[group.inverse[reps[j]]][u]]
            for a in range(r):
                for b in range(r):
                    rows[j * r + a][i * r + b] = block[a, b]
        mats.append(IntMatrix(rows, cols=k * r))
    return tuple(mats)


def _index2_kernels(group, d):
    """Every subgroup of index 2 in the subgroup `d`."""
    members = (e for cls in all_subgroups(group) for e in cls.members)
    return [Subgroup(group, e) for e in members if 2 * len(e) == d.order and set(e) <= set(d.elements)]


@pytest.mark.parametrize("name", corpus_names() + ("A4", "D8", "S4"))
def test_induced_lattice_matches_the_coset_table_route(name):
    group = _group(name)
    for d in (Subgroup(group, e) for cls in all_subgroups(group) for e in cls.members):
        triv = {x: IntMatrix([[1]]) for x in d.elements}
        assert induced_lattice(group, d).action == _reference_induced_action(group, d, triv)
        # The ε of an order-2 D, and every other ±1 character: the G-sign lattices among them.
        for k in _index2_kernels(group, d):
            chi = {x: IntMatrix([[1 if x in k else -1]]) for x in d.elements}
            assert induced_lattice(group, d, k).action == _reference_induced_action(group, d, chi)


@pytest.mark.parametrize("name", corpus_names())
def test_trivial_and_zero_lattices_are_cached_permutation_lattices(name):
    group = corpus_group(name)
    triv, zero = trivial_lattice(group), zero_lattice(group)
    assert trivial_lattice(group) is triv and zero_lattice(group) is zero
    assert triv.action == (IntMatrix.identity(1),) * group.order
    assert zero.action == (IntMatrix.zeros(0, 0),) * group.order
    assert ZGLattice(group, 1, triv.action, check=True).action == triv.action
    assert ZGLattice(group, 0, zero.action, check=True).action == zero.action


def test_coset_lattice_character_matches_fixed_counts():
    s3 = corpus_group("S3")
    c2 = next(c.representative for c in all_subgroups(s3) if c.order == 2)
    m = permutation_lattice(s3, coset_action(s3, c2))
    assert _char_by_element_order(m) == {1: 3, 2: 1, 3: 0}


def test_direct_sum_character_adds():
    c2 = corpus_group("C2")
    both = direct_sum(trivial_lattice(c2), induced_lattice(c2, c2.full_subgroup(), c2.trivial_subgroup()))
    assert character(both) == (2, 0)
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    n = trivial_lattice(s3)
    assert character(direct_sum(m, n)) == tuple(
        a + b for a, b in zip(character(m), character(n))
    )


def test_v4_pair_is_rationally_isomorphic():
    # Z[G] + 2 trivials vs the three proper coset lattices: both have char (6,2,2,2)
    v4 = corpus_group("V4")
    table = all_subgroups(v4)
    m = direct_sum(regular_lattice(v4), trivial_lattice(v4), trivial_lattice(v4))
    n = direct_sum(
        *(
            permutation_lattice(v4, coset_action(v4, cls.representative))
            for cls in table
            if cls.order == 2
        )
    )
    assert character(m) == character(n) == (6, 2, 2, 2)
    assert rationally_isomorphic(m, n)
    assert not rationally_isomorphic(m, regular_lattice(v4))


# --- fixed sublattices ------------------------------------------------------------


@pytest.mark.parametrize("name", corpus_names())
def test_regular_lattice_fixed_rank(name):
    group = corpus_group(name)
    reg = regular_lattice(group)
    for cls in all_subgroups(group):
        h = cls.representative
        assert fixed_sublattice(reg, h).cols == group.order // h.order


@pytest.mark.parametrize("name", ("V4", "S3", "D4"))
def test_fixed_rank_matches_trace_average(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    modules = [
        regular_lattice(group),
        trivial_lattice(group),
        permutation_lattice(group, coset_action(group, table[1].representative)),
    ]
    for m in modules:
        for cls in table:
            h = cls.representative
            avg = Fraction(sum(_trace(m, g) for g in h.elements), h.order)
            assert avg.denominator == 1
            assert fixed_sublattice(m, h).cols == avg


def test_fixed_sublattice_is_saturated_and_stable():
    group = corpus_group("D4")
    m = regular_lattice(group)
    for cls in all_subgroups(group):
        h = cls.representative
        basis = fixed_sublattice(m, h)
        if basis.cols:
            assert all(f == 1 for f in invariant_factors(basis))
        for g in h.elements:
            assert m.action[g] @ basis == basis


def test_fixed_sublattice_of_sign():
    c2 = corpus_group("C2")
    eps = induced_lattice(c2, c2.full_subgroup(), c2.trivial_subgroup())
    assert fixed_sublattice(eps, c2.full_subgroup()).cols == 0
    assert fixed_sublattice(eps, c2.trivial_subgroup()).cols == 1


# --- basis changes ------------------------------------------------------------------


def test_sublattice_action_compatibility():
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    cols = [tuple(1 if j == 0 else (-1 if j == i else 0) for j in range(6)) for i in range(1, 6)]
    basis = IntMatrix.from_columns(cols, rows=6)
    sub = sublattice_action(m, basis)
    assert sub.rank == 5
    for g in range(6):
        assert m.action[g] @ basis == basis @ sub.action[g]


def test_sublattice_action_rejects_unstable_span():
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    basis = IntMatrix.from_columns([(1, 0, 0, 0, 0, 0)], rows=6)
    with pytest.raises(ModuleError):
        sublattice_action(m, basis)
    # Dependent columns span a stable line but are no basis of it.
    c2 = regular_lattice(corpus_group("C2"))
    with pytest.raises(ModuleError):
        sublattice_action(c2, IntMatrix.from_columns([(1, 1), (1, 1)]))


def test_sublattice_action_and_conjugated_lattice_refuse_an_fp_module():
    """Z/2 over C2 with 3 ≡ 1: in new coordinates its action holds only modulo 2."""
    c2 = corpus_group("C2")
    fp = FpModule(c2, 1, [[2]], [[[1]], [[3]]])
    for call in (sublattice_action, conjugated_lattice):
        with pytest.raises(ModuleError, match="^sublattice action requires a Z-free lattice$"):
            call(fp, IntMatrix.identity(1))
    # The lattice these calls used to return, refused by the constructor itself.
    with pytest.raises(ModuleError, match="not a homomorphism modulo relations"):
        ZGLattice(c2, 1, [[[1]], [[3]]])


def test_conjugated_lattice_preserves_character():
    v4 = corpus_group("V4")
    m = regular_lattice(v4)
    u = IntMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    assert character(conjugated_lattice(m, u)) == character(m)


@pytest.mark.parametrize("name", corpus_names())
def test_conjugated_lattice_is_u_inverse_rho_u(name):
    """g acts on the new basis by U⁻¹·ρ(g)·U, with the inverse taken by sympy."""
    group = corpus_group(name)
    rng = random.Random(name)
    modules = [regular_lattice(group)] + [_random_module(group, rng) for _ in range(4)]
    for m in modules:
        for u in (_unitriangular(m.rank), _random_unimodular(m.rank, rng)):
            uinv = sympy.Matrix(u.tolist()).inv()
            got = conjugated_lattice(m, u)
            assert got.rank == m.rank
            for g in range(group.order):
                want = uinv * sympy.Matrix(m.action[g].tolist()) * sympy.Matrix(u.tolist())
                assert got.action[g].tolist() == want.tolist()


def test_conjugated_lattice_refuses_a_matrix_that_is_not_unimodular():
    m = regular_lattice(corpus_group("C2"))
    for u in (IntMatrix([[2, 0], [0, 1]]), IntMatrix([[1, 1], [1, 1]])):
        with pytest.raises(ExactLinAlgError, match="not unimodular"):
            conjugated_lattice(m, u)
    with pytest.raises(ExactLinAlgError, match="non-square"):
        conjugated_lattice(m, IntMatrix([[1, 0]]))  # has a right inverse, but is not square


def test_zero_lattice():
    v4 = corpus_group("V4")
    z = zero_lattice(v4)
    assert z.rank == 0
    assert character(z) == (0, 0, 0, 0)
    assert fixed_sublattice(z, v4.full_subgroup()).cols == 0


def test_action_validation():
    # No relation columns, so each test of the shared action check is exact equality.
    c2 = corpus_group("C2")
    with pytest.raises(ModuleError):
        ZGLattice(c2, 1, (IntMatrix([[1]]),))  # one matrix missing
    with pytest.raises(ModuleError, match="not a homomorphism"):
        ZGLattice(c2, 1, (IntMatrix([[1]]), IntMatrix([[2]])))
    with pytest.raises(ModuleError, match="identity must act trivially"):
        ZGLattice(c2, 1, ([[-1]], [[1]]))
    with pytest.raises(ModuleError, match="wrong shape"):
        ZGLattice(c2, 1, ([[1]], [[1], [0]]))
    with pytest.raises(ModuleError, match="non-negative"):
        ZGLattice(c2, -1, (IntMatrix.zeros(0, 0),) * 2)
    assert ZGLattice(c2, 1, ([[1]], [[-1]])).action[1] == IntMatrix([[-1]])


def test_modules_are_immutable_and_share_one_base():
    c2 = corpus_group("C2")
    lat = trivial_lattice(c2)
    fp = FpModule(c2, 1, IntMatrix([[2]]), ([[1]], [[1]]))
    for m, name in ((lat, "ZGLattice"), (fp, "FpModule")):
        for attr in ("group", "action", "relations", "rank", "gens"):
            with pytest.raises(AttributeError, match=f"{name} is immutable"):
                setattr(m, attr, None)
        for attr in ("group", "action", "relations", "_cache"):
            with pytest.raises(AttributeError, match=f"{name} is immutable"):
                delattr(m, attr)
        assert m.group is c2 and len(m.action) == 2 and isinstance(m._cache, dict)
    assert ZGLattice.__bases__ == FpModule.__bases__ == (_Module,)
    assert _Module.__bases__ == (_Frozen,) and "__setattr__" not in vars(_Module)
    assert not isinstance(lat, FpModule) and not isinstance(fp, ZGLattice)


def test_lattice_relations_have_no_columns():
    s3 = corpus_group("S3")
    lattices = (
        regular_lattice(s3),
        zero_lattice(s3),
        ZGLattice(s3, 1, [[[1]]] * 6),
        direct_sum(trivial_lattice(s3), regular_lattice(s3)),
        sublattice_action(trivial_lattice(s3), IntMatrix([[2]])),
    )
    for m in lattices:
        assert (m.relations.rows, m.relations.cols) == (m.rank, 0)


def test_fixed_points_refuse_a_subgroup_of_another_group():
    s3, c4 = corpus_group("S3"), corpus_group("C4")
    m = regular_lattice(s3)
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        fixed_sublattice(m, Subgroup(c4, (0, 2)))
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        fp_fixed_data(m, Subgroup(c4, (0, 2)))
    fp = _z5_plus_trivial(s3)
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        fp_fixed_data(fp, Subgroup(c4, (0, 2)))


def test_fixed_points_refuse_an_element_set_that_is_no_subgroup():
    # In S3 the element 1 has order 3, so {0, 1} is not closed: <1> = {0, 1, 3}.
    s3 = corpus_group("S3")
    m = direct_sum(regular_lattice(s3), trivial_lattice(s3))
    for bad in ([0, 1], [1], [], [0, 6], [-1, 0]):
        with pytest.raises(GroupError):
            fixed_sublattice(m, bad)
        with pytest.raises(GroupError):
            fp_fixed_data(m, bad)
        elems = tuple(sorted(set(bad)))
        assert ("generating_set", elems) not in s3._cache
        assert ("fixed", elems) not in m._cache
    assert fixed_sublattice(m, [0, 1, 3]) == fixed_sublattice(m, Subgroup(s3, (0, 1, 3)))


# --- equivariant embeddings -----------------------------------------------------------


def _loop_averaged_map(m, n, x):
    """Σ_g ρ_N(g)·X·ρ_M(g⁻¹), one group element at a time."""
    t = IntMatrix.zeros(n.rank, m.rank)
    for g in range(m.group.order):
        t = t + n.action[g] @ x @ m.action[m.group.inverse[g]]
    return t


@pytest.mark.parametrize("name", corpus_names())
def test_averaged_map_matches_the_per_element_sum(name):
    group = corpus_group(name)
    rng = random.Random(name)
    coset = permutation_lattice(group, coset_action(group, all_subgroups(group)[1].representative))
    pairs = [
        (trivial_lattice(group), regular_lattice(group)),
        (regular_lattice(group), coset),
        (zero_lattice(group), coset),
        (coset, zero_lattice(group)),
        (zero_lattice(group), zero_lattice(group)),
    ]
    pairs.extend((_random_module(group, rng), _random_module(group, rng)) for _ in range(3))
    for m, n in pairs:
        x = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(m.rank)] for _ in range(n.rank)], cols=m.rank
        )
        t = _averaged_map(m, n, x)
        assert t == _loop_averaged_map(m, n, x)
        assert (t.rows, t.cols) == (n.rank, m.rank)


def test_permutation_lattice_is_built_once_per_group():
    s3 = corpus_group("S3")
    h = all_subgroups(s3)[1].representative
    lattice = permutation_lattice(s3, coset_action(s3, h))
    assert permutation_lattice(s3, coset_action(s3, h)) is lattice
    assert regular_lattice(s3) is regular_lattice(s3)
    assert regular_lattice(s3) is not lattice
    # A second group from the same table has its own lattices (and caches).
    twin = group_from_table(s3.table)
    other = permutation_lattice(twin, coset_action(twin, all_subgroups(twin)[1].representative))
    assert other is not lattice
    assert other.group is twin and other.action == lattice.action


@pytest.mark.parametrize("name", corpus_names())
def test_regular_lattice_is_the_lattice_of_the_regular_action(name):
    group = corpus_group(name)
    regular = coset_action(group, group.trivial_subgroup())
    assert regular_lattice(group) is permutation_lattice(group, regular)


def test_embedding_on_trivial_lattice_is_identity():
    v4 = corpus_group("V4")
    t = find_equivariant_embedding(trivial_lattice(v4), trivial_lattice(v4), seed=3)
    assert t == IntMatrix([[1]])


@pytest.mark.parametrize("seed", (0, 1, 7))
def test_embedding_is_equivariant_and_injective(seed):
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    n = conjugated_lattice(m, IntMatrix([[1, 0, 0, 0, 0, 0],
                                         [1, 1, 0, 0, 0, 0],
                                         [0, 0, 1, 0, 0, 0],
                                         [0, 0, 0, 1, 0, 3],
                                         [0, 0, 0, 0, 1, 0],
                                         [0, 0, 0, 0, 0, 1]]))
    t = find_equivariant_embedding(m, n, seed=seed)
    for g in range(6):
        assert t @ m.action[g] == n.action[g] @ t
    assert determinant(t) != 0
    assert t == find_equivariant_embedding(m, n, seed=seed)  # deterministic


def test_embedding_requires_rational_isomorphism():
    c2 = corpus_group("C2")
    with pytest.raises(ModuleError, match="not rationally isomorphic"):
        find_equivariant_embedding(trivial_lattice(c2), induced_lattice(c2, c2.full_subgroup(), c2.trivial_subgroup()))


def test_embedding_rejects_fp_modules():
    c2 = corpus_group("C2")
    m = FpModule(c2, 1, IntMatrix([[2]]), (IntMatrix([[1]]), IntMatrix([[1]])))
    with pytest.raises(ModuleError):
        find_equivariant_embedding(m, trivial_lattice(c2))


# --- finitely presented modules ---------------------------------------------------------


def _z5_plus_trivial(group):
    """Z ⊕ Z/5, everything with trivial action."""
    ident = IntMatrix.identity(2)
    rel = IntMatrix.from_columns([(0, 5)], rows=2)
    return FpModule(group, 2, rel, (ident,) * group.order)


def test_fp_torsion_only():
    c2 = corpus_group("C2")
    ident = IntMatrix([[1]])
    m = FpModule(c2, 1, IntMatrix([[5]]), (ident, ident))
    assert math.prod(invariant_factors(m.relations)) == 5
    assert fp_fixed_data(m, c2.trivial_subgroup()) == (0, 5)
    assert fp_fixed_data(m, c2.full_subgroup()) == (0, 5)
    quot, _, _ = m.lattice_quotient()
    assert quot.rank == 0


def test_fp_unit_relation_is_trivial_module():
    c2 = corpus_group("C2")
    ident = IntMatrix([[1]])
    m = FpModule(c2, 1, IntMatrix([[1]]), (ident, ident))
    assert math.prod(invariant_factors(m.relations)) == 1
    assert fp_fixed_data(m, c2.full_subgroup()) == (0, 1)


def test_fp_mixed_free_and_torsion():
    v4 = corpus_group("V4")
    m = _z5_plus_trivial(v4)
    assert math.prod(invariant_factors(m.relations)) == 5
    for cls in all_subgroups(v4):
        assert fp_fixed_data(m, cls.representative) == (1, 5)


def test_fp_twisted_torsion_fixed_points():
    # Z ⊕ Z/3 where the 3-torsion is negated outside the kernel {e, b}
    v4 = corpus_group("V4")
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    rel = IntMatrix.from_columns([(0, 3)], rows=2)
    m = FpModule(v4, 2, rel, (plus, minus, plus, minus))
    assert math.prod(invariant_factors(m.relations)) == 3
    table = all_subgroups(v4)
    expected = {
        (0,): (1, 3),
        (0, 1): (1, 1),
        (0, 2): (1, 3),
        (0, 3): (1, 1),
        (0, 1, 2, 3): (1, 1),
    }
    for cls in table:
        h = cls.representative
        assert fp_fixed_data(m, h) == expected[h.elements]


def _reference_fp_fixed_data(module, h):
    """Second route: coordinates of R in L_H, then their invariant factors."""
    basis = fixed_sublattice(module, h)
    coords = integer_solve(basis, module.relations)
    assert coords is not None
    factors = invariant_factors(coords)
    return basis.cols - len(factors), math.prod(factors)


@pytest.mark.parametrize("name", ("V4", "S3", "D4", "Q8"))
def test_fp_fixed_data_matches_reference_route(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    rng = random.Random(sum(map(ord, name)) + 1)
    kernels = [None] + [c.representative for c in table if 2 * c.order == group.order]
    twists = [
        _torsion_twist(_random_module(group, rng, max_rank=6), k, rng, kernel)
        for k in (3, 5, 9)
        for kernel in kernels
    ]
    modules = twists + [
        direct_sum(twists[-1], _random_module(group, rng, max_rank=4)),
        _without_relations(_random_module(group, rng, max_rank=6)),
    ]
    torsion = set()
    for m in modules:
        for cls in table:
            got = fp_fixed_data(m, cls.representative)
            assert got == _reference_fp_fixed_data(m, cls.representative)
            torsion.add(got[1])
    assert torsion >= {1, 3, 5, 9}


def _without_relations(lattice):
    """The lattice as an FpModule with an empty relation matrix."""
    return FpModule(lattice.group, lattice.rank, IntMatrix.zeros(lattice.rank, 0), lattice.action)


def test_fp_module_without_relations_matches_lattice_fixed_sublattice():
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    fp = _without_relations(m)
    assert fp.relations.cols == 0
    for cls in all_subgroups(s3):
        h = cls.representative
        assert fp_fixed_data(fp, h) == (fixed_sublattice(m, h).cols, 1)


def _sympy_block_diagonal(mats):
    d = sympy.diag(*(sympy.Matrix(a.rows, a.cols, [x for r in a.tolist() for x in r]) for a in mats))
    return IntMatrix([[int(x) for x in d.row(i)] for i in range(d.rows)], cols=d.cols)


def _reference_direct_sum(*modules):
    """The FpModule route: each lattice viewed as an FpModule with an empty
    relation matrix, then relations and actions placed block-diagonally by sympy."""
    parts = [m if isinstance(m, FpModule) else _without_relations(m) for m in modules]
    rel = _sympy_block_diagonal([p.relations for p in parts])
    mats = [_sympy_block_diagonal([p.action[g] for p in parts]) for g in range(parts[0].group.order)]
    return rel, mats


def test_direct_sum_matches_the_fp_route():
    s3 = corpus_group("S3")
    rng = random.Random(13)
    twist = _torsion_twist(regular_lattice(s3), 3, rng)
    cases = (
        (trivial_lattice(s3), _z5_plus_trivial(s3)),
        (_z5_plus_trivial(s3), regular_lattice(s3), twist),
        (twist, zero_lattice(s3), trivial_lattice(s3)),
        (regular_lattice(s3), trivial_lattice(s3)),
    )
    for summands in cases:
        got = direct_sum(*summands)
        rel, mats = _reference_direct_sum(*summands)
        assert isinstance(got, ZGLattice) == all(isinstance(m, ZGLattice) for m in summands)
        assert got.relations == rel
        assert list(got.action) == mats


def test_direct_sum_mixing_lattice_and_fp():
    v4 = corpus_group("V4")
    m = direct_sum(trivial_lattice(v4), _z5_plus_trivial(v4))
    assert isinstance(m, FpModule)
    assert m.gens == 3
    assert math.prod(invariant_factors(m.relations)) == 5
    quot, proj, sec = m.lattice_quotient()
    assert quot.rank == 2
    assert proj @ sec == IntMatrix.identity(2)


def test_fp_validation_rejects_bad_action():
    c2 = corpus_group("C2")
    two = IntMatrix([[2]])
    with pytest.raises(ModuleError, match="not a homomorphism"):
        FpModule(c2, 1, two, (IntMatrix([[1]]), IntMatrix([[0]])))
    with pytest.raises(ModuleError, match="identity must act trivially"):
        FpModule(c2, 1, two, ([[2]], [[1]]))
    # Swapping the two generators of Z^2 / (2Z ⊕ 0) sends the relation out of its span.
    swap = IntMatrix([[0, 1], [1, 0]])
    with pytest.raises(ModuleError, match="relation span"):
        FpModule(c2, 2, IntMatrix([[2], [0]]), (IntMatrix.identity(2), swap))
    # 3 ≡ 1 modulo 2: the identity may act by 3 on Z/2.
    assert FpModule(c2, 1, two, ([[3]], [[1]])).gens == 1


def test_lattice_quotient_respects_action():
    v4 = corpus_group("V4")
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    rel = IntMatrix.from_columns([(0, 3)], rows=2)
    m = FpModule(v4, 2, rel, (plus, minus, plus, minus))
    quot, proj, sec = m.lattice_quotient()
    assert quot.rank == 1
    for g in range(4):
        assert proj @ m.action[g] @ sec == quot.action[g]


def _random_relations(rng, n, k):
    """n x k relation matrix, about half the time of rank below min(n, k)."""
    r = rng.randrange(min(n, k) + 1)
    left = IntMatrix([[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)], cols=r)
    right = IntMatrix([[rng.randint(-4, 4) for _ in range(k)] for _ in range(r)], cols=k)
    return left @ right if rng.random() < 0.5 else IntMatrix(
        [[rng.randint(-6, 6) for _ in range(k)] for _ in range(n)], cols=k
    )


QUOTIENT_RELATIONS = [
    IntMatrix([[2, 4], [0, 6]]),  # full rank, not saturated: M = Z/2 ⊕ Z/6
    IntMatrix([[2], [4], [0]]),  # one torsion relation 2·(1, 2, 0) next to a free part
    IntMatrix.zeros(3, 0),  # no relations: M/tors is Z^3 itself
    IntMatrix.zeros(2, 2),  # zero relations
] + [_random_relations(random.Random(seed), 1 + seed % 4, seed % 5) for seed in range(24)]


@pytest.mark.parametrize("rel", QUOTIENT_RELATIONS, ids=lambda r: f"{r.rows}x{r.cols}")
def test_lattice_quotient_contract(rel):
    # Trivial action, so any relation matrix presents a module.
    c2 = corpus_group("C2")
    ident = IntMatrix.identity(rel.rows)
    quot, proj, sec = FpModule(c2, rel.rows, rel, (ident, ident)).lattice_quotient()
    expected = rel.rows - sympy.Matrix(rel.rows, rel.cols, [x for row in rel.tolist() for x in row]).rank()
    assert (proj.rows, proj.cols) == (expected, rel.rows)
    assert proj @ rel == IntMatrix.zeros(expected, rel.cols)
    assert proj @ sec == IntMatrix.identity(expected)
    assert quot.rank == expected


# --- fixed sublattices from generators against the all-elements stack ------------



def _all_elements_fixed_basis(m, h):
    """Canonical basis of L_H from the kernel of [ρ(h) − I | −R] stacked over every h in H.

    Every element gets its own −R block; the top rows of the kernel span L_H.
    A lattice has no relation columns, so there L_H = M^H is the whole kernel.
    The kernel is read from the Smith transform V (columns past the rank), not
    from `integer_kernel` or any other Hermite-form routine, so the routine
    under test is not its own oracle.
    """
    n, k, count = m.relations.rows, m.relations.cols, len(h.elements)
    ident = IntMatrix.identity(n)
    rows = []
    for idx, g in enumerate(h.elements):
        for i, row in enumerate((m.action[g] - ident).tolist()):
            pad = [0] * (count * k)
            pad[idx * k:(idx + 1) * k] = [-x for x in m.relations.row(i)]
            rows.append(row + pad)
    d, v = _snf_engine(IntMatrix(rows, cols=n + count * k))
    r = sum(1 for i in range(min(d.rows, d.cols)) if d[i, i])
    return column_lattice_basis(IntMatrix([v[i][r:] for i in range(n)], cols=len(v) - r))


def _unitriangular(n):
    return IntMatrix(
        [[1 if i == j else ((i + 2 * j) % 5 - 2 if j > i else 0) for j in range(n)] for i in range(n)]
    )


@pytest.mark.parametrize("name", corpus_names() + ("S4",))
def test_fixed_sublattice_matches_all_elements_stack(name):
    group = _group(name)
    table = all_subgroups(group)
    reg = regular_lattice(group)
    modules = [reg, permutation_lattice(group, coset_action(group, table[1].representative))]
    if name in ("S3", "D4"):
        modules.append(conjugated_lattice(reg, _unitriangular(reg.rank)))
    modules.extend(_fp_modules_with_relations(group, table, name))
    for m in modules:
        for h in (Subgroup(group, e) for cls in table for e in cls.members):
            got = column_lattice_basis(fixed_sublattice(m, h))
            assert got == _all_elements_fixed_basis(m, h)


def test_generating_set_caches_the_chain_parent(monkeypatch):
    """Greedy generators, each outside the span so far, and the parent <gens[:-1]>."""
    group = _group("S4")
    members = [e for cls in all_subgroups(group) for e in cls.members]
    for elems in members:
        gens, parent = _generating_set(group, elems)
        assert _generated(group.table, gens) == elems
        if not gens:
            assert elems == (0,) and parent is None
            continue
        assert parent == _generated(group.table, gens[:-1])
        for k, g in enumerate(gens):
            assert g not in _generated(group.table, gens[:k])
    # Once the generating sets are cached, a new module's fixed points need no closure.
    # The Subgroup check of an element tuple runs a closure, so it runs first.
    subgroups = [Subgroup(group, elems) for elems in members]
    monkeypatch.setattr("factoreq.grp._generated", None)
    m = direct_sum(regular_lattice(group), trivial_lattice(group))
    for h in subgroups:
        assert fixed_sublattice(m, h).rows == m.rank


def _fp_modules_with_relations(group, table, name):
    """Z ⊕ Z/5, torsion twists of a coset lattice, their sum, and a changed presentation."""
    rng = random.Random(name)
    index2 = [c.representative for c in table if 2 * c.order == group.order]
    coset = permutation_lattice(group, coset_action(group, table[1].representative))
    twist = _torsion_twist(coset, 3, rng, index2[0] if index2 else None)
    both = direct_sum(twist, _torsion_twist(trivial_lattice(group), 5, rng))
    # New generators x' = U x: relations U·R, action U ρ(g) U⁻¹.
    u = _unitriangular(both.gens)
    uinv = integer_solve(u, IntMatrix.identity(u.rows))
    mixed = FpModule(group, both.gens, u @ both.relations, [u @ a @ uinv for a in both.action])
    return [_z5_plus_trivial(group), twist, both, mixed]


def test_fixed_sublattice_accepts_fp_module():
    # Z ⊕ Z/3 with the torsion negated by elements 1 and 3: (ρ(1) − I)x = (0, −2·x2)
    # lies in im R = 0 ⊕ 3Z exactly when 3 | x2, so L_{0,1} = Z ⊕ 3Z.
    v4 = corpus_group("V4")
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    m = FpModule(v4, 2, IntMatrix.from_columns([(0, 3)], rows=2), (plus, minus, plus, minus))
    assert fixed_sublattice(m, Subgroup(v4, [0, 1])) == IntMatrix([[1, 0], [0, 3]])
    assert fixed_sublattice(m, Subgroup(v4, [0, 2])) == IntMatrix.identity(2)
    assert fixed_sublattice(m, v4.trivial_subgroup()) == IntMatrix.identity(2)


# --- class Gram matrices down the fixed-point chain; seeded averaged grams ---------



def _stacked_gram(lattice):
    """Σ_g ρ(g)ᵀ ρ(g), one product per element."""
    r = lattice.rank
    return sum((a.transpose() @ a for a in lattice.action), IntMatrix.zeros(r, r))


@pytest.mark.parametrize("name", corpus_names() + ("A4", "S4"))
def test_fixed_gram_matches_the_ambient_product(name):
    """For every subgroup, the Gram matrix from the chain is Bᵀ·gram·B for B from `_fixed_quotient`.

    Lattices take the chain L_H = L_K·C; an FP module takes the ambient product.
    """
    group = _group(name)
    table = all_subgroups(group)
    rng = random.Random(name)
    reg = regular_lattice(group)
    coset = permutation_lattice(group, coset_action(group, table[1].representative))
    summed = conjugated_lattice(direct_sum(reg, coset), _unitriangular(reg.rank + coset.rank))
    fp = _fp_modules_with_relations(group, table, name)[-1]
    cases = [
        (reg, _averaged_gram(reg)),
        (reg, random_invariant_pairing(reg, rng).gram),
        (coset, _averaged_gram(coset)),
        (summed, random_invariant_pairing(summed, rng).gram),
        (fp, random_invariant_pairing(fp, rng).gram),
        (fp, _averaged_gram(fp.lattice_quotient()[0])),
    ]
    for m, gram in cases:
        for h in (e for cls in table for e in cls.members):
            b = _fixed_quotient(m, fixed_sublattice(m, h))[0]
            assert _fixed_gram(m, gram, h) == b.transpose() @ gram @ b


@pytest.mark.parametrize("name", ["V4", "D4", "A4", "S4"])
def test_no_op_chain_steps_keep_the_fixed_points_and_their_gram(name):
    """Modules where some chain step s already fixes L_K, which records C = None.

    Z, Z[G/N] for a normal N ≠ 1, Ind_D(χ) for the largest D with a ±1
    character χ ≠ 1, and a torsion twist of Z[G/N]: L_H against the
    all-elements stack, and every Gram against Bᵀ·gram·B. A no-op record
    shares its parent's L_K and, on a lattice, its parent's Gram object.
    """
    group = _group(name)
    table = all_subgroups(group)
    rng = random.Random(name)
    normal = next(c.representative for c in table if len(c.members) == 1 and c.order > 1)
    quotient = induced_lattice(group, normal)
    d = next(c.representative for c in reversed(table) if _index2_kernels(group, c.representative))
    signed = induced_lattice(group, d, _index2_kernels(group, d)[0])
    modules = [trivial_lattice(group), quotient, signed, _torsion_twist(quotient, 3, rng)]
    no_ops = 0
    for m in modules:
        lattice = m.lattice_quotient()[0]
        grams = (_averaged_gram(lattice), random_invariant_pairing(m, rng).gram)
        for h in (Subgroup(group, e) for cls in table for e in cls.members):
            assert column_lattice_basis(fixed_sublattice(m, h)) == _all_elements_fixed_basis(m, h)
            lh, parent, c = _fixed_chain(m, h.elements)
            b = _fixed_quotient(m, lh)[0]
            no_op = c is None and parent is not None
            no_ops += no_op
            assert not no_op or lh is _fixed_chain(m, parent)[0]
            for gram in grams:
                assert _fixed_gram(m, gram, h) == b.transpose() @ gram @ b
                if no_op and m is lattice:
                    assert _chain_gram(m, gram, h.elements) is _chain_gram(m, gram, parent)
    assert no_ops


def test_chain_skips_preimages_of_fixed_steps_and_products_by_the_identity(monkeypatch):
    """Work-count pin on a fresh S4: C_Θ(Z) runs no preimage; no chain product of C_Θ(Z[G]) has a factor I."""
    group = group_from_table(_group("S4").table)
    basis = brauer_relation_basis(group)
    preimages, factors = [], []
    real_matmul = IntMatrix.__matmul__

    def preimage(al, rel):
        preimages.append(al)
        return _preimage(al, rel)

    def matmul(a, b):
        factors.extend((a, b))
        return real_matmul(a, b)

    monkeypatch.setattr("factoreq.zgmod._preimage", preimage)
    regulator_constants_table(basis, trivial_lattice(group))
    assert preimages == []
    reg = regular_lattice(group)
    monkeypatch.setattr(IntMatrix, "__matmul__", matmul)
    regulator_constants_table(basis, reg)
    assert preimages and factors
    assert not any(f.rows == f.cols and f == IntMatrix.identity(f.rows) for f in factors)


@pytest.mark.parametrize("name", corpus_names())
def test_permutation_lattices_are_built_with_their_averaged_gram(name):
    # A twin group from the same table starts with empty caches.
    group = group_from_table(corpus_group(name).table)
    reps = [c.representative for c in all_subgroups(group)]
    cosets = [permutation_lattice(group, coset_action(group, d)) for d in reps]
    # Ind_D(ε) for every order-2 class, and the sign lattices of G: signed permutation matrices.
    signed = [induced_lattice(group, d, group.trivial_subgroup()) for d in reps if d.order == 2]
    signed += [induced_lattice(group, group.full_subgroup(), k) for k in _index2_kernels(group, group.full_subgroup())]
    for lattice in [trivial_lattice(group), zero_lattice(group)] + cosets + signed:
        seeded = lattice._cache["avg_gram"]
        assert seeded == _stacked_gram(lattice) == group.order * IntMatrix.identity(lattice.rank)
        assert _averaged_gram(lattice) is seeded


def test_averaged_gram_of_other_lattices_is_computed_once():
    group = corpus_group("D4")
    sunit = sunit_lattice(group, [all_subgroups(group)[1].representative])
    for lattice in (conjugated_lattice(regular_lattice(group), _unitriangular(8)), sunit.lattice):
        assert "avg_gram" not in lattice._cache
        gram = _averaged_gram(lattice)
        assert gram == _stacked_gram(lattice) and _averaged_gram(lattice) is gram
