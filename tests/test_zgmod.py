"""Lattices and finitely presented modules over Z[G].

Characters are hand-derived frozen oracles; fixed-point ranks are checked
against the averaging formula rank(M^H) = (1/|H|)·sum of traces over H.
"""

import random
from fractions import Fraction

import pytest

from factoreq import (
    FpModule,
    IntMatrix,
    ModuleError,
    ZGLattice,
    all_subgroups,
    as_fp_module,
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
    group_from_generators,
    induced_lattice,
    integer_kernel,
    invariant_factors,
    invert_unimodular,
    permutation_lattice,
    rationally_isomorphic,
    regular_lattice,
    sign_lattice,
    sublattice_action,
    trivial_lattice,
    zero_lattice,
)
from factoreq.suites import _torsion_twist


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
    assert character(sign_lattice(c2, (0,))) == (1, -1)
    s3 = corpus_group("S3")
    a3 = next(c.representative for c in all_subgroups(s3) if c.order == 3)
    eps = _char_by_element_order(sign_lattice(s3, a3))
    assert eps == {1: 1, 2: -1, 3: 1}


def test_sign_lattice_requires_index_two_kernel():
    c4 = corpus_group("C4")
    with pytest.raises(ModuleError):
        sign_lattice(c4, (0,))


def test_induced_sign_character_v4():
    v4 = corpus_group("V4")
    d = v4.subgroup((0, 1))
    eps = {0: IntMatrix([[1]]), 1: IntMatrix([[-1]])}
    ind = induced_lattice(v4, d, eps)
    assert ind.rank == 2
    assert character(ind) == (2, -2, 0, 0)


def test_induced_sign_character_q8():
    q8 = corpus_group("Q8")
    z = next(c.representative for c in all_subgroups(q8) if c.order == 2)
    eps = {0: IntMatrix([[1]]), z.elements[1]: IntMatrix([[-1]])}
    ind = induced_lattice(q8, z, eps)
    assert ind.rank == 4
    assert _char_by_element_order(ind) == {1: 4, 2: -4, 4: 0}


def test_induced_trivial_is_permutation_lattice():
    s3 = corpus_group("S3")
    for cls in all_subgroups(s3):
        d = cls.representative
        triv = {g: IntMatrix([[1]]) for g in d.elements}
        ind = induced_lattice(s3, d, triv)
        perm = permutation_lattice(s3, coset_action(s3, d))
        assert character(ind) == character(perm)


def test_coset_lattice_character_matches_fixed_counts():
    s3 = corpus_group("S3")
    c2 = next(c.representative for c in all_subgroups(s3) if c.order == 2)
    m = permutation_lattice(s3, coset_action(s3, c2))
    assert _char_by_element_order(m) == {1: 3, 2: 1, 3: 0}


def test_direct_sum_character_adds():
    c2 = corpus_group("C2")
    both = direct_sum(trivial_lattice(c2), sign_lattice(c2, (0,)))
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
            assert m.act(g) @ basis == basis


def test_fixed_sublattice_of_sign():
    c2 = corpus_group("C2")
    eps = sign_lattice(c2, (0,))
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
        assert m.act(g) @ basis == basis @ sub.act(g)


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


def test_conjugated_lattice_preserves_character():
    v4 = corpus_group("V4")
    m = regular_lattice(v4)
    u = IntMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    assert character(conjugated_lattice(m, u)) == character(m)


def test_zero_lattice():
    v4 = corpus_group("V4")
    z = zero_lattice(v4)
    assert z.rank == 0
    assert character(z) == (0, 0, 0, 0)
    assert fixed_sublattice(z, v4.full_subgroup()).cols == 0


def test_action_validation():
    c2 = corpus_group("C2")
    with pytest.raises(ModuleError):
        ZGLattice(c2, 1, (IntMatrix([[1]]),))  # one matrix missing
    with pytest.raises(ModuleError):
        ZGLattice(c2, 1, (IntMatrix([[1]]), IntMatrix([[2]])))  # not a homomorphism


# --- equivariant embeddings -----------------------------------------------------------


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
        assert t @ m.act(g) == n.act(g) @ t
    assert determinant(t) != 0
    assert t == find_equivariant_embedding(m, n, seed=seed)  # deterministic


def test_embedding_requires_rational_isomorphism():
    c2 = corpus_group("C2")
    with pytest.raises(ModuleError, match="not rationally isomorphic"):
        find_equivariant_embedding(trivial_lattice(c2), sign_lattice(c2, (0,)))


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
    assert m.torsion_order() == 5
    assert fp_fixed_data(m, c2.trivial_subgroup()) == (0, 5)
    assert fp_fixed_data(m, c2.full_subgroup()) == (0, 5)
    quot, _, _ = m.lattice_quotient()
    assert quot.rank == 0


def test_fp_unit_relation_is_trivial_module():
    c2 = corpus_group("C2")
    ident = IntMatrix([[1]])
    m = FpModule(c2, 1, IntMatrix([[1]]), (ident, ident))
    assert m.torsion_order() == 1
    assert fp_fixed_data(m, c2.full_subgroup()) == (0, 1)


def test_fp_mixed_free_and_torsion():
    v4 = corpus_group("V4")
    m = _z5_plus_trivial(v4)
    assert m.torsion_order() == 5
    for cls in all_subgroups(v4):
        assert fp_fixed_data(m, cls.representative) == (1, 5)


def test_fp_twisted_torsion_fixed_points():
    # Z ⊕ Z/3 where the 3-torsion is negated outside the kernel {e, b}
    v4 = corpus_group("V4")
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    rel = IntMatrix.from_columns([(0, 3)], rows=2)
    m = FpModule(v4, 2, rel, (plus, minus, plus, minus))
    assert m.torsion_order() == 3
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


def test_as_fp_module_on_lattice_matches_fixed_sublattice():
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    fp = as_fp_module(m)
    assert fp.relations.cols == 0
    for cls in all_subgroups(s3):
        h = cls.representative
        assert fp_fixed_data(fp, h) == (fixed_sublattice(m, h).cols, 1)


def test_direct_sum_mixing_lattice_and_fp():
    v4 = corpus_group("V4")
    m = direct_sum(trivial_lattice(v4), _z5_plus_trivial(v4))
    assert isinstance(m, FpModule)
    assert m.gens == 3
    assert m.torsion_order() == 5
    quot, proj, sec = m.lattice_quotient()
    assert quot.rank == 2
    assert proj @ sec == IntMatrix.identity(2)


def test_fp_validation_rejects_bad_action():
    c2 = corpus_group("C2")
    with pytest.raises(ModuleError):
        FpModule(c2, 1, IntMatrix([[2]]), (IntMatrix([[1]]), IntMatrix([[0]])))


def test_lattice_quotient_respects_action():
    v4 = corpus_group("V4")
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    rel = IntMatrix.from_columns([(0, 3)], rows=2)
    m = FpModule(v4, 2, rel, (plus, minus, plus, minus))
    quot, proj, sec = m.lattice_quotient()
    assert quot.rank == 1
    for g in range(4):
        assert proj @ m.act(g) @ sec == quot.act(g)


# --- fixed sublattices from generators against the all-elements stack ------------

S4_GENERATORS = [[1, 0, 2, 3], [1, 2, 3, 0]]


def _all_elements_fixed_basis(m, h):
    """Canonical basis of L_H from the kernel of [ρ(h) − I | −R] stacked over every h in H.

    Every element gets its own −R block; the top rows of the kernel span L_H.
    A lattice has no relation columns, so there L_H = M^H is the whole kernel.
    """
    fp = as_fp_module(m)
    n, k, count = fp.gens, fp.relations.cols, len(h.elements)
    ident = IntMatrix.identity(n)
    rows = []
    for idx, g in enumerate(h.elements):
        for i, row in enumerate((fp.act(g) - ident).tolist()):
            pad = [0] * (count * k)
            pad[idx * k:(idx + 1) * k] = [-x for x in fp.relations.row(i)]
            rows.append(row + pad)
    kernel = integer_kernel(IntMatrix(rows, cols=n + count * k))
    return column_lattice_basis(IntMatrix([kernel.row(i) for i in range(n)], cols=kernel.cols))


def _unitriangular(n):
    return IntMatrix(
        [[1 if i == j else ((i + 2 * j) % 5 - 2 if j > i else 0) for j in range(n)] for i in range(n)]
    )


@pytest.mark.parametrize("name", corpus_names() + ("S4",))
def test_fixed_sublattice_matches_all_elements_stack(name):
    group = group_from_generators(S4_GENERATORS) if name == "S4" else corpus_group(name)
    table = all_subgroups(group)
    reg = regular_lattice(group)
    modules = [reg, permutation_lattice(group, coset_action(group, table[1].representative))]
    if name in ("S3", "D4"):
        modules.append(conjugated_lattice(reg, _unitriangular(reg.rank)))
    modules.extend(_fp_modules_with_relations(group, table, name))
    for m in modules:
        for h in table.all_subgroups():
            got = column_lattice_basis(fixed_sublattice(m, h))
            assert got == _all_elements_fixed_basis(m, h)


def _fp_modules_with_relations(group, table, name):
    """Z ⊕ Z/5, torsion twists of a coset lattice, their sum, and a changed presentation."""
    rng = random.Random(name)
    index2 = [c.representative for c in table if 2 * c.order == group.order]
    coset = permutation_lattice(group, coset_action(group, table[1].representative))
    twist = _torsion_twist(coset, 3, rng, index2[0] if index2 else None)
    both = direct_sum(twist, _torsion_twist(trivial_lattice(group), 5, rng))
    # New generators x' = U x: relations U·R, action U ρ(g) U⁻¹.
    u = _unitriangular(both.gens)
    uinv = invert_unimodular(u)
    mixed = FpModule(group, both.gens, u @ both.relations, [u @ a @ uinv for a in both.action])
    return [_z5_plus_trivial(group), twist, both, mixed]


def test_fixed_sublattice_accepts_fp_module():
    # Z ⊕ Z/3 with the torsion negated by elements 1 and 3: (ρ(1) − I)x = (0, −2·x2)
    # lies in im R = 0 ⊕ 3Z exactly when 3 | x2, so L_{0,1} = Z ⊕ 3Z.
    v4 = corpus_group("V4")
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    m = FpModule(v4, 2, IntMatrix.from_columns([(0, 3)], rows=2), (plus, minus, plus, minus))
    assert fixed_sublattice(m, v4.subgroup([0, 1])) == IntMatrix([[1, 0], [0, 3]])
    assert fixed_sublattice(m, v4.subgroup([0, 2])) == IntMatrix.identity(2)
    assert fixed_sublattice(m, v4.trivial_subgroup()) == IntMatrix.identity(2)
