"""Regulator constants, factorisability, and the index-correction identity.

The V4 and S3 constants are hand-derived: with a scalar pairing (c) on the
trivial lattice every class contributes det = c/|H|, and the c-exponents
cancel because each basis relation has coefficient sum zero.
"""

import random
from fractions import Fraction

import pytest

from factoreq import (
    BurnsideElement,
    FpModule,
    IntMatrix,
    InternalError,
    InvariantPairing,
    ModuleError,
    PairingError,
    RelationError,
    SubgroupFunction,
    all_subgroups,
    averaged_pairing,
    brauer_relation_basis,
    conjugated_lattice,
    corpus_group,
    corpus_names,
    coset_action,
    direct_sum,
    double_cosets,
    factor_equivalent,
    find_equivariant_embedding,
    fixed_sublattice,
    gram_determinant,
    group_from_generators,
    index_function,
    is_factorisable,
    permutation_lattice,
    pullback_pairing,
    random_invariant_pairing,
    regular_lattice,
    regulator_constant,
    regulator_constants_table,
    sign_lattice,
    sublattice_action,
    trivial_lattice,
    verify_lemma,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _v4_false_pair():
    """Same rational type, not factor equivalent: Z[G]+2 trivials vs 3 cosets."""
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
    return v4, m, n


# --- pairings ---------------------------------------------------------------


def test_averaged_pairing_frozen():
    c4 = corpus_group("C4")
    assert averaged_pairing(trivial_lattice(c4)).gram == IntMatrix([[4]])
    c2 = corpus_group("C2")
    assert averaged_pairing(regular_lattice(c2)).gram == IntMatrix.identity(2) * 2
    assert averaged_pairing(sign_lattice(c2, (0,))).gram == IntMatrix([[2]])


def test_pairing_validation():
    c2 = corpus_group("C2")
    reg = regular_lattice(c2)
    with pytest.raises(PairingError, match="invariant"):
        InvariantPairing(reg, IntMatrix([[1, 0], [0, 2]]))
    with pytest.raises(PairingError, match="symmetric"):
        InvariantPairing(reg, IntMatrix([[1, 1], [0, 1]]))
    with pytest.raises(PairingError, match="positive definite"):
        InvariantPairing(reg, IntMatrix([[0, 1], [1, 0]]))
    with pytest.raises(PairingError):
        InvariantPairing(reg, IntMatrix([[1]]))


def test_random_invariant_pairing_contract():
    rng = random.Random(5)
    s3 = corpus_group("S3")
    for m in (regular_lattice(s3), permutation_lattice(s3, coset_action(s3, s3.trivial_subgroup()))):
        p = random_invariant_pairing(m, rng)
        # the constructor re-checks symmetry/definiteness/invariance
        InvariantPairing(m, p.gram)


# --- regulator constants -------------------------------------------------------


def test_v4_trivial_constant():
    v4 = corpus_group("V4")
    theta = brauer_relation_basis(v4)[0]
    triv = trivial_lattice(v4)
    assert regulator_constant(theta, triv) == HALF
    # pairing independence at its starkest: rescale the form entirely
    unit = InvariantPairing(triv, IntMatrix([[1]]))
    assert regulator_constant(theta, triv, unit) == HALF


def test_s3_trivial_constant():
    s3 = corpus_group("S3")
    theta = brauer_relation_basis(s3)[0]
    assert regulator_constant(theta, trivial_lattice(s3)) == THIRD


def test_q8_trivial_constant():
    # relation (0,1,-1,-1,-1,2): (1/2)·(1/4)^{-3}·(1/8)^2 = 1/2
    q8 = corpus_group("Q8")
    theta = brauer_relation_basis(q8)[0]
    assert regulator_constant(theta, trivial_lattice(q8)) == HALF


@pytest.mark.parametrize("name", ("V4", "S3", "D4", "Q8"))
def test_group_ring_constant_is_one(name):
    group = corpus_group(name)
    for theta in brauer_relation_basis(group):
        assert regulator_constant(theta, regular_lattice(group)) == 1


def test_zero_relation_gives_one():
    v4 = corpus_group("V4")
    assert regulator_constant(BurnsideElement.zero(v4), regular_lattice(v4)) == 1


def test_non_relation_is_rejected():
    v4 = corpus_group("V4")
    bad = BurnsideElement(v4, (1, 0, 0, 0, 0))
    with pytest.raises(RelationError, match="not a Brauer relation"):
        regulator_constant(bad, trivial_lattice(v4))


def test_group_mismatch_is_rejected():
    theta = brauer_relation_basis(corpus_group("V4"))[0]
    with pytest.raises(RelationError):
        regulator_constant(theta, trivial_lattice(corpus_group("S3")))


def test_constants_table():
    c6 = corpus_group("C6")
    assert regulator_constants_table(brauer_relation_basis(c6), regular_lattice(c6)) == ()
    v4 = corpus_group("V4")
    basis = brauer_relation_basis(v4)
    triv = trivial_lattice(v4)
    both = regulator_constants_table(basis, direct_sum(triv, triv))
    assert both == (HALF * HALF,)


def test_pairing_independence_on_fixed_modules():
    rng = random.Random(11)
    for name in ("V4", "S3"):
        group = corpus_group(name)
        basis = brauer_relation_basis(group)
        table = all_subgroups(group)
        modules = [
            regular_lattice(group),
            direct_sum(trivial_lattice(group), regular_lattice(group)),
            permutation_lattice(group, coset_action(group, table[1].representative)),
        ]
        for m in modules:
            reference = regulator_constants_table(basis, m)
            for _ in range(5):
                p = random_invariant_pairing(m, rng)
                assert regulator_constants_table(basis, m, p) == reference


def test_representative_independence():
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    p = averaged_pairing(m)
    for cls in all_subgroups(s3):
        dets = {
            gram_determinant(
                p.gram,
                fixed_sublattice(m, s3.subgroup(member)),
                Fraction(1, cls.order),
            )
            for member in cls.members
        }
        assert len(dets) == 1


# --- index functions and factorisability -------------------------------------------


def test_index_function_scaling_map():
    c2 = corpus_group("C2")
    triv = trivial_lattice(c2)
    f = index_function(triv, triv, IntMatrix([[3]]))
    assert f.values == (Fraction(3), Fraction(3))
    assert f.of_subgroup(c2.full_subgroup()) == 3


def test_index_function_unimodular_is_one():
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    f = index_function(m, m, IntMatrix.identity(6))
    assert all(v == 1 for v in f.values)


def test_index_function_doubling():
    # 2·Z[C2] inside Z[C2]: full index 4, fixed-line index 2
    c2 = corpus_group("C2")
    n = regular_lattice(c2)
    two = IntMatrix.identity(2) * 2
    m = sublattice_action(n, two)
    f = index_function(m, n, two)
    assert f.values == (Fraction(4), Fraction(2))


def test_index_function_with_kernel():
    # project Z ⊕ Z/3(twisted) onto Z: kernel order 3 exactly on H inside {e,b}
    v4 = corpus_group("V4")
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    m = FpModule(v4, 2, IntMatrix.from_columns([(0, 3)], rows=2), (plus, minus, plus, minus))
    f = index_function(m, trivial_lattice(v4), IntMatrix([[1, 0]]))
    assert f.values == (THIRD, Fraction(1), THIRD, Fraction(1), Fraction(1))


def test_index_function_rejects_rank_drop():
    c2 = corpus_group("C2")
    triv = trivial_lattice(c2)
    with pytest.raises(ModuleError):
        index_function(triv, triv, IntMatrix([[0]]))


def test_index_function_rejects_non_equivariant():
    c2 = corpus_group("C2")
    m = regular_lattice(c2)
    with pytest.raises(ModuleError, match="not equivariant"):
        index_function(m, m, IntMatrix([[1, 0], [0, 2]]))


def test_factorisable_frozen():
    v4 = corpus_group("V4")
    table = all_subgroups(v4)
    basis = brauer_relation_basis(v4)
    ok, defects = is_factorisable(
        SubgroupFunction(table, tuple(Fraction(1) for _ in table)), basis
    )
    assert ok and defects == (Fraction(1),)
    sizes = SubgroupFunction(table, tuple(Fraction(cls.order) for cls in table))
    ok, defects = is_factorisable(sizes, basis)
    assert not ok and defects == (Fraction(2),)


def test_factorisable_vacuous_on_cyclic():
    c6 = corpus_group("C6")
    table = all_subgroups(c6)
    f = SubgroupFunction(table, tuple(Fraction(7) for _ in table))
    ok, defects = is_factorisable(f, brauer_relation_basis(c6))
    assert ok and defects == ()


# --- factor equivalence ---------------------------------------------------------


def test_factor_equivalent_isomorphic_pair():
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    u = IntMatrix(
        [
            [1, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 2],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    )
    report = factor_equivalent(m, conjugated_lattice(m, u), seed=2)
    assert report.verdict
    assert all(d == 1 for d in report.defects)
    assert report.constants_m == report.constants_n


def test_factor_equivalent_vacuous_on_cyclic():
    c4 = corpus_group("C4")
    m = regular_lattice(c4)
    report = factor_equivalent(m, m, seed=0)
    assert report.verdict and report.defects == ()


def test_factor_equivalent_known_false_pair():
    _, m, n = _v4_false_pair()
    report = factor_equivalent(m, n, seed=0)
    assert not report.verdict
    assert report.defects == (HALF,)
    assert report.constants_m == (Fraction(1, 4),)
    assert report.constants_n == (Fraction(1),)
    reverse = factor_equivalent(n, m, seed=0)
    assert not reverse.verdict
    assert reverse.defects == (Fraction(2),)


@pytest.mark.parametrize("seed", (0, 1, 17, 123))
def test_verdict_is_seed_independent(seed):
    _, m, n = _v4_false_pair()
    report = factor_equivalent(m, n, seed=seed)
    assert not report.verdict
    assert report.defects == (HALF,)


def test_factor_equivalent_requires_rational_isomorphism():
    v4 = corpus_group("V4")
    with pytest.raises(ModuleError, match="not rationally isomorphic"):
        factor_equivalent(trivial_lattice(v4), regular_lattice(v4))


def test_factor_equivalent_rejects_fp_modules():
    c2 = corpus_group("C2")
    m = FpModule(c2, 1, IntMatrix([[2]]), (IntMatrix([[1]]), IntMatrix([[1]])))
    with pytest.raises(ModuleError):
        factor_equivalent(m, trivial_lattice(c2))


def test_factor_equivalent_raises_internal_error_on_route_mismatch(monkeypatch):
    import factoreq.regfe as regfe

    _, m, n = _v4_false_pair()
    real = regfe.regulator_constants_table
    calls = []

    def doubled_on_m(basis, module, pairing=None):
        calls.append(module)
        out = real(basis, module, pairing)
        return tuple(2 * c for c in out) if module is m else out

    monkeypatch.setattr(regfe, "regulator_constants_table", doubled_on_m)
    with pytest.raises(InternalError, match="does not square"):
        factor_equivalent(m, n)
    assert calls[:2] == [m, n]


# --- the index-correction identity -------------------------------------------------


def test_lemma_identity_map():
    s3 = corpus_group("S3")
    theta = brauer_relation_basis(s3)[0]
    m = regular_lattice(s3)
    res = verify_lemma(m, m, IntMatrix.identity(6), theta)
    assert res.ok
    assert res.lhs == res.rhs == regulator_constant(theta, m)


def test_lemma_scaling_on_trivial():
    v4 = corpus_group("V4")
    theta = brauer_relation_basis(v4)[0]
    triv = trivial_lattice(v4)
    res = verify_lemma(triv, triv, IntMatrix([[3]]), theta)
    assert res.ok
    assert res.lhs == res.rhs == HALF  # the 3^{2n_H} factors multiply to 1
    assert res.factors == (Fraction(3),) * 5


def test_lemma_torsion_projection():
    v4 = corpus_group("V4")
    theta = brauer_relation_basis(v4)[0]
    ident = IntMatrix.identity(2)
    m = FpModule(v4, 2, IntMatrix.from_columns([(0, 5)], rows=2), (ident,) * 4)
    res = verify_lemma(m, trivial_lattice(v4), IntMatrix([[1, 0]]), theta)
    assert res.ok
    assert res.lhs == HALF
    # index 1, kernel 5, torsion ratio 5: every class factor collapses to 1
    assert res.factors == (Fraction(1),) * 5


def test_lemma_twisted_torsion():
    v4 = corpus_group("V4")
    theta = brauer_relation_basis(v4)[0]
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    m = FpModule(v4, 2, IntMatrix.from_columns([(0, 3)], rows=2), (plus, minus, plus, minus))
    res = verify_lemma(m, trivial_lattice(v4), IntMatrix([[1, 0]]), theta)
    assert res.ok
    assert res.lhs == res.rhs == HALF
    assert res.factors == (Fraction(1),) * 5


def test_lemma_on_the_false_pair_embedding():
    v4, m, n = _v4_false_pair()
    theta = brauer_relation_basis(v4)[0]
    t = find_equivariant_embedding(m, n, seed=0)
    res = verify_lemma(m, n, t, theta)
    assert res.ok
    assert res.lhs == Fraction(1, 4)  # C_Θ(M); rhs carries defect² = 1/4 times C_Θ(N)


def test_pullback_pairing_is_valid():
    v4, m, n = _v4_false_pair()
    t = find_equivariant_embedding(m, n, seed=0)
    p = pullback_pairing(m, n, t, averaged_pairing(n))
    assert p.gram == p.gram.transpose()
    # constructor ran with check=True, so definiteness and invariance held
    theta = brauer_relation_basis(v4)[0]
    assert regulator_constant(theta, m, p) == Fraction(1, 4)


# --- permutation lattices against the orbit closed form -----------------------------


@pytest.mark.parametrize("name", corpus_names() + ("S4",))
def test_permutation_lattice_constants_match_closed_form(name):
    """C_Θ(Z[G/K]) = Π_H Π_{HgK} |H ∩ gKg⁻¹|^(−n_H) for every class K.

    The H-orbit sums form an orthogonal basis of Z[G/K]^H, and an orbit of
    gK has |H| / |H ∩ gKg⁻¹| points, so each class contributes the product
    of the stabiliser orders to the power −n_H (Dokchitser & Dokchitser,
    Regulator constants and the parity conjecture, Invent. Math. 2009).
    Nothing on this side goes through fixed sublattices or determinants.
    """
    group = group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]]) if name == "S4" else corpus_group(name)
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    for k_cls in table:
        k = k_cls.representative
        stabilisers = []
        for cls in table:
            prod = 1
            for dc in double_cosets(group, cls.representative, k):
                prod *= dc.stabilizer_order
            stabilisers.append(prod)
        expected = []
        for theta in basis:
            value = Fraction(1)
            for idx, coeff in theta.support():
                value /= Fraction(stabilisers[idx]) ** coeff
            expected.append(value)
        lattice = permutation_lattice(group, coset_action(group, k))
        assert regulator_constants_table(basis, lattice) == tuple(expected)
