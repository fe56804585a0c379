"""Regulator constants, factorisability, and the index-correction identity.

The V4 and S3 constants are hand-derived: with a scalar pairing (c) on the
trivial lattice every class contributes det = c/|H|, and the c-exponents
cancel because each basis relation has coefficient sum zero.
"""

import gc
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from factoreq import (
    BurnsideElement,
    ExactLinAlgError,
    FpModule,
    IntMatrix,
    InternalError,
    InvariantPairing,
    ModuleError,
    PairingError,
    RelationError,
    Subgroup,
    all_subgroups,
    averaged_pairing,
    brauer_relation_basis,
    conjugated_lattice,
    corpus_group,
    corpus_names,
    column_lattice_basis,
    coset_action,
    determinant,
    direct_sum,
    double_cosets,
    factor_equivalent,
    find_equivariant_embedding,
    fixed_sublattice,
    fp_fixed_data,
    gram_determinant,
    group_from_generators,
    index_function,
    induced_lattice,
    integer_kernel,
    integer_solve,
    invariant_factors,
    is_factorisable,
    lattice_index,
    permutation_lattice,
    pullback_pairing,
    random_invariant_pairing,
    regular_lattice,
    regulator_constant,
    regulator_constants_table,
    sublattice_action,
    trivial_lattice,
    verify_kgroup_triviality,
    verify_lemma,
    zero_lattice,
)
from factoreq.cli import main
from factoreq.regfe import _PRODUCT_BITS, _evaluate
from factoreq.suites import (
    _index2_subgroups,
    _random_equivariant_endo,
    _random_module,
    _torsion_twist,
)
from test_grp import LADDER, _group

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
    sign = induced_lattice(c2, c2.full_subgroup(), c2.trivial_subgroup())
    assert averaged_pairing(sign).gram == IntMatrix([[2]])


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
    # A gram of the wrong width is refused like one of the wrong height, coerced or not.
    triv = trivial_lattice(corpus_group("V4"))
    for gram in ([[1, 2]], [[1], [2]], [[1, 2], [3]], IntMatrix([[1, 2]])):
        with pytest.raises(PairingError, match="gram matrix has wrong shape"):
            InvariantPairing(triv, gram)


def test_random_invariant_pairing_contract():
    rng = random.Random(5)
    s3 = corpus_group("S3")
    for m in (regular_lattice(s3), permutation_lattice(s3, coset_action(s3, s3.trivial_subgroup()))):
        p = random_invariant_pairing(m, rng)
        # the constructor re-checks symmetry/definiteness/invariance
        InvariantPairing(m, p.gram)


def _loop_pairing(lattice, diag):
    """Σ_g ρ(g)ᵀ·D·ρ(g), one group element at a time, for D = diag(diag)."""
    r = lattice.rank
    d = IntMatrix([[diag[i] if i == j else 0 for j in range(r)] for i in range(r)], cols=r)
    p = IntMatrix.zeros(r, r)
    for a in lattice.action:
        p = p + a.transpose() @ d @ a
    return p


def _pairing_test_modules(group, rng):
    """Random corpus-style lattices, a torsion twist (M/tors) and the zero lattice."""
    modules = [_random_module(group, rng) for _ in range(6)]
    coset = permutation_lattice(group, coset_action(group, all_subgroups(group)[1].representative))
    modules.append(_torsion_twist(coset, 3, rng))
    modules.append(zero_lattice(group))
    return modules


@pytest.mark.parametrize("name", corpus_names())
def test_stacked_pairings_match_the_per_element_sums(name):
    group = corpus_group(name)
    for i, m in enumerate(_pairing_test_modules(group, random.Random(name))):
        lattice = m.lattice_quotient()[0]
        assert averaged_pairing(m).gram == _loop_pairing(lattice, [1] * lattice.rank)
        rng, oracle_rng = random.Random(i), random.Random(i)
        p = random_invariant_pairing(m, rng)
        diag = [oracle_rng.randint(1, 5) for _ in range(lattice.rank)]
        assert p.gram == _loop_pairing(lattice, diag)
        # Same draws in the same order: both generators are in the same state.
        assert rng.getstate() == oracle_rng.getstate()


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


def test_regulator_constant_refuses_a_product_over_the_bit_limit():
    """On V4's trivial lattice each unit of θ₀ costs 13 bits: class values 4, 2, 2, 2 and a free 1.

    A rank-0 module's class values are all 1, so any multiple of θ₀ gives 1.
    """
    v4 = corpus_group("V4")
    theta, triv = brauer_relation_basis(v4)[0], trivial_lattice(v4)
    admitted = _PRODUCT_BITS // 13
    assert regulator_constant(admitted * theta, triv) == Fraction(1, 2**admitted)
    for k in (admitted + 1, -(admitted + 1), 10**12):
        with pytest.raises(RelationError, match="^coefficients too large: the product exceeds 4194304 bits$"):
            regulator_constant(k * theta, triv)
        assert regulator_constant(k * theta, zero_lattice(v4)) == 1


def test_group_mismatch_is_rejected():
    theta = brauer_relation_basis(corpus_group("V4"))[0]
    with pytest.raises(RelationError):
        regulator_constant(theta, trivial_lattice(corpus_group("S3")))


def test_constants_table_refuses_a_basis_of_another_group():
    """Refused whether the basis has fewer classes (V4 on D4), more (D4 on S3) or is empty (C6)."""
    d4, s3, v4 = corpus_group("D4"), corpus_group("S3"), corpus_group("V4")
    for basis, module in (
        (brauer_relation_basis(v4), regular_lattice(d4)),
        (brauer_relation_basis(d4), trivial_lattice(s3)),
        (brauer_relation_basis(corpus_group("C6")), regular_lattice(v4)),
    ):
        with pytest.raises(RelationError, match="relation and module live over different groups"):
            regulator_constants_table(basis, module)
        with pytest.raises(RelationError, match="relation and module live over different groups"):
            verify_kgroup_triviality(module, basis)


def test_constants_table():
    c6 = corpus_group("C6")
    assert regulator_constants_table(brauer_relation_basis(c6), regular_lattice(c6)) == ()
    v4 = corpus_group("V4")
    basis = brauer_relation_basis(v4)
    triv = trivial_lattice(v4)
    both = regulator_constants_table(basis, direct_sum(triv, triv))
    assert both == (HALF * HALF,)


def test_evaluate_matches_the_fraction_product():
    """Int products with one reduction at the end equal Π values[H] ** n_H in Fractions."""
    d4 = corpus_group("D4")
    n = len(all_subgroups(d4))
    rng = random.Random(41)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(40):
        coeffs = [rng.choice((0, -3, -2, -1, 1, 2, 3)) for _ in range(n)]
        coeffs[rng.randrange(n)] = -rng.randint(1, 3)
        theta = BurnsideElement(d4, coeffs)
        # Numerator and denominator both above 1: p**a / q**b for primes p != q.
        values = []
        for _ in range(n):
            p, q = rng.sample(primes, 2)
            values.append(Fraction(p ** rng.randint(1, 3), q ** rng.randint(1, 3)))
        reference = Fraction(1)
        for idx, coeff in theta.support():
            reference *= values[idx] ** coeff
        got = _evaluate(theta, values)
        assert type(got) is Fraction and got == reference


def test_empty_relation_basis_computes_no_class_determinants():
    c6 = corpus_group("C6")
    basis = brauer_relation_basis(c6)
    assert len(basis) == 0
    m = direct_sum(regular_lattice(c6), trivial_lattice(c6))
    assert regulator_constants_table(basis, m) == ()
    assert regulator_constants_table(basis, m, random_invariant_pairing(m, random.Random(2))) == ()
    assert m._cache == {}
    # The pairing is still checked first: one on another lattice is refused.
    with pytest.raises(PairingError):
        regulator_constants_table(basis, m, averaged_pairing(regular_lattice(c6)))


def test_class_determinants_are_evaluated_once_per_distinct_gram(monkeypatch):
    """On S4 (11 classes) every fixed Gram of Z is (24), and Z[G] has 8 distinct ones."""
    calls = []

    def counted(a):
        calls.append(a)
        return determinant(a)

    monkeypatch.setattr("factoreq.regfe.determinant", counted)
    group = group_from_generators(LADDER["S4"])
    basis = brauer_relation_basis(group)
    assert len(all_subgroups(group)) == 11
    for m, want in ((trivial_lattice(group), 1), (regular_lattice(group), 8)):
        calls.clear()
        regulator_constants_table(basis, m)
        assert len(calls) == len(set(calls)) == want


def _refers_to(value, target):
    """True if `target` is reachable from `value` through object references (types skipped)."""
    seen, stack = set(), [value]
    while stack:
        x = stack.pop()
        if x is target:
            return True
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        stack.extend(gc.get_referents(x))
    return False


@pytest.mark.parametrize("name", ["V4", "S3", "D4"])
def test_module_cache_does_not_refer_back_to_the_module(name):
    """A cached value that refers to its module would keep it alive until a full GC."""
    group = corpus_group(name)
    lattice = direct_sum(regular_lattice(group), trivial_lattice(group))
    fp = _torsion_twist(lattice, 3, random.Random(name))
    for m in (lattice, fp):
        regulator_constants_table(brauer_relation_basis(group), m)
        for cls in all_subgroups(group):
            fp_fixed_data(m, cls.representative)
        m.lattice_quotient()
        assert m._cache
        assert not any(_refers_to(v, m) for v in m._cache.values())


def test_lattice_quotient_of_a_lattice_is_the_lattice_itself():
    v4 = corpus_group("V4")
    m = direct_sum(regular_lattice(v4), trivial_lattice(v4))
    quot, proj, sec = m.lattice_quotient()
    assert quot is m
    assert proj == sec == IntMatrix.identity(m.rank)
    assert m._cache == {}


@pytest.mark.parametrize("name", ["V4", "S3", "D4"])
def test_fp_fixed_data_and_regulator_constants_share_one_cache_entry(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    m = _torsion_twist(regular_lattice(group), 5, random.Random(name))
    regulator_constants_table(brauer_relation_basis(group), m)
    entries = {k[1]: v for k, v in m._cache.items() if k[0] == "fixed_quotient"}
    assert set(entries) == {fixed_sublattice(m, cls.representative) for cls in table}
    keys = set(m._cache)
    for cls in table:
        basis, torsion = entries[fixed_sublattice(m, cls.representative)]
        assert fp_fixed_data(m, cls.representative) == (basis.cols, torsion)
    assert set(m._cache) == keys


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
                fixed_sublattice(m, Subgroup(s3, member)),
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
    assert f == (Fraction(3), Fraction(3))
    assert f[1] == 3  # the class of C2 itself


def test_index_function_unimodular_is_one():
    s3 = corpus_group("S3")
    m = regular_lattice(s3)
    f = index_function(m, m, IntMatrix.identity(6))
    assert len(f) == len(all_subgroups(s3)) and all(v == 1 for v in f)


def test_index_function_doubling():
    # 2·Z[C2] inside Z[C2]: full index 4, fixed-line index 2
    c2 = corpus_group("C2")
    n = regular_lattice(c2)
    two = IntMatrix.identity(2) * 2
    m = sublattice_action(n, two)
    f = index_function(m, n, two)
    assert f == (Fraction(4), Fraction(2))


def test_index_function_with_kernel():
    # project Z ⊕ Z/3(twisted) onto Z: kernel order 3 exactly on H inside {e,b}
    v4 = corpus_group("V4")
    plus = IntMatrix([[1, 0], [0, 1]])
    minus = IntMatrix([[1, 0], [0, -1]])
    m = FpModule(v4, 2, IntMatrix.from_columns([(0, 3)], rows=2), (plus, minus, plus, minus))
    f = index_function(m, trivial_lattice(v4), IntMatrix([[1, 0]]))
    assert f == (THIRD, Fraction(1), THIRD, Fraction(1), Fraction(1))


def test_index_function_rejects_rank_drop():
    c2 = corpus_group("C2")
    triv = trivial_lattice(c2)
    # Z ⊕ Z onto Z: finite cokernel, so the rank drop is an infinite kernel.
    with pytest.raises(ModuleError, match="infinite kernel at subgroup class 0") as info:
        index_function(direct_sum(triv, triv), triv, IntMatrix([[1, 0]]))
    assert isinstance(info.value.__cause__, ExactLinAlgError)
    # The zero map drops rank on both sides; the cokernel is checked first.
    with pytest.raises(ModuleError, match="infinite cokernel at subgroup class 0"):
        index_function(triv, triv, IntMatrix([[0]]))


def test_index_function_rejects_infinite_cokernel():
    c2 = corpus_group("C2")
    with pytest.raises(ModuleError, match="infinite cokernel at subgroup class 0") as info:
        index_function(zero_lattice(c2), trivial_lattice(c2), IntMatrix.zeros(1, 0))
    assert isinstance(info.value.__cause__, ExactLinAlgError)


def _reference_kernel_order(m, n, t, h):
    """|ker(T on M^H)| by a second route: the coordinates of R_M in V, then the
    product of their invariant factors. V is the image in L_H(M) of the top
    rows of ker[T·L_H(M) | −R_N], the preimage of im(R_N).
    """
    rel_m, rel_n = m.relations, n.relations
    lm = fixed_sublattice(m, h)
    ker = integer_kernel((t @ lm).hstack(-rel_n))
    v = column_lattice_basis(lm @ IntMatrix(ker.tolist()[: lm.cols], cols=ker.cols))
    coords = integer_solve(v, rel_m)
    assert coords is not None and coords.rows == len(invariant_factors(coords))
    return math.prod(invariant_factors(coords))


def _lemma_shaped_instances(group, rng, rounds=2):
    """(M, N, T) as the lemma suite draws them: lattice endomorphisms,
    torsion twists projected onto their lattice (alone and after an
    endomorphism), and Z/9 twists mapped onto Z/3 twists."""
    index2 = _index2_subgroups(group)
    for i in range(rounds):
        m = _random_module(group, rng, max_rank=8)
        yield m, m, _random_equivariant_endo(m, rng)
        lat = _random_module(group, rng, max_rank=6)
        kernel = index2[rng.randrange(len(index2))] if index2 and rng.randrange(2) else None
        twist = _torsion_twist(lat, (3, 5, 9)[i % 3], rng, kernel)
        proj = IntMatrix.identity(lat.rank).hstack(IntMatrix.zeros(lat.rank, 1))
        yield twist, lat, proj
        yield twist, lat, _random_equivariant_endo(lat, rng) @ proj
        lat2 = _random_module(group, rng, max_rank=6)
        kernel2 = index2[rng.randrange(len(index2))] if index2 else None
        u = [rng.randrange(3) for _ in range(lat2.rank)]
        twist9 = _torsion_twist(lat2, 9, rng, kernel2, u=u)
        twist3 = _torsion_twist(lat2, 3, rng, kernel2, u=u)
        yield twist9, twist3, IntMatrix.identity(lat2.rank + 1)


@pytest.mark.parametrize("name", ("V4", "S3", "D4", "Q8"))
def test_index_function_kernel_order_matches_reference_route(name):
    group = corpus_group(name)
    rng = random.Random(sum(map(ord, name)))
    orders = set()
    for m, n, t in _lemma_shaped_instances(group, rng):
        f = index_function(m, n, t)
        for ci, cls in enumerate(all_subgroups(group)):
            h = cls.representative
            korder = _reference_kernel_order(m, n, t, h)
            lm, ln = fixed_sublattice(m, h), fixed_sublattice(n, h)
            assert f[ci] == Fraction(lattice_index((t @ lm).hstack(n.relations), ln), korder)
            orders.add(korder)
    assert orders > {1}, "no instance had a nontrivial kernel"



def test_index_function_evaluates_each_pair_of_fixed_lattices_once(monkeypatch):
    """Two `lattice_index` calls per distinct pair (L_H(M), L_H(N)); a repeated pair reuses its value."""
    calls = []

    def counted(sub, sup):
        calls.append((sub, sup))
        return lattice_index(sub, sup)

    monkeypatch.setattr("factoreq.regfe.lattice_index", counted)
    group = group_from_generators(LADDER["S4"])
    classes = all_subgroups(group)
    triv = trivial_lattice(group)
    assert index_function(triv, triv, IntMatrix([[2]])) == (Fraction(2),) * len(classes)
    assert len(calls) == 2
    shared = False
    for m, n, t in _lemma_shaped_instances(group, random.Random(24)):
        calls.clear()
        f = index_function(m, n, t)
        pairs = set()
        for ci, cls in enumerate(classes):
            h = cls.representative
            lm, ln = fixed_sublattice(m, h), fixed_sublattice(n, h)
            pairs.add((lm, ln))
            num = lattice_index((t @ lm).hstack(n.relations), ln)
            assert f[ci] == Fraction(num, _reference_kernel_order(m, n, t, h))
        assert len(calls) == 2 * len(pairs)
        shared |= 2 <= len(pairs) < len(classes)
    assert shared, "no instance had two distinct pairs and a repeated one"


def test_regulator_constants_of_a_dropped_group_leave_little_behind():
    """Once a group is dropped, next to nothing of its C_Θ(Z[G]) stays behind.

    Z[C2×S4] has rank 48; every chain kernel and fixed lattice belongs to the
    module's memo and goes with it. The identity of rank 48 is built first,
    as the shared identity cache keeps it for later callers.
    """
    IntMatrix.identity(48)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = group_from_generators(LADDER["C2xS4"])
        assert set(regulator_constants_table(brauer_relation_basis(group), regular_lattice(group))) == {1}
        del group
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 128 * 1024, retained

def test_index_function_rejects_non_equivariant():
    # Over C2 the identity's block of the stacked defects is always zero, so
    # these maps fail at the one other element only.
    c2 = corpus_group("C2")
    m = regular_lattice(c2)
    with pytest.raises(ModuleError, match="not equivariant"):
        index_function(m, m, IntMatrix([[1, 0], [0, 2]]))
    # Z ⊕ Z/3 with the torsion negated: T = [[1, 0], [c, 1]] has defect
    # (0, 2c) at the generator, which lies in im R = 0 ⊕ 3Z iff 3 | c.
    fp = FpModule(
        c2, 2, IntMatrix([[0], [3]]), (IntMatrix.identity(2), IntMatrix([[1, 0], [0, -1]]))
    )
    with pytest.raises(ModuleError, match="not equivariant"):
        index_function(fp, fp, IntMatrix([[1, 0], [1, 1]]))
    assert set(index_function(fp, fp, IntMatrix([[1, 0], [3, 1]]))) == {1}


def test_factorisable_frozen():
    v4 = corpus_group("V4")
    table = all_subgroups(v4)
    basis = brauer_relation_basis(v4)
    ok, defects = is_factorisable(tuple(Fraction(1) for _ in table), basis)
    assert ok and defects == (Fraction(1),)
    sizes = tuple(Fraction(cls.order) for cls in table)
    ok, defects = is_factorisable(sizes, basis)
    assert not ok and defects == (Fraction(2),)


def test_factorisable_refuses_a_function_of_the_wrong_length():
    v4 = corpus_group("V4")
    basis = brauer_relation_basis(v4)
    for values in ((Fraction(1),), (Fraction(1),) * 6):
        with pytest.raises(ValueError, match="^one value per subgroup class required$"):
            is_factorisable(values, basis)


def test_factorisable_vacuous_on_cyclic():
    c6 = corpus_group("C6")
    table = all_subgroups(c6)
    f = tuple(Fraction(7) for _ in table)
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


def test_factor_equivalence_report_json_is_pinned(tmp_path, capsys):
    # The CLI shapes the report; the pair goes in as the module documents it reads.
    v4, m, n = _v4_false_pair()
    paths = []
    for name, module in (("m", m), ("n", n)):
        action = {str(g): module.action[g].tolist() for g in range(v4.order)}
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"rank": module.rank, "action": action}))
    args = ["--format", "json", "--seed", "0", "factor-equiv", "V4"]
    assert main(args + ["--module-a", str(paths[0]), "--module-b", str(paths[1])]) == 0
    assert capsys.readouterr().out == (
        '{"defects":[{"den":"2","num":"1"}],'
        '"embedding":[[6,6,0,0,-4,2],[0,0,6,6,-4,2],[1,0,1,0,4,12],[0,1,0,1,4,12],'
        '[-11,0,0,-11,0,-6],[0,-11,-11,0,0,-6]],'
        '"index_values":[{"den":"1","num":"236544"},{"den":"1","num":"10752"},'
        '{"den":"1","num":"1792"},{"den":"1","num":"19712"},{"den":"1","num":"896"}],'
        '"regulator_constants":{"M":[{"den":"4","num":"1"}],"N":[{"den":"1","num":"1"}]},'
        '"relations":[{"coeffs":{"0":1,"1":-1,"2":-1,"3":-1,"4":2}}],'
        '"seed":0,"verdict":false}\n'
    )


def test_factor_equivalent_defaults_to_the_seed_0_certificate():
    _, m, n = _v4_false_pair()
    report = factor_equivalent(m, n)
    assert report.seed == 0
    assert report.embedding == factor_equivalent(m, n, seed=0).embedding
    # The embedding depends on the seed, so the default seed shows.
    assert report.embedding != factor_equivalent(m, n, seed=1).embedding


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
    with pytest.raises(ModuleError, match="Z-free lattices"):
        factor_equivalent(m, trivial_lattice(c2))
    with pytest.raises(ModuleError, match="Z-free lattices"):
        factor_equivalent(trivial_lattice(c2), m)


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


def test_lemma_refuses_a_pairing_of_another_rank():
    v4 = corpus_group("V4")
    theta = brauer_relation_basis(v4)[0]
    m = regular_lattice(v4)
    with pytest.raises(PairingError, match="does not live on this module's lattice"):
        verify_lemma(m, m, IntMatrix.identity(4), theta, pairing=averaged_pairing(trivial_lattice(v4)))


def test_lemma_refuses_a_pairing_of_another_action_before_the_pullback(monkeypatch):
    import factoreq.regfe as regfe

    v4 = corpus_group("V4")
    theta = brauer_relation_basis(v4)[0]
    m = regular_lattice(v4)
    # 4·I on four trivial summands: the right rank, and invariant under Z[V4] too.
    pairing = averaged_pairing(direct_sum(*(trivial_lattice(v4),) * 4))

    def fail(*args):
        raise AssertionError("pullback_pairing ran before the pairing was checked")

    monkeypatch.setattr(regfe, "pullback_pairing", fail)
    with pytest.raises(PairingError, match="does not live on this module's lattice"):
        verify_lemma(m, m, IntMatrix.identity(4), theta, pairing=pairing)


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
    group = _group(name)
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
