"""Place models, S-unit lattices, and K-group comparison modules.

The closed-form right-hand sides for the frozen cases are hand-derived:
regulator constants of coset lattices via orthonormal Gram determinants, and
the l/n corrections straight from orbit/stabilizer counts.
"""

from fractions import Fraction

import pytest

import factoreq.arith
import factoreq.suites

from factoreq import (
    ArithmeticModelError,
    BurnsideElement,
    GroupError,
    IntMatrix,
    ModuleError,
    Subgroup,
    all_subgroups,
    brauer_relation_basis,
    character,
    corpus_group,
    corpus_names,
    coset_action,
    double_cosets,
    fixed_sublattice,
    induced_lattice,
    integer_solve,
    kgroup_comparison_module,
    lattice_index,
    permutation_lattice,
    place_model,
    regular_lattice,
    regulator_constants_table,
    residue_degrees,
    subfield_lattice_embedding,
    sunit_lattice,
    trivial_lattice,
    verify_kgroup_triviality,
    verify_sunit_closed_form,
    verify_sunit_index,
)
from test_grp import _group


def _class_rep(group, order, which=0):
    hits = [c.representative for c in all_subgroups(group) if c.order == order]
    return hits[which]


# --- place models ------------------------------------------------------------


def test_place_model_sizes():
    v4 = corpus_group("V4")
    model = place_model(v4, [v4.trivial_subgroup(), v4.full_subgroup()])
    assert model.action.size == 5
    assert model.action.orbits() == [(0, 1, 2, 3), (4,)]
    assert len(model.decomposition_groups) == 2


def test_place_model_requires_a_place():
    with pytest.raises(ArithmeticModelError):
        place_model(corpus_group("C2"), [])


def test_place_model_accepts_element_tuples():
    v4 = corpus_group("V4")
    model = place_model(v4, [(0, 1)])
    assert model.decomposition_groups[0].elements == (0, 1)


def test_residue_degrees_trivial_h():
    s3 = corpus_group("S3")
    model = place_model(s3, [_class_rep(s3, 2), _class_rep(s3, 3)])
    rd = residue_degrees(model, s3.trivial_subgroup())
    assert rd.degrees == (1,) * 5
    assert rd.n == 1 and rd.l == 1


def test_residue_degrees_c2_full():
    c2 = corpus_group("C2")
    model = place_model(c2, [c2.trivial_subgroup()])
    rd = residue_degrees(model, c2.full_subgroup())
    assert len(rd.orbits) == 1
    assert rd.degrees == (1,)
    assert rd.n == 1 and rd.l == 1


def test_residue_degrees_c4_over_halving_subgroup():
    c4 = corpus_group("C4")
    d = _class_rep(c4, 2)
    model = place_model(c4, [d])
    rd = residue_degrees(model, c4.full_subgroup())
    assert len(rd.orbits) == 1
    assert rd.degrees == (2,)
    assert rd.n == 2 and rd.l == 2


def test_residue_degrees_v4_mixed():
    # S = G/A u G/B, H = A: degrees {2, 2, 1}, so n/l = 4/2 = 2
    v4 = corpus_group("V4")
    a = _class_rep(v4, 2, which=0)
    b = _class_rep(v4, 2, which=1)
    model = place_model(v4, [a, b])
    rd = residue_degrees(model, a)
    assert sorted(rd.degrees) == [1, 2, 2]
    assert rd.n == 4 and rd.l == 2


def test_place_functions_refuse_a_subgroup_of_another_group():
    s3, c6 = corpus_group("S3"), corpus_group("C6")
    foreign = Subgroup(c6, (0, 2, 4))
    model = place_model(s3, [s3.trivial_subgroup()])
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        residue_degrees(model, foreign)
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        verify_sunit_index(sunit_lattice(s3, [s3.trivial_subgroup()]), foreign)
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        place_model(s3, [foreign])
    with pytest.raises(GroupError, match="subgroup belongs to a different group"):
        kgroup_comparison_module(s3, [foreign], 0, "odd")
    a3 = Subgroup(s3, (0, 1, 3))
    assert residue_degrees(model, a3) == residue_degrees(model, (0, 1, 3))


# --- S-unit lattices -----------------------------------------------------------


def test_sunit_lattice_single_point_is_zero():
    v4 = corpus_group("V4")
    su = sunit_lattice(v4, [v4.full_subgroup()])
    assert su.lattice.rank == 0
    assert su.basis.rows == 1


def test_sunit_lattice_c2_regular_is_sign():
    c2 = corpus_group("C2")
    su = sunit_lattice(c2, [c2.trivial_subgroup()])
    assert su.lattice.rank == 1
    assert su.lattice.action[1] == IntMatrix([[-1]])


@pytest.mark.parametrize("name", ("V4", "S3", "D4"))
def test_sunit_character_identity(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    d_list = [table[1].representative, table[len(table) - 1].representative]
    su = sunit_lattice(group, d_list)
    perm_chars = [
        character(permutation_lattice(group, coset_action(group, d))) for d in d_list
    ]
    triv = character(trivial_lattice(group))
    expect = tuple(sum(col) - t for col, t in zip(zip(*perm_chars), triv))
    assert character(su.lattice) == expect


def test_sunit_pairing_is_ambient_orthonormal():
    s3 = corpus_group("S3")
    su = sunit_lattice(s3, [s3.trivial_subgroup()])
    assert su.pairing.gram == su.basis.transpose() @ su.basis


def test_subfield_embedding_for_trivial_h_is_the_difference_basis():
    s3 = corpus_group("S3")
    su = sunit_lattice(s3, [_class_rep(s3, 2)])
    assert subfield_lattice_embedding(su, s3.trivial_subgroup()) == su.basis


def test_sunit_index_frozen_cases():
    c2 = corpus_group("C2")
    su = sunit_lattice(c2, [c2.trivial_subgroup()])
    res = verify_sunit_index(su, c2.full_subgroup())
    assert res.ok and res.index == 1  # rank-0 convention

    v4 = corpus_group("V4")
    a = _class_rep(v4, 2, 0)
    b = _class_rep(v4, 2, 1)
    su = sunit_lattice(v4, [a, b])
    res = verify_sunit_index(su, a)
    assert res.ok
    assert res.index == res.expected == 2


@pytest.mark.parametrize("name", corpus_names())
def test_sunit_index_identity_across_classes(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    # single-class place sets; the full product family is exercised elsewhere
    for cls in table:
        su = sunit_lattice(group, [cls.representative])
        for hc in table:
            assert verify_sunit_index(su, hc.representative).ok


@pytest.mark.parametrize("name", corpus_names() + ("A4",))
def test_sunit_index_matches_the_coordinate_route(name):
    """The Z[S] route gives the old route's index, on the image's coordinates in the difference basis."""
    group = _group(name)
    table = all_subgroups(group)
    place_sets = [[cls.representative] for cls in table]
    place_sets.append([table[0].representative, table[-1].representative])
    for d_list in place_sets:
        su = sunit_lattice(group, d_list)
        for hc in table:
            h = hc.representative
            coords = integer_solve(su.basis, subfield_lattice_embedding(su, h))
            assert coords is not None
            want = lattice_index(coords, fixed_sublattice(su.lattice, h))
            assert verify_sunit_index(su, h).index == want


def test_sunit_index_refuses_an_image_outside_the_augmentation_kernel(monkeypatch):
    s3 = corpus_group("S3")
    su = sunit_lattice(s3, [s3.trivial_subgroup()])
    embedding = factoreq.arith.subfield_lattice_embedding

    def patched(sunit, h):
        cols = embedding(sunit, h).transpose().tolist()
        cols[0][0] += 1  # the first column now sums to 1
        return IntMatrix.from_columns(cols, rows=sunit.basis.rows)

    monkeypatch.setattr(factoreq.arith, "subfield_lattice_embedding", patched)
    with pytest.raises(ArithmeticModelError, match="finite index"):
        verify_sunit_index(su, s3.trivial_subgroup())


@pytest.mark.parametrize("name", corpus_names())
def test_sunit_rank_bookkeeping(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    su = sunit_lattice(group, [table[0].representative, table[1].representative])
    for cls in table:
        h = cls.representative
        rd = residue_degrees(su.model, h)
        assert fixed_sublattice(su.lattice, h).cols == len(rd.orbits) - 1


def test_closed_form_v4_regular():
    v4 = corpus_group("V4")
    theta = brauer_relation_basis(v4)[0]
    su = sunit_lattice(v4, [v4.trivial_subgroup()])
    res = verify_sunit_closed_form(su, theta)
    assert res.ok
    # free orbits: every correction term is 1, so both sides are C_theta(triv)
    assert res.rhs == Fraction(1, 2)


def test_closed_form_v4_two_places():
    v4 = corpus_group("V4")
    theta = brauer_relation_basis(v4)[0]
    su = sunit_lattice(v4, [_class_rep(v4, 2, 0), _class_rep(v4, 2, 1)])
    res = verify_sunit_closed_form(su, theta)
    assert res.ok
    # corrections 4 · 4 · 1/16 cancel; coset-lattice constants are 1
    assert res.rhs == Fraction(1, 2)


def test_closed_form_s3_mixed_places():
    s3 = corpus_group("S3")
    theta = brauer_relation_basis(s3)[0]
    su = sunit_lattice(s3, [_class_rep(s3, 2), _class_rep(s3, 3)])
    res = verify_sunit_closed_form(su, theta)
    assert res.ok
    # only H = C3 corrects: (l/n)^{2n_H} = (1/3)^{-2} = 9, times C(triv) = 1/3
    assert res.lhs == res.rhs == Fraction(3)


def test_closed_form_accepts_zero_relation():
    c6 = corpus_group("C6")
    su = sunit_lattice(c6, [c6.trivial_subgroup()])
    res = verify_sunit_closed_form(su, BurnsideElement.zero(c6))
    assert res.ok and res.lhs == res.rhs == 1


# --- K-group comparison modules ----------------------------------------------------


def test_kgroup_odd_single_real_place():
    c2 = corpus_group("C2")
    m = kgroup_comparison_module(c2, [c2.full_subgroup()], 0, "odd")
    assert m.rank == 1
    assert character(m) == (1, 1)


def test_kgroup_even_only_regular_summands():
    s3 = corpus_group("S3")
    m = kgroup_comparison_module(s3, [], 2, "even")
    assert m.rank == 12
    assert character(m) == (12, 0, 0)


def test_kgroup_even_induced_sign():
    v4 = corpus_group("V4")
    m = kgroup_comparison_module(v4, [Subgroup(v4, (0, 1))], 0, "even")
    assert m.rank == 2
    assert character(m) == (2, -2, 0, 0)


def test_kgroup_empty_input_is_zero_module():
    v4 = corpus_group("V4")
    m = kgroup_comparison_module(v4, [], 0, "odd")
    assert m.rank == 0


def test_kgroup_validation():
    v4 = corpus_group("V4")
    with pytest.raises(ModuleError, match="order exactly 2"):
        kgroup_comparison_module(v4, [v4.trivial_subgroup()], 0, "even")
    with pytest.raises(ModuleError, match="order exactly 2"):
        kgroup_comparison_module(v4, [v4.full_subgroup()], 0, "even")
    with pytest.raises(ModuleError, match="order at most 2"):
        kgroup_comparison_module(v4, [v4.full_subgroup()], 0, "odd")
    with pytest.raises(ModuleError, match="parity"):
        kgroup_comparison_module(v4, [], 1, "both")
    with pytest.raises(ModuleError):
        kgroup_comparison_module(v4, [], -1, "odd")


def test_kgroup_triviality_frozen_cases():
    v4 = corpus_group("V4")
    basis = brauer_relation_basis(v4)
    even = kgroup_comparison_module(v4, [Subgroup(v4, (0, 1))], 0, "even")
    res = verify_kgroup_triviality(even, basis)
    assert res.ok and res.constants == (Fraction(1),)

    q8 = corpus_group("Q8")
    z = _class_rep(q8, 2)
    m = kgroup_comparison_module(q8, [z, z], 0, "even")
    assert verify_kgroup_triviality(m, brauer_relation_basis(q8)).ok

    d4 = corpus_group("D4")
    m = kgroup_comparison_module(
        d4, [d4.trivial_subgroup(), _class_rep(d4, 2)], 1, "odd"
    )
    res = verify_kgroup_triviality(m, brauer_relation_basis(d4))
    assert res.ok and len(res.constants) == 3


def test_sunit_lattice_builds_its_place_model():
    v4 = corpus_group("V4")
    su = sunit_lattice(v4, [v4.trivial_subgroup()])
    assert su.model == place_model(v4, [v4.trivial_subgroup()])
    assert su.lattice.rank == 3


# --- lattices on signed G-sets against the double-coset closed form --------------

def _induced_closed_form(group, basis, d, kernel):
    """C_Θ(Ind_D χ) for each Θ in `basis`, χ the ±1 character of D with kernel `kernel`.

    (Ind_D χ)^H has an orthogonal basis of signed orbit sums, one for each
    double coset HgD that is χ-trivial: g⁻¹hg ∈ kernel for every h ∈ H with
    g⁻¹hg ∈ D. Scaled by 1/|H|, each has norm 1/|H ∩ gDg⁻¹|, so
    C_Θ = Π_H Π_{HgD χ-trivial} |H ∩ gDg⁻¹|^(−n_H) (Dokchitser & Dokchitser,
    Regulator constants and the parity conjecture, Invent. Math. 2009, for
    χ = 1). Only `double_cosets` is read: no fixed sublattice, no determinant.
    """
    factors = []
    for h in (cls.representative for cls in all_subgroups(group)):
        f = 1
        for dc in double_cosets(group, h, d):
            conj = [group.conj(group.inverse[dc.representative], x) for x in h.elements]
            if all(y in kernel for y in conj if y in d):
                f *= dc.stabilizer_order
        factors.append(f)
    out = []
    for theta in basis:
        value = Fraction(1)
        for ci, coeff in theta.support():
            value /= Fraction(factors[ci]) ** coeff
        out.append(value)
    return tuple(out)


@pytest.mark.parametrize("name", corpus_names() + ("A4", "D8", "S4"))
def test_signed_coset_lattices_match_the_closed_form(name):
    """Z[G/D] for every class, Ind_D(ε) for every order-2 class, and every sign lattice of G."""
    group = _group(name)
    basis = brauer_relation_basis(group)
    reps = [cls.representative for cls in all_subgroups(group)]
    pairs = [(d, d) for d in reps]
    pairs += [(d, group.trivial_subgroup()) for d in reps if d.order == 2]
    pairs += [(group.full_subgroup(), k) for k in reps if 2 * k.order == group.order]
    for d, k in pairs:
        expected = _induced_closed_form(group, basis, d, k)
        assert regulator_constants_table(basis, induced_lattice(group, d, k)) == expected, (d, k)


def test_kgroup_comparison_modules_match_the_closed_form(monkeypatch):
    """Every module the K-group suite builds, on V4, D4, Q8, A4, D8 and S4.

    C_Θ is multiplicative in direct sums: Ind_D(ε) for even parity, Z[G/D]
    for odd, and Z[G] = Ind_1(1) for each copy of the regular lattice.
    """
    built = []

    def recording(group, d_real, s2_count, parity):
        module = kgroup_comparison_module(group, d_real, s2_count, parity)
        built.append((group, d_real, s2_count, parity, module))
        return module

    monkeypatch.setattr(factoreq.suites, "kgroup_comparison_module", recording)
    for gi, name in enumerate(("V4", "D4", "Q8", "A4", "D8", "S4")):
        assert all(c["ok"] for c in factoreq.suites._kgroup_checks(_group(name), name, gi))
    assert len(built) == 218
    for group, d_real, s2_count, parity, module in built:
        basis = brauer_relation_basis(group)
        summands = [(d, group.trivial_subgroup() if parity == "even" else d) for d in d_real]
        summands += [(group.trivial_subgroup(),) * 2] * s2_count
        expected = [Fraction(1)] * len(basis)
        for d, k in summands:
            expected = [a * b for a, b in zip(expected, _induced_closed_form(group, basis, d, k))]
        assert regulator_constants_table(basis, module) == tuple(expected) == (1,) * len(basis)
