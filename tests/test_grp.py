"""Group plumbing: construction, subgroup class tables, double cosets.

The subgroup enumeration is cross-checked against a brute-force oracle that
walks every subset of the group (fine for the small corpus orders).
"""

import hashlib
import time
from itertools import combinations

import pytest

from factoreq import (
    DoubleCoset,
    FiniteGroup,
    GroupError,
    Subgroup,
    SubgroupClass,
    all_subgroups,
    brauer_relation_basis,
    corpus_group,
    corpus_names,
    coset_action,
    double_cosets,
    fixed_sublattice,
    fp_fixed_data,
    group_from_generators,
    group_from_table,
    induced_lattice,
    kgroup_comparison_module,
    left_cosets,
    place_model,
    regular_lattice,
    residue_degrees,
    sunit_lattice,
    verify_sunit_index,
)
from factoreq.zgmod import _averaged_gram, _fixed_gram

CORPUS_ORDERS = {"C2": 2, "C4": 4, "C6": 6, "V4": 4, "S3": 6, "D4": 8, "Q8": 8}
# class counts verified by the brute-force oracle below
SUBGROUP_CLASS_COUNTS = {"C2": 2, "C4": 3, "C6": 4, "V4": 5, "S3": 4, "D4": 8, "Q8": 6}
SUBGROUP_TOTAL_COUNTS = {"C2": 2, "C4": 3, "C6": 4, "V4": 5, "S3": 6, "D4": 10, "Q8": 6}
ELEMENT_CLASS_COUNTS = {"C2": 2, "C4": 4, "C6": 6, "V4": 4, "S3": 3, "D4": 5, "Q8": 5}


def _brute_subgroups(group):
    """Every subgroup as a frozenset, by subset closure testing."""
    n = group.order
    t = group.table
    rest = [x for x in range(1, n)]
    found = set()
    for k in range(n):
        if n % (k + 1):
            continue
        for extra in combinations(rest, k):
            cand = frozenset((0,) + extra)
            if all(t[a][b] in cand for a in cand for b in cand):
                found.add(cand)
    return found


# --- construction ------------------------------------------------------------


def test_group_from_generators_orders():
    assert group_from_generators([(1, 0)]).order == 2
    assert group_from_generators([(1, 2, 3, 0)]).order == 4
    assert group_from_generators([(1, 2, 0), (1, 0, 2)]).order == 6


def test_group_from_generators_rejects_non_permutation():
    with pytest.raises(GroupError, match="not a permutation"):
        group_from_generators([(0, 0)])
    with pytest.raises(GroupError, match="not a permutation"):
        group_from_generators([(0, 1), (1, 2)])


def test_non_integer_elements_are_refused():
    v4 = corpus_group("V4")
    c2_table = [[0, 1], [1, 0.0]]
    for build in (
        lambda: Subgroup(v4, [0, 1.9]),
        lambda: FiniteGroup(c2_table),
        lambda: group_from_table(c2_table),
        lambda: group_from_generators([(1, 0.0)]),
    ):
        with pytest.raises(TypeError):
            build()


def test_group_from_generators_respects_bound():
    with pytest.raises(GroupError, match="too large"):
        group_from_generators([tuple(range(1, 7)) + (0,)], bound=5)


def test_group_from_table_renumbers_identity():
    # C2 written with the identity in slot 1
    g = group_from_table([[1, 0], [0, 1]])
    assert g.order == 2
    assert g.table == ((0, 1), (1, 0))


def test_group_from_table_rejects_junk():
    with pytest.raises(GroupError, match="no identity"):
        group_from_table([[1, 0], [1, 0]])
    with pytest.raises(GroupError):
        group_from_table([[0, 1]])


def test_table_validation_catches_non_associative():
    # A quasigroup table (Latin square) that is not a group.
    with pytest.raises(GroupError):
        FiniteGroup(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )


def _associative(table):
    """The cubic oracle: (ab)c = a(bc) for every triple."""
    rng = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in rng for b in rng for c in rng)


def _swapped_c2(k):
    """C2^k as a XOR b with the intercalate of rows 2, 3 and columns 4, 5 (2, 3 for k = 2) swapped."""
    n = 1 << k
    c, d = (4, 5) if k > 2 else (2, 3)
    table = [[a ^ b for b in range(n)] for a in range(n)]
    for row in table[2:4]:
        row[c], row[d] = row[d], row[c]
    return table


def _intercalate_swaps(table):
    """Each Latin square with identity 0 one intercalate swap away from `table`."""
    n = len(table)
    for a, b in combinations(range(1, n), 2):
        for c, d in combinations(range(1, n), 2):
            if table[a][c] == table[b][d] and table[a][d] == table[b][c]:
                swapped = [list(row) for row in table]
                swapped[a][c], swapped[a][d] = table[a][d], table[a][c]
                swapped[b][c], swapped[b][d] = table[b][d], table[b][c]
                yield swapped


def _checked_against_the_oracle(table):
    """The cubic oracle's verdict on `table`, after FiniteGroup has accepted or refused it to match."""
    if _associative(table):
        assert FiniteGroup(table).table == tuple(map(tuple, table))
        return True
    with pytest.raises(GroupError, match="^multiplication table is not associative$"):
        FiniteGroup(table)
    return False


def test_light_test_agrees_with_the_cubic_check():
    assert all(_checked_against_the_oracle(_group(name).table) for name in corpus_names() + tuple(LADDER))
    # Swapped C2^2 is C4 again; the larger swapped C2^k are not groups.
    assert [_checked_against_the_oracle(_swapped_c2(k)) for k in range(2, 7)] == [True] + [False] * 4
    swaps = (t for name in corpus_names() for t in _intercalate_swaps(corpus_group(name).table))
    assert {_checked_against_the_oracle(t) for t in swaps} == {True, False}


def test_a_swapped_intercalate_is_refused_at_order_1024():
    # Too large for the cubic oracle, and so few triples break associativity
    # that a sample of them can miss every one.
    table = _swapped_c2(10)
    start = time.perf_counter()
    with pytest.raises(GroupError, match="^multiplication table is not associative$"):
        group_from_table(table)
    assert time.perf_counter() - start < 2


# --- element-level API ---------------------------------------------------------


def test_element_orders_c6():
    g = corpus_group("C6")
    assert sorted(g.element_order(x) for x in range(6)) == [1, 2, 3, 3, 6, 6]


def test_inverse_and_power():
    g = corpus_group("S3")
    for x in range(g.order):
        assert g.table[x][g.inverse[x]] == 0
        acc = x
        for _ in range(g.element_order(x) - 1):
            acc = g.table[acc][x]
        assert acc == 0


@pytest.mark.parametrize("name", corpus_names())
def test_element_class_counts(name):
    assert len(corpus_group(name).element_classes) == ELEMENT_CLASS_COUNTS[name]


def test_closure():
    g = corpus_group("S3")
    assert g.closure([]).order == 1
    assert g.closure(range(g.order)).order == 6
    three_cycle = next(x for x in range(6) if g.element_order(x) == 3)
    assert g.closure([three_cycle]).order == 3


# --- subgroup enumeration -------------------------------------------------------


@pytest.mark.parametrize("name", corpus_names())
def test_subgroup_table_against_brute_force(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    brute = _brute_subgroups(group)
    members = [m for cls in table for m in cls.members]
    assert {frozenset(m) for m in members} == brute
    assert len(members) == SUBGROUP_TOTAL_COUNTS[name]
    assert len(table) == SUBGROUP_CLASS_COUNTS[name]


@pytest.mark.parametrize("name", corpus_names())
def test_class_order_is_canonical(name):
    table = all_subgroups(corpus_group(name))
    keys = [(cls.order, cls.members[0]) for cls in table]
    assert keys == sorted(keys)
    assert table[0].representative.order == 1
    assert table[len(table) - 1].representative.order == corpus_group(name).order


@pytest.mark.parametrize("name", corpus_names())
def test_class_size_equals_normalizer_index(name):
    group = corpus_group(name)
    for cls in all_subgroups(group):
        h = cls.representative
        assert len(cls.members) == group.order // h.normalizer().order


@pytest.mark.parametrize("name", corpus_names())
def test_conjugates_land_in_the_same_class(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    for ci, cls in enumerate(table):
        h = cls.representative
        for x in range(group.order):
            assert h.conjugate_by(x).elements in cls.members


def test_cyclic_class_counts():
    # non-cyclic classes in the corpus: V4 itself, S3, the two V4s in D4, D4, Q8
    assert all_subgroups(corpus_group("C6")).cyclic_class_count() == 4
    assert all_subgroups(corpus_group("V4")).cyclic_class_count() == 4
    assert all_subgroups(corpus_group("S3")).cyclic_class_count() == 3
    assert all_subgroups(corpus_group("D4")).cyclic_class_count() == 5
    assert all_subgroups(corpus_group("Q8")).cyclic_class_count() == 5


@pytest.mark.parametrize("name", corpus_names())
def test_class_table_is_a_tuple_that_carries_its_group(name):
    g = corpus_group(name)
    table = all_subgroups(g)
    assert isinstance(table, tuple) and table.group is g
    assert len(table) == SUBGROUP_CLASS_COUNTS[name]
    assert all(isinstance(cls, SubgroupClass) for cls in table)
    assert not hasattr(table, "classes")


def test_subgroup_invariants():
    g = corpus_group("D4")
    for cls in all_subgroups(g):
        h = cls.representative
        norm = h.normalizer()
        assert all(x in norm for x in h.elements)
        if 2 * h.order == g.order:
            assert norm.order == g.order


# --- cosets and double cosets -----------------------------------------------------


def test_left_cosets_partition():
    g = corpus_group("S3")
    h = next(c.representative for c in all_subgroups(g) if c.order == 2)
    cos = left_cosets(g, h)
    assert len(cos) == 3
    assert sorted(x for c in cos for x in c) == list(range(6))


def test_coset_entry_points_refuse_a_subgroup_of_another_group():
    s3, c6 = corpus_group("S3"), corpus_group("C6")
    foreign, own = Subgroup(c6, (0, 2, 4)), Subgroup(s3, (0, 1, 3))
    for call in (
        lambda: left_cosets(s3, foreign),
        lambda: double_cosets(s3, foreign, own),
        lambda: double_cosets(s3, own, foreign),
    ):
        with pytest.raises(GroupError, match="subgroup belongs to a different group"):
            call()
    assert left_cosets(s3, own) == [(0, 1, 3), (2, 4, 5)]


def test_subgroup_elements_are_range_checked_before_any_table_lookup():
    s3 = corpus_group("S3")
    for elems in ((0, 6), (0, 1, 7), (-1, 0), (0, 5, 2**70)):
        with pytest.raises(GroupError, match="subgroup element out of range"):
            Subgroup(s3, elems)


_S3, _C6 = corpus_group("S3"), corpus_group("C6")
_OWN = Subgroup(_S3, (0, 2))
_MODEL = place_model(_S3, [_OWN])
SUBGROUP_ENTRY_POINTS = {
    "left_cosets": lambda h: left_cosets(_S3, h),
    "double_cosets.h": lambda h: double_cosets(_S3, h, _OWN),
    "double_cosets.k": lambda h: double_cosets(_S3, _OWN, h),
    "coset_action": lambda h: coset_action(_S3, h),
    "PermAction.orbits": lambda h: coset_action(_S3, _S3.trivial_subgroup()).orbits(h),
    "induced_lattice.d": lambda h: induced_lattice(_S3, h),
    "induced_lattice.kernel": lambda h: induced_lattice(_S3, _OWN, h),
    "fixed_sublattice": lambda h: fixed_sublattice(regular_lattice(_S3), h),
    "fp_fixed_data": lambda h: fp_fixed_data(regular_lattice(_S3), h),
    "_fixed_gram": lambda h: _fixed_gram(
        regular_lattice(_S3), _averaged_gram(regular_lattice(_S3)), h
    ),
    "place_model": lambda h: place_model(_S3, [h]),
    "residue_degrees": lambda h: residue_degrees(_MODEL, h),
    "verify_sunit_index": lambda h: verify_sunit_index(sunit_lattice(_S3, [_OWN]), h),
    "kgroup_comparison_module": lambda h: kgroup_comparison_module(_S3, [h], 0, "odd").action,
}


@pytest.mark.parametrize("name", SUBGROUP_ENTRY_POINTS)
def test_every_subgroup_argument_is_checked_by_one_rule(name):
    """A Subgroup of G or its element set is taken; a foreign one is refused alike."""
    call = SUBGROUP_ENTRY_POINTS[name]
    with pytest.raises(GroupError, match="^subgroup belongs to a different group$"):
        call(Subgroup(_C6, (0, 3)))
    with pytest.raises(GroupError, match="^subgroup element out of range$"):
        call((0, 6))
    with pytest.raises(GroupError, match="^element set is not closed under multiplication$"):
        call((0, 1))
    assert call(_OWN) == call([2, 0])


def test_double_cosets_v4():
    # abelian: H = K of order 2 fixes both cosets of K pointwise
    g = corpus_group("V4")
    h = next(c.representative for c in all_subgroups(g) if c.order == 2)
    dcs = double_cosets(g, h, h)
    assert len(dcs) == 2
    assert all(dc.size == 1 and dc.stabilizer_order == 2 for dc in dcs)


def test_subgroup_records_compare_by_field():
    g = corpus_group("S3")
    cls = all_subgroups(g)[1]
    assert cls.order == 2 and len(cls.members) == 3 and cls.is_cyclic
    same = SubgroupClass(cls.representative, cls.members, cls.is_cyclic)
    assert same == cls and hash(same) == hash(cls)
    dc = double_cosets(g, cls.representative, cls.representative)[0]
    assert (dc.representative, dc.size, dc.stabilizer_order) == (0, 1, 2)
    other = DoubleCoset(representative=0, size=1, stabilizer_order=2)
    assert other == dc and hash(other) == hash(dc)


@pytest.mark.parametrize("name", corpus_names())
def test_double_coset_sizes_partition_cosets(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    for hc in table:
        for kc in table:
            h, k = hc.representative, kc.representative
            dcs = double_cosets(group, h, k)
            assert sum(dc.size for dc in dcs) == group.order // k.order
            for dc in dcs:
                assert dc.size * dc.stabilizer_order == h.order


def test_subgroup_requires_actual_subgroup():
    g = corpus_group("S3")
    with pytest.raises(GroupError):
        Subgroup(g, (0, 1, 2))  # arbitrary subset, not closed


@pytest.mark.parametrize("name", ("V4", "S3", "D4", "Q8"))
def test_subgroup_check_is_closure_under_every_product(name):
    group = corpus_group(name)
    subgroups = _brute_subgroups(group)
    for k in range(group.order):
        for extra in combinations(range(1, group.order), k):
            elems = (0,) + extra
            if frozenset(elems) in subgroups:
                assert Subgroup(group, elems).elements == elems
            else:
                with pytest.raises(GroupError, match="^element set is not closed under multiplication$"):
                    Subgroup(group, elems)


# --- larger groups from inline generators ------------------------------------------

# The benchmark ladder's groups, as permutation generators in one-line image
# notation under bench/ladder.py's keys (tests/test_bench_oracle.py pins the
# copy). Every test module reads them here, and each parametrization names
# the rungs it runs on.
LADDER = {
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D8": [[1, 2, 3, 4, 5, 6, 7, 0], [0, 7, 6, 5, 4, 3, 2, 1]],
    "C2_4": [
        [1, 0, 2, 3, 4, 5, 6, 7],
        [0, 1, 3, 2, 4, 5, 6, 7],
        [0, 1, 2, 3, 5, 4, 6, 7],
        [0, 1, 2, 3, 4, 5, 7, 6],
    ],
    "S4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "C2xS4": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5], [0, 1, 2, 3, 5, 4]],
}
# (order, subgroup classes); C2^4 is abelian, so its 67 classes are its 67 subgroups.
LADDER_CLASS_COUNTS = {
    "A4": (12, 5), "D8": (16, 11), "C2_4": (16, 67), "S4": (24, 11), "C2xS4": (48, 33),
}
# Subgroup totals: A4 and S4 are classical; D8 has tau(8) + sigma(8) = 19.
LADDER_TOTAL_COUNTS = {"A4": 10, "D8": 19, "C2_4": 67, "S4": 30}


def _group(name):
    """A ladder group by its key, else a corpus group."""
    gens = LADDER.get(name)
    return group_from_generators(gens) if gens else corpus_group(name)


def _s3_with_identity_in_slot_3():
    swap = (3, 1, 2, 0, 4, 5)  # relabel S3's elements by the transposition (0 3)
    s3 = corpus_group("S3").table
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[swap[a]][swap[b]] = swap[s3[a][b]]
    assert table[3] == list(range(6))
    return group_from_table(table)


@pytest.mark.parametrize("name", corpus_names() + tuple(LADDER) + ("S3-relabelled",))
def test_inverse_is_two_sided(name):
    # `inverse` is the column of the one 0 in each row of the Latin square.
    group = _s3_with_identity_in_slot_3() if name == "S3-relabelled" else _group(name)
    for a, b in enumerate(group.inverse):
        assert group.table[a][b] == group.table[b][a] == 0


def test_a_non_latin_table_is_refused_before_inverses_are_read():
    # Row 1 holds no 0: the table check refuses it, so element 1 never lacks an inverse.
    with pytest.raises(GroupError, match="row is not a permutation"):
        FiniteGroup([[0, 1], [1, 1]])


def _every_pair_subgroups(group):
    """All subgroups by extending every known subgroup by every element."""
    found = {group.closure((g,)).elements for g in range(group.order)}
    frontier = set(found)
    while frontier:
        fresh = set()
        for elems in frontier:
            for g in range(group.order):
                h = group.closure(elems + (g,)).elements
                if h not in found:
                    found.add(h)
                    fresh.add(h)
        frontier = fresh
    return found


@pytest.mark.parametrize("name", LADDER)
def test_ladder_class_counts(name):
    group = group_from_generators(LADDER[name])
    table = all_subgroups(group)
    assert (group.order, len(table)) == LADDER_CLASS_COUNTS[name]
    for cls in table:
        assert len(cls.members) == group.order // cls.representative.normalizer().order
    if name in LADDER_TOTAL_COUNTS:
        listed = {m for cls in table for m in cls.members}
        assert listed == _every_pair_subgroups(group)
        assert len(listed) == LADDER_TOTAL_COUNTS[name]


@pytest.mark.parametrize("name,rank", (("S4", 6), ("C2xS4", 23)))
def test_ladder_relation_rank_is_non_cyclic_class_count(name, rank):
    group = group_from_generators(LADDER[name])
    table = all_subgroups(group)
    assert brauer_relation_basis(group).rank == len(table) - table.cyclic_class_count() == rank


# sha256 of repr(group.table), first 16 hex digits: the element numbering of
# group_from_generators' breadth-first closure.
TABLE_HASHES = {
    "C2": "a0e10c7a00c7e25d", "C4": "031f409039ede13a", "C6": "ba5bf2265dd7e782",
    "V4": "03dc126565fc1335", "S3": "13b618cb964c988d", "D4": "9b2a3396e776d95b",
    "Q8": "60319c65b9135720", "A4": "e495d01ccbeca1cc", "D8": "b54b50540f457681",
    "C2_4": "483a401e05102f03", "S4": "7bea5514af9f3fdd", "C2xS4": "647b3d5e0ada3d60",
}


@pytest.mark.parametrize("name", TABLE_HASHES)
def test_generated_tables_keep_their_numbering(name):
    table = _group(name).table
    assert hashlib.sha256(repr(table).encode()).hexdigest()[:16] == TABLE_HASHES[name]
