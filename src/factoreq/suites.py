"""Verification suites over the built-in corpus.

Each suite runs a family of exact identities and returns one check record
per (property, group). A family takes a group, the label its records carry
and the index of its random stream, so it runs on any group; a suite runs
its families over a list of corpus groups, each with its corpus index. The
frozen relation vectors and ranks apply by corpus label. Randomized
instances are drawn from fixed internal seeds so verdicts and
regulator-constant tables never depend on the user seed; the user seed only
steers the equivariant-embedding search inside factor-equivalence queries.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, islice

from .corpus import corpus_group, corpus_names
from .exactla import IntMatrix, determinant, rank
from .grp import all_subgroups
from .burnside import (
    BurnsideElement,
    brauer_relation_basis,
    fixed_point_matrix,
    relation_is_saturated,
)
from .zgmod import (
    FpModule,
    _averaged_maps,
    conjugated_lattice,
    direct_sum,
    induced_lattice,
    regular_lattice,
    sublattice_action,
    trivial_lattice,
)
from .regfe import (
    averaged_pairing,
    factor_equivalent,
    random_invariant_pairing,
    regulator_constant,
    regulator_constants_table,
    verify_lemma,
)
from .arith import (
    kgroup_comparison_module,
    sunit_lattice,
    verify_kgroup_triviality,
    verify_sunit_closed_form,
    verify_sunit_index,
)

# Internal seeds: one stream per (suite, group), independent of the user seed.
_SEED_BASE = {"pairing": 101, "additivity": 211, "lemma": 307, "corollary": 401}

# Frozen hand-derived relation vectors (canonical class order, sign-normalized).
_KNOWN_RELATIONS = {
    "V4": (1, -1, -1, -1, 2),
    "S3": (1, -2, -1, 2),
}
_KNOWN_RANKS = {"C2": 0, "C4": 0, "C6": 0, "V4": 1, "S3": 1}


def _check(name, group_name, ok, **details):
    rec = {"name": name, "group": group_name, "ok": bool(ok)}
    rec.update(details)
    return rec


def _rng(suite, group_index):
    return random.Random(_SEED_BASE[suite] * 1000 + group_index)


def _until_failure(trials):
    """Draw trials (booleans) up to and including the first failing one: (ok, runs)."""
    runs = 0
    for ok in trials:
        runs += 1
        if not ok:
            return False, runs
    return True, runs


def _random_unimodular(n, rng):
    m = IntMatrix.identity(n)
    if n < 2:
        return m
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k = rng.choice((-2, -1, 1, 2))
        rows = m.tolist()
        for c in range(n):
            rows[j][c] += k * rows[i][c]
        m = IntMatrix(rows, cols=n)
    return m


def _random_module(group, rng, max_rank=12):
    """Small random lattice: coset lattices, sums, or a unimodular conjugate."""
    table = all_subgroups(group)

    def coset(ci):
        return induced_lattice(group, table[ci].representative)

    kind = rng.randrange(4)
    if kind == 0:
        return coset(rng.randrange(len(table)))
    if kind == 1:
        a = coset(rng.randrange(len(table)))
        b = coset(rng.randrange(len(table)))
        if a.rank + b.rank <= max_rank:
            return direct_sum(a, b)
        return a
    if kind == 2:
        m = coset(rng.randrange(len(table)))
        return conjugated_lattice(m, _random_unimodular(m.rank, rng))
    order2 = [c for c in table if c.order == 2]
    if order2:
        d = order2[rng.randrange(len(order2))].representative
        return induced_lattice(group, d, group.trivial_subgroup())
    return coset(rng.randrange(len(table)))


def _random_equivariant_endo(m, rng):
    """Injective equivariant T: M -> M, found by averaging (eight draws); never fails.

    Falls back to a diagonally dominant shift c·I + T, which is equivariant
    and nonsingular regardless of the random draw.
    """
    r = m.rank
    if r == 0:
        return IntMatrix.zeros(0, 0)
    t = None
    for t in islice(_averaged_maps(m, m, rng, 2), 8):
        if determinant(t) != 0:
            return t
    c = 1 + max(sum(abs(x) for x in t.row(i)) for i in range(r))
    return IntMatrix.identity(r) * c + t


def _random_relation(basis, rng):
    """Nonzero small integer combination of the basis relations."""
    if basis.rank == 0:
        raise ValueError("K(G) = 0 has no nonzero relation")
    while True:
        theta = BurnsideElement.zero(basis.group)
        for b in basis:
            theta = theta + b * rng.randint(-2, 2)
        if not theta.is_zero():
            return theta


def _torsion_twist(lattice, k, rng, character_kernel=None, u=None):
    """FpModule extension of `lattice` by Z/k via a coboundary row cocycle.

    The extra generator y carries the torsion; g acts on y by d(g) = ±1
    (a quadratic character with kernel `character_kernel`, or trivially) and
    mixes via the exact cocycle c(g) = u·ρ(g) − d(g)·u.
    """
    group = lattice.group
    r = lattice.rank
    if u is None:
        u = [rng.randrange(k) for _ in range(r)]
    action = []
    for g in range(group.order):
        d = 1 if character_kernel is None or g in character_kernel else -1
        rho = lattice.action[g]
        c = [
            sum(u[i] * rho[i, j] for i in range(r)) - d * u[j]
            for j in range(r)
        ]
        rows = [tuple(rho.row(i)) + (0,) for i in range(r)]
        rows.append(tuple(c) + (d,))
        action.append(IntMatrix(rows, cols=r + 1))
    relations = IntMatrix.from_columns([(0,) * r + (k,)], rows=r + 1)
    return FpModule(group, r + 1, relations, action, check=False)


def _index2_subgroups(group):
    return [
        c.representative
        for c in all_subgroups(group)
        if 2 * c.order == group.order
    ]


def _over(names, *families):
    """Each family on each named corpus group (all of them for None), group by group."""
    checks = []
    for name in names or corpus_names():
        group, gi = corpus_group(name), corpus_names().index(name)
        for family in families:
            checks.extend(family(group, name, gi))
    return checks


# --- relations suite -------------------------------------------------------


def _relations_checks(group, label, gi):
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    checks = []

    oracle = len(table) - rank(fixed_point_matrix(group))
    formula = len(table) - table.cyclic_class_count()
    ok = basis.rank == formula == oracle
    if label in _KNOWN_RANKS:
        ok = ok and basis.rank == _KNOWN_RANKS[label]
    checks.append(
        _check(
            "relations.rank",
            label,
            ok,
            rank=basis.rank,
            classes=len(table),
            cyclic_classes=table.cyclic_class_count(),
            kernel_oracle=oracle,
        )
    )

    if label in _KNOWN_RELATIONS:
        want = _KNOWN_RELATIONS[label]
        got = basis[0].coeffs
        ok = got == want or tuple(-x for x in got) == want
        checks.append(_check("relations.vector", label, ok, coeffs=list(got)))

    degree_ok = all(
        sum(n * (group.order // table[ci].order) for ci, n in theta.support()) == 0
        for theta in basis
    )
    checks.append(_check("relations.degree-zero", label, degree_ok))
    checks.append(_check("relations.saturated", label, relation_is_saturated(basis)))

    reg = regular_lattice(group)
    tables = [regulator_constants_table(basis, reg)]
    for k in (2, 3):
        tables.append(regulator_constants_table(basis, direct_sum(*([reg] * k))))
    ones = all(c == 1 for t in tables for c in t)
    mult = all(
        tables[k - 1][i] == tables[0][i] ** k
        for k in (2, 3)
        for i in range(len(basis))
    )
    checks.append(
        _check("relations.regular-trivial", label, ones and mult, powers=[1, 2, 3])
    )
    return checks


def suite_relations(seed=0):
    return _over(None, _relations_checks)


# --- pairing-independence / additivity / multiplicativity suite ------------


def _pairing_checks(group, label, gi, count=50):
    basis = brauer_relation_basis(group)
    rng = _rng("pairing", gi)

    def trial():
        m = _random_module(group, rng)
        # None: the averaged default pairing
        pairings = (None, random_invariant_pairing(m, rng), random_invariant_pairing(m, rng))
        return len({regulator_constants_table(basis, m, p) for p in pairings}) == 1

    ok, instances = _until_failure(trial() for _ in range(count))
    return [_check("pairing.independence", label, ok, instances=instances, relations=basis.rank)]


def _linearity_checks(group, label, gi, count=16):
    basis = brauer_relation_basis(group)
    if basis.rank == 0:
        return []
    rng = _rng("additivity", gi)

    def additive():
        m = _random_module(group, rng)
        t1 = _random_relation(basis, rng)
        t2 = _random_relation(basis, rng)
        lhs = regulator_constant(t1 + t2, m)
        return lhs == regulator_constant(t1, m) * regulator_constant(t2, m)

    def multiplicative():
        m = _random_module(group, rng, max_rank=8)
        n = _random_module(group, rng, max_rank=8)
        theta = _random_relation(basis, rng)
        lhs = regulator_constant(theta, direct_sum(m, n))
        return lhs == regulator_constant(theta, m) * regulator_constant(theta, n)

    add_ok, add_runs = _until_failure(additive() for _ in range(count))
    mult_ok, mult_runs = _until_failure(multiplicative() for _ in range(count))
    return [
        _check("pairing.additivity", label, add_ok, instances=add_runs),
        _check("pairing.multiplicativity", label, mult_ok, instances=mult_runs),
    ]


def suite_pairing(seed=0):
    return _over(None, _pairing_checks, _linearity_checks)


# --- Lemma suite -----------------------------------------------------------

_LEMMA_GROUPS = ("V4", "S3", "D4", "Q8")


def _lemma_checks(group, label, gi, rounds=7):
    basis = brauer_relation_basis(group)
    if basis.rank == 0:
        return []
    rng = _rng("lemma", gi)
    index2 = _index2_subgroups(group)
    torsion_orders = set()

    def holds(m, n, t):
        return verify_lemma(m, n, t, _random_relation(basis, rng)).ok

    def trials():
        for r in range(rounds):
            # lattice endomorphism with nontrivial cokernel structure
            m = _random_module(group, rng, max_rank=8)
            yield holds(m, m, _random_equivariant_endo(m, rng))
            # torsion extension projected back onto its lattice; 4r + 1 instances ran
            k = (3, 5, 9)[(4 * r + 1) % 3]
            lat = _random_module(group, rng, max_rank=6)
            kernel = index2[rng.randrange(len(index2))] if index2 and rng.randrange(2) else None
            twist = _torsion_twist(lat, k, rng, kernel)
            proj = IntMatrix.identity(lat.rank).hstack(IntMatrix.zeros(lat.rank, 1))
            torsion_orders.add(k)
            yield holds(twist, lat, proj)
            # the same projection composed with a non-unimodular endomorphism
            endo = _random_equivariant_endo(lat, rng)
            yield holds(twist, lat, endo @ proj)
            # torsion-to-torsion map: Z/9 twist onto Z/3 twist, same cocycle data
            lat2 = _random_module(group, rng, max_rank=6)
            kernel2 = index2[rng.randrange(len(index2))] if index2 else None
            shared_u = [rng.randrange(3) for _ in range(lat2.rank)]
            twist9 = _torsion_twist(lat2, 9, rng, kernel2, u=shared_u)
            twist3 = _torsion_twist(lat2, 3, rng, kernel2, u=shared_u)
            torsion_orders.update((3, 9))
            yield holds(twist9, twist3, IntMatrix.identity(lat2.rank + 1))

    ok, instances = _until_failure(trials())
    return [
        _check(
            "lemma.identity",
            label,
            ok,
            instances=instances,
            torsion_orders=sorted(torsion_orders),
        )
    ]


def suite_lemma(seed=0):
    return _over(_LEMMA_GROUPS, _lemma_checks)


# --- Corollary (factor-equivalence) suite ----------------------------------


def _corollary_checks(group, label, gi, seed, pairs=14):
    basis = brauer_relation_basis(group)
    rng = _rng("corollary", gi)

    def trial():
        m = _random_module(group, rng, max_rank=8)
        conjugate = rng.randrange(2)
        if conjugate:
            n = conjugated_lattice(m, _random_unimodular(m.rank, rng))
        else:  # verdict decided by the engine's two routes
            n = sublattice_action(m, _random_equivariant_endo(m, rng))
        report = factor_equivalent(m, n, seed=seed)
        # Both routes give the verdict, and a unimodular conjugate is always equivalent.
        routes = {all(d == 1 for d in report.defects), report.constants_m == report.constants_n}
        return routes == {report.verdict} and (report.verdict or not conjugate)

    ok, instances = _until_failure(trial() for _ in range(pairs))
    return [_check("corollary.routes", label, ok, instances=instances)]


def _corollary_known_false(seed):
    """Z[G/1] ⊕ Z[G/G]² vs ⊕ᵢ Z[G/Hᵢ] over V4: same character, defect 2."""
    group = corpus_group("V4")
    table = all_subgroups(group)
    order2 = [c.representative for c in table if c.order == 2]
    m = direct_sum(
        regular_lattice(group), trivial_lattice(group), trivial_lattice(group)
    )
    n = direct_sum(
        *(induced_lattice(group, h) for h in order2)
    )
    report = factor_equivalent(m, n, seed=seed)
    defect = report.defects[0]
    ok = (
        not report.verdict
        and defect in (Fraction(2), Fraction(1, 2))
        and defect ** 2 == report.constants_m[0] / report.constants_n[0]
    )
    return [
        _check(
            "corollary.known-false",
            "V4",
            ok,
            verdict=report.verdict,
            defect=defect,
        )
    ]


def suite_corollary(seed=0):
    return _over(_LEMMA_GROUPS, partial(_corollary_checks, seed=seed)) + _corollary_known_false(seed)


# --- S-unit suite ----------------------------------------------------------


def _sunit_d_lists(group):
    """Deterministic family of decomposition-group lists per group."""
    table = all_subgroups(group)
    k = len(table)
    lists = [[ci] for ci in range(k)]
    lists.extend([ci, ci + 1] for ci in range(k - 1))
    if k >= 3:
        lists.append([0, 1, 2])
    if k <= 6:
        lists.append(list(range(k)))
    return lists


def _sunit_index_checks(group, label, gi):
    table = all_subgroups(group)
    lattices = (
        sunit_lattice(group, [table[ci].representative for ci in d_list])
        for d_list in _sunit_d_lists(group)
    )
    ok, cases = _until_failure(
        verify_sunit_index(su, cls.representative).ok for su in lattices for cls in table
    )
    return [_check("sunit.index", label, ok, cases=cases)]


def _sunit_closed_form_checks(group, label, gi):
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    if basis.rank == 0:
        return []
    d_lists = _sunit_d_lists(group)[: max(3, min(5, len(table)))]

    def trials():
        for d_list in d_lists:
            su = sunit_lattice(group, [table[ci].representative for ci in d_list])
            averaged = averaged_pairing(su.lattice)
            for theta in basis:
                res = verify_sunit_closed_form(su, theta)
                agree = regulator_constant(theta, su.lattice, su.pairing) == (
                    regulator_constant(theta, su.lattice, averaged)
                )
                yield res.ok and agree

    ok, cases = _until_failure(trials())
    return [_check("sunit.closed-form", label, ok, d_lists=len(d_lists), cases=cases)]


def suite_sunit(seed=0):
    return _over(None, _sunit_index_checks, _sunit_closed_form_checks)


# --- K-group comparison suite ----------------------------------------------


def _kgroup_checks(group, label, gi, max_places=2):
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    odd_classes = [ci for ci, c in enumerate(table) if c.order <= 2]
    even_classes = [ci for ci, c in enumerate(table) if c.order == 2]
    checks = []
    for parity, admissible in (("odd", odd_classes), ("even", even_classes)):
        d_choices = [
            combo
            for size in range(max_places + 1)
            for combo in combinations_with_replacement(admissible, size)
        ]
        comparisons = (
            kgroup_comparison_module(group, [table[ci].representative for ci in combo], s2, parity)
            for combo in d_choices
            for s2 in (0, 1)
        )
        ok, modules = _until_failure(verify_kgroup_triviality(c, basis).ok for c in comparisons)
        checks.append(
            _check(
                f"kgroups.{parity}",
                label,
                ok,
                modules=modules,
                d_choices=len(d_choices),
            )
        )
    return checks


def suite_kgroups(seed=0):
    return _over(("V4", "D4", "Q8"), _kgroup_checks)


# --- assembly --------------------------------------------------------------

_SUITES = {
    "relations": suite_relations,
    "pairing": suite_pairing,
    "lemma": suite_lemma,
    "corollary": suite_corollary,
    "sunit": suite_sunit,
    "kgroups": suite_kgroups,
}
SUITE_NAMES = tuple(_SUITES)


def _regulator_constant_tables():
    """Seed-independent reference tables: standard modules per corpus group."""
    out = {}
    for name in corpus_names():
        group = corpus_group(name)
        table = all_subgroups(group)
        basis = brauer_relation_basis(group)
        entry = {
            "trivial": list(regulator_constants_table(basis, trivial_lattice(group))),
            "regular": list(regulator_constants_table(basis, regular_lattice(group))),
        }
        for ci, cls in enumerate(table):
            lat = induced_lattice(group, cls.representative)
            entry[f"coset[{ci}]"] = list(regulator_constants_table(basis, lat))
        out[name] = entry
    return out


def run_suites(suite, seed=0):
    """Run one suite (or 'all'); returns the full report structure.

    `verdicts`, `regulator_constants` and `relations` (the basis per corpus
    group that the tables use) are seed-independent by construction;
    everything else is deterministic given the seed.
    """
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITES:
        names = (suite,)
    else:
        raise KeyError(f"unknown suite {suite!r}")
    checks = []
    for sname in names:
        checks.extend(_SUITES[sname](seed=seed))
    verdicts = {f"{c['name']}[{c['group']}]": c["ok"] for c in checks}
    passed = sum(1 for c in checks if c["ok"])
    return {
        "suite": suite,
        "seed": seed,
        "groups": list(corpus_names()),
        "checks": checks,
        "verdicts": verdicts,
        "regulator_constants": _regulator_constant_tables(),
        "relations": {n: brauer_relation_basis(corpus_group(n)).relations for n in corpus_names()},
        "summary": {"checks": len(checks), "passed": passed, "ok": passed == len(checks)},
    }
