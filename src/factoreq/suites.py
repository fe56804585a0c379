"""Verification suites over the built-in corpus.

Each suite runs a family of exact identities and returns one check record
per (property, group). Randomized instances are drawn from fixed internal
seeds so verdicts and regulator-constant tables never depend on the user
seed; the user seed only steers the equivariant-embedding search inside
factor-equivalence queries.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from .corpus import corpus_group, corpus_names
from .exactla import IntMatrix, determinant, rank
from .grp import all_subgroups
from .burnside import (
    BurnsideElement,
    brauer_relation_basis,
    coset_action,
    fixed_point_matrix,
    relation_is_saturated,
)
from .zgmod import (
    FpModule,
    ZGLattice,
    _averaged_map,
    as_fp_module,
    conjugated_lattice,
    direct_sum,
    induced_lattice,
    permutation_lattice,
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

SUITE_NAMES = ("relations", "pairing", "lemma", "corollary", "sunit", "kgroups")

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


def _random_unimodular(n, rng, steps=6):
    m = IntMatrix.identity(n)
    if n < 2:
        return m
    for _ in range(steps):
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
        return permutation_lattice(group, coset_action(group, table[ci].representative))

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
        eps = {0: IntMatrix([[1]]), d.elements[1]: IntMatrix([[-1]])}
        return induced_lattice(group, d, eps)
    return coset(rng.randrange(len(table)))


def _random_equivariant_endo(m, rng, tries=8):
    """Injective equivariant T: M -> M, found by averaging; never fails.

    Falls back to a diagonally dominant shift c·I + T, which is equivariant
    and nonsingular regardless of the random draw.
    """
    r = m.rank
    if r == 0:
        return IntMatrix.zeros(0, 0)
    t = None
    for _ in range(tries):
        rand = IntMatrix(
            (tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(r)), cols=r
        )
        t = _averaged_map(m, m, rand)
        if determinant(t) != 0:
            return t
    c = 1 + max(sum(abs(x) for x in t.row(i)) for i in range(r))
    return IntMatrix.identity(r) * c + t


def _random_relation(basis, rng):
    """Nonzero small integer combination of the basis relations."""
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


# --- relations suite -------------------------------------------------------


def _relations_checks(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    checks = []

    oracle = len(table) - rank(fixed_point_matrix(group))
    formula = len(table) - table.cyclic_class_count()
    ok = basis.rank == formula == oracle
    if name in _KNOWN_RANKS:
        ok = ok and basis.rank == _KNOWN_RANKS[name]
    checks.append(
        _check(
            "relations.rank",
            name,
            ok,
            rank=basis.rank,
            classes=len(table),
            cyclic_classes=table.cyclic_class_count(),
            kernel_oracle=oracle,
        )
    )

    if name in _KNOWN_RELATIONS:
        want = _KNOWN_RELATIONS[name]
        got = basis[0].coeffs
        ok = got == want or tuple(-x for x in got) == want
        checks.append(_check("relations.vector", name, ok, coeffs=list(got)))

    degree_ok = all(
        sum(n * (group.order // table[ci].order) for ci, n in theta.support()) == 0
        for theta in basis
    )
    checks.append(_check("relations.degree-zero", name, degree_ok))
    checks.append(_check("relations.saturated", name, relation_is_saturated(basis)))

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
        _check("relations.regular-trivial", name, ones and mult, powers=[1, 2, 3])
    )
    return checks


def suite_relations(seed=0):
    checks = []
    for name in corpus_names():
        checks.extend(_relations_checks(name))
    return checks


# --- pairing-independence / additivity / multiplicativity suite ------------


def _pairing_checks(name, gi, count=50):
    group = corpus_group(name)
    basis = brauer_relation_basis(group)
    rng = _rng("pairing", gi)
    ok = True
    instances = 0
    for _ in range(count):
        instances += 1
        m = _random_module(group, rng)
        p1 = random_invariant_pairing(m, rng)
        p2 = random_invariant_pairing(m, rng)
        t0 = regulator_constants_table(basis, m)  # averaged default
        t1 = regulator_constants_table(basis, m, p1)
        t2 = regulator_constants_table(basis, m, p2)
        if not (t0 == t1 == t2):
            ok = False
            break
    return [_check("pairing.independence", name, ok, instances=instances, relations=basis.rank)]


def _linearity_checks(name, gi, count=16):
    group = corpus_group(name)
    basis = brauer_relation_basis(group)
    if basis.rank == 0:
        return []
    rng = _rng("additivity", gi)
    add_ok = mult_ok = True
    add_runs = mult_runs = 0
    for _ in range(count):
        add_runs += 1
        m = _random_module(group, rng)
        t1 = _random_relation(basis, rng)
        t2 = _random_relation(basis, rng)
        lhs = regulator_constant(t1 + t2, m)
        if lhs != regulator_constant(t1, m) * regulator_constant(t2, m):
            add_ok = False
            break
    for _ in range(count):
        mult_runs += 1
        m = _random_module(group, rng, max_rank=8)
        n = _random_module(group, rng, max_rank=8)
        theta = _random_relation(basis, rng)
        lhs = regulator_constant(theta, direct_sum(m, n))
        if lhs != regulator_constant(theta, m) * regulator_constant(theta, n):
            mult_ok = False
            break
    return [
        _check("pairing.additivity", name, add_ok, instances=add_runs),
        _check("pairing.multiplicativity", name, mult_ok, instances=mult_runs),
    ]


def suite_pairing(seed=0):
    checks = []
    for gi, name in enumerate(corpus_names()):
        checks.extend(_pairing_checks(name, gi))
        checks.extend(_linearity_checks(name, gi))
    return checks


# --- Lemma suite -----------------------------------------------------------

_LEMMA_GROUPS = ("V4", "S3", "D4", "Q8")


def _lemma_checks(name, gi, rounds=7):
    group = corpus_group(name)
    basis = brauer_relation_basis(group)
    rng = _rng("lemma", gi)
    index2 = _index2_subgroups(group)
    instances = 0
    torsion_orders = set()
    ok = True

    def run(m, n, t):
        nonlocal instances, ok
        theta = _random_relation(basis, rng)
        res = verify_lemma(m, n, t, theta)
        instances += 1
        if not res.ok:
            ok = False
        return res.ok

    for _ in range(rounds):
        # lattice endomorphism with nontrivial cokernel structure
        m = _random_module(group, rng, max_rank=8)
        if not run(m, m, _random_equivariant_endo(m, rng)):
            break
        # torsion extension projected back onto its lattice
        k = (3, 5, 9)[instances % 3]
        lat = _random_module(group, rng, max_rank=6)
        kernel = index2[rng.randrange(len(index2))] if index2 and rng.randrange(2) else None
        twist = _torsion_twist(lat, k, rng, kernel)
        proj = IntMatrix.identity(lat.rank).hstack(IntMatrix.zeros(lat.rank, 1))
        torsion_orders.add(k)
        if not run(twist, lat, proj):
            break
        # the same projection composed with a non-unimodular endomorphism
        endo = _random_equivariant_endo(lat, rng)
        if not run(twist, lat, endo @ proj):
            break
        # torsion-to-torsion map: Z/9 twist onto Z/3 twist, same cocycle data
        lat2 = _random_module(group, rng, max_rank=6)
        kernel2 = index2[rng.randrange(len(index2))] if index2 else None
        shared_u = [rng.randrange(3) for _ in range(lat2.rank)]
        twist9 = _torsion_twist(lat2, 9, rng, kernel2, u=shared_u)
        twist3 = _torsion_twist(lat2, 3, rng, kernel2, u=shared_u)
        torsion_orders.update((3, 9))
        if not run(twist9, twist3, IntMatrix.identity(lat2.rank + 1)):
            break
    return [
        _check(
            "lemma.identity",
            name,
            ok,
            instances=instances,
            torsion_orders=sorted(torsion_orders),
        )
    ]


def suite_lemma(seed=0):
    checks = []
    for name in _LEMMA_GROUPS:
        gi = corpus_names().index(name)
        checks.extend(_lemma_checks(name, gi))
    return checks


# --- Corollary (factor-equivalence) suite ----------------------------------


def _corollary_checks(name, gi, seed, pairs=14):
    group = corpus_group(name)
    basis = brauer_relation_basis(group)
    rng = _rng("corollary", gi)
    ok = True
    instances = 0
    for _ in range(pairs):
        m = _random_module(group, rng, max_rank=8)
        if rng.randrange(2):
            n = conjugated_lattice(m, _random_unimodular(m.rank, rng))
            expect_true = True
        else:
            t = _random_equivariant_endo(m, rng)
            n = sublattice_action(m, t)
            expect_true = None  # verdict decided by the engine's two routes
        report = factor_equivalent(m, n, seed=seed)
        instances += 1
        if report.verdict != all(d == 1 for d in report.defects):
            ok = False
            break
        if report.verdict != (report.constants_m == report.constants_n):
            ok = False
            break
        if expect_true is True and not report.verdict:
            ok = False
            break
    return [_check("corollary.routes", name, ok, instances=instances)]


def _corollary_known_false(seed):
    """Z[G/1] ⊕ Z[G/G]² vs ⊕ᵢ Z[G/Hᵢ] over V4: same character, defect 2."""
    group = corpus_group("V4")
    table = all_subgroups(group)
    order2 = [c.representative for c in table if c.order == 2]
    m = direct_sum(
        regular_lattice(group), trivial_lattice(group), trivial_lattice(group)
    )
    n = direct_sum(
        *(permutation_lattice(group, coset_action(group, h)) for h in order2)
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
    checks = []
    for name in _LEMMA_GROUPS:
        gi = corpus_names().index(name)
        checks.extend(_corollary_checks(name, gi, seed))
    checks.extend(_corollary_known_false(seed))
    return checks


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


def _sunit_index_checks(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    cases = 0
    ok = True
    for d_list in _sunit_d_lists(group):
        su = sunit_lattice(group, [table[ci].representative for ci in d_list])
        for cls in table:
            res = verify_sunit_index(su, cls.representative)
            cases += 1
            if not res.ok:
                ok = False
                break
        if not ok:
            break
    return [_check("sunit.index", name, ok, cases=cases)]


def _sunit_closed_form_checks(name):
    group = corpus_group(name)
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    if basis.rank == 0:
        return []
    d_lists = _sunit_d_lists(group)[: max(3, min(5, len(table)))]
    cases = 0
    ok = True
    for d_list in d_lists:
        su = sunit_lattice(group, [table[ci].representative for ci in d_list])
        averaged = averaged_pairing(su.lattice)
        for theta in basis:
            res = verify_sunit_closed_form(su, theta)
            agree = regulator_constant(theta, su.lattice, su.pairing) == (
                regulator_constant(theta, su.lattice, averaged)
            )
            cases += 1
            if not (res.ok and agree):
                ok = False
                break
        if not ok:
            break
    return [_check("sunit.closed-form", name, ok, d_lists=len(d_lists), cases=cases)]


def suite_sunit(seed=0):
    checks = []
    for name in corpus_names():
        checks.extend(_sunit_index_checks(name))
        checks.extend(_sunit_closed_form_checks(name))
    return checks


# --- K-group comparison suite ----------------------------------------------


def _kgroup_checks(name, max_places=2):
    group = corpus_group(name)
    table = all_subgroups(group)
    basis = brauer_relation_basis(group)
    odd_classes = [ci for ci, c in enumerate(table) if c.order <= 2]
    even_classes = [ci for ci, c in enumerate(table) if c.order == 2]
    checks = []
    for parity, admissible in (("odd", odd_classes), ("even", even_classes)):
        ok = True
        modules = 0
        d_choices = [
            combo
            for size in range(max_places + 1)
            for combo in combinations_with_replacement(admissible, size)
        ]
        for combo in d_choices:
            for s2 in (0, 1):
                d_real = [table[ci].representative for ci in combo]
                module = kgroup_comparison_module(group, d_real, s2, parity)
                res = verify_kgroup_triviality(module, basis)
                modules += 1
                if not res.ok:
                    ok = False
                    break
            if not ok:
                break
        checks.append(
            _check(
                f"kgroups.{parity}",
                name,
                ok,
                modules=modules,
                d_choices=len(d_choices),
            )
        )
    return checks


def suite_kgroups(seed=0):
    checks = []
    for name in ("V4", "D4", "Q8"):
        checks.extend(_kgroup_checks(name))
    return checks


# --- assembly --------------------------------------------------------------

_SUITES = {
    "relations": suite_relations,
    "pairing": suite_pairing,
    "lemma": suite_lemma,
    "corollary": suite_corollary,
    "sunit": suite_sunit,
    "kgroups": suite_kgroups,
}


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
            lat = permutation_lattice(group, coset_action(group, cls.representative))
            entry[f"coset[{ci}]"] = list(regulator_constants_table(basis, lat))
        out[name] = entry
    return out


def run_suites(suite, seed=0):
    """Run one suite (or 'all'); returns the full report structure.

    `verdicts` and `regulator_constants` are seed-independent by construction;
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
        "summary": {"checks": len(checks), "passed": passed, "ok": passed == len(checks)},
    }
