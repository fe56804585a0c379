"""End-to-end acceptance gate.

Ten numbered criteria, each printing a single PASS/FAIL line on the real
stdout (bypassing pytest's capture) before asserting.  All comparisons are
exact — every quantity in the library is an integer or a Fraction.
"""

import json
from fractions import Fraction
from pathlib import Path

import sympy

from factoreq import (
    all_subgroups,
    brauer_relation_basis,
    corpus_group,
    direct_sum,
    fixed_point_matrix,
    is_brauer_relation,
    regular_lattice,
    regulator_constants_table,
)
from factoreq.cli import main
from factoreq.suites import _sunit_d_lists

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = ("C2", "C4", "C6", "V4", "S3", "D4", "Q8")
RELATION_BEARING = ("V4", "S3", "D4", "Q8")
KNOWN_RANKS = {"C2": 0, "C4": 0, "C6": 0, "V4": 1, "S3": 1, "D4": 3, "Q8": 1}
KNOWN_RELATIONS = {
    "V4": (1, -1, -1, -1, 2),
    "S3": (1, -2, -1, 2),
}


def _emit(capfd, num, name, ok):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[criterion {num:2d}] {name}: {verdict}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def _by_name(report, name):
    return {c["group"]: c for c in report["checks"] if c["name"] == name}


def test_criterion_01_relation_ranks(suite_report, capfd):
    ok = True
    for name in CORPUS:
        group = corpus_group(name)
        basis = brauer_relation_basis(group)
        fpm = sympy.Matrix(fixed_point_matrix(group).tolist())
        nullity = fpm.cols - fpm.rank()
        ok = ok and basis.rank == KNOWN_RANKS[name] == nullity
        ok = ok and all(is_brauer_relation(theta) for theta in basis)
    for name, want in KNOWN_RELATIONS.items():
        got = brauer_relation_basis(corpus_group(name))[0].coeffs
        ok = ok and (got == want or tuple(-x for x in got) == want)
    ranks = _by_name(suite_report, "relations.rank")
    ok = ok and set(ranks) == set(CORPUS) and all(c["ok"] for c in ranks.values())
    _emit(capfd, 1, "relation ranks across the corpus, kernel-rank oracle", ok)


def test_criterion_02_regular_representation_trivial(suite_report, capfd):
    ok = True
    for name in ("V4", "S3"):
        group = corpus_group(name)
        basis = brauer_relation_basis(group)
        reg = regular_lattice(group)
        for k in (1, 2, 3):
            m = reg if k == 1 else direct_sum(*([reg] * k))
            ok = ok and all(c == 1 for c in regulator_constants_table(basis, m))
    rt = _by_name(suite_report, "relations.regular-trivial")
    ok = ok and set(rt) == set(CORPUS) and all(c["ok"] for c in rt.values())
    _emit(capfd, 2, "C_Theta(Z[G]^k) = 1 for k <= 3 on every group", ok)


def test_criterion_03_pairing_independence(suite_report, capfd):
    ind = _by_name(suite_report, "pairing.independence")
    ok = set(ind) == set(CORPUS)
    ok = ok and all(c["ok"] and c["instances"] >= 50 for c in ind.values())
    _emit(capfd, 3, "pairing independence, >=50 module/pairing draws per group", ok)


def test_criterion_04_linearity(suite_report, capfd):
    add = _by_name(suite_report, "pairing.additivity")
    mult = _by_name(suite_report, "pairing.multiplicativity")
    ok = set(add) == set(mult) == set(RELATION_BEARING)
    for table in (add, mult):
        ok = ok and all(c["ok"] for c in table.values())
        ok = ok and sum(c["instances"] for c in table.values()) >= 50
    _emit(capfd, 4, "additivity in Theta and multiplicativity in direct sums", ok)


def test_criterion_05_lemma(suite_report, capfd):
    lem = _by_name(suite_report, "lemma.identity")
    ok = set(lem) == set(RELATION_BEARING)
    ok = ok and all(c["ok"] for c in lem.values())
    ok = ok and sum(c["instances"] for c in lem.values()) >= 100
    seen = set()
    for c in lem.values():
        seen.update(c["torsion_orders"])
    ok = ok and {3, 5, 9} <= seen
    _emit(capfd, 5, "lemma identity, >=100 instances, torsion orders 3/5/9", ok)


def test_criterion_06_corollary_routes(suite_report, capfd):
    routes = _by_name(suite_report, "corollary.routes")
    ok = set(routes) == set(RELATION_BEARING)
    ok = ok and all(c["ok"] for c in routes.values())
    ok = ok and sum(c["instances"] for c in routes.values()) >= 50
    false = _by_name(suite_report, "corollary.known-false")["V4"]
    ok = ok and false["ok"] and not false["verdict"]
    ok = ok and false["defect"] in (Fraction(2), Fraction(1, 2))
    _emit(capfd, 6, "factor-equivalence routes agree; known-false pair rejected", ok)


def test_criterion_07_sunit_index(suite_report, capfd):
    idx = _by_name(suite_report, "sunit.index")
    ok = set(idx) == set(CORPUS)
    for name in CORPUS:
        group = corpus_group(name)
        want = len(_sunit_d_lists(group)) * len(all_subgroups(group))
        ok = ok and idx[name]["ok"] and idx[name]["cases"] == want
    _emit(capfd, 7, "S-unit fixed-submodule index formula on every (D, H)", ok)


def test_criterion_08_closed_form(suite_report, capfd):
    cf = _by_name(suite_report, "sunit.closed-form")
    ok = set(cf) >= set(RELATION_BEARING)
    for name in RELATION_BEARING:
        ok = ok and cf[name]["ok"] and cf[name]["d_lists"] >= 3
    _emit(capfd, 8, "closed form for C_Theta(S-unit lattice), >=3 place sets", ok)


def test_criterion_09_kgroup_triviality(suite_report, capfd):
    ok = True
    for parity in ("odd", "even"):
        table = _by_name(suite_report, f"kgroups.{parity}")
        ok = ok and set(table) == {"V4", "D4", "Q8"}
        for c in table.values():
            ok = ok and c["ok"]
            ok = ok and c["d_choices"] >= 3
            ok = ok and c["modules"] == 2 * c["d_choices"]
    _emit(capfd, 9, "K-group comparison modules trivial on V4/D4/Q8", ok)


def test_criterion_10_determinism(tmp_path, capfd):
    paths = [tmp_path / f"report{i}.json" for i in range(3)]
    seeds = ("0", "0", "99")
    ok = True
    for path, seed in zip(paths, seeds):
        code = main(
            ["--seed", seed, "--format", "json", "--output", str(path), "verify", "all"]
        )
        ok = ok and code == 0
    same, again, other = (p.read_bytes() for p in paths)
    ok = ok and same == again
    # Pinned reports: any change to a check, count or constant shows here.
    ok = ok and same == (GOLDEN / "verify_all_seed0.json").read_bytes()
    ok = ok and other == (GOLDEN / "verify_all_seed99.json").read_bytes()
    r0, r99 = json.loads(same), json.loads(other)
    ok = ok and r0["summary"]["ok"] and r99["summary"]["ok"]
    ok = ok and r0["verdicts"] == r99["verdicts"]
    ok = ok and r0["regulator_constants"] == r99["regulator_constants"]
    _emit(capfd, 10, "byte-identical reports per seed and to the golden files", ok)
