"""Suite bookkeeping, and the suite families on groups beyond the corpus.

Each check reports the instances it actually ran. Every family takes a
group, so the paper's identities are also checked on the ladder groups A4,
D8 and S4; only the loop that runs the suites looks a group up by name.
"""

import ast
from functools import partial
from pathlib import Path

import pytest

from factoreq import arith, brauer_relation_basis, corpus_group, corpus_names, suites
from test_grp import _group

V4 = corpus_group("V4")
# The ladder groups the families sweep, in the order of their random streams.
BEYOND = ("A4", "D8", "S4")


def _doubled(out):
    return tuple(2 * c for c in out) if isinstance(out, tuple) else 2 * out


def _not_ok(res):
    return res._replace(ok=False)


def _fail_on_call(monkeypatch, name, call, spoil=_doubled):
    """Wrap suites.<name> so that its `call`-th invocation returns spoil(result)."""
    real = getattr(suites, name)
    count = [0]

    def wrapped(*args, **kwargs):
        count[0] += 1
        out = real(*args, **kwargs)
        return spoil(out) if count[0] == call else out

    monkeypatch.setattr(suites, name, wrapped)


def test_passing_checks_report_every_instance():
    (ind,) = suites._pairing_checks(V4, "V4", 3, count=4)
    add, mult = suites._linearity_checks(V4, "V4", 3, count=4)
    assert [c["ok"] for c in (ind, add, mult)] == [True] * 3
    assert [c["instances"] for c in (ind, add, mult)] == [4] * 3


def test_independence_counts_stop_at_the_failing_draw(monkeypatch):
    # Three tables per draw: the 8th call is the second table of draw 3.
    _fail_on_call(monkeypatch, "regulator_constants_table", 8)
    (ind,) = suites._pairing_checks(V4, "V4", 3, count=6)
    assert ind["ok"] is False
    assert ind["instances"] == 3


@pytest.mark.parametrize("which,call", (("additivity", 7), ("multiplicativity", 6 * 3 + 7)))
def test_linearity_counts_stop_at_the_failing_draw(monkeypatch, which, call):
    # Three constants per draw; additivity runs its 6 draws before multiplicativity.
    _fail_on_call(monkeypatch, "regulator_constant", call)
    checks = {c["name"].split(".")[1]: c for c in suites._linearity_checks(V4, "V4", 3, count=6)}
    other = checks.pop("multiplicativity" if which == "additivity" else "additivity")
    failed = checks[which]
    assert failed["ok"] is False
    assert failed["instances"] == 3
    assert other["ok"] is True and other["instances"] == 6


@pytest.mark.parametrize(
    "call,orders", ((None, [3, 5, 9]), (1, []), (2, [5]), (3, [5]), (4, [3, 5, 9]), (7, [3, 5, 9]))
)
def test_lemma_counts_stop_at_the_failing_instance(monkeypatch, call, orders):
    # Four instances per round; a twist's torsion order is recorded before its instance runs.
    _fail_on_call(monkeypatch, "verify_lemma", call, _not_ok)
    (check,) = suites._lemma_checks(V4, "V4", 3, rounds=2)
    assert check["ok"] is (call is None)
    assert check["instances"] == (call or 8)
    assert check["torsion_orders"] == orders


@pytest.mark.parametrize("call", (None, 1, 3))
def test_corollary_counts_stop_at_the_failing_pair(monkeypatch, call):
    _fail_on_call(monkeypatch, "factor_equivalent", call, lambda r: r._replace(verdict=not r.verdict))
    (check,) = suites._corollary_checks(V4, "V4", 3, 0, pairs=4)
    assert check["ok"] is (call is None)
    assert check["instances"] == (call or 4)


@pytest.mark.parametrize("call", (None, 3, 7))
def test_sunit_index_counts_stop_at_the_failing_case(monkeypatch, call):
    # Five classes per decomposition list: call 7 is in the second list.
    _fail_on_call(monkeypatch, "verify_sunit_index", call, _not_ok)
    (check,) = suites._sunit_index_checks(V4, "V4", 3)
    assert check["ok"] is (call is None)
    assert check["cases"] == (call or 55)


@pytest.mark.parametrize("call", (None, 2, 5))
def test_sunit_closed_form_counts_stop_at_the_failing_case(monkeypatch, call):
    # Three relations per decomposition list: call 5 is in the second list.
    _fail_on_call(monkeypatch, "verify_sunit_closed_form", call, _not_ok)
    (check,) = suites._sunit_closed_form_checks(corpus_group("D4"), "D4", 5)
    assert check["ok"] is (call is None)
    assert (check["cases"], check["d_lists"]) == (call or 15, 5)


@pytest.mark.parametrize("call,odd,even", ((None, 10, 8), (3, 3, 8), (10 + 4, 10, 4)))
def test_kgroup_counts_stop_at_the_failing_module(monkeypatch, call, odd, even):
    # The odd parity runs its 10 modules before the even parity's 8.
    _fail_on_call(monkeypatch, "verify_kgroup_triviality", call, _not_ok)
    checks = suites._kgroup_checks(V4, "V4", 3, max_places=1)
    assert [(c["ok"], c["modules"]) for c in checks] == [
        (call is None or call > 10, odd),
        (call is None or call <= 10, even),
    ]


@pytest.mark.parametrize("name", ("C2", "C4", "C6"))
def test_lemma_family_skips_a_group_without_relations(name):
    group = corpus_group(name)
    assert suites._lemma_checks(group, name, 1, rounds=1) == []
    with pytest.raises(ValueError):
        suites._random_relation(brauer_relation_basis(group), suites._rng("lemma", 1))


# Every family but the K-group one, which tests/test_arith.py runs on these groups.
FAMILIES = (
    suites._relations_checks,
    suites._pairing_checks,
    suites._linearity_checks,
    suites._lemma_checks,
    partial(suites._corollary_checks, seed=0),
    suites._sunit_index_checks,
    suites._sunit_closed_form_checks,
)


def _sweep(name, families):
    """The families on a ladder group, with a stream index after the corpus's."""
    gi = len(corpus_names()) + BEYOND.index(name)
    group = _group(name)
    return [check for family in families for check in family(group, name, gi)]


@pytest.mark.parametrize("name", BEYOND)
def test_every_family_holds_beyond_the_corpus(name):
    checks = _sweep(name, FAMILIES)
    assert [c["name"] for c in checks] == [
        "relations.rank", "relations.degree-zero", "relations.saturated", "relations.regular-trivial",
        "pairing.independence", "pairing.additivity", "pairing.multiplicativity",
        "lemma.identity", "corollary.routes", "sunit.index", "sunit.closed-form",
    ]
    assert {c["group"] for c in checks} == {name}
    assert [c for c in checks if not c["ok"]] == []


def test_sweep_fails_without_the_residue_degree_correction(monkeypatch):
    # l = n drops the l(H)/n(H) factor from both S-unit identities.
    real = arith.residue_degrees

    def uncorrected(model, h):
        rd = real(model, h)
        return rd._replace(l=rd.n)

    monkeypatch.setattr(arith, "residue_degrees", uncorrected)
    checks = _sweep("S4", (suites._sunit_index_checks, suites._sunit_closed_form_checks))
    assert [(c["name"], c["ok"]) for c in checks] == [("sunit.index", False), ("sunit.closed-form", False)]


SUITES_SOURCE = Path(suites.__file__).read_text(encoding="utf-8")
LOOKUPS = {"corpus_group", "corpus_names"}
MAY_LOOK_UP = {"_over", "_corollary_known_false", "_regulator_constant_tables", "run_suites"}


def _corpus_readers(source):
    """Top-level definitions that read corpus_group or corpus_names; "<module>" for other statements."""
    readers = set()
    for top in ast.parse(source).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in LOOKUPS:
                readers.add(getattr(top, "name", "<module>"))
    return readers


def test_detector_names_the_readers():
    source = (
        "from .corpus import corpus_group\n"
        "NAMES = corpus_names()\n"
        "def f(name):\n    return corpus.corpus_group(name)\n"
        "def g(group, label, gi):\n    return group\n"
    )
    assert _corpus_readers(source) == {"<module>", "f"}


def test_only_the_suite_loop_looks_groups_up():
    assert _corpus_readers(SUITES_SOURCE) == MAY_LOOK_UP
