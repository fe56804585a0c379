"""Suite bookkeeping: each check reports the instances it actually ran."""

import pytest

from factoreq import suites


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
    (ind,) = suites._pairing_checks("V4", 3, count=4)
    add, mult = suites._linearity_checks("V4", 3, count=4)
    assert [c["ok"] for c in (ind, add, mult)] == [True] * 3
    assert [c["instances"] for c in (ind, add, mult)] == [4] * 3


def test_independence_counts_stop_at_the_failing_draw(monkeypatch):
    # Three tables per draw: the 8th call is the second table of draw 3.
    _fail_on_call(monkeypatch, "regulator_constants_table", 8)
    (ind,) = suites._pairing_checks("V4", 3, count=6)
    assert ind["ok"] is False
    assert ind["instances"] == 3


@pytest.mark.parametrize("which,call", (("additivity", 7), ("multiplicativity", 6 * 3 + 7)))
def test_linearity_counts_stop_at_the_failing_draw(monkeypatch, which, call):
    # Three constants per draw; additivity runs its 6 draws before multiplicativity.
    _fail_on_call(monkeypatch, "regulator_constant", call)
    checks = {c["name"].split(".")[1]: c for c in suites._linearity_checks("V4", 3, count=6)}
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
    (check,) = suites._lemma_checks("V4", 3, rounds=2)
    assert check["ok"] is (call is None)
    assert check["instances"] == (call or 8)
    assert check["torsion_orders"] == orders


@pytest.mark.parametrize("call", (None, 1, 3))
def test_corollary_counts_stop_at_the_failing_pair(monkeypatch, call):
    _fail_on_call(monkeypatch, "factor_equivalent", call, lambda r: r._replace(verdict=not r.verdict))
    (check,) = suites._corollary_checks("V4", 3, 0, pairs=4)
    assert check["ok"] is (call is None)
    assert check["instances"] == (call or 4)


@pytest.mark.parametrize("call", (None, 3, 7))
def test_sunit_index_counts_stop_at_the_failing_case(monkeypatch, call):
    # Five classes per decomposition list: call 7 is in the second list.
    _fail_on_call(monkeypatch, "verify_sunit_index", call, _not_ok)
    (check,) = suites._sunit_index_checks("V4")
    assert check["ok"] is (call is None)
    assert check["cases"] == (call or 55)


@pytest.mark.parametrize("call", (None, 2, 5))
def test_sunit_closed_form_counts_stop_at_the_failing_case(monkeypatch, call):
    # Three relations per decomposition list: call 5 is in the second list.
    _fail_on_call(monkeypatch, "verify_sunit_closed_form", call, _not_ok)
    (check,) = suites._sunit_closed_form_checks("D4")
    assert check["ok"] is (call is None)
    assert (check["cases"], check["d_lists"]) == (call or 15, 5)


@pytest.mark.parametrize("call,odd,even", ((None, 10, 8), (3, 3, 8), (10 + 4, 10, 4)))
def test_kgroup_counts_stop_at_the_failing_module(monkeypatch, call, odd, even):
    # The odd parity runs its 10 modules before the even parity's 8.
    _fail_on_call(monkeypatch, "verify_kgroup_triviality", call, _not_ok)
    checks = suites._kgroup_checks("V4", max_places=1)
    assert [(c["ok"], c["modules"]) for c in checks] == [
        (call is None or call > 10, odd),
        (call is None or call <= 10, even),
    ]
