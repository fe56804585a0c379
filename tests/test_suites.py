"""Suite bookkeeping: each check reports the instances it actually ran."""

import pytest

from factoreq import suites


def _fail_on_call(monkeypatch, name, call):
    """Wrap suites.<name> so that its `call`-th invocation returns a wrong value."""
    real = getattr(suites, name)
    count = [0]

    def wrapped(*args, **kwargs):
        count[0] += 1
        out = real(*args, **kwargs)
        if count[0] != call:
            return out
        return tuple(2 * c for c in out) if isinstance(out, tuple) else 2 * out

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
