"""Command-line interface and JSON transport.

Exit-code contract: 0 success, 2 input error, 3 precondition violation,
4 verification failure. Reports in --format json must be byte-deterministic.
"""

import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from factoreq import (
    IntMatrix,
    ZGLattice,
    brauer_relation_basis,
    corpus_group,
    factor_equivalent,
    fp_fixed_data,
    invariant_factors,
)
from factoreq.cli import build_parser, main
from factoreq.jsonio import (
    InputError,
    burnside_from_json,
    canonical_dumps,
    fe_report_to_json,
    group_from_json,
    jsonable,
    load_json,
    module_from_json,
    rational_to_json,
)

V4_GROUP_JSON = {"generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}
TRIVIAL_MODULE_JSON = {"rank": 1, "action": {"1": [[1]], "2": [[1]]}}


@pytest.fixture
def v4_file(tmp_path):
    p = tmp_path / "v4.json"
    p.write_text(json.dumps(V4_GROUP_JSON))
    return str(p)


@pytest.fixture
def trivial_module_file(tmp_path):
    p = tmp_path / "triv.json"
    p.write_text(json.dumps(TRIVIAL_MODULE_JSON))
    return str(p)


# --- JSON transport ------------------------------------------------------------


def test_rational_round_trip():
    assert rational_to_json(Fraction(-3, 7)) == {"num": "-3", "den": "7"}
    assert rational_to_json(4) == {"num": "4", "den": "1"}
    big = Fraction(10**40 + 1, 10**39)
    assert rational_to_json(big) == {"num": "1" + "0" * 39 + "1", "den": "1" + "0" * 39}


def test_canonical_dumps_is_key_order_insensitive():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert " " not in a.strip()


def test_group_from_json_generators_and_table():
    g1 = group_from_json(V4_GROUP_JSON)
    assert g1.order == 4
    table = [[0, 1], [1, 0]]
    g2 = group_from_json({"cayley_table": table})
    assert g2.order == 2
    # A key group JSON does not read, such as "labels", is ignored.
    assert group_from_json({"cayley_table": table, "labels": ["e", "s"]}).table == g2.table
    with pytest.raises(InputError):
        group_from_json({"generators": [[0, 0]]})
    with pytest.raises(InputError):
        group_from_json({"nope": 1})


def test_module_from_json_lattice():
    group = group_from_json(V4_GROUP_JSON)
    m = module_from_json(group, TRIVIAL_MODULE_JSON)
    assert m.rank == 1
    assert m.action[3] == IntMatrix([[1]])


def test_module_from_json_completes_partial_actions():
    group = group_from_json(V4_GROUP_JSON)
    # only one generator given: cannot reach the whole group
    with pytest.raises(InputError, match="generate"):
        module_from_json(group, {"rank": 1, "action": {"1": [[1]]}})
    with pytest.raises(InputError, match="inconsistent"):
        module_from_json(
            group,
            {"rank": 1, "action": {"1": [[1]], "2": [[1]], "3": [[-1]]}},
        )


A4_GROUP_JSON = {"generators": [[1, 2, 0, 3], [1, 0, 3, 2]]}  # elements 1: (0 1 2), 2: (0 1)(2 3)


def test_module_from_json_refuses_an_action_that_breaks_a_relation(tmp_path, capsys):
    """A4 has no sign character: (0 1 2)(0 1)(2 3) has order 3, so it cannot act by −1."""
    group = group_from_json(A4_GROUP_JSON)
    assert group.order == 12
    bad = {"rank": 1, "action": {"1": [[1]], "2": [[-1]]}}
    with pytest.raises(InputError, match="inconsistent action specification"):
        module_from_json(group, bad)
    a4, module = _write(tmp_path, "a4.json", A4_GROUP_JSON), _write(tmp_path, "m.json", bad)
    err = _run_one_line_error(capsys, ["regconst", a4, "--module", module], 2)
    assert "inconsistent action specification" in err
    # A consistent assignment loads, and passes the full homomorphism check.
    perm = {"rank": 4, "action": {
        str(g): [[int(p[j] == i) for j in range(4)] for i in range(4)]
        for g, p in zip((1, 2), A4_GROUP_JSON["generators"])
    }}
    m = module_from_json(group, perm)
    assert ZGLattice(group, m.rank, m.action).action == m.action


def test_module_from_json_presentation():
    group = group_from_json(V4_GROUP_JSON)
    m = module_from_json(
        group,
        {
            "presentation": {
                "gens": 2,
                "relations": [[0, 5]],
                "action": {"1": [[1, 0], [0, 1]], "2": [[1, 0], [0, 1]]},
            }
        },
    )
    assert m.gens == 2
    assert math.prod(invariant_factors(m.relations)) == 5


def test_burnside_from_json():
    group = corpus_group("V4")
    theta = burnside_from_json(group, {"coeffs": {"0": 1, "4": 2}})
    assert theta.coeffs == (1, 0, 0, 0, 2)
    with pytest.raises(InputError, match="out of range"):
        burnside_from_json(group, {"coeffs": {"9": 1}})
    with pytest.raises(InputError):
        burnside_from_json(group, {})


def test_jsonable_handles_the_report_types():
    group = corpus_group("V4")
    theta = brauer_relation_basis(group)[0]
    out = jsonable(
        {
            "frac": Fraction(1, 2),
            "matrix": IntMatrix([[1, 2]]),
            "theta": theta,
            "mixed": [Fraction(3), (1, "x")],
        }
    )
    assert out["frac"] == {"num": "1", "den": "2"}
    assert out["matrix"] == [[1, 2]]
    assert out["mixed"] == [{"num": "3", "den": "1"}, [1, "x"]]
    json.dumps(out)  # everything must be encodable


# --- CLI: happy paths -------------------------------------------------------------


def test_cli_group_corpus_name(capsys):
    assert main(["group", "S3"]) == 0
    out = capsys.readouterr().out
    assert "group of order 6" in out
    assert "subgroup conjugacy classes: 4" in out


def test_cli_group_json_report(capsys):
    assert main(["--format", "json", "group", "V4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 4
    assert len(report["subgroup_classes"]) == 5
    assert report["subgroup_classes"][0]["representative"] == [0]


def test_cli_group_from_file_and_stdin(v4_file, capsys, monkeypatch):
    assert main(["group", v4_file]) == 0
    assert "group of order 4" in capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(V4_GROUP_JSON)))
    assert main(["group", "-"]) == 0
    assert "group of order 4" in capsys.readouterr().out


def test_cli_relations(capsys):
    assert main(["relations", "C6"]) == 0
    assert "rank 0" in capsys.readouterr().out
    assert main(["--format", "json", "relations", "V4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 1
    assert report["relations"][0]["coeffs"] == {"0": 1, "1": -1, "2": -1, "3": -1, "4": 2}


def test_cli_regconst(v4_file, trivial_module_file, capsys):
    assert main(["regconst", v4_file, "--module", trivial_module_file]) == 0
    assert "1/2" in capsys.readouterr().out


def test_cli_regconst_json(v4_file, trivial_module_file, capsys):
    assert (
        main(["--format", "json", "regconst", v4_file, "--module", trivial_module_file])
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["constants"] == [{"num": "1", "den": "2"}]


def test_cli_regconst_with_a_relation_builds_no_basis(v4_file, trivial_module_file, tmp_path, monkeypatch, capsys):
    """Only the fixed-point check of the given relation is needed, not the Smith-form basis."""

    def refuse(group):
        raise AssertionError("the relation basis was built")

    monkeypatch.setattr("factoreq.cli.brauer_relation_basis", refuse)
    rel = _write(tmp_path, "r.json", {"coeffs": {str(ci): 3 * n for ci, n in enumerate((1, -1, -1, -1, 2))}})
    argv = ["regconst", v4_file, "--module", trivial_module_file, "--relation", rel]
    assert main(argv) == 0
    assert capsys.readouterr().out == "regulator constants\n  theta_0: 1/8\n"
    assert main(["--format", "json", *argv]) == 0
    assert capsys.readouterr().out == (
        '{"constants":[{"den":"8","num":"1"}],'
        '"relations":[{"coeffs":{"0":3,"1":-3,"2":-3,"3":-3,"4":6}}]}\n'
    )


def test_cli_factor_equiv_isomorphic(v4_file, trivial_module_file, capsys):
    assert (
        main(
            [
                "factor-equiv",
                v4_file,
                "--module-a",
                trivial_module_file,
                "--module-b",
                trivial_module_file,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "factor equivalent: yes" in out


def test_cli_factor_equiv_converts_its_report_to_json_once(v4_file, trivial_module_file, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr("factoreq.cli.jsonable", lambda x: seen.append(x) or jsonable(x))
    args = ["--format", "json", "factor-equiv", v4_file, "--module-a", trivial_module_file]
    assert main(args + ["--module-b", trivial_module_file]) == 0
    # `_emit` gets library values, not JSON data, and makes the one conversion.
    (report,) = seen
    assert isinstance(report["embedding"], IntMatrix)
    group = group_from_json(V4_GROUP_JSON)
    m = module_from_json(group, TRIVIAL_MODULE_JSON)
    assert capsys.readouterr().out == canonical_dumps(fe_report_to_json(factor_equivalent(m, m)))


def test_cli_verify_suite(capsys):
    assert main(["verify", "relations"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "[pass]" in out and "FAIL" not in out


def test_cli_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    assert main(["--format", "json", "--output", str(dest), "relations", "S3"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["rank"] == 1


def test_cli_json_output_is_canonical(capsys):
    assert main(["--format", "json", "group", "Q8"]) == 0
    text = capsys.readouterr().out
    assert text == canonical_dumps(json.loads(text))


def test_cli_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        assert (
            main(["--seed", "5", "--format", "json", "--output", str(dest), "verify", "relations"])
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_cli_verdicts_ignore_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--seed", "0", "--format", "json", "--output", str(a), "verify", "corollary"]) == 0
    assert main(["--seed", "99", "--format", "json", "--output", str(b), "verify", "corollary"]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["verdicts"] == rb["verdicts"]
    assert ra["regulator_constants"] == rb["regulator_constants"]


# --- CLI: failure modes --------------------------------------------------------------


def test_cli_bad_permutation_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"generators": [[0, 0]]}))
    assert main(["group", str(p)]) == 2
    assert "not a permutation" in capsys.readouterr().err


def test_cli_missing_file_exits_2(capsys):
    assert main(["group", "/nonexistent/thing.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_bound_exits_2(capsys):
    assert main(["--bound", "0", "group", "V4"]) == 2
    assert "error:" in capsys.readouterr().err


C3XS4_GROUP_JSON = {
    "generators": [[1, 2, 0, 3, 4, 5, 6], [0, 1, 2, 4, 3, 5, 6], [0, 1, 2, 4, 5, 6, 3]]
}


def test_cli_bound_reaches_every_command(tmp_path, capsys):
    # |C3 x S4| = 72: refused under the default bound of 64, accepted by every
    # command once --bound admits it.
    group = _write(tmp_path, "g.json", C3XS4_GROUP_JSON)
    module = _write(tmp_path, "m.json", {"rank": 1, "action": {"1": [[1]], "2": [[1]], "3": [[1]]}})
    err = _run_one_line_error(capsys, ["relations", group], 2)
    assert err.startswith("error: group too large") and "bound 64" in err
    reports = {}
    for argv in (["group", group], ["relations", group], ["regconst", group, "--module", module]):
        assert main(["--bound", "128", "--format", "json"] + argv) == 0
        reports[argv[0]] = json.loads(capsys.readouterr().out)
    assert reports["group"]["order"] == 72
    assert reports["relations"]["rank"] == len(reports["regconst"]["constants"]) == 14


def test_cli_bound_applies_to_cayley_tables(tmp_path, capsys):
    c5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    table = _write(tmp_path, "c5.json", {"cayley_table": c5})
    for command in ("group", "relations"):
        err = _run_one_line_error(capsys, ["--bound", "4", command, table], 2)
        assert err == "error: group order 5 exceeds bound 4\n"
    assert main(["--bound", "5", "relations", table]) == 0
    capsys.readouterr()


def test_cli_closed_stdout_prints_one_line():
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "factoreq.cli", "verify", "relations"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")


def test_cli_non_relation_exits_3(v4_file, trivial_module_file, tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"coeffs": {"0": 1}}))
    code = main(
        ["regconst", v4_file, "--module", trivial_module_file, "--relation", str(rel)]
    )
    assert code == 3
    assert "precondition violated" in capsys.readouterr().err


def test_cli_not_rationally_isomorphic_exits_3(tmp_path, capsys):
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps({"generators": [[1, 0]]}))
    triv = tmp_path / "triv.json"
    triv.write_text(json.dumps({"rank": 1, "action": {"1": [[1]]}}))
    sign = tmp_path / "sign.json"
    sign.write_text(json.dumps({"rank": 1, "action": {"1": [[-1]]}}))
    code = main(
        ["factor-equiv", str(c2), "--module-a", str(triv), "--module-b", str(sign)]
    )
    assert code == 3
    assert "not rationally isomorphic" in capsys.readouterr().err


def test_cli_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    (
        ["verify", "nosuch"],
        ["relations"],
        ["--seed", "x", "relations", "C2"],
        ["--retry-budget", "0", "relations", "C2"],
    ),
)
def test_cli_bad_flags_print_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "usage:" not in err


@pytest.mark.parametrize(
    "argv",
    (
        ["--seed", "-1", "relations", "C2"],
        ["--bound", "0", "relations", "C2"],
    ),
)
def test_cli_bad_config_prints_one_line(argv, capsys):
    assert _run_one_line_error(capsys, argv, 2).startswith("error: ")


def test_cli_global_options_are_pinned():
    """Every settable global value; a new one has to be added here and to README's synopsis."""
    flags = {flag for action in build_parser()._actions for flag in action.option_strings}
    assert flags == {"-h", "--help", "--seed", "--bound", "--format", "--output"}


@pytest.mark.parametrize(
    "group",
    (
        {"cayley_table": [[0, 1], [1, 0]], "labels": "es"},
        {"cayley_table": [[0, 1], [1, 0]], "labels": [1, 2]},
        {"cayley_table": [[0, 1], [1, 0]], "labels": [None, {"a": 1}]},
        {"generators": [[1, 0]], "labels": ["e", "s"]},
        {"cayley_table": [[0, 1], [1, 0]], "labels": None},
    ),
)
def test_cli_ignores_a_labels_key(group, tmp_path, capsys):
    """A "labels" key is read by nothing, so it is ignored like any other unknown key."""
    plain = {k: v for k, v in group.items() if k != "labels"}
    assert main(["group", _write(tmp_path, "plain.json", plain)]) == 0
    want = capsys.readouterr().out
    assert main(["group", _write(tmp_path, "g.json", group)]) == 0
    assert capsys.readouterr() == (want, "")


def test_cli_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: factoreq")


def test_cli_failing_suite_exits_4(monkeypatch, capsys):
    fake = {
        "suite": "relations",
        "seed": 0,
        "groups": ["V4"],
        "checks": [{"name": "relations.rank", "group": "V4", "ok": False}],
        "verdicts": {"relations.rank[V4]": False},
        "regulator_constants": {},
        "summary": {"checks": 1, "passed": 0, "ok": False},
    }
    monkeypatch.setattr("factoreq.cli.run_suites", lambda suite, seed=0: fake)
    assert main(["verify", "relations"]) == 4
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_corpus_is_self_contained(capsys):
    # every corpus name resolves without input files
    for name in ("C2", "C4", "C6", "V4", "S3", "D4", "Q8"):
        assert main(["group", name]) == 0
    capsys.readouterr()


# --- CLI: strict integers and one-line errors ------------------------------------

NON_INTEGERS = (1.7, True, "1")


def _run_one_line_error(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_cli_action_entry_must_be_integer(bad, v4_file, tmp_path, capsys):
    module = _write(tmp_path, "m.json", {"rank": 1, "action": {"1": [[bad]], "2": [[1]]}})
    err = _run_one_line_error(capsys, ["regconst", v4_file, "--module", module], 2)
    assert err.startswith("error:") and "must be an integer" in err


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_cli_group_entries_must_be_integers(bad, tmp_path, capsys):
    gens = _write(tmp_path, "g.json", {"generators": [[1, bad, 3, 2], [2, 3, 0, 1]]})
    err = _run_one_line_error(capsys, ["group", gens], 2)
    assert err.startswith("error:") and "generators entry" in err
    table = _write(tmp_path, "t.json", {"cayley_table": [[0, 1], [bad, 0]]})
    err = _run_one_line_error(capsys, ["group", table], 2)
    assert err.startswith("error:") and "cayley_table entry" in err


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_cli_presentation_must_be_integers(bad, v4_file, tmp_path, capsys):
    ident = [[1, 0], [0, 1]]
    for pres in (
        {"gens": bad, "relations": [[0, 5]], "action": {"1": ident, "2": ident}},
        {"gens": 2, "relations": [[0, bad]], "action": {"1": ident, "2": ident}},
    ):
        module = _write(tmp_path, "p.json", {"presentation": pres})
        err = _run_one_line_error(capsys, ["regconst", v4_file, "--module", module], 2)
        assert err.startswith("error:") and "must be an integer" in err


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_cli_relation_coefficient_must_be_integer(
    bad, v4_file, trivial_module_file, tmp_path, capsys
):
    rel = _write(tmp_path, "r.json", {"coeffs": {"0": 1, "1": -1, "2": -1, "3": -1, "4": bad}})
    argv = ["regconst", v4_file, "--module", trivial_module_file, "--relation", rel]
    err = _run_one_line_error(capsys, argv, 2)
    assert err.startswith("error:") and "coefficient of class 4" in err


def test_cli_unwritable_output_exits_2(capsys):
    argv = ["--output", "/nonexistent/dir/x.json", "relations", "V4"]
    err = _run_one_line_error(capsys, argv, 2)
    assert err.startswith("error: cannot write /nonexistent/dir/x.json")


def test_cli_internal_error_exits_5(v4_file, trivial_module_file, monkeypatch, capsys):
    # Force the definitional route to contradict the regulator route.
    monkeypatch.setattr(
        "factoreq.regfe.is_factorisable", lambda f, basis: (False, (Fraction(1),) * len(basis))
    )
    argv = [
        "factor-equiv", v4_file,
        "--module-a", trivial_module_file, "--module-b", trivial_module_file,
    ]
    err = _run_one_line_error(capsys, argv, 5)
    assert err.startswith("internal error:") and "disagree" in err


@pytest.mark.parametrize("key", (" 1", "01", "1_0", "١", "+1"))
def test_cli_index_keys_must_be_canonical(key, v4_file, trivial_module_file, tmp_path, capsys):
    module = _write(tmp_path, "m.json", {"rank": 1, "action": {key: [[-1]], "1": [[1]], "2": [[1]]}})
    err = _run_one_line_error(capsys, ["regconst", v4_file, "--module", module], 2)
    assert err.startswith("error: bad element index")
    rel = _write(tmp_path, "r.json", {"coeffs": {"0": 1, key: 0}})
    argv = ["regconst", v4_file, "--module", trivial_module_file, "--relation", rel]
    err = _run_one_line_error(capsys, argv, 2)
    assert err.startswith("error: bad subgroup class id")


@pytest.mark.parametrize("digits", (41, 5_001))
def test_cli_a_long_index_key_is_out_of_range(digits, v4_file, trivial_module_file, tmp_path, capsys):
    """Past 40 digits a key is refused before `int`, whose 4,300-digit limit would raise."""
    key, cut = "9" * digits, "9" * 40
    rel = _write(tmp_path, "r.json", {"coeffs": {key: 1}})
    argv = ["regconst", v4_file, "--module", trivial_module_file, "--relation", rel]
    assert _run_one_line_error(capsys, argv, 2) == f"error: subgroup class id {cut}... out of range\n"
    module = _write(tmp_path, "m.json", {"rank": 1, "action": {key: [[1]], "1": [[1]], "2": [[1]]}})
    err = _run_one_line_error(capsys, ["regconst", v4_file, "--module", module], 2)
    assert err == f"error: element index {cut}... out of range\n"


def test_cli_bad_index_key_error_is_short(v4_file, trivial_module_file, tmp_path, capsys):
    """A refused key is echoed cut to 40 characters, as `_json_int` cuts a scalar."""
    key = " " + "1" * 100_000
    module = _write(tmp_path, "m.json", {"rank": 1, "action": {key: [[1]], "1": [[1]], "2": [[1]]}})
    err = _run_one_line_error(capsys, ["regconst", v4_file, "--module", module], 2)
    assert err == f"error: bad element index {key[:40]!r}\n"
    rel = _write(tmp_path, "r.json", {"coeffs": {"0": 1, key: 0}})
    argv = ["regconst", v4_file, "--module", trivial_module_file, "--relation", rel]
    assert _run_one_line_error(capsys, argv, 2) == f"error: bad subgroup class id {key[:40]!r}\n"


@pytest.mark.parametrize(
    "entry",
    (
        "[" + ",".join(["7"] * 100_000) + "]",  # an entry that is a list of 100,000 integers
        "[" * 900 + "0" + "]" * 900,  # an entry nested 900 deep
        json.dumps("x" * 100_000),  # a long string
    ),
    ids=("long list", "deep list", "long string"),
)
def test_cli_non_integer_entry_error_is_short(entry, tmp_path, capsys):
    """The message names a container by its JSON type and cuts a scalar short."""
    path = tmp_path / "m.json"
    path.write_text('{"rank": 1, "action": {"1": [[' + entry + ']], "2": [[1]]}}')
    err = _run_one_line_error(capsys, ["regconst", "V4", "--module", str(path)], 2)
    assert "must be an integer, got " in err and len(err.encode()) < 200


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_cli_prints_an_exact_answer_over_4300_digits(fmt, trivial_module_file, tmp_path, capsys):
    """C_Θ(Z) = 2^−100000 for Θ = 100,000·θ₀ over V4, written out in full."""
    theta = {str(ci): n * 10**5 for ci, n in enumerate((1, -1, -1, -1, 2))}
    rel = _write(tmp_path, "r.json", {"coeffs": theta})
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)  # absent before 3.10.7
    before = limit()
    argv = ["--format", fmt, "regconst", "V4", "--module", trivial_module_file, "--relation", rel]
    assert main(argv) == 0
    assert limit() == before  # lifted for the output only
    out, err = capsys.readouterr()
    den = str(Decimal(2**100_000))  # decimal digits by a route that has no digit limit
    assert len(den) == 30_103 and err == ""
    if fmt == "text":
        assert out == f"regulator constants\n  theta_0: 1/{den}\n"
    else:
        assert json.loads(out)["constants"] == [{"num": "1", "den": den}]


@pytest.mark.parametrize("scale", (10**7, 10**12))
def test_cli_refuses_a_product_too_large_to_compute(scale, trivial_module_file, tmp_path, capsys):
    """10^7·θ₀ spent minutes writing 3M digits, 10^12·θ₀ ran out of memory; now both exit 3 at once."""
    theta = {str(ci): n * scale for ci, n in enumerate((1, -1, -1, -1, 2))}
    rel = _write(tmp_path, "r.json", {"coeffs": theta})
    start = time.perf_counter()
    err = _run_one_line_error(
        capsys, ["regconst", "V4", "--module", trivial_module_file, "--relation", rel], 3
    )
    assert time.perf_counter() - start < 1
    assert err == "precondition violated: coefficients too large: the product exceeds 4194304 bits\n"


def test_cli_rank_zero_module(v4_file, tmp_path, capsys):
    module = _write(tmp_path, "z.json", {"rank": 0, "action": {"1": [], "2": []}})
    assert main(["--format", "json", "regconst", v4_file, "--module", module]) == 0
    assert json.loads(capsys.readouterr().out)["constants"] == [{"num": "1", "den": "1"}]
    # Every class value is 1, which costs no bits: 10^7·θ₀ answers 1 at once.
    theta = {str(ci): n * 10**7 for ci, n in enumerate((1, -1, -1, -1, 2))}
    rel = _write(tmp_path, "r.json", {"coeffs": theta})
    assert main(["--format", "json", "regconst", v4_file, "--module", module, "--relation", rel]) == 0
    assert json.loads(capsys.readouterr().out)["constants"] == [{"num": "1", "den": "1"}]


# --- CLI: bad input bytes and sizes -----------------------------------------------

BAD_BYTES = {
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting.
    "deep nesting": b"[" * 100_000 + b"]" * 100_000,
    # Python refuses to convert integer literals of more than 4,300 digits.
    "long integer": b'{"rank": ' + b"9" * 5_001 + b', "action": {"1": [[1]]}}',
    "not UTF-8": b'{"rank": 1, "action": {"1": [[1]]}}\xff',
}


@pytest.mark.parametrize("source", ("file", "stdin"))
@pytest.mark.parametrize("kind", BAD_BYTES)
def test_cli_bad_input_bytes_exit_2(kind, source, tmp_path, monkeypatch, capsys):
    data = BAD_BYTES[kind]
    path = tmp_path / "m.json"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    argv = ["regconst", "C2", "--module", str(path) if source == "file" else "-"]
    assert _run_one_line_error(capsys, argv, 2).startswith("error: ")


@pytest.mark.parametrize("gens", (2**62, 2**70))
def test_cli_huge_gens_exit_2_before_allocating(gens, tmp_path, capsys):
    """The action's shapes are read first, so a huge `gens` allocates nothing."""
    pres = {"gens": gens, "relations": [], "action": {"1": [[1]]}}
    module = _write(tmp_path, "m.json", {"presentation": pres})
    tracemalloc.start()
    try:
        err = _run_one_line_error(capsys, ["regconst", "C2", "--module", module], 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == "error: action matrix for element 1 has wrong shape\n"
    assert peak < 2**20


def test_cli_loads_an_action_that_holds_modulo_the_relations(tmp_path, capsys):
    """Over C2, Z/2 with the generator acting by 3 ≡ 1: a module, though 3·3 ≠ 1."""
    doc = {"presentation": {"gens": 1, "relations": [[2]], "action": {"1": [[3]]}}}
    module = _write(tmp_path, "m.json", doc)
    assert main(["--format", "json", "regconst", "C2", "--module", module]) == 0
    assert json.loads(capsys.readouterr().out) == {"constants": [], "relations": []}
    m = module_from_json(corpus_group("C2"), doc)
    assert m.action == (IntMatrix([[1]]), IntMatrix([[3]]))
    assert fp_fixed_data(m, range(2)) == (0, 2)
