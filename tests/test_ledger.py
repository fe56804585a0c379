"""README's oracle ledger, and the relation vectors the report carries.

The ledger has one row per check name of `verify all`; a check added without
a row, or a row left behind by a removed check, fails here. The report's
`relations` are the vectors its `regulator_constants` tables are evaluated
on, so each table can be recomputed from the report alone.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from factoreq import all_subgroups, corpus_group, corpus_names, double_cosets
from factoreq.cli import main
from factoreq.jsonio import jsonable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _ledger_rows():
    """Cells of each README table row whose first cell is a backquoted check name."""
    rows = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if cells and re.fullmatch(r"`[a-z]+\.[a-z-]+`", cells[0]):
            rows[cells[0].strip("`")] = cells[1:]
    return rows


def _test_names():
    return {
        m.group(1)
        for p in (ROOT / "tests").glob("test_*.py")
        for m in re.finditer(r"^def (test_\w+)\(", p.read_text(encoding="utf-8"), re.M)
    }


def test_ledger_has_one_row_per_check_name(suite_report):
    names = {c["name"] for c in suite_report["checks"]}
    assert set(_ledger_rows()) == names


def test_ledger_rows_are_complete():
    tests = _test_names()
    for name, (statement, route, second, pinned) in _ledger_rows().items():
        assert statement and route and second, name
        # A row with no second route says which open item gives one, or why none exists.
        if "none" in second:
            assert re.search(r"ROADMAP item \d+|none: ", second), name
        assert pinned.strip("`") in tests, name


def test_detector_reads_escaped_pipes():
    line = "| `a.b` | \\|x\\| | r | s | `t` |"
    cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
    assert cells == ["`a.b`", "\\|x\\|", "r", "s", "`t`"]


def test_report_relations_are_what_the_relations_command_prints(suite_report, capsys):
    relations = jsonable(suite_report["relations"])
    assert list(relations) == list(corpus_names())
    for name in corpus_names():
        assert main(["--format", "json", "relations", name]) == 0
        assert json.loads(capsys.readouterr().out)["relations"] == relations[name]


@pytest.mark.parametrize("seed", (0, 99))
def test_golden_tables_follow_from_the_reported_relations(seed):
    """Every table entry of the golden report, from its own `relations` by a closed form.

    The tables are of permutation lattices Z[G/K] (Z for K = G, Z[G] for
    K = 1). The H-orbit sums are an orthogonal basis of Z[G/K]^H, so C_Θ is
    Π_H Π_{HgK} |H ∩ gKg⁻¹|^(−n_H) (Dokchitser & Dokchitser, Regulator
    constants and the parity conjecture, Invent. Math. 2009); only
    `double_cosets` is read.
    """
    report = json.loads((GOLDEN / f"verify_all_seed{seed}.json").read_text(encoding="utf-8"))
    for name in corpus_names():
        group = corpus_group(name)
        reps = [cls.representative for cls in all_subgroups(group)]
        modules = {"trivial": group.full_subgroup(), "regular": group.trivial_subgroup()}
        modules.update((f"coset[{ci}]", k) for ci, k in enumerate(reps))
        tables = report["regulator_constants"][name]
        assert set(tables) == set(modules)
        for key, k in modules.items():
            factors = [
                math.prod(dc.stabilizer_order for dc in double_cosets(group, h, k)) for h in reps
            ]
            want = []
            for theta in report["relations"][name]:
                value = Fraction(1)
                for ci, n in theta["coeffs"].items():
                    value /= Fraction(factors[int(ci)]) ** n
                want.append({"num": str(value.numerator), "den": str(value.denominator)})
            assert tables[key] == want, (name, key)
