"""The benchmark's set-up and oracle run on the library's own answers.

`bench/workloads.py` builds the cli-queries inputs with
`FiniteGroup(..., check=False)`, `closure`, class representatives and
`left_cosets`; `bench/oracle.py` checks class tables and relation bases and
reads `double_cosets` for the permutation closed form. `tests/test_ladder.py`
runs only `bench/ladder.py`, so a library rename that breaks these two
scripts fails here. The scripts are imported in-process and only read.
"""

import json
import sys
from pathlib import Path

import pytest

from factoreq import all_subgroups, brauer_relation_basis, regulator_constants_table
from factoreq.jsonio import module_from_json
from test_grp import LADDER

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import oracle
    import workloads

    return oracle, workloads


def test_ladder_catalogue_is_the_benchmark_s(bench):
    import ladder

    assert LADDER == ladder.LADDER


@pytest.mark.parametrize("name", ("A4", "D4"))
def test_workload_inputs_pass_the_oracle(name, bench, tmp_path):
    oracle, workloads = bench
    data = workloads.GroupData(name, tmp_path)
    g = data.group
    assert g.closure(data.gens).order == g.order
    classes = [(cls.order, cls.is_cyclic, cls.representative.elements) for cls in all_subgroups(g)]
    assert oracle.check_class_table(name, g, classes) is None
    basis = brauer_relation_basis(g)
    relations = [theta.coeffs for theta in basis]
    assert oracle.check_relation_basis(name, relations, data.fix_rows) is None
    # One coset lattice Z[G/K], written as the CLI reads it, against the closed form.
    module = workloads.Module(data, [data.by_index[data.indices[-1]][0]])
    lattice = module_from_json(g, json.loads(Path(module.write(tmp_path / "m.json")).read_text()))
    want = [oracle.expected_constant(coeffs, module.factors) for coeffs in relations]
    assert list(regulator_constants_table(basis, lattice)) == want
