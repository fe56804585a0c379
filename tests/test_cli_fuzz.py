"""Seeded fuzz slices of the CLI's exit-code contract for module and relation input.

Starts from README's lattice, presentation and relation documents and
replaces one or two subtrees (or object keys) with values from a fixed pool:
wrong types, negative numbers, 0, integers of 10^30, floats, booleans,
strings, and empty and nested containers; relation keys include one of 5,001
digits, past Python's int-string limit. `regconst` and `factor-equiv` then
read the result in-process. Each call must exit 0, 2 or 3; a non-zero exit
prints exactly one stderr line, and nothing escapes as an exception. Every
pool value is small, so no case allocates more than a few MB: a huge `rank`
or `gens` meets the action's matrix shapes first, and a coefficient of 10^30
breaks the relation, as K(V4) has rank 1 and full support.
"""

import copy
import io
import json
import random

import pytest

from factoreq.cli import main

LATTICE = {"rank": 1, "action": {"1": [[1]], "2": [[1]]}}
PRESENTATION = {
    "presentation": {
        "gens": 2,
        "relations": [[0, 5]],
        "action": {"1": [[1, 0], [0, 1]], "2": [[1, 0], [0, 1]]},
    }
}
POOL = (
    None, True, False, 0, 1, 2, 3, -1, -7, 10**30, -(10**30), 1.5, -0.0,
    "", "1", "x", "01", [], {}, [[]], [[1, [2]]], [[1, 0], [0, 1]], {"a": [1]},
    [[[[[[[[[[]]]]]]]]]], {"1": [[-1]]}, {"presentation": {}},
)
KEYS = ("0", "1", "3", "4", "01", " 1", "-1", "rank", "gens", "action", "relations", "presentation")
CASES = 800
RELATION = {"coeffs": {"0": 1, "1": -1, "2": -1, "3": -1, "4": 2}}
RELATION_KEYS = ("0", "4", "5", "01", " 1", "-1", "coeffs", "9" * 5_001)
RELATION_CASES = 500


def _paths(obj, path=()):
    """The path of keys from the root to every node of `obj`, the root's () first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(doc, rng, keys=KEYS):
    """`doc` with one or two subtrees replaced, keys renamed (to one of `keys`) or entries dropped."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        path = rng.choice(list(_paths(doc)))
        if not path:
            return copy.deepcopy(rng.choice(POOL))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, how = path[-1], rng.randrange(4)
        if how == 0 and isinstance(parent, dict):
            parent[rng.choice(keys)] = parent.pop(key)
        elif how == 1:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(POOL))
    return doc


def _run(argv, text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    try:
        code = main(argv)
    except Exception as exc:  # an escape: name the input that caused it
        pytest.fail(f"{argv[0]} raised {exc!r} on {text!r}")
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (code, text, err)
    assert err.count("\n") == (code != 0) and "Traceback" not in err, (text, err)
    return code


def test_module_input_fuzz_slice(tmp_path, monkeypatch, capsys):
    rng = random.Random(20121)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(LATTICE))
    codes = set()
    for i in range(CASES):
        text = json.dumps(_mutated(rng.choice((LATTICE, PRESENTATION)), rng))
        if i % 2:
            argv = ["regconst", "V4", "--module", "-"]
        else:
            argv = ["factor-equiv", "V4", "--module-a", "-", "--module-b", str(other)]
        codes.add(_run(argv, text, monkeypatch, capsys))
    assert codes == {0, 2, 3}


def test_relation_input_fuzz_slice(tmp_path, monkeypatch, capsys):
    rng = random.Random(20122)
    module = tmp_path / "module.json"
    module.write_text(json.dumps(LATTICE))
    argv = ["regconst", "V4", "--module", str(module), "--relation", "-"]
    texts = [json.dumps(_mutated(RELATION, rng, RELATION_KEYS)) for _ in range(RELATION_CASES)]
    assert any(RELATION_KEYS[-1] in text for text in texts)
    assert {_run(argv, text, monkeypatch, capsys) for text in texts} == {0, 2, 3}
