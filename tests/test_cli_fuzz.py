"""Seeded fuzz slices of the CLI's exit-code contract for group, module and relation input.

Starts from README's group (generators and Cayley table), lattice,
presentation and relation documents and replaces one or two subtrees (or
object keys) with values from a fixed pool: wrong types, negative numbers, 0,
integers of 10^30, floats, booleans, strings, and empty and nested
containers; relation keys include one of 5,001 digits, past Python's
int-string limit. `group`, `relations`, `regconst` and `factor-equiv` then
read the result in-process. Each call must exit 0, 2 or 3; a non-zero exit
prints exactly one stderr line, and nothing escapes as an exception
(`_outcome`). Every pool value is small, so no case allocates more than a few MB: a huge `rank`
or `gens` meets the action's matrix shapes first, a coefficient of 10^30
breaks the relation, as K(V4) has rank 1 and full support, and a group
document names permutations of at most 4 points. `tools/fuzz_cli.py` runs
the same generator (`_case`) and check (`_outcome`) for longer.
"""

import copy
import io
import json
import random
import sys

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
# The second table puts the identity in slot 1, so mutated entries reach the renumbering.
GROUPS = (
    {"generators": [[1, 0, 3, 2], [2, 3, 0, 1]]},
    {"cayley_table": [[0, 1], [1, 0]]},
    {"cayley_table": [[1, 0], [0, 1]]},
)
GROUP_KEYS = ("0", "1", "generators", "cayley_table", "labels")
GROUP_CASES = 450
KINDS = ("group", "module", "relation")


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


def _case(kind, rng, i, lattice_file):
    """(argv, stdin text) of case `i` of a kind in KINDS; `lattice_file` holds LATTICE."""
    if kind == "group":
        text = json.dumps(_mutated(rng.choice(GROUPS), rng, GROUP_KEYS))
        return ["relations" if i % 2 else "group", "-"], text
    if kind == "module":
        text = json.dumps(_mutated(rng.choice((LATTICE, PRESENTATION)), rng))
        if i % 2:
            return ["regconst", "V4", "--module", "-"], text
        return ["factor-equiv", "V4", "--module-a", "-", "--module-b", lattice_file], text
    text = json.dumps(_mutated(RELATION, rng, RELATION_KEYS))
    return ["regconst", "V4", "--module", lattice_file, "--relation", "-"], text


def _lattice_file(tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(LATTICE))
    return str(path)


def _outcome(argv, text):
    """(exit code, None) of `main(argv)` reading `text` when it keeps the exit-code
    contract; else (the code, or the name of the exception that escaped, and what broke it)."""
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # an escape
        code = exc
    finally:
        err = sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = streams
    if code in (0, 2, 3) and err.count("\n") == (code != 0) and "Traceback" not in err:
        return code, None
    code = code if isinstance(code, int) else type(code).__name__
    return code, f"{argv} gave {code!r} on {text[:200]!r}: {err[:200]!r}"


def _run(argv, text):
    code, escape = _outcome(argv, text)
    assert escape is None, escape
    return code


def test_module_input_fuzz_slice(tmp_path):
    rng, lattice = random.Random(20121), _lattice_file(tmp_path)
    cases = [_case("module", rng, i, lattice) for i in range(CASES)]
    assert {_run(argv, text) for argv, text in cases} == {0, 2, 3}


def test_relation_input_fuzz_slice(tmp_path):
    rng, lattice = random.Random(20122), _lattice_file(tmp_path)
    cases = [_case("relation", rng, i, lattice) for i in range(RELATION_CASES)]
    assert any(RELATION_KEYS[-1] in text for _, text in cases)
    assert {_run(argv, text) for argv, text in cases} == {0, 2, 3}


def test_group_input_fuzz_slice(tmp_path):
    rng, lattice = random.Random(20123), _lattice_file(tmp_path)
    cases = [_case("group", rng, i, lattice) for i in range(GROUP_CASES)]
    assert {argv[0] for argv, _ in cases} == {"group", "relations"}
    assert {_run(argv, text) for argv, text in cases} == {0, 2}
