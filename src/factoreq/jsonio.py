"""JSON loading and canonical serialization for the CLI.

Rationals are written as {"num": "...", "den": "..."} decimal strings so
arbitrary-precision values survive transport; output is canonical
(sorted keys, fixed separators, trailing newline) for byte-stable reports.
Integers in the input must be JSON integers: floats, booleans and strings
are refused rather than truncated.
"""

import json
import sys
from fractions import Fraction

from .exactla import IntMatrix
from .grp import GroupError, all_subgroups, group_from_generators, group_from_table
from .burnside import BurnsideElement
from .zgmod import FpModule, ModuleError, ZGLattice, _checked_action


class InputError(ValueError):
    """Malformed or inconsistent JSON input."""


def _json_int(x, what):
    """`x` itself if it is a JSON integer; others are named in at most 40 characters."""
    if isinstance(x, bool) or not isinstance(x, int):
        got = {list: "an array", dict: "an object"}.get(type(x)) or json.dumps(x)[:40]
        raise InputError(f"{what} must be an integer, got {got}")
    return x


def _index_key(key, what):
    """An object key naming an index, in canonical decimal form only.

    " 1", "01", "1_0" and non-ASCII digits would otherwise parse, and two keys
    could then name one index with the later silently winning. No index has
    40 digits, so a longer key is out of range before `int`'s digit limit.
    """
    if not (key.isascii() and key.isdigit()) or key != "0" and key.startswith("0"):
        raise InputError(f"bad {what} {key[:40]!r}")
    if len(key) > 40:
        raise InputError(f"{what} {key[:40]}... out of range")
    return int(key)


def _int_rows(obj, what):
    """A list of lists of JSON integers, as lists of ints."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise InputError(f"malformed {what}: expected a list of integer lists")
    return [[_json_int(x, f"{what} entry") for x in row] for row in obj]


def _decimal(n):
    """str(n) at any length: the int-to-str digit limit guards parsing, not answers."""
    try:
        return str(n)
    except ValueError:  # only a Python with the limit raises, so it has the setter
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


def rational_to_json(x):
    x = Fraction(x)
    return {"num": _decimal(x.numerator), "den": _decimal(x.denominator)}


def load_json(text):
    """Parsed JSON; bad syntax, too deep nesting and too long integers are InputError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def group_from_json(obj, bound=64):
    """Group of order at most `bound` from {"generators": [...]} or {"cayley_table": [...]}.

    Any other key is ignored.
    """
    if not isinstance(obj, dict):
        raise InputError("group input must be a JSON object")
    try:
        if "generators" in obj:
            return group_from_generators(_int_rows(obj["generators"], "generators"), bound=bound)
        if "cayley_table" in obj:
            table = _int_rows(obj["cayley_table"], "cayley_table")
            if len(table) > bound:
                raise InputError(f"group order {len(table)} exceeds bound {bound}")
            return group_from_table(table)
    except InputError:
        raise
    except GroupError as exc:
        raise InputError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed group input: {exc}") from exc
    raise InputError("group input needs 'generators' or 'cayley_table'")


def _int_matrix(obj, what, cols):
    rows = _int_rows(obj, what)
    try:
        return IntMatrix(rows, cols=None if rows else cols)
    except ValueError as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


def _action_from_json(group, obj, rank):
    """The given element matrices by element index, each of shape rank x rank."""
    if not isinstance(obj, dict) or not obj:
        raise InputError("action must be a non-empty object of element matrices")
    given = {}
    for key, mat in obj.items():
        g = _index_key(key, "element index")
        if g >= group.order:
            raise InputError(f"element index {g} out of range")
        m = _int_matrix(mat, f"action matrix for element {g}", rank)
        if m.rows != rank or m.cols != rank:
            raise InputError(f"action matrix for element {g} has wrong shape")
        given[g] = m
    return given


def module_from_json(group, obj):
    """Load a lattice {"rank", "action"} or an FpModule {"presentation": ...}.

    The action is read first, so its matrix shapes bound `rank` or `gens` by
    the size of the input. `_checked_action` then checks it modulo the
    relations and completes it from the given elements.
    """
    if not isinstance(obj, dict):
        raise InputError("module input must be a JSON object")
    try:
        if "presentation" in obj:
            pres = obj["presentation"]
            gens = _json_int(pres["gens"], "presentation gens")
            if gens < 0:
                raise InputError("presentation gens must be non-negative")
            given = _action_from_json(group, pres["action"], gens)
            rel_rows = _int_rows(pres["relations"], "presentation relations")
            for vec in rel_rows:
                if len(vec) != gens:
                    raise InputError("each relation must have one entry per generator")
            relations = IntMatrix.from_columns(rel_rows, rows=gens)
            action = _checked_action(group, given, tuple(given), relations)
            return FpModule(group, gens, relations, action, check=False)
        rank = _json_int(obj["rank"], "rank")
        if rank < 0:
            raise InputError("rank must be non-negative")
        given = _action_from_json(group, obj["action"], rank)
        action = _checked_action(group, given, tuple(given), IntMatrix.zeros(rank, 0))
        return ZGLattice(group, rank, action, check=False)
    except InputError:
        raise
    except ModuleError as exc:
        raise InputError(f"inconsistent action specification: {exc}") from exc
    except KeyError as exc:
        raise InputError(f"missing module field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed module input: {exc}") from exc


def burnside_from_json(group, obj):
    """Load {"coeffs": {"<class-id>": n}} against the canonical class table."""
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), dict):
        raise InputError("relation input needs a 'coeffs' object")
    table = all_subgroups(group)
    coeffs = [0] * len(table)
    for key, val in obj["coeffs"].items():
        ci = _index_key(key, "subgroup class id")
        n = _json_int(val, f"coefficient of class {key}")
        if ci >= len(table):
            raise InputError(f"subgroup class id {ci} out of range")
        coeffs[ci] = n
    return BurnsideElement(group, coeffs)


def jsonable(x):
    """Recursively convert report values into JSON-encodable structures."""
    if isinstance(x, Fraction):
        return rational_to_json(x)
    if isinstance(x, IntMatrix):
        return x.tolist()
    if isinstance(x, BurnsideElement):
        return {"coeffs": {str(i): c for i, c in x.support()}}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _fe_report_fields(report):
    """A factor-equivalence report's library values under their JSON keys."""
    return {
        "verdict": report.verdict,
        "relations": report.relations,
        "regulator_constants": {"M": report.constants_m, "N": report.constants_n},
        "defects": report.defects,
        "index_values": report.index_values,
        "embedding": report.embedding,
        "seed": report.seed,
    }


def fe_report_to_json(report):
    """Shape: relations, regulator_constants {M, N}, defects, verdict, embedding."""
    return jsonable(_fe_report_fields(report))


def canonical_dumps(obj):
    """Deterministic JSON text: sorted keys, no whitespace, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
