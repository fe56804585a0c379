"""A line trace of the benchmark's traffic through the library.

    python3 tools/traffic.py

Runs in this one process what the benchmark's three workloads run in child
processes, each operation checked by its workload's own check: one pass of
the cli-queries mix of `bench/workloads.py` at seed 1, each query through
`factoreq.cli.main`; `verify all` at seeds 0 and 1; and `bench/ladder.py
--seed 0`. The process-wide caches, `corpus_group` and `IntMatrix.identity`,
which a child starts without, are emptied before each operation. Only lines of `src/factoreq/` are traced,
the package's import included.

From each module's syntax tree it then prints every function whose body
never ran, and the statement lines left unrun in the functions that did.
Docstrings, `global` and `nonlocal` are not statements here, and
module-level code is not reported. The workloads' input files go to a
temporary directory; nothing is written under `bench/`, and no bytecode is
written. It exits 1 if an operation failed its check.
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "factoreq"
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


@contextlib.contextmanager
def _traced(ran):
    """Add (file, line) of every line of `src/factoreq/` that runs inside the block to `ran`."""
    prefix = str(SRC)

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    sys.settrace(lambda frame, event, arg: on_line if frame.f_code.co_filename.startswith(prefix) else None)
    try:
        yield
    finally:
        sys.settrace(None)


def _own_lines(stmt):
    """A simple statement's lines, or a compound statement's header with its decorators."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
    return range(first, max(first, last) + 1)


def _is_docstring(stmt, i):
    return i == 0 and isinstance(stmt, ast.Expr) and isinstance(getattr(stmt.value, "value", None), str)


def _statements(body):
    """The statements of a function body, through compound statements but not nested defs."""
    for i, stmt in enumerate(body):
        if _is_docstring(stmt, i) or isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body)
        for case in getattr(stmt, "cases", []):
            yield from _statements(case.body)


def _functions(node, prefix=""):
    """(qualified name, def node) of every function, methods and nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _spans(lines):
    """12, 14-16 for [12, 14, 15, 16]."""
    out, start = [], None
    for a, b in zip(lines, lines[1:] + [None]):
        start = a if start is None else start
        if b != a + 1:
            out.append(str(a) if a == start else f"{start}-{a}")
            start = None
    return ", ".join(out)


def _report(ran):
    """Lines of text: per module, the functions that never ran and the unrun statements."""
    lines, never, unrun = [], 0, 0
    for path in sorted(SRC.glob("*.py")):
        hit = {line for file, line in ran if file == str(path)}
        out = []
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            stmts = list(_statements(fn.body))
            missed = [s.lineno for s in stmts if not hit.intersection(_own_lines(s))]
            if stmts and len(missed) == len(stmts):
                out.append(f"  never ran: {name} (line {fn.lineno})")
                never += 1
            elif missed:
                out.append(f"  {name}: unrun lines {_spans(sorted(set(missed)))}")
                unrun += len(missed)
        if out:
            lines += [path.name] + out
    lines.append(f"{never} functions never ran; {unrun} statements unrun in the others")
    return lines


def main():
    ran = set()
    with _traced(ran):
        from factoreq import cli, corpus, exactla  # every child imports the whole package
    import ladder
    import workloads

    def run(op):
        """One operation in-process, its check's error or None; caches start empty, as in a child."""
        corpus.corpus_group.cache_clear()
        exactla.IntMatrix.identity.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = (cli.main if op.target == "cli" else ladder.main)(op.args)
        return op.check(code, out.getvalue())

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ops = workloads.CliQueries(1, False, work).setup()
        ops += workloads.CorpusVerify(0, False, work).setup() + workloads.CorpusVerify(1, False, work).setup()
        ops += workloads.LadderRegconst(0, False, work).setup()
        with _traced(ran):
            errors = [err for err in map(run, ops) if err]
    for line in _report(ran) + [f"failed: {err}" for err in errors]:
        print(line)
    print(f"{len(ops)} operations, {len(errors)} failed their check")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
