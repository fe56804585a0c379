"""Command-line front end.

Exit codes: 0 success, 1 stdout closed by its reader, 2 input error,
3 precondition violation, 4 verification failure, 5 internal error (a
library bug).
"""

import argparse
import os
import sys
from fractions import Fraction

from .corpus import corpus_group, corpus_names
from .grp import GroupError, all_subgroups
from .burnside import RelationError, brauer_relation_basis
from .zgmod import ModuleError
from .regfe import InternalError, PairingError, factor_equivalent, regulator_constant
from .jsonio import (
    InputError,
    _decimal,
    _fe_report_fields,
    burnside_from_json,
    canonical_dumps,
    group_from_json,
    jsonable,
    load_json,
    module_from_json,
)
from .suites import SUITE_NAMES, run_suites


def _read_source(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_group(source, bound):
    """Group from a corpus name, a JSON file path, or '-' (stdin)."""
    if source in corpus_names():
        return corpus_group(source)
    return group_from_json(load_json(_read_source(source)), bound=bound)


def _rat_text(x):
    x = Fraction(x)
    num = _decimal(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator)}"


# --- command implementations -----------------------------------------------


def cmd_group(args):
    group = _load_group(args.group, args.bound)
    table = all_subgroups(group)
    classes = [
        {
            "id": ci,
            "order": cls.order,
            "size": len(cls.members),
            "cyclic": cls.is_cyclic,
            "representative": list(cls.representative.elements),
        }
        for ci, cls in enumerate(table)
    ]
    report = {
        "order": group.order,
        "element_classes": len(group.element_classes),
        "subgroup_classes": classes,
    }
    lines = [
        f"group of order {group.order}",
        f"element conjugacy classes: {len(group.element_classes)}",
        f"subgroup conjugacy classes: {len(table)}",
    ]
    for c in classes:
        tag = "cyclic" if c["cyclic"] else "non-cyclic"
        lines.append(
            f"  [{c['id']}] order {c['order']}, {c['size']} conjugate(s), {tag}, "
            f"representative {c['representative']}"
        )
    return report, lines


def cmd_relations(args):
    group = _load_group(args.group, args.bound)
    basis = brauer_relation_basis(group)
    report = {
        "rank": basis.rank,
        "relations": basis,
    }
    lines = [f"Brauer relation space of rank {basis.rank}"]
    for i, theta in enumerate(basis):
        terms = " ".join(f"{n:+d}·[{ci}]" for ci, n in theta.support())
        lines.append(f"  theta_{i}: {terms}")
    return report, lines


def cmd_regconst(args):
    group = _load_group(args.group, args.bound)
    module = module_from_json(group, load_json(_read_source(args.module)))
    if args.relation is not None:
        relations = [burnside_from_json(group, load_json(_read_source(args.relation)))]
    else:
        relations = list(brauer_relation_basis(group))
    constants = [regulator_constant(theta, module) for theta in relations]
    report = {
        "relations": relations,
        "constants": constants,
    }
    lines = ["regulator constants"]
    for i, c in enumerate(constants):
        lines.append(f"  theta_{i}: {_rat_text(c)}")
    if not constants:
        lines.append("  (no relations)")
    return report, lines


def cmd_factor_equiv(args):
    group = _load_group(args.group, args.bound)
    m = module_from_json(group, load_json(_read_source(args.module_a)))
    n = module_from_json(group, load_json(_read_source(args.module_b)))
    fe = factor_equivalent(m, n, seed=args.seed)
    report = _fe_report_fields(fe)
    lines = [f"factor equivalent: {'yes' if fe.verdict else 'no'}"]
    for i, d in enumerate(fe.defects):
        lines.append(
            f"  theta_{i}: defect {_rat_text(d)}, "
            f"C(M) = {_rat_text(fe.constants_m[i])}, C(N) = {_rat_text(fe.constants_n[i])}"
        )
    lines.append(f"  index function: {[_rat_text(v) for v in fe.index_values]}")
    return report, lines


def cmd_verify(args):
    report = run_suites(args.suite, seed=args.seed)
    lines = [f"suite {report['suite']} (seed {report['seed']})"]
    for c in report["checks"]:
        status = "pass" if c["ok"] else "FAIL"
        extras = {
            k: v for k, v in c.items() if k not in ("name", "group", "ok")
        }
        detail = f" {extras}" if extras else ""
        lines.append(f"  [{status}] {c['name']}[{c['group']}]{detail}")
    s = report["summary"]
    lines.append(f"{s['passed']}/{s['checks']} checks passed")
    return report, lines


# --- plumbing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Bad flags exit 2 with one stderr line; subparsers inherit this class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="factoreq",
        description=(
            "Brauer relations, regulator constants, and factor-equivalence "
            "certificates for modules over integral group rings."
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bound", type=int, default=64, help="group size bound")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="subgroup class table of a group")
    p.add_argument("group", help="JSON path, '-' for stdin, or a corpus name")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("relations", help="Brauer relation basis")
    p.add_argument("group")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("regconst", help="regulator constants of a module")
    p.add_argument("group")
    p.add_argument("--module", required=True, help="module JSON path or '-'")
    p.add_argument("--relation", default=None, help="Burnside element JSON path")
    p.set_defaults(func=cmd_regconst)

    p = sub.add_parser("factor-equiv", help="factor-equivalence certificate")
    p.add_argument("group")
    p.add_argument("--module-a", required=True)
    p.add_argument("--module-b", required=True)
    p.set_defaults(func=cmd_factor_equiv)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.set_defaults(func=cmd_verify)

    return parser


def _emit(report, lines, args):
    if args.format == "json":
        text = canonical_dumps(jsonable(report))
    else:
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise InputError("seed must be non-negative")
        if args.bound <= 0:
            raise InputError("bound must be positive")
        report, lines = args.func(args)
        _emit(report, lines, args)
    except (InputError, GroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RelationError, ModuleError, PairingError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's flush at exit is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1
    if args.command == "verify" and not report["summary"]["ok"]:
        return 4
    return 0


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
