"""Traced child launcher: runs the CLI or the ladder with layer spans recorded.

Times `import factoreq.cli`, rebinds every traced public function in each
`factoreq.*` namespace that holds it (a `from .exactla import integer_kernel`
copies the binding into `burnside`, `zgmod` and `regfe`), then runs the
target.  Spans (name, start, end, parent) stay in memory and are written to
SPANS_JSON once the target returns, so the harness can derive self times.

    PYTHONPATH=src python3 bench/launch.py SPANS_JSON cli [CLI ARGS...]
    PYTHONPATH=src python3 bench/launch.py SPANS_JSON ladder [LADDER ARGS...]

The IntMatrix constructor is deliberately not traced: a `verify all` makes
about 200k calls to it, and wrapping them would swamp what is measured.
"""

import json
import sys
import time

# Module -> public functions timed at their boundary.
TRACED = {
    "exactla": (
        "integer_kernel", "rational_solve", "column_lattice_basis",
        "gram_determinant", "determinant", "invariant_factors", "lattice_index",
    ),
    "grp": ("group_from_generators", "all_subgroups"),
    "burnside": ("fixed_point_matrix", "brauer_relation_basis", "coset_action"),
    "zgmod": (
        "fixed_sublattice", "fp_fixed_lattice", "fp_fixed_data",
        "sublattice_action", "find_equivariant_embedding",
    ),
    "regfe": (
        "averaged_pairing", "regulator_constants_table", "regulator_constant",
        "index_function", "verify_lemma", "factor_equivalent",
    ),
    "arith": (
        "sunit_lattice", "verify_sunit_index", "verify_sunit_closed_form",
        "kgroup_comparison_module", "verify_kgroup_triviality",
    ),
    "suites": (
        "suite_relations", "suite_pairing", "suite_lemma", "suite_corollary",
        "suite_sunit", "suite_kgroups", "run_suites",
    ),
    "jsonio": ("load_json", "group_from_json", "module_from_json", "canonical_dumps"),
}

# Cached functions: a call that returns an object returned before is a hit.
HIT_TRACKED = {
    "grp.all_subgroups", "burnside.fixed_point_matrix", "burnside.brauer_relation_basis",
    "zgmod.fixed_sublattice", "zgmod.fp_fixed_lattice",
}

KERNEL = "exactla.integer_kernel"


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = []
        self.hits = {}
        self.kernel_max_rows = 0
        self.kernel_max_bits = 0

    def _note_kernel_input(self, a):
        self.kernel_max_rows = max(self.kernel_max_rows, a.rows)
        bits = max((abs(x).bit_length() for row in a.tolist() for x in row), default=0)
        self.kernel_max_bits = max(self.kernel_max_bits, bits)

    def wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        seen = {} if name in HIT_TRACKED else None
        self.hits[name] = 0
        is_kernel = name == KERNEL

        def traced(*args, **kwargs):
            if is_kernel:
                self._note_kernel_input(args[0])
            span = [idx, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if seen is not None:
                if seen.get(id(result)) is result:
                    self.hits[name] += 1
                else:
                    # Holding the result keeps its id from being reused.
                    seen[id(result)] = result
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "factoreq" or n.startswith("factoreq.")]
        for modname, funcs in TRACED.items():
            home = sys.modules[f"factoreq.{modname}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{modname}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                        elif type(value) is dict:
                            # Dispatch tables such as suites._SUITES.
                            for key, item in list(value.items()):
                                if item is original:
                                    value[key] = wrapper

    def dump(self, path, import_s):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "names": self.names,
                    "spans": self.spans,
                    "hits": self.hits,
                    "kernel_max_rows": self.kernel_max_rows,
                    "kernel_max_bits": self.kernel_max_bits,
                },
                fh,
            )


def main(argv):
    spans_path, target, rest = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import factoreq.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        if target == "cli":
            return factoreq.cli.main(rest)
        if target == "ladder":
            import ladder
            return ladder.main(rest)
        raise SystemExit(f"unknown target {target!r}")
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
