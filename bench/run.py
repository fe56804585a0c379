"""factoreq benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  The harness benchmarks the working tree:
children run with PYTHONPATH=<checkout>/src, and the harness refuses to run
if `factoreq` resolves anywhere else.  It runs one child at a time, keeps
every oracle computation outside the timed region, and counts any wrong,
missing or crashed answer as a failed operation.

Workloads (see workloads.py): corpus-verify, ladder-regconst, cli-queries.

--trace 0 (untraced) prints the end-to-end metrics:
  setup_s       median of five set-ups: working-tree check, input files,
                oracle answers
  wall_s        median over passes of a pass's summed child wall time
  peak_rss_mb   largest per-child ru_maxrss, from os.wait4
  cold_start_s  median wall time of `factoreq relations C2`
  query_p50_s, query_p90_s
                latency of the workload's operations, one child each
Their times are in reference seconds.  The shared host's speed swings by up
to a factor of two over seconds to minutes, which moves a run's raw medians
by a third and more, so every timed child and set-up is followed by a run of
a fixed job, calibrate.py, and its wall time is scaled by CAL_REF_S over the
median wall time of the calibration runs around it (see Clock).  A slower
program reads slower; a slower host does not.  The raw medians, and that of
calibrate.py, are printed too, as `raw.*` lines, outside the result.
fail_frac (failed / attempted) is printed with them and carried by the
`attempted` and `failed` fields of the result line; it is not a metric
because it is 0 whenever the program is right.

--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics: self times, call counts and cache hit ratios of each layer's public
functions, derived from spans the children record (see launch.py), plus the
tracing overhead (traced minus untraced pass wall time).

Each metric line gives its sample count, and a `meta` line records the
Python version, nproc, git commit, source digest and seed.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  CPUs are not pinned.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_REPEATS = 5
COLD_PROBES_PER_PASS = 5
INTERP_PROBES = 5
# calibrate.py's wall time on a quiet host of this benchmark's kind (2 CPUs,
# Python 3.11), so that reference seconds read close to seconds there.
CAL_REF_S = 0.09
CAL_WINDOW = 3


def die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def load_working_tree():
    """Put the checkout's src/ first on sys.path and prove it is what imports."""
    if not (SRC / "factoreq" / "__init__.py").is_file():
        die(f"no factoreq sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import factoreq

    if Path(factoreq.__file__).resolve().parent != SRC / "factoreq":
        die(f"factoreq imported from {factoreq.__file__}, not from {SRC}")


class Child:
    __slots__ = ("code", "wall", "rss_mb", "out", "err", "timed_out")

    def __init__(self, code, wall, rss_mb, out, err, timed_out):
        self.code, self.wall, self.rss_mb = code, wall, rss_mb
        self.out, self.err, self.timed_out = out, err, timed_out


class Runner:
    """Starts one child at a time and reaps it with os.wait4.

    ru_maxrss from wait4 belongs to that child alone, unlike
    getrusage(RUSAGE_CHILDREN), which keeps the high-water mark of every
    child reaped so far.
    """

    def __init__(self, work):
        self.work = work
        # A fixed hash seed keeps the iteration order of string-keyed sets,
        # and with it the work done, the same from run to run.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.count = 0

    def run(self, argv, timeout):
        self.count += 1
        out_path = self.work / f"child{self.count}.out"
        err_path = self.work / f"child{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        errs = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, text, errs, killed.is_set())


class Clock:
    """Turns wall times into reference seconds (see the module docstring).

    Calibration runs before and after each timed child; a time is scaled by
    the median of the CAL_WINDOW calibrations before it and the CAL_WINDOW
    after it, which follows the host's slow swings and damps the jitter of
    single runs.
    """

    def __init__(self, runner):
        self.runner = runner
        self.cals = []
        for _ in range(CAL_WINDOW):
            self.calibrate()

    def calibrate(self):
        child = self.runner.run([sys.executable, str(BENCH / "calibrate.py")], 30)
        if child.code != 0:
            die(f"calibrate.py failed with exit code {child.code}")
        self.cals.append(child.wall)

    def mark(self, wall):
        """Record `wall`, just measured; scale it with `reference` after `close`."""
        self.calibrate()
        return wall, len(self.cals) - 1

    def close(self):
        for _ in range(CAL_WINDOW - 1):
            self.calibrate()

    def reference(self, mark):
        wall, after = mark
        return wall * CAL_REF_S / statistics.median(self.cals[after - CAL_WINDOW:after + CAL_WINDOW])


def judge(op, child):
    """None if the child's answer is right, else a one-line reason."""
    if child.timed_out:
        return f"{op.label}: timed out"
    try:
        reason = op.check(child.code, child.out)
    except Exception as exc:  # a malformed answer is a failed operation
        reason = f"{op.label}: unreadable output ({type(exc).__name__}: {exc})"
    if reason and child.err.strip():
        reason += f" [stderr: {child.err.strip().splitlines()[-1][:200]}]"
    return reason


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A mean of all the order statistics, weighted by the Beta((n+1)q,
    (n+1)(1-q)) probability of each interval [(i-1)/n, i/n] (midpoint rule,
    64 points each).  One or two order statistics, as plain interpolation
    takes, jump between the query kinds of a sparse latency tail from run to
    run; this weighted mean moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b, steps = (n + 1) * q, (n + 1) * (1 - q), 64
    logs = []
    for i in range(n):
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def span_metrics(dumps):
    """Per-layer metrics from the span dumps of every traced child."""
    stats = {}
    attempts = 0
    rows = bits = 0
    for d in dumps:
        names, spans = d["names"], d["spans"]
        child_time = [0.0] * len(spans)
        for idx, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (idx, start, end, parent) in enumerate(spans):
            s = stats.setdefault(names[idx], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "hits": 0})
            s["calls"] += 1
            s["self_s"] += (end - start) - child_time[i]
            s["total_s"] += end - start
            if (names[idx] == "exactla.determinant" and parent >= 0
                    and names[spans[parent][0]] == "zgmod.find_equivariant_embedding"):
                attempts += 1
        for name, n in d["hits"].items():
            stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "hits": 0})["hits"] += n
        rows = max(rows, d["kernel_max_rows"])
        bits = max(bits, d["kernel_max_bits"])

    def get(name):
        return stats.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "hits": 0})

    out = {}
    for metric, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        s = get(layer)
        if stat == "calls":
            value = s["calls"]
        elif stat == "self_s":
            value = s["self_s"]
        elif stat == "hit_ratio":
            value = s["hits"] / s["calls"] if s["calls"] else 0.0
        elif stat == "s" and layer.startswith("suites."):
            value = (get("suites.run_suites")["self_s"] if layer == "suites.reference_tables"
                     else s["total_s"])
        else:
            continue
        out[metric] = value
    embeds = get("zgmod.find_equivariant_embedding")["calls"]
    out["exactla.integer_kernel.max_rows"] = rows
    out["exactla.integer_kernel.max_bits"] = bits
    out["zgmod.find_equivariant_embedding.attempts_per_call"] = attempts / embeds if embeds else 0.0
    return out


def _layer_metrics():
    spec = [
        ("exactla.integer_kernel", ("calls", "self_s", "max_rows", "max_bits")),
        ("exactla.rational_solve", ("calls", "self_s")),
        ("exactla.column_lattice_basis", ("self_s",)),
        ("exactla.gram_determinant", ("calls", "self_s")),
        ("exactla.determinant", ("self_s",)),
        ("exactla.invariant_factors", ("self_s",)),
        ("exactla.lattice_index", ("self_s",)),
        ("grp.group_from_generators", ("self_s",)),
        ("grp.all_subgroups", ("calls", "self_s", "hit_ratio")),
        ("burnside.fixed_point_matrix", ("self_s", "hit_ratio")),
        ("burnside.brauer_relation_basis", ("self_s", "hit_ratio")),
        ("burnside.coset_action", ("self_s",)),
        ("zgmod.fixed_sublattice", ("calls", "self_s", "hit_ratio")),
        ("zgmod.fp_fixed_lattice", ("calls", "self_s", "hit_ratio")),
        ("zgmod.fp_fixed_data", ("self_s",)),
        ("zgmod.sublattice_action", ("self_s",)),
        ("zgmod.find_equivariant_embedding", ("calls", "self_s", "attempts_per_call")),
        ("regfe.averaged_pairing", ("calls", "self_s")),
        ("regfe.regulator_constants_table", ("self_s",)),
        ("regfe.regulator_constant", ("self_s",)),
        ("regfe.index_function", ("calls", "self_s")),
        ("regfe.verify_lemma", ("self_s",)),
        ("regfe.factor_equivalent", ("calls", "self_s")),
        ("arith.sunit_lattice", ("self_s",)),
        ("arith.verify_sunit_index", ("self_s",)),
        ("arith.verify_sunit_closed_form", ("self_s",)),
        ("arith.kgroup_comparison_module", ("self_s",)),
        ("arith.verify_kgroup_triviality", ("self_s",)),
        ("suites.suite_relations", ("s",)),
        ("suites.suite_pairing", ("s",)),
        ("suites.suite_lemma", ("s",)),
        ("suites.suite_corollary", ("s",)),
        ("suites.suite_sunit", ("s",)),
        ("suites.suite_kgroups", ("s",)),
        ("suites.reference_tables", ("s",)),
        ("jsonio.load_json", ("self_s",)),
        ("jsonio.group_from_json", ("self_s",)),
        ("jsonio.module_from_json", ("self_s",)),
        ("jsonio.canonical_dumps", ("self_s",)),
    ]
    units = {"calls": "count", "self_s": "s", "s": "s", "hit_ratio": "ratio",
             "max_rows": "rows", "max_bits": "bits", "attempts_per_call": "ratio"}
    out = [(f"{layer}.{stat}", units[stat]) for layer, stats in spec for stat in stats]
    out += [("cli.interp_s", "s"), ("cli.import_s", "s")]
    out += [(f"ladder.{g}.s", "s") for g in ("A4", "D8", "C2_4", "S4", "C2xS4")]
    out += [("trace.overhead_s", "s")]
    return out


PER_LAYER = _layer_metrics()

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("cold_start_s", "s"), ("query_p50_s", "s"), ("query_p90_s", "s"),
]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, op, child):
        self.attempted += 1
        reason = judge(op, child)
        if reason is not None:
            self.failures.append(reason)


def untraced(workload, ops, clock, seconds, tally, py):
    """Passes over `ops` until `seconds` have gone by, cold-start probes between them.

    Returns the metrics in reference seconds and the raw medians.
    """
    cold, rss, latencies, passes, done = [], [], [], [], []

    def timed(op):
        child = clock.runner.run(op.argv(py), op.timeout)
        done.append((op, child))
        rss.append(child.rss_mb)
        mark = clock.mark(child.wall)
        if op.cold:
            cold.append(mark)
        return mark

    t0 = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - t0 < seconds:
        if i % len(ops) == 0:
            passes.append([])
            if not workload.has_cold_queries:
                # Probes spread over the run, so their median is the run's.
                for _ in range(COLD_PROBES_PER_PASS):
                    timed(workload.cold_probe())
        mark = timed(ops[i % len(ops)])
        latencies.append(mark)
        passes[-1].append(mark)
        i += 1
    if len(passes[-1]) < len(ops):
        passes.pop()
    clock.close()
    for op, child in done:  # oracle comparison, outside the timed loop
        tally.add(op, child)
    out = {"peak_rss_mb": (max(rss), len(rss))}
    raw = {}
    ref = clock.reference
    for name, values, stat in (
            ("wall_s", [(sum(w for w, _ in p), sum(map(ref, p))) for p in passes], statistics.median),
            ("cold_start_s", [(m[0], ref(m)) for m in cold], statistics.median),
            ("query_p50_s", [(m[0], ref(m)) for m in latencies], statistics.median),
            ("query_p90_s", [(m[0], ref(m)) for m in latencies], lambda v: quantile(v, 0.9))):
        out[name] = (stat([t[1] for t in values]), len(values))
        raw[name] = stat([t[0] for t in values])
    return out, raw


def traced(workload, ops, runner, tally, py):
    """One untraced pass, one traced pass; per-layer metrics from the spans."""
    interp = [runner.run([py, "-c", "pass"], 30).wall for _ in range(INTERP_PROBES)]
    wall_u = 0.0
    for op in ops:
        child = runner.run(op.argv(py), op.timeout)
        wall_u += child.wall
        tally.add(op, child)
        workload.note_untraced(op, child)
    wall_t = 0.0
    dumps = []
    for n, op in enumerate(ops):
        spans_path = runner.work / f"spans{n}.json"
        child = runner.run(op.traced_argv(py, spans_path), op.timeout * 2)
        wall_t += child.wall
        tally.add(op, child)
        if spans_path.exists():
            dumps.append(json.loads(spans_path.read_text(encoding="utf-8")))
            spans_path.unlink()
        else:
            tally.failures.append(f"{op.label}: traced child wrote no spans")
    metrics = {k: (v, 1) for k, v in span_metrics(dumps).items()}
    metrics["cli.interp_s"] = (statistics.median(interp), len(interp))
    imports = [d["import_s"] for d in dumps] or [0.0]
    metrics["cli.import_s"] = (statistics.median(imports), len(dumps))
    for name, _ in PER_LAYER:
        if name.startswith("ladder."):
            metrics[name] = (workload.ladder_seconds.get(name.split(".")[1], 0.0), 1)
    metrics["trace.overhead_s"] = (wall_t - wall_u, 1)
    return metrics


def git_commit():
    """HEAD of the checkout, read from .git directly; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "factoreq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description="factoreq benchmark harness")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for a smoke test of the harness")
    args = parser.parse_args(argv)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = run(args, workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    for name, m in record["metrics"].items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    for name, value in record["raw"].items():
        print(f"{'raw.' + name:52s} {value:.6g} s")
    print(f"{'fail_frac':52s} {record['fail_frac']:.6g} frac (n={record['attempted']})")
    for reason in record["failures"][:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0


def run(args, workloads, work):
    py = sys.executable
    runner = Runner(work)
    tally = Tally()
    clock = Clock(runner)
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, work / f"setup{i}")
        probe = runner.run([py, "-c", "import factoreq; print(factoreq.__file__)"], 30)
        if Path(probe.out.strip()).resolve().parent != SRC / "factoreq":
            die(f"children import factoreq from {probe.out.strip()!r}, not from {SRC}")
        ops = workload.setup()
        setups.append(clock.mark(time.perf_counter() - t0))
    raw = {}
    if args.trace:
        measured = traced(workload, ops, runner, tally, py)
        units = dict(PER_LAYER)
    else:
        measured, raw = untraced(workload, ops, clock, args.seconds, tally, py)
        measured["setup_s"] = (statistics.median(map(clock.reference, setups)), len(setups))
        raw["setup_s"] = statistics.median(w for w, _ in setups)
        raw["calibrate_s"] = statistics.median(clock.cals)
        units = dict(END_TO_END)
    metrics = {name: {"value": measured[name][0], "unit": units[name], "samples": measured[name][1]}
               for name in units}
    return {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "src_sha256": src_digest(),
            "cpus_pinned": False,
            "note": "CPUs were not pinned; one child runs at a time.",
        },
        "metrics": metrics,
        "raw": raw,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "fail_frac": len(tally.failures) / tally.attempted if tally.attempted else 1.0,
    }


if __name__ == "__main__":
    load_working_tree()
    raise SystemExit(main())
