"""The benchmark's three workloads: inputs, operations and oracle checks.

corpus-verify    `factoreq --format json --seed S verify all` in a fresh
                 process: the headline user run, dominated by regfe, zgmod
                 and exactla on thousands of small lattices and FP modules.
ladder-regconst  subgroup tables, Brauer bases and C_Θ tables over A4, D8,
                 C2^4, S4 and C2xS4 in a fresh process: large |H| and ranks
                 up to 48 stress grp.all_subgroups and zgmod.fixed_sublattice.
cli-queries      at least 100 sequential fresh-process CLI calls (closed loop,
                 one client): interpreter start, import and jsonio dominate.

Every operation is one child process.  Set-up builds the inputs and the
oracle answers in-process; checks compare a child's output with them after
the timed loop.  Query kinds come in fixed numbers per group, and the seed
only chooses among inputs of equal size, so the work in a run barely
depends on the seed.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from factoreq import FiniteGroup, Subgroup, all_subgroups, corpus_group, group_from_generators, left_cosets

import oracle
from ladder import LADDER

BENCH = Path(__file__).resolve().parent


class Op:
    """One child process: the CLI (`target` "cli") or the ladder child."""

    def __init__(self, label, target, args, check, timeout, cold=False):
        self.label, self.target, self.args = label, target, list(args)
        self.check, self.timeout, self.cold = check, timeout, cold

    def argv(self, py):
        if self.target == "cli":
            return [py, "-m", "factoreq.cli", *self.args]
        return [py, str(BENCH / "ladder.py"), *self.args]

    def traced_argv(self, py, spans_path):
        return [py, str(BENCH / "launch.py"), str(spans_path), self.target, *self.args]


def _relations(report_relations, n_classes):
    vecs = []
    for rel in report_relations:
        v = [0] * n_classes
        for k, n in rel["coeffs"].items():
            v[int(k)] = n
        vecs.append(v)
    return vecs


def _fraction(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


def check_cold(code, out):
    if code != 0:
        return f"relations C2: exit code {code}"
    if json.loads(out) != {"rank": 0, "relations": []}:
        return "relations C2: C2 has no Brauer relations"
    return None


class Workload:
    has_cold_queries = False

    def __init__(self, seed, tiny, work):
        self.seed, self.tiny, self.work = seed, tiny, work
        self.work.mkdir(parents=True, exist_ok=True)
        self.ladder_seconds = {}

    def cold_probe(self):
        return Op("relations C2", "cli", ["--format", "json", "relations", "C2"], check_cold, 30, cold=True)

    def note_untraced(self, op, child):
        pass


class CorpusVerify(Workload):
    def setup(self):
        ref = json.loads((BENCH / "reference" / "verify_all.json").read_text(encoding="utf-8"))
        self.suite = "relations" if self.tiny else "all"
        self.verdicts = {k: v for k, v in ref["verdicts"].items()
                         if self.suite == "all" or k.startswith(self.suite + ".")}
        self.tables = ref["regulator_constants"]
        args = ["--format", "json", "--seed", str(self.seed), "verify", self.suite]
        return [Op(f"verify {self.suite}", "cli", args, self.check, 120)]

    def check(self, code, out):
        label = f"verify {self.suite}"
        if code != 0:
            return f"{label}: exit code {code}"
        r = json.loads(out)
        n = len(self.verdicts)
        if r["summary"] != {"checks": n, "passed": n, "ok": True}:
            return f"{label}: summary {r['summary']}, expected {n}/{n}"
        if r["verdicts"] != self.verdicts:
            return f"{label}: verdicts differ from the reference"
        if r["regulator_constants"] != self.tables:
            return f"{label}: regulator constant tables differ from the reference"
        if r["seed"] != self.seed:
            return f"{label}: report carries seed {r['seed']}"
        return None


class LadderRegconst(Workload):
    def setup(self):
        self.names = ["A4"] if self.tiny else list(LADDER)
        self.groups = {n: group_from_generators(LADDER[n]) for n in self.names}
        args = ["--seed", str(self.seed), "--groups", ",".join(self.names)]
        return [Op("ladder", "ladder", args, self.check, 120)]

    def note_untraced(self, op, child):
        if child.code == 0:
            self.ladder_seconds = {g["name"]: g["s"] for g in json.loads(child.out)["groups"]}

    def check(self, code, out):
        if code != 0:
            return f"ladder: exit code {code}"
        report = json.loads(out)["groups"]
        if [g["name"] for g in report] != self.names:
            return "ladder: wrong groups reported"
        for g in report:
            err = self._check_group(g)
            if err:
                return f"ladder: {err}"
        return None

    def _check_group(self, g):
        name = g["name"]
        group = self.groups[name]
        if g["order"] != group.order:
            return f"{name}: order {g['order']}"
        classes = [(c["order"], c["cyclic"], tuple(c["rep"])) for c in g["classes"]]
        err = oracle.check_class_table(name, group, classes)
        if err:
            return err
        reps = [rep for _, _, rep in classes]
        relations = g["relations"]
        err = oracle.check_relation_basis(name, relations, oracle.fixed_point_rows(group, reps))
        if err:
            return err
        if any(Fraction(c) != 1 for c in g["regular"]):
            return f"{name}: C_Θ(Z[G]) != 1"
        expected = {"trivial": [tuple(range(group.order))]}
        expected.update({ci: [reps[int(ci)]] for ci in g["cosets"]})
        got = {"trivial": g["trivial"], **g["cosets"]}
        for key, summands in expected.items():
            factors = oracle.closed_form_factors(group, reps, summands)
            want = [oracle.expected_constant(rel, factors) for rel in relations]
            if [Fraction(c) for c in got[key]] != want:
                return f"{name}: C_Θ of Z[G/K] for {key} differs from the closed form"
        return None


# --- cli-queries ------------------------------------------------------------

CORPUS = ("C2", "C4", "C6", "V4", "S3", "D4", "Q8")
FILE_GROUPS = ("A4", "S4")  # passed to the CLI as JSON generator files

# One pass: (kind, group, number of queries), 100 queries in all. A run makes
# at least one pass and goes on until --seconds have gone by.
MIX = (
    [("cold", "C2", 18)]
    + [("group", n, 1) for n in CORPUS] + [("group", "A4", 3), ("group", "S4", 2)]
    + [("relations", n, 1) for n in CORPUS] + [("relations", n, 3) for n in FILE_GROUPS]
    + [("regconst", n, k) for n, k in (("V4", 5), ("S3", 5), ("D4", 5), ("Q8", 5), ("A4", 6), ("S4", 7))]
    + [("equiv", n, 4) for n in ("V4", "S3", "D4", "Q8", "A4")]
    + [("known-false", "V4", 4)]
)
TINY_MIX = [("cold", "C2", 1), ("group", "A4", 1), ("relations", "A4", 1),
            ("regconst", "A4", 2), ("equiv", "A4", 1)]

MAX_INDEX = 12       # largest |G/K| of one coset-lattice summand
MAX_SUM_RANK = 16    # largest rank of a two-summand module


class GroupData:
    """A group as the CLI numbers it, with its classes and oracle tables."""

    def __init__(self, name, work):
        self.name = name
        if name in CORPUS:
            # A fresh copy, so each set-up recomputes its subgroup table.
            self.group = FiniteGroup(corpus_group(name).table, check=False)
            self.arg = name
        else:
            self.group = group_from_generators(LADDER[name])
            path = work / f"{name}.json"
            path.write_text(json.dumps({"generators": LADDER[name]}), encoding="utf-8")
            self.arg = str(path)
        g = self.group
        self.reps = [cls.representative.elements for cls in all_subgroups(g)]
        self.fix_rows = oracle.fixed_point_rows(g, self.reps)
        self.gens = []
        reached = {0}
        for x in range(1, g.order):
            if x not in reached:
                self.gens.append(x)
                reached = set(g.closure(self.gens).elements)
        # Classes K with |G/K| <= MAX_INDEX by that index, and the index pairs
        # of two-summand modules, largest first.
        self.by_index = {}
        for h in self.reps:
            if g.order // len(h) <= MAX_INDEX:
                self.by_index.setdefault(g.order // len(h), []).append(h)
        self.indices = sorted(self.by_index, reverse=True)
        self.pairs = [(a, b) for n, a in enumerate(self.indices) for b in self.indices[n:]
                      if a + b <= MAX_SUM_RANK]

    def coset_matrix(self, k, x):
        """Permutation matrix of x on Z[G/K]."""
        g = self.group
        cosets = left_cosets(g, Subgroup(g, k))
        coset_of = {y: i for i, c in enumerate(cosets) for y in c}
        n = len(cosets)
        rows = [[0] * n for _ in range(n)]
        for j, c in enumerate(cosets):
            rows[coset_of[g.table[x][c[0]]]][j] = 1
        return rows


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _unimodular(n, rng):
    """A random unimodular U and its inverse, as products of elementary matrices."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [row[:] for row in u]
    for _ in range(n + 2 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in u:            # U <- U (I + c e_ij)
            row[j] += c * row[i]
        uinv[i] = [x - c * y for x, y in zip(uinv[i], uinv[j])]  # U^-1 <- (I - c e_ij) U^-1
    return u, uinv


class Module:
    """⊕ Z[G/K] over the summands, optionally in a random new basis."""

    def __init__(self, data, summands, rng=None):
        self.summands = summands
        self.factors = oracle.closed_form_factors(data.group, data.reps, summands)
        self.action = {}
        rank = sum(data.group.order // len(k) for k in summands)
        u = uinv = None
        if rng is not None:
            u, uinv = _unimodular(rank, rng)
        for x in data.gens:
            m = _block_diag([data.coset_matrix(k, x) for k in summands])
            self.action[str(x)] = _matmul(_matmul(uinv, m), u) if u else m
        self.rank = rank

    def write(self, path):
        path.write_text(json.dumps({"rank": self.rank, "action": self.action}), encoding="utf-8")
        return str(path)


class CliQueries(Workload):
    has_cold_queries = True

    def setup(self):
        rng = random.Random(self.seed)
        mix = TINY_MIX if self.tiny else MIX
        self.data = {}
        ops = []
        for kind, name, count in mix:
            if name not in self.data:
                self.data[name] = GroupData(name, self.work)
            for i in range(count):
                ops.append(self._query(kind, self.data[name], i, rng, len(ops)))
        rng.shuffle(ops)
        return ops

    def _random_module(self, d, i, rng, conjugate):
        """The i-th module queried over d.

        Its shape, the indices |G/K| of its summands, depends on i alone; the
        seed picks classes of those indices and the change of basis.
        """
        if i % 2 == 0:
            shape = [d.indices[i // 2 % len(d.indices)]]
        else:
            shape = d.pairs[i // 2 % len(d.pairs)]
        return Module(d, [rng.choice(d.by_index[k]) for k in shape], rng if conjugate else None)

    def _query(self, kind, d, i, rng, n):
        js = ["--format", "json"]
        if kind == "cold":
            return self.cold_probe()
        if kind == "group":
            return Op(f"group {d.name}", "cli", js + ["group", d.arg],
                      lambda code, out: self._check_group(d, code, out), 30)
        if kind == "relations":
            return Op(f"relations {d.name}", "cli", js + ["relations", d.arg],
                      lambda code, out: self._check_relations(d, code, out), 30)
        if kind == "regconst":
            m = self._random_module(d, i, rng, conjugate=(i // 2) % 2 == 1)
            path = m.write(self.work / f"m{n}.json")
            return Op(f"regconst {d.name}", "cli", js + ["regconst", d.arg, "--module", path],
                      lambda code, out: self._check_regconst(d, m, code, out), 30)
        if kind == "equiv":
            m = self._random_module(d, i, rng, conjugate=False)
            conj = Module(d, m.summands, rng)
            pair = (m, conj)
            yes = True
        else:  # the known-false V4 pair: Z[G] ⊕ Z² against ⊕ Z[G/H] over |H| = 2
            order2 = [h for h in d.reps if len(h) == 2]
            pair = (Module(d, [d.reps[0], d.reps[-1], d.reps[-1]]), Module(d, order2))
            yes = False
        paths = [pair[j].write(self.work / f"m{n}{'ab'[j]}.json") for j in range(2)]
        args = ["--seed", str(rng.randrange(1000))] + js + [
            "factor-equiv", d.arg, "--module-a", paths[0], "--module-b", paths[1]]
        return Op(f"factor-equiv {d.name}", "cli", args,
                  lambda code, out: self._check_equiv(d, pair, yes, code, out), 30)

    def _check_group(self, d, code, out):
        label = f"group {d.name}"
        if code != 0:
            return f"{label}: exit code {code}"
        r = json.loads(out)
        if r["order"] != d.group.order:
            return f"{label}: order {r['order']}"
        classes = [(c["order"], c["cyclic"], tuple(c["representative"])) for c in r["subgroup_classes"]]
        if [rep for _, _, rep in classes] != d.reps:
            return f"{label}: class representatives differ from the library's table"
        return oracle.check_class_table(d.name, d.group, classes)

    def _basis(self, d, report_relations):
        vecs = _relations(report_relations, len(d.reps))
        return vecs, oracle.check_relation_basis(d.name, vecs, d.fix_rows)

    def _check_relations(self, d, code, out):
        if code != 0:
            return f"relations {d.name}: exit code {code}"
        r = json.loads(out)
        vecs, err = self._basis(d, r["relations"])
        if err is None and r["rank"] != len(vecs):
            err = f"{d.name}: rank {r['rank']} but {len(vecs)} relations"
        return err

    def _check_regconst(self, d, m, code, out):
        if code != 0:
            return f"regconst {d.name}: exit code {code}"
        r = json.loads(out)
        vecs, err = self._basis(d, r["relations"])
        if err:
            return err
        want = [oracle.expected_constant(v, m.factors) for v in vecs]
        if [_fraction(c) for c in r["constants"]] != want:
            return f"regconst {d.name}: constants differ from the closed form"
        return None

    def _check_equiv(self, d, pair, yes, code, out):
        label = f"factor-equiv {d.name}"
        if code != 0:
            return f"{label}: exit code {code}"
        r = json.loads(out)
        vecs, err = self._basis(d, r["relations"])
        if err:
            return err
        if r["verdict"] is not yes:
            return f"{label}: verdict {r['verdict']}, expected {yes}"
        consts = {}
        for key, m in zip("MN", pair):
            consts[key] = [_fraction(c) for c in r["regulator_constants"][key]]
            if consts[key] != [oracle.expected_constant(v, m.factors) for v in vecs]:
                return f"{label}: C({key}) differs from the closed form"
        defects = [_fraction(x) for x in r["defects"]]
        if yes and any(x != 1 for x in defects):
            return f"{label}: non-trivial defect {defects}"
        if not yes and (defects[0] not in (2, Fraction(1, 2))
                        or defects[0] ** 2 != consts["M"][0] / consts["N"][0]):
            return f"{label}: defect {defects}, expected 2 or 1/2 squaring to C(M)/C(N)"
        return None


WORKLOADS = {
    "corpus-verify": CorpusVerify,
    "ladder-regconst": LadderRegconst,
    "cli-queries": CliQueries,
}
