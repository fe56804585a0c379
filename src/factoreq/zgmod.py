"""Integral representations: Z[G]-lattices and finitely presented Z[G]-modules.

A ZGLattice stores one integer matrix per group element (columns are images
of basis vectors). An FpModule is a cokernel presentation Z^n / im(R) whose
action matrices satisfy the module axioms modulo the relation columns; it
carries the torsion information the factor-equivalence lemma needs. Fixed
points of both kinds go through one routine, `fixed_sublattice`, which reads
a lattice as a module with no relations.
"""

import math
import random

from .exactla import (
    ImageSolver,
    IntMatrix,
    column_lattice_basis,
    determinant,
    integer_kernel,
    integer_solve,
    invariant_factors,
    invert_unimodular,
    smith_normal_form,
)
from .grp import GroupError, Subgroup
from .burnside import PermAction, coset_action, regular_action


class ModuleError(ValueError):
    """Raised for invalid module data or violated map preconditions."""


class ZGLattice:
    """Z-free module with G acting by integer matrices."""

    __slots__ = ("group", "rank", "action", "_cache")

    def __init__(self, group, rank, action, check=True):
        action = tuple(
            m if isinstance(m, IntMatrix) else IntMatrix(m, cols=rank) for m in action
        )
        if len(action) != group.order:
            raise ModuleError("need one action matrix per group element")
        for m in action:
            if m.rows != rank or m.cols != rank:
                raise ModuleError("action matrix has wrong shape")
        if check:
            if action[0] != IntMatrix.identity(rank):
                raise ModuleError("identity must act as the identity matrix")
            for g in range(group.order):
                for h in range(group.order):
                    if action[g] @ action[h] != action[group.table[g][h]]:
                        raise ModuleError("action matrices do not define a homomorphism")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("ZGLattice is immutable")

    def act(self, g):
        return self.action[g]

    def character(self):
        return character(self)

    def __repr__(self):
        return f"ZGLattice(rank={self.rank}, |G|={self.group.order})"


def trivial_lattice(group):
    one = IntMatrix.identity(1)
    return ZGLattice(group, 1, (one,) * group.order, check=False)


def zero_lattice(group):
    empty = IntMatrix.zeros(0, 0)
    return ZGLattice(group, 0, (empty,) * group.order, check=False)


def sign_lattice(group, h_kernel):
    """Rank-1 lattice: +1 on the index-2 subgroup `h_kernel`, -1 elsewhere."""
    if not isinstance(h_kernel, Subgroup) or h_kernel.group is not group:
        h_kernel = Subgroup(group, h_kernel)
    if 2 * h_kernel.order != group.order:
        raise ModuleError("sign lattice kernel must have index 2")
    plus, minus = IntMatrix([[1]]), IntMatrix([[-1]])
    return ZGLattice(
        group,
        1,
        (plus if g in h_kernel else minus for g in range(group.order)),
        check=False,
    )


def permutation_lattice(group, gset):
    """Free lattice on the points of a PermAction, G permuting the basis."""
    if not isinstance(gset, PermAction) or gset.group is not group:
        raise ModuleError("gset must be a permutation action of the same group")
    n = gset.size
    mats = []
    for g in range(group.order):
        rows = [[0] * n for _ in range(n)]
        for j, i in enumerate(gset.images[g]):
            rows[i][j] = 1
        mats.append(IntMatrix._trusted(tuple(map(tuple, rows)), n))
    return ZGLattice(group, n, mats, check=False)


def regular_lattice(group):
    return permutation_lattice(group, regular_action(group))


def induced_lattice(group, d, sub_action):
    """Induce a D-lattice up to G along the cosets G/D.

    `sub_action` maps each element of D (as a G element index) to an integer
    matrix; it must itself be a homomorphism on D.
    """
    if not isinstance(d, Subgroup) or d.group is not group:
        raise ModuleError("d must be a subgroup of the group")
    sub_action = {int(k): (v if isinstance(v, IntMatrix) else IntMatrix(v)) for k, v in sub_action.items()}
    if set(sub_action) != set(d.elements):
        raise ModuleError("sub_action must cover exactly the subgroup elements")
    r = sub_action[0].rows
    for m in sub_action.values():
        if m.rows != r or m.cols != r:
            raise ModuleError("sub_action matrix has wrong shape")
    if sub_action[0] != IntMatrix.identity(r):
        raise ModuleError("identity must act as the identity matrix")
    for a in d.elements:
        for b in d.elements:
            if sub_action[a] @ sub_action[b] != sub_action[group.table[a][b]]:
                raise ModuleError("sub_action is not a homomorphism on the subgroup")
    from .grp import left_cosets

    cosets = left_cosets(group, d)
    coset_of = [0] * group.order
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i
    reps = [coset[0] for coset in cosets]
    k = len(cosets)
    mats = []
    for g in range(group.order):
        rows = [[0] * (k * r) for _ in range(k * r)]
        for i in range(k):
            u = group.table[g][reps[i]]
            j = coset_of[u]
            dd = group.table[group.inverse[reps[j]]][u]
            block = sub_action[dd]
            for a in range(r):
                for b in range(r):
                    rows[j * r + a][i * r + b] = block[a, b]
        mats.append(IntMatrix(rows, cols=k * r))
    return ZGLattice(group, k * r, mats, check=False)


def _block_diagonal(blocks):
    """The matrices `blocks` placed corner to corner, zeros elsewhere."""
    cols = sum(b.cols for b in blocks)
    rows, left = [], 0
    for b in blocks:
        pad_left, pad_right = (0,) * left, (0,) * (cols - left - b.cols)
        rows.extend(pad_left + r + pad_right for r in b._data)
        left += b.cols
    return IntMatrix._trusted(tuple(rows), cols)


def direct_sum(*modules):
    """Block-diagonal direct sum; mixes lattices and FpModules freely."""
    if not modules:
        raise ModuleError("direct sum needs at least one summand")
    group = modules[0].group
    if any(m.group is not group for m in modules):
        raise ModuleError("summands live over different groups")
    if all(isinstance(m, ZGLattice) for m in modules):
        mats = [_block_diagonal([m.action[g] for m in modules]) for g in range(group.order)]
        return ZGLattice(group, sum(m.rank for m in modules), mats, check=False)
    parts = [as_fp_module(m) for m in modules]
    rel = _block_diagonal([p.relations for p in parts])
    mats = [_block_diagonal([p.action[g] for p in parts]) for g in range(group.order)]
    return FpModule(group, rel.rows, rel, mats, check=False)


def conjugated_lattice(m, u):
    """Same module in a new basis: g acts by U^-1 ρ(g) U (U unimodular)."""
    uinv = invert_unimodular(u)
    return ZGLattice(
        m.group,
        m.rank,
        (uinv @ m.action[g] @ u for g in range(m.group.order)),
        check=False,
    )


def sublattice_action(m, basis):
    """Action of G on the sublattice spanned by `basis` columns, in basis coordinates.

    Errors if the columns are linearly dependent or their span is not G-stable.
    """
    solver = ImageSolver(basis)
    if solver.rank < basis.cols:
        raise ModuleError("basis columns are linearly dependent")
    mats = []
    for g in range(m.group.order):
        coords = solver.solve(m.action[g] @ basis)
        if coords is None:
            raise ModuleError("basis does not span a G-stable sublattice")
        mats.append(coords)
    return ZGLattice(m.group, basis.cols, mats, check=False)


def _generating_set(group, elems):
    """Greedy generators of the subgroup `elems`: each one leaves the span so far.

    At most log2 |H| elements; cached per group and element tuple.
    """
    key = ("generating_set", elems)
    gens = group._cache.get(key)
    if gens is None:
        gens, span = [], {0}
        for g in elems:
            if g not in span:
                gens.append(g)
                span = set(group.closure(gens).elements)
        gens = tuple(gens)
        group._cache[key] = gens
    return gens


def fixed_sublattice(module, h):
    """Basis (matrix columns) of L_H = {x : (ρ(s) − I)x ∈ im(R) for s in H}.

    For a lattice (no relations R) L_H is the saturated sublattice M^H; for
    an FpModule it is the full preimage of M^H under Z^gens -> M, which need
    not be saturated (torsion). Only a generating set s_1, ..., s_k of
    H is stacked: the action preserves im(R) and is a homomorphism modulo
    im(R), so a vector fixed modulo im(R) by every s_i is fixed by all of H.
    With relations, each block ρ(s_i) − I gets its own −R block, and the top
    rows of the kernel are reduced to a basis.
    """
    elems = h.elements if isinstance(h, Subgroup) else tuple(sorted(set(h)))
    key = ("fixed", elems)
    cached = module._cache.get(key)
    if cached is not None:
        return cached
    fp = isinstance(module, FpModule)
    n = module.gens if fp else module.rank
    neg_rel = tuple(tuple(-x for x in r) for r in module.relations._data) if fp else ()
    nrel = module.relations.cols if fp else 0
    gens = _generating_set(module.group, elems)
    rows = []
    for idx, g in enumerate(gens):
        a = module.action[g]
        left, right = (0,) * (idx * nrel), (0,) * ((len(gens) - idx - 1) * nrel)
        for i in range(n):
            row = a.row(i)
            row = row[:i] + (row[i] - 1,) + row[i + 1:]
            rows.append(row + left + neg_rel[i] + right if nrel else row)
    basis = integer_kernel(IntMatrix._trusted(tuple(rows), n + len(gens) * nrel))
    if nrel:
        basis = column_lattice_basis(IntMatrix._trusted(basis._data[:n], basis.cols))
    module._cache[key] = basis
    return basis


def character(m):
    """Trace of the action at one representative per element conjugacy class."""
    if isinstance(m, FpModule):
        return m.lattice_quotient()[0].character()
    return tuple(
        sum(m.action[cls[0]][i, i] for i in range(m.rank))
        for cls in m.group.element_classes
    )


def rationally_isomorphic(m, n):
    """True iff M ⊗ Q and N ⊗ Q are isomorphic (equal characters)."""
    if m.group is not n.group:
        raise ModuleError("modules live over different groups")
    return character(m) == character(n)


def _averaged_map(m, n, x):
    """Σ_g ρ_N(g) · X · ρ_M(g⁻¹): the G-equivariant map M -> N averaged from X."""
    group = m.group
    t = IntMatrix.zeros(n.rank, m.rank)
    for g in range(group.order):
        t = t + n.action[g] @ x @ m.action[group.inverse[g]]
    return t


def find_equivariant_embedding(m, n, seed=0, retry_budget=64):
    """Random injective equivariant map T: M -> N with finite cokernel.

    Averages a random small integer matrix over the group action, retries on
    rank collapse, and normalizes the result to a primitive matrix with
    positive leading entry so output depends only on the seed.
    """
    if isinstance(m, FpModule) or isinstance(n, FpModule):
        raise ModuleError("embedding search requires Z-free lattices")
    if m.group is not n.group:
        raise ModuleError("modules live over different groups")
    if character(m) != character(n):
        raise ModuleError("not rationally isomorphic")
    r = m.rank
    if r == 0:
        return IntMatrix.zeros(0, 0)
    rng = random.Random(seed)
    for _ in range(retry_budget):
        rand = IntMatrix(
            (tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(r)), cols=r
        )
        t = _averaged_map(m, n, rand)
        if determinant(t) == 0:
            continue
        g = 0
        for row in range(r):
            for col in range(r):
                g = math.gcd(g, t[row, col])
        if g > 1:
            t = IntMatrix((tuple(x // g for x in rowv) for rowv in (t.row(i) for i in range(r))), cols=r)
        lead = next(x for rowv in (t.row(i) for i in range(r)) for x in rowv if x)
        if lead < 0:
            t = -t
        return t
    raise ModuleError("equivariant embedding search exhausted retry budget")


class FpModule:
    """Finitely presented module Z^gens / im(relations) with a G-action.

    The action matrices need only satisfy the axioms modulo the relation
    columns, and must preserve the relation span over Z.
    """

    __slots__ = ("group", "gens", "relations", "action", "_cache")

    def __init__(self, group, gens, relations, action, check=True):
        relations = (
            relations if isinstance(relations, IntMatrix) else IntMatrix(relations, cols=None)
        )
        if relations.rows != gens:
            raise ModuleError("relation matrix must have one row per generator")
        action = tuple(
            a if isinstance(a, IntMatrix) else IntMatrix(a, cols=gens) for a in action
        )
        if len(action) != group.order:
            raise ModuleError("need one action matrix per group element")
        for a in action:
            if a.rows != gens or a.cols != gens:
                raise ModuleError("action matrix has wrong shape")
        if check:
            solver = ImageSolver(relations)
            ident = IntMatrix.identity(gens)
            if solver.solve(action[0] - ident) is None:
                raise ModuleError("identity must act trivially modulo relations")
            for g in range(group.order):
                if solver.solve(action[g] @ relations) is None:
                    raise ModuleError("action does not preserve the relation span")
                for h in range(group.order):
                    gh = group.table[g][h]
                    if solver.solve(action[g] @ action[h] - action[gh]) is None:
                        raise ModuleError("action matrices are not a homomorphism modulo relations")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("FpModule is immutable")

    def act(self, g):
        return self.action[g]

    def torsion_order(self):
        """|M_tors| = product of the invariant factors of the relation matrix."""
        out = 1
        for d in invariant_factors(self.relations):
            out *= d
        return out

    def lattice_quotient(self):
        """(M/tors as a ZGLattice, projection matrix, integral section).

        proj maps presentation coordinates onto quotient coordinates, with
        proj @ sec = identity; torsion maps to zero.
        """
        cached = self._cache.get("quotient")
        if cached is not None:
            return cached
        n = self.gens
        u, d, _ = smith_normal_form(self.relations)
        r = sum(1 for i in range(min(n, self.relations.cols)) if d[i, i])
        uinv = invert_unimodular(u)
        proj = IntMatrix([u.row(i) for i in range(r, n)], cols=n) if r < n else IntMatrix.zeros(0, n)
        sec = IntMatrix.from_columns([uinv.column(j) for j in range(r, n)], rows=n)
        quot = ZGLattice(
            self.group,
            n - r,
            (proj @ self.action[g] @ sec for g in range(self.group.order)),
            check=False,
        )
        out = (quot, proj, sec)
        self._cache["quotient"] = out
        return out

    def __repr__(self):
        return f"FpModule(gens={self.gens}, rels={self.relations.cols}, |G|={self.group.order})"


def as_fp_module(module):
    """View any module as an FpModule (a lattice gets an empty relation matrix)."""
    if isinstance(module, FpModule):
        return module
    return FpModule(
        module.group,
        module.rank,
        IntMatrix.zeros(module.rank, 0),
        module.action,
        check=False,
    )


def fp_fixed_lattice(module, h):
    # Kept only because the benchmark's tracer looks this name up; library code
    # calls fixed_sublattice. An `=` alias would be the same function object,
    # and the tracer would then wrap every fixed_sublattice call twice.
    return fixed_sublattice(module, h)


def fp_fixed_data(module, h):
    """(free rank, torsion cardinality) of M^H = L_H / im(R)."""
    elems = h.elements if isinstance(h, Subgroup) else tuple(sorted(set(h)))
    key = ("fp_fixed_data", elems)
    cached = module._cache.get(key)
    if cached is not None:
        return cached
    basis = fixed_sublattice(module, elems)
    if not isinstance(module, FpModule) or module.relations.cols == 0:
        out = (basis.cols, 1)
    else:
        coords = integer_solve(basis, module.relations)
        if coords is None:
            raise ModuleError("relation columns escape the fixed preimage lattice")
        factors = invariant_factors(coords)
        out = (basis.cols - len(factors), math.prod(factors))
    module._cache[key] = out
    return out
