"""Integral representations: finitely presented Z[G]-modules and Z[G]-lattices.

Every module is a cokernel presentation Z^n / im(R) with one n x n integer
matrix per group element (columns are images of basis vectors). The action
need only satisfy the module axioms modulo the relation columns, and must map
im(R) into itself. A ZGLattice is the case with no relations (R is n x 0), so
its axioms hold exactly; an FpModule carries the torsion information the
factor-equivalence lemma needs. Both share one constructor, `_Module`, and
one action check on G's generators, `_checked_action`, which also completes an
action given on a generating set; fixed points of both go through one routine,
`fixed_sublattice`, down a chain of steps L_H = L_K·C that skips (C = None)
each step fixing L_K. Both answer `lattice_quotient()` (a lattice is its own
M/tors), and `_fixed_quotient` gives M^H/tors inside M/tors with |M^H_tors|,
so no caller outside this module asks which kind of module it holds. Every
per-group and per-module cache here is `grp._memo`; public entry points run
their checks first and call a memoized private builder. Only the averaged
gram is seeded by hand, with |G|·I, by `_gset_lattice`, the one builder of
the lattices of signed G-sets.
"""

import math
import random
from itertools import islice
from operator import index

from .exactla import (
    ExactLinAlgError,
    ImageSolver,
    IntMatrix,
    column_lattice_basis,
    determinant,
    integer_kernel,
    integer_solve,
    lattice_index,
    _preimage,
)
from .grp import _Frozen, _generating_set, _generators, _memo, _subgroup
from .burnside import PermAction, _coset_action, coset_action


class ModuleError(ValueError):
    """Raised for invalid module data or violated map preconditions."""


class _Module(_Frozen):
    """Z^n / im(relations) with G acting by n x n integer matrices."""

    __slots__ = ("group", "action", "relations", "_cache")

    def __init__(self, group, relations, action, check):
        n = relations.rows
        action = tuple(a if isinstance(a, IntMatrix) else IntMatrix(a, cols=n) for a in action)
        if len(action) != group.order:
            raise ModuleError("need one action matrix per group element")
        for a in action:
            if a.rows != n or a.cols != n:
                raise ModuleError("action matrix has wrong shape")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_cache", {})
        if check:
            _checked_action(group, dict(enumerate(action)), _generators(group), relations)


def _checked_action(group, known, gens, rel):
    """The full action tuple from `known` (element -> matrix, `gens` included), modulo im(R).

    Checks ρ(1) ≡ I, ρ(s)·R ⊆ im R and ρ(a)ρ(s) ≡ ρ(as) for every a in G and
    s in `gens`; by induction on word length these give ρ(g)·im R ⊆ im R and
    ρ(a)ρ(b) ≡ ρ(ab) for all g, a and b. A missing element gets the first
    product that reaches it, breadth first from 1. With R = n x 0 every test
    is exact equality.
    """
    known, eye, solver = dict(known), IntMatrix.identity(rel.rows), ImageSolver(rel)

    def differ(a, b):
        # Equal matrices need no solve.
        return a != b and solver.solve(a - b) is None

    if differ(known.setdefault(0, eye), eye):
        raise ModuleError("identity must act trivially modulo relations")
    if gens and solver.solve(IntMatrix.hstack(*(known[s] @ rel for s in gens))) is None:
        raise ModuleError("action does not preserve the relation span")
    queue, seen = [0], {0}
    for a in queue:
        for s in gens:
            b, product = group.table[a][s], known[a] @ known[s]
            if b not in known:
                known[b] = product
            elif differ(product, known[b]):
                raise ModuleError("action matrices are not a homomorphism modulo relations")
            if b not in seen:
                seen.add(b)
                queue.append(b)
    if len(queue) != group.order:
        raise ModuleError("action entries do not generate the whole group")
    return tuple(known[g] for g in range(group.order))


class ZGLattice(_Module):
    """Z-free module with G acting by integer matrices: no relations (rank x 0)."""

    __slots__ = ()

    def __init__(self, group, rank, action, check=True):
        if index(rank) < 0:
            raise ModuleError("rank must be non-negative")
        super().__init__(group, IntMatrix.zeros(rank, 0), action, check)

    @property
    def rank(self):
        return self.relations.rows

    def lattice_quotient(self):
        """(self, I, I), cached nowhere, so the module's cache never refers back to it."""
        return self, IntMatrix.identity(self.rank), IntMatrix.identity(self.rank)

    def __repr__(self):
        return f"ZGLattice(rank={self.rank}, |G|={self.group.order})"


class FpModule(_Module):
    """Finitely presented module Z^gens / im(relations) with a G-action."""

    __slots__ = ()

    def __init__(self, group, gens, relations, action, check=True):
        relations = relations if isinstance(relations, IntMatrix) else IntMatrix(relations)
        if relations.rows != gens:
            raise ModuleError("relation matrix must have one row per generator")
        super().__init__(group, relations, action, check)

    @property
    def gens(self):
        return self.relations.rows

    @_memo("quotient")
    def lattice_quotient(self):
        """(M/tors as a ZGLattice, projection matrix, integral section), cached.

        proj is a basis of the saturated left kernel of the relation matrix
        (as rows), so its kernel is the saturation of im(R), that is, the
        preimage of the torsion; proj @ sec = identity.
        """
        proj = integer_kernel(self.relations.transpose()).transpose()
        sec = integer_solve(proj, IntMatrix.identity(proj.rows))
        quot = ZGLattice(self.group, proj.rows, (proj @ a @ sec for a in self.action), check=False)
        return quot, proj, sec

    def __repr__(self):
        return f"FpModule(gens={self.gens}, rels={self.relations.cols}, |G|={self.group.order})"


def trivial_lattice(group):
    """Z with trivial action: the lattice of the one-point G-set."""
    return permutation_lattice(group, PermAction(group, ((0,),) * group.order))


def zero_lattice(group):
    """The lattice of the empty G-set."""
    return permutation_lattice(group, PermAction(group, ((),) * group.order))


def permutation_lattice(group, gset):
    """Free lattice on the points of a PermAction, G permuting the basis.

    Built once per group and action by `_gset_lattice`, so repeated Z[G/H]
    share one immutable lattice and its caches.
    """
    if not isinstance(gset, PermAction) or gset.group is not group:
        raise ModuleError("gset must be a permutation action of the same group")
    return _gset_lattice(group, gset.images)


@_memo("gset_lattice")
def _gset_lattice(group, images, kernel=None):
    """The lattice of a signed G-set: row j of ρ(g) is ±e_{g⁻¹·j}.

    The sign is − exactly when `kernel` is given and reps[j]⁻¹·g·reps[i] ∉
    kernel, for i = g⁻¹·j; `images` is then the action of G on G/D, and
    reps[i] is the least element of coset i. Each ρ(g) is a signed
    permutation matrix, so orthogonal: this seeds the averaged gram |G|·I.
    """
    mul, inv, k = group.table, group.inverse, len(images[0])
    if kernel is not None:
        kernel = frozenset(kernel)
        reps = [next(g for g in range(group.order) if images[g][0] == i) for i in range(k)]
    eye = IntMatrix.identity(k)
    plus, minus = eye._data, (-eye)._data
    mats = (
        IntMatrix._trusted(tuple(
            (plus if kernel is None or mul[inv[reps[j]]][mul[g][reps[i]]] in kernel else minus)[i]
            for j, i in enumerate(images[inv[g]])
        ), k)
        for g in range(group.order)
    )
    lattice = ZGLattice(group, k, mats, check=False)
    lattice._cache["avg_gram"] = group.order * eye
    return lattice


def _averaged_gram(lattice):
    """Σ_g ρ(g)ᵀ ρ(g) = Sᵀ·S for S the stacked ρ(g), cached on the lattice."""
    if "avg_gram" not in lattice._cache:
        s = _vstack(lattice.action, lattice.rank)
        lattice._cache["avg_gram"] = s.transpose() @ s
    return lattice._cache["avg_gram"]


def regular_lattice(group):
    return permutation_lattice(group, coset_action(group, group.trivial_subgroup()))


def induced_lattice(group, d, kernel=None):
    """Ind_D^G of the ±1 character of D that is +1 exactly on `kernel`.

    `d` and `kernel` (None means D) are Subgroups of G or element sets of
    them, and `kernel` has index 1 or 2 in D. Index 1 gives Z[G/D], the
    cached permutation lattice. Index 2 gives the signed coset lattice of
    `_gset_lattice`, built once per group and pair.
    """
    d = _subgroup(group, d)
    kernel = d if kernel is None else _subgroup(group, kernel)
    if not set(kernel) <= set(d):
        raise ModuleError("kernel must lie in d")
    if kernel.order == d.order:
        return permutation_lattice(group, coset_action(group, d))
    if 2 * kernel.order != d.order:
        raise ModuleError("kernel must have index 1 or 2 in d")
    return _gset_lattice(group, _coset_action(group, d.elements).images, kernel.elements)


def _block_diagonal(blocks):
    """The matrices `blocks` placed corner to corner, zeros elsewhere."""
    cols = sum(b.cols for b in blocks)
    rows, left = [], 0
    for b in blocks:
        pad_left, pad_right = (0,) * left, (0,) * (cols - left - b.cols)
        rows.extend(pad_left + r + pad_right for r in b._data)
        left += b.cols
    return IntMatrix._trusted(tuple(rows), cols)


def _vstack(mats, cols):
    """Matrices of `cols` columns one above the other, sharing their row tuples."""
    return IntMatrix._trusted(tuple(row for a in mats for row in a._data), cols)


def direct_sum(*modules):
    """Block-diagonal direct sum; mixes lattices and FpModules freely."""
    if not modules:
        raise ModuleError("direct sum needs at least one summand")
    group = modules[0].group
    if any(m.group is not group for m in modules):
        raise ModuleError("summands live over different groups")
    rel = _block_diagonal([m.relations for m in modules])
    mats = [_block_diagonal([m.action[g] for m in modules]) for g in range(group.order)]
    if all(isinstance(m, ZGLattice) for m in modules):
        return ZGLattice(group, rel.rows, mats, check=False)
    return FpModule(group, rel.rows, rel, mats, check=False)


def conjugated_lattice(m, u):
    """Same module in a new basis: g acts by U^-1 ρ(g) U (U unimodular)."""
    if abs(determinant(u)) != 1:  # determinant refuses a non-square U itself
        raise ExactLinAlgError("matrix is not unimodular")
    return sublattice_action(m, u)


def sublattice_action(m, basis):
    """Action of G on the sublattice spanned by `basis` columns, in basis coordinates.

    Errors if `m` is an FpModule, if the columns are linearly dependent or if
    their span is not G-stable.
    """
    if isinstance(m, FpModule):
        raise ModuleError("sublattice action requires a Z-free lattice")
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


def fixed_sublattice(module, h):
    """Basis (matrix columns) of L_H = {x : (ρ(s) − I)x ∈ im(R) for s in H}.

    For a lattice (no relations R) L_H is the saturated sublattice M^H; for
    an FpModule it is the full preimage of M^H under Z^gens -> M, which need
    not be saturated (torsion). Down the subgroup chain: the trivial subgroup
    gives Z^n, and for H's generators s_1..s_k and K = <s_1..s_{k−1}>,
    L_H = {x ∈ L_K : (ρ(s_k) − I)x ∈ im(R)}, since the action preserves im(R)
    and is a homomorphism modulo im(R). That is one preimage step: L_H = L_K·C
    for C = `_preimage((ρ(s_k) − I)·L_K, R)`, and `_fixed_chain` caches
    (L_H, K, C) for each L_K on the way: L_H = C out of K = 1 (L_K = I), and
    (L_K, K, None), with no preimage, when (ρ(s_k) − I)·L_K = 0, so L_K and its
    Gram are kept. `h` is a Subgroup of the module's group or the element set
    of one, else `grp._subgroup` raises GroupError.
    """
    return _fixed_chain(module, _subgroup(module.group, h).elements)[0]


@_memo("fixed")
def _fixed_chain(module, elems):
    """The chain record (L_H, K, C) of `fixed_sublattice`, or (I, None, None) for H = 1."""
    gens, parent = _generating_set(module.group, elems)
    if not gens:
        return IntMatrix.identity(module.relations.rows), None, None
    # The greedy generating set of K is gens[:-1], so the chain reuses entries.
    lk, grandparent, _ = _fixed_chain(module, parent)
    rho = module.action[gens[-1]]
    step = rho - lk if grandparent is None else rho @ lk - lk
    if not any(map(any, step._data)):
        return lk, parent, None
    c = _preimage(step, module.relations)
    return (c if grandparent is None else lk @ c), parent, c


def character(m):
    """Trace of the action on M/tors at one representative per element conjugacy class."""
    lattice = m.lattice_quotient()[0]
    return tuple(
        sum(lattice.action[cls[0]][i, i] for i in range(lattice.rank))
        for cls in m.group.element_classes
    )


def rationally_isomorphic(m, n):
    """True iff M ⊗ Q and N ⊗ Q are isomorphic (equal characters)."""
    if m.group is not n.group:
        raise ModuleError("modules live over different groups")
    return character(m) == character(n)


def _averaged_map(m, n, x):
    """Σ_g ρ_N(g) · X · ρ_M(g⁻¹): the G-equivariant map M -> N averaged from X.

    One product: [ρ_N(g_1) … ρ_N(g_k)] · vstack_g(X · ρ_M(g⁻¹)).
    """
    right = _vstack((x @ m.action[h] for h in m.group.inverse), m.rank)
    return IntMatrix.hstack(*n.action) @ right


def _averaged_maps(m, n, rng, bound):
    """Endless averaged maps M -> N, each from a fresh square X with entries in [−bound, bound]."""
    r = m.rank
    while True:
        rows = tuple(tuple(rng.randint(-bound, bound) for _ in range(r)) for _ in range(r))
        yield _averaged_map(m, n, IntMatrix._trusted(rows, r))


_RETRIES = 64


def find_equivariant_embedding(m, n, seed=0):
    """Random injective equivariant map T: M -> N with finite cokernel.

    Averages a random small integer matrix over the group action, redraws on
    rank collapse (`_RETRIES` draws in all), and normalizes the result to a
    primitive matrix with positive leading entry so output depends on the seed.
    """
    if isinstance(m, FpModule) or isinstance(n, FpModule):
        raise ModuleError("embedding search requires Z-free lattices")
    if not rationally_isomorphic(m, n):
        raise ModuleError("not rationally isomorphic")
    r = m.rank
    if r == 0:
        return IntMatrix.zeros(0, 0)
    for t in islice(_averaged_maps(m, n, random.Random(seed), 3), _RETRIES):
        if determinant(t) == 0:
            continue
        entries = [x for row in t._data for x in row]
        g = math.gcd(*entries)
        unit = g if next(x for x in entries if x) > 0 else -g
        return IntMatrix._trusted(tuple(tuple(x // unit for x in row) for row in t._data), r)
    raise ModuleError(f"no injective equivariant map in {_RETRIES} draws")


def fp_fixed_lattice(module, h):
    # Kept only because the benchmark's tracer looks this name up; library code
    # calls fixed_sublattice. An `=` alias would be the same function object,
    # and the tracer would then wrap every fixed_sublattice call twice.
    return fixed_sublattice(module, h)


@_memo("fixed_quotient")
def _fixed_quotient(module, basis):
    """(basis of M^H/tors inside M/tors, |M^H_tors|) for `basis` = L_H, cached per L_H.

    Without relations that is (M^H, 1), as proj = I. Otherwise, with L_H the
    preimage of M^H and proj the projection of `lattice_quotient` (whose
    kernel is the saturation of im(R)), M^H/tors is spanned by proj·L_H, and
    the torsion of M^H is (L_H ∩ ker proj) / im(R), one lattice index.
    """
    if not module.relations.cols:
        return basis, 1
    image = module.lattice_quotient()[1] @ basis
    tors = basis @ integer_kernel(image)
    return column_lattice_basis(image), lattice_index(module.relations, tors)


def _fixed_gram(module, gram, h):
    """Gram under `gram` of B, M^H/tors from `_fixed_quotient`: Bᵀ·gram·B, or down the chain."""
    elems = _subgroup(module.group, h).elements
    if not module.relations.cols:
        return _chain_gram(module, gram, elems)
    basis = _fixed_quotient(module, _fixed_chain(module, elems)[0])[0]
    return basis.transpose() @ gram @ basis


@_memo("fixed_gram")
def _chain_gram(lattice, gram, elems):
    """Gram of L_H: `gram` for H = 1, Gram(L_K) itself for C = None, else Cᵀ·(Gram(L_K)·C)."""
    _, parent, c = _fixed_chain(lattice, elems)
    gk = gram if parent is None else _chain_gram(lattice, gram, parent)
    return gk if c is None else c.transpose() @ (gk @ c)


def fp_fixed_data(module, h):
    """(free rank, torsion cardinality) of M^H, read off `_fixed_quotient`."""
    elems = _subgroup(module.group, h).elements
    basis, torsion = _fixed_quotient(module, _fixed_chain(module, elems)[0])
    return basis.cols, torsion
