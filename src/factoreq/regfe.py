"""Regulator constants, index functions, and factor-equivalence certificates."""

from fractions import Fraction
from dataclasses import dataclass
from typing import NamedTuple

from .exactla import (
    ExactLinAlgError,
    ImageSolver,
    IntMatrix,
    column_lattice_basis,
    gram_determinant,
    invariant_factors,
    integer_kernel,
    integer_solve,
    is_positive_definite,
    lattice_index,
)
from .grp import all_subgroups
from .burnside import BrauerRelationBasis, RelationError, brauer_relation_basis, is_brauer_relation
from .zgmod import (
    FpModule,
    ModuleError,
    ZGLattice,
    as_fp_module,
    find_equivariant_embedding,
    fixed_sublattice,
    fp_fixed_data,
    rationally_isomorphic,
)


class PairingError(ValueError):
    """Raised when a bilinear form fails the invariant-pairing contract."""


class InternalError(RuntimeError):
    """Raised when two routes that theory proves equal disagree: a library bug."""


class InvariantPairing:
    """Symmetric, positive-definite, G-invariant integer form on a lattice."""

    __slots__ = ("module", "gram")

    def __init__(self, module, gram, check=True):
        if not isinstance(module, ZGLattice):
            raise PairingError("pairings are defined on Z-free lattices")
        gram = gram if isinstance(gram, IntMatrix) else IntMatrix(gram, cols=module.rank)
        if gram.rows != module.rank or gram.cols != module.rank:
            raise PairingError("gram matrix has wrong shape")
        if check:
            if gram != gram.transpose():
                raise PairingError("pairing is not symmetric")
            if not is_positive_definite(gram):
                raise PairingError("pairing is not positive definite")
            for g in range(module.group.order):
                a = module.action[g]
                if a.transpose() @ gram @ a != gram:
                    raise PairingError("pairing is not G-invariant")
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantPairing is immutable")

    def compatible_with(self, lattice):
        return self.module.rank == lattice.rank and self.module.action == lattice.action


def _underlying_lattice(module):
    """The lattice regulator determinants live on: M itself, or M/tors."""
    if isinstance(module, FpModule):
        return module.lattice_quotient()[0]
    return module


def averaged_pairing(module):
    """P = sum over g of ρ(g)ᵀ ρ(g); always symmetric, PD, and invariant."""
    lattice = _underlying_lattice(module)
    p = IntMatrix.zeros(lattice.rank, lattice.rank)
    for g in range(lattice.group.order):
        a = lattice.action[g]
        p = p + a.transpose() @ a
    return InvariantPairing(lattice, p, check=False)


def random_invariant_pairing(module, rng, spread=5):
    """P = sum over g of ρ(g)ᵀ D ρ(g) for a random positive diagonal D."""
    lattice = _underlying_lattice(module)
    r = lattice.rank
    d = IntMatrix._trusted(
        tuple((0,) * i + (rng.randint(1, spread),) + (0,) * (r - i - 1) for i in range(r)), r
    )
    p = IntMatrix.zeros(r, r)
    for g in range(lattice.group.order):
        a = lattice.action[g]
        p = p + a.transpose() @ (d @ a)
    return InvariantPairing(lattice, p, check=False)


def _class_determinants(module, pairing):
    """Per-subgroup-class det((1/|H|)·pairing on M^H/tors), cached by gram matrix."""
    table = all_subgroups(module.group)
    lattice = _underlying_lattice(module)
    if pairing is None:
        pairing = module._cache.get("avg_pairing")
        if pairing is None:
            pairing = averaged_pairing(module)
            module._cache["avg_pairing"] = pairing
    if not pairing.compatible_with(lattice):
        raise PairingError("pairing does not live on this module's lattice")
    key = ("class_dets", pairing.gram)
    cached = module._cache.get(key)
    if cached is not None:
        return cached
    dets = []
    for cls in table:
        h = cls.representative
        basis = fixed_sublattice(module, h)
        if isinstance(module, FpModule):
            basis = column_lattice_basis(module.lattice_quotient()[1] @ basis)
        dets.append(gram_determinant(pairing.gram, basis, Fraction(1, h.order)))
    dets = tuple(dets)
    module._cache[key] = dets
    return dets


def regulator_constant(theta, module, pairing=None):
    """C_Θ(M) = product over subgroup classes of the fixed-point Gram determinants.

    Θ must lie in K(G); outside the kernel the product depends on the pairing
    and is rejected.
    """
    if theta.group is not module.group:
        raise RelationError("relation and module live over different groups")
    if not is_brauer_relation(theta):
        raise RelationError("not a Brauer relation")
    return _evaluate(theta, _class_determinants(module, pairing))


def regulator_constants_table(basis, module, pairing=None):
    """Componentwise regulator constants for a whole relation basis."""
    dets = _class_determinants(module, pairing)
    return tuple(_evaluate(theta, dets) for theta in basis)


def _evaluate(theta, values):
    """Π values[H] ** n_H over the support of Θ, one value per subgroup class."""
    out = Fraction(1)
    for idx, coeff in theta.support():
        out *= values[idx] ** coeff
    return out


@dataclass(frozen=True)
class SubgroupFunction:
    """Positive rational function on subgroup conjugacy classes."""

    table: object
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.table):
            raise ValueError("one value per subgroup class required")

    def __getitem__(self, class_index):
        return self.values[class_index]

    def __len__(self):
        return len(self.values)

    def of_subgroup(self, subgroup):
        return self.values[self.table.index_of(subgroup)]

    def items(self):
        return tuple(enumerate(self.values))


def _validate_equivariant(fp_m, fp_n, t):
    if fp_m.group is not fp_n.group:
        raise ModuleError("modules live over different groups")
    if t.rows != fp_n.gens or t.cols != fp_m.gens:
        raise ModuleError("map matrix has wrong shape")
    solver = ImageSolver(fp_n.relations)
    if solver.solve(t @ fp_m.relations) is None:
        raise ModuleError("map does not send relations into relations")
    for g in range(fp_m.group.order):
        if solver.solve(t @ fp_m.action[g] - fp_n.action[g] @ t) is None:
            raise ModuleError("map is not equivariant")
    return solver


def index_function(m, n, t):
    """f(H) = [N^H : T(M^H)] / |ker(T restricted to M^H)| per subgroup class."""
    fp_m, fp_n = as_fp_module(m), as_fp_module(n)
    _validate_equivariant(fp_m, fp_n, t)
    table = all_subgroups(fp_m.group)
    rank_rm = len(invariant_factors(fp_m.relations))
    values = []
    for ci, cls in enumerate(table):
        h = cls.representative
        lm = fixed_sublattice(m, h)
        ln = fixed_sublattice(n, h)
        image = (t @ lm).hstack(fp_n.relations)
        try:
            num = lattice_index(image, ln)
        except ExactLinAlgError as exc:
            raise ModuleError(f"infinite cokernel at subgroup class {ci}") from exc
        # Kernel of T on M^H: solutions of T(LM c) = R_N y, modulo im(R_M).
        system = (t @ lm).hstack(-fp_n.relations)
        ker = integer_kernel(system)
        coeff_rows = IntMatrix([ker.row(i) for i in range(lm.cols)], cols=ker.cols) if lm.cols else IntMatrix.zeros(0, ker.cols)
        v = column_lattice_basis(lm @ coeff_rows)
        if v.cols != rank_rm:
            raise ModuleError(f"infinite kernel at subgroup class {ci}")
        if v.cols == 0:
            korder = 1
        else:
            coords = integer_solve(v, fp_m.relations)
            if coords is None:
                raise ModuleError("relation columns escape the kernel lattice")
            korder = 1
            for d in invariant_factors(coords):
                korder *= d
        values.append(Fraction(num, korder))
    return SubgroupFunction(table, tuple(values))


def is_factorisable(f, basis):
    """Defect of f on each basis relation; factorisable iff all defects are 1."""
    defects = tuple(_evaluate(theta, f) for theta in basis)
    return all(d == 1 for d in defects), defects


class LemmaCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    ok: bool
    factors: tuple


def _quotient_map(fp_m, fp_n, t):
    """The map induced by T on the torsion-free quotients."""
    _, _, sec_m = fp_m.lattice_quotient()
    _, proj_n, _ = fp_n.lattice_quotient()
    return proj_n @ t @ sec_m


def pullback_pairing(m, n, t, pairing_n):
    """Pairing on M obtained by transporting a pairing on N through T."""
    fp_m, fp_n = as_fp_module(m), as_fp_module(n)
    tbar = _quotient_map(fp_m, fp_n, t)
    gram = tbar.transpose() @ pairing_n.gram @ tbar
    return InvariantPairing(_underlying_lattice(m), gram)


def verify_lemma(m, n, t, theta, pairing=None):
    """Check C_Θ(M) = ∏_H (f(H)·|M^H_tors|/|N^H_tors|)^{2 n_H} · C_Θ(N) exactly.

    Both regulator constants are evaluated against the same pairing: one on N
    (averaged by default) and its pullback through T on M.
    """
    f = index_function(m, n, t)
    factors = []
    for ci, cls in enumerate(f.table):
        h = cls.representative
        _, tors_m = fp_fixed_data(m, h)
        _, tors_n = fp_fixed_data(n, h)
        factors.append(f[ci] * Fraction(tors_m, tors_n))
    pairing_n = pairing if pairing is not None else averaged_pairing(n)
    pairing_m = pullback_pairing(m, n, t, pairing_n)
    lhs = regulator_constant(theta, m, pairing_m)
    rhs = regulator_constant(theta, n, pairing_n)
    for ci, coeff in theta.support():
        rhs *= factors[ci] ** (2 * coeff)
    return LemmaCheck(lhs, rhs, lhs == rhs, tuple(factors))


@dataclass(frozen=True)
class FactorEquivalenceReport:
    """Certificate for one factor-equivalence query, carrying both routes."""

    verdict: bool
    relations: BrauerRelationBasis
    defects: tuple
    index_values: SubgroupFunction
    embedding: IntMatrix
    constants_m: tuple
    constants_n: tuple
    seed: int


def factor_equivalent(m, n, seed=0, relations=None, retry_budget=64):
    """Decide factor equivalence of two lattices by both available routes.

    Definitional route: a random equivariant embedding's index function must
    have defect 1 on every basis relation. Regulator route: the two constant
    tables must coincide. The routes are provably equivalent; any divergence
    is raised as InternalError.
    """
    if isinstance(m, FpModule) or isinstance(n, FpModule):
        raise ModuleError(
            "factor_equivalent requires Z-free lattices; compare general modules "
            "with verify_lemma and an explicit map"
        )
    if not rationally_isomorphic(m, n):
        raise ModuleError("not rationally isomorphic")
    basis = relations if relations is not None else brauer_relation_basis(m.group)
    t = find_equivariant_embedding(m, n, seed=seed, retry_budget=retry_budget)
    f = index_function(m, n, t)
    verdict, defects = is_factorisable(f, basis)
    constants_m = regulator_constants_table(basis, m)
    constants_n = regulator_constants_table(basis, n)
    for i in range(len(basis)):
        if defects[i] ** 2 != constants_m[i] / constants_n[i]:
            raise InternalError(
                f"defect of relation {i} does not square to the regulator ratio"
            )
    if verdict != (constants_m == constants_n):
        raise InternalError("factorisability and regulator routes disagree")
    return FactorEquivalenceReport(
        verdict=verdict,
        relations=basis,
        defects=defects,
        index_values=f,
        embedding=t,
        constants_m=constants_m,
        constants_n=constants_n,
        seed=seed,
    )
