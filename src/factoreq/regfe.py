"""Regulator constants, index functions, and factor-equivalence certificates."""

from fractions import Fraction
from typing import NamedTuple

from .exactla import (
    ExactLinAlgError,
    ImageSolver,
    IntMatrix,
    determinant,
    is_positive_definite,
    lattice_index,
    _preimage,
)
from .grp import _generators, _memo, all_subgroups
from .burnside import BrauerRelationBasis, RelationError, brauer_relation_basis
from .zgmod import (
    ModuleError,
    ZGLattice,
    _averaged_gram,
    _fixed_gram,
    _vstack,
    find_equivariant_embedding,
    fixed_sublattice,
    fp_fixed_data,
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
        if not isinstance(gram, IntMatrix):
            try:
                gram = IntMatrix(gram, cols=module.rank)
            except ExactLinAlgError:
                raise PairingError("gram matrix has wrong shape") from None
        if gram.rows != module.rank or gram.cols != module.rank:
            raise PairingError("gram matrix has wrong shape")
        if check:
            if gram != gram.transpose():
                raise PairingError("pairing is not symmetric")
            if not is_positive_definite(gram):
                raise PairingError("pairing is not positive definite")
            # A lattice acts exactly, so invariance under G's generators suffices.
            for s in _generators(module.group):
                a = module.action[s]
                if a.transpose() @ gram @ a != gram:
                    raise PairingError("pairing is not G-invariant")
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("InvariantPairing is immutable")


def averaged_pairing(module):
    """P = Σ_g ρ(g)ᵀ ρ(g) on M/tors, cached on it by zgmod; symmetric, PD and invariant."""
    lattice = module.lattice_quotient()[0]
    return InvariantPairing(lattice, _averaged_gram(lattice), check=False)


def random_invariant_pairing(module, rng):
    """P = Σ_g ρ(g)ᵀ D ρ(g) = Sᵀ·(D·S) for a random diagonal D with entries in 1..5."""
    lattice = module.lattice_quotient()[0]
    d = [rng.randint(1, 5) for _ in range(lattice.rank)]
    s = _vstack(lattice.action, lattice.rank)
    ds = tuple(tuple(x * c for x in row) for row, c in zip(s._data, d * lattice.group.order))
    return InvariantPairing(lattice, s.transpose() @ IntMatrix._trusted(ds, s.cols), check=False)


def _check_pairing(module, pairing):
    """Refuse a pairing that does not live on M/tors (equal n x n action matrices, so equal rank)."""
    if pairing is not None and pairing.module.action != module.lattice_quotient()[0].action:
        raise PairingError("pairing does not live on this module's lattice")


@_memo("class_dets")
def _class_dets(module, gram):
    """det((1/|H|)·gram on M^H/tors) per subgroup class from `_fixed_gram`, one per distinct Gram."""
    by_gram, dets = {}, []
    for cls in all_subgroups(module.group):
        g = _fixed_gram(module, gram, cls.representative)
        if g not in by_gram:
            by_gram[g] = determinant(g)
        dets.append(Fraction(by_gram[g], cls.order ** g.rows))
    return tuple(dets)


def regulator_constant(theta, module, pairing=None):
    """C_Θ(M): the table of the one-relation basis (Θ), which refuses Θ outside K(G).

    Outside the kernel the product would depend on the pairing.
    """
    return regulator_constants_table(BrauerRelationBasis(theta.group, (theta,)), module, pairing)[0]


def regulator_constants_table(basis, module, pairing=None):
    """Componentwise regulator constants for a whole relation basis.

    C_Θ(M) is the product over subgroup classes of the fixed-point Gram
    determinants under the pairing (averaged by default), raised to n_H.
    An empty basis (K(G) = 0, as for cyclic G) gives () once the groups and
    the pairing are checked, with no class determinants computed.
    """
    if basis.group is not module.group:
        raise RelationError("relation and module live over different groups")
    _check_pairing(module, pairing)
    if not basis:
        return ()
    dets = _class_dets(module, (averaged_pairing(module) if pairing is None else pairing).gram)
    return tuple(_evaluate(theta, dets) for theta in basis)


# Σ |n_H|·(bits of the numerator and denominator of values[H]) that `_evaluate`
# multiplies out, a value of 1 costing nothing: README's 100,000·θ₀ on V4 needs 1.3M bits.
_PRODUCT_BITS = 1 << 22


def _evaluate(theta, values):
    """Π values[H] ** n_H over the support of Θ, `values` indexed by class number.

    Numerators and denominators are multiplied as ints (swapped for n_H < 0)
    and reduced once, in the one Fraction built at the end. Once the terms so
    far come to more than `_PRODUCT_BITS` bits, the product is refused before
    the next power is taken; a value of 1 is skipped, whatever its n_H.
    """
    num = den = 1
    bits = 0
    for idx, coeff in theta.support():
        v, e = values[idx], abs(coeff)
        if v == 1:
            continue
        top, bottom = (v.numerator, v.denominator) if coeff > 0 else (v.denominator, v.numerator)
        bits += e * (top.bit_length() + bottom.bit_length())
        if bits > _PRODUCT_BITS:
            raise RelationError(f"coefficients too large: the product exceeds {_PRODUCT_BITS} bits")
        num *= top ** e
        den *= bottom ** e
    return Fraction(num, den)


def _validate_equivariant(m, n, t, rel_m, rel_n):
    if m.group is not n.group:
        raise ModuleError("modules live over different groups")
    if t.rows != rel_n.rows or t.cols != rel_m.rows:
        raise ModuleError("map matrix has wrong shape")
    solver = ImageSolver(rel_n)
    if solver.solve(t @ rel_m) is None:
        raise ModuleError("map does not send relations into relations")
    # T·ρ_M(s) ≡ ρ_N(s)·T on G's generators gives it for every g, by induction on
    # word length; one solve, as the solver treats each stacked column on its own.
    gens = _generators(m.group) or (0,)
    left = IntMatrix.hstack(*(m.action[s] for s in gens))
    defects = t @ left - IntMatrix.hstack(*(n.action[s] @ t for s in gens))
    if solver.solve(defects) is None:
        raise ModuleError("map is not equivariant")


def index_function(m, n, t):
    """f(H) = [N^H : T(M^H)] / |ker(T on M^H)|: a tuple of Fractions in `all_subgroups` order.

    Given T and the two relation matrices, f(H) depends only on the pair
    (L_H(M), L_H(N)) of fixed lattices, so each distinct pair, keyed by
    content, is evaluated once and its value reused by every later class
    with the same pair. A refusal names the first class that hits it.
    """
    rel_m, rel_n = m.relations, n.relations
    _validate_equivariant(m, n, t, rel_m, rel_n)
    by_pair, values = {}, []
    for ci, cls in enumerate(all_subgroups(m.group)):
        h = cls.representative
        pair = lm, ln = fixed_sublattice(m, h), fixed_sublattice(n, h)
        value = by_pair.get(pair)
        if value is None:
            tl = t @ lm
            try:
                num = lattice_index(tl.hstack(rel_n), ln)
            except ExactLinAlgError as exc:
                raise ModuleError(f"infinite cokernel at subgroup class {ci}") from exc
            # ker(T on M^H) = V / im(R_M) for V the preimage in L_H(M) of im(R_N);
            # im(R_M) ⊆ V always, so a rank difference is exactly an infinite kernel.
            try:
                korder = lattice_index(rel_m, lm @ _preimage(tl, rel_n))
            except ExactLinAlgError as exc:
                raise ModuleError(f"infinite kernel at subgroup class {ci}") from exc
            value = by_pair[pair] = Fraction(num, korder)
        values.append(value)
    return tuple(values)


def is_factorisable(f, basis):
    """Defect of f (one value per subgroup class) on each basis relation; all 1 iff factorisable."""
    if len(f) != len(all_subgroups(basis.group)):
        raise ValueError("one value per subgroup class required")
    defects = tuple(_evaluate(theta, f) for theta in basis)
    return all(d == 1 for d in defects), defects


class LemmaCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    ok: bool
    factors: tuple


def pullback_pairing(m, n, t, pairing_n):
    """Pairing on M/tors transported from one on N/tors through proj_N · T · sec_M."""
    quot_m, _, sec_m = m.lattice_quotient()
    tbar = n.lattice_quotient()[1] @ t @ sec_m
    gram = tbar.transpose() @ pairing_n.gram @ tbar
    return InvariantPairing(quot_m, gram)


def verify_lemma(m, n, t, theta, pairing=None):
    """Check C_Θ(M) = ∏_H (f(H)·|M^H_tors|/|N^H_tors|)^{2 n_H} · C_Θ(N) exactly.

    Both regulator constants are evaluated against the same pairing: one on N
    (averaged by default) and its pullback through T on M.
    """
    _check_pairing(n, pairing)
    f = index_function(m, n, t)
    factors = []
    for value, cls in zip(f, all_subgroups(m.group)):
        h = cls.representative
        _, tors_m = fp_fixed_data(m, h)
        _, tors_n = fp_fixed_data(n, h)
        factors.append(value * Fraction(tors_m, tors_n))
    pairing_n = pairing if pairing is not None else averaged_pairing(n)
    pairing_m = pullback_pairing(m, n, t, pairing_n)
    lhs = regulator_constant(theta, m, pairing_m)
    rhs = regulator_constant(theta, n, pairing_n) * _evaluate(theta, factors) ** 2
    return LemmaCheck(lhs, rhs, lhs == rhs, tuple(factors))


class FactorEquivalenceReport(NamedTuple):
    """Certificate for one factor-equivalence query, carrying both routes."""

    verdict: bool
    relations: BrauerRelationBasis
    defects: tuple
    index_values: tuple
    embedding: IntMatrix
    constants_m: tuple
    constants_n: tuple
    seed: int


def factor_equivalent(m, n, seed=0):
    """Decide factor equivalence of two lattices by both available routes.

    Definitional route: a random equivariant embedding's index function must
    have defect 1 on every basis relation. Regulator route: the two constant
    tables must coincide. The routes are provably equivalent; any divergence
    is raised as InternalError. The embedding search refuses FpModules and
    pairs that are not rationally isomorphic.
    """
    t = find_equivariant_embedding(m, n, seed=seed)
    basis = brauer_relation_basis(m.group)
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
