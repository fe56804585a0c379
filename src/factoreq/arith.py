"""Algebraic models of S-unit lattices and K-group comparison modules.

The place model is a disjoint union of coset spaces G/D_i; the S-unit
analogue is the augmentation kernel I_S inside Z[S], and the residue-degree
surrogate of an H-orbit is f = |H ∩ Stab(q)| = |H|/|orbit| for q in it
(everywhere-unramified model), read off the orbit by orbit-stabilizer.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .exactla import ExactLinAlgError, IntMatrix, lattice_index
from .grp import _subgroup, all_subgroups
from .burnside import PermAction, coset_action
from .regfe import InvariantPairing, _evaluate, regulator_constant, regulator_constants_table
from .zgmod import (
    ModuleError,
    ZGLattice,
    direct_sum,
    fixed_sublattice,
    induced_lattice,
    permutation_lattice,
    regular_lattice,
    sublattice_action,
    trivial_lattice,
    zero_lattice,
)


class ArithmeticModelError(ValueError):
    """Raised for a place model without places, or a subfield image of infinite index in (I_S)^H."""


class PlaceModel(NamedTuple):
    """Chosen decomposition groups and the G-set S they generate."""

    group: object
    decomposition_groups: tuple
    action: PermAction


def place_model(group, d_list):
    """Disjoint union of the coset actions G/D_i."""
    if not d_list:
        raise ArithmeticModelError("at least one decomposition group is required")
    ds = tuple(_subgroup(group, d) for d in d_list)
    action = coset_action(group, ds[0])
    for d in ds[1:]:
        action = action.disjoint_union(coset_action(group, d))
    return PlaceModel(group=group, decomposition_groups=ds, action=action)


class ResidueData(NamedTuple):
    orbits: tuple
    degrees: tuple  # f per orbit, |H ∩ Stab(q)| = |H|/|orbit|
    n: int          # product of the degrees
    l: int          # lcm of the degrees


def residue_degrees(model, h):
    """Orbit/degree data of H acting on S: f = |H ∩ Stab(q)| = |H|/|orbit| per orbit."""
    h = _subgroup(model.group, h)
    orbits = tuple(model.action.orbits(h))
    degs = tuple(h.order // len(orbit) for orbit in orbits)
    return ResidueData(orbits=orbits, degrees=degs, n=math.prod(degs), l=math.lcm(*degs))


class SUnitLattice(NamedTuple):
    """The augmentation kernel I_S with its difference basis and restricted pairing."""

    model: PlaceModel
    lattice: ZGLattice     # I_S in the basis e_0 - e_i
    basis: IntMatrix       # |S| x (|S|-1), column i-1 = e_0 - e_i
    pairing: InvariantPairing  # orthonormal-on-Z[S] pairing restricted to I_S


def sunit_lattice(group, d_list):
    """I_S = ker(Z[S] -> Z) for S the disjoint union of G/D_i."""
    model = place_model(group, d_list)
    ambient = permutation_lattice(group, model.action)
    s = model.action.size
    cols = []
    for i in range(1, s):
        col = [0] * s
        col[0] = 1
        col[i] = -1
        cols.append(tuple(col))
    basis = IntMatrix.from_columns(cols, rows=s)
    lattice = sublattice_action(ambient, basis)
    gram = basis.transpose() @ basis
    pairing = InvariantPairing(lattice, gram, check=False)
    return SUnitLattice(model=model, lattice=lattice, basis=basis, pairing=pairing)


def subfield_lattice_embedding(sunit, h):
    """Images of the subfield difference basis inside (I_S)^H, in Z[S] coordinates.

    The subfield places are the H-orbits O_1..O_t; the basis vector p_1 - p_j
    maps to f_1·(sum of O_1) - f_j·(sum of O_j), which has augmentation zero
    by the orbit-stabilizer identity.
    """
    model = sunit.model
    rd = residue_degrees(model, h)
    s = model.action.size
    t = len(rd.orbits)
    cols = []
    for j in range(1, t):
        col = [0] * s
        for q in rd.orbits[0]:
            col[q] += rd.degrees[0]
        for q in rd.orbits[j]:
            col[q] -= rd.degrees[j]
        cols.append(tuple(col))
    return IntMatrix.from_columns(cols, rows=s)


class SUnitIndexCheck(NamedTuple):
    index: Fraction
    expected: Fraction
    ok: bool


def verify_sunit_index(sunit, h):
    """Compare [(I_S)^H : subfield image] with n(H)/l(H), both in Z[S] (the basis is injective)."""
    h = _subgroup(sunit.model.group, h)
    rd = residue_degrees(sunit.model, h)
    fixed = sunit.basis @ fixed_sublattice(sunit.lattice, h)
    try:
        index = Fraction(lattice_index(subfield_lattice_embedding(sunit, h), fixed))
    except ExactLinAlgError as exc:
        raise ArithmeticModelError("subfield image is not of finite index in (I_S)^H") from exc
    expected = Fraction(rd.n, rd.l)
    return SUnitIndexCheck(index=index, expected=expected, ok=index == expected)


class ClosedFormCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    ok: bool


def verify_sunit_closed_form(sunit, theta):
    """Check C_Θ(I_S) against the trivial/permutation constants with the l/n correction.

    The left side uses the pairing that makes the canonical basis of Z[S]
    orthonormal, restricted to I_S; the right side is
    C_Θ(triv) / ∏_i C_Θ(Z[G/D_i]) · ∏_H (l(H)/n(H))^{2 n_H}.
    """
    group = sunit.model.group
    lhs = regulator_constant(theta, sunit.lattice, sunit.pairing)
    rhs = regulator_constant(theta, trivial_lattice(group))
    for d in sunit.model.decomposition_groups:
        rhs /= regulator_constant(theta, induced_lattice(group, d))
    table = all_subgroups(group)
    rds = {ci: residue_degrees(sunit.model, table[ci].representative) for ci, _ in theta.support()}
    rhs *= _evaluate(theta, {ci: Fraction(rd.l, rd.n) for ci, rd in rds.items()}) ** 2
    return ClosedFormCheck(lhs=lhs, rhs=rhs, ok=lhs == rhs)


def kgroup_comparison_module(group, d_real, s2_count, parity):
    """Comparison lattice for the K-group identity.

    Odd parity: direct sum of Z[G/D] over the real-place stabilizers (order
    at most 2) plus s2 copies of Z[G]. Even parity: each D must have order
    exactly 2 and contributes the induced sign lattice Ind_D(ε) instead.
    """
    if parity not in ("odd", "even"):
        raise ModuleError("parity must be 'odd' or 'even'")
    if s2_count < 0:
        raise ModuleError("s2_count must be non-negative")
    ds = [_subgroup(group, d) for d in d_real]
    summands = []
    for d in ds:
        if parity == "even":
            if d.order != 2:
                raise ModuleError("even-parity decomposition groups must have order exactly 2")
            summands.append(induced_lattice(group, d, group.trivial_subgroup()))
        else:
            if d.order > 2:
                raise ModuleError("odd-parity decomposition groups must have order at most 2")
            summands.append(induced_lattice(group, d))
    for _ in range(s2_count):
        summands.append(regular_lattice(group))
    if not summands:
        return zero_lattice(group)
    return direct_sum(*summands)


class KGroupCheck(NamedTuple):
    constants: tuple
    ok: bool


def verify_kgroup_triviality(module, basis):
    """All regulator constants of a comparison module must be exactly 1."""
    constants = regulator_constants_table(basis, module)
    return KGroupCheck(constants=constants, ok=all(c == 1 for c in constants))
