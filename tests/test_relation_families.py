"""Closed-form Brauer relations, and the primes in regulator constants.

For p an odd prime, K(D_2p) is spanned by {1} − 2·C2 − Cp + 2·G, and
K(Cp × Cp) by {1} − Σ(the p + 1 subgroups of order p) + p·G. Q8 and
Dic3 = C3 ⋊ C4 carry the relations of V4 and S3, inflated through their
centre of order 2. In each of these groups the subgroup order fixes the
coefficient, so each closed form is a map from subgroup orders to coefficients.

Every C_Θ(M) is a product of powers of primes that divide |G| (Dokchitser &
Dokchitser, Regulator constants and the parity conjecture, Invent. Math.
178 (2009), §2). D5 and D7 are the first tested groups whose constants
involve a prime ≥ 5.
"""

import math

import pytest

from factoreq import (
    all_subgroups,
    brauer_relation_basis,
    corpus_names,
    coset_action,
    group_from_generators,
    permutation_lattice,
    regulator_constants_table,
)

from test_grp import _group


def _dihedral(p):
    return group_from_generators([[(i + 1) % p for i in range(p)], [-i % p for i in range(p)]])


# The groups beyond the corpus and the ladder; Dic3 is C3 ⋊ C4.
NEW_GROUPS = {
    "D5": lambda: _dihedral(5),
    "D7": lambda: _dihedral(7),
    "C3xC3": lambda: group_from_generators([[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]),
    "Dic3": lambda: group_from_generators([[1, 2, 0, 3, 4, 5, 6], [0, 2, 1, 4, 5, 6, 3]]),
}


def _build(name):
    return NEW_GROUPS[name]() if name in NEW_GROUPS else _group(name)

# Coefficient of each subgroup class by the order of the subgroup, and the
# basis vector that gives in `all_subgroups` order.
CLOSED_FORMS = {
    "D5": ({1: 1, 2: -2, 5: -1, 10: 2}, (1, -2, -1, 2)),
    "D7": ({1: 1, 2: -2, 7: -1, 14: 2}, (1, -2, -1, 2)),
    "C3xC3": ({1: 1, 3: -1, 9: 3}, (1, -1, -1, -1, -1, 3)),
    # S3's {1} − 2·C2 − C3 + 2·S3 on the subgroups that contain the centre.
    "Dic3": ({1: 0, 2: 1, 3: 0, 4: -2, 6: -1, 12: 2}, (0, 1, 0, -2, -1, 2)),
    # V4's {1} − Σ C2 + 2·V4 on the subgroups that contain the centre.
    "Q8": ({1: 0, 2: 1, 4: -1, 8: 2}, (0, 1, -1, -1, -1, 2)),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_brauer_basis_is_the_closed_form(name):
    group, (by_order, vector) = _build(name), CLOSED_FORMS[name]
    assert tuple(by_order[cls.order] for cls in all_subgroups(group)) == vector
    assert [theta.coeffs for theta in brauer_relation_basis(group)] == [vector]


def _only_primes_of(n, order):
    """True iff every prime factor of the positive integer n divides `order`."""
    while (g := math.gcd(n, order)) > 1:
        n //= g
    return n == 1


def test_prime_check_sees_a_foreign_prime():
    assert _only_primes_of(1, 10) and _only_primes_of(2**5 * 5**3, 10)
    assert not _only_primes_of(3, 10) and not _only_primes_of(2 * 7, 10)


@pytest.mark.parametrize("name", tuple(NEW_GROUPS) + corpus_names() + ("A4", "D8", "S4"))
def test_coset_lattice_constants_have_only_primes_of_the_group_order(name):
    group = _build(name)
    basis = brauer_relation_basis(group)
    for cls in all_subgroups(group):
        lattice = permutation_lattice(group, coset_action(group, cls.representative))
        for c in regulator_constants_table(basis, lattice):
            assert c > 0
            assert _only_primes_of(c.numerator, group.order), (name, cls.order, c)
            assert _only_primes_of(c.denominator, group.order), (name, cls.order, c)
