"""Independent answers the harness checks the program's outputs against.

Nothing here goes through fixed sublattices or Gram determinants.  The
regulator constants of permutation lattices come from the closed form of
Dokchitser & Dokchitser (Regulator constants and the parity conjecture,
Invent. Math. 2009): the H-orbit sums form an orthogonal basis of
Z[G/K]^H, so

    C_Θ(Z[G/K]) = Π_H Π_{HgK} |H ∩ gKg⁻¹|^(−n_H),

and C_Θ is multiplicative in direct sums and unchanged by a change of basis.
"""

from fractions import Fraction

from factoreq import Subgroup, double_cosets, left_cosets

# Number of subgroup conjugacy classes and how many of them are cyclic.
# By Artin's induction theorem rank K(G) is their difference.
CLASS_COUNTS = {
    "C2": (2, 2), "C4": (3, 3), "C6": (4, 4), "V4": (5, 4), "S3": (4, 3),
    "D4": (8, 5), "Q8": (6, 5), "A4": (5, 3), "S4": (11, 5),
    "D8": (11, 6), "C2_4": (67, 16), "C2xS4": (33, 10),
}


def is_cyclic(group, elements):
    return any(group.element_order(g) == len(elements) for g in elements)


def is_subgroup(group, elements):
    s = set(elements)
    return 0 in s and all(group.table[a][b] in s for a in s for b in s)


def orbit_stabilizer_product(group, h, k):
    """Π over H-orbits on G/K of |H ∩ gKg⁻¹| (H, K as element tuples)."""
    out = 1
    for dc in double_cosets(group, Subgroup(group, h), Subgroup(group, k)):
        out *= dc.stabilizer_order
    return out


def closed_form_factors(group, reps, summands):
    """Per class H: the orbit-stabilizer product over every summand Z[G/K]."""
    factors = []
    for h in reps:
        f = 1
        for k in summands:
            f *= orbit_stabilizer_product(group, h, k)
        factors.append(f)
    return factors


def expected_constant(coeffs, factors):
    out = Fraction(1)
    for n, f in zip(coeffs, factors):
        out /= Fraction(f) ** n
    return out


def fixed_point_rows(group, reps):
    """Row per element g: the number of fixed points of g on each G/H."""
    actions = []
    for h in reps:
        cosets = left_cosets(group, Subgroup(group, h))
        coset_of = {}
        for i, coset in enumerate(cosets):
            for x in coset:
                coset_of[x] = i
        actions.append((cosets, coset_of))
    return [
        [sum(1 for i, c in enumerate(cosets) if coset_of[group.table[g][c[0]]] == i)
         for cosets, coset_of in actions]
        for g in range(group.order)
    ]


def is_brauer_relation(coeffs, fix_rows):
    return all(sum(n * f for n, f in zip(coeffs, row)) == 0 for row in fix_rows)


def full_rank(rows, p=(1 << 61) - 1):
    """True iff the integer rows are linearly independent.

    The rank mod a prime never exceeds the rank over Q, so full rank mod p
    proves independence.
    """
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        pr = [x * inv % p for x in m[rank]]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                q = m[i][c]
                m[i] = [(x - q * y) % p for x, y in zip(m[i], pr)]
        rank += 1
    return rank == len(m)


def check_class_table(name, group, classes):
    """classes: [(order, cyclic flag, representative elements)] as reported."""
    want_classes, want_cyclic = CLASS_COUNTS[name]
    if len(classes) != want_classes:
        return f"{name}: {len(classes)} subgroup classes, expected {want_classes}"
    for order, cyclic, rep in classes:
        if len(rep) != order or not is_subgroup(group, rep):
            return f"{name}: representative {rep} is not a subgroup of order {order}"
        if cyclic != is_cyclic(group, rep):
            return f"{name}: wrong cyclic flag on {rep}"
    if sum(1 for _, cyclic, _ in classes if cyclic) != want_cyclic:
        return f"{name}: expected {want_cyclic} cyclic classes"
    return None


def check_relation_basis(name, relations, fix_rows):
    """rank K(G) = #non-cyclic classes; each vector in K(G); independent."""
    want_classes, want_cyclic = CLASS_COUNTS[name]
    if len(relations) != want_classes - want_cyclic:
        return f"{name}: rank K(G) {len(relations)}, expected {want_classes - want_cyclic}"
    for coeffs in relations:
        if len(coeffs) != want_classes or not is_brauer_relation(coeffs, fix_rows):
            return f"{name}: {coeffs} is not a Brauer relation"
    if not full_rank(relations):
        return f"{name}: relation basis is not linearly independent"
    return None
