"""One action check on G's generators, against the definitions over all of G.

`zgmod._checked_action` tests ρ(1) ≡ I, ρ(s)·R ⊆ im R and ρ(a)ρ(s) ≡ ρ(as)
for the generators s only, and completes an action given on a generating set;
`regfe._validate_equivariant` and the invariance check of `InvariantPairing`
also run over the generators only. Each is compared here with its definition
over every element, or every pair of elements, on seeded random modules over
the corpus, A4 and S4, and on single-entry perturbations of them.

The references decide membership in im R without the library's solver: every
relation matrix drawn here has one nonzero entry per column, so im R is
⊕ d_i·Z e_i with d_i the gcd of row i.
"""

import math
import random

import pytest

from factoreq import (
    IntMatrix,
    InvariantPairing,
    ModuleError,
    PairingError,
    averaged_pairing,
    corpus_names,
    direct_sum,
    is_positive_definite,
    trivial_lattice,
)
from factoreq.grp import _generators
from factoreq.regfe import _validate_equivariant
from factoreq.suites import _index2_subgroups, _random_equivariant_endo, _random_module, _torsion_twist
from factoreq.zgmod import _checked_action
from test_zgmod import _group

GROUPS = corpus_names() + ("A4", "S4")


def _moduli(rel):
    """d_i with im R = ⊕ d_i·Z e_i; each column of R must have one nonzero entry."""
    assert all(sum(1 for x in col if x) == 1 for col in rel.transpose()._data)
    return [math.gcd(*row) for row in rel._data]


def _in_image(a, moduli):
    """Every column of `a` lies in ⊕ d_i·Z e_i (d_i = 0 asks for a zero entry)."""
    return all(x % d == 0 if d else x == 0 for row, d in zip(a._data, moduli) for x in row)


def _reference_is_action(group, action, rel):
    """ρ(1) ≡ I, ρ(g)·R ⊆ im R and ρ(g)ρ(h) ≡ ρ(gh) for every g and h, modulo im R."""
    moduli = _moduli(rel)
    if not _in_image(action[0] - IntMatrix.identity(rel.rows), moduli):
        return False
    for g in range(group.order):
        if not _in_image(action[g] @ rel, moduli):
            return False
        for h in range(group.order):
            if not _in_image(action[g] @ action[h] - action[group.table[g][h]], moduli):
                return False
    return True


def _accepts(call, error=ModuleError):
    try:
        call()
    except error:
        return False
    return True


def _modules(group, rng, count):
    """Random lattices, torsion twists Z^r ⊕ Z/k and twists plus a trivial summand."""
    kernels = [None] + _index2_subgroups(group)
    for i in range(count):
        lat = _random_module(group, rng, max_rank=6)
        if i % 3 == 0:
            yield lat
            continue
        twist = _torsion_twist(lat, rng.choice((2, 3, 4)), rng, kernels[rng.randrange(len(kernels))])
        yield twist if i % 3 == 1 else direct_sum(twist, trivial_lattice(group))


def _perturbed(mat, rng, moduli):
    """`mat` with one entry moved by ±1 or by ± its row's modulus (often still valid)."""
    i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
    delta = rng.choice((1, -1)) * (moduli[i] if moduli[i] and rng.randrange(2) else 1)
    rows = [list(r) for r in mat._data]
    rows[i][j] += delta
    return IntMatrix(rows, cols=mat.cols)


def _perturbed_action(action, rng, moduli):
    g = rng.randrange(len(action))
    return action[:g] + (_perturbed(action[g], rng, moduli),) + action[g + 1:]


def _completion(group, gens, given):
    """ρ(g) as the product of `given` along a word in `gens` for g, breadth first."""
    words, queue = {0: ()}, [0]
    for a in queue:
        for s in gens:
            b = group.table[a][s]
            if b not in words:
                words[b] = words[a] + (s,)
                queue.append(b)
    n = given[gens[0]].rows if gens else 0
    out = []
    for g in range(group.order):
        mat = IntMatrix.identity(n)
        for s in words[g]:
            mat = mat @ given[s]
        out.append(mat)
    return tuple(out)


@pytest.mark.parametrize("name", GROUPS)
def test_checked_action_agrees_with_the_all_pairs_definition(name):
    group = _group(name)
    rng = random.Random(f"all pairs {name}")
    gens = _generators(group)
    verdicts = []
    for m in _modules(group, rng, 6):
        assert _reference_is_action(group, m.action, m.relations)
        moduli = _moduli(m.relations)
        for action in (m.action,) + tuple(_perturbed_action(m.action, rng, moduli) for _ in range(4)):
            expected = _reference_is_action(group, action, m.relations)
            known = dict(enumerate(action))
            assert _accepts(lambda: _checked_action(group, known, gens, m.relations)) == expected
            if expected:
                assert _checked_action(group, known, gens, m.relations) == action
            verdicts.append(expected)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("name", GROUPS)
def test_relation_span_check_agrees_with_the_all_pairs_definition(name):
    """A lattice's exact action over Z^n / 2Z·e_i, a homomorphism that need not keep 2Z·e_i."""
    group = _group(name)
    rng = random.Random(f"relation span {name}")
    gens = _generators(group)
    verdicts = []
    for lat in (_random_module(group, rng, max_rank=6) for _ in range(6)):
        i = rng.randrange(lat.rank)
        rel = IntMatrix.from_columns([[2 * (k == i) for k in range(lat.rank)]], rows=lat.rank)
        expected = _reference_is_action(group, lat.action, rel)
        known = dict(enumerate(lat.action))
        assert _accepts(lambda: _checked_action(group, known, gens, rel)) == expected
        verdicts.append(expected)
    assert False in verdicts or group.order <= 2


@pytest.mark.parametrize("name", GROUPS)
def test_completion_from_generators_agrees_with_the_all_pairs_definition(name):
    """An action given on G's generators and one more element, as JSON input gives it.

    It extends to a G-action exactly when the products along words do and the
    extra entry agrees with them, modulo im R.
    """
    group = _group(name)
    rng = random.Random(f"completion {name}")
    gens = _generators(group)
    verdicts = []
    for m in _modules(group, rng, 6):
        moduli = _moduli(m.relations)
        for trial in range(4):
            extra = rng.randrange(group.order)
            given = {s: m.action[s] for s in gens + (extra,)}
            if trial:
                key = rng.choice(tuple(given))
                given[key] = _perturbed(given[key], rng, moduli)
            words = _completion(group, gens, given)
            expected = _reference_is_action(group, words, m.relations) and _in_image(
                given[extra] - words[extra], moduli
            )
            got = _accepts(lambda: _checked_action(group, given, tuple(given), m.relations))
            assert got == expected
            if expected:
                action = _checked_action(group, given, tuple(given), m.relations)
                assert all(_in_image(a - b, moduli) for a, b in zip(action, words))
            verdicts.append(expected)
    assert set(verdicts) == {True, False}


def _reference_is_equivariant(m, n, t):
    """T·R_M ⊆ im R_N and T·ρ_M(g) ≡ ρ_N(g)·T modulo im R_N for every g."""
    moduli = _moduli(n.relations)
    return _in_image(t @ m.relations, moduli) and all(
        _in_image(t @ m.action[g] - n.action[g] @ t, moduli) for g in range(m.group.order)
    )


def _maps(group, rng, count):
    """(M, N, T) with T equivariant: endomorphisms and projections of twists onto their lattice."""
    kernels = [None] + _index2_subgroups(group)
    for i in range(count):
        lat = _random_module(group, rng, max_rank=6)
        if i % 2 == 0:
            yield lat, lat, _random_equivariant_endo(lat, rng)
            continue
        twist = _torsion_twist(lat, rng.choice((2, 3, 9)), rng, kernels[rng.randrange(len(kernels))])
        proj = IntMatrix.identity(lat.rank).hstack(IntMatrix.zeros(lat.rank, 1))
        yield twist, lat, proj
        yield twist, twist, IntMatrix.identity(twist.gens)


@pytest.mark.parametrize("name", GROUPS)
def test_validate_equivariant_agrees_with_every_element(name):
    group = _group(name)
    rng = random.Random(f"equivariant {name}")
    verdicts = []
    for m, n, t in _maps(group, rng, 6):
        assert _reference_is_equivariant(m, n, t)
        moduli = _moduli(n.relations)
        for u in (t,) + tuple(_perturbed(t, rng, moduli) for _ in range(4)):
            expected = _reference_is_equivariant(m, n, u)
            got = _accepts(lambda: _validate_equivariant(m, n, u, m.relations, n.relations))
            assert got == expected
            verdicts.append(expected)
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("name", GROUPS)
def test_pairing_invariance_agrees_with_every_element(name):
    group = _group(name)
    rng = random.Random(f"pairing {name}")
    verdicts = []
    for lat in (_random_module(group, rng, max_rank=6) for _ in range(4)):
        gram = 2 * averaged_pairing(lat).gram
        for trial in range(4):
            if trial:
                i, j = rng.randrange(lat.rank), rng.randrange(lat.rank)
                rows = [list(r) for r in gram._data]
                rows[i][j] += 1
                rows[j][i] += 1 if i != j else 0
                gram = IntMatrix(rows, cols=lat.rank)
            if not is_positive_definite(gram):
                continue
            expected = all(a.transpose() @ gram @ a == gram for a in lat.action)
            assert _accepts(lambda: InvariantPairing(lat, gram), PairingError) == expected
            verdicts.append(expected)
    assert set(verdicts) == {True, False}
