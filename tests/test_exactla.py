"""Exact integer/rational linear algebra: frozen oracles and invariants.

Frozen values are computed independently (by hand or with sympy) and pinned;
the property tests check the algebraic contracts on small fixed inputs.
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from factoreq import (
    ExactLinAlgError,
    ImageSolver,
    IntMatrix,
    column_lattice_basis,
    determinant,
    gram_determinant,
    integer_kernel,
    integer_solve,
    invariant_factors,
    invert_unimodular,
    is_positive_definite,
    lattice_index,
    rank,
    rational_solve,
    smith_normal_form,
)


def _as_sympy(m):
    """Shape-preserving sympy copy (also for 0-row and 0-column matrices)."""
    return sympy.Matrix(m.rows, m.cols, [x for i in range(m.rows) for x in m.row(i)])


# --- Smith normal form -------------------------------------------------------

SNF_CASES = [
    # (matrix, invariant factors): diag(2,3) has factors 1, 6 -- not 2, 3.
    ([[2, 0], [0, 3]], (1, 6)),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 1, 1)),
    ([[0]], ()),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], (2, 6, 12)),  # classic textbook case
    ([[1, 2], [3, 4]], (1, 2)),
    ([[6, 0], [0, 10]], (2, 30)),
]


@pytest.mark.parametrize("data,factors", SNF_CASES)
def test_invariant_factors_frozen(data, factors):
    assert invariant_factors(IntMatrix(data)) == factors


@pytest.mark.parametrize("data,factors", SNF_CASES)
def test_invariant_factors_match_sympy(data, factors):
    m = _as_sympy(IntMatrix(data))
    sm = sympy_snf(m)
    got = tuple(abs(sm[i, i]) for i in range(min(sm.rows, sm.cols)) if sm[i, i])
    assert got == factors


@pytest.mark.parametrize(
    "data",
    [
        [[2, 0], [0, 3]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[1, 2, 3], [4, 5, 6]],
        [[0, 0], [0, 0]],
        [[7]],
    ],
)
def test_smith_transform_contract(data):
    a = IntMatrix(data)
    u, d, v = smith_normal_form(a)
    assert u @ a @ v == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x == 0 or y % x == 0


def test_rank():
    assert rank(IntMatrix([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix([[0, 0], [0, 0]])) == 0
    assert rank(IntMatrix.identity(4)) == 4


# --- kernels -----------------------------------------------------------------


def test_kernel_of_row_vector():
    k = integer_kernel(IntMatrix([[1, 1]]))
    assert k.cols == 1
    col = tuple(k.column(0))
    assert col in ((1, -1), (-1, 1))


def test_kernel_of_invertible_is_empty():
    k = integer_kernel(IntMatrix([[2, 1], [1, 1]]))
    assert k.cols == 0


def test_kernel_of_zero_map_is_everything():
    k = integer_kernel(IntMatrix.zeros(1, 2))
    assert k.cols == 2
    assert lattice_index(k, IntMatrix.identity(2)) == 1


def test_kernel_is_saturated():
    # [3, 6] kills (2, -1), not only (6, -3); saturated kernels have unit factors.
    k = integer_kernel(IntMatrix([[3, 6]]))
    assert k.cols == 1
    assert invariant_factors(k) == (1,)
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [2, 4, 4]])
    kk = integer_kernel(a)
    assert (a @ kk).is_zero()
    if kk.cols:
        assert all(f == 1 for f in invariant_factors(kk))


# --- determinants and definiteness --------------------------------------------


def test_determinant_frozen():
    assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(IntMatrix([[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == 5
    assert determinant(IntMatrix.zeros(0, 0)) == 1  # empty product convention
    with pytest.raises(ExactLinAlgError):
        determinant(IntMatrix([[1, 2]]))


def test_determinant_matches_sympy():
    data = [[3, -1, 2, 0], [1, 4, -2, 5], [0, 2, 2, 1], [-3, 1, 0, 2]]
    assert determinant(IntMatrix(data)) == _as_sympy(IntMatrix(data)).det()


def test_positive_definite():
    assert is_positive_definite(IntMatrix([[2, 1], [1, 2]]))
    assert not is_positive_definite(IntMatrix([[1, 2], [2, 1]]))
    assert not is_positive_definite(IntMatrix([[0]]))
    assert not is_positive_definite(IntMatrix([[1, 0]]))
    assert is_positive_definite(IntMatrix.zeros(0, 0))


# --- solving -----------------------------------------------------------------


def test_rational_solve():
    a = IntMatrix([[2, 0], [0, 2]])
    sol = rational_solve(a, IntMatrix([[1], [3]]))
    assert sol == [[Fraction(1, 2)], [Fraction(3, 2)]]
    assert rational_solve(IntMatrix([[1], [1]]), IntMatrix([[0], [1]])) is None


def test_rational_solve_underdetermined_is_consistent():
    a = IntMatrix([[1, 1]])
    sol = rational_solve(a, IntMatrix([[5]]))
    x = [row[0] for row in sol]
    assert x[0] + x[1] == 5


def test_integer_solve():
    a = IntMatrix([[2, 0], [0, 3]])
    sol = integer_solve(a, IntMatrix([[4], [9]]))
    assert a @ sol == IntMatrix([[4], [9]])
    assert integer_solve(a, IntMatrix([[1], [0]])) is None


def test_image_solver_agrees_with_integer_solve():
    a = IntMatrix([[2, 4], [0, 6]])
    solver = ImageSolver(a)
    for b in ([[2], [6]], [[6], [6]], [[1], [0]], [[4], [12]]):
        bm = IntMatrix(b)
        got = solver.solve(bm)
        direct = integer_solve(a, bm)
        assert (got is None) == (direct is None)
        if got is not None:
            assert a @ got == bm


def test_invert_unimodular():
    u = IntMatrix([[1, 1], [1, 2]])
    assert u @ invert_unimodular(u) == IntMatrix.identity(2)
    with pytest.raises(ExactLinAlgError):
        invert_unimodular(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ExactLinAlgError):
        invert_unimodular(IntMatrix([[1, 0]]))  # has a right inverse, but is not square


# --- lattice indexes ----------------------------------------------------------


def test_lattice_index_frozen():
    i2 = IntMatrix.identity(2)
    assert lattice_index(i2 * 3, i2) == 9
    assert lattice_index(i2, i2) == 1
    assert lattice_index(IntMatrix.from_columns([(2, 0), (1, 1)]), i2) == 2
    assert lattice_index(IntMatrix.zeros(3, 0), IntMatrix.zeros(3, 0)) == 1


def test_lattice_index_multiplicative_in_towers():
    i2 = IntMatrix.identity(2)
    mid = IntMatrix.from_columns([(2, 0), (0, 1)])
    low = IntMatrix.from_columns([(2, 0), (0, 3)])
    assert lattice_index(low, i2) == lattice_index(low, mid) * lattice_index(mid, i2)


def test_lattice_index_errors():
    i2 = IntMatrix.identity(2)
    with pytest.raises(ExactLinAlgError):
        lattice_index(IntMatrix.from_columns([(1, 0)]), i2)  # ranks differ
    with pytest.raises(ExactLinAlgError):
        lattice_index(i2, IntMatrix.from_columns([(2, 0), (0, 2)]))  # not contained
    with pytest.raises(ExactLinAlgError):
        lattice_index(i2, IntMatrix.identity(3))


def test_index_equals_product_of_invariant_factors():
    sub = IntMatrix([[2, 1], [0, 3]])
    prod = 1
    for f in invariant_factors(sub):
        prod *= f
    assert lattice_index(sub, IntMatrix.identity(2)) == prod == 6


def test_column_lattice_basis_spans_same_lattice():
    a = IntMatrix.from_columns([(2, 0), (4, 0), (0, 6), (2, 6)])
    b = column_lattice_basis(a)
    assert b.cols == 2
    assert lattice_index(a.hstack(b), b) == 1  # b contains every column of a
    assert lattice_index(b, a.hstack(b)) == 1  # and vice versa


# --- gram determinants ----------------------------------------------------------


def test_gram_determinant_frozen():
    i2 = IntMatrix.identity(2)
    assert gram_determinant(i2, i2) == 1
    assert gram_determinant(IntMatrix([[2]]), IntMatrix([[1]]), Fraction(1, 2)) == 1
    basis = IntMatrix.from_columns([(1, 0), (1, 2)])
    assert gram_determinant(i2, basis) == 4  # det [[1,1],[1,5]]
    assert gram_determinant(i2, IntMatrix.zeros(2, 0)) == 1


def test_gram_determinant_scale_exponent():
    # scaling by c multiplies the determinant by c^rank
    basis = IntMatrix.from_columns([(1, 0), (0, 1)])
    p = IntMatrix([[2, 1], [1, 3]])
    assert gram_determinant(p, basis, 2) == 4 * gram_determinant(p, basis)


def test_gram_determinant_unimodular_invariance():
    p = IntMatrix([[2, 1], [1, 3]])
    basis = IntMatrix.from_columns([(1, 2), (0, 1)])
    u = IntMatrix([[1, 1], [1, 2]])
    assert gram_determinant(p, basis @ u) == gram_determinant(p, basis)


def test_gram_determinant_validation():
    with pytest.raises(ExactLinAlgError):
        gram_determinant(IntMatrix([[1, 2], [0, 1]]), IntMatrix.identity(2))
    with pytest.raises(ExactLinAlgError):
        gram_determinant(IntMatrix.identity(2), IntMatrix.identity(3))


# --- IntMatrix plumbing ---------------------------------------------------------


def test_intmatrix_arithmetic():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert a + b == IntMatrix([[1, 3], [4, 4]])
    assert a - a == IntMatrix.zeros(2, 2)
    assert (-a) * -1 == a
    assert a @ b == IntMatrix([[2, 1], [4, 3]])
    assert a.transpose().transpose() == a
    assert a.apply((1, 0)) == (1, 3)


def test_intmatrix_stacking_and_columns():
    a = IntMatrix([[1, 2]])
    assert a.hstack(IntMatrix([[9]])) == IntMatrix([[1, 2, 9]])
    m = IntMatrix.from_columns([(1, 0), (2, 5)])
    assert m.column(1) == (2, 5)
    assert m.tolist() == [[1, 2], [0, 5]]
    assert IntMatrix.from_columns([], rows=3).cols == 0


def test_intmatrix_is_immutable():
    a = IntMatrix([[1]])
    with pytest.raises(AttributeError):
        a.rows = 2


# --- products and sums against a naive triple loop ---------------------------------


def _naive_product(a, b, n):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(n)] for i in range(len(a))]


def _random_rows(rng, rows, cols):
    """Mostly small entries and zeros, some negative, some above 2**64."""

    def entry():
        r = rng.random()
        if r < 0.4:
            return 0
        if r < 0.9:
            return rng.randint(-3, 3)
        return rng.choice((-1, 1)) * rng.randrange(2**64, 2**70)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _from_rows(rows, cols):
    return IntMatrix(rows, cols=cols) if rows else IntMatrix.zeros(0, cols)


SHAPES = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1), (4, 5, 3), (6, 6, 6), (3, 7, 9)]


@pytest.mark.parametrize("m,k,n", SHAPES)
def test_arithmetic_matches_naive_loops(m, k, n):
    rng = random.Random(1000 * m + 100 * k + n)
    for _ in range(5):
        ra, rb, rc = _random_rows(rng, m, k), _random_rows(rng, k, n), _random_rows(rng, m, k)
        a, b, c = _from_rows(ra, k), _from_rows(rb, n), _from_rows(rc, k)
        prod = a @ b
        assert (prod.rows, prod.cols) == (m, n)
        assert prod == _from_rows(_naive_product(ra, rb, n), n)
        assert a + c == _from_rows([[x + y for x, y in zip(r, s)] for r, s in zip(ra, rc)], k)
        assert a - c == _from_rows([[x - y for x, y in zip(r, s)] for r, s in zip(ra, rc)], k)
        assert -a == _from_rows([[-x for x in r] for r in ra], k)
        t = a.transpose()
        assert (t.rows, t.cols) == (k, m)
        assert t == _from_rows([[ra[i][j] for i in range(m)] for j in range(k)], m)


def test_built_and_coerced_matrices_compare_and_hash_alike():
    rng = random.Random(7)
    a = IntMatrix(_random_rows(rng, 4, 4))
    b = IntMatrix(_random_rows(rng, 4, 4))
    for built in (a @ b, a + b, a - b, -a, a.transpose(), smith_normal_form(a)[1]):
        coerced = IntMatrix(built.tolist(), cols=built.cols)
        assert built == coerced and coerced == built
        assert hash(built) == hash(coerced)
        assert len({built, coerced}) == 1


# --- the solve layer against sympy ----------------------------------------------


def _random_system(rng, m, n, k):
    """A (m x n), about half the time of deficient rank, and an integer X0 (n x k)."""
    if m and n and rng.random() < 0.5:
        r = rng.randrange(min(m, n))  # A = L R through r < min(m, n) columns
        a = _from_rows(_random_rows(rng, m, r), r) @ _from_rows(_random_rows(rng, r, n), n)
    else:
        a = _from_rows(_random_rows(rng, m, n), n)
    return a, _from_rows(_random_rows(rng, n, k), k)


# (rows of A, columns of A, columns of B)
SOLVE_SHAPES = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 1), (1, 1, 1), (3, 3, 2), (5, 3, 2), (3, 5, 2), (5, 5, 1)]


@pytest.mark.parametrize("m,n,k", SOLVE_SHAPES)
def test_solves_match_sympy(m, n, k):
    rng = random.Random(1000 * m + 100 * n + k)
    for _ in range(6):
        a, x0 = _random_system(rng, m, n, k)
        solver = ImageSolver(a)
        assert solver.rank == _as_sympy(a).rank()
        # A right-hand side in the integer image is always solved.
        b = a @ x0
        x = integer_solve(a, b)
        assert x is not None and a @ x == b
        # Random right-hand sides, and ones solvable over Q but maybe not over Z.
        for lhs, rhs in ((a, _from_rows(_random_rows(rng, m, k), k)), (a * 2, b), (a * 3, b)):
            x = integer_solve(lhs, rhs)
            if x is not None:
                assert lhs @ x == rhs
            q = rational_solve(lhs, rhs)
            inconsistent = _as_sympy(lhs.hstack(rhs)).rank() > _as_sympy(lhs).rank()
            assert (q is None) == inconsistent
            if q is not None:
                assert len(q) == n and all(len(row) == k for row in q)
                assert all(
                    sum(lhs[i, l] * q[l][j] for l in range(n)) == rhs[i, j]
                    for i in range(m)
                    for j in range(k)
                )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_lattice_index_matches_sympy_determinant(n):
    rng = random.Random(n)
    done = 0
    while done < 6:
        sup = _from_rows(_random_rows(rng, n, n), n)
        coords = _from_rows(_random_rows(rng, n, n), n)
        det = _as_sympy(coords).det()
        if _as_sympy(sup).det() == 0 or det == 0:
            continue
        assert lattice_index(sup @ coords, sup) == abs(det)
        done += 1


# --- Bareiss pivots against sympy -------------------------------------------------


def _random_symmetric(rng, n, kind):
    """Symmetric n x n matrix of the given kind, entries sometimes above 2**64.

    "gram" is Bᵀ B for a tall B (positive definite when B has full column
    rank), "psd" is Bᵀ B for a short B (singular, positive semidefinite),
    "indefinite" is a Gram matrix with a positive (1,1) entry and a negative
    last diagonal entry, "any" is symmetric with random entries.
    """
    if kind == "any":
        rows = _random_rows(rng, n, n)
        return _from_rows([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)], n)
    tall = kind != "psd"
    rows = _random_rows(rng, n + 1 if tall else max(n - 1, 0), n)
    if rows and n:
        rows[0][0] = rows[0][0] or 1  # a nonzero first column keeps the (1,1) entry positive
    b = _from_rows(rows, n)
    gram = (b.transpose() @ b).tolist()
    if kind == "indefinite" and n > 1:
        gram[n - 1][n - 1] = -1 - abs(gram[n - 1][n - 1])
    return _from_rows(gram, n)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_bareiss_matches_sympy(n):
    rng = random.Random(500 + n)
    for kind in ("gram", "psd", "indefinite", "any"):
        for _ in range(5):
            a = _random_symmetric(rng, n, kind)
            s = _as_sympy(a)
            assert determinant(a) == s.det()
            assert is_positive_definite(a) == s.is_positive_definite
            if kind == "psd" and n:
                assert determinant(a) == 0 and not is_positive_definite(a)
            if kind == "indefinite" and n > 1:
                assert a[0, 0] > 0 and not is_positive_definite(a)
    # Non-symmetric matrices, many with zero pivots that force row swaps.
    for _ in range(10):
        a = _from_rows(_random_rows(rng, n, n), n)
        assert determinant(a) == _as_sympy(a).det()
