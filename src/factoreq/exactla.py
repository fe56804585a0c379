"""Exact linear algebra over Z.

Matrices hold arbitrary-precision Python ints and every elimination is
integer-only: Smith normal form (kernels, solves, invariant factors), row
Hermite form (lattice bases) and Bareiss (determinants). Fractions appear only
in results, such as a scaled Gram determinant or a rational solution read off
an integer one. No floating point is used anywhere, so all equalities
downstream are exact.
"""

from fractions import Fraction
from itertools import repeat
from operator import add, index as _as_int, mul, neg, sub


class ExactLinAlgError(ValueError):
    """Raised when a lattice/matrix precondition is violated."""


class IntMatrix:
    """Immutable dense integer matrix.

    Rows and columns may be zero; the empty 0x0 matrix has determinant 1.
    """

    __slots__ = ("rows", "cols", "_data", "_hash")

    def __init__(self, data, cols=None):
        data = tuple(tuple(_as_int(x) for x in row) for row in data)
        if data:
            ncols = len(data[0])
            if any(len(row) != ncols for row in data):
                raise ExactLinAlgError("ragged rows")
            if cols is not None and cols != ncols:
                raise ExactLinAlgError("cols mismatch")
        else:
            if cols is None:
                raise ExactLinAlgError("empty matrix needs explicit cols")
            ncols = cols
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, data, cols):
        """Wrap a tuple of equal-length tuples of ints without coercion.

        Only for rows the library built itself from ints; anything read from
        outside goes through the coercing constructor.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_data", data)
        object.__setattr__(m, "_hash", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zeros(cls, rows, cols):
        return cls(((0,) * cols for _ in range(rows)), cols=cols)

    @classmethod
    def identity(cls, n):
        return cls(
            (tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
            cols=n,
        )

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [tuple(col) for col in columns]
        if columns:
            return cls(zip(*columns), cols=len(columns)) if columns[0] else cls(
                [], cols=len(columns)
            )
        if rows is None:
            raise ExactLinAlgError("empty column list needs explicit rows")
        return cls(((),) * rows if rows else [], cols=0)

    def __getitem__(self, pos):
        i, j = pos
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(r[j] for r in self._data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def tolist(self):
        return [list(r) for r in self._data]

    def transpose(self):
        if self.rows == 0 or self.cols == 0:
            return IntMatrix.zeros(self.cols, self.rows)
        return IntMatrix._trusted(tuple(zip(*self._data)), self.rows)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ExactLinAlgError("row count mismatch in hstack")
        return IntMatrix(
            (a + b for a, b in zip(self._data, other._data)),
            cols=self.cols + other.cols,
        ) if self.rows else IntMatrix([], cols=self.cols + other.cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self._data))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactLinAlgError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(map(add, r, s)) for r, s in zip(self._data, other._data)),
            self.cols,
        )

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactLinAlgError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(map(sub, r, s)) for r, s in zip(self._data, other._data)),
            self.cols,
        )

    def __neg__(self):
        return IntMatrix._trusted(tuple(tuple(map(neg, r)) for r in self._data), self.cols)

    def __mul__(self, scalar):
        c = _as_int(scalar)
        return IntMatrix((tuple(c * x for x in r) for r in self._data), cols=self.cols)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product as row combinations: row i of A·B is Σ_j a_ij·(row j of B).

        Zero entries of the left factor are skipped, so products with
        permutation actions and fixed-point bases cost about their nonzeros.
        """
        if self.cols != other.rows:
            raise ExactLinAlgError("shape mismatch in product")
        zero = (0,) * other.cols
        out = []
        for row in self._data:
            acc = zero
            for x, brow in zip(row, other._data):
                if not x:
                    continue
                if acc is zero:
                    acc = brow if x == 1 else tuple(map(mul, brow, repeat(x)))
                elif x == 1:
                    acc = tuple(map(add, acc, brow))
                elif x == -1:
                    acc = tuple(map(sub, acc, brow))
                else:
                    acc = tuple(map(add, acc, map(mul, brow, repeat(x))))
            out.append(acc)
        return IntMatrix._trusted(tuple(out), other.cols)

    def apply(self, vector):
        """Matrix-vector product; `vector` is a length-`cols` sequence."""
        vector = tuple(vector)
        if len(vector) != self.cols:
            raise ExactLinAlgError("vector length mismatch")
        return tuple(sum(x * y for x, y in zip(row, vector)) for row in self._data)

    def is_zero(self):
        return all(x == 0 for r in self._data for x in r)

    def __repr__(self):
        return f"IntMatrix({self.tolist()!r})"


def _snf_engine(a, want_u, want_v):
    """Diagonalize by unimodular row/column operations.

    Returns (u_rows, diag_matrix, v_rows) where the tracked transforms satisfy
    U @ A @ V == D. Pivoting is on minimal absolute value; after each pivot is
    isolated a divisibility sweep folds any violating entry back in, so the
    final diagonal is a divisor chain d1 | d2 | ... with di >= 0.
    """
    m, n = a.rows, a.cols
    d = [list(r) for r in a._data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_u else None
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_v else None

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        if u is not None:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        for row in d:
            row[i] += c * row[j]
        if v is not None:
            for row in v:
                row[i] += c * row[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    for t in range(min(m, n)):
        # Find the minimal-absolute-value nonzero entry of the trailing block.
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break  # nothing later is smaller
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            # Clear column t; any nonzero remainder becomes a smaller pivot.
            smaller = None
            for i in range(m):
                if i != t and d[i][t]:
                    add_row(i, t, -(d[i][t] // p))
                    if d[i][t]:
                        smaller = i
            if smaller is not None:
                swap_rows(t, smaller)
                continue
            # Clear row t (column ops touch only row t now).
            smaller = None
            for j in range(n):
                if j != t and d[t][j]:
                    add_col(j, t, -(d[t][j] // p))
                    if d[t][j]:
                        smaller = j
            if smaller is not None:
                swap_cols(t, smaller)
                continue
            # Divisibility sweep over the untouched block; a unit pivot divides all.
            viol = None
            if p != 1:
                viol = next(
                    (i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1:])),
                    None,
                )
            if viol is None:
                break
            add_row(t, viol, 1)
    diag = IntMatrix._trusted(tuple(map(tuple, d)), n)
    return u, diag, v


def smith_normal_form(a):
    """Smith normal form with transforms.

    Returns (U, D, V) with U (rows x rows) and V (cols x cols) unimodular,
    U @ A @ V == D diagonal, diagonal entries nonnegative and each dividing
    the next.
    """
    u, d, v = _snf_engine(a, want_u=True, want_v=True)
    return (
        IntMatrix._trusted(tuple(map(tuple, u)), a.rows),
        d,
        IntMatrix._trusted(tuple(map(tuple, v)), a.cols),
    )


def invariant_factors(a):
    """Nonzero diagonal of the Smith form, as a tuple d1 | d2 | ..."""
    _, d, _ = _snf_engine(a, want_u=False, want_v=False)
    return tuple(d[i, i] for i in range(min(a.rows, a.cols)) if d[i, i])


def rank(a):
    return len(invariant_factors(a))


def integer_kernel(a):
    """Basis of {x in Z^cols : A x = 0} as matrix columns.

    The returned basis spans a saturated sublattice: any integer kernel vector
    is an integer combination of the columns.
    """
    _, d, v = _snf_engine(a, want_u=False, want_v=True)
    r = sum(1 for i in range(min(a.rows, a.cols)) if d[i, i])
    return IntMatrix._trusted(tuple(tuple(row[r:]) for row in v), a.cols - r)


def _bareiss_pivots(a):
    """Fraction-free (Bareiss) elimination of a square matrix, one pivot per step.

    Yields (pivot, swapped) for k = 0, 1, ...: a zero pivot is first replaced
    by swapping in a later row, and a pivot that stays zero (the matrix is
    singular) ends the run. While no row has been swapped, pivot k is the
    leading principal minor of order k + 1; the last pivot is ± det(A).
    """
    n = a.rows
    m = [list(r) for r in a._data]
    prev = 1
    for k in range(n):
        swapped = False
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                yield 0, False
                return
            m[k], m[pivot] = m[pivot], m[k]
            swapped = True
        p, mk = m[k][k], m[k]
        yield p, swapped
        for i in range(k + 1, n):
            mi = m[i]
            c = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * p - c * mk[j]) // prev
        prev = p


def determinant(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ExactLinAlgError("determinant of non-square matrix")
    sign, last = 1, 1
    for last, swapped in _bareiss_pivots(a):
        if swapped:
            sign = -sign
    return sign * last


def is_positive_definite(a):
    """Sylvester test: all leading principal minors positive.

    A swap means a leading minor was zero, so it fails the test as well.
    """
    if a.rows != a.cols:
        return False
    return all(p > 0 and not swapped for p, swapped in _bareiss_pivots(a))


class ImageSolver:
    """Repeated solving of A x = b over Z against a fixed A.

    Factors A once (U A V = D) and answers membership of columns in the
    integer column span.
    """

    def __init__(self, a):
        self.a = a
        u, d, v = smith_normal_form(a)
        self._u, self._v = u, v
        self.factors = tuple(d[i, i] for i in range(min(a.rows, a.cols)) if d[i, i])
        self.rank = len(self.factors)

    def solve(self, b):
        """Integer X with A X = B, or None if no integral solution exists.

        With y = V⁻¹X the system reads D y = U B: row i < rank needs d_i to
        divide it, every later row of U B must vanish, and free coordinates
        of y are set to zero.
        """
        if b.rows != self.a.rows:
            raise ExactLinAlgError("right-hand side row count mismatch")
        c = (self._u @ b)._data
        if any(any(row) for row in c[self.rank:]):
            return None
        y = []
        for row, di in zip(c, self.factors):
            if di != 1:
                if any(x % di for x in row):
                    return None
                row = tuple(x // di for x in row)
            y.append(row)
        y.extend(repeat((0,) * b.cols, self.a.cols - self.rank))
        return self._v @ IntMatrix._trusted(tuple(y), b.cols)


def integer_solve(a, b):
    """Integer solution X of A X = B, or None."""
    return ImageSolver(a).solve(b)


def rational_solve(a, b):
    """One solution of A X = B over Q as rows of Fractions; None if inconsistent.

    Every invariant factor divides the last one, d, so A Y = d·B is solvable
    over Z exactly when A X = B is solvable over Q, and X = Y / d.
    """
    solver = ImageSolver(a)
    d = solver.factors[-1] if solver.factors else 1
    y = solver.solve(b * d)
    return None if y is None else [[Fraction(x, d) for x in row] for row in y.tolist()]


def invert_unimodular(u):
    """Inverse of a square matrix with determinant +-1, over Z."""
    if u.rows != u.cols:
        raise ExactLinAlgError("matrix is not square")
    inv = integer_solve(u, IntMatrix.identity(u.rows))
    if inv is None:
        raise ExactLinAlgError("matrix is not unimodular")
    return inv


def column_lattice_basis(a):
    """Canonical basis (as matrix columns) of the lattice spanned by A's columns.

    Computed as the row Hermite form of the transpose; the result has full
    column rank and spans exactly the integer column span of A.
    """
    rows = [list(r) for r in a.transpose()._data]
    m = len(rows)
    n = a.rows
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if rows[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            rows[r], rows[i0] = rows[i0], rows[r]
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            clean = True
            for i in range(r + 1, m):
                if rows[i][c]:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c]:
                        clean = False
            if clean:
                break
        if rows[r][c]:
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
            r += 1
    return IntMatrix.from_columns([tuple(rows[i]) for i in range(r)], rows=n)


def lattice_index(sub, sup):
    """Index [L_sup : L_sub] of one lattice in another, given by basis columns.

    Both arguments are matrices whose columns span the respective lattices
    inside a common ambient Z^n. Requires equal rational column spans (else
    the index is infinite) and integral containment of sub in sup.
    """
    if sub.rows != sup.rows:
        raise ExactLinAlgError("lattices live in different ambient spaces")
    sb = column_lattice_basis(sub)
    pb = column_lattice_basis(sup)
    if sb.cols != pb.cols:
        raise ExactLinAlgError("infinite index: ranks differ")
    if pb.cols == 0:
        return 1
    # Both bases have full column rank t, so the t x t coordinates of sub in
    # sup are unique and nonsingular; they exist iff sub lies in sup.
    coords = integer_solve(pb, sb)
    if coords is None:
        raise ExactLinAlgError("not a sublattice: spans differ or sub is not contained")
    return abs(determinant(coords))


def gram_determinant(pairing, basis, scale=1):
    """det(scale * B^T P B) as an exact Fraction.

    `pairing` is a symmetric integer matrix on the ambient space, `basis` a
    matrix whose columns are the vectors to pair, `scale` a rational applied
    entrywise to the Gram matrix before taking the determinant.
    """
    if pairing.rows != pairing.cols:
        raise ExactLinAlgError("pairing matrix must be square")
    if pairing != pairing.transpose():
        raise ExactLinAlgError("pairing matrix must be symmetric")
    if basis.rows != pairing.rows:
        raise ExactLinAlgError("basis/pairing dimension mismatch")
    g = basis.transpose() @ pairing @ basis
    return Fraction(scale) ** g.rows * determinant(g)
