"""Exact linear algebra over Z.

Matrices hold arbitrary-precision Python ints and every elimination is
integer-only: row Hermite form (kernels, lattice bases, ranks, solves and
quotients, one loop for all; every finite index is read off its
pivots by `lattice_index`), Smith normal form (only for the kernel that is
the Brauer relation basis, and the public `invariant_factors`) and Bareiss
(determinants). Fractions appear only in results, such as a scaled Gram
determinant or a rational solution read off an integer one. No floating
point is used anywhere, so all equalities downstream are exact. A size
passed in (`IntMatrix`'s explicit `cols`, `zeros`, `identity`) goes through
`operator.index`, so a float is a TypeError, and a negative one is refused.
No function here keeps a cache keyed on matrix content: a result that is
reused lives with its owner, such as the fixed-point chain record that zgmod
memoizes on its module, or the one call that repeats it. The one cache is
`IntMatrix.identity`'s, on its size: each [Aᵀ | I] Hermite transform takes
its rows from the shared I, and without it every 720-wide transform of
C_Θ(Z[S6]) builds its own I_720 (peak RSS 77 → 84 MB).
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import add, index as _as_int, mul, neg, sub

from .grp import _Frozen


class ExactLinAlgError(ValueError):
    """Raised when a lattice/matrix precondition is violated."""


def _size(n):
    """A row or column count: an int (else TypeError, as for entries) that is not negative."""
    n = _as_int(n)
    if n < 0:
        raise ExactLinAlgError("matrix size must be non-negative")
    return n


class IntMatrix(_Frozen):
    """Immutable dense integer matrix.

    Rows and columns may be zero; the empty 0x0 matrix has determinant 1.
    """

    __slots__ = ("rows", "cols", "_data", "_hash")

    def __init__(self, data, cols=None):
        data = tuple(tuple(_as_int(x) for x in row) for row in data)
        cols = None if cols is None else _size(cols)
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
        _set_rows(m, len(data))
        _set_cols(m, cols)
        _set_data(m, data)
        _set_hash(m, None)
        return m

    @classmethod
    def zeros(cls, rows, cols):
        cols = _size(cols)
        return cls._trusted(((0,) * cols,) * _size(rows), cols)

    @classmethod
    @lru_cache(maxsize=32, typed=True)
    def identity(cls, n):
        n = _size(n)
        return cls._trusted(tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)), n)

    @classmethod
    def from_columns(cls, columns, rows=None):
        """The matrix with these columns; `rows` is needed when there are none."""
        return cls(columns, cols=rows).transpose()

    def __getitem__(self, pos):
        i, j = pos
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def tolist(self):
        return [list(r) for r in self._data]

    def transpose(self):
        if self.rows == 0 or self.cols == 0:
            return IntMatrix.zeros(self.cols, self.rows)
        return IntMatrix._trusted(tuple(zip(*self._data)), self.rows)

    def hstack(self, *others):
        """This matrix and `others` side by side; all need the same row count."""
        if any(o.rows != self.rows for o in others):
            raise ExactLinAlgError("row count mismatch in hstack")
        rows = zip(self._data, *(o._data for o in others))
        cols = self.cols + sum(o.cols for o in others)
        return IntMatrix._trusted(tuple(tuple(chain.from_iterable(r)) for r in rows), cols)

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
        return IntMatrix._trusted(tuple(tuple(c * x for x in r) for r in self._data), self.cols)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Product as row combinations: row i of A·B is Σ_j a_ij·(row j of B).

        The loop visits every entry of A (n² for an n x n permutation action);
        only A's nonzeros cost a row operation, and a first nonzero 1 shares B's row.
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

    def __repr__(self):
        return f"IntMatrix({self.tolist()!r})"


# Slot setters bound once for `_trusted`; they bypass `_Frozen`'s guard.
_set_rows, _set_cols, _set_data, _set_hash = (
    getattr(IntMatrix, name).__set__ for name in IntMatrix.__slots__
)


def _snf_engine(a):
    """Diagonalize by unimodular row and column operations.

    Returns (D, v_rows): U @ A @ V == D for a row transform U that is not
    kept, and the column transform V as a list of rows. Pivoting is on
    minimal absolute value; after each pivot is isolated a divisibility sweep
    folds any violating entry back in, so the final diagonal is a divisor
    chain d1 | d2 | ... with di >= 0.
    """
    m, n = a.rows, a.cols
    d = [list(r) for r in a._data]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]

    def add_col(i, j, c):
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

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
        d[t], d[best[1]] = d[best[1]], d[t]
        swap_cols(t, best[2])
        while True:
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
            p = d[t][t]
            # Clear column t; any nonzero remainder becomes a smaller pivot.
            smaller = None
            for i in range(m):
                if i != t and d[i][t]:
                    add_row(i, t, -(d[i][t] // p))
                    if d[i][t]:
                        smaller = i
            if smaller is not None:
                d[t], d[smaller] = d[smaller], d[t]
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
    return IntMatrix._trusted(tuple(map(tuple, d)), n), v


def invariant_factors(a):
    """Nonzero diagonal of the Smith form, as a tuple d1 | d2 | ..."""
    d, _ = _snf_engine(a)
    return tuple(d[i, i] for i in range(min(a.rows, a.cols)) if d[i, i])


def rank(a):
    """Row rank, from the Hermite loop on a copy of A's rows (not the Smith form)."""
    return _hnf_rows([list(r) for r in a._data], a.cols)


def integer_kernel(a):
    """Basis of {x in Z^cols : A x = 0} as matrix columns, from `_hermite_transform`."""
    rows, r = _hermite_transform(a)
    return IntMatrix._trusted(tuple(tuple(row[a.rows:]) for row in rows[r:]), a.cols).transpose()


def _preimage(al, rel):
    """Basis (matrix columns) of the coordinates {c : al·c ∈ im(rel)}.

    Without relation columns that is ker(al). With them it is the Hermite
    basis of the top al.cols rows of ker[al | −rel].
    """
    if not rel.cols:
        return integer_kernel(al)
    ker = integer_kernel(al.hstack(-rel))
    return column_lattice_basis(IntMatrix._trusted(ker._data[: al.cols], ker.cols))


def _bareiss_pivots(a):
    """Fraction-free (Bareiss) elimination of a square matrix, one pivot per step.

    Yields (pivot, swapped) for k = 0, 1, ...: a zero pivot is first replaced
    by swapping in a later row, and a pivot that stays zero (the matrix is
    singular) ends the run. While no row has been swapped, pivot k is the
    leading principal minor of order k + 1; the last pivot is ± det(A).

    A row with 0 in the pivot column would only be scaled by p_k/p_{k−1}; it
    is left as it is, with the divisor it was current at, and scaled once
    when next used. Entries are minors of A, so that division is exact.
    """
    n = a.rows
    m = [list(r) for r in a._data]
    prev, since = 1, [1] * n
    for k in range(n):
        swapped = False
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                yield 0, False
                return
            m[k], m[pivot] = m[pivot], m[k]
            since[k], since[pivot] = since[pivot], since[k]
            swapped = True
        mk = m[k]
        if since[k] != prev:
            mk[k:] = [x * prev // since[k] for x in mk[k:]]
        p = mk[k]
        yield p, swapped
        for i in range(k + 1, n):
            mi = m[i]
            if not mi[k]:
                continue
            if since[i] != prev:
                mi[k:] = [x * prev // since[i] for x in mi[k:]]
            c = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * p - c * mk[j]) // prev
            since[i] = p
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

    Factors A once by `_hermite_transform`: with [H | U] its first `rank`
    rows, U·Aᵀ = H, so the integer column span of A is the row span of H,
    and b = Hᵀy is hit by x = Uᵀy.
    """

    def __init__(self, a):
        self.a = a
        rows, self.rank = _hermite_transform(a)
        m = a.rows
        # Per Hermite row: its pivot column, pivot, and the nonzero entries after it.
        self._steps = []
        for row in rows[: self.rank]:
            p = next(c for c in range(m) if row[c])
            self._steps.append((p, row[p], [(t, row[t]) for t in range(p + 1, m) if row[t]]))
        self._ut = IntMatrix._trusted(
            tuple(tuple(row[m:]) for row in rows[: self.rank]), a.cols
        ).transpose()

    def solve(self, b):
        """Integer X with A X = B, or None if no integral solution exists.

        Reduces B by H's rows in pivot order: each pivot must divide its row
        of what is left of B, which then gives one row of y, and nothing may
        remain once every pivot is used.
        """
        if b.rows != self.a.rows:
            raise ExactLinAlgError("right-hand side row count mismatch")
        c = list(b._data)
        y = []
        for p, d, tail in self._steps:
            row = c[p]
            if d != 1:
                if any(x % d for x in row):
                    return None
                row = tuple(x // d for x in row)
            y.append(row)
            c[p] = ()
            for t, h in tail:
                c[t] = tuple(map(sub, c[t], map(mul, row, repeat(h))))
        if any(any(row) for row in c):
            return None
        return self._ut @ IntMatrix._trusted(tuple(y), b.cols)


def integer_solve(a, b):
    """Integer solution X of A X = B, or None."""
    return ImageSolver(a).solve(b)


def rational_solve(a, b):
    """One solution of A X = B over Q as rows of Fractions; None if inconsistent.

    With d the product of the Hermite pivots, d·y is integral for the
    rational y that reads B off H's rows (Cramer's rule on the triangular
    pivot block), so A Y = d·B is solvable over Z exactly when A X = B is
    solvable over Q, and X = Y / d.
    """
    solver = ImageSolver(a)
    d = 1
    for _, pivot, _ in solver._steps:
        d *= pivot
    y = solver.solve(b * d)
    return None if y is None else [[Fraction(x, d) for x in row] for row in y.tolist()]


def _hnf_rows(rows, width):
    """Row Hermite form, in place by unimodular row operations, on the first `width` columns.

    Returns the rank r: rows[:r] have positive pivots, the entries above each
    reduced into [0, pivot); rows[r:] are zero in the first `width` columns.
    Each column repeats one step until only its pivot row is nonzero there:
    the first row (from r on) of least nonzero |entry| is swapped up and made
    positive, and every later row loses the floor multiple of it that leaves
    a remainder in [0, pivot). Rows are replaced, never mutated.
    """
    m = len(rows)
    r = 0
    for c in range(width):
        if r == m:
            break
        # The first row of least nonzero |x|; nothing beats a unit.
        i0 = None
        for i in range(r, m):
            x = rows[i][c]
            if x:
                if x < 0:
                    x = -x
                if i0 is None or x < least:
                    i0, least = i, x
                    if x == 1:
                        break
        if i0 is None:
            continue
        while True:
            pr = rows[i0]
            rows[i0] = rows[r]
            if pr[c] < 0:
                pr = list(map(neg, pr))
            rows[r] = pr
            p = pr[c]
            # Remainders lie in [0, p), below the pivot row's p, so the next
            # pivot is the first row of least nonzero remainder.
            i0 = None
            for i in range(r + 1, m):
                ri = rows[i]
                x = ri[c]
                if x:
                    rows[i] = _minus_multiple(ri, pr, x // p)
                    x %= p
                    if x and (i0 is None or x < least):
                        i0, least = i, x
            if i0 is None:
                break
        for i in range(r):
            ri = rows[i]
            q = ri[c] // p
            if q:
                rows[i] = _minus_multiple(ri, pr, q)
        r += 1
    return r


def _minus_multiple(row, pivot_row, q):
    """row − q·pivot_row as a new list; q = ±1 costs one add or subtract per entry."""
    if q == 1:
        return list(map(sub, row, pivot_row))
    if q == -1:
        return list(map(add, row, pivot_row))
    return list(map(sub, row, map(mul, pivot_row, repeat(q))))


def _hermite_transform(a):
    """Row Hermite form of [Aᵀ | I] on its first A.rows columns, and its rank r.

    Every row is [h | u] with h = u·Aᵀ, and the row operations are
    unimodular: rows[:r] are [H | U] with H the Hermite basis of A's integer
    column span, and the u parts of rows[r:] are a basis of A's integer
    kernel (a saturated sublattice).
    """
    eye = IntMatrix.identity(a.cols)._data
    rows = [[*c, *e] for c, e in zip(a.transpose()._data, eye)]
    return rows, _hnf_rows(rows, a.rows)


def column_lattice_basis(a):
    """Canonical basis (as matrix columns) of the lattice spanned by A's columns.

    Computed as the row Hermite form of the transpose; the result has full
    column rank and spans exactly the integer column span of A.
    """
    return IntMatrix._trusted(tuple(map(tuple, _hermite_rows(a))), a.rows).transpose()


def _hermite_rows(a):
    """The columns of `column_lattice_basis(a)` as row lists, which `_hnf_rows` never mutates."""
    rows = [list(r) for r in a.transpose()._data]
    return rows[: _hnf_rows(rows, a.rows)]


def lattice_index(sub, sup):
    """Index [L_sup : L_sub] of one lattice in another, given by basis columns.

    Both arguments are matrices whose columns span the respective lattices
    inside a common ambient Z^n. Requires equal rational column spans (else
    the index is infinite) and integral containment of sub in sup: the
    Hermite basis of [sup | sub] must be that of sup. Equal spans give both
    Hermite bases the same pivot rows, on which each is triangular, so the
    index is the quotient of their pivot products.
    """
    if sub.rows != sup.rows:
        raise ExactLinAlgError("lattices live in different ambient spaces")
    sb, pb = _hermite_rows(sub), _hermite_rows(sup)
    if len(sb) != len(pb):
        raise ExactLinAlgError("infinite index: ranks differ")
    both = pb + sb
    if _hnf_rows(both, sup.rows) != len(pb) or both[: len(pb)] != pb:
        raise ExactLinAlgError("not a sublattice: spans differ or sub is not contained")
    return _pivot_product(sb) // _pivot_product(pb)


def _pivot_product(rows):
    """Product of the pivots (leading nonzero entries) of Hermite basis rows."""
    return math.prod(next(filter(None, row)) for row in rows)


def gram_determinant(pairing, basis, scale=1):
    """det(scale * B^T P B) as an exact Fraction.

    `pairing` is a symmetric integer matrix on the ambient space, `basis` a
    matrix whose columns are the vectors to pair, `scale` an int or Fraction
    applied entrywise to the Gram matrix before taking the determinant.
    """
    if not isinstance(scale, (int, Fraction)):
        raise TypeError("scale must be an int or a Fraction")
    if pairing.rows != pairing.cols:
        raise ExactLinAlgError("pairing matrix must be square")
    if pairing._data != tuple(zip(*pairing._data)):
        raise ExactLinAlgError("pairing matrix must be symmetric")
    if basis.rows != pairing.rows:
        raise ExactLinAlgError("basis/pairing dimension mismatch")
    g = basis.transpose() @ pairing @ basis
    return Fraction(scale.numerator ** g.rows * determinant(g), scale.denominator ** g.rows)
