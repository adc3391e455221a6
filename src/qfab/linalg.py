"""Exact linear algebra over Q or F_p, dense storage with sparse updates.

Matrices are immutable (tuple-of-tuples) and every operation is a pure
function, so values can be shared freely.  All echelon forms are reduced and
pivot-ordered, which makes kernel bases, solutions and ranks canonical:
re-running any computation reproduces identical output.

Most entries are 0 or +-1, so the kernel relies on the scalar contract of
``field``: a scalar is falsy exactly when it is zero.  Entries are tested with
``if x``, and products and row operations touch only the non-zero entries of
the row that is added (``a - f*0 == a`` exactly, so results are unchanged).

``Matrix(rows, cols, data)`` is the one constructor, and it always checks the
shape: rows are converted to tuples and their lengths compared at C level, and
a bad shape raises ``DimensionMismatch``.  Rows are immutable tuples, so they
may be shared: ``Matrix.zero`` uses one zero row for all of its rows, and a
tuple row passed in is kept as it is.
"""

from __future__ import annotations

from bisect import bisect

from .field import QQ
from .errors import DimensionMismatch


class Matrix:
    """An immutable rows x cols matrix over an exact field."""

    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, rows, cols, data, field=QQ):
        data = tuple(map(tuple, data))
        if len(data) != rows or (rows and set(map(len, data)) != {cols}):
            raise DimensionMismatch(f"bad shape for {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.data = data
        self.field = field

    @staticmethod
    def from_rows(rows, field=QQ, cols=None):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else (cols if cols is not None else 0)
        coerced = [[field.coerce(x) for x in r] for r in rows]
        return Matrix(n, m, coerced, field)

    @staticmethod
    def zero(rows, cols, field=QQ):
        return Matrix(rows, cols, ((field.zero,) * cols,) * rows, field)

    @staticmethod
    def identity(n, field=QQ):
        z, o = field.zero, field.one
        return Matrix(n, n, [[o if i == j else z for j in range(n)] for i in range(n)], field)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self):
        return not any(any(r) for r in self.data)

    def transpose(self):
        return Matrix(self.cols, self.rows, list(zip(*self.data)) if self.data else [[] for _ in range(self.cols)], self.field)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(
            self.rows,
            self.cols,
            [[a + b if b else a for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
            self.field,
        )

    def __sub__(self, other):
        return self + other.scale(-self.field.one)

    def scale(self, c):
        return Matrix(self.rows, self.cols,
                      [[c * x if x else x for x in r] for r in self.data], self.field)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            z = self.field.zero
            right = [[(j, b) for j, b in enumerate(r) if b] for r in other.data]
            out = []
            for r in self.data:
                row = [z] * other.cols
                for a, nz in zip(r, right):
                    if a:
                        for j, b in nz:
                            row[j] = row[j] + a * b
                out.append(row)
            return Matrix(self.rows, other.cols, out, self.field)
        return self.scale(other)

    def apply(self, vec):
        """Matrix times a column vector (list)."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        z = self.field.zero
        nz = [(k, b) for k, b in enumerate(vec) if b]
        out = []
        for r in self.data:
            s = z
            for k, b in nz:
                a = r[k]
                if a:
                    s = s + a * b
            out.append(s)
        return out

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(self.rows, self.cols + other.cols,
                      [a + b for a, b in zip(self.data, other.data)], self.field)

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("vstack col mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.data + other.data, self.field)

    def column(self, j):
        return [r[j] for r in self.data]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]


def rref(mat):
    """Reduced row echelon form.  Returns (Matrix, pivot column list).

    Each elimination step updates only the pivot row's non-zero columns."""
    one = mat.field.one
    rows = [list(r) for r in mat.data]
    n, m = mat.rows, mat.cols
    pivots = []
    r = 0
    for c in range(m):
        if r >= n:
            break
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        # columns left of c are zero in every row from r on
        support = [j for j in range(c, m) if prow[j]]
        pv = prow[c]
        if pv != one:
            inv = one / pv
            for j in support:
                prow[j] = inv * prow[j]
        for i in range(n):
            row = rows[i]
            f = row[c]
            if f and i != r:
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
    return Matrix(n, m, rows, mat.field), pivots


def rank(mat):
    return len(rref(mat)[1])


def kernel_basis(mat):
    """Canonical basis of the right kernel.

    Vectors come from the reduced echelon form: one per free column, in
    increasing free-column order, with the free coordinate set to one.
    """
    R, pivots = rref(mat)
    z, o = mat.field.zero, mat.field.one
    pivot_set = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [z] * mat.cols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -R.data[r][fc]
        basis.append(v)
    return basis


def solve(mat, b):
    """One solution of mat*x = b with free variables set to zero, or None."""
    if len(b) != mat.rows:
        raise DimensionMismatch("rhs length mismatch")
    aug = mat.hstack(Matrix(mat.rows, 1, [[x] for x in b], mat.field))
    R, pivots = rref(aug)
    if mat.cols in pivots:
        return None
    z = mat.field.zero
    x = [z] * mat.cols
    for r, pc in enumerate(pivots):
        x[pc] = R.data[r][mat.cols]
    return x


def solve_matrix(mat, rhs):
    """Solve mat*X = rhs, free variables set to zero; None if any column is
    inconsistent.  One elimination of [mat | rhs] gives, column by column,
    the same solutions as ``solve``."""
    if rhs.rows != mat.rows:
        raise DimensionMismatch("rhs row count mismatch")
    n, k = mat.cols, rhs.cols
    if not k:
        return Matrix(n, 0, [[] for _ in range(n)], mat.field)
    R, pivots = rref(mat.hstack(rhs))
    if pivots and pivots[-1] >= n:
        return None
    out = [(mat.field.zero,) * k] * n
    for r, pc in enumerate(pivots):
        out[pc] = R.data[r][n:]
    return Matrix(n, k, out, mat.field)


def from_columns(cols, rows, field=QQ):
    """Matrix whose columns are the given vectors."""
    if not cols:
        return Matrix(rows, 0, [[] for _ in range(rows)], field)
    return Matrix(rows, len(cols), list(zip(*cols)), field)


def is_invertible(mat):
    return mat.rows == mat.cols and rank(mat) == mat.rows


def inverse(mat):
    if mat.rows != mat.cols:
        raise DimensionMismatch("inverse of non-square matrix")
    aug = mat.hstack(Matrix.identity(mat.rows, mat.field))
    R, pivots = rref(aug)
    if pivots[: mat.rows] != list(range(mat.rows)):
        return None
    return Matrix(mat.rows, mat.rows, [r[mat.rows:] for r in R.data], mat.field)


class Subspace:
    """A subspace kept in reduced echelon form for membership tests.

    Rows are vectors of fixed length `dim`; `pivots[i]` is the pivot column
    of the i-th stored row, in increasing order.  Supports incremental
    insertion.  Each row's non-zero columns are kept beside it, so reducing
    a vector updates only those entries.
    """

    def __init__(self, dim, field=QQ):
        self.dim = dim
        self.field = field
        self.rows = []
        self.pivots = []
        self._support = []

    def _eliminate(self, v, coords=None):
        """Clear v (in place) at every stored pivot; record the multipliers
        in coords when given."""
        for i, (row, p, support) in enumerate(zip(self.rows, self.pivots, self._support)):
            f = v[p]
            if f:
                if coords is not None:
                    coords[i] = f
                for j in support:
                    v[j] = v[j] - f * row[j]
        return v

    def reduce(self, vec):
        """Reduce vec against the stored rows; returns the residue (a list)."""
        return self._eliminate(list(vec))

    def contains(self, vec):
        return not any(self.reduce(vec))

    def insert(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        support = [j for j in range(p, self.dim) if v[j]]
        inv = self.field.one / v[p]
        for j in support:
            v[j] = inv * v[j]
        for i, (row, rsupp) in enumerate(zip(self.rows, self._support)):
            f = row[p]
            if f:
                for j in support:
                    row[j] = row[j] - f * v[j]
                self._support[i] = [j for j in sorted(set(rsupp).union(support)) if row[j]]
        k = bisect(self.pivots, p)
        self.rows.insert(k, v)
        self.pivots.insert(k, p)
        self._support.insert(k, support)
        return True

    @property
    def rank(self):
        return len(self.rows)

    def coordinates(self, vec):
        """Coordinates of vec in the stored echelon basis, or None."""
        coords = [self.field.zero] * len(self.rows)
        if any(self._eliminate(list(vec), coords)):
            return None
        return coords
