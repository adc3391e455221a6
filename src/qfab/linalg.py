"""Exact linear algebra over Q or F_p, dense storage with sparse updates.

Matrices are immutable (tuple-of-tuples) and every operation is a pure
function, so values can be shared freely.  All echelon forms are reduced and
pivot-ordered, which makes kernel bases, coordinates and ranks canonical:
re-running any computation reproduces identical output.

There is one elimination, ``Subspace.insert``: it holds the only pivot
search and the only back-substitution.  ``rref`` inserts the rows of a
matrix into a ``Subspace`` and reads the reduced echelon form off it, and
``Span`` keeps coordinates over the vectors added to it by carrying them in
a ``Subspace`` with one unit tail slot per vector.

Most entries are 0 or +-1, so the kernel relies on the scalar contract of
``field``: a scalar is falsy exactly when it is zero.  Entries are tested with
``if x``, and products and row operations touch only the non-zero entries of
the row that is added (``a - f*0 == a`` exactly, so results are unchanged).
Over Q an entry is an ``int`` until a division leaves a remainder, and only
then a ``Fraction``; it is never a float.  The only division here, by a
pivot in ``Subspace.insert``, goes through ``field.div``, and is skipped for
a pivot of one; a pivot of +-1 (the common case) keeps every entry an
``int``.

``Matrix(rows, cols, data)`` is the one constructor, and it always checks the
shape: rows are converted to tuples and their lengths compared at C level, and
a bad shape raises ``DimensionMismatch``.  Rows are immutable tuples, so they
may be shared: ``Matrix.zero`` uses one zero row for all of its rows, and a
tuple row passed in is kept as it is.

A matrix with 0 rows or 0 columns has no entries, so there is nothing to
compute for it.  ``Matrix.zero`` returns one shared instance per degenerate
``(rows, cols, field)``.  Sums, scalings, products, transposes,
``from_columns``, ``rref`` and ``kernel_basis`` return at once when the
result, or the inner dimension of a product, is empty; shapes are still
checked first.
"""

from __future__ import annotations

from bisect import bisect

from .field import QQ
from .errors import DimensionMismatch


# The one zero matrix of each degenerate (rows, cols, field).  The field is
# keyed by id, which is cheaper than its hash; the cached matrix holds the
# field, so no other object can take that id.
_EMPTY = {}


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
    def from_rows(rows, field=QQ):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        coerced = [[field.coerce(x) for x in r] for r in rows]
        return Matrix(n, m, coerced, field)

    @staticmethod
    def zero(rows, cols, field=QQ):
        if rows and cols:
            return Matrix(rows, cols, ((field.zero,) * cols,) * rows, field)
        key = (rows, cols, id(field))
        got = _EMPTY.get(key)
        if got is None:
            got = _EMPTY[key] = Matrix(rows, cols, ((),) * rows, field)
        return got

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
        if not self.rows or not self.cols:
            return Matrix.zero(self.cols, self.rows, self.field)
        return Matrix(self.cols, self.rows, list(zip(*self.data)), self.field)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        if not self.rows or not self.cols:
            return self
        return Matrix(
            self.rows,
            self.cols,
            [[a + b if b else a for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.data, other.data)],
            self.field,
        )

    def scale(self, c):
        if not self.rows or not self.cols:
            return self
        return Matrix(self.rows, self.cols,
                      [[c * x if x else x for x in r] for r in self.data], self.field)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        if not self.rows or not self.cols or not other.cols:
            return Matrix.zero(self.rows, other.cols, self.field)
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

    The rows are inserted into a ``Subspace``; its rows, padded with zero
    rows, are the reduced echelon form, which is unique for the row space."""
    if not mat.rows or not mat.cols:
        return mat, []
    sub = Subspace(mat.cols, mat.field)
    for r in mat.data:
        sub.insert(r)
    pad = [(mat.field.zero,) * mat.cols] * (mat.rows - sub.rank)
    return Matrix(mat.rows, mat.cols, sub.rows + pad, mat.field), sub.pivots


def rank(mat):
    return len(rref(mat)[1])


def kernel_basis(mat):
    """Canonical basis of the right kernel.

    Vectors come from the reduced echelon form: one per free column, in
    increasing free-column order, with the free coordinate set to one.
    Without rows, that is the unit vectors.
    """
    return _kernel(mat)[0]


def _kernel(mat):
    """(basis, free): ``kernel_basis(mat)`` and its free columns.  Basis
    vector i is 1 at ``free[i]`` and 0 at the other free columns, so a kernel
    vector y is the combination with coefficients y[free]."""
    if not mat.rows:
        return unit_vectors(mat.cols, mat.field), range(mat.cols)
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
    return basis, free


def unit_vectors(n, field=QQ):
    """The n unit vectors of length n, as lists."""
    out = [[field.zero] * n for _ in range(n)]
    for k, u in enumerate(out):
        u[k] = field.one
    return out


def from_columns(cols, rows, field=QQ):
    """Matrix whose columns are the given vectors."""
    # a non-empty column for 0 rows goes on to the shape check
    if not cols or not (rows or any(cols)):
        return Matrix.zero(rows, len(cols), field)
    return Matrix(rows, len(cols), list(zip(*cols)), field)


class Subspace:
    """A subspace kept in reduced echelon form.

    Rows are vectors of fixed length `dim`; `pivots[i]` is the pivot column
    of the i-th stored row, in increasing order.  The rows are the identity
    at the pivots, so a vector of the span has its entries there as its
    coordinates.  Supports incremental insertion.  Each row's non-zero
    columns are kept beside it, so reducing a vector updates only those
    entries.
    """

    def __init__(self, dim, field=QQ):
        self.dim = dim
        self.field = field
        self.rows = []
        self.pivots = []
        self._support = []

    def reduce(self, vec):
        """Reduce vec against the stored rows; returns the residue (a list)."""
        v = list(vec)
        for row, p, support in zip(self.rows, self.pivots, self._support):
            f = v[p]
            if f:
                for j in support:
                    v[j] = v[j] - f * row[j]
        return v

    def insert(self, vec):
        """Insert a vector; returns True if it enlarged the span.

        This is the one elimination step of the package: the pivot search,
        the normalisation by the pivot and the back-substitution into the
        stored rows."""
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        F, dim = self.field, self.dim
        support = [j for j in range(p, dim) if v[j]]
        if v[p] != F.one:
            inv = F.div(F.one, v[p])
            for j in support:
                v[j] = inv * v[j]
        for i, row in enumerate(self.rows):
            f = row[p]
            if f:
                for j in support:
                    row[j] = row[j] - f * v[j]
                self._support[i] = [j for j in range(self.pivots[i], dim) if row[j]]
        k = bisect(self.pivots, p)
        self.rows.insert(k, v)
        self.pivots.insert(k, p)
        self._support.insert(k, support)
        return True

    @property
    def rank(self):
        return len(self.rows)


class Span:
    """Vectors kept in the order they were added, each independent of the
    ones before it, with the coordinates of their span.

    Vector k is stored in a ``Subspace`` of twice the length as ``[v | e_k]``,
    with a unit in its own tail slot.  Reducing ``[w | 0]`` leaves
    ``[w - sum c_k v_k | -c]``, so w is in the span exactly when the head
    reduces to zero, and then its coordinates are the negated tail.  They
    are the solution of ``V x = w`` for the column matrix V of all vectors
    ever offered, with the variables of the dependent ones set to zero.
    """

    def __init__(self, dim, field=QQ):
        self.dim = dim
        self.size = 0
        self._sub = Subspace(2 * dim, field)

    def add(self, vec):
        """The coordinates of vec over the stored vectors when vec is in
        their span; otherwise None, and vec is stored after them."""
        F, dim = self._sub.field, self.dim
        v = self._sub.reduce(list(vec) + [F.zero] * dim)
        if any(v[:dim]):
            # v is reduced and its new tail slot is no stored pivot
            v[dim + self.size] = F.one
            self._sub.insert(v)
            self.size += 1
            return None
        return [-c for c in v[dim:dim + self.size]]
