import random

import pytest

from qfab.field import QQ, PrimeField
from qfab.errors import DimensionMismatch
from qfab.linalg import (Matrix, rref, rank, kernel_basis, Span, Subspace,
                         from_columns)


def mat(rows, field=QQ):
    return Matrix.from_rows(rows, field)


def solve(m, b):
    """A solution of m x = b read off a ``Span`` of m's columns: the
    coordinates over the columns it stored, zero at the others; None when b
    is outside the column span."""
    span = Span(m.rows, m.field)
    stored = [j for j, col in enumerate(m.columns()) if span.add(col) is None]
    coords = span.add(b)
    if coords is None:
        return None
    x = [m.field.zero] * m.cols
    for j, c in zip(stored, coords):
        x[j] = c
    return x


def test_kernel_identity_is_empty():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_zero_matrix_is_standard_basis():
    ker = kernel_basis(Matrix.zero(2, 3))
    assert len(ker) == 3
    eye = Matrix.identity(3)
    assert [list(v) for v in ker] == [eye.column(j) for j in range(3)]


def test_kernel_rank_one():
    ker = kernel_basis(mat([[1, 2], [2, 4]]))
    assert len(ker) == 1
    v = ker[0]
    # canonical echelon kernel vector: free coordinate one
    assert v[1] == QQ.one and v[0] == QQ(-2)


def test_solve_identity():
    b = [QQ(5), QQ(-1), QQ(2)]
    assert solve(Matrix.identity(3), b) == b


def test_solve_free_variable_zeroed():
    x = solve(mat([[1, 1]]), [QQ(1)])
    assert x == [QQ(1), QQ(0)]


def test_solve_inconsistent():
    assert solve(mat([[1], [2]]), [QQ(1), QQ(1)]) is None


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        m = mat([[rng.randrange(-4, 5) for _ in range(4)] for _ in range(3)])
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2 and p1 == p2


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = mat([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) + len(kernel_basis(m)) == cols


def test_solve_is_exact():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = mat([[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)])
        x = [QQ(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(cols)]
        b = m.apply(x)
        got = solve(m, b)
        assert got is not None
        assert m.apply(got) == b


def test_prime_field_rank_agrees_with_rational():
    rng = random.Random(17)
    F = PrimeField(1000003)
    for _ in range(25):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        data = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        assert rank(mat(data)) == rank(mat(data, F))


def test_inverse_and_product():
    # an inverse is the solution of m * X = I, column by column; a singular
    # m has none
    m = mat([[2, 1], [1, 1]])
    inv = from_columns([solve(m, e) for e in Matrix.identity(2).columns()], 2)
    assert m * inv == Matrix.identity(2)
    singular = mat([[1, 2], [2, 4]])
    assert rank(singular) < 2
    assert solve(singular, Matrix.identity(2).column(0)) is None


def test_subspace_membership_and_coordinates():
    sub = Subspace(3)
    assert sub.insert([QQ(1), QQ(1), QQ(0)])
    assert sub.insert([QQ(0), QQ(1), QQ(1)])
    assert not sub.insert([QQ(1), QQ(2), QQ(1)])
    v = [QQ(2), QQ(3), QQ(1)]
    assert not any(sub.reduce(v))
    assert any(sub.reduce([QQ(0), QQ(0), QQ(1)]))
    # the rows are the identity at the pivots, so v's coordinates are its
    # entries there
    assert sub.pivots == [0, 1]
    coords = [v[p] for p in sub.pivots]
    assert [sum(c * row[j] for c, row in zip(coords, sub.rows)) for j in range(3)] == v


def test_from_columns_shape():
    m = from_columns([[QQ(1), QQ(0)], [QQ(1), QQ(1)]], 2)
    assert m.rows == 2 and m.cols == 2
    assert m.column(1) == [QQ(1), QQ(1)]
    empty = from_columns([], 3)
    assert empty.rows == 3 and empty.cols == 0


@pytest.mark.parametrize("rows, cols, data", [
    (2, 3, [[1, 2, 3], [4, 5]]),        # ragged rows
    (2, 3, [[1, 2, 3], [4, 5, 6, 7]]),  # one row too long
    (3, 3, [[1, 2, 3], [4, 5, 6]]),     # too few rows
    (2, 3, []),
])
def test_matrix_rejects_bad_shape(rows, cols, data):
    with pytest.raises(DimensionMismatch):
        Matrix(rows, cols, data)
    with pytest.raises(DimensionMismatch):
        Matrix(rows, cols, (iter(r) for r in data))


def test_matrix_accepts_empty_shapes_and_generator_input():
    m = Matrix(0, 3, [])
    assert (m.rows, m.cols, m.data) == (0, 3, ())
    m = Matrix(2, 0, [[], []])
    assert (m.rows, m.cols, m.data) == (2, 0, ((), ()))
    gen = Matrix(2, 3, ((QQ(3 * i + j) for j in range(3)) for i in range(2)))
    assert gen == mat([[0, 1, 2], [3, 4, 5]])
    assert gen.data == ((0, 1, 2), (3, 4, 5))


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)],
                         ids=["Q", "F_2^31-1"])
def test_zero_equals_and_hashes_like_a_list_built_zero(field):
    some = Matrix(2, 3, [[field(1), field(0), field(-2)],
                         [field(0), field(5), field(0)]], field)
    for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3)]:
        z = Matrix.zero(r, c, field)
        listed = Matrix(r, c, [[field.zero] * c for _ in range(r)], field)
        assert z == listed and hash(z) == hash(listed)
        assert z.is_zero()
    z = Matrix.zero(2, 3, field)
    assert z + some == some and some + z == some
    assert Matrix.zero(4, 2, field) * some == Matrix.zero(4, 3, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)],
                         ids=["Q", "F_2^31-1"])
def test_degenerate_shapes_share_one_zero_and_keep_shape_checks(field):
    for r, c in [(0, 3), (3, 0), (0, 0)]:
        z = Matrix.zero(r, c, field)
        listed = Matrix(r, c, [[field.zero] * c for _ in range(r)], field)
        assert z == listed and hash(z) == hash(listed)
        assert Matrix.zero(r, c, field) is z
    some = Matrix(2, 3, [[field(1), field(0), field(-2)],
                         [field(0), field(5), field(0)]], field)
    assert Matrix.zero(2, 0, field) * Matrix.zero(0, 3, field) == Matrix.zero(2, 3, field)
    assert Matrix.zero(0, 2, field) * some is Matrix.zero(0, 3, field)
    assert Matrix.zero(3, 0, field).transpose() is Matrix.zero(0, 3, field)
    assert from_columns([], 3, field) is Matrix.zero(3, 0, field)
    units = [[field.one if i == j else field.zero for j in range(3)] for i in range(3)]
    assert kernel_basis(Matrix.zero(0, 3, field)) == units
    with pytest.raises(DimensionMismatch):
        Matrix.zero(2, 0, field) * Matrix.zero(3, 1, field)
    with pytest.raises(DimensionMismatch):
        from_columns([[field.one]], 0, field)
