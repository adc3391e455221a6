"""Property tests of the exact linear-algebra kernel against sympy.

Matrices are small, mostly zero and drawn over Q, F_2 and F_(2^31-1).  The
kernel tests scalars for zero by truthiness, so the scalar contract is
checked here too.
"""

from fractions import Fraction

from hypothesis import example, given, strategies as st
from sympy import GF, QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from qfab.field import QQ, PrimeField
from qfab.linalg import (Matrix, Subspace, kernel_basis, rank, rref, solve,
                         solve_matrix)

FIELDS = [QQ, PrimeField(2), PrimeField(2 ** 31 - 1)]


def entries(F):
    """Mostly zero or +-1; fractions over Q only (2 is not invertible in F_2)."""
    small = st.one_of(st.just(0), st.just(0), st.integers(-1, 1), st.integers(-3, 3))
    if F.characteristic == 0:
        small = st.one_of(small, st.fractions(-3, 3, max_denominator=3))
    return small.map(F.coerce)


@st.composite
def matrices(draw, field=None, rows=None, cols=None):
    F = field if field is not None else draw(st.sampled_from(FIELDS))
    n = rows if rows is not None else draw(st.integers(1, 5))
    m = cols if cols is not None else draw(st.integers(1, 5))
    data = draw(st.lists(vectors(F, m), min_size=n, max_size=n))
    return Matrix(n, m, data, F)


def vectors(F, n):
    return st.lists(entries(F), min_size=n, max_size=n)


def to_sympy(M):
    if M.field.characteristic == 0:
        K = SQQ
        data = [[K(x.numerator, x.denominator) for x in r] for r in M.data]
    else:
        K = GF(M.field.p)
        data = [[K(x.v) for x in r] for r in M.data]
    return DomainMatrix(data, (M.rows, M.cols), K)


def from_sympy(D, F):
    K = D.domain
    if F.characteristic == 0:
        return [[Fraction(int(K.numer(x)), int(K.denom(x))) for x in r]
                for r in D.to_list()]
    return [[int(x) % F.p for x in r] for r in D.to_list()]


def plain(M):
    """Entries as Fractions (over Q) or residues (over F_p)."""
    if M.field.characteristic == 0:
        return [list(r) for r in M.data]
    return [[x.v for x in r] for r in M.data]


@given(matrices())
def test_rref_and_rank_match_sympy(M):
    R, pivots = rref(M)
    SR, spivots = to_sympy(M).rref()
    assert plain(R) == from_sympy(SR, M.field)
    assert tuple(pivots) == tuple(spivots)
    assert rank(M) == to_sympy(M).rank()


@given(matrices())
def test_kernel_basis_is_a_kernel_basis(M):
    basis = kernel_basis(M)
    assert len(basis) == M.cols - rank(M)
    for v in basis:
        assert not any(M.apply(v))
    if basis:
        assert rank(Matrix(len(basis), M.cols, basis, M.field)) == len(basis)


@given(st.data())
def test_solve_checks_out(data):
    M = data.draw(matrices())
    x = data.draw(vectors(M.field, M.cols))
    got = solve(M, M.apply(x))
    assert got is not None and M.apply(got) == M.apply(x)
    b = data.draw(vectors(M.field, M.rows))
    consistent = rank(M.hstack(Matrix(M.rows, 1, [[y] for y in b], M.field))) == rank(M)
    got = solve(M, b)
    assert (got is not None) == consistent
    if got is not None:
        assert M.apply(got) == b


@given(st.data())
def test_solve_matrix_checks_out(data):
    M = data.draw(matrices())
    B = data.draw(matrices(M.field, rows=M.rows))
    X = solve_matrix(M, B)
    cols = [solve(M, B.column(j)) for j in range(B.cols)]
    if any(c is None for c in cols):
        assert X is None
    else:
        assert X is not None and M * X == B
        assert [X.column(j) for j in range(X.cols)] == cols


@given(st.data())
def test_matmul_matches_sympy(data):
    A = data.draw(matrices())
    B = data.draw(matrices(A.field, rows=A.cols))
    product = plain(A * B)
    assert product == from_sympy(to_sympy(A) * to_sympy(B), A.field)
    assert (A * B).is_zero() == (not any(any(r) for r in product))


@given(matrices())
# inserting row 1 gives row 0 a non-zero in column 2, which reduce must use
@example(Matrix.from_rows([[1, 1, 0], [0, 1, 1]], QQ))
def test_subspace_matches_rank_of_stacked_rows(M):
    F = M.field
    sub = Subspace(M.cols, F)
    stacked = []
    for r in M.data:
        before = rank(Matrix(len(stacked), M.cols, stacked, F))
        stacked.append(list(r))
        grew = rank(Matrix(len(stacked), M.cols, stacked, F)) > before
        assert sub.insert(r) == grew
    R, pivots = rref(M)
    assert sub.pivots == pivots
    assert sub.rows == [list(r) for r in R.data[:len(pivots)]]
    units = [[F.one if i == j else F.zero for i in range(M.cols)]
             for j in range(M.cols)]
    total = [sum(col, F.zero) for col in zip(*M.data)]
    for v in units + [total]:
        inside = rank(Matrix(M.rows + 1, M.cols, stacked + [v], F)) == rank(M)
        assert sub.contains(v) == inside
        coords = sub.coordinates(v)
        assert (coords is not None) == inside
        if coords is not None:
            combo = [F.zero] * M.cols
            for c, row in zip(coords, sub.rows):
                combo = [a + c * b for a, b in zip(combo, row)]
            assert combo == v


@given(st.sampled_from(FIELDS), st.integers(-10 ** 12, 10 ** 12))
def test_scalars_are_falsy_exactly_at_zero(F, k):
    assert not F.zero
    assert bool(F.one)
    nonzero = k != 0 if F.characteristic == 0 else k % F.p != 0
    assert bool(F(k)) == nonzero
    assert bool(F.coerce(str(k))) == nonzero
