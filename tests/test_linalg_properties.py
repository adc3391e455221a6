"""Property tests of the exact linear-algebra kernel against sympy, and of
the normal form modulo an ideal built on it.

Matrices are small, mostly zero and drawn over Q, F_2 and F_(2^31-1).  The
kernel tests scalars for zero by truthiness, so the scalar contract is
checked here too: over Q a scalar is an ``int`` or a ``Fraction``, never a
float, and the field's constructors and division give an ``int`` exactly
when the value is integral.
"""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from conftest import from_sympy, sympy_solve, to_sympy
from qfab.algebra import _EchelonIdeal
from qfab.field import QQ, PrimeField
from qfab.linalg import Matrix, Span, Subspace, kernel_basis, rank, rref

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
def test_span_coordinates_match_sympy(data):
    """Span.add over the columns of M: a dependent vector gets the sympy
    solution of M x = b with the free variables zero back, and an
    independent one joins the span, after which it is its own coordinate."""
    M = data.draw(matrices())
    F = M.field
    span = Span(M.rows, F)
    stored = [j for j, col in enumerate(M.columns()) if span.add(col) is None]
    # the stored columns are the greedily independent ones: rref's pivots
    assert stored == rref(M)[1] and span.size == rank(M)
    for b in (M.apply(data.draw(vectors(F, M.cols))), data.draw(vectors(F, M.rows))):
        want = sympy_solve(M, b)
        got = span.add(b)
        if want is None:
            assert got is None and span.size == rank(M) + 1
            assert span.add(b) == [F.zero] * (span.size - 1) + [F.one]
        else:
            assert got is not None
            x = [F.zero] * M.cols
            for j, c in zip(stored, got):
                x[j] = c
            assert x == want


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
        assert (not any(sub.reduce(v))) == inside


@given(st.sampled_from(FIELDS), st.integers(-10 ** 12, 10 ** 12))
def test_scalars_are_falsy_exactly_at_zero(F, k):
    assert not F.zero
    assert bool(F.one)
    nonzero = k != 0 if F.characteristic == 0 else k % F.p != 0
    assert bool(F(k)) == nonzero
    assert bool(F.coerce(str(k))) == nonzero


# -- the scalar type over Q -------------------------------------------------


@st.composite
def nonunit_matrices(draw, rows=None):
    """Matrices over Q with every row scaled by an integer other than +-1, so
    most pivots are not units of Z."""
    M = draw(matrices(QQ, rows=rows))
    ks = draw(st.lists(st.sampled_from([2, -2, 3, -4, 6]),
                       min_size=M.rows, max_size=M.rows))
    return Matrix(M.rows, M.cols, [[k * x for x in r] for k, r in zip(ks, M.data)], QQ)


def rationals():
    """Canonical rationals (ints when integral), +-1 included."""
    return st.one_of(st.sampled_from([1, -1]), st.integers(-6, 6),
                     st.fractions(-6, 6, max_denominator=6)).map(QQ.coerce)


def assert_int_or_fraction(vectors):
    for v in vectors:
        for x in v:
            assert type(x) in (int, Fraction), (type(x), x)


@given(st.data())
def test_rational_results_are_ints_or_fractions(data):
    M = data.draw(nonunit_matrices())
    R, pivots = rref(M)
    SR, spivots = to_sympy(M).rref()
    assert plain(R) == from_sympy(SR, QQ) and tuple(pivots) == tuple(spivots)
    assert_int_or_fraction(R.data)
    assert_int_or_fraction(kernel_basis(M))
    span = Span(M.rows, QQ)
    for col in M.columns():
        assert_int_or_fraction([span.add(col) or []])
    assert_int_or_fraction([span.add(data.draw(vectors(QQ, M.rows))) or []])
    sub = Subspace(M.cols, QQ)
    for r in M.data:
        sub.insert(r)
    assert sub.rows == [list(r) for r in R.data[:len(pivots)]]
    assert_int_or_fraction(sub.rows)
    for r in M.data:
        assert_int_or_fraction([sub.reduce(r)])


def test_unit_pivots_keep_integer_matrices_integral():
    M = Matrix.from_rows([[1, 2, 0, 3], [-1, -1, 1, 1], [0, 1, 1, 4]], QQ)
    R, pivots = rref(M)
    assert R.data == ((1, 0, -2, -5), (0, 1, 1, 4), (0, 0, 0, 0))
    assert all(type(x) is int for r in R.data for x in r)
    assert all(type(x) is int for v in kernel_basis(M) for x in v)
    # a pivot of 2 leaves a remainder, and only then is there a Fraction
    R, _ = rref(Matrix.from_rows([[2, 1], [0, 1]], QQ))
    assert R.data == ((1, 0), (0, 1))
    R, _ = rref(Matrix.from_rows([[2, 1]], QQ))
    assert R.data == ((1, Fraction(1, 2)),) and type(R.data[0][1]) is Fraction


# keys (block, rank): two blocks of four coordinates each
IDEAL_KEYS = [(b, r) for b in range(2) for r in range(4)]


@st.composite
def block_vectors(draw, F):
    """A sparse vector over IDEAL_KEYS supported in one block."""
    b = draw(st.integers(0, 1))
    vals = draw(vectors(F, 4))
    return {(b, r): c for r, c in enumerate(vals) if c}


def _minus(u, v):
    out = dict(u)
    for k, c in v.items():
        out[k] = out[k] - c if k in out else -c
    return {k: c for k, c in out.items() if c}


@given(st.data())
def test_echelon_ideal_reduce_is_a_normal_form(data):
    F = data.draw(st.sampled_from([QQ, PrimeField(5)]))
    ideal = _EchelonIdeal(IDEAL_KEYS, lambda k: k[0], lambda k: k[1], F)
    inserted = data.draw(st.lists(block_vectors(F), max_size=6))
    for vec in inserted:
        ideal.insert(vec)
    for vec in inserted:
        assert ideal.reduce(vec) == {}
    v = {}
    for part in data.draw(st.lists(block_vectors(F), max_size=3)):
        v.update(part)
    r = ideal.reduce(v)
    assert ideal.reduce(r) == r
    assert not set(r) & ideal.pivots()
    diff = _minus(v, r)
    for b in range(2):
        assert not ideal.insert({k: c for k, c in diff.items() if k[0] == b})


@given(st.integers(-40, 40), st.integers(-12, 12).filter(bool))
def test_rational_constructors_give_ints_exactly_when_integral(n, d):
    integral = n % d == 0
    for x in (QQ(n, d), QQ.coerce(f"{n}/{d}"), QQ.coerce(Fraction(n, d))):
        assert x == Fraction(n, d)
        assert type(x) is (int if integral else Fraction)
    assert type(QQ.coerce(n)) is int and type(QQ.coerce(str(n))) is int
    assert type(QQ.zero) is int and type(QQ.one) is int


@given(rationals(), rationals().filter(bool))
def test_rational_division_is_exact_and_int_exactly_when_integral(a, b):
    q = QQ.div(a, b)
    assert q == Fraction(a) / Fraction(b)
    assert type(q) is (int if q.denominator == 1 else Fraction)


@given(st.sampled_from(FIELDS[1:]), st.integers(-50, 50), st.integers(1, 50))
def test_prime_field_division_inverts_multiplication(F, a, b):
    a, b = F(a), F(b)
    if not b:
        b = F.one
    assert F.div(a * b, b) == a
