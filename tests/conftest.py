from fractions import Fraction

import pytest
from hypothesis import settings
from sympy import GF, QQ as SQQ
from sympy.polys.matrices import DomainMatrix

from qfab.fixtures import fixture
from qfab.algebra import build_algebra
from qfab.linalg import Matrix

# Property tests draw the same examples on every run, and timing never fails
# them: the suite must give the same verdict on a loaded machine.
settings.register_profile("qfab", derandomize=True, deadline=None)
settings.load_profile("qfab")


# -- sympy as an independent oracle for exact linear algebra ----------------


def to_sympy(M):
    """A ``Matrix`` as a sympy ``DomainMatrix`` over QQ or GF(p)."""
    if M.field.characteristic == 0:
        K = SQQ
        data = [[K(x.numerator, x.denominator) for x in r] for r in M.data]
    else:
        K = GF(M.field.p)
        data = [[K(x.v) for x in r] for r in M.data]
    return DomainMatrix(data, (M.rows, M.cols), K)


def from_sympy(D, F):
    """The entries of a ``DomainMatrix`` as Fractions (over Q) or residues
    in [0, p) (over F_p)."""
    K = D.domain
    if F.characteristic == 0:
        return [[Fraction(int(K.numer(x)), int(K.denom(x))) for x in r]
                for r in D.to_list()]
    return [[int(x) % F.p for x in r] for r in D.to_list()]


def sympy_solve(M, b):
    """One solution x of M x = b, with the free variables set to zero, read
    off sympy's rref of [M | b]; None when there is none."""
    F = M.field
    if not M.rows:
        return [F.zero] * M.cols
    aug = Matrix(M.rows, M.cols + 1, [r + (y,) for r, y in zip(M.data, b)], F)
    R, pivots = to_sympy(aug).rref()
    if M.cols in pivots:
        return None
    entries = from_sympy(R, F)
    x = [F.zero] * M.cols
    for r, pc in enumerate(pivots):
        x[pc] = F.coerce(entries[r][M.cols])
    return x


@pytest.fixture(scope="session")
def double_triangle():
    return build_algebra(fixture("double-triangle"))


@pytest.fixture(scope="session")
def two_ag():
    return build_algebra(fixture("two-ag-square"))


@pytest.fixture(scope="session")
def preproj_a2():
    return build_algebra(fixture("preprojective-a2"))


@pytest.fixture(scope="session")
def preproj_a3():
    return build_algebra(fixture("preprojective-a3"))


@pytest.fixture(scope="session")
def nak_4333():
    from qfab.nakayama import higher_nakayama
    A, pres = higher_nakayama(2, (4, 3, 3, 3))
    return A
