"""The singularity classification of ``reduce_to_selfinjective`` against a
K_0 oracle that shares no code with the reduction.

A singular equivalence preserves K_0(D_sg(A)), the cokernel of the Cartan
matrix C_A, so the non-unit Smith invariants of C_A and of the terminal C_B
must agree.  The singularity category is trivial exactly when gl.dim A is
finite, which ``global_dimension`` decides far past the reduction's cutoff.
"""

import itertools

import pytest
from sympy import Matrix as SMatrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from qfab import homology as hm
from qfab.nakayama import higher_nakayama, is_valid_kupisch, reduce_to_selfinjective

SERIES = [(n, s) for n in (1, 2, 3) for k in (1, 2, 3)
          for s in itertools.product(range(1, 5), repeat=k) if is_valid_kupisch(s)]


def cokernel_invariants(A):
    """The Smith invariants of the Cartan matrix of A other than 1: the
    cyclic factors of its cokernel over Z (0 for a factor Z)."""
    n = A.n_vertices
    C = [[0] * n for _ in range(n)]
    for b in A.basis:
        C[b.source][b.target] += 1
    D = smith_normal_form(SMatrix(C), domain=ZZ)
    return sorted(abs(int(D[i, i])) for i in range(n) if abs(D[i, i]) != 1)


def test_slice_size():
    assert len(SERIES) == 120


@pytest.mark.parametrize("n, series", SERIES, ids=str)
def test_reduction_preserves_k0_of_the_singularity_category(n, series):
    A, _ = higher_nakayama(n, series)
    trace = reduce_to_selfinjective(n, series)
    assert trace.status in ("self-injective", "trivial-singularity")
    assert cokernel_invariants(A) == cokernel_invariants(trace.terminal)
    finite = hm.global_dimension(A, cutoff=48).is_finite
    assert (trace.status == "trivial-singularity") == finite
