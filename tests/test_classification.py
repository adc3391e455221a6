"""The singularity classification of ``reduce_to_selfinjective`` against
oracles that share no code with the reduction.

A singular equivalence preserves K_0(D_sg(A)), the cokernel of the Cartan
matrix C_A, so the non-unit Smith invariants of C_A and of the terminal C_B
must agree.  The singularity category is trivial exactly when gl.dim A is
finite, which ``global_dimension`` decides far past the reduction's cutoff.

For n = 1 the terminal is read off the resolution quiver R(A) of the Kupisch
series (l_0, ..., l_(k-1)): one arrow i -> i + l_i mod k (Ringel, "The
Gorenstein projective modules for the Nakayama algebras I", J. Algebra 385,
2013).  Every component of R(A) holds one cycle, and every cycle has the same
weight, the sum of its l_i divided by k (Shen, "A note on resolution
quivers", J. Algebra Appl. 13, 2014).
"""

import itertools

import pytest
from sympy import Matrix as SMatrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from qfab import homology as hm
from qfab.nakayama import higher_nakayama, is_valid_kupisch, reduce_to_selfinjective

SERIES = [(n, s) for n in (1, 2, 3) for k in (1, 2, 3)
          for s in itertools.product(range(1, 5), repeat=k) if is_valid_kupisch(s)]
N1_SERIES = [s for k in range(1, 6) for s in itertools.product(range(1, 6), repeat=k)
             if is_valid_kupisch(s)]


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


def resolution_quiver_terminal(series):
    """The n = 1 terminal that R(A) predicts, as (status, terminal series).

    A linear series (l_0 = 1), or R(A) connected with weight 1, has finite
    gl.dim (Shen, "A note on homological properties of Nakayama algebras",
    Arch. Math. 108, 2017), so the singularity is trivial.  Otherwise the
    terminal is self-injective with k' = the number of vertices on cycles and
    l' = the number of cycles times the weight.  That (k', l') half is
    observed on ``N1_SERIES``, not proved: Shen, "The singularity category of
    a Nakayama algebra" (J. Algebra 429, 2015) describes D_sg(A) through R(A)
    and is where it should be checked before it is called a theorem.
    """
    k = len(series)
    if series[0] == 1:
        return "trivial-singularity", None
    succ = [(i + l) % k for i, l in enumerate(series)]
    cycles = []
    for i in range(k):
        for _ in range(k):
            i = succ[i]     # k steps from any vertex end on its cycle
        if not any(i in c for c in cycles):
            cycle = [i]
            while succ[cycle[-1]] != i:
                cycle.append(succ[cycle[-1]])
            cycles.append(cycle)
    weights = {sum(series[i] for i in c) // k for c in cycles}
    assert len(weights) == 1, "cycles of R(A) of different weights"
    weight = weights.pop()
    if len(cycles) == 1 and weight == 1:
        return "trivial-singularity", None
    return "self-injective", (len(cycles) * weight,) * sum(map(len, cycles))


def test_n1_terminal_is_read_off_the_resolution_quiver():
    assert len(N1_SERIES) == 547
    mismatches = []
    for series in N1_SERIES:
        trace = reduce_to_selfinjective(1, series)
        got = (trace.status, trace.terminal_series.entries
               if trace.status == "self-injective" else None)
        if got != resolution_quiver_terminal(series):
            mismatches.append((series, got))
    assert mismatches == []

