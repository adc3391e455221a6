import pytest

from qfab import modules as md, homology as hm, fabric as fb
from qfab.algebra import build_algebra, check_presentation_isomorphism, generator_lifts
from qfab.endo import endomorphism_algebra
from qfab.errors import QfabError, SummandDecomposable
from qfab.field import QQ, PrimeField
from qfab.fixtures import fixture
from qfab.linalg import Matrix
from qfab.quiver import Presentation, Quiver


def test_end_of_projectives_recovers_algebra(preproj_a3):
    A = preproj_a3
    data = endomorphism_algebra([md.projective_module(A, v) for v in A.vertices])
    B = data.algebra
    assert B.dim == A.dim
    vm = {"m0": "1", "m1": "2", "m2": "3"}
    lifts = generator_lifts(data.presentation, A, vm)
    assert lifts is not None
    assert check_presentation_isomorphism(data.presentation, A, vm, lifts)


def test_end_of_single_simple(double_triangle):
    data = endomorphism_algebra([md.simple_module(double_triangle, "1")])
    assert data.algebra.dim == 1


def test_arrow_maps_compose_like_the_algebra(preproj_a3):
    A = preproj_a3
    P = [md.projective_module(A, v) for v in A.vertices]
    data = endomorphism_algebra(P)
    B = data.algebra
    # multiply two arrow basis elements and compare against composed maps
    for i in range(B.dim):
        bi = B.basis[i]
        if bi.length != 2:
            continue
        phi = data.basis_map(i)
        assert not phi.is_zero()


def test_auslander_gorenstein_endomorphism(preproj_a3):
    A = preproj_a3
    P = {v: md.projective_module(A, v) for v in A.vertices}
    T, _ = md.radical_submodule(P["2"])
    data = endomorphism_algebra([T, P["1"], P["2"], P["3"]])
    B = data.algebra
    assert B.dim == 17
    dd = hm.dominant_dimension(B, cutoff=8)
    g, idim, _ = hm.gorenstein_dimension(B, cutoff=8)
    assert dd.is_finite and dd.value >= 3
    assert idim.is_finite and idim.value <= 3
    # the designated idempotent (summands T, P1, P3) is fabric with the
    # regular-module summands as companion
    e, _ = fb.check_fabric_definitional(B, ["m0", "m1", "m3"])
    assert sorted(e) == ["m1", "m2", "m3"]


def test_endomorphism_matches_two_ag_fixture(preproj_a3, two_ag):
    A = preproj_a3
    P = {v: md.projective_module(A, v) for v in A.vertices}
    T, _ = md.radical_submodule(P["2"])
    data = endomorphism_algebra([T, P["1"], P["2"], P["3"]])
    B = data.algebra
    pres = fixture("two-ag-square")
    vm = {"1": "m2", "2": "m1", "3": "m3", "4": "m0"}
    lifts = generator_lifts(pres, B, vm)
    assert lifts is not None
    assert check_presentation_isomorphism(pres, B, vm, lifts)


def _kronecker_algebra():
    return build_algebra(Presentation(
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), []))


def _kronecker_module(A, b):
    """Q^n => Q^n over the Kronecker algebra A, with a = 1 and the n x n b."""
    n = len(b)
    ga, gb = A.generators
    return md.Representation(A, [n, n], {ga: Matrix.identity(n, A.field),
                                         gb: Matrix(n, n, b, A.field)})


ROTATION, DIAGONAL = [[0, -1], [1, 0]], [[1, 0], [0, 2]]


@pytest.mark.parametrize("b", [ROTATION, DIAGONAL], ids=["rotation", "diagonal"])
def test_is_indecomposable_decides_a_split_local_endomorphism_ring(b):
    A = _kronecker_algebra()
    M = _kronecker_module(A, b)
    # End(M) is the matrices commuting with b, two-dimensional and semisimple
    # for both (its trace form has rank 2, so rad End(M) = 0): End(M)/rad is
    # not the ground field, so both get False
    assert len(md.hom_space(M, M)) == 2
    assert md._end_top_dim(M) == 2
    assert not md.is_indecomposable(M)
    with pytest.raises(SummandDecomposable, match="End/rad is not the ground field"):
        endomorphism_algebra([M])
    J = md.ModuleMap(M, M, [Matrix(2, 2, b, A.field)] * 2)
    assert J.intertwines()
    if b == ROTATION:
        # J^2 = -1: End(M) = Q(i) is a field, so M is indecomposable
        assert J.compose(J).mats == md.ModuleMap.identity(M).scale(-1).mats
    else:
        # M is the sum of the modules Q => Q with b = 1 and b = 2
        lines = [_kronecker_module(A, [[c]]) for c in (1, 2)]
        assert md.is_isomorphic(M, md.direct_sum(lines)[0])


def _modules_every_field_builds(A):
    """Projectives, injectives, truncated projectives, radicals of
    projectives and sums with P_v for the first vertex v: the same modules
    over every field."""
    P = [md.projective_module(A, v) for v in A.vertices]
    I = [md.injective_module(A, v) for v in A.vertices]
    mods = P + I + [M for _, _, M in md.truncated_projectives(A)]
    mods += [md.radical_submodule(X)[0] for X in P]
    return mods + [md.direct_sum([P[0], X])[0] for X in P + I]


@pytest.mark.parametrize("name", ["double-triangle", "preprojective-a3",
                                  "two-ag-square"])
def test_is_indecomposable_over_a_large_prime_agrees_with_q(name):
    answers = [[md.is_indecomposable(M) for M in
                _modules_every_field_builds(build_algebra(fixture(name), field))]
               for field in (QQ, PrimeField(101))]
    assert answers[0] == answers[1]
    assert True in answers[0] and False in answers[0]


@pytest.mark.parametrize("p", [5, 101])
def test_end_of_projectives_builds_over_a_prime_above_their_dimensions(p):
    A = build_algebra(fixture("preprojective-a3"), PrimeField(p))
    data = endomorphism_algebra([md.projective_module(A, v) for v in A.vertices])
    assert data.algebra.dim == 10


def test_end_of_projectives_over_f3_names_the_dimension_bound():
    A = build_algebra(fixture("preprojective-a3"), PrimeField(3))
    P = [md.projective_module(A, v) for v in A.vertices]
    assert max(X.total_dim for X in P) == 4
    with pytest.raises(QfabError, match="characteristic 0 or above dim M = 3, not 3"):
        endomorphism_algebra(P)
