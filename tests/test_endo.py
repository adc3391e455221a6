from qfab import modules as md, homology as hm, fabric as fb
from qfab.algebra import check_presentation_isomorphism, generator_lifts
from qfab.endo import endomorphism_algebra
from qfab.fixtures import fixture


def test_end_of_projectives_recovers_algebra(preproj_a3):
    A = preproj_a3
    data = endomorphism_algebra([md.projective_module(A, v) for v in A.vertices],
                                seed=0)
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
    data = endomorphism_algebra(P, seed=0)
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
    data = endomorphism_algebra([T, P["1"], P["2"], P["3"]], seed=0)
    B = data.algebra
    assert B.dim == 17
    dd = hm.dominant_dimension(B, cutoff=8)
    g, idim, _ = hm.gorenstein_dimension(B, cutoff=8)
    assert dd.is_finite and dd.value >= 3
    assert idim.is_finite and idim.value <= 3
    # the designated idempotent (summands T, P1, P3) is fabric with the
    # regular-module summands as companion
    e, _ = fb.check_fabric_definitional(B, ["m0", "m1", "m3"], seed=0)
    assert sorted(e) == ["m1", "m2", "m3"]


def test_endomorphism_matches_two_ag_fixture(preproj_a3, two_ag):
    A = preproj_a3
    P = {v: md.projective_module(A, v) for v in A.vertices}
    T, _ = md.radical_submodule(P["2"])
    data = endomorphism_algebra([T, P["1"], P["2"], P["3"]], seed=0)
    B = data.algebra
    pres = fixture("two-ag-square")
    vm = {"1": "m2", "2": "m1", "3": "m3", "4": "m0"}
    lifts = generator_lifts(pres, B, vm)
    assert lifts is not None
    assert check_presentation_isomorphism(pres, B, vm, lifts)
