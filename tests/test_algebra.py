import pytest

from qfab.quiver import Quiver, Presentation, path, relation
from qfab.algebra import (build_algebra, build_algebra_blunt, corner,
                          quotient_by_idempotent_ideal, quiver_of,
                          check_presentation_isomorphism, generator_lifts)
from qfab.errors import NotAdmissible, QfabError
from qfab.fixtures import fixture
from qfab.field import PrimeField


def test_one_vertex_no_arrows():
    A = build_algebra(Presentation(Quiver(["1"], []), []))
    assert A.dim == 1
    A.validate()


def test_preprojective_a2_dimension_and_basis():
    A = build_algebra(fixture("preprojective-a2"))
    assert A.dim == 4
    words = sorted(b.word for b in A.basis)
    assert words == [(), (), (0,), (1,)]
    A.validate()


# golden dimensions computed by the independent path-enumeration engine
GOLDEN_DIMS = {
    "double-triangle": 30,
    "two-ag-square": 17,
    "preprojective-a2": 4,
    "preprojective-a3": 10,
    "canonical-2-221": 54,
    "canonical-2-211": 30,
    "beilinson-2": 15,
}


@pytest.mark.parametrize("name,dim", sorted(GOLDEN_DIMS.items()))
def test_fixture_dimensions_golden(name, dim):
    assert build_algebra(fixture(name)).dim == dim


@pytest.mark.parametrize("name", sorted(GOLDEN_DIMS))
def test_graded_engine_agrees_with_blunt_oracle(name):
    pres = fixture(name)
    A = build_algebra(pres)
    pres.length_bound = A.max_len + 2
    B = build_algebra_blunt(pres)
    assert A.dim == B.dim
    assert [b.word for b in A.basis] == [b.word for b in B.basis]
    # full structure-constant agreement
    for i in range(A.dim):
        for j in range(A.dim):
            assert A.mult(i, j) == B.mult(i, j)


def test_validate_all_small_fixtures():
    for name in ["double-triangle", "two-ag-square", "preprojective-a2",
                 "preprojective-a3"]:
        build_algebra(fixture(name)).validate()


def test_not_admissible_cycle_without_relations():
    Q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(NotAdmissible):
        build_algebra(Presentation(Q, [], length_bound=8))


def test_opposite_involution_and_table(double_triangle):
    A = double_triangle
    op = A.opposite()
    assert op.opposite() is A
    for i in range(A.dim):
        for j in range(A.dim):
            assert op.mult(i, j) == A.mult(j, i)
    assert op.dim == A.dim


def test_corner_full_vertex_set_is_identity(double_triangle):
    A = double_triangle
    C = corner(A, list(A.vertices))
    assert C.dim == A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            assert C.mult(i, j) == A.mult(i, j)


def test_quotient_by_empty_set_is_identity(double_triangle):
    A = double_triangle
    Abar = quotient_by_idempotent_ideal(A, [])
    assert Abar.dim == A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            assert Abar.mult(i, j) == A.mult(i, j)


def test_quotient_all_vertices_is_zero(double_triangle):
    Abar = quotient_by_idempotent_ideal(double_triangle, list("12345"))
    assert Abar.is_zero()


def test_quotient_double_triangle_prints_semisimple(double_triangle):
    Abar = quotient_by_idempotent_ideal(double_triangle, ["2", "3", "5"])
    assert Abar.dim == 2
    assert sorted(Abar.vertices) == ["1", "4"]
    assert all(b.length == 0 for b in Abar.basis)


def test_quotient_basis_avoids_killed_vertices(two_ag):
    Abar = quotient_by_idempotent_ideal(two_ag, ["4"])
    killed = {two_ag.vertex_pos["4"]}
    for b in Abar.basis:
        # representative words never pass through the killed vertex
        word_vertices = set()
        Q = two_ag.presentation.quiver
        for a_pos in b.word:
            word_vertices.add(Q.arrows[a_pos].source)
            word_vertices.add(Q.arrows[a_pos].target)
        assert "4" not in word_vertices


def test_dimension_splits_by_idempotent(double_triangle):
    A = double_triangle
    for E in [["1"], ["1", "3"], ["2", "4", "5"]]:
        rest = [v for v in A.vertices if v not in E]
        epos = {A.vertex_pos[v] for v in E}
        blocks = [0, 0, 0, 0]
        for b in A.basis:
            si = b.source in epos
            ti = b.target in epos
            blocks[(0 if si else 1) + (0 if ti else 2)] += 1
        assert sum(blocks) == A.dim
        assert blocks[0] == corner(A, E).dim
        if rest:
            assert blocks[3] == corner(A, rest).dim


def test_corner_radical_matches_parent_radical(double_triangle):
    A = double_triangle
    for E in [["1", "3", "4"], ["2", "3", "5"], ["1", "2"]]:
        C = corner(A, E)
        epos = {A.vertex_pos[v] for v in E}
        expected = sum(1 for b in A.basis
                       if b.length >= 1 and b.source in epos and b.target in epos)
        assert len(C.radical_indices) == expected


def test_quiver_of_roundtrip_small():
    for name in ["preprojective-a2", "preprojective-a3", "two-ag-square",
                 "double-triangle"]:
        A = build_algebra(fixture(name))
        ext = quiver_of(A)
        assert check_presentation_isomorphism(
            ext.presentation, A, {v: v for v in A.vertices}, ext.arrow_lift)


def test_quiver_of_semisimple_has_no_arrows():
    A = build_algebra(Presentation(Quiver(["1", "2"], []), []))
    ext = quiver_of(A)
    assert ext.presentation.quiver.n_arrows == 0
    assert not ext.presentation.relations


def test_quiver_of_preprojective_a2_counts():
    A = build_algebra(fixture("preprojective-a2"))
    ext = quiver_of(A)
    assert ext.presentation.quiver.n_arrows == 2
    assert len(ext.presentation.relations) == 2


def test_quiver_of_corner_recovers_double_quiver(two_ag):
    C = corner(two_ag, ["1", "2", "3"])
    ext = quiver_of(C)
    arrows = sorted((a.source, a.target) for a in ext.presentation.quiver.arrows)
    assert arrows == [("1", "2"), ("1", "3"), ("2", "1"), ("3", "1")]


def test_prime_field_build_matches_rational_dimension():
    pres = fixture("double-triangle")
    A = build_algebra(pres)
    B = build_algebra(pres, PrimeField(10007))
    assert A.dim == B.dim


def test_mixed_length_relations_blunt_engine():
    # inhomogeneous admissible ideal: b*a - (d*c*a) style with a 2-vs-3 mix
    Q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"),
                                 ("c", "2", "2")])
    rels = [
        relation((1, path(Q, "a", "b")), (-1, path(Q, "a", "c", "b"))),
        relation(path(Q, "c", "c")),
    ]
    pres = Presentation(Q, rels, length_bound=8)
    A = build_algebra(pres)
    A.validate()
    # b*a = b*c*a = b*c*c*a = ... = 0 is NOT implied; the ideal identifies
    # b*a with b*c*a, and c^2 = 0 truncates: dim check against hand count
    # basis: e1,e2,e3, a, b, c, ba=bca, ca, bc: 9
    assert A.dim == 9


def test_corner_and_quotient_are_memoised_per_vertex_set(double_triangle):
    A = double_triangle
    C = corner(A, ["3", "1"])
    assert C is corner(A, ["1", "3"])
    Abar = quotient_by_idempotent_ideal(A, ["3", "1"])
    assert Abar is quotient_by_idempotent_ideal(A, ("1", "3"))
    red = A.idempotent_reduction({"1", "3"})
    assert C.reduction is red and Abar.reduction is red
    assert red.parent is A and red.vertices == ("1", "3")
    assert A.reduction is None
    with pytest.raises(QfabError, match="unknown vertices"):
        corner(A, ["1", "9"])
    with pytest.raises(QfabError, match="nonempty"):
        corner(A, [])


def test_generator_lifts_need_one_generator_per_block():
    line = Presentation(Quiver(["1", "2"], [("a", "1", "2")]), [])
    kronecker = build_algebra(Presentation(
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), []))
    A = build_algebra(line)
    vm = {"1": "1", "2": "2"}
    lifts = generator_lifts(line, A, vm)
    assert lifts == {"a": {A.generators[0]: A.field.one}}
    assert check_presentation_isomorphism(line, A, vm, lifts)
    assert generator_lifts(line, kronecker, vm) is None
    assert generator_lifts(line, A, {"1": "2", "2": "1"}) is None


def test_sign_search_aligns_commutative_with_anticommutative_square():
    Q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"),
                                      ("c", "1", "3"), ("d", "3", "4")])
    ab, cd = path(Q, "a", "b"), path(Q, "c", "d")
    commutative = Presentation(Q, [relation((1, ab), (-1, cd))])
    B = build_algebra(Presentation(Q, [relation((1, ab), (1, cd))]))
    vm = {v: v for v in B.vertices}
    # the all-plus lift is rejected
    assert not check_presentation_isomorphism(
        commutative, B, vm, generator_lifts(commutative, B, vm))
