import hashlib
from itertools import combinations

import pytest

from qfab import modules as md
from qfab.quiver import Quiver, Presentation, path, relation
from qfab.algebra import (build_algebra, build_algebra_blunt, corner,
                          quotient_by_idempotent_ideal, quiver_of,
                          check_presentation_isomorphism, generator_lifts,
                          FDAlgebra, _EchelonIdeal)
from qfab.errors import NotAdmissible, QfabError
from qfab.fixtures import fixture, fixture_names
from qfab.field import QQ, PrimeField
from qfab.linalg import Subspace
from qfab.nakayama import higher_nakayama, reduce_to_selfinjective


def test_one_vertex_no_arrows():
    A = build_algebra(Presentation(Quiver(["1"], []), []))
    assert A.dim == 1
    A.validate()


def test_quiver_vertices_are_ids_and_a_path_word_needs_an_arrow():
    Q = Quiver([1, "2"], [("a", "1", "2")])
    assert Q.vertices == ["1", "2"] and Q.vertex_index == {"1": 0, "2": 1}
    assert repr(path(Q, "a")) == "a"
    with pytest.raises(QfabError, match="at least one arrow"):
        path(Q)
    with pytest.raises(QfabError, match="duplicate vertex id '1'"):
        Quiver(["1", 1], [])


def test_path_words_are_equal_exactly_when_their_arrows_are():
    Q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2")])
    ab, ab_again = path(Q, "a", "b"), path(Q, "a", "b")
    assert ab is not ab_again and ab == ab_again and hash(ab) == hash(ab_again)
    assert len({ab, ab_again}) == 1
    others = [path(Q, "c", "b"), path(Q, "a"), path(Q, "b")]
    for w in others:
        assert w.arrows != ab.arrows and w != ab
    assert len({ab, *others}) == 4


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


# higher Nakayama algebras the reduction and query pipelines build, and
# fixtures over F_3
ORACLE_NAKAYAMA = {f"nakayama-{n}-{''.join(map(str, series))}": (n, series)
                   for n, series in [(1, (4, 4, 3, 3)), (2, (4, 3, 3, 3)),
                                     (3, (3, 2, 2)), (2, (5, 4, 3, 3, 3, 4)),
                                     (3, (4, 3, 3, 3)), (2, (6, 5, 4, 4, 4, 5)),
                                     (3, (3, 3, 3))]}
ORACLE_F3 = {f"{name}-F3": name
             for name in ["double-triangle", "preprojective-a3", "canonical-2-211"]}


def _loop_x2_x3():
    """One loop x with the relations x^2 and x^3: x^3 is implied by x^2, so
    both engines stop at the least nilpotency bound, 2."""
    Q = Quiver(["1"], [("x", "1", "1")])
    return Presentation(Q, [relation(path(Q, "x", "x")),
                            relation(path(Q, "x", "x", "x"))])


def _oracle_input(name):
    """The presentation and field of one blunt-oracle case."""
    if name in ORACLE_NAKAYAMA:
        return higher_nakayama(*ORACLE_NAKAYAMA[name])[1], QQ
    if name in ORACLE_F3:
        return fixture(ORACLE_F3[name]), PrimeField(3)
    if name == "loop-x2-x3":
        return _loop_x2_x3(), QQ
    return fixture(name), QQ


@pytest.mark.parametrize("name", sorted(GOLDEN_DIMS) + sorted(ORACLE_NAKAYAMA)
                         + sorted(ORACLE_F3) + ["loop-x2-x3"])
def test_graded_engine_agrees_with_blunt_oracle(name):
    pres, field = _oracle_input(name)
    A = build_algebra(pres, field)
    pres.length_bound = A.max_len + 2
    B = build_algebra_blunt(pres, field)
    assert A.dim == B.dim
    assert [b.word for b in A.basis] == [b.word for b in B.basis]
    assert A.generators == B.generators
    assert [A.factor(i) for i in range(A.dim)] == [B.factor(i) for i in range(B.dim)]
    assert A.max_len == B.max_len
    if name == "loop-x2-x3":
        assert A.max_len == 2
    # full structure-constant agreement
    for i in range(A.dim):
        for j in range(A.dim):
            assert A.mult(i, j) == B.mult(i, j)


# The Kupisch series whose builds the digest below pins, beside every fixture
PINNED_SERIES = [(1, (4, 4, 3, 3)), (1, (4, 3, 3, 3)), (1, (3, 3, 3)),
                 (2, (4, 3, 3, 3)), (2, (5, 4, 3, 3, 3, 4)),
                 (2, (6, 5, 4, 4, 4, 5)), (2, (7, 6, 5, 5, 5, 6)),
                 (2, (5, 4, 4, 4, 4)), (3, (3, 2, 2)), (3, (3, 3, 3)),
                 (3, (4, 3, 3, 3)), (3, (5, 4, 4, 4, 4))]
# sha256 of what build_algebra makes of them over Q, F_3 and F_(2^31-1): a
# builder change that keeps its output keeps this value
PINNED_BUILD_DIGEST = "4f68c1cefb5f8a39937b3546f6725d33c46467c44c13d2d0dc4cfe3695031f64"


def _build_digest():
    """sha256 over each pinned build: basis words and endpoints, generators,
    factor tables, max_len and every structure constant."""
    h = hashlib.sha256()
    presentations = ([fixture(name) for name in fixture_names()]
                     + [higher_nakayama(n, s)[1] for n, s in PINNED_SERIES])
    for field in (QQ, PrimeField(3), PrimeField(2**31 - 1)):
        for pres in presentations:
            A = build_algebra(pres, field)
            factors = [sorted(A.factor(i) or (), key=lambda t: t[1:])
                       for i in range(A.dim)]
            table = [[sorted(A.mult(i, j).items()) for j in range(A.dim)]
                     for i in range(A.dim)]
            h.update(repr((pres.name, [(b.word, b.source, b.target) for b in A.basis],
                           A.generators, factors, A.max_len, table)).encode())
    return h.hexdigest()


def test_builder_output_is_pinned():
    """Any change to the builders must leave their output as it was."""
    assert _build_digest() == PINNED_BUILD_DIGEST


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", ["double-triangle", "two-ag-square",
                                  "preprojective-a3"])
def test_idempotent_quotient_agrees_with_cokernel_oracle(name, field):
    """For every vertex set S, A/<e_S> is an algebra of the dimension of
    A/AeA, built as the cokernel of the trace of the P_u (u in S) in A."""
    A = build_algebra(fixture(name), field)
    R = md.regular_module(A)
    for k in range(A.n_vertices + 1):
        for S in combinations(A.vertices, k):
            Abar = quotient_by_idempotent_ideal(A, S)
            Abar.validate()
            seeds = [(v, col) for u in S
                     for f in md.hom_space(md.projective_module(A, u), R)
                     for v in range(A.n_vertices) for col in f.mats[v].columns()]
            _, trace = md.submodule_generated_by(R, seeds)
            assert Abar.dim == md.cokernel(trace)[0].total_dim, S


def _all_products_quotient(A, vertex_ids):
    """Reference A/<e>: AeA closed under every product x . e_v . y, the
    blocks at killed vertices included.  Returns the kept parent basis, the
    kept vertices and the structure constants."""
    kill = {A.vertex_pos[v] for v in vertex_ids}
    ideal = _EchelonIdeal(range(A.dim),
                          lambda i: (A.basis[i].source, A.basis[i].target),
                          lambda i: (A.basis[i].length, A.basis[i].word), A.field)
    for v in sorted(kill):
        for y in A.by_target(v):
            for x in A.by_source(v):
                ideal.insert(A.mult(x, y))
    pivot = ideal.pivots()
    keep_pos = [p for p in range(A.n_vertices)
                if p not in kill and A.idempotent_index[p] not in pivot]
    keep = [i for i, b in enumerate(A.basis) if i not in pivot
            and b.source in keep_pos and b.target in keep_pos]
    at = {i: k for k, i in enumerate(keep)}
    table = [[{at[k]: c for k, c in ideal.reduce(A.mult(i, j)).items() if k in at}
              for j in keep] for i in keep]
    return keep, [A.vertices[p] for p in keep_pos], table


def _assert_quotient_matches_reference(A, vertex_ids):
    want = _all_products_quotient(A, vertex_ids)
    Abar = quotient_by_idempotent_ideal(A, vertex_ids)
    table = [[Abar.mult(i, j) for j in range(Abar.dim)] for i in range(Abar.dim)]
    got = (A.idempotent_reduction(vertex_ids).keep["quotient"], Abar.vertices, table)
    assert got == want, (A.name, sorted(vertex_ids))


SMALL_FIXTURE_NAMES = [name for name in fixture_names()
                       if fixture(name).quiver.n_vertices <= 8]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", SMALL_FIXTURE_NAMES)
def test_kept_block_quotient_matches_all_products_closure(name, field):
    """A/<e> closed only between kept vertices has the basis, vertices and
    structure constants of the closure under every product, for every
    vertex set of the fixture and of its opposite."""
    A = build_algebra(fixture(name), field)
    for B in (A, A.opposite()):
        for k in range(B.n_vertices + 1):
            for S in combinations(B.vertices, k):
                _assert_quotient_matches_reference(B, S)


def test_kept_block_quotient_matches_reference_at_reduction_stages(monkeypatch):
    """The stage quotients of one reduction, where the second pass of each
    round takes the quotient of a corner."""
    made = []
    original = FDAlgebra.idempotent_reduction

    def record(self, vertex_ids):
        red = original(self, vertex_ids)
        made.append(red)
        return red

    monkeypatch.setattr(FDAlgebra, "idempotent_reduction", record)
    reduce_to_selfinjective(2, (5, 4, 3, 3, 3, 4))
    monkeypatch.undo()
    built = {id(red): red for red in made if "quotient" in red.keep}
    assert any(red.parent.reduction is not None
               and "corner" in red.parent.reduction.keep
               and red.parent.reduction.corner is red.parent
               for red in built.values())
    for red in built.values():
        _assert_quotient_matches_reference(red.parent, red.vertices)


@pytest.mark.parametrize("name,S", [("double-triangle", ["2"]),
                                    ("double-triangle", ["2", "3", "5"]),
                                    ("canonical-2-211", ["1", "4"])])
def test_quotient_inserts_no_product_with_a_killed_endpoint(name, S, monkeypatch):
    """Building A/<e> closes AeA only between kept vertices: no vector put
    into the ideal has a killed source or target."""
    A = build_algebra(fixture(name))
    kill = {A.vertex_pos[v] for v in S}
    inserted = []
    original = _EchelonIdeal.insert

    def record(self, vec):
        inserted.append(vec)
        return original(self, vec)

    monkeypatch.setattr(_EchelonIdeal, "insert", record)
    quotient_by_idempotent_ideal(A, S)
    assert inserted
    assert not [i for vec in inserted for i in vec
                if {A.basis[i].source, A.basis[i].target} & kill]


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
    assert Abar.dim == 0


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


def _derived_algebras(A):
    """A, every corner and quotient of A and of its opposite by a vertex set,
    and the opposite of each."""
    out = []
    for B in (A, A.opposite()):
        out.append(B)
        for k in range(B.n_vertices + 1):
            for S in combinations(B.vertices, k):
                out += [corner(B, S)] if k else []
                out.append(quotient_by_idempotent_ideal(B, S))
    return out + [C.opposite() for C in out]


def _assert_generator_data(A):
    """Every factor term is (c, g, u) with g a generator and u shorter than
    the element, the terms recombine to the element through ``mult``, and
    the generators are independent modulo the products of radical elements."""
    F, basis, gens = A.field, A.basis, set(A.generators)
    for i in range(A.dim):
        terms = A.factor(i)
        if terms is None:
            assert i in gens or basis[i].length == 0
            continue
        assert i not in gens
        got = {}
        for c, g, u in terms:
            assert g in gens and basis[u].length < basis[i].length
            for k, x in A.mult(g, u).items():
                got[k] = got.get(k, F.zero) + c * x
        assert {k: x for k, x in got.items() if x} == {i: F.one}
    rad = A.radical_indices
    products = Subspace(A.dim, F)
    for prod in filter(None, (A.mult(a, b) for a in rad for b in rad)):
        products.insert([prod.get(k, F.zero) for k in range(A.dim)])
    for g in A.generators:
        assert products.insert([F.one if k == g else F.zero for k in range(A.dim)])


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", [name for name in fixture_names()
                                  if fixture(name).quiver.n_vertices <= 6])
def test_derived_algebras_factor_through_generators(name, field):
    for B in _derived_algebras(build_algebra(fixture(name), field)):
        _assert_generator_data(B)


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
