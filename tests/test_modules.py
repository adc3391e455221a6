import random

import pytest

from qfab import modules as md
from qfab.algebra import build_algebra, corner, quotient_by_idempotent_ideal
from qfab.field import QQ, PrimeField
from qfab.fixtures import fixture
from qfab.linalg import Matrix, rank
from qfab.quiver import Presentation, Quiver, path, relation
from qfab.errors import (NotQuotientModule, SummandsNotDistinct,
                         SummandDecomposable)


def test_simple_modules_have_dimension_one(double_triangle):
    for v in double_triangle.vertices:
        S = md.simple_module(double_triangle, v)
        assert S.total_dim == 1
        assert S.validate(full=True)


def test_projective_dimension_vectors_match_path_counts(double_triangle):
    A = double_triangle
    P1 = md.projective_module(A, "1")
    counts = {}
    for i in A.by_source(A.vertex_pos["1"]):
        t = A.basis[i].target
        counts[A.vertices[t]] = counts.get(A.vertices[t], 0) + 1
    assert P1.dim_vector() == {v: counts.get(v, 0) for v in A.vertices}
    assert P1.validate(full=True)


def test_hom_from_projective_counts_dimension(double_triangle):
    A = double_triangle
    rng = random.Random(3)
    for _ in range(10):
        M = md.random_module(A, rng, max_total_dim=8)
        for v in A.vertices:
            P = md.projective_module(A, v)
            assert md.hom_dim(P, M) == M.dims[A.vertex_pos[v]]


def test_hom_between_distinct_simples_vanishes(double_triangle):
    A = double_triangle
    for v in A.vertices:
        for w in A.vertices:
            d = md.hom_dim(md.simple_module(A, v), md.simple_module(A, w))
            assert d == (1 if v == w else 0)


def test_hom_regular_total(double_triangle):
    A = double_triangle
    rng = random.Random(5)
    M = md.random_module(A, rng, max_total_dim=7)
    total = sum(md.hom_dim(md.projective_module(A, v), M) for v in A.vertices)
    assert total == M.total_dim


def test_isomorphism_reflexive_with_identity_witness(double_triangle):
    P = md.projective_module(double_triangle, "3")
    cert = md.is_isomorphic(P, P, seed=1)
    assert cert and cert.witness.is_isomorphism()


def test_isomorphism_distinguishes_simples(double_triangle):
    S1 = md.simple_module(double_triangle, "1")
    S2 = md.simple_module(double_triangle, "2")
    assert not md.is_isomorphic(S1, S2, seed=1)


def test_randomized_isomorphism_agrees_with_exhaustive(preproj_a3):
    A = preproj_a3
    mods = [md.simple_module(A, v) for v in A.vertices]
    mods += [md.projective_module(A, v) for v in A.vertices]
    R1, _ = md.radical_submodule(md.projective_module(A, "2"))
    mods.append(R1)
    small = [M for M in mods if M.total_dim <= 6]
    for i, M in enumerate(small):
        for j, N in enumerate(small):
            if M.dims != N.dims:
                continue
            assert bool(md.is_isomorphic(M, N, seed=9)) == \
                md.is_isomorphic_exhaustive(M, N)


def test_is_isomorphic_symmetric(double_triangle):
    A = double_triangle
    rng = random.Random(8)
    mods = [md.random_module(A, rng, max_total_dim=6) for _ in range(6)]
    for M in mods:
        for N in mods:
            if M.dims == N.dims:
                assert bool(md.is_isomorphic(M, N, seed=2)) == \
                    bool(md.is_isomorphic(N, M, seed=2))


def test_kernel_cokernel_of_identity_and_zero(double_triangle):
    P = md.projective_module(double_triangle, "2")
    ident = md.ModuleMap.identity(P)
    K, _ = md.kernel(ident)
    assert K.total_dim == 0
    Z = md.zero_module(double_triangle)
    zmap = md.ModuleMap.zero(Z, P)
    C, _ = md.cokernel(zmap)
    assert C.dims == P.dims


def test_rank_nullity_per_vertex(double_triangle):
    A = double_triangle
    rng = random.Random(21)
    for _ in range(6):
        M = md.random_module(A, rng, max_total_dim=8)
        N = md.random_module(A, rng, max_total_dim=8)
        homs = md.hom_space(M, N)
        if not homs:
            continue
        f = homs[0]
        K, _ = md.kernel(f)
        I, _ = md.image(f)
        for v in range(A.n_vertices):
            assert K.dims[v] + I.dims[v] == M.dims[v]


def test_radical_strictly_smaller_and_socle_nonzero(double_triangle):
    A = double_triangle
    rng = random.Random(2)
    for _ in range(8):
        M = md.random_module(A, rng, max_total_dim=8)
        if M.total_dim == 0:
            continue
        R, _ = md.radical_submodule(M)
        S, _ = md.socle(M)
        assert R.total_dim < M.total_dim
        assert S.total_dim > 0


def test_top_of_projective_is_simple(double_triangle):
    A = double_triangle
    for v in A.vertices:
        P = md.projective_module(A, v)
        T, _ = md.top(P)
        assert T.total_dim == 1
        assert T.dims[A.vertex_pos[v]] == 1
        R, _ = md.radical_submodule(P)
        assert R.total_dim == P.total_dim - 1


def test_dual_is_involutive(double_triangle):
    A = double_triangle
    M = md.projective_module(A, "3")
    DD = md.dual_module(md.dual_module(M))
    assert DD.algebra is A
    assert DD.dims == M.dims
    for g in A.generators:
        assert DD.action(g) == M.action(g)


def test_restrict_corner_of_simple(double_triangle):
    A = double_triangle
    C = corner(A, ["1", "3", "4"])
    S3 = md.simple_module(A, "3")
    R = md.restrict_to_corner(S3, C)
    assert R.total_dim == 1
    S2 = md.simple_module(A, "2")
    assert md.restrict_to_corner(S2, C).total_dim == 0


def test_restrict_full_corner_keeps_module(double_triangle):
    A = double_triangle
    C = corner(A, list(A.vertices))
    P = md.projective_module(A, "1")
    R = md.restrict_to_corner(P, C)
    assert R.total_dim == P.total_dim


def test_inflate_quotient_roundtrip(double_triangle):
    A = double_triangle
    Abar = quotient_by_idempotent_ideal(A, ["2", "5"])
    for v in Abar.vertices:
        M = md.projective_module(Abar, v)
        up = md.inflate_from_quotient(M, A)
        assert md.is_quotient_module(up, Abar)
        back = md.restrict_from_quotient(up, Abar)
        assert back.dims == M.dims
        assert up.validate()


def test_restrict_from_quotient_rejects_module_not_killed_by_e(double_triangle):
    A = double_triangle
    Abar = quotient_by_idempotent_ideal(A, ["2", "5"])
    P1 = md.projective_module(A, "1")
    assert P1.dims == (2, 1, 1, 1, 1)
    assert not md.is_quotient_module(P1, Abar)
    with pytest.raises(NotQuotientModule, match=r"\['2', '5'\]"):
        md.restrict_from_quotient(P1, Abar)


def _proper_subsets(vertices):
    return [[v for k, v in enumerate(vertices) if (mask >> k) & 1]
            for mask in range(1, (1 << len(vertices)) - 1)]


@pytest.mark.parametrize("name", [
    "double-triangle", "two-ag-square", "canonical-2-211", "beilinson-2",
    "preprojective-a2", "preprojective-a3", "preprojective-a4",
    "preprojective-a5"])
def test_restrict_inverts_inflate_on_quotient_projectives(name):
    A = build_algebra(fixture(name))
    assert A.n_vertices <= 5
    for e in _proper_subsets(A.vertices):
        Abar = quotient_by_idempotent_ideal(A, e)
        for v in Abar.vertices:
            M = md.projective_module(Abar, v)
            back = md.restrict_from_quotient(md.inflate_from_quotient(M, A), Abar)
            assert back.dims == M.dims
            assert all(back.action(i) == M.action(i) for i in range(Abar.dim))


def test_inflated_simple_is_simple(double_triangle):
    A = double_triangle
    Abar = quotient_by_idempotent_ideal(A, ["2", "5"])
    S = md.simple_module(Abar, "1")
    up = md.inflate_from_quotient(S, A)
    assert up.total_dim == 1 and up.dims[A.vertex_pos["1"]] == 1


def test_indecomposability_of_projectives_and_sums(double_triangle):
    A = double_triangle
    P = md.projective_module(A, "4")
    assert md.is_indecomposable(P)
    M, _, _ = md.direct_sum([P, md.simple_module(A, "1")])
    assert not md.is_indecomposable(M)


def test_endomorphism_validation_errors(preproj_a3):
    from qfab.endo import endomorphism_algebra
    A = preproj_a3
    P1 = md.projective_module(A, "1")
    with pytest.raises(SummandsNotDistinct):
        endomorphism_algebra([P1, md.projective_module(A, "1")])
    M, _, _ = md.direct_sum([P1, md.projective_module(A, "2")])
    with pytest.raises(SummandDecomposable):
        endomorphism_algebra([M])


FIXTURES = ["beilinson-2", "canonical-2-211", "canonical-2-221", "double-triangle",
            "two-ag-square"] + [f"preprojective-a{n}" for n in range(2, 7)]


@pytest.mark.parametrize("name", FIXTURES)
def test_free_module_matches_direct_sum_of_projectives(name):
    B = build_algebra(fixture(name))
    for A in (B, B.opposite()):
        first, last = A.vertices[0], A.vertices[-1]
        for verts in (list(A.vertices), [last], [first, last, first]):
            P, _ = md.free_module(A, verts)
            R, _, _ = md.direct_sum([md.projective_module(A, v) for v in verts])
            assert P.dims == R.dims
            for g in A.generators:
                assert P.action(g) == R.action(g)


@pytest.mark.parametrize("name", FIXTURES)
def test_projective_layout_follows_by_source_order(name):
    A = build_algebra(fixture(name))
    zero, one = A.field.zero, A.field.one
    verts = [A.vertices[-1], *A.vertices, A.vertices[-1]]
    dims, pos = md.projective_layout(A, verts)
    for w in range(A.n_vertices):
        # coordinates of vertex w: by summand, then by A.by_source order
        want = [(s, i) for s, v in enumerate(verts)
                for i in A.by_source(A.vertex_pos[v]) if A.basis[i].target == w]
        got = sorted((k, (s, i)) for s, slots in enumerate(pos)
                     for i, (w2, k) in slots.items() if w2 == w)
        assert [k for k, _ in got] == list(range(dims[w]))
        assert [si for _, si in got] == want
    # the generators act by left multiplication in these coordinates
    P, pos2 = md.free_module(A, verts)
    assert pos2 == pos and list(P.dims) == dims
    for g in A.generators:
        bg = A.basis[g]
        for slots in pos:
            for i, (w, k) in slots.items():
                if w != bg.source:
                    continue
                unit = [zero] * dims[w]
                unit[k] = one
                want = [zero] * dims[bg.target]
                for j, c in A.mult(g, i).items():
                    want[slots[j][1]] = c
                assert P.action(g).apply(unit) == want


SMALL_FIXTURES = ["beilinson-2", "canonical-2-211", "double-triangle", "two-ag-square",
                  "preprojective-a2", "preprojective-a3", "preprojective-a4",
                  "preprojective-a5"]
FIELDS = [QQ, PrimeField(2 ** 31 - 1)]
FIELD_IDS = ["Q", "F_2^31-1"]


def _action_by_definition(M):
    """The action of every basis element by its definition: the identity on
    length-0 elements, a generator's own matrix, and otherwise a zero start
    plus the sum of (action(g) * action(u)).scale(c) over A.factor(i)."""
    A = M.algebra
    out = {}
    for i in sorted(range(A.dim), key=lambda i: A.basis[i].length):
        b = A.basis[i]
        if b.length == 0:
            m = Matrix.identity(M.dims[b.source], A.field)
        elif i in M.gen_mats:
            m = M.gen_mats[i]
        else:
            m = Matrix.zero(M.dims[b.target], M.dims[b.source], A.field)
            for c, g, u in A.factor(i):
                m = m + (out[g] * out[u]).scale(c)
        out[i] = m
    return out


def _three_paths_opposite(field):
    """The opposite of x.y + u.v + z.w = 0, three paths from 1 to 5.  Unlike
    the fixtures, its factor table has a coefficient other than 1."""
    Q = Quiver(["1", "2", "3", "4", "5"],
               [("x", "1", "2"), ("y", "2", "5"), ("u", "1", "4"),
                ("v", "4", "5"), ("z", "1", "3"), ("w", "3", "5")])
    rel = relation((1, path(Q, "x", "y")), (1, path(Q, "z", "w")), (1, path(Q, "u", "v")))
    A = build_algebra(Presentation(Q, [rel]), field).opposite()
    assert any(c != field.one for i in range(A.dim) for c, _, _ in A.factor(i) or ())
    return A


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", SMALL_FIXTURES + ["three-paths-op"])
def test_action_matches_its_definition(name, field):
    if name == "three-paths-op":
        A = _three_paths_opposite(field)
    else:
        A = build_algebra(fixture(name), field)
    assert A.n_vertices <= 5
    for M in (md.regular_module(A), md.random_module(A, random.Random(11))):
        want = _action_by_definition(M)
        assert all(M.action(i) == want[i] for i in range(A.dim))
        assert M.validate(full=True)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_cokernel_projection_is_onto_and_kills_the_image(name, field):
    A = build_algebra(fixture(name), field)
    R = md.regular_module(A)
    rng = random.Random(3)
    w = max(range(A.n_vertices), key=lambda v: R.dims[v])
    seed = [field(rng.randrange(-3, 4)) for _ in range(R.dims[w])]
    maps = [md.radical_submodule(R)[1], md.submodule_generated_by(R, [(w, seed)])[1]]
    for f in maps:
        C, pi = md.cokernel(f)
        assert pi.intertwines()
        assert pi.compose(f).is_zero()
        assert all(rank(m) == m.rows for m in pi.mats)
        assert list(C.dims) == [R.dims[v] - rank(f.mats[v]) for v in range(A.n_vertices)]
