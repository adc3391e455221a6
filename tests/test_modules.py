import functools
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import sympy_solve
from random_modules import random_module
from qfab import modules as md
from qfab.algebra import build_algebra, corner, quotient_by_idempotent_ideal
from qfab.field import QQ, PrimeField
from qfab.fixtures import fixture
from qfab.linalg import Matrix, from_columns, kernel_basis, rank, unit_vectors
from qfab.quiver import Presentation, Quiver, path, relation
from qfab.errors import (DimensionMismatch, InputError, NotQuotientModule, QfabError,
                         SummandsNotDistinct, SummandDecomposable)


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
        M = random_module(A, rng, max_total_dim=8)
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
    M = random_module(A, rng, max_total_dim=7)
    total = sum(md.hom_dim(md.projective_module(A, v), M) for v in A.vertices)
    assert total == M.total_dim


def test_isomorphism_reflexive_with_identity_witness(double_triangle):
    P = md.projective_module(double_triangle, "3")
    cert = md.is_isomorphic(P, P)
    assert cert and cert.witness.is_isomorphism()


def test_isomorphism_distinguishes_simples(double_triangle):
    S1 = md.simple_module(double_triangle, "1")
    S2 = md.simple_module(double_triangle, "2")
    assert not md.is_isomorphic(S1, S2)


ISO_REASONS = {"dimension vectors differ", "Hom space is zero", "local-basis",
               "trace-rank", "exhaustive", "undecided"}
# the reasons of a no over Q, and over F_p with p > dim M + dim N
EXACT_REASONS = {"dimension vectors differ", "Hom space is zero", "local-basis",
                 "trace-rank"}


def _arrow_module(A, s, t):
    """k at the vertices s and t, with the arrow s -> t acting as 1."""
    g = next(g for g in A.generators_from(A.vertex_pos[s])
             if A.vertices[A.basis[g].target] == t)
    dims = [int(v in (s, t)) for v in A.vertices]
    return md.Representation(A, dims, {g: Matrix.identity(1, A.field)})


def _checked_isomorphism(M, N):
    """``is_isomorphic(M, N)``, with its witness or its reason checked."""
    cert = md.is_isomorphic(M, N)
    if cert:
        phi = cert.witness
        assert phi.source is M and phi.target is N
        assert phi.is_isomorphism() and phi.intertwines()
    else:
        p = M.field.characteristic
        exact = not p or p > M.total_dim + N.total_dim
        assert cert.reason in (EXACT_REASONS if exact else ISO_REASONS)
    return cert


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                   PrimeField(2**31 - 1)],
                         ids=["Q", "F2", "F3", "F2147483647"])
def test_isomorphism_agrees_with_exhaustive_in_every_field(field):
    """Every answer matches the exhaustive grid where the grid is small
    enough to walk, every yes carries a verified isomorphism, and every no
    names the step that decided it, an exact one over Q and the large prime.
    S_1 + S_1 has no invertible Hom basis map, X = S_3 + [1;2] and
    Y = S_3 + [2;1] have the same dimension vector but no simple top, and
    M + M, M + N and N + M pair them up."""
    A = build_algebra(fixture("preprojective-a3"), field)
    mods = [md.simple_module(A, v) for v in A.vertices]
    mods += [md.projective_module(A, v) for v in A.vertices]
    R1, _ = md.radical_submodule(md.projective_module(A, "2"))
    S1, S3 = md.simple_module(A, "1"), md.simple_module(A, "3")
    X, Y = (md.direct_sum([S3, _arrow_module(A, s, t)])[0]
            for s, t in (("1", "2"), ("2", "1")))
    mods += [R1, md.direct_sum([S1, S1])[0], X, Y]
    mods += [md.direct_sum([M, N])[0] for M, N in ((X, X), (X, Y), (Y, X), (Y, Y))]
    small = [M for M in mods if M.total_dim <= 6]
    undecided = 0
    for M in small:
        for N in small:
            cert = _checked_isomorphism(M, N)
            try:
                want = md.is_isomorphic_exhaustive(M, N)
            except QfabError as exc:
                assert "grid too large" in str(exc)
                want = None
            if cert.reason == "undecided":
                # only where is_isomorphic's own grid is too large to walk
                assert want is None
                undecided += 1
            elif want is not None:
                assert bool(cert) == want
    assert (undecided > 0) == (field.characteristic == 3)
    for M, N in itertools.combinations([R1, X, Y] + mods[:6], 2):
        MN, NM = md.direct_sum([M, N])[0], md.direct_sum([N, M])[0]
        cert = _checked_isomorphism(MN, NM)
        assert cert or cert.reason == "undecided" and field.characteristic == 3
        assert _checked_isomorphism(md.direct_sum([M, M])[0], MN).reason in ISO_REASONS


def test_pencil_decides_a_sum_the_small_field_grid_cannot_walk():
    """Over F_3, 3 ** dim Hom(X + Y, Y + X) exceeds ``ISO_GRID_LIMIT`` and no
    basis map or their sum is invertible; the pencil finds an isomorphism."""
    A = build_algebra(fixture("preprojective-a3"), PrimeField(3))
    X, Y = (md.direct_sum([md.simple_module(A, "3"), _arrow_module(A, s, t)])[0]
            for s, t in (("1", "2"), ("2", "1")))
    XY, YX = md.direct_sum([X, Y])[0], md.direct_sum([Y, X])[0]
    basis = md.hom_space(XY, YX)
    assert md._grid(XY, len(basis))[0] > md.ISO_GRID_LIMIT
    assert not any(phi.is_isomorphism() for phi in basis)
    assert not sum(basis[1:], basis[0]).is_isomorphism()
    assert _checked_isomorphism(XY, YX)


def test_is_isomorphic_symmetric(double_triangle):
    A = double_triangle
    rng = random.Random(8)
    mods = [random_module(A, rng, max_total_dim=6) for _ in range(6)]
    for M in mods:
        for N in mods:
            if M.dims == N.dims:
                assert bool(md.is_isomorphic(M, N)) == \
                    bool(md.is_isomorphic(N, M))


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
        M = random_module(A, rng, max_total_dim=8)
        N = random_module(A, rng, max_total_dim=8)
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
        M = random_module(A, rng, max_total_dim=8)
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
    length-0 elements, a generator's own matrix (zero when ``gen_mats``
    leaves it out), and otherwise a zero start plus the sum of
    (action(g) * action(u)).scale(c) over A.factor(i)."""
    A = M.algebra
    gens = set(A.generators)
    out = {}
    for i in sorted(range(A.dim), key=lambda i: A.basis[i].length):
        b = A.basis[i]
        if b.length == 0:
            m = Matrix.identity(M.dims[b.source], A.field)
        elif i in gens:
            m = M.gen_mats.get(i)
            if m is None:
                m = Matrix.zero(M.dims[b.target], M.dims[b.source], A.field)
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
    for M in (md.regular_module(A), random_module(A, random.Random(11))):
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


def test_kernel_of_a_non_homomorphism_is_rejected(double_triangle):
    A = double_triangle
    F = A.field
    P = md.projective_module(A, "1")
    one, two, three = (A.vertex_pos[v] for v in ("1", "2", "3"))
    assert P.dims[one] == 2 and P.dims[two] == P.dims[three] == 1

    def almost_identity(at):
        return md.ModuleMap(P, P, [at.get(v, Matrix.identity(d, F))
                                   for v, d in enumerate(P.dims)])

    # zero at 1, the source of the arrow 1 -> 2: the kernel block at 2 is
    # empty, and the arrow does not kill the kernel at 1
    f = almost_identity({one: Matrix.zero(2, 2, F)})
    assert not f.intertwines()
    assert len(kernel_basis(f.mats[two])) == 0
    with pytest.raises(QfabError, match="not action-stable"):
        md.kernel(f)
    # zero at 3 and a projection at 1: the arrow 3 -> 1 sends the kernel at 3
    # outside the non-empty kernel block at 1
    f = almost_identity({three: Matrix.zero(1, 1, F),
                         one: Matrix.from_rows([[0, 0], [0, 1]], F)})
    assert not f.intertwines()
    assert len(kernel_basis(f.mats[one])) == 1
    with pytest.raises(QfabError, match="not action-stable"):
        md.kernel(f)


def test_representation_checks_every_given_shape(double_triangle):
    A = double_triangle
    one = Matrix.from_rows([[1]], A.field)
    g = next(g for g in A.generators if A.basis[g].source == A.vertex_pos["1"])
    # a simple has a zero target side at every arrow leaving its vertex
    with pytest.raises(DimensionMismatch):
        md.Representation(A, md.simple_module(A, "1").dims, {g: one})
    dims = [1] * A.n_vertices
    with pytest.raises(DimensionMismatch):
        md.Representation(A, dims, {g: Matrix.zero(2, 1, A.field)})
    # a right-shaped block with a zero side is dropped
    S = md.Representation(A, md.simple_module(A, "1").dims,
                          {g: Matrix.zero(0, 1, A.field)})
    assert S.gen_mats == {}


def test_generator_left_out_between_supported_vertices_acts_as_zero(double_triangle):
    A = double_triangle
    M = md.Representation(A, [1] * A.n_vertices, {})
    assert set(M.gen_mats) == set(A.generators)
    for g in A.generators:
        assert M.action(g) == Matrix.zero(1, 1, A.field)
    assert M.validate(full=True)
    assert md.top(M)[0].dims == M.dims


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_gen_mats_hold_exactly_the_supported_generators(name, field):
    A = build_algebra(fixture(name), field)
    rng = random.Random(13)
    mods = [md.standard_module(A, kind, v) for kind in ("simple", "proj", "inj")
            for v in A.vertices]
    mods += [random_module(A, rng) for _ in range(4)]
    mods += [md.radical_submodule(M)[0] for M in mods] + [md.top(M)[0] for M in mods]
    for M in mods:
        assert set(M.gen_mats) == {g for g in A.generators if
                                   M.dims[A.basis[g].source] and M.dims[A.basis[g].target]}
        assert all(m.rows and m.cols for m in M.gen_mats.values())


@pytest.mark.parametrize("kind", ["projective", "injective"])
def test_standard_module_kinds_are_simple_proj_inj(double_triangle, kind):
    with pytest.raises(InputError) as exc:
        md.standard_module(double_triangle, kind, "3")
    assert str(exc.value) == (f"unknown module kind {kind!r}: expected "
                              f"simple|proj|inj:<vertex>")


def _block_sum_by_definition(summands, g):
    """The block-diagonal matrix of generator g on the direct sum, built
    entry by entry from every summand's action."""
    A = summands[0].algebra
    b = A.basis[g]
    rows = sum(s.dims[b.target] for s in summands)
    cols = sum(s.dims[b.source] for s in summands)
    out = [[A.field.zero] * cols for _ in range(rows)]
    ro = co = 0
    for s in summands:
        m = s.action(g)
        for i in range(m.rows):
            for j in range(m.cols):
                out[ro + i][co + j] = m.data[i][j]
        ro, co = ro + m.rows, co + m.cols
    return Matrix(rows, cols, out, A.field)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_direct_sum_blocks_inclusions_and_projections(name, field):
    A = build_algebra(fixture(name), field)
    rng = random.Random(17)
    first, last = A.vertices[0], A.vertices[-1]
    lists = [[md.simple_module(A, first)],
             [md.simple_module(A, first), md.simple_module(A, last)],
             [md.projective_module(A, last), md.injective_module(A, first),
              md.simple_module(A, last)],
             [random_module(A, rng), md.zero_module(A), random_module(A, rng)]]
    for summands in lists:
        M, incs, projs = md.direct_sum(summands)
        assert M.dims == tuple(map(sum, zip(*(s.dims for s in summands))))
        assert set(M.gen_mats) == {g for g in A.generators if
                                   M.dims[A.basis[g].source] and M.dims[A.basis[g].target]}
        for g in A.generators:
            assert M.action(g) == _block_sum_by_definition(summands, g)
        assert M.validate(full=True)
        offset = [0] * A.n_vertices
        for s, inc, prj in zip(summands, incs, projs):
            assert inc.source is s and inc.target is M
            assert prj.source is M and prj.target is s
            for v in range(A.n_vertices):
                want = [[field.one if i == offset[v] + k else field.zero
                         for k in range(s.dims[v])] for i in range(M.dims[v])]
                assert inc.mats[v] == Matrix(M.dims[v], s.dims[v], want, field)
                assert prj.mats[v] == inc.mats[v].transpose()
                offset[v] += s.dims[v]
            assert inc.intertwines() and prj.intertwines()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_socle_is_the_common_kernel_of_the_arrows(name, field):
    A = build_algebra(fixture(name), field)
    rng = random.Random(19)
    for M in (md.regular_module(A), random_module(A, rng), random_module(A, rng)):
        S, inc = md.socle(M)
        assert inc.intertwines() and inc.rank() == S.total_dim
        for v in range(A.n_vertices):
            leaving = [g for g in A.generators if A.basis[g].source == v]
            rows = [r for g in leaving for r in M.action(g).data]
            assert S.dims[v] == M.dims[v] - rank(Matrix(len(rows), M.dims[v], rows, field))
            for g in leaving:
                assert (M.action(g) * inc.mats[v]).is_zero()


# -- submodules read off echelon bases ----------------------------------------


def test_sub_representation_rejects_a_basis_that_is_not_action_stable(double_triangle):
    A = double_triangle
    P, pos = md.free_module(A, ["1"])
    v = A.vertex_pos["1"]
    assert any(A.basis[g].source == v for g in A.generators)
    # the span of e_1 alone: the arrow 1 -> 2 sends it outside
    e = next(i for i in A.by_source(v) if A.basis[i].length == 0)
    w, k = pos[0][e]
    assert w == v
    unit = [A.field.one if j == k else A.field.zero for j in range(P.dims[v])]
    bases = [([], []) for _ in A.vertices]
    bases[v] = ([unit], [k])
    # the images from P's generator matrices and from A's product table
    layout = md.FreeLayout(A, ["1"])
    assert tuple(layout.dims) == P.dims and layout.pos == pos
    for N in (P, layout):
        with pytest.raises(QfabError, match="not action-stable"):
            md._sub_representation(N, bases)
    # every unit vector at every vertex spans P itself
    whole = [(unit_vectors(d, A.field), range(d)) for d in P.dims]
    S, inc = md._sub_representation(P, whole)
    assert S.dims == P.dims and inc.intertwines()
    assert all(S.action(g) == P.action(g) for g in A.generators)
    T, none = md._sub_representation(layout, whole)
    assert none is None and T.gen_mats == S.gen_mats


@functools.cache
def _algebra(name, p):
    return build_algebra(fixture(name), PrimeField(p) if p else QQ)


def _assert_read_off_is_the_solve_answer(S, inc):
    """Each generator matrix of S is the column-wise solution of
    inc[t] * X = N(g) * inc[v], solved by sympy, and inc is a module map."""
    A, N = S.algebra, inc.target
    assert inc.intertwines()
    for g in A.generators:
        b = A.basis[g]
        img = N.action(g) * inc.mats[b.source]
        cols = [sympy_solve(inc.mats[b.target], c) for c in img.columns()]
        assert from_columns(cols, S.dims[b.target], A.field) == S.action(g)


@given(st.sampled_from(["double-triangle", "two-ag-square", "preprojective-a3"]),
       st.sampled_from([0, 5]), st.integers(0, 2 ** 32))
def test_submodules_match_the_column_wise_solve(name, p, seed):
    A = _algebra(name, p)
    F = A.field
    rng = random.Random(seed)
    M = random_module(A, rng, max_total_dim=6)
    N = random_module(A, rng, max_total_dim=6)
    f = md.ModuleMap.zero(M, N)
    for h in md.hom_space(M, N):
        f = f + h.scale(F(rng.randrange(-2, 3)))
    w = max(range(A.n_vertices), key=lambda v: N.dims[v])
    seeds = [(w, [F(rng.randrange(-2, 3)) for _ in range(N.dims[w])])]
    for S, inc in (md.kernel(f), md.image(f), md.radical_submodule(N),
                   md.socle(N), md.submodule_generated_by(N, seeds)):
        _assert_read_off_is_the_solve_answer(S, inc)
