import gc
import itertools
import random
import weakref

import pytest

from conftest import sympy_solve
from random_modules import random_module
from qfab import modules as md, homology as hm
from qfab.algebra import build_algebra, quotient_by_idempotent_ideal
from qfab.field import QQ, PrimeField
from qfab.linalg import Matrix, Subspace, from_columns, rank
from qfab.quiver import Quiver, Presentation, path, relation
from qfab.fixtures import fixture, fixture_names
from qfab.nakayama import higher_nakayama, reduce_to_selfinjective


def test_cover_of_projective_is_identity_like(double_triangle):
    P = md.projective_module(double_triangle, "2")
    Q, cover, verts = hm.projective_cover(P)
    assert verts == ["2"]
    K, _ = md.kernel(cover)
    assert K.total_dim == 0


def test_cover_of_zero_is_zero(double_triangle):
    Z = md.zero_module(double_triangle)
    P, cover, verts = hm.projective_cover(Z)
    assert P.total_dim == 0 and verts == []


def test_cover_of_simple_one_matches_printed_sequence(double_triangle):
    A = double_triangle
    S1 = md.simple_module(A, "1")
    P, cover, verts = hm.projective_cover(S1)
    assert verts == ["1"]
    K, _ = md.kernel(cover)
    assert bool(md.is_isomorphic(K, md.projective_module(A, "2")))


def test_syzygy_of_projective_vanishes(double_triangle):
    P = md.projective_module(double_triangle, "3")
    assert hm.syzygy(P, 1).total_dim == 0


def test_double_triangle_injective_syzygies(double_triangle):
    A = double_triangle
    pairs = [("1", "4"), ("4", "1")]
    for iv, sv in pairs:
        O = hm.syzygy(md.injective_module(A, iv), 1)
        assert bool(md.is_isomorphic(O, md.simple_module(A, sv)))


def test_double_triangle_printed_resolution_patterns(double_triangle):
    A = double_triangle
    want = {"2": [["4"], ["4"], ["5"]],
            "5": [["1"], ["1"], ["2"]],
            "3": [["3"], ["1", "4"], ["2", "5"]]}
    for v, pattern in want.items():
        res = hm.minimal_resolution(md.injective_module(A, v), "projective",
                                    cutoff=6)
        assert res.status == "terminated"
        assert [sorted(t) for t in res.term_vertices] == pattern


def test_nakayama_simple_periodic():
    A, _ = higher_nakayama(1, (2, 2))
    S = md.simple_module(A, "0")
    res = hm.minimal_resolution(S, "projective", cutoff=8)
    assert res.status == "periodic"
    start, p = res.period
    assert p <= 2
    pd = hm.proj_dim(S, cutoff=8)
    assert pd.kind == "infinite"


def test_proj_dim_values(double_triangle):
    A = double_triangle
    assert hm.proj_dim(md.projective_module(A, "1")) == 0
    Abar = quotient_by_idempotent_ideal(A, ["2", "3", "5"])
    Mf = md.inflate_from_quotient(md.regular_module(Abar), A)
    pd = hm.proj_dim(Mf)
    assert pd.le(1) and pd == 1


def test_ext_vanishes_on_projectives(double_triangle):
    A = double_triangle
    P = md.projective_module(A, "1")
    rng = random.Random(4)
    N = random_module(A, rng, max_total_dim=8)
    for i in (1, 2, 3):
        assert hm.ext_dim(P, N, i) == 0


def test_ext_zero_equals_hom(double_triangle):
    A = double_triangle
    rng = random.Random(5)
    for _ in range(6):
        M = random_module(A, rng, max_total_dim=6)
        N = random_module(A, rng, max_total_dim=6)
        assert hm.ext_dim(M, N, 0) == md.hom_dim(M, N)


def test_ext1_arrow_count_on_hereditary_path_algebra():
    Q = Quiver(["1", "2"], [("a", "1", "2")])
    A = build_algebra(Presentation(Q, []))
    S1 = md.simple_module(A, "1")
    S2 = md.simple_module(A, "2")
    assert hm.ext_dim(S1, S2, 1) == 1
    assert hm.ext_dim(S2, S1, 1) == 0


def test_gorenstein_and_dominant_dimension_two_ag(two_ag):
    g, idim, pdim = hm.gorenstein_dimension(two_ag, cutoff=8)
    assert idim == 3 and pdim == 3 and g == 3
    dd = hm.dominant_dimension(two_ag, cutoff=8)
    assert dd.is_finite and dd.value >= 3


def test_self_injective_detection(preproj_a2, preproj_a3):
    assert hm.is_self_injective(preproj_a2)
    assert hm.is_self_injective(preproj_a3)
    Q = Quiver(["1", "2"], [("a", "1", "2")])
    A = build_algebra(Presentation(Q, []))
    assert not hm.is_self_injective(A)
    g, _, _ = hm.gorenstein_dimension(preproj_a2, cutoff=6)
    assert g == 0


def test_hereditary_gorenstein_bounded():
    Q = Quiver(["1", "2"], [("a", "1", "2")])
    A = build_algebra(Presentation(Q, []))
    g, _, _ = hm.gorenstein_dimension(A, cutoff=6)
    assert g.is_finite and g.value <= 1
    dd = hm.dominant_dimension(A, cutoff=6)
    assert dd.is_finite and dd.value in (0, 1)


def test_tau_of_projectives_vanishes(double_triangle):
    for v in double_triangle.vertices:
        P = md.projective_module(double_triangle, v)
        assert hm.ar_translate(P).total_dim == 0


def test_tau_inverse_of_injectives_vanishes(double_triangle):
    for v in double_triangle.vertices:
        I = md.injective_module(double_triangle, v)
        assert hm.ar_translate_inverse(I).total_dim == 0


def test_tau_quotient_identity_double_triangle(double_triangle):
    A = double_triangle
    Af = quotient_by_idempotent_ideal(A, ["2", "3", "5"])
    Mf = md.inflate_from_quotient(md.regular_module(Af), A)
    tau = hm.ar_translate(Mf)
    Ae = quotient_by_idempotent_ideal(A, ["1", "3", "4"])
    DAbar = md.inflate_from_quotient(
        md.dual_module(md.regular_module(Ae.opposite())), A)
    assert bool(md.is_isomorphic(tau, DAbar))


def test_nakayama_functor_sends_projectives_to_injectives(double_triangle):
    A = double_triangle
    for v in A.vertices:
        nu = hm.nakayama_functor(md.projective_module(A, v))
        assert bool(md.is_isomorphic(nu, md.injective_module(A, v)))


def test_gorenstein_projectivity(double_triangle):
    A = double_triangle
    n = hm.certify_gorenstein(A, cutoff=8)
    assert n == 2
    P = md.projective_module(A, "1")
    assert hm.is_gorenstein_projective(P, n)
    # syzygies of anything are Gorenstein projective over an IG algebra
    S = md.simple_module(A, "3")
    W = hm.syzygy(S, n)
    assert hm.is_gorenstein_projective(W, n)
    assert md.is_isomorphic(hm.syzygy(hm.cosyzygy(W, n), n), W)


def test_gorenstein_injectivity_over_self_injective(preproj_a2):
    n = hm.certify_gorenstein(preproj_a2, cutoff=6)
    assert n == 0
    rng = random.Random(6)
    M = random_module(preproj_a2, rng, max_total_dim=6)
    assert hm.is_gorenstein_injective(M, n)
    assert hm.is_gorenstein_projective(M, n)


def test_gen_membership_double_triangle(double_triangle):
    A = double_triangle
    DA = hm.dual_regular(A)
    rep = hm.gen_membership(DA, ["1", "3", "4"], 1)
    assert rep.verdict
    # top of S_2 is off {1,3,4}: level-0 membership must fail
    S2 = md.simple_module(A, "2")
    rep2 = hm.gen_membership(S2, ["1", "3", "4"], 0)
    assert not rep2.verdict


def test_gen_membership_level_zero_top_support(double_triangle):
    A = double_triangle
    S1 = md.simple_module(A, "1")
    assert hm.gen_membership(S1, ["1"], 0).verdict
    assert not hm.gen_membership(S1, ["2", "3"], 0).verdict


def test_cogen_membership_dual(double_triangle):
    A = double_triangle
    reg = md.regular_module(A)
    # the regular module embeds in injectives supported where its socle sits
    res = hm.minimal_resolution(reg, "injective", cutoff=2)
    soc_support = sorted(set(res.term_vertices[0]))
    rep = hm.cogen_membership(reg, soc_support, 0)
    assert rep.verdict


def test_gen_inf_certified_on_periodic(preproj_a2):
    A = preproj_a2
    S = md.simple_module(A, "1")
    rep = hm.gen_membership(S, ["1", "2"], "inf", cutoff=8)
    assert rep.verdict


def test_dim_shift_identity(double_triangle):
    A = double_triangle
    rng = random.Random(7)
    for _ in range(5):
        M = random_module(A, rng, max_total_dim=6)
        N = random_module(A, rng, max_total_dim=6)
        OM = hm.syzygy(M, 1)
        for i in (2, 3):
            assert hm.ext_dim(M, N, i) == hm.ext_dim(OM, N, i - 1)


@pytest.mark.parametrize("name", ["double-triangle", "two-ag-square"])
def test_cogen_membership_matches_ext_from_quotient_projectives(name):
    # M in cogen_l(eA) iff Ext^i(X, M) = 0 for 0 <= i <= l and every
    # projective A/<e>-module X, viewed as an A-module
    A = build_algebra(fixture(name))
    mods = [make(A, v) for v in A.vertices
            for make in (md.simple_module, md.projective_module, md.injective_module)]
    subsets = [[v] for v in A.vertices] + [
        [w for w in A.vertices if w != v] for v in A.vertices]
    for e in subsets:
        Abar = quotient_by_idempotent_ideal(A, e)
        quot = [md.inflate_from_quotient(md.projective_module(Abar, v), A)
                for v in Abar.vertices]
        resolutions = [hm.minimal_resolution(X, cutoff=4) for X in quot]
        for M in mods:
            for level in (0, 1, 2):
                rep = hm.cogen_membership(M, e, level)
                want = all(hm.ext_dim(X, M, i, resolution=res) == 0
                           for X, res in zip(quot, resolutions)
                           for i in range(level + 1))
                assert rep.verdict == want
                assert rep.module is M


SMALL_FIXTURES = ["beilinson-2", "canonical-2-211", "double-triangle", "two-ag-square",
                  "preprojective-a2", "preprojective-a3", "preprojective-a4",
                  "preprojective-a5"]


def _top_coordinates(M):
    """(v, c) for every coordinate c of M_v outside the pivots of the
    radical's span, vertex by vertex: the cover's summand generators."""
    A = M.algebra
    out = []
    for v in range(A.n_vertices):
        sub = Subspace(M.dims[v], A.field)
        for g in A.generators:
            if A.basis[g].target == v:
                for col in M.action(g).columns():
                    sub.insert(col)
        out += [(v, c) for c in range(M.dims[v]) if c not in sub.pivots]
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=["Q", "F_2^31-1"])
@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_projective_cover_columns_are_actions_on_unit_generators(name, field):
    A = build_algebra(fixture(name), field)
    assert A.n_vertices <= 5
    R = md.regular_module(A)
    modules = [md.radical_submodule(R)[0], random_module(A, random.Random(5)),
               md.simple_module(A, A.vertices[-1])]
    for M in modules:
        P, cover, verts = hm.projective_cover(M)
        tops = _top_coordinates(M)
        assert verts == [A.vertices[v] for v, _ in tops]
        _, pos = md.free_module(A, verts)
        for (v, c), slots in zip(tops, pos):
            unit = [field.zero] * M.dims[v]
            unit[c] = field.one
            for i, (w, k) in slots.items():
                assert cover.mats[w].column(k) == M.action(i).apply(unit)
        assert cover.intertwines()
        assert all(rank(m) == m.rows for m in cover.mats)  # surjective


def _assert_cover_columns_are_actions(M):
    """The oracle above, for any module: column (s, i) of the cover is
    M.action(i) applied to the unit vector at summand s's top coordinate."""
    A = M.algebra
    P, cover, verts = hm.projective_cover(M)
    tops = _top_coordinates(M)
    assert verts == [A.vertices[v] for v, _ in tops]
    _, pos = md.free_module(A, verts)
    for (v, c), slots in zip(tops, pos):
        unit = [A.field.zero] * M.dims[v]
        unit[c] = A.field.one
        for i, (w, k) in slots.items():
            assert cover.mats[w].column(k) == M.action(i).apply(unit)
    assert cover.intertwines()
    assert all(rank(m) == m.rows for m in cover.mats)  # surjective
    return cover


@pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)], ids=["Q", "F_2^31-1"])
@pytest.mark.parametrize("name", ["three-paths-op", "nakayama-3-333"])
def test_projective_cover_columns_beyond_unit_factor_tables(name, field):
    # three-paths-op has factor coefficients other than 1; the 18-vertex
    # higher Nakayama algebra has modules on a few of many vertices
    if name == "three-paths-op":
        from test_modules import _three_paths_opposite
        A = _three_paths_opposite(field)
    else:
        A = build_algebra(higher_nakayama(3, (3, 3, 3))[1], field)
        assert A.n_vertices == 18
    rng = random.Random(5)
    R = md.regular_module(A)
    modules = [md.radical_submodule(R)[0], md.simple_module(A, A.vertices[-1])]
    modules += [random_module(A, rng) for _ in range(4)]
    for M in modules:
        cover = _assert_cover_columns_are_actions(M)
        K, _ = md.kernel(cover)
        if K.total_dim:
            _assert_cover_columns_are_actions(K)


def _dominant_dimension_per_term(A, cutoff=12):
    """The oracle: a cover and kernel of each whole coresolution term."""
    res = hm.minimal_resolution(md.regular_module(A), "injective", cutoff=cutoff)
    for i, term in enumerate(res.terms):
        if not hm.is_projective_module(term):
            return hm.DimValue.finite(i)
    if res.status == "terminated":
        return hm.DimValue.infinite()
    return hm.DimValue.at_least(len(res.terms))


@pytest.mark.parametrize("name", ["beilinson-2", "canonical-2-211", "canonical-2-221",
                                  "double-triangle", "two-ag-square", "preprojective-a2",
                                  "preprojective-a3", "preprojective-a4",
                                  "preprojective-a5", "preprojective-a6"])
def test_dominant_dimension_per_vertex_matches_per_term(name):
    A = build_algebra(fixture(name))
    for B in (A, A.opposite()):
        assert hm.dominant_dimension(B) == _dominant_dimension_per_term(B)


# (algebra, self-injective?); a pair (n, series) is a higher Nakayama algebra
SELF_INJECTIVE_CASES = [("double-triangle", False), ("two-ag-square", False),
                        ("preprojective-a2", True), ("preprojective-a3", True),
                        ("preprojective-a4", True), ("beilinson-2", False),
                        ((1, (3, 3)), True), ((2, (3, 3, 3)), True),
                        ((3, (3, 3, 3)), True), ((2, (4, 3, 3, 3)), False)]


def _algebra(case, field):
    if isinstance(case, str):
        return build_algebra(fixture(case), field)
    n, series = case
    return higher_nakayama(n, series, field=field)[0]


@pytest.mark.parametrize("case, want", SELF_INJECTIVE_CASES, ids=str)
def test_self_injective_is_exact_in_every_field(case, want):
    # a random isomorphism test answered "no" for self-injective algebras
    # over F_2 and F_3, where the coefficients it draws collapse mod p
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(2 ** 31 - 1)):
        A = _algebra(case, field)
        assert hm.is_self_injective(A) == want, field.name
        assert (hm.gorenstein_dimension(A)[0] == 0) == want, field.name
        assert (hm.gorenstein_dimension(A)[1] == 0) == want, field.name


def _nakayama_functor_by_hom_spaces(M):
    """The oracle: D Hom(M, A) with Hom(M, Ae_v) from ``hom_space`` and the
    right action of each generator solved for in those bases by sympy."""
    A = M.algebra
    op = A.opposite()
    projs = {v: md.free_module(A, [v]) for v in A.vertices}
    bases = {v: md.hom_space(M, P) for v, (P, _) in projs.items()}
    gen_mats = {}
    for g in op.generators:
        vj, vi = A.vertices[op.basis[g].source], A.vertices[op.basis[g].target]
        if bases[vj] and bases[vi]:
            # x -> x . g as a map Ae_j -> Ae_i
            (Pj, (slots_j,)), (Pi, (slots_i,)) = projs[vj], projs[vi]
            mats = [[[A.field.zero] * Pj.dims[w] for _ in range(Pi.dims[w])]
                    for w in range(A.n_vertices)]
            for x, (w, k_x) in slots_j.items():
                for y, c in A.mult(x, g).items():
                    w2, k_y = slots_i[y]
                    mats[w2][k_y][k_x] = c
            rmul = md.ModuleMap(Pj, Pi, [Matrix(Pi.dims[w], Pj.dims[w], mats[w], A.field)
                                         for w in range(A.n_vertices)])
            flat = from_columns([h.as_vector() for h in bases[vi]],
                                len(bases[vi][0].as_vector()), A.field)
            cols = [sympy_solve(flat, rmul.compose(phi).as_vector()) for phi in bases[vj]]
        else:
            cols = [[] for _ in bases[vj]]
        gen_mats[g] = from_columns(cols, len(bases[vi]), A.field)
    H = md.Representation(op, [len(bases[v]) for v in A.vertices], gen_mats)
    return md.dual_module(H)


def _test_modules(A):
    """Every simple, injective and projective, and 6 seeded random modules."""
    out = [md.standard_module(A, kind, v) for kind in ("simple", "inj", "proj")
           for v in A.vertices]
    rng = random.Random(11)
    return out + [random_module(A, rng) for _ in range(6)]


PRESENTATION_FIXTURES = ["double-triangle", "two-ag-square", "preprojective-a3"]


def _signed_double_triangle():
    """double-triangle with its two 3 -> 3 circuits negatives of each other,
    so that products of basis elements carry the coefficient -1.  In every
    fixture they carry 1, which would hide a reader of the product table
    that drops the coefficient."""
    Q = fixture("double-triangle").quiver
    rels = [relation((1, path(Q, "de", "ep", "ze")), (1, path(Q, "ga", "al", "be"))),
            relation(path(Q, "be", "ga", "al")), relation(path(Q, "ze", "de", "ep"))]
    return Presentation(Q, rels, name="double-triangle-signed")


def _presentation_algebra(name, field):
    pres = _signed_double_triangle() if name == "double-triangle-signed" else fixture(name)
    return build_algebra(pres, field)
EXACT_FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(2 ** 31 - 1)],
                                       ids=["Q", "F_2^31-1"])
STEP_FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(2 ** 31 - 1)],
                                      ids=["Q", "F_3", "F_2^31-1"])


@EXACT_FIELDS
@pytest.mark.parametrize("name", PRESENTATION_FIXTURES)
def test_nakayama_functor_matches_hom_space_construction(name, field):
    A0 = build_algebra(fixture(name), field)
    for A in (A0, A0.opposite()):
        for M in _test_modules(A):
            nu = hm.nakayama_functor(M)
            assert nu.algebra is A
            assert list(nu.dims) == [md.hom_dim(M, md.projective_module(A, v))
                                     for v in A.vertices]
            assert md.is_isomorphic(nu, _nakayama_functor_by_hom_spaces(M))


@EXACT_FIELDS
@pytest.mark.parametrize("name", PRESENTATION_FIXTURES)
def test_projective_by_dimension_matches_zero_cover_kernel(name, field):
    A0 = build_algebra(fixture(name), field)
    for A in (A0, A0.opposite()):
        mods = _test_modules(A)
        sums = [md.direct_sum([M, N])[0] for M, N in zip(mods, mods[1:])]
        for M in mods + sums:
            _, cover, _ = hm.projective_cover(M)
            assert hm.is_projective_module(M) == (md.kernel(cover)[0].total_dim == 0)


def _raise(*args, **kwargs):
    raise AssertionError("not to be called")


@EXACT_FIELDS
@pytest.mark.parametrize("name", PRESENTATION_FIXTURES)
def test_projective_by_top_builds_no_cover(name, field, monkeypatch):
    A0 = build_algebra(fixture(name), field)
    for A in (A0, A0.opposite()):
        mods = _test_modules(A)
        mods += [md.direct_sum([M, N])[0] for M, N in zip(mods, mods[1:])]
        # the oracle of test_projective_by_dimension_matches_zero_cover_kernel
        want = [md.kernel(hm.projective_cover(M)[1])[0].total_dim == 0 for M in mods]
        with monkeypatch.context() as mp:
            for layer, fn in ((hm, "projective_cover"), (hm, "free_module"),
                              (md, "free_module")):
                mp.setattr(layer, fn, _raise)
            got = [hm.is_projective_module(_fresh(M)) for M in mods]
        assert got == want
        assert any(want) and not all(want)


def _fresh(M):
    """A copy of M with nothing computed on it yet."""
    return md.Representation(M.algebra, M.dims, M.gen_mats)


def _same_module(X, Y):
    return X.algebra is Y.algebra and X.dims == Y.dims and X.gen_mats == Y.gen_mats


PRESENTATION_FUNCTORS = [hm.transpose, hm.ar_translate, hm.nakayama_functor]


@EXACT_FIELDS
@pytest.mark.parametrize("name", PRESENTATION_FIXTURES)
def test_recorded_presentation_changes_no_functor(name, field, monkeypatch):
    A0 = build_algebra(fixture(name), field)
    for A in (A0, A0.opposite()):
        for M in _test_modules(A):
            want = [f(_fresh(M)) for f in PRESENTATION_FUNCTORS]
            projective = hm.is_projective_module(M)
            for cutoff in (0, 1, 4):
                X = _fresh(M)
                res = hm.minimal_resolution(X, cutoff=cutoff)
                # the presentation is the resolution's first step
                with monkeypatch.context() as mp:
                    mp.setattr(hm, "projective_cover", _raise)
                    step = hm._step(X)
                assert step is res.steps[0]
                assert step.verts is res.term_vertices[0]
                if projective:
                    assert step.next_verts == [] and step.d == []
                elif cutoff == 0:
                    assert step.next_verts == [A.vertices[v]
                                               for v, _ in hm._top(res.syzygies[1])]
                else:
                    assert step.next_verts == res.term_vertices[1]
                assert all(_same_module(f(X), w)
                           for f, w in zip(PRESENTATION_FUNCTORS, want))
            X = _fresh(M)
            hm.syzygy(X)
            step = hm._step(X)
            assert (step.next_verts == [] and step.d == []) == projective
            assert all(_same_module(f(X), w) for f, w in zip(PRESENTATION_FUNCTORS, want))


ALL_PRESENTATION_FUNCTORS = PRESENTATION_FUNCTORS + [hm.ar_translate_inverse]


def _dual_presentation_by_free_modules(A, step):
    """The oracle: Hom(d, A) as a module map of free op-modules built by
    ``free_module``, psi -> psi . d."""
    op = A.opposite()
    H0, pos0 = md.free_module(op, step.verts)
    H1, pos1 = md.free_module(op, step.next_verts)
    mats = [[[A.field.zero] * H0.dims[w] for _ in range(H1.dims[w])]
            for w in range(op.n_vertices)]
    for r, s, i, c in step.d:
        for x, (_, k_x) in pos0[s].items():
            for y, cy in A.mult(i, x).items():
                w, k_y = pos1[r][y]
                mats[w][k_y][k_x] += c * cy
    return md.ModuleMap(H0, H1, [Matrix(H1.dims[w], H0.dims[w], mats[w], A.field)
                                 for w in range(op.n_vertices)])


def _transpose_by_free_modules(M):
    step = hm._step(M)
    if not step.next_verts:
        return md.zero_module(M.algebra.opposite())
    return md.cokernel(_dual_presentation_by_free_modules(M.algebra, step))[0]


def _nakayama_by_free_modules(M):
    f = _dual_presentation_by_free_modules(M.algebra, hm._step(M))
    return md.dual_module(md.kernel(f)[0])


def _presentation_functors_by_free_modules(M):
    """The oracle of ``ALL_PRESENTATION_FUNCTORS``, in order: free modules
    and ``md.cokernel``/``md.kernel`` on the step's presentation."""
    return [_transpose_by_free_modules(M), md.dual_module(_transpose_by_free_modules(M)),
            _nakayama_by_free_modules(M), _transpose_by_free_modules(md.dual_module(M))]


@STEP_FIELDS
@pytest.mark.parametrize("name", PRESENTATION_FIXTURES + ["double-triangle-signed"])
def test_presentation_functors_act_through_the_product_table(name, field, monkeypatch):
    A0 = _presentation_algebra(name, field)
    for A in (A0, A0.opposite()):
        for M in _test_modules(A):
            want = _presentation_functors_by_free_modules(M)  # puts both steps in the memo
            with monkeypatch.context() as mp:
                for layer, fn in ((hm, "free_module"), (md, "free_module"),
                                  (md, "cokernel"), (md, "kernel")):
                    mp.setattr(layer, fn, _raise)
                got = [f(_fresh(M)) for f in ALL_PRESENTATION_FUNCTORS]
            assert all(_same_module(g, w) for g, w in zip(got, want))


def _resolution_by_every_dims_match(M, cutoff):
    """The oracle: (status, period, term vertices) with ``is_isomorphic`` run
    on every earlier syzygy of the same dimension vector, and the number of
    those pairs whose tops differ."""
    syzygies, verts = [M], []
    screened = 0
    while len(verts) <= cutoff and syzygies[-1].total_dim:
        step = hm._step(syzygies[-1])
        verts.append(step.verts)
        syzygies.append(step.K)
        cur = syzygies[-1]
        for j in range(1, len(syzygies) - 1):
            if syzygies[j].dims != cur.dims:
                continue
            top = sorted(M.algebra.vertices[v] for v, _ in _top_coordinates(cur))
            screened += top != sorted(verts[j])
            if md.is_isomorphic(syzygies[j], cur):
                return "periodic", (j, len(syzygies) - 1 - j), verts, screened
    status = "truncated" if syzygies[-1].total_dim else "terminated"
    return status, None, verts, screened


# no two syzygies resolved here share a dimension vector but not a top
TOP_SCREEN_UNUSED = {"beilinson-2", "canonical-2-211", "preprojective-a2"}


@EXACT_FIELDS
@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_top_screen_changes_no_resolution(name, field, monkeypatch):
    A = build_algebra(fixture(name), field)
    assert A.n_vertices <= 5
    rng = random.Random(7)
    mods = [md.standard_module(A, kind, v) for kind in ("simple", "inj")
            for v in A.vertices]
    mods += [random_module(A, rng) for _ in range(4)]
    screened = 0
    real_radical, topped = md.radical_spaces, []

    def counting_radical(X):
        topped.append(X)
        return real_radical(X)

    for M in mods:
        topped.clear()
        with monkeypatch.context() as mp:
            mp.setattr(md, "radical_spaces", counting_radical)
            res = hm.minimal_resolution(M, cutoff=6)
        # the screen takes no top, and the next cover reuses the one its step
        # took: no module's top is taken twice
        assert len({id(X) for X in topped}) == len(topped)
        status, period, verts, n = _resolution_by_every_dims_match(_fresh(M), 6)
        assert (res.status, res.period, res.term_vertices) == (status, period, verts)
        screened += n
        for X in res.syzygies:
            assert hm._top(X) == _top_coordinates(X)
    assert (screened > 0) == (name not in TOP_SCREEN_UNUSED)


STEP_ALGEBRAS = {
    "double-triangle": lambda field: build_algebra(fixture("double-triangle"), field),
    "nakayama-2-4333": lambda field: higher_nakayama(2, (4, 3, 3, 3), field=field)[0],
    "double-triangle-signed": lambda field: _presentation_algebra("double-triangle-signed",
                                                                  field),
}


def _step_test_modules(A):
    """``_test_modules`` and two direct sums of them, which repeat summands'
    syzygies inside one resolution."""
    mods = _test_modules(A)
    return mods + [md.direct_sum(mods[-2:])[0], md.direct_sum(mods[:3])[0]]


def _resolution_answers(M):
    """A resolution of M and what it answers: status, period, term vertices,
    the content of each syzygy, and dim Ext^i(M, S) for i <= 3 and every
    simple S."""
    A = M.algebra
    res = hm.minimal_resolution(M, cutoff=4)
    exts = [hm.ext_dim(M, md.simple_module(A, v), i, resolution=res)
            for v in A.vertices for i in range(4)]
    contents = [hm._content(K) for K in res.syzygies[1:]]
    return res, (res.status, res.period, res.term_vertices, contents, exts)


def _counting_covers(monkeypatch):
    """The modules ``projective_cover`` is called on from now on."""
    covered, real_cover = [], hm.projective_cover
    monkeypatch.setattr(hm, "projective_cover",
                        lambda M: covered.append(M) or real_cover(M))
    return covered


@STEP_FIELDS
@pytest.mark.parametrize("name", STEP_ALGEBRAS)
def test_warmed_step_table_gives_the_answers_of_a_fresh_algebra(name, field, monkeypatch):
    A = STEP_ALGEBRAS[name](field)
    mods = _step_test_modules(A)
    for M in mods:
        _resolution_answers(M)
    assert A._steps
    covered = _counting_covers(monkeypatch)
    warm = [_resolution_answers(_fresh(M))[1] for M in mods]
    assert covered == []  # every step came from the table
    monkeypatch.undo()
    for k, answers in enumerate(warm):
        B = STEP_ALGEBRAS[name](field)
        assert not B._steps
        assert answers == _resolution_answers(_step_test_modules(B)[k])[1]


def _d_from_inclusion(A, verts, K, inc):
    """The oracle of ``_Step.d``: the columns of K's inclusion into the cover
    term at K's top coordinates, located by ``projective_layout``."""
    _, pos = md.projective_layout(A, verts)
    at = {wk: (s, i) for s, slots in enumerate(pos) for i, wk in slots.items()}
    return [(r, *at[(v, k)], c) for r, (v, col) in enumerate(md._top(K))
            for k, c in enumerate(inc.mats[v].column(col)) if c]


@STEP_FIELDS
@pytest.mark.parametrize("name", STEP_ALGEBRAS)
def test_step_syzygy_is_the_kernel_of_the_cover(name, field):
    A = STEP_ALGEBRAS[name](field)
    checked = 0
    for M in _step_test_modules(A):
        for X in hm.minimal_resolution(M, cutoff=3).syzygies:
            step = hm._step(_fresh(X))
            P, cover, verts = hm.projective_cover(_fresh(X))
            K, inc = md.kernel(cover)
            assert step.verts == verts and step.P.dims == P.dims
            assert hm._content(step.K) == hm._content(K)
            assert step.d == _d_from_inclusion(A, verts, K, inc)
            checked += bool(step.d)
    assert checked


def test_each_new_step_takes_one_cover(monkeypatch):
    # the benchmark's homology.projective_cover counters count these calls
    A = STEP_ALGEBRAS["nakayama-2-4333"](QQ)
    op = A.opposite()
    covered = _counting_covers(monkeypatch)
    built = 0
    for M in _step_test_modules(A):
        before = len(A._steps) + len(op._steps)
        hm.minimal_resolution(M, cutoff=3)
        for f in ALL_PRESENTATION_FUNCTORS:
            f(_fresh(M))
        hm.minimal_resolution(M, "injective", cutoff=2)
        built += len(A._steps) + len(op._steps) - before
    assert built and len(covered) == built


def test_presentation_functors_in_turn_share_one_cover(monkeypatch):
    A = build_algebra(fixture("double-triangle"), QQ)
    S = md.simple_module(A, "3")
    covered = _counting_covers(monkeypatch)
    hm.transpose(S)
    hm.ar_translate(S)
    hm.nakayama_functor(S)
    assert len(covered) == 1


def test_dominant_dimension_after_gorenstein_dimension_takes_no_cover(monkeypatch):
    A = build_algebra(fixture("canonical-2-221"), QQ)
    covered = _counting_covers(monkeypatch)
    assert hm.gorenstein_dimension(A)[0] == 2
    assert covered
    covered.clear()
    assert hm.dominant_dimension(A) == 0
    assert covered == []


def test_reduction_covers_each_module_content_once_per_algebra(monkeypatch):
    covered = _counting_covers(monkeypatch)
    reduce_to_selfinjective(2, (4, 3, 3, 3))
    # the list keeps every algebra alive, so no two of them share an id
    pairs = [(id(M.algebra), hm._content(M)) for M in covered]
    assert pairs and len(pairs) == len(set(pairs))


def test_step_memo_dies_with_its_algebra():
    A = build_algebra(fixture("double-triangle"), QQ)
    for M in _step_test_modules(A):
        hm.minimal_resolution(M, cutoff=4)
        hm.ar_translate(M)
    assert A._steps
    ref = weakref.ref(A)
    del A, M
    gc.collect()
    assert ref() is None


@STEP_FIELDS
@pytest.mark.parametrize("name", STEP_ALGEBRAS)
def test_differentials_are_the_generator_images_of_inclusion_after_cover(name, field):
    A = STEP_ALGEBRAS[name](field)
    for M in _step_test_modules(A):
        res = hm.minimal_resolution(M, cutoff=4)
        hm.extend_resolution(res, 5)
        # one step per term: steps[i - 1].d maps term i into term i - 1
        assert len(res.steps) == len(res.terms)
        for i in range(1, len(res.terms)):
            # the oracle: d_i = inc_{i-1} . cover_i as a full module map, with
            # the inclusion taken afresh, not read off the step
            _, inc = md.kernel(hm.projective_cover(res.syzygies[i - 1])[1])
            P, cover, verts = hm.projective_cover(res.syzygies[i])
            assert verts == res.term_vertices[i] and P.dims == res.terms[i].dims
            d = inc.compose(cover)
            _, pos = md.projective_layout(A, verts)
            _, pos_prev = md.projective_layout(A, res.term_vertices[i - 1])
            at = {wk: (s, j) for s, slots in enumerate(pos_prev) for j, wk in slots.items()}
            want = []
            for r, (v, slots) in enumerate(zip(verts, pos)):
                w, col = slots[A.idempotent_index[A.vertex_pos[v]]]
                want.extend((r, *at[(w, k)], c)
                            for k, c in enumerate(d.mats[w].column(col)) if c)
            assert res.steps[i - 1].d == want
        # step i lists the vertices of term i + 1, the source of its d
        for i in range(len(res.steps) - 1):
            assert res.term_vertices[i + 1] == res.steps[i].next_verts
        if res.status == "terminated":
            assert res.steps[-1].next_verts == [] and res.steps[-1].d == []
        X = _fresh(M)
        step = hm._step(X)
        assert step is res.steps[0] and step.verts == res.term_vertices[0]


CORESOLUTION_FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(3)],
                                             ids=["Q", "F_3"])


def _simples_and_injectives(A):
    return [md.standard_module(A, kind, v) for kind in ("simple", "inj")
            for v in A.vertices]


@CORESOLUTION_FIELDS
@pytest.mark.parametrize("name", ["double-triangle", "preprojective-a3"])
def test_injective_coresolution_is_the_resolution_of_the_dual_read_through_d(name, field):
    A = build_algebra(fixture(name), field)
    for M in _simples_and_injectives(A):
        for cutoff in (0, 2, 5):
            inj = hm.minimal_resolution(M, "injective", cutoff)
            proj = hm.minimal_resolution(md.dual_module(M), cutoff=cutoff)
            assert proj.module.algebra is A.opposite()
            assert ((inj.term_vertices, inj.status, inj.period)
                    == (proj.term_vertices, proj.status, proj.period))
            assert ([hm._content(I) for I in inj.terms]
                    == [hm._content(md.dual_module(P)) for P in proj.terms])
            assert ([hm._content(X) for X in inj.syzygies]
                    == [hm._content(md.dual_module(K)) for K in proj.syzygies])
            assert inj.syzygies[0].algebra is A
            assert hm._content(inj.syzygies[0]) == hm._content(M)


@CORESOLUTION_FIELDS
@pytest.mark.parametrize("name", ["double-triangle", "preprojective-a3"])
def test_extending_a_truncated_coresolution_gives_a_longer_one(name, field):
    A = build_algebra(fixture(name), field)
    extended = 0
    for M in _simples_and_injectives(A):
        for cutoff in (0, 2):
            res = hm.minimal_resolution(M, "injective", cutoff)
            if res.status != "truncated":
                continue
            listed = len(res.terms)  # terms read before the steps grow
            hm.extend_resolution(res, cutoff + 3)
            fresh = hm.minimal_resolution(M, "injective", cutoff + 2)
            n = len(fresh.term_vertices)
            # a fresh coresolution stops at a period; the extension does not
            assert res.term_vertices[:n] == fresh.term_vertices
            if fresh.status != "periodic":
                assert res.term_vertices == fresh.term_vertices
            assert len(res.terms) == len(res.term_vertices) > listed
            assert ([hm._content(I) for I in res.terms[:n]]
                    == [hm._content(I) for I in fresh.terms])
            extended += 1
    assert extended


# The readers of a step's differential, checked against oracles that build
# no step: Ext by dimension shifting, and Tr Tr M = M.
READER_ALGEBRAS = {
    **STEP_ALGEBRAS,
    "preprojective-a3": lambda field: build_algebra(fixture("preprojective-a3"), field),
}


def _fresh_syzygy(X):
    """(cover term, kernel) of X, from ``projective_cover`` and
    ``md.kernel`` directly."""
    P, cover, _ = hm.projective_cover(X)
    return P, md.kernel(cover)[0]


@STEP_FIELDS
@pytest.mark.parametrize("name", READER_ALGEBRAS)
def test_ext_matches_dimension_shifting(name, field):
    # 0 -> Omega^i M -> P_{i-1} -> Omega^(i-1) M -> 0 gives
    # dim Ext^i(M, N) = [Omega^i M, N] - [P_{i-1}, N] + [Omega^(i-1) M, N]
    A = READER_ALGEBRAS[name](field)
    targets = [md.standard_module(A, kind, v) for kind in ("simple", "inj")
               for v in A.vertices]
    beyond = 0
    for v in A.vertices:
        M = md.simple_module(A, v)
        res = hm.minimal_resolution(M, cutoff=6)
        listed = len(res.terms)
        # step i is the whole differential P_{i+1} -> P_i, so a truncated
        # resolution gives Ext^i at every listed degree, the last one too; a
        # periodic one gives every degree, past its listed terms too
        degrees = range(1, listed if res.status == "truncated" else 10)
        omega, terms = [M], []
        for _ in degrees:
            P, K = _fresh_syzygy(omega[-1])
            terms.append(P)
            omega.append(K)
        for i in degrees:
            for N in targets:
                want = (md.hom_dim(omega[i], N) - md.hom_dim(terms[i - 1], N)
                        + md.hom_dim(omega[i - 1], N))
                assert hm.ext_dim(M, N, i, resolution=res) == want, (v, i)
                beyond += i >= listed and res.status == "periodic"
    assert beyond


@STEP_FIELDS
@pytest.mark.parametrize("name", READER_ALGEBRAS)
def test_transpose_is_an_involution_on_simple_tops(name, field):
    A0 = READER_ALGEBRAS[name](field)
    cases = 0
    for A in (A0, A0.opposite()):
        for _, _, M in md.truncated_projectives(A):
            assert len(hm._top(M)) == 1 and not hm.is_projective_module(M)
            TrTrM = hm.transpose(hm.transpose(M))
            assert TrTrM.algebra is A
            assert md.is_isomorphic(TrTrM, M)
            cases += 1
    assert cases


# -- quotients by idempotent ideals of proj.dim <= 1 keep Ext -------------------


def _simple_ext_table(A, degrees):
    """dim Ext^i_A(S_u, S_w) for all vertices u, w of A and i in degrees."""
    table = {}
    for u in A.vertices:
        S = md.simple_module(A, u)
        res = hm.minimal_resolution(S, "projective", cutoff=max(degrees) + 1)
        for w in A.vertices:
            for i in degrees:
                table[u, w, i] = hm.ext_dim(S, md.simple_module(A, w), i,
                                            resolution=res)
    return table


def test_ext_over_quotient_by_ideal_of_proj_dim_at_most_one_is_ext_over_algebra():
    """For every vertex set F of the fixtures with at most 6 vertices, with
    A/<f> non-zero and proj.dim_A A/<f> <= 1: Ext^i over A/<f> equals Ext^i
    over A between the simples of A/<f>, i = 0..3.

    Observed on these fixtures.  It is what Auslander-Platzeck-Todorov
    ("Homological theory of idempotent ideals", Trans. AMS 332, 1992) and
    Geigle-Lenzing ("Perpendicular categories with applications to
    representations and sheaves", J. Algebra 144, 1991) lead one to expect of
    an idempotent ideal whose quotient has proj.dim <= 1 (A -> A/<f> a
    homological epimorphism); the exact statement there is not checked here.
    Some F with proj.dim > 1 differs, so the comparison can fail."""
    degrees = range(4)
    mismatches, compared, differing = [], 0, 0
    for name in fixture_names():
        A = build_algebra(fixture(name))
        if A.n_vertices > 6:
            continue
        over_A = _simple_ext_table(A, degrees)
        for k in range(A.n_vertices):
            for F in itertools.combinations(A.vertices, k):
                Abar = quotient_by_idempotent_ideal(A, F)
                pd = hm.proj_dim(md.inflate_from_quotient(md.regular_module(Abar), A),
                                 cutoff=2)
                over_Abar = _simple_ext_table(Abar, degrees)
                diff = [key for key, d in over_Abar.items() if d != over_A[key]]
                if pd.le(1):
                    compared += len(over_Abar)
                    mismatches += [(name, F, key) for key in diff]
                elif diff:
                    differing += 1
    assert compared and not mismatches
    assert differing


@pytest.mark.parametrize("i", [0, 3])
def test_ext_without_a_resolution_takes_one_cover_per_step_it_reads(i, monkeypatch):
    # Ext^i reads steps i - 1 and i, so a fresh resolution stops at step i
    A = build_algebra(fixture("preprojective-a4"), QQ)
    covered = _counting_covers(monkeypatch)
    hm.ext_dim(md.simple_module(A, "2"), md.simple_module(A, "1"), i)
    assert len(covered) == i + 1
