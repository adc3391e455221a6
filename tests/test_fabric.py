import functools
import itertools

import pytest

from qfab import cli, modules as md, homology as hm, fabric as fb, nakayama as nk
from qfab.algebra import build_algebra, corner, quotient_by_idempotent_ideal, quiver_of
from qfab.errors import (ConditionFailed, ProjDimTooBig, NoCompanionFound,
                         VerificationFailed)
from qfab.field import QQ, PrimeField
from qfab.fixtures import fixture, fixture_names


def test_double_triangle_both_checks_agree(double_triangle):
    A = double_triangle
    ec, tr = fb.check_fabric_combinatorial(A, ["2", "3", "5"])
    ed, _ = fb.check_fabric_definitional(A, ["2", "3", "5"])
    assert sorted(ec) == ["1", "3", "4"]
    assert sorted(ed) == ["1", "3", "4"]
    assert tr["iprime"] == {"1": "2", "4": "5"}


def test_empty_f_is_trivially_fabric(double_triangle):
    A = double_triangle
    ec, _ = fb.check_fabric_combinatorial(A, [])
    assert sorted(ec) == sorted(A.vertices)
    ed, _ = fb.check_fabric_definitional(A, [])
    assert sorted(ed) == sorted(A.vertices)


def test_full_f_is_vacuously_fabric(double_triangle):
    A = double_triangle
    ed, _ = fb.check_fabric_definitional(A, list(A.vertices))
    assert sorted(ed) == sorted(A.vertices)


def test_two_ag_fabric(two_ag):
    ec, _ = fb.check_fabric_combinatorial(two_ag, ["2", "3", "4"])
    ed, _ = fb.check_fabric_definitional(two_ag, ["2", "3", "4"])
    assert sorted(ec) == sorted(ed) == ["1", "2", "3"]


def test_proj_dim_precondition_rejects(double_triangle):
    # killing only vertex 3 leaves a quotient of projective dimension > 1
    with pytest.raises(ProjDimTooBig):
        fb.check_fabric_combinatorial(double_triangle, ["3"])


def test_fabric_dimension_double_triangle(double_triangle):
    per, sup = fb.fabric_dimension(double_triangle, ["2", "3", "5"])
    assert {v: d.value for v, d in per.items()} == {"1": 1, "4": 1}
    assert sup == 1


def test_exact_sequence_reconstruction(double_triangle):
    A = double_triangle
    _, tr = fb.check_fabric_combinatorial(A, ["2", "3", "5"])
    Abar = quotient_by_idempotent_ideal(A, ["2", "3", "5"])
    for i, ip in tr["iprime"].items():
        P = md.inflate_from_quotient(md.projective_module(Abar, i), A)
        K = hm.syzygy(P, 1)
        assert bool(md.is_isomorphic(K, md.projective_module(A, ip)))


def test_special_tilting_double_triangle(double_triangle):
    T, tr = fb.special_tilting_module(double_triangle, ["2", "3", "5"],
                                      ["1", "3", "4"])
    assert tr["proj_dim"].le(1)
    assert tr["ext1"] == 0
    assert tr["T0_in_add_Ae"] is True


def test_special_tilting_trivial_f(double_triangle):
    A = double_triangle
    T, tr = fb.special_tilting_module(A, [], list(A.vertices))
    assert tr["proj_dim"] == 0
    assert tr["ext1"] == 0


def test_special_tilting_two_ag(two_ag):
    T, tr = fb.special_tilting_module(two_ag, ["2", "3", "4"], ["1", "2", "3"])
    assert tr["proj_dim"].le(1) and tr["ext1"] == 0


def test_singular_reduction_double_triangle(double_triangle):
    C, cert = fb.singular_reduction(double_triangle, ["2", "3", "5"])
    assert C.dim == 10
    assert cert["quotient_gl_dim"].is_finite
    assert cert["corner_proj_dim_fA"].is_finite
    assert cert["singular_equivalence"] is True
    # f = 1: the quotient A/<f> is the zero algebra and the corner is A
    C, cert = fb.singular_reduction(double_triangle, list(double_triangle.vertices))
    assert C.dim == double_triangle.dim
    assert cert == {"quotient_gl_dim": hm.DimValue.finite(0),
                    "corner_proj_dim_fA": hm.DimValue.finite(0),
                    "singular_equivalence": True}


def test_cofabric_is_fabric_on_the_opposite(double_triangle, two_ag):
    A = double_triangle
    # internal consistency: the cofabric test is the fabric test on A^op
    for F in ([], ["2", "3", "5"], list(A.vertices)):
        try:
            e1, _ = fb.cofabric_check(A, F)
        except (ProjDimTooBig, NoCompanionFound) as exc1:
            with pytest.raises(type(exc1)):
                fb.check_fabric_definitional(A.opposite(), F)
            continue
        e2, _ = fb.check_fabric_definitional(A.opposite(), F)
        assert sorted(e1) == sorted(e2)
    # derived by enumeration: neither example algebra admits a nontrivial
    # cofabric idempotent (their zero-circuit relations sit at the vertices
    # the reversal would need to contract)
    from itertools import combinations
    for B in (A, two_ag):
        found = []
        for r in range(B.n_vertices + 1):
            for F in combinations(B.vertices, r):
                try:
                    fb.cofabric_check(B, list(F))
                    found.append(F)
                except (ProjDimTooBig, NoCompanionFound):
                    pass
        assert found == [(), tuple(B.vertices)]


def test_cofabric_dimension_runs_on_opposite(double_triangle):
    per, sup = fb.cofabric_dimension(double_triangle, ["2", "3", "5"])
    # syzygy chains over the opposite algebra close, so values are certified
    assert all(d.kind in ("finite", "infinite") for d in per.values())


def test_generator_switching_double_triangle(double_triangle):
    rep = fb.verify_generator_switching(double_triangle, ["2", "3", "5"],
                                        ["1", "3", "4"], sample_budget=12)
    assert rep["violations"] == []
    assert rep["gor_dim"] == 2
    assert rep["h_level"] == 1


def test_minimal_gen_level(double_triangle):
    assert fb.minimal_gen_level(double_triangle, ["1", "3", "4"]) == 1
    assert fb.minimal_gen_level(double_triangle,
                                list(double_triangle.vertices)) == "inf"
    # DA has a periodic resolution here, so all of its terms are listed ones
    A = nk.higher_nakayama(1, (3, 4))[0]
    assert hm.minimal_resolution(hm.dual_regular(A)).status == "periodic"
    assert fb.minimal_gen_level(A, list(A.vertices)) == "inf"


def test_minimal_gen_level_is_inf_exactly_at_gen_inf():
    """Every n = 1 Kupisch series with at most 3 entries, each at most 4,
    and every non-empty vertex set H."""
    cases = 0
    for k in (1, 2, 3):
        for entries in itertools.product(range(1, 5), repeat=k):
            if not nk.is_valid_kupisch(entries):
                continue
            A = nk.higher_nakayama(1, entries)[0]
            DA = hm.dual_regular(A)
            for r in range(1, A.n_vertices + 1):
                for H in itertools.combinations(A.vertices, r):
                    cases += 1
                    assert ((fb.minimal_gen_level(A, H) == "inf")
                            == hm.gen_membership(DA, H, "inf").verdict), (entries, H)
    assert cases == 216


def test_analyze_fabric_report(double_triangle):
    rep = fb.analyze_fabric(double_triangle, ["2", "3", "5"],
                            h=["1", "3", "4"])
    assert rep.combinatorial["verdict"] and rep.definitional["verdict"]
    assert rep.e == ("1", "3", "4")
    assert rep.fab_dim == 1
    assert rep.h_level == 1


def test_companion_is_not_the_constructive_candidate():
    # the candidate keeps vertex 1, in the support of tau P_2, so tau P_2 is
    # no module over A/<e>; the rule starts outside the translates' supports
    A = build_algebra(fixture("canonical-2-211"))
    e_c = fb.companion_candidate(A, ["1", "4"])[0]
    assert e_c == ("1", "2", "6", "8")
    e, tr = fb.check_fabric_definitional(A, ["1", "4"])
    assert e == tr["e"] == ("2", "6", "8")
    assert not fb._companion_valid(A, ["1", "4"], e_c, _translates(A, ["1", "4"]))


def test_all_translates_zero_is_reported_as_its_own_outcome(double_triangle, capsys):
    """canonical-2-221 with F = {1}: every tau of a projective A/<f>-module
    is 0, so e is the whole vertex set, the greatest of possibly several
    companions, and the transcript and ``qfab fabric`` say so.  A companion
    read off non-zero translates gets no such note."""
    A = build_algebra(fixture("canonical-2-221"))
    assert all(t.total_dim == 0 for t in _translates(A, ["1"]).values())
    e, tr = fb.check_fabric_definitional(A, ["1"])
    assert e == tuple(A.vertices) and tr["all_translates_zero"]
    assert cli.main(["fabric", "fixture:canonical-2-221", "--f", "1"]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("companion-note:")]
    assert notes == ["companion-note: every tau of a projective A/<f>-module is 0; "
                     "e, the whole vertex set, is the greatest of possibly several "
                     "companions"]
    _, tr = fb.check_fabric_definitional(double_triangle, ["2", "3", "5"])
    assert not tr["all_translates_zero"]
    assert cli.main(["fabric", "fixture:double-triangle", "--f", "2,3,5"]) == 0
    assert "companion-note" not in capsys.readouterr().out


def test_no_companion_above_sixteen_vertices_is_a_plain_no():
    A = nk.higher_nakayama(2, (5, 4, 4, 4))[0]
    assert A.n_vertices == 17
    F = [v for v in A.vertices if v != "05"]
    with pytest.raises(NoCompanionFound) as exc:
        fb.check_fabric_definitional(A, F)
    msg = str(exc.value)
    assert msg == f"no companion idempotent for F={sorted(F)}"
    assert fb.analyze_fabric(A, F).definitional == {"verdict": False, "reason": msg}


def _translates(A, F):
    """tau of each projective A/<f>-module, keyed by its vertex."""
    projs = hm._quotient_modules(A, F, md.projective_module)
    return {v: hm.ar_translate(P) for v, P in projs.items()}


def _companions_by_search(A, F, taus):
    """Every companion of F, found by trying each subset of the vertices
    outside the supports of the translates: the reference the companion
    rule is checked against."""
    support = {A.vertices[p] for t in taus.values()
               for p, d in enumerate(t.dims) if d}
    allowed = [v for v in A.vertices if v not in support]
    subsets = (tuple(sorted(E)) for r in range(len(allowed) + 1)
               for E in itertools.combinations(allowed, r))
    return [E for E in subsets if fb._companion_valid(A, F, E, taus)]


def _outcome(check, A, F):
    """The sorted companion ``check`` finds, or the exception it raises."""
    try:
        return tuple(sorted(check(A, list(F))[0]))
    except (ProjDimTooBig, ConditionFailed, NoCompanionFound) as exc:
        return exc


@functools.cache
def _census(name):
    """Both detectors on every vertex subset of a fixture."""
    A = build_algebra(fixture(name))
    return A, {F: (_outcome(fb.check_fabric_combinatorial, A, F),
                   _outcome(fb.check_fabric_definitional, A, F))
               for r in range(A.n_vertices + 1)
               for F in itertools.combinations(A.vertices, r)}


def _fabric_dimension_by_isomorphism(A, F, cutoff=12):
    """Reference per-projective fabric dimensions: the least n with an
    isomorphism P ~ Omega^n I_w, tested on every syzygy of P's dims."""
    chains = [hm.minimal_resolution(md.injective_module(A, w), "projective",
                                    cutoff=cutoff) for w in A.vertices]
    per = {}
    for v, P in hm._quotient_modules(A, F, md.projective_module).items():
        best, all_closed = None, True
        for res in chains:
            syzygies = res.syzygies
            for n in range(1, len(syzygies)):
                S = syzygies[n]
                if S.dims == P.dims and md.is_isomorphic(S, P):
                    best = n if best is None else min(best, n)
                    break
            else:
                all_closed &= res.status != "truncated"
        if best is not None:
            per[v] = hm.DimValue.finite(best)
        elif all_closed:
            per[v] = hm.DimValue.infinite(note="all injective syzygy chains closed")
        else:
            per[v] = hm.DimValue.at_least(cutoff)
    return per


def _tilting_pairing_by_isomorphism(A, F, E):
    """Reference tilting pairing: each vertex w outside E with the first
    unused quotient projective whose first syzygy is isomorphic to P_w;
    None when some w has none."""
    projs = hm._quotient_modules(A, F, md.projective_module)
    pairing = {}
    for w in A.vertices:
        if w in E:
            continue
        Pw = md.projective_module(A, w)
        found = next((v for v, P in projs.items() if v not in pairing.values()
                      and md.is_isomorphic(hm.minimal_resolution(P, cutoff=0)
                                           .syzygies[1], Pw)), None)
        if found is None:
            return None
        pairing[w] = found
    return pairing


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", [name for name in fixture_names()
                                  if fixture(name).quiver.n_vertices <= 6])
def test_top_criterion_agrees_with_isomorphism_references(name, field):
    """Fabric dimensions and the tilting pairing, read off dimension vectors
    and one-element tops, agree with the isomorphism tests on every vertex
    subset with a companion."""
    A = build_algebra(fixture(name), field)
    checked = 0
    for r in range(A.n_vertices + 1):
        for F in map(list, itertools.combinations(A.vertices, r)):
            try:
                e, _ = fb.check_fabric_definitional(A, F)
            except (ProjDimTooBig, NoCompanionFound):
                continue
            per, _ = fb.fabric_dimension(A, F)
            want = _fabric_dimension_by_isomorphism(A, F)
            assert ({v: (d.kind, d.value, d.note) for v, d in per.items()}
                    == {v: (d.kind, d.value, d.note) for v, d in want.items()}), F
            try:
                pairing = fb.special_tilting_module(A, F, e)[1]["pairing"]
            except VerificationFailed as exc:
                assert "partial tilting" in str(exc), (F, exc)
                pairing = None
            assert pairing == _tilting_pairing_by_isomorphism(A, F, e), F
            checked += 1
    assert checked


def test_companion_rule_agrees_with_the_subset_search():
    """On every fixture (none has more than 8 vertices) and every F with
    proj.dim A/<f> <= 1: a companion exists exactly when the rule finds
    one, and then the rule's is one of them, the only one unless every
    translate is zero."""
    checked = 0
    for name in fixture_names():
        A, rows = _census(name)
        assert A.n_vertices <= 8
        for F, (_, e) in rows.items():
            if isinstance(e, ProjDimTooBig):
                continue
            taus = _translates(A, list(F))
            checked += 1
            if isinstance(e, tuple) and not any(t.total_dim for t in taus.values()):
                assert fb._companion_valid(A, list(F), e, taus), (name, F)
                continue
            found = _companions_by_search(A, list(F), taus)
            assert found == ([e] if isinstance(e, tuple) else []), (name, F)
    assert checked == 168


def test_fabric_census_disagreements_are_condition_2_failures():
    """Where the two detectors disagree, the combinatorial one fails its
    condition (2) and the definitional one finds a companion."""
    disagree = {}
    for name in fixture_names():
        _, rows = _census(name)
        for F, (comb, dfn) in rows.items():
            companions = [r if isinstance(r, tuple) else None for r in (comb, dfn)]
            if companions[0] == companions[1]:
                continue
            assert isinstance(comb, ConditionFailed) and comb.condition == 2, (name, F)
            assert isinstance(dfn, tuple), (name, F)
            disagree[name] = disagree.get(name, 0) + 1
    assert disagree == {"canonical-2-211": 4, "canonical-2-221": 18}


def _summand_classes(A, F, e):
    """The isomorphism classes among the summands Ae_u (u in e) and
    P_u/<f>P_u (u outside F) of T, counted with ``is_isomorphic``."""
    summands = [md.projective_module(A, v) for v in e]
    summands += hm._quotient_modules(A, F, md.projective_module).values()
    classes = []
    for S in summands:
        if not any(md.is_isomorphic(S, C) for C in classes):
            classes.append(S)
    return len(classes)


def test_tilting_fails_exactly_on_a_short_bongartz_count():
    """On the 70 (fixture, F) pairs over Q with a definitional companion e,
    ``special_tilting_module`` fails exactly where T = Ae + A/<f> has fewer
    pairwise non-isomorphic summands than vertices, and those are exactly
    the pairs where the two detectors disagree: 22 pairs each."""
    failed, short, disagree, checked = set(), set(), set(), 0
    for name in fixture_names():
        A, rows = _census(name)
        for F, (comb, e) in rows.items():
            if not isinstance(e, tuple):
                continue
            checked += 1
            count, n = _summand_classes(A, F, e), A.n_vertices
            if count < n:
                short.add((name, F))
            if comb != e:
                disagree.add((name, F))
            try:
                assert fb.special_tilting_module(A, list(F), e)[1]["summands"] == count == n
            except VerificationFailed as exc:
                assert str(exc) == f"partial tilting: {count} of {n} summands"
                failed.add((name, F))
    assert checked == 70
    assert failed == short == disagree and len(failed) == 22


def test_canonical_221_observed_behavior():
    """The straight resolution of the duplicated-label figure: the corner
    chain works and a definitional companion exists, while the printed
    quiver violates combinatorial condition (2)."""
    A = build_algebra(fixture("canonical-2-221"))
    F = ["1", "2", "4", "6", "8"]
    with pytest.raises(ConditionFailed):
        fb.check_fabric_combinatorial(A, F)
    e, _ = fb.check_fabric_definitional(A, F)
    assert sorted(e) == ["3", "5", "7"]
    C, cert = fb.singular_reduction(A, F)
    assert C.dim == build_algebra(fixture("canonical-2-211")).dim == 30


def test_canonical_chain_to_beilinson():
    A221 = build_algebra(fixture("canonical-2-221"))
    C1 = corner(A221, ["1", "2", "4", "6", "8"])
    p211 = fixture("canonical-2-211")
    # the corner has two-dimensional arrow blocks along the collapsed arms,
    # so alignment needs explicit images: compare dimensions and quivers
    ext = quiver_of(C1)
    got = sorted((a.source, a.target) for a in ext.presentation.quiver.arrows)
    want = sorted((a.source, a.target) for a in p211.quiver.arrows)
    assert got == want
    A211 = build_algebra(p211)
    assert C1.dim == A211.dim
    # second contraction: F' = {1,4,8}
    F2 = ["1", "4", "8"]
    e2, _ = fb.check_fabric_definitional(A211, F2)
    assert e2 is not None
    C2 = corner(A211, F2)
    B2 = build_algebra(fixture("beilinson-2"))
    assert C2.dim == B2.dim == 15
    ext2 = quiver_of(C2)
    got2 = sorted((a.source, a.target) for a in ext2.presentation.quiver.arrows)
    want2 = sorted((a.source, a.target) for a in fixture("beilinson-2").quiver.arrows)
    assert got2 == want2
