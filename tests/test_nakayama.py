import pytest

from qfab import modules as md, homology as hm
from qfab.algebra import (build_algebra, corner, quotient_by_idempotent_ideal,
                          quiver_of)
from qfab.errors import (AxiomViolation, HypothesisViolated, QfabError,
                         StageVerificationFailed)
from qfab.nakayama import (KupischSeries, validate_kupisch, higher_nakayama,
                           kupisch_reduce, contraction_pass,
                           reduce_to_selfinjective, coordinate_rank_map,
                           nak_vertices, vertex_label, ReductionTrace,
                           _cross_check_corner)
from qfab.quiver import Presentation, Relation


def test_validate_kupisch_accepts_examples():
    assert validate_kupisch((4, 3, 3, 3)).entries == (4, 3, 3, 3)
    assert validate_kupisch((2, 2, 2)).entries == (2, 2, 2)
    assert validate_kupisch((1,)).entries == (1,)


def test_validate_kupisch_rejects():
    with pytest.raises(AxiomViolation):
        validate_kupisch((2, 4))        # wrap-around gap
    with pytest.raises(AxiomViolation):
        validate_kupisch((3, 1, 2))     # interior entry below 2
    with pytest.raises(AxiomViolation):
        validate_kupisch((4, 2, 2))     # drop larger than one
    with pytest.raises(AxiomViolation):
        validate_kupisch(())


def test_vertex_set_4333():
    A, _ = higher_nakayama(2, (4, 3, 3, 3))
    want = {"01", "02", "03", "04", "12", "13", "14",
            "23", "24", "25", "34", "35", "36"}
    assert set(A.vertices) == want
    assert A.dim == 50


def test_ordinary_nakayama_construction():
    A, _ = higher_nakayama(1, (2, 2))
    assert A.dim == 4
    assert hm.is_self_injective(A)
    B, _ = higher_nakayama(1, (3, 2, 2))
    assert B.dim == 7
    # projective lengths equal the series entries
    assert [len(B.by_source(B.vertex_pos[v])) for v in ["0", "1", "2"]] == [3, 2, 2]


def test_ordinary_nakayama_uniserial():
    A, _ = higher_nakayama(1, (3, 3, 3))
    for v in A.vertices:
        P = md.projective_module(A, v)
        layers = []
        cur = P
        while cur.total_dim:
            R, _ = md.radical_submodule(cur)
            layers.append(cur.total_dim - R.total_dim)
            cur = R
        assert all(l == 1 for l in layers)


def test_line_series_finite_global_dimension():
    A, _ = higher_nakayama(1, (1, 2, 2))
    g = hm.global_dimension(A, cutoff=8)
    assert g.is_finite


def test_kupisch_reduce_4333():
    red, detail = kupisch_reduce(2, (4, 3, 3, 3), with_detail=True)
    assert red.entries == (2, 2, 2)
    assert detail[1] == ((1, 2), 2)
    assert detail[2] == ((2, 3), 2)
    assert detail[3] == ((3, 5), 2)


def test_kupisch_reduce_golden_n1():
    # straight-from-formula evaluation: (3,2,2) at n=1 yields raw counts
    # (0,2,1); dropping the zero leaves (2,1) which is not a Kupisch series
    red = kupisch_reduce(1, (3, 2, 2))
    assert red is None


def test_kupisch_reduce_hypotheses():
    with pytest.raises(HypothesisViolated):
        kupisch_reduce(2, (2, 2, 2))
    with pytest.raises(HypothesisViolated):
        kupisch_reduce(2, (1, 2, 2))


def test_contraction_pass_selects_by_coordinate():
    A, _ = higher_nakayama(2, (4, 3, 3, 3))
    f1 = contraction_pass(A, 1, 4)
    assert sorted(f1) == ["12", "13", "14", "23", "24", "25", "34", "35", "36"]
    C = corner(A, f1)
    C._nak_vertices = {l: A._nak_vertices[l] for l in C.vertices}
    f2 = contraction_pass(C, 2, 4)
    assert sorted(f2) == ["12", "13", "23", "25", "35", "36"]


def test_pass1_corner_matches_printed_quiver(nak_4333):
    A = nak_4333
    f1 = contraction_pass(A, 1, 4)
    C = corner(A, f1)
    ext = quiver_of(C)
    arrows = sorted((a.source, a.target) for a in ext.presentation.quiver.arrows)
    assert arrows == sorted([("12", "13"), ("13", "14"), ("23", "24"),
                             ("24", "25"), ("34", "35"), ("35", "36"),
                             ("13", "23"), ("14", "24"), ("24", "34"),
                             ("25", "35"), ("36", "12")])


def test_quotient_by_pass1_has_global_dimension_n_minus_1(nak_4333):
    A = nak_4333
    f1 = contraction_pass(A, 1, 4)
    Abar = quotient_by_idempotent_ideal(A, f1)
    g = hm.global_dimension(Abar, cutoff=8)
    assert g == 1           # n - 1 for n = 2


def test_reduce_4333_full_pipeline():
    trace = reduce_to_selfinjective(2, (4, 3, 3, 3), cutoff=20, seed=0)
    assert trace.status == "self-injective"
    assert trace.terminal.dim == 12
    assert len(trace.terminal.vertices) == 6
    assert [s.entries for s in trace.series_history] == [(4, 3, 3, 3), (2, 2, 2)]
    assert all(st.fabric_e is not None for st in trace.stages)
    assert trace.certificates.get("cross_checks")


def test_reduce_constant_series_is_terminal():
    trace = reduce_to_selfinjective(2, (3, 3), cutoff=12, seed=0)
    assert trace.status == "self-injective"
    assert not trace.stages
    assert trace.terminal.dim == 20


def test_reduce_l0_one_trivial_singularity():
    trace = reduce_to_selfinjective(1, (1, 2, 2), cutoff=12, seed=0)
    assert trace.status == "trivial-singularity"
    assert trace.certificates["gl_dim"].is_finite


def test_reduce_n1_chen_ye_style():
    trace = reduce_to_selfinjective(1, (3, 2, 2), cutoff=12, seed=0)
    assert trace.status == "trivial-singularity"


@pytest.mark.parametrize("series, gl_dim", [((2, 3), 6), ((3, 2), 6), ((5, 5, 4), 18)],
                         ids=["2,3", "3,2", "5,5,4"])
def test_reduce_n3_ends_at_an_empty_contraction_pass(series, gl_dim):
    # a pass that picks no vertex ends the reduction: the singularity is
    # trivial, and indeed gl.dim of the algebra is finite
    trace = reduce_to_selfinjective(3, series)
    assert trace.status == "trivial-singularity"
    assert trace.certificates["gl_dim"].is_finite
    A, _ = higher_nakayama(3, series)
    assert hm.global_dimension(A, cutoff=24) == gl_dim


def test_reduce_rotation_handles_misaligned_series():
    # (2,2,3) is a valid Kupisch series whose maximum sits at the end
    trace = reduce_to_selfinjective(1, (2, 2, 3), cutoff=12, seed=0)
    assert trace.status in ("self-injective", "trivial-singularity")
    assert trace.certificates.get("rotations")


def test_coordinate_rank_map():
    psi = coordinate_rank_map(4)
    assert [psi(m) for m in (1, 2, 3, 5, 6, 7, 9)] == [0, 1, 2, 3, 4, 5, 6]
    with pytest.raises(QfabError):
        psi(8)


def test_selfinjective_sweep_small():
    for n in (1, 2, 3):
        for l in (2, 3):
            for k in (2, 3):
                A, _ = higher_nakayama(n, (l,) * k)
                assert hm.is_self_injective(A), (n, l, k)


def _round_stages(n, series):
    """The higher Nakayama algebra and the corner after each pass of one
    contraction round (the series must already satisfy the hypotheses)."""
    A, _ = higher_nakayama(n, series)
    stages = [A]
    for j in range(1, n + 1):
        stages.append(corner(stages[-1], contraction_pass(stages[-1], j, len(series))))
    return stages


@pytest.mark.parametrize("n, series", [
    (1, (4, 3, 3, 3)), (2, (4, 3, 3, 3)), (2, (5, 4, 4, 4)),
    (2, (6, 5, 4, 4, 4, 5)), (2, (7, 6, 5, 5, 5, 6)), (3, (4, 3, 3, 3)),
    (3, (5, 4, 4, 4, 4))], ids=str)
def test_stage_structure_constants_are_single_paths(n, series):
    # the cross-check lifts each arrow to one generator with coefficient 1;
    # that needs no sign choice because every product of basis elements of
    # every stage is 0 or one basis element with coefficient 1
    for C in _round_stages(n, series):
        one = C.field.one
        for i in range(C.dim):
            for j in range(C.dim):
                p = C.mult(i, j)
                assert len(p) <= 1 and all(c == one for c in p.values()), (i, j, p)


def test_cross_check_rejects_a_mismatched_rebuild():
    def check(n, series, B, presB, new_k):
        stage = _round_stages(n, series)[-1]
        trace = ReductionTrace(n=n, initial=KupischSeries(series))
        _cross_check_corner(stage, B, presB, len(series), new_k, trace)
        return trace

    B, presB = higher_nakayama(2, (2, 2, 2))
    trace = check(2, (4, 3, 3, 3), B, presB, 3)
    assert trace.certificates["cross_checks"] == [
        {"dim": 12, "vertices": sorted(B.vertices)}]
    # another series of the reduced length: different dimension
    B33, presB33 = higher_nakayama(2, (3, 3, 3))
    assert B33.dim != 12
    with pytest.raises(StageVerificationFailed, match="corner dim"):
        check(2, (4, 3, 3, 3), B33, presB33, 3)
    # another series with the same dimension but other vertices
    B123, presB123 = higher_nakayama(2, (1, 2, 3))
    assert B123.dim == 12
    with pytest.raises(StageVerificationFailed, match="vertex relabeling"):
        check(2, (4, 3, 3, 3), B123, presB123, 3)
    # same quiver and dimension, but every commutator turned into an
    # anticommutator: the corner's generators do not satisfy the relations
    B, presB = higher_nakayama(3, (3, 3, 3, 3))
    anti = Presentation(presB.quiver, [
        Relation([(c if k == 0 else -c, p) for k, (c, p) in enumerate(r.terms)])
        for r in presB.relations])
    B_anti = build_algebra(anti)
    assert B_anti.dim == B.dim
    check(3, (5, 4, 4, 4, 4), B, presB, 4)
    with pytest.raises(StageVerificationFailed, match="does not align"):
        check(3, (5, 4, 4, 4, 4), B_anti, anti, 4)
