"""Each answer check of the benchmark rejects a deliberately wrong answer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/test_checks.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from qfab import QQ  # noqa: E402
from qfab import algebra as al  # noqa: E402
from qfab import fixtures as fx  # noqa: E402
from qfab import homology as hm  # noqa: E402
from qfab import modules as md  # noqa: E402
from qfab import nakayama as nk  # noqa: E402

FIN = lambda n: ("finite", n)  # noqa: E731
INF = ("infinite", None)


@pytest.fixture(scope="module")
def double_triangle():
    return al.build_algebra(fx.fixture("double-triangle"), QQ)


def test_parse_dim():
    assert wl.parse_dim("3") == FIN(3)
    assert wl.parse_dim("infinity") == INF
    assert wl.parse_dim(">=12") == ("at_least", 12)


@pytest.mark.parametrize("name, dims", [
    ("x", {"inj": FIN(1), "proj_DA": FIN(2)}),
    ("x", {"gor": FIN(3), "gl": FIN(2)}),
    ("x", {"gor": FIN(0), "self_injective": False}),
    ("x", {"dom": FIN(1), "self_injective": True}),
    ("x", {"dom": FIN(3), "gor": FIN(2), "self_injective": False}),
    ("preprojective-a4", {"self_injective": False}),
    ("beilinson-2", {"gl": FIN(3)}),
])
def test_dimension_rules_reject(name, dims):
    assert wl.check_dimensions(name, dims)


def test_dimension_rules_accept():
    assert not wl.check_dimensions("beilinson-2", {
        "inj": FIN(2), "proj_DA": FIN(2), "gor": FIN(2), "gl": FIN(2),
        "dom": FIN(1), "self_injective": False})
    assert not wl.check_dimensions("preprojective-a3", {
        "gor": FIN(0), "dom": INF, "self_injective": True, "gl": INF})


def test_analyze_joint_check_rejects_inconsistent_library_answers():
    _, joint = wl.analyze_ops(0)
    F2 = hm.DimValue.finite(2)
    outs = {"gorenstein beilinson-2": (F2, F2, F2), "global beilinson-2": F2,
            "self_injective beilinson-2": False}
    assert not joint(outs)
    outs["global beilinson-2"] = hm.DimValue.finite(1)
    assert joint(outs)


def test_fabric_report_rejects_disagreeing_detectors(double_triangle):
    rc, text = wl.run_cli(["fabric", "fixture:double-triangle", "--f", "2,3,5"])
    report = wl.parse_report(text)
    assert rc == 0 and not wl.check_fabric_report(double_triangle, "2,3,5", report)
    report["combinatorial-e"] = "1,3"
    assert wl.check_fabric_report(double_triangle, "2,3,5", report)


def test_fabric_dimension_rejects_wrong_supremum():
    assert not wl.check_fabric_dimension("1", [FIN(1), FIN(2)], FIN(2))
    assert wl.check_fabric_dimension("1", [FIN(1), FIN(2)], FIN(1))
    assert wl.check_fabric_dimension("1", [FIN(1), INF], FIN(1))


def test_tilting_rejects_wrong_companion(double_triangle):
    assert not wl.check_tilting(double_triangle, ["2", "3", "5"], ["1", "3", "4"])
    assert wl.check_tilting(double_triangle, ["2", "3", "5"], ["1", "2", "3"])


def _fake_trace(trace, **changes):
    fields = dict(vars(trace))
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_reduction_check_rejects_wrong_terminal_and_dims():
    n, entries = 1, (4, 3, 3, 3)
    trace = nk.reduce_to_selfinjective(n, entries)
    assert trace.status == "trivial-singularity"
    assert not wl.check_reduction(n, entries, trace)
    # a trivial-singularity terminal claimed as self-injective
    assert wl.check_reduction(n, entries, _fake_trace(trace, status="self-injective"))
    # stage dimensions that do not shrink
    stages = [SimpleNamespace(corner_dim=99)] + list(trace.stages)
    assert wl.check_reduction(n, entries, _fake_trace(trace, stages=stages))
    # a self-injective algebra (Cartan determinant 2) claimed as the terminal
    B = nk.higher_nakayama(1, (2, 2, 2))[0]
    assert wl.check_reduction(n, entries, _fake_trace(trace, terminal=B))


def test_query_check_rejects_wrong_answers(double_triangle):
    A = double_triangle
    M = md.direct_sum([md.simple_module(A, "1"), md.projective_module(A, "2")])[0]
    res = hm.minimal_resolution(M, cutoff=4)
    exts = [hm.ext_dim(M, md.simple_module(A, v), 1, resolution=res) for v in A.vertices]
    tau = hm.ar_translate(M)
    assert not wl.check_query(M, res, exts, tau)
    wrong = list(exts)
    wrong[0] += 1
    assert wl.check_query(M, res, wrong, tau)
    assert wl.check_query(M, res, exts, md.zero_module(A))
    assert res.status == "terminated"
    res.terms.append(res.terms[0])
    assert wl.check_query(M, res, exts, tau)


def test_query_check_rejects_bad_periodicity_witness(double_triangle):
    A = double_triangle
    S = md.simple_module(A, "3")
    res = hm.minimal_resolution(S, cutoff=6)
    assert res.status == "periodic"
    exts = [hm.ext_dim(S, md.simple_module(A, v), 1, resolution=res) for v in A.vertices]
    tau = hm.ar_translate(S)
    assert not wl.check_query(S, res, exts, tau)
    w = res.period_witness.witness
    res.period_witness = SimpleNamespace(witness=md.ModuleMap.zero(w.source, w.target))
    assert wl.check_query(S, res, exts, tau)
