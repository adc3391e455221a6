import os
import subprocess
import sys
from pathlib import Path

import pytest

from qfab.textio import parse_presentation, print_presentation, export_dot, ReportDocument
from qfab.errors import (ParseError, UnknownVertex, NonParallelRelation, UnknownFixture,
                         ParameterOutOfRange)
from qfab.fixtures import fixture, fixture_names
from qfab.algebra import build_algebra
from qfab.field import QQ


def test_parse_minimal_file():
    pres, field = parse_presentation("vertex 1\n")
    assert pres.quiver.n_vertices == 1
    assert field is QQ


def test_roundtrip_all_fixtures():
    for name in ["double-triangle", "two-ag-square", "preprojective-a3",
                 "canonical-2-221", "beilinson-2"]:
        pres = fixture(name)
        text = print_presentation(pres)
        back, _ = parse_presentation(text)
        assert print_presentation(back) == text
        assert build_algebra(back).dim == build_algebra(pres).dim


def test_every_listed_fixture_builds():
    names = fixture_names()
    assert len(names) == len(set(names)) == 10
    for name in names:
        assert build_algebra(fixture(name)).dim > 0, name


@pytest.mark.parametrize("name", ["preprojective-a+3", "preprojective-a 3",
                                  "preprojective-a03", "preprojective-a3 "])
def test_fixture_rejects_a_name_it_does_not_list(name):
    assert name not in fixture_names()
    with pytest.raises(UnknownFixture):
        fixture(name)


def test_fixture_out_of_range_keeps_its_message():
    with pytest.raises(ParameterOutOfRange, match="2 <= n <= 6"):
        fixture("preprojective-a7")


def test_cli_rejects_a_fixture_name_it_does_not_list():
    r = _run_cli("build", "fixture:preprojective-a+3")
    assert r.returncode == 2
    assert r.stderr == "input error: unknown fixture 'preprojective-a+3'\n"
    assert r.stdout == ""


def test_roundtrip_over_a_prime_field():
    text = ("field F 5\nvertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n"
            "relation 2*b*a\n")
    pres, field = parse_presentation(text)
    printed = print_presentation(pres, field)
    assert printed.startswith("field F 5\n")
    back, back_field = parse_presentation(printed)
    assert back_field.characteristic == field.characteristic == 5
    assert print_presentation(back, back_field) == printed


def test_parse_field_directive():
    pres, field = parse_presentation("field F 5\nvertex 1\n")
    assert field.characteristic == 5


def test_parse_coefficients_and_signs():
    text = """\
vertex 1
vertex 2
vertex 3
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 1 -> 2
relation b*a - b*c
relation 2*b*a + 3/2*b*c
"""
    pres, _ = parse_presentation(text)
    assert len(pres.relations) == 2
    coefs = [c for c, _ in pres.relations[1].terms]
    assert str(coefs[0]) == "2" and str(coefs[1]) == "3/2"


def test_parse_errors_are_located():
    with pytest.raises(ParseError) as exc:
        parse_presentation("vertex 1\nbogus line\n")
    assert exc.value.line == 2
    with pytest.raises(UnknownVertex):
        parse_presentation("vertex 1\narrow a: 1 -> 9\n")
    with pytest.raises(NonParallelRelation):
        parse_presentation(
            "vertex 1\nvertex 2\nvertex 3\n"
            "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 2 -> 1\n"
            "relation b*a - c*a\n")
    with pytest.raises(ParseError):
        parse_presentation("vertex 1\narrow a: 1 -> 1\nrelation a*x\n")


_TWO_CYCLE = "vertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n"

MALFORMED = {
    "zero-denominator": (_TWO_CYCLE + "relation 1/0*b*a\n", 5),
    "repeated-vertex": ("vertex 1\nvertex 2\nvertex 1\n", 3),
    "repeated-arrow": (_TWO_CYCLE + "arrow a: 2 -> 1\n", 5),
    "short-path": ("vertex 1\narrow a: 1 -> 1\nrelation a*a - a\n", 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_presentation_is_located(case):
    text, line = MALFORMED[case]
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert exc.value.line == line


def test_dot_export_quiver():
    pres = fixture("preprojective-a2")
    dot = export_dot(pres)
    assert dot.startswith("digraph")
    assert '"1" -> "2"' in dot and "dotted" in dot
    dot2 = export_dot(pres.quiver)
    assert "dotted" not in dot2


def test_dot_export_resolution(double_triangle):
    from qfab import modules as md, homology as hm
    res = hm.minimal_resolution(md.injective_module(double_triangle, "3"),
                                "projective", cutoff=4)
    dot = export_dot(res)
    assert "P_3" in dot and "shape=box" in dot


def test_dot_export_coresolution(double_triangle):
    from qfab import modules as md, homology as hm
    res = hm.minimal_resolution(md.projective_module(double_triangle, "3"),
                                "injective", cutoff=4)
    assert res.term_vertices == [["1", "4"], ["3"]]
    dot = export_dot(res)
    assert '  t0 [label="I_1 + I_4", shape=box];' in dot
    assert '  t1 [label="I_3", shape=box];' in dot
    assert "  t0 -> t1;" in dot
    assert "P_" not in dot and "t1 -> t0" not in dot


def test_report_document_stable():
    doc = ReportDocument("t")
    doc.add("b", 2)
    doc.add("a", {"y": 1, "x": 2})
    out1 = doc.render()
    doc2 = ReportDocument("t")
    doc2.add("b", 2)
    doc2.add("a", {"x": 2, "y": 1})
    assert out1 == doc2.render()


def test_report_document_none_value_is_not_a_section():
    doc = ReportDocument("t")
    doc.section("s")
    doc.add("h-level", None, indent=1)
    assert doc.render() == "== t ==\n[s]\n  h-level: None\n"


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(*args, timeout=None):
    # the child does not inherit pytest's sys.path: this checkout's src goes
    # ahead of any PYTHONPATH already set
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qfab.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_cli_build_fixture():
    r = _run_cli("build", "fixture:double-triangle")
    assert r.returncode == 0
    assert "dimension: 30" in r.stdout


def test_cli_build_file_roundtrip(tmp_path):
    p = tmp_path / "dt.qf"
    p.write_text(print_presentation(fixture("double-triangle")))
    r = _run_cli("build", str(p))
    assert r.returncode == 0
    assert "dimension: 30" in r.stdout


def test_cli_reports_reproducible(tmp_path):
    r1 = _run_cli("analyze", "fixture:two-ag-square")
    r2 = _run_cli("analyze", "fixture:two-ag-square")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_cli_fabric():
    r = _run_cli("fabric", "fixture:double-triangle", "--f", "2,3,5")
    assert r.returncode == 0
    assert "companion-e: 1,3,4" in r.stdout
    assert "fab.dim: 1" in r.stdout


def test_cli_fabric_failure_exit_code():
    r = _run_cli("fabric", "fixture:double-triangle", "--f", "3")
    assert r.returncode == 1
    assert "definitional-reason: proj.dim_A(A/<f>) = infinity, needs <= 1" in r.stdout


def test_cli_nakayama_reduce():
    r = _run_cli("nakayama", "--n", "2", "--kupisch", "4,3,3,3", "--reduce")
    assert r.returncode == 0
    assert "status: self-injective" in r.stdout
    assert "terminal-dimension: 12" in r.stdout


def test_cli_nakayama_reduce_below_the_cutoff_is_undecided():
    # gl.dim is 2, so cutoff 0 decides nothing; that is no verification failure
    r = _run_cli("nakayama", "--n", "1", "--kupisch", "1,2,3", "--reduce",
                 "--cutoff", "0")
    assert r.returncode == 0, r.stderr
    assert "status: undecided" in r.stdout


def test_cli_nakayama_vertex_list_splits_into_labels():
    from qfab.nakayama import higher_nakayama
    # coordinates reach 10 and 11, so some labels contain commas
    r = _run_cli("nakayama", "--n", "2", "--kupisch", "7,6,5,5,5,6")
    assert r.returncode == 0
    line = next(ln for ln in r.stdout.splitlines() if ln.startswith("vertices: "))
    A, _ = higher_nakayama(2, (7, 6, 5, 5, 5, 6))
    assert line[len("vertices: "):].split(" ") == A.vertices


def test_cli_nakayama_bad_series():
    r = _run_cli("nakayama", "--n", "1", "--kupisch", "2,4")
    assert r.returncode == 2


def test_cli_resolve(tmp_path):
    out = tmp_path / "res.dot"
    r = _run_cli("resolve", "fixture:double-triangle", "--module", "inj:3",
                 "--steps", "4", "--dot", str(out))
    assert r.returncode == 0
    assert "term 0" in r.stdout
    assert out.read_text().startswith("digraph")


@pytest.mark.parametrize("args", [
    ["build", "fixture:double-triangle"],
    ["resolve", "fixture:double-triangle", "--module", "simple:3"],
], ids=["build", "resolve"])
def test_cli_takes_no_cutoff_where_none_is_read(args):
    r = _run_cli(*args, "--cutoff", "3")
    assert r.returncode == 2
    assert "unrecognized arguments: --cutoff 3" in r.stderr
    assert r.stdout == ""


def test_cli_input_error_exit_code():
    r = _run_cli("build", "no-such-file.qf")
    assert r.returncode == 2


@pytest.mark.parametrize("command", ["analyze", "build"])
@pytest.mark.parametrize("spec", ["F4", "X"])
def test_cli_bad_field_flag_is_an_input_error(spec, command):
    r = _run_cli(command, "fixture:double-triangle", "--field", spec)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("parse error: line 1, col 1: --field: ")
    assert ("4 is not prime" if spec == "F4" else "unknown field 'X'") in r.stderr


@pytest.mark.parametrize("args, bad", [
    (["nakayama", "--n", "2", "--kupisch", "3,a"], "'a'"),
    (["nakayama", "--n", "2", "--kupisch", "3,,3"], "'3,,3'"),
    (["nakayama", "--n", "0", "--kupisch", "3,3"], "got 0"),
    (["analyze", "fixture:nope"], "'nope'"),
    (["fabric", "fixture:double-triangle", "--f", "9"], "--f: unknown vertices ['9']"),
    (["fabric", "fixture:double-triangle", "--f", "2,3,5", "--h", "9"],
     "--h: unknown vertices ['9']"),
    (["analyze", "fixture:double-triangle", "--cutoff", "-1"], "--cutoff: "),
    (["resolve", "fixture:double-triangle", "--module", "simple:3", "--steps", "-1"],
     "--steps: "),
    (["resolve", "fixture:double-triangle", "--module", "bogus"],
     "--module: 'bogus' is not of the form simple|proj|inj:<vertex>"),
    (["resolve", "fixture:double-triangle", "--module", "bogus:3"],
     "unknown module kind 'bogus': expected simple|proj|inj:<vertex>"),
    (["resolve", "fixture:double-triangle", "--module", "simple:9"],
     "unknown vertex '9'"),
], ids=["kupisch-letter", "kupisch-empty-entry", "n-zero", "unknown-fixture",
        "unknown-f-vertex", "unknown-h-vertex", "negative-cutoff", "negative-steps",
        "module-without-kind", "unknown-module-kind", "unknown-module-vertex"])
def test_cli_bad_flag_value_is_an_input_error(args, bad):
    r = _run_cli(*args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("input error: ")
    assert bad in r.stderr
    assert r.stdout == ""


_UNDEFINED_OVER_F5 = ("input error: relation 1 ((1/5)*b*a): coefficient 1/5 "
                      "is not defined over F5")
CLI_MALFORMED = {
    **{case: (text, [], f"parse error: line {line}, ")
       for case, (text, line) in MALFORMED.items()},
    "undefined-in-file-field": ("field F 5\n" + _TWO_CYCLE + "relation 1/5*b*a\n",
                                [], _UNDEFINED_OVER_F5),
    "undefined-in-flag-field": (_TWO_CYCLE + "relation 1/5*b*a\n",
                                ["--field", "F5"], _UNDEFINED_OVER_F5),
}


@pytest.mark.parametrize("case", sorted(CLI_MALFORMED))
def test_cli_malformed_presentation_is_an_input_error(tmp_path, case):
    text, flags, message = CLI_MALFORMED[case]
    p = tmp_path / "bad.qf"
    p.write_text(text)
    r = _run_cli("analyze", str(p), *flags)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith(message)
    assert r.stdout == ""


_MERSENNE_61 = "2305843009213693951"


@pytest.mark.parametrize("where", ["flag", "file"])
def test_cli_large_prime_field_is_built_quickly(tmp_path, where):
    p = tmp_path / "two.qf"
    p.write_text(("field F " + _MERSENNE_61 + "\n" if where == "file" else "")
                 + "vertex 1\nvertex 2\narrow a: 1 -> 2\n")
    args = ["--field", "F" + _MERSENNE_61] if where == "flag" else []
    target = "fixture:double-triangle" if where == "flag" else str(p)
    r = _run_cli("build", target, *args, timeout=5)
    assert r.returncode == 0, r.stderr
    assert f"field: F{_MERSENNE_61}" in r.stdout.splitlines()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_cli_prime_at_the_bound_is_a_located_parse_error(tmp_path, where):
    from qfab.field import PRIME_BOUND
    p = tmp_path / "one.qf"
    p.write_text(("field F %d\n" % PRIME_BOUND if where == "file" else "")
                 + "vertex 1\n")
    args = ["--field", "F%d" % PRIME_BOUND] if where == "flag" else []
    r = _run_cli("build", str(p), *args, timeout=5)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("parse error: line 1, col 1: ")
    assert str(PRIME_BOUND) in r.stderr and r.stdout == ""


def test_cli_self_injective_is_exact_over_f2():
    r = _run_cli("analyze", "fixture:preprojective-a3", "--field", "F2")
    assert r.returncode == 0
    assert "self-injective: True" in r.stdout.splitlines()
