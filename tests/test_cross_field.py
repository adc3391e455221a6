"""Field-independent answers agree over Q, F_2, F_3 and F_(2^31-1).

Every homological dimension and fabric verdict asked here rests on module
isomorphism tests.  Over a small field a random combination of a Hom basis
is often singular, so an isomorphism test that only draws would miss
periods and isomorphisms there and print different answers.
"""

from pathlib import Path

import pytest

from qfab import cli
from qfab import fabric as fb
from qfab import homology as hm
from qfab import modules as md
from qfab.algebra import build_algebra
from qfab.field import QQ, PrimeField
from qfab.fixtures import fixture, fixture_names

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(2 ** 31 - 1)]
GOLDEN = Path(__file__).parent / "golden"


def _over_every_field(name, answer):
    """answer(A) for the fixture over each field, as printed."""
    return [repr(answer(build_algebra(fixture(name), field))) for field in FIELDS]


@pytest.mark.parametrize("name", fixture_names())
def test_dimensions_agree_across_fields(name):
    answers = _over_every_field(name, lambda A: (hm.gorenstein_dimension(A)[0],
                                                 hm.dominant_dimension(A),
                                                 hm.global_dimension(A)))
    assert answers == answers[:1] * len(FIELDS)


FABRIC_CASES = [("double-triangle", ("2", "3", "5")),
                ("double-triangle", ("1", "2", "3", "5")),
                ("double-triangle", ("2", "3", "4", "5")),
                ("two-ag-square", ("2", "3", "4"))]


@pytest.mark.parametrize("name, F", FABRIC_CASES,
                         ids=[f"{name}-{','.join(F)}" for name, F in FABRIC_CASES])
def test_fabric_verdicts_agree_across_fields(name, F):
    answers = _over_every_field(name, lambda A: (
        fb.check_fabric_definitional(A, F)[0], fb.fabric_dimension(A, F)[1]))
    assert answers == answers[:1] * len(FIELDS)
    assert "infinity" not in answers[0]


def test_semisimple_cube_is_isomorphic_to_itself_over_f2():
    A = build_algebra(fixture("double-triangle"), PrimeField(2))
    S = md.simple_module(A, "1")
    M = md.direct_sum([S, S, S])[0]
    cert = md.is_isomorphic(M, M)
    assert cert and cert.witness.is_isomorphism()


def test_fabric_report_over_f3_matches_q_golden(capsys):
    argv = ["fabric", "fixture:double-triangle", "--f", "2,3,5", "--h", "1,3,4"]
    assert cli.main(argv + ["--field", "F3"]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / "fabric-double-triangle.txt").read_text()
    assert got == want.replace("field: Q\n", "field: F3\n")
    assert "field: Q\n" in want
