"""Byte-for-byte CLI reports, fixed before the code they guard changed.

Each file under ``tests/golden/`` is the standard output of the command next
to its name.  A refactor that changes any reported value, or its format,
fails here.
"""

from pathlib import Path

import pytest

from qfab import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "analyze-double-triangle.txt": ["analyze", "fixture:double-triangle"],
    "analyze-two-ag-square.txt": ["analyze", "fixture:two-ag-square"],
    "analyze-preprojective-a3.txt": ["analyze", "fixture:preprojective-a3"],
    "analyze-preprojective-a4.txt": ["analyze", "fixture:preprojective-a4"],
    "fabric-double-triangle.txt": ["fabric", "fixture:double-triangle",
                                   "--f", "2,3,5", "--h", "1,3,4"],
    "nakayama-2-765556-reduce.txt": ["nakayama", "--n", "2", "--kupisch",
                                     "7,6,5,5,5,6", "--reduce"],
    "analyze-beilinson-2.txt": ["analyze", "fixture:beilinson-2"],
    "analyze-canonical-2-211.txt": ["analyze", "fixture:canonical-2-211"],
    "resolve-double-triangle-simple-3.txt": ["resolve", "fixture:double-triangle",
                                             "--module", "simple:3", "--steps", "8"],
    "resolve-two-ag-square-simple-1-injective.txt": [
        "resolve", "fixture:two-ag-square", "--module", "simple:1", "--steps", "6",
        "--injective"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("QFAB_DEFAULT_CUTOFF", raising=False)
    assert cli.main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
