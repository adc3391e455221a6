"""Smoke tests of the benchmark's child process.

The benchmark's tracer patches names inside ``qfab`` (``Matrix.__mul__``,
``Subspace.insert``, ``FDAlgebra.mult``, ``field.FpElement``).  A refactor
that removes or renames one of them breaks ``--trace 1``, and the first test
makes the tier-1 run notice.  The second runs the ``reduce`` workload's own
checks, which rebuild each terminal algebra with the blunt engine and test
Cartan determinants: both builders and the idempotent quotient, end to end.
The third runs the ``queries`` workload's checks (Ext^1 by Hom dimensions,
Euler characteristics, periodicity witnesses and tau against projectivity):
resolutions, their differentials and presentations, end to end.  The fourth
runs the ``analyze`` workload's checks (the dimension rules, agreement of
the fabric detectors, and each tilting module rebuilt apart from the
program): the CLI reports, fabric detection and homological dimensions, end
to end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _child(*args):
    """The JSON report of one ``perfbench/child.py`` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_traced_analyze_pass_counts_every_patched_layer():
    out = _child("--workload", "analyze", "--seed", "1", "--trace", "1")
    assert out["failed"] == []
    layers = out["layers"]
    for key in ("linalg.matmul.calls", "linalg.subspace_insert.calls",
                "homology.projective_cover.calls", "algebra.mult.calls"):
        assert layers.get(key, 0) > 0, key


def test_reduce_workload_passes_its_own_checks():
    out = _child("--workload", "reduce", "--seed", "1", "--check", "1")
    assert out["errors"] == []
    assert out["failed"] == []


def test_queries_workload_passes_its_own_checks():
    out = _child("--workload", "queries", "--seed", "907", "--check", "1")
    assert out["errors"] == []
    assert out["failed"] == []


def test_analyze_workload_passes_its_own_checks():
    out = _child("--workload", "analyze", "--seed", "907", "--check", "1")
    assert out["errors"] == []
    assert out["failed"] == []
