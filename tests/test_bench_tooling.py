"""The benchmark's tracer patches names inside ``qfab`` (``Matrix.__mul__``,
``Subspace.insert``, ``FDAlgebra.mult``, ``field.FpElement``).  A refactor
that removes or renames one of them breaks ``--trace 1``; this smoke test
makes the tier-1 run notice."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_analyze_pass_counts_every_patched_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                        "--workload", "analyze", "--seed", "1", "--trace", "1"],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.splitlines()[-1])
    assert out["failed"] == []
    layers = out["layers"]
    for key in ("linalg.matmul.calls", "linalg.subspace_insert.calls",
                "homology.projective_cover.calls", "algebra.mult.calls"):
        assert layers.get(key, 0) > 0, key
