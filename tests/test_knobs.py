"""No answer depends on a random seed, so no caller can set one."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qfab

SRC = Path(qfab.__file__).parent
# Unread parameters that the benchmark's ``queries`` workload passes.
UNREAD_SEEDS = {"homology.minimal_resolution", "homology.ext_dim",
                "homology.ar_translate"}


def test_no_function_takes_or_passes_a_seed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                if "seed" in names:
                    found.add(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
            elif isinstance(node, ast.Call):
                if any(k.arg == "seed" for k in node.keywords):
                    found.add(f"{path.stem}:{node.lineno} call")
    assert found == UNREAD_SEEDS


def test_cli_rejects_seed_flag():
    r = subprocess.run([sys.executable, "-m", "qfab.cli", "analyze",
                        "fixture:double-triangle", "--seed", "1"],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert r.returncode == 2
    assert "--seed" in r.stderr


def test_only_the_last_isomorphism_step_draws_random_numbers():
    """``modules.is_isomorphic`` ends in draws from a fixed stream; no other
    module of the package imports ``random``."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "random" in names:
                importers.add(path.stem)
    assert importers == {"modules"}
