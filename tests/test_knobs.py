"""No answer depends on a random seed, so no caller can set one, and no
boolean switch is added to a function without being listed here."""

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
# Parameters with a literal True/False default, as module.function(parameter).
BOOLEAN_KNOBS = {"modules.validate(full)"}


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


def test_every_boolean_knob_is_listed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            defaults += zip(a.kwonlyargs, a.kw_defaults)
            for arg, default in defaults:
                if isinstance(default, ast.Constant) and isinstance(default.value, bool):
                    found.add(f"{path.stem}.{getattr(node, 'name', '<lambda>')}({arg.arg})")
    assert found == BOOLEAN_KNOBS


def test_cli_rejects_seed_flag():
    r = subprocess.run([sys.executable, "-m", "qfab.cli", "analyze",
                        "fixture:double-triangle", "--seed", "1"],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert r.returncode == 2
    assert "--seed" in r.stderr


def test_no_module_imports_random():
    """Every answer is exact or says it is undecided, so no module of the
    package imports ``random``."""
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
    assert importers == set()
