"""No answer depends on a random seed, so no caller can set one, no
boolean switch is added to a function without being listed here, and no
parameter keeps a default that no caller overrides."""

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
# Defaulted parameters that no caller passes: the paper's public entry
# points, whose cutoffs and Gorenstein bound a library caller may set.
API_DEFAULTS = {"homology.cogen_membership(cutoff)", "fabric.cofabric_check(cutoff)",
                "fabric.cofabric_dimension(cutoff)",
                "fabric.verify_generator_switching(H)",
                "fabric.verify_generator_switching(cutoff)",
                "fabric.verify_generator_switching(gor_n)"}
ROOT = Path(__file__).resolve().parents[1]
CALLERS = [SRC, ROOT / "tests", ROOT / "perfbench"]


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


def _defaulted_parameters(path):
    """(name, function name, parameter, positional index or None) for each
    parameter with a default of each function and method in path, dunders
    left out; the index of a method's parameter does not count ``self``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [(node, f"{path.stem}.", False) for node in tree.body]
    while scopes:
        node, prefix, method = scopes.pop()
        if isinstance(node, ast.ClassDef):
            scopes += [(child, f"{prefix}{node.name}.", True) for child in node.body]
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        shift = 1 if method and not static else 0
        first = len(positional) - len(a.defaults)
        params = [(arg, k - shift) for k, arg in enumerate(positional) if k >= first]
        params += [(arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        for arg, index in params:
            yield f"{prefix}{node.name}({arg.arg})", node.name, arg.arg, index
        scopes += [(child, f"{prefix}{node.name}.", False) for child in node.body]


def _passed(calls, param, index):
    for call in calls:
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if index is not None and (len(call.args) > index
                                  or any(isinstance(x, ast.Starred) for x in call.args)):
            return True
    return False


def test_every_default_is_passed_by_some_caller():
    calls = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    unpassed = {name for path in sorted(SRC.glob("*.py"))
                for name, func, param, index in _defaulted_parameters(path)
                if not _passed(calls.get(func, []), param, index)}
    assert unpassed == API_DEFAULTS
