"""No dead code: every module-level function of ``qfab.linalg``, every
method of ``Subspace`` and ``Span``, and every module-level private
``_function`` of the package is used somewhere in the package."""

import ast
from pathlib import Path

import qfab

SRC = Path(qfab.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _used(name, own):
    """Is ``name`` loaded as a name or an attribute anywhere in the package
    outside the def node ``own``?"""
    stack = list(TREES.values())
    while stack:
        node = stack.pop()
        if node is own:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_linalg_function_and_subspace_method_is_used():
    defs = []
    for node in TREES["linalg"].body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and node.name in ("Subspace", "Span"):
            defs += [(f"{node.name}.{m.name}", m) for m in node.body
                     if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    assert {"rref", "Span.add", "Subspace.insert"} <= {label for label, _ in defs}
    unused = [label for label, node in defs if not _used(node.name, node)]
    assert unused == []


def test_every_private_function_is_used():
    defs = [(f"{mod}.{node.name}", node) for mod, tree in TREES.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    assert "linalg._kernel" in {label for label, _ in defs}
    unused = [label for label, node in defs if not _used(node.name, node)]
    assert unused == []
