"""The division guard: scalars are divided only inside ``field``.

Over Q a scalar is an ``int`` until a division leaves a remainder, and
``int / int`` is a float.  So every scalar division goes through the field's
``div`` method, and a true division ``/`` anywhere else in the package is a
bug waiting for an integral operand.
"""

import ast
from pathlib import Path

import qfab

PACKAGE = Path(qfab.__file__).parent


def _true_divisions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def test_true_division_appears_only_in_field():
    # the walk finds the divisions that field.div is built on
    assert _true_divisions(PACKAGE / "field.py")
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "field.py" for line in _true_divisions(path)]
    assert found == []
