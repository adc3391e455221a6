"""No dead code: every module-level function of ``qfab.linalg``, every
method of ``Subspace`` and ``Span``, and every module-level private
``_function`` of the package is used somewhere in the package, every
parameter and every local of every function is read in its body, every
``__slots__`` field of a class is read outside the class's ``__init__``, and
every option of a ``qfab`` command is read by the function that runs it."""

import argparse
import ast
from pathlib import Path

import qfab
from qfab import cli
from test_knobs import UNREAD_SEEDS

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


def _parameters(node, methods):
    """The parameters of a def or lambda node; a method's ``self`` or ``cls``
    is not one, since the call supplies it whatever the body needs."""
    args = node.args
    positional = args.posonlyargs + args.args
    if node in methods:
        positional = positional[1:]
    return [a.arg for a in positional + args.kwonlyargs + [args.vararg, args.kwarg]
            if a is not None]


def test_every_parameter_is_read():
    unread, seen = [], 0
    for mod, tree in TREES.items():
        methods = {m for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, ast.FunctionDef)
                   and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in m.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            label = f"{mod}.{getattr(node, 'name', '<lambda>')}"
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for name in _parameters(node, methods):
                seen += 1
                if name not in read and not (name == "seed" and label in UNREAD_SEEDS):
                    unread.append(f"{label}({name})")
    assert seen > 500
    assert unread == []


def _attribute_read(name, own):
    """Is ``.name`` loaded as an attribute anywhere in the package outside
    the def node ``own``?"""
    stack = list(TREES.values())
    while stack:
        node = stack.pop()
        if node is own:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == name
                and isinstance(node.ctx, ast.Load)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_slot_is_read_outside_its_init():
    fields = []
    for mod, tree in TREES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            init = next((m for m in cls.body if isinstance(m, ast.FunctionDef)
                         and m.name == "__init__"), None)
            for stmt in cls.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in stmt.targets)):
                    fields += [(f"{mod}.{cls.name}.{name}", name, init)
                               for name in ast.literal_eval(stmt.value)]
    assert {"homology._Step.next_verts", "linalg.Matrix.data"} <= {label for label, *_ in fields}
    unread = [label for label, name, init in fields if not _attribute_read(name, init)]
    assert unread == []


def test_every_local_is_read():
    """A name a function assigns (``_`` aside) is read in that function or
    in a function nested in it."""
    unread, seen = [], 0
    for mod, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            names = [n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)]
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            stored = {n.id for n in names if isinstance(n.ctx, ast.Store)} - {"_"}
            seen += len(stored)
            unread += [f"{mod}.{getattr(node, 'name', '<lambda>')}({name})"
                       for name in sorted(stored - read)]
    assert seen > 1000
    assert unread == []


class _Parsed(Exception):
    """Raised in place of parsing, to hand ``qfab.cli.main``'s parser out."""


def _cli_parser(monkeypatch):
    """The argument parser that ``qfab.cli.main`` builds."""
    def capture(self, *args, **kwargs):
        raise _Parsed(self)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    try:
        cli.main([])
    except _Parsed as caught:
        return caught.args[0]
    raise AssertionError("qfab.cli.main parsed no arguments")


def _args_read(fn, defs):
    """The ``args.<dest>`` attributes that the cli function ``fn`` loads,
    with those of the cli functions it hands ``args`` to."""
    read = set()
    for node in ast.walk(defs[fn]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args" and isinstance(node.ctx, ast.Load)):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in defs and node.func.id != fn
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            read |= _args_read(node.func.id, defs)
    return read


def test_every_cli_option_is_read_by_its_command(monkeypatch):
    parser = _cli_parser(monkeypatch)
    defs = {node.name: node for node in TREES["cli"].body
            if isinstance(node, ast.FunctionDef)}
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {"build", "analyze", "fabric", "nakayama", "resolve"}
    unread = []
    for name, sub in sorted(commands.items()):
        fn = sub.get_default("fn").__name__
        read = _args_read(fn, defs)
        unread += [f"{name} --{a.dest}" for a in sub._actions
                   if a.dest != "help" and a.dest not in read]
    assert unread == []
