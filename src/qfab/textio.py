"""Text formats: the presentation file format, DOT export, and reproducible
report documents.

Presentation files are line-oriented:

    # comment
    field Q            (or: field F 5)
    vertex 1
    arrow a: 1 -> 2
    relation b*a - c*d
    relation 2*c*b*a

A term is ``[coef*]a_k*...*a_1`` with composition right-to-left (the
rightmost arrow applies first).  Printing then parsing a normalized file is
the identity.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction

from .errors import ParseError, UnknownVertex, NonParallelRelation, QfabError
from .field import QQ, field_by_name
from .quiver import Quiver, PathWord, Relation, Presentation


def parse_presentation(text, name=""):
    """Parse a presentation file; returns (Presentation, field)."""
    field = QQ
    vertices = []
    arrows = []
    rel_lines = []
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("field"):
            spec = line[len("field"):].strip().replace(" ", "")
            try:
                field = field_by_name(spec)
            except ValueError as exc:
                raise ParseError(ln, 1, str(exc))
        elif line.startswith("vertex"):
            vid = line[len("vertex"):].strip()
            if not vid:
                raise ParseError(ln, 7, "missing vertex id")
            if vid in vertices:
                raise ParseError(ln, 1, f"vertex {vid!r} declared twice")
            vertices.append(vid)
        elif line.startswith("arrow"):
            m = re.match(r"arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s*$",
                         line)
            if not m:
                raise ParseError(ln, 1, "expected `arrow id: src -> tgt`")
            if any(a[0] == m.group(1) for a in arrows):
                raise ParseError(ln, 1, f"arrow {m.group(1)!r} declared twice")
            arrows.append((m.group(1), m.group(2), m.group(3), ln))
        elif line.startswith("relation"):
            rel_lines.append((ln, line[len("relation"):].strip()))
        else:
            raise ParseError(ln, 1, f"unknown directive {line.split()[0]!r}")
    vset = set(vertices)
    for (aid, s, t, ln) in arrows:
        if s not in vset:
            raise UnknownVertex(ln, 1, f"arrow {aid!r} source {s!r} undeclared")
        if t not in vset:
            raise UnknownVertex(ln, 1, f"arrow {aid!r} target {t!r} undeclared")
    Q = Quiver(vertices, [(a, s, t) for (a, s, t, _) in arrows])
    relations = [_parse_relation(Q, ln, body) for ln, body in rel_lines]
    return Presentation(Q, relations, name=name), field


_TERM_SPLIT = re.compile(r"(?=[+-])")


def _parse_relation(Q, ln, body):
    if not body:
        raise ParseError(ln, 9, "empty relation")
    chunks = [c.strip() for c in _TERM_SPLIT.split(body) if c.strip()]
    terms = []
    for chunk in chunks:
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        elif chunk.startswith("+"):
            chunk = chunk[1:].strip()
        pieces = [p.strip() for p in chunk.split("*")]
        if not pieces or any(not p for p in pieces):
            raise ParseError(ln, 1, f"malformed term {chunk!r}")
        coef = "1"
        if re.fullmatch(r"\d+(/\d+)?", pieces[0]):
            coef = pieces[0]
            pieces = pieces[1:]
        if not pieces:
            raise ParseError(ln, 1, f"term {chunk!r} has no arrows")
        for p in pieces:
            if p not in Q.arrow_index:
                raise ParseError(ln, 1, f"unknown arrow {p!r}")
        if len(pieces) < 2:
            raise ParseError(ln, 1, f"term {chunk!r} is shorter than 2 arrows")
        # written composition order is right-to-left; words store
        # application order
        word = tuple(Q.arrow_index[p] for p in reversed(pieces))
        try:
            pw = PathWord(Q, word)
        except QfabError as exc:
            raise ParseError(ln, 1, str(exc))
        if coef == "1" and sign == 1:
            terms.append((1, pw))
        else:
            if "/" in coef:
                n, d = coef.split("/")
                if not int(d):
                    raise ParseError(ln, 1, f"coefficient {coef!r} divides by zero")
                terms.append((sign * Fraction(int(n), int(d)), pw))
            else:
                terms.append((sign * int(coef), pw))
    try:
        return Relation(terms)
    except QfabError as exc:
        raise NonParallelRelation(ln, 1, str(exc))


def print_presentation(pres, field=QQ):
    """Serialize a presentation in normalized form."""
    out = []
    if getattr(field, "characteristic", 0):
        out.append(f"field F {field.characteristic}")
    else:
        out.append("field Q")
    for v in pres.quiver.vertices:
        out.append(f"vertex {v.id}")
    for a in pres.quiver.arrows:
        out.append(f"arrow {a.id}: {a.source} -> {a.target}")
    for rel in pres.relations:
        parts = []
        for k, (coef, pw) in enumerate(rel.terms):
            word = "*".join(pres.quiver.arrows[i].id for i in reversed(pw.arrows))
            neg = str(coef).startswith("-")
            mag = str(coef)[1:] if neg else str(coef)
            prefix = "" if mag == "1" else f"{mag}*"
            if k == 0:
                parts.append(("-" if neg else "") + prefix + word)
            else:
                parts.append(("- " if neg else "+ ") + prefix + word)
        out.append("relation " + " ".join(parts))
    return "\n".join(out) + "\n"


def export_dot(obj, name="quiver"):
    """Deterministic DOT text for a Quiver, a Presentation (relations drawn
    as dotted source-target hints) or a Resolution."""
    from .quiver import Quiver as _Q, Presentation as _P
    from .homology import Resolution as _R
    lines = [f"digraph {name} {{"]
    if isinstance(obj, _P) or isinstance(obj, _Q):
        pres = obj if isinstance(obj, _P) else None
        Q = obj.quiver if pres is not None else obj
        for v in Q.vertices:
            lines.append(f'  "{v.id}";')
        for a in Q.arrows:
            lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.id}"];')
        if pres is not None:
            seen = set()
            for rel in pres.relations:
                key = (rel.source, rel.target)
                if key not in seen:
                    seen.add(key)
                    lines.append(f'  "{rel.source}" -> "{rel.target}" '
                                 f'[style=dotted, arrowhead=none];')
    elif isinstance(obj, _R):
        for i, verts in enumerate(obj.term_vertices):
            label = " + ".join(f"{'P' if obj.direction == 'projective' else 'I'}_{v}"
                               + (f"^{m}" if m > 1 else "")
                               for v, m in sorted(Counter(verts).items()))
            lines.append(f'  t{i} [label="{label or "0"}", shape=box];')
        for i in range(1, len(obj.steps)):
            a, b = (f"t{i}", f"t{i-1}") if obj.direction == "projective" \
                else (f"t{i-1}", f"t{i}")
            lines.append(f"  {a} -> {b};")
    else:
        raise QfabError(f"cannot export {type(obj).__name__} to DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"


_SECTION = object()  # the value of a section header in ReportDocument.items


class ReportDocument:
    """An ordered key-value document; rendering is byte-stable."""

    def __init__(self, title):
        self.title = title
        self.items = []

    def add(self, key, value, indent=0):
        self.items.append((indent, key, value))

    def section(self, key):
        self.items.append((0, key, _SECTION))

    def render(self):
        out = [f"== {self.title} =="]
        for indent, key, value in self.items:
            pad = "  " * indent
            if value is _SECTION:
                out.append(f"{pad}[{key}]")
            else:
                out.append(f"{pad}{key}: {_stable(value)}")
        return "\n".join(out) + "\n"


def _stable(value):
    if isinstance(value, dict):
        inner = ", ".join(f"{k}={_stable(v)}" for k, v in sorted(value.items(),
                                                                 key=lambda kv: str(kv[0])))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_stable(v) for v in value) + "]"
    return str(value)
