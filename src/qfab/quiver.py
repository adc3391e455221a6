"""Quivers, path words and bound-quiver presentations.

Conventions, fixed once and used everywhere:

* a path word stores its arrows in application order: ``(a, b)`` is the path
  that applies ``a`` first and then ``b`` (written ``b*a`` in text files);
* paths are ordered by length first, then lexicographically on the tuple of
  arrow indices (declaration order); this order fixes all normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import QfabError


@dataclass(frozen=True)
class Vertex:
    id: str
    label: str = ""


@dataclass(frozen=True)
class Arrow:
    id: str
    source: str
    target: str
    label: str = ""


class Quiver:
    """A finite directed multigraph with string vertex/arrow ids."""

    def __init__(self, vertices, arrows):
        self.vertices = [v if isinstance(v, Vertex) else Vertex(str(v)) for v in vertices]
        self.arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        seen = set()
        for v in self.vertices:
            if v.id in seen:
                raise QfabError(f"duplicate vertex id {v.id!r}")
            seen.add(v.id)
        self.vertex_index = {v.id: i for i, v in enumerate(self.vertices)}
        seen = set()
        for a in self.arrows:
            if a.id in seen:
                raise QfabError(f"duplicate arrow id {a.id!r}")
            seen.add(a.id)
            if a.source not in self.vertex_index or a.target not in self.vertex_index:
                raise QfabError(f"arrow {a.id!r} has an endpoint outside the vertex set")
        self.arrow_index = {a.id: i for i, a in enumerate(self.arrows)}

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_arrows(self):
        return len(self.arrows)

    def __repr__(self):
        return f"Quiver({self.n_vertices} vertices, {self.n_arrows} arrows)"


class PathWord:
    """A composable sequence of arrows of a fixed quiver.

    ``arrows`` holds arrow indices in application order.  The empty word at a
    vertex is the stationary path (the vertex idempotent).
    """

    __slots__ = ("quiver", "arrows", "source", "target")

    def __init__(self, quiver, arrows, vertex=None):
        self.quiver = quiver
        self.arrows = tuple(arrows)
        if not self.arrows:
            if vertex is None:
                raise QfabError("a stationary path needs a vertex")
            self.source = vertex
            self.target = vertex
        else:
            arrs = [quiver.arrows[i] for i in self.arrows]
            for x, y in zip(arrs, arrs[1:]):
                if x.target != y.source:
                    raise QfabError(f"arrows {x.id!r}, {y.id!r} do not compose")
            self.source = arrs[0].source
            self.target = arrs[-1].target

    @property
    def length(self):
        return len(self.arrows)

    def __eq__(self, other):
        return (
            isinstance(other, PathWord)
            and self.arrows == other.arrows
            and self.source == other.source
        )

    def __hash__(self):
        return hash((self.arrows, self.source))

    def __repr__(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self.quiver.arrows[i].id for i in reversed(self.arrows))


@dataclass
class Relation:
    """A scalar combination of parallel path words: sum of coeff * path."""

    terms: list  # list of (coeff, PathWord)

    def __post_init__(self):
        if not self.terms:
            raise QfabError("empty relation")
        s = {(t.source, t.target) for _, t in self.terms}
        if len(s) != 1:
            raise QfabError("relation mixes non-parallel paths")
        self.source, self.target = next(iter(s))

    @property
    def max_length(self):
        return max(t.length for _, t in self.terms)

    @property
    def min_length(self):
        return min(t.length for _, t in self.terms)

    def is_homogeneous(self):
        return self.max_length == self.min_length

    def __repr__(self):
        return " + ".join(f"({c})*{p!r}" for c, p in self.terms)


@dataclass
class Presentation:
    """A quiver with admissible relations (and an optional closure bound)."""

    quiver: Quiver
    relations: list
    length_bound: int | None = None
    name: str = ""

    def __post_init__(self):
        for rel in self.relations:
            for _, p in rel.terms:
                if p.length < 2:
                    raise QfabError("relations must involve only paths of length >= 2")

    def is_homogeneous(self):
        return all(r.is_homogeneous() for r in self.relations)

    def max_relation_length(self):
        return max((r.max_length for r in self.relations), default=2)

    def default_length_bound(self):
        if self.length_bound is not None:
            return self.length_bound
        return 2 + self.quiver.n_arrows * self.max_relation_length()


def path(quiver, *arrow_ids, at=None):
    """Build a PathWord from arrow ids listed in application order."""
    if not arrow_ids:
        return PathWord(quiver, (), vertex=at)
    return PathWord(quiver, tuple(quiver.arrow_index[a] for a in arrow_ids))


def relation(*terms):
    """Build a Relation from (coeff, PathWord) pairs or bare PathWords."""
    out = []
    for t in terms:
        if isinstance(t, PathWord):
            out.append((1, t))
        else:
            out.append(t)
    return Relation(out)
