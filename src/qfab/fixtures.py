"""Named example algebras used across tests, docs and the CLI.

Each fixture returns a Presentation.  Figures that reuse vertex labels are
resolved here into one fixed finite quiver; the docstrings record the
resolution chosen.
"""

from __future__ import annotations

import re

from .errors import UnknownFixture, ParameterOutOfRange
from .quiver import Quiver, Arrow, Presentation, path, relation


def double_triangle():
    """Two oriented triangles 1->2->3->1 and 3->4->5->3 glued at vertex 3.

    Relations: the two 3->3 circuits agree, and the mixed circuits through
    each triangle vanish.
    """
    Q = Quiver(["1", "2", "3", "4", "5"],
               [("al", "1", "2"), ("be", "2", "3"), ("ga", "3", "1"),
                ("de", "3", "4"), ("ep", "4", "5"), ("ze", "5", "3")])
    rels = [
        relation((1, path(Q, "de", "ep", "ze")), (-1, path(Q, "ga", "al", "be"))),
        relation(path(Q, "be", "ga", "al")),
        relation(path(Q, "ze", "de", "ep")),
    ]
    return Presentation(Q, rels, name="double-triangle")


def two_ag_square():
    """Four vertices: a commuting square 4 => {2,3} => 1 with a return arrow
    1 -> 4 and three vanishing circuits."""
    Q = Quiver(["1", "2", "3", "4"],
               [("al", "4", "2"), ("be", "4", "3"), ("ga", "2", "1"),
                ("de", "3", "1"), ("ep", "1", "4")])
    rels = [
        relation((1, path(Q, "al", "ga")), (-1, path(Q, "be", "de"))),
        relation(path(Q, "al", "ga", "ep")),
        relation(path(Q, "ga", "ep", "al")),
        relation(path(Q, "de", "ep", "be")),
    ]
    return Presentation(Q, rels, name="two-ag-square")


def preprojective_a(n):
    """Preprojective algebra of the A_n line quiver 1 - 2 - ... - n."""
    if not 2 <= n <= 6:
        raise ParameterOutOfRange("preprojective-a supports 2 <= n <= 6")
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = []
    for i in range(1, n):
        arrows.append(Arrow(f"a{i}", str(i), str(i + 1)))
        arrows.append(Arrow(f"b{i}", str(i + 1), str(i)))
    Q = Quiver(vertices, arrows)
    rels = []
    for v in range(1, n + 1):
        terms = []
        if v > 1:
            terms.append((1, path(Q, f"b{v-1}", f"a{v-1}")))
        if v < n:
            terms.append((-1, path(Q, f"a{v}", f"b{v}")))
        rels.append(relation(*terms))
    return Presentation(Q, rels, name=f"preprojective-a{n}")


def _commutator_relations(Q, arrows_by_label):
    """All two-route commutation relations x_p x_q = x_q x_p on a quiver
    whose arrows are grouped into labelled families; one-route composites
    are left alone (no zero relations in the canonical figures)."""
    rels = []
    labels = sorted(arrows_by_label)
    arrow_from = {}
    for lbl in labels:
        for a in arrows_by_label[lbl]:
            arrow_from[(lbl, a.source)] = a
    for v in Q.vertices:
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                p, q = labels[i], labels[j]
                routes = []
                for first, second in ((p, q), (q, p)):
                    a1 = arrow_from.get((first, v))
                    if a1 is None:
                        continue
                    a2 = arrow_from.get((second, a1.target))
                    if a2 is None:
                        continue
                    routes.append(path(Q, a1.id, a2.id))
                if len(routes) == 2 and routes[0] != routes[1]:
                    rels.append(relation((1, routes[0]), (-1, routes[1])))
    return rels


def canonical_2_221():
    """The 2-canonical algebra of type (2,2,1), with the duplicated figure
    labels identified: eight vertices, three arrow families x1, x2, x3, and
    the commutation relations between families."""
    x1 = [("1", "2"), ("2", "4"), ("3", "5"), ("5", "7"), ("4", "6"), ("6", "8")]
    x2 = [("1", "3"), ("3", "4"), ("2", "5"), ("5", "6"), ("4", "7"), ("7", "8")]
    x3 = [("1", "4"), ("2", "6"), ("3", "7"), ("4", "8")]
    return _canonical(["1", "2", "3", "4", "5", "6", "7", "8"],
                      {"x1": x1, "x2": x2, "x3": x3}, "canonical-2-221")


def canonical_2_211():
    """The 2-canonical algebra of type (2,1,1): five vertices with parallel
    x2/x3 arrows along the collapsed arms."""
    x1 = [("1", "2"), ("2", "4"), ("4", "6"), ("6", "8")]
    x2 = [("1", "4"), ("2", "6"), ("4", "8")]
    x3 = [("1", "4"), ("2", "6"), ("4", "8")]
    return _canonical(["1", "2", "4", "6", "8"],
                      {"x1": x1, "x2": x2, "x3": x3}, "canonical-2-211")


def beilinson_2():
    """Three vertices, three parallel arrows at each step, commutation
    relations: the quiver algebra of the projective plane's tilting bundle."""
    x1 = [("1", "4"), ("4", "8")]
    x2 = [("1", "4"), ("4", "8")]
    x3 = [("1", "4"), ("4", "8")]
    return _canonical(["1", "4", "8"], {"x1": x1, "x2": x2, "x3": x3},
                      "beilinson-2")


def _canonical(vertices, families, name):
    arrows = []
    arrows_by_label = {}
    for lbl in sorted(families):
        arrows_by_label[lbl] = []
        for (s, t) in families[lbl]:
            a = Arrow(f"{lbl}_{s}_{t}", s, t)
            arrows.append(a)
            arrows_by_label[lbl].append(a)
    Q = Quiver(vertices, arrows)
    rels = _commutator_relations(Q, arrows_by_label)
    return Presentation(Q, rels, name=name)


_FIXTURES = {
    "double-triangle": double_triangle,
    "two-ag-square": two_ag_square,
    "canonical-2-221": canonical_2_221,
    "canonical-2-211": canonical_2_211,
    "beilinson-2": beilinson_2,
}


def fixture(name):
    """Fixture presentation by name; preprojective-aN takes 2 <= N <= 6."""
    if name in _FIXTURES:
        return _FIXTURES[name]()
    # N only in its canonical decimal spelling: no sign, space or leading zero
    m = re.fullmatch(r"preprojective-a(0|[1-9][0-9]*)", name)
    if m:
        return preprojective_a(int(m.group(1)))
    raise UnknownFixture(f"unknown fixture {name!r}")


def fixture_names():
    """Every name ``fixture`` accepts."""
    return sorted(_FIXTURES) + [f"preprojective-a{n}" for n in range(2, 7)]
