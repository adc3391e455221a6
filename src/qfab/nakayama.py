"""Higher Nakayama algebras from Kupisch series, the series reduction, and
the contraction pipeline down to a self-injective algebra.

Vertices are strictly increasing integer n-tuples (i_1, ..., i_n), normalized
so that i_1 lies in [0, k), subject to the width bound
i_n < i_1 + n + l_{i_1} - 1 (the series entry of the first coordinate).
Arrows increment one coordinate when the normalized result is again a vertex;
relations are all two-step commutators, with single-path zero relations where
one of the two routes leaves the vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .errors import (AxiomViolation, HypothesisViolated, ParameterOutOfRange,
                     QfabError, StageVerificationFailed)
from .quiver import Quiver, Arrow, PathWord, Relation, Presentation
from .algebra import build_algebra, generator_lifts, _is_isomorphism
from . import homology as hm
from . import fabric as fb


@dataclass(frozen=True)
class KupischSeries:
    entries: tuple

    @property
    def k(self):
        return len(self.entries)

    def is_constant(self):
        return len(set(self.entries)) == 1

    def __repr__(self):
        return "(" + ",".join(str(x) for x in self.entries) + ")"


def validate_kupisch(entries):
    """Check the three series axioms; AxiomViolation names the failing one."""
    entries = tuple(int(x) for x in entries)
    if not entries or any(x < 1 for x in entries):
        raise AxiomViolation(0, "entries must be positive integers")
    k = len(entries)
    for i in range(1, k):
        if entries[i] < 2:
            raise AxiomViolation(1, f"l_{i} = {entries[i]} < 2")
    for i in range(k - 1):
        if entries[i] - entries[i + 1] > 1:
            raise AxiomViolation(2, f"l_{i} - l_{i+1} > 1")
    if entries[0] != 1 and entries[-1] - entries[0] > 1:
        raise AxiomViolation(3, f"l_{k-1} - l_0 > 1")
    return KupischSeries(entries)


def is_valid_kupisch(entries):
    try:
        validate_kupisch(entries)
        return True
    except AxiomViolation:
        return False


def _normalize(coords, k):
    shift = (coords[0] // k) * k
    return tuple(c - shift for c in coords)


def _is_vertex(coords, series):
    k = series.k
    c = _normalize(coords, k)
    if any(x >= y for x, y in zip(c, c[1:])):
        return None
    width = series.entries[c[0] % k]
    if c[-1] >= c[0] + len(c) + width - 1:
        return None
    return c


def vertex_label(coords):
    if all(0 <= c <= 9 for c in coords):
        return "".join(str(c) for c in coords)
    return ",".join(str(c) for c in coords)


def nak_vertices(n, series):
    """All normalized vertices for (n, series), sorted."""
    out = []
    for i1 in range(series.k):
        width = series.entries[i1]
        pool = range(i1 + 1, i1 + n + width - 1)
        for rest in combinations(pool, n - 1):
            out.append((i1,) + rest)
    return sorted(out)


def _step(coords, value, series):
    """Increment one coordinate without normalizing; None if the result is
    not a vertex.  Returns unnormalized coordinates."""
    if value not in coords or (value + 1) in coords:
        return None
    nxt = tuple(sorted(set(coords) - {value} | {value + 1}))
    if _is_vertex(nxt, series) is None:
        return None
    return nxt


def higher_nakayama(n, entries, field=None):
    """The higher Nakayama algebra for the series; returns (algebra, pres)."""
    from .field import QQ
    series = entries if isinstance(entries, KupischSeries) else validate_kupisch(entries)
    if n < 1:
        raise ParameterOutOfRange(f"n must be at least 1, got {n}")
    if n == 1:
        return _ordinary_nakayama(series, field)
    verts = nak_vertices(n, series)
    vset = set(verts)
    k = series.k
    labels = [vertex_label(v) for v in verts]
    if len(set(labels)) != len(labels):
        raise QfabError("vertex labels collide; series too large for labels")
    arrows = []
    arrow_at = {}   # (normalized source, coordinate value in source) -> id
    for v in verts:
        for x in v:
            w = _step(v, x, series)
            if w is not None:
                aid = f"a{vertex_label(v)}_{x}"
                arrows.append(Arrow(aid, vertex_label(v),
                                    vertex_label(_normalize(w, k))))
                arrow_at[(v, x)] = aid
    Q = Quiver(labels, arrows)

    def arrow_from(coords, value):
        """Arrow id for incrementing `value` at (possibly unnormalized)
        coords; the lookup key is shifted into normal form."""
        shift = (coords[0] // k) * k
        key = (_normalize(coords, k), value - shift)
        return arrow_at.get(key)

    relations = []
    for v in verts:
        for x, y in combinations(sorted(v), 2):
            terms = []
            for first, second in ((x, y), (y, x)):
                mid = _step(v, first, series)
                if mid is None:
                    continue
                end = _step(mid, second, series)
                if end is None:
                    continue
                a1 = arrow_from(v, first)
                a2 = arrow_from(mid, second)
                terms.append(PathWord(Q, (Q.arrow_index[a1], Q.arrow_index[a2])))
            if len(terms) == 2:
                relations.append(Relation([(1, terms[0]), (-1, terms[1])]))
            elif len(terms) == 1:
                relations.append(Relation([(1, terms[0])]))
    pres = Presentation(Q, relations,
                        name=f"nakayama(n={n}, l={series!r})")
    A = build_algebra(pres, field or QQ)
    A._nak_vertices = {vertex_label(v): v for v in verts}
    return A, pres


def _ordinary_nakayama(series, field=None):
    """n = 1: the classical bound-quiver presentation from the series.

    Vertex i carries an arrow to i+1 (mod k) exactly when l_i >= 2, and the
    path of length l_i starting at i is a relation whenever its arrows all
    exist; projectives then have lengths equal to the series entries.
    """
    from .field import QQ
    k = series.k
    ls = series.entries
    labels = [vertex_label((i,)) for i in range(k)]
    arrows = []
    for i in range(k):
        if ls[i] >= 2:
            arrows.append(Arrow(f"a{i}", labels[i], labels[(i + 1) % k]))
    Q = Quiver(labels, arrows)
    relations = []
    for i in range(k):
        if ls[i] < 2:
            continue
        word = []
        ok = True
        for t in range(ls[i]):
            j = (i + t) % k
            if ls[j] < 2:
                ok = False
                break
            word.append(Q.arrow_index[f"a{j}"])
        if ok:
            relations.append(Relation([(1, PathWord(Q, tuple(word)))]))
    pres = Presentation(Q, relations, name=f"nakayama(n=1, l={series!r})")
    A = build_algebra(pres, field or QQ)
    A._nak_vertices = {labels[i]: (i,) for i in range(k)}
    return A, pres


# ---------------------------------------------------------------------------
# Kupisch reduction
# ---------------------------------------------------------------------------


def kupisch_reduce(n, entries, with_detail=False):
    """One contraction round on the series; None when the result leaves the
    Kupisch axioms (the corner is then acyclic with trivial singularity).

    Hypotheses (HypothesisViolated otherwise): l_0 != 1, l_{k-1} <= l_0 and
    l_1 < l_0; constant series are fixed points handled by the caller.
    """
    series = entries if isinstance(entries, KupischSeries) else validate_kupisch(entries)
    ls = series.entries
    k = series.k
    if ls[0] == 1:
        raise HypothesisViolated("l_0 = 1 has trivial singularity; no reduction")
    if series.is_constant():
        raise HypothesisViolated("constant series are terminal")
    if k >= 2 and not (ls[-1] <= ls[0] and ls[1] < ls[0]):
        raise HypothesisViolated(
            f"need l_(k-1) <= l_0 and l_1 < l_0; rotate the series first")
    detail = {}
    new = []
    for i in range(k):
        if i % k == 0:
            detail[i] = (None, 0)
            continue
        subset = [i]
        cur = i
        for _ in range(n - 1):
            cur += 1
            while cur % k == 0:
                cur += 1
            subset.append(cur)
        # the subset must itself be a vertex for the original series
        if subset[-1] >= i + n + ls[i % k] - 1:
            detail[i] = (tuple(subset), 0)
            new.append((i, 0))
            continue
        top = i + ls[i % k] + n - 1
        lp = sum(1 for m in range(subset[-1], top) if m % k != 0)
        detail[i] = (tuple(subset), lp)
        new.append((i, lp))
    reduced = tuple(lp for _, lp in new if lp >= 1)
    result = None
    if reduced:
        try:
            result = validate_kupisch(reduced)
        except AxiomViolation:
            result = None
    if with_detail:
        return result, detail
    return result


def coordinate_rank_map(k):
    """Order-preserving relabeling of {m >= 1 : m % k != 0} onto 0,1,2,..."""
    def psi(m):
        if m % k == 0:
            raise QfabError(f"{m} is a multiple of {k}")
        return m - 1 - (m // k)
    return psi


def _vertex_tuples(A):
    """Vertex label -> coordinate tuple for A, read from the nearest
    higher Nakayama algebra up A's chain of ``reduction`` links."""
    B = A
    while getattr(B, "_nak_vertices", None) is None:
        if B.reduction is None:
            raise QfabError("stage algebra carries no vertex tuples")
        B = B.reduction.parent
    return {lbl: B._nak_vertices[lbl] for lbl in A.vertices}


def contraction_pass(A_stage, j, k):
    """Vertices of the stage algebra whose j-th coordinate is nonzero mod k."""
    table = _vertex_tuples(A_stage)
    return [lbl for lbl in A_stage.vertices if table[lbl][j - 1] % k != 0]


@dataclass
class StageRecord:
    round: int
    pass_index: int
    idempotent: tuple
    corner_dim: int
    fabric_e: tuple | None
    certificates: dict


@dataclass
class ReductionTrace:
    n: int
    initial: KupischSeries
    rounds: list = dc_field(default_factory=list)
    series_history: list = dc_field(default_factory=list)
    stages: list = dc_field(default_factory=list)
    terminal: object = None
    terminal_series: KupischSeries | None = None
    status: str = ""
    certificates: dict = dc_field(default_factory=dict)


def reduce_to_selfinjective(n, entries, cutoff=24, seed=0):
    """Run contraction rounds until the series is constant (self-injective
    terminal) or the singularity is trivial (finite global dimension).

    Each round runs the coordinate passes j = 1..n; every stage idempotent is
    checked fabric (definitional), the singular-reduction hypotheses are
    certified, and the final corner is matched against the freshly built
    algebra of the reduced series.
    """
    series = entries if isinstance(entries, KupischSeries) else validate_kupisch(entries)
    trace = ReductionTrace(n=n, initial=series)
    trace.series_history.append(series)
    A = None
    round_no = 0
    while True:
        if series.entries[0] == 1:
            if A is None:
                A, _ = higher_nakayama(n, series)
            return _end_trivial(trace, A, series, cutoff, seed,
                                "expected finite gl.dim")
        if series.is_constant():
            if A is None:
                A, _ = higher_nakayama(n, series)
            if not hm.is_self_injective(A):
                raise StageVerificationFailed(
                    f"constant series {series} did not yield a self-injective algebra")
            trace.terminal = A
            trace.terminal_series = series
            trace.status = "self-injective"
            trace.certificates["self_injective"] = True
            return trace
        rot = _rotation_for_hypotheses(series)
        if rot != series:
            trace.certificates.setdefault("rotations", []).append(
                (round_no, series, rot))
            series = rot
            A = None
        if A is None:
            A, _ = higher_nakayama(n, series)
        round_no += 1
        k = series.k
        stage = A
        for j in range(1, n + 1):
            fverts = contraction_pass(stage, j, k)
            if not fverts:
                # e = 0 leaves no corner: the singularity of the stage is
                # trivial exactly when its gl.dim is finite
                return _end_trivial(trace, stage, None, cutoff, seed,
                                    f"empty contraction pass {j}: expected "
                                    f"finite gl.dim")
            fabric_e, _ = fb.check_fabric_definitional(stage, fverts,
                                                       seed=seed, cutoff=cutoff)
            C, rcert = fb.singular_reduction(stage, fverts, cutoff=cutoff,
                                             seed=seed)
            cert = {"fabric": {"e": fabric_e}, "singular_reduction": rcert}
            trace.stages.append(StageRecord(round_no, j, tuple(fverts), C.dim,
                                            fabric_e, cert))
            stage = C
        reduced, detail = kupisch_reduce(n, series, with_detail=True)
        trace.rounds.append({"round": round_no, "series": series,
                             "reduced": reduced, "detail": detail})
        if reduced is None:
            return _end_trivial(trace, stage, None, cutoff, seed,
                                "expected acyclic corner with finite gl.dim")
        B, presB = higher_nakayama(n, reduced)
        _cross_check_corner(stage, B, presB, series.k, reduced.k, trace)
        trace.series_history.append(reduced)
        series = reduced
        A = B


def _end_trivial(trace, terminal, series, cutoff, seed, expected):
    """End the reduction at ``terminal`` with a trivial singularity, once its
    gl.dim is certified finite below the cutoff."""
    g = hm.global_dimension(terminal, cutoff=cutoff, seed=seed)
    if not g.is_finite:
        raise StageVerificationFailed(f"{expected}, got {g}")
    trace.terminal = terminal
    trace.terminal_series = series
    trace.status = "trivial-singularity"
    trace.certificates["gl_dim"] = g
    return trace


def _rotation_for_hypotheses(series):
    """Rotate a non-constant series so l_0 is a strict local maximum from the
    right (l_1 < l_0, l_(k-1) <= l_0); rotations relabel the algebra."""
    ls = series.entries
    k = series.k
    if k >= 2 and ls[-1] <= ls[0] and ls[1] < ls[0]:
        return series
    mx = max(ls)
    for r in range(k):
        rot = ls[r:] + ls[:r]
        if rot[0] == mx and rot[1 % k] < mx and rot[-1] <= mx and is_valid_kupisch(rot):
            return KupischSeries(rot)
    raise HypothesisViolated(f"no rotation of {series} satisfies the hypotheses")


def _cross_check_corner(stage, B, presB, old_k, new_k, trace):
    """The corner after all passes must match B = build_algebra(presB), the
    rebuilt algebra of the reduced series: same dimension and relabelled
    vertices, and each arrow of presB sent to the corner's one generator in
    its block defines an isomorphism.  No signs need choosing: every
    structure constant of a higher Nakayama corner is 0 or one basis path
    with coefficient 1."""
    if stage.dim != B.dim:
        raise StageVerificationFailed(
            f"corner dim {stage.dim} != rebuilt dim {B.dim}")
    psi = coordinate_rank_map(old_k)
    vertex_map = {}
    for lbl, coords in _vertex_tuples(stage).items():
        new_coords = tuple(psi(c) for c in coords)
        shift = (new_coords[0] // new_k) * new_k
        new_coords = tuple(c - shift for c in new_coords)
        vertex_map[vertex_label(new_coords)] = lbl
    if set(vertex_map) != set(B.vertices):
        raise StageVerificationFailed("vertex relabeling mismatch in cross-check")
    lifts = generator_lifts(presB, stage, vertex_map)
    if lifts is None or not _is_isomorphism(presB, B, stage, vertex_map, lifts):
        raise StageVerificationFailed("corner does not align with the rebuilt "
                                      "higher Nakayama algebra")
    trace.certificates.setdefault("cross_checks", []).append(
        {"dim": B.dim, "vertices": sorted(B.vertices)})
