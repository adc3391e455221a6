"""Projective covers, (co)syzygies, minimal resolutions, Ext, homological
dimensions, the transpose / AR translation / Nakayama functor, Gorenstein and
dominant dimension, Gorenstein (co)projectivity, and resolution-generator
membership (gen_l / cogen_l).

Injective-side computations are dualized: an injective coresolution of M is
the minimal projective resolution of D(M) over the opposite algebra, read
through D, so the projective machinery is the single source of truth;
cogen_l membership is gen_l membership of D(M) over the opposite algebra.

Each derived object has one construction.  One resolution step (cover the
last syzygy, take the kernel) grows every projective resolution and syzygy,
and it is the whole differential P_{i+1} -> P_i.  M is projective when its
minimal cover has M's dimension: the cover is onto, so it is then an
isomorphism; that dimension is read off M's top, and neither the cover nor
a kernel is built.  An algebra is self-injective when every indecomposable
injective is projective.  The transpose and the Nakayama functor share one
minimal presentation P1 -d-> P0 -> M, M's step: Tr(M) is the cokernel of
Hom(d, A) and, Hom(-, A) being left exact, nu(M) = D Hom(M, A) is the dual
of its kernel.

A module keeps one record, its top (``modules._top``), computed once and
kept on the module.  Each module content is resolved once per algebra, for
the algebra's life, by a resolution step (P, verts, K, next_verts, d): the
cover term P over the vertex list verts of M's top, the syzygy K, the
vertex list next_verts of K's top, over which K's cover term is free, and
the differential d from that term into P.  The step is a ``_Step`` kept in
the algebra's step memo (``FDAlgebra._steps``), keyed by M's content: the
dimension vector and the generator matrices.  A module met again, as an
input or as a syzygy, by whichever caller, takes no cover and no kernel.
The memo dies with its algebra; its modules point back at the algebra, so
the cyclic collector frees the two together.

A resolution is its steps.  ``Resolution`` holds the module its steps
resolve and the steps; its terms, term vertices and syzygies are read off
the steps.  Both directions are that one record: an injective coresolution
keeps the steps of D(M) over the opposite algebra, the vertices of its
terms are theirs, and it builds the duals of the steps' modules only when
its terms or syzygies are asked for.  Readers that need a count or the
vertices (dominant dimension, Ext, gen_l) build no dual.

A map of free modules is fixed by its generator images (Green, Solberg and
Zacharia, "Minimal projective resolutions", Trans. AMS 353, 2001).  The
generator of K's cover at a top coordinate (v, c) of K goes to basis vector
c of K in P at v.  The step reads these images off K's basis once, in the
pass over K's top that lists ``next_verts``, as A-coefficients over the
summands of P, and keeps them as ``d`` in place of the inclusion.
The Hom complex, the transpose and the Nakayama functor read the step as it
is: Ext^i reads steps i - 1 and i alone, and the presentation of M is its
step, so the transpose, tau and nu after a resolution of M take no cover
and no kernel.

Periodicity is screened by tops: a syzygy goes to ``is_isomorphic`` only
when its dimension vector and its top match those of an earlier syzygy:
the screen compares the ``next_verts`` of the step that made it with the
``verts`` of an earlier step, and takes no top.  Over Q, and over F_p with
p above twice the syzygy's dimension, ``is_isomorphic`` is exact; over a
smaller F_p it tries a pencil of Hom maps before it can answer
"undecided", and a period it misses there leaves ``>=cutoff``.

A free module + Ae_v is built here, by ``modules.free_module``, only as a
cover term ``P``, which the step keeps.  Every other free module is an
intermediate and stays its coordinates, a ``modules.FreeLayout``: the
syzygy K is a submodule of the layout of P, and Hom(d, A) maps the
op-layout over ``verts`` to the one over ``next_verts``, whose quotient is
the transpose and whose kernel gives nu.  A generator acts on a layout
through A's product table, so none of them builds generator matrices, a
projection or an inclusion.  ``modules.projective_layout`` is the single
source of free-module coordinates.

A resolution step costs what the module costs, not what the algebra costs.
Blocks with a zero side are never computed (see ``modules``), and
``projective_cover`` skips the vertices where M is 0.  Its columns are
vectors walked along the factor table, i . x_s from u . x_s for the shorter
u in each factor term, so the action of a non-generator basis element on M
is never built as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from itertools import accumulate

from .algebra import quotient_by_idempotent_ideal
from .linalg import Matrix, _kernel, from_columns, rank
from .errors import QfabError, NotGorensteinCertified
from . import modules as md
from .modules import (ModuleMap, Representation, _top, dual_module,
                      free_module, injective_module, is_isomorphic,
                      simple_module, zero_module)


# ---------------------------------------------------------------------------
# dimension values
# ---------------------------------------------------------------------------


class DimValue:
    """A homological dimension: finite, certified infinite, or >= cutoff."""

    def __init__(self, kind, value=None, note=""):
        assert kind in ("finite", "infinite", "at_least")
        self.kind = kind
        self.value = value
        self.note = note

    @staticmethod
    def finite(n, note=""):
        return DimValue("finite", n, note)

    @staticmethod
    def infinite(note=""):
        return DimValue("infinite", None, note)

    @staticmethod
    def at_least(n, note=""):
        return DimValue("at_least", n, note)

    @property
    def is_finite(self):
        return self.kind == "finite"

    def le(self, n):
        """Certainly <= n?"""
        return self.kind == "finite" and self.value <= n

    def __repr__(self):
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "infinite":
            return "infinity"
        return f">={self.value}"

    def __eq__(self, other):
        if isinstance(other, int):
            return self.kind == "finite" and self.value == other
        return (isinstance(other, DimValue) and self.kind == other.kind
                and self.value == other.value)


def dim_max(a, b):
    if a.kind == "infinite" or b.kind == "infinite":
        return DimValue.infinite()
    if a.kind == "at_least" or b.kind == "at_least":
        n = max(a.value, b.value)
        return DimValue.at_least(n)
    return DimValue.finite(max(a.value, b.value))


# ---------------------------------------------------------------------------
# covers and syzygies
# ---------------------------------------------------------------------------


def projective_cover(M):
    """Minimal projective cover (P, surjection, summand vertex list).

    Summand s is generated by x_s, the unit vector at a top coordinate
    (v, c) of M (see ``_top``).  Column (s, i) of the cover is i . x_s,
    walked along the factor table by increasing length: x_s itself for the
    idempotent, column c of M(g) for a generator g, and
    sum coeff * M(g) (u . x_s) over ``A.factor(i)`` otherwise.  Vertices
    where M is 0 get no columns.
    """
    A = M.algebra
    F = A.field
    summand_data = _top(M)
    P, pos = free_module(A, [A.vertices[v] for v, _ in summand_data])
    zero_cols = [(F.zero,) * d for d in M.dims]
    cols = [[z] * n for z, n in zip(zero_cols, P.dims)]
    walks = {}
    for (v, c), slots in zip(summand_data, pos):
        walk = walks.get(v)
        if walk is None:
            walk = walks[v] = sorted(slots, key=lambda i: A.basis[i].length)
        x = {}  # i . x_s, left out where it is zero
        for i in walk:
            w, k = slots[i]
            if not M.dims[w]:
                continue
            if A.basis[i].length == 0:
                y = list(zero_cols[v])
                y[c] = F.one
            elif i in M.gen_mats:
                y = M.action(i).column(c)
            else:
                y = None
                for coeff, g, u in A.factor(i):
                    xu = x.get(u)
                    if xu is None:
                        continue
                    t = M.action(g).apply(xu)
                    if coeff != F.one:
                        t = [coeff * a for a in t]
                    y = t if y is None else [a + b if b else a for a, b in zip(y, t)]
            if y is not None and any(y):
                x[i] = cols[w][k] = y
    cover = ModuleMap(P, M, [from_columns(cols[w], M.dims[w], F)
                             for w in range(A.n_vertices)])
    return P, cover, [A.vertices[v] for v, _ in summand_data]


def syzygy(M, n=1):
    """The n-th syzygy (kernel of iterated minimal covers)."""
    for _ in range(n):
        if not M.total_dim:
            break
        M = _step(M).K
    return M


def cosyzygy(M, n=1):
    """The n-th cosyzygy, via duality."""
    return dual_module(syzygy(dual_module(M), n))


class _Step:
    """One resolution step of a module M, the whole differential from the
    cover term of the syzygy ``K`` into ``P``, M's minimal cover term:
    ``verts`` and ``next_verts`` list the vertices of the tops of M and of
    K, over which the two terms are free, and ``d`` is read off K's basis
    in P when the step is made.

    ``bases[v]`` is the kernel basis of the cover at v, an echelon basis
    with its unit coordinates.  K's generator matrices are read off A's
    product table applied to it (``modules.FreeLayout`` over ``verts``), not
    off P's generator matrices.

    ``d`` lists (r, s, i, c), by r and then by k: the generator of summand r
    of K's cover is the unit vector at the r-th top coordinate (v, col) of
    K, and its image, basis vector col at v, has c at the coordinate k where
    ``projective_layout`` puts basis element i of A in summand s of P.  The
    image is the sum of these c * (i in summand s).  A projective M has
    ``next_verts`` and d empty.  A step keeps neither the basis nor any
    reference to M.

    ``P`` is kept although the step reads only its layout: ``Resolution.terms``
    reads it, and the objects a step holds set where the cyclic collector's
    full collections fall on a long pass; a step without ``P`` moved the
    first one of a ``reduce`` pass into its median operation (ROADMAP)."""

    __slots__ = ("P", "verts", "K", "next_verts", "d")

    def __init__(self, P, verts, bases):
        self.P, self.verts = P, verts
        layout = md.FreeLayout(P.algebra, verts)
        self.K, _ = md._sub_representation(layout, bases)
        top = _top(self.K)
        self.next_verts = [P.algebra.vertices[v] for v, _ in top]
        self.d = [(r, *layout.at[v][k], c) for r, (v, col) in enumerate(top)
                  for k, c in enumerate(bases[v][0][col]) if c]


def _content(M):
    """M's dimension vector and its generator matrices, as a memo key."""
    return M.dims, tuple(sorted((g, m.data) for g, m in M.gen_mats.items()))


def _step(M):
    """The resolution step of M, from the algebra's step memo when a module
    with M's content has been resolved there."""
    steps = M.algebra._steps
    key = _content(M)
    step = steps.get(key)
    if step is None:
        P, cover, verts = projective_cover(M)
        step = steps[key] = _Step(P, verts, [_kernel(m) for m in cover.mats])
    return step


@dataclass
class Resolution:
    """A minimal resolution: the ``steps`` that resolve ``module``.

    ``steps[i]`` resolves the i-th syzygy of ``module``; ``terms[i]`` is its
    cover term ``P`` over ``term_vertices[i]``, its ``verts``, the syzygies
    are ``module`` followed by each step's ``K``, and the differential
    terms[i+1] -> terms[i] is ``steps[i].d``.  An injective coresolution of M
    is the projective resolution of D(M) over the opposite algebra read
    through D: ``module`` is D(M), ``term_vertices`` are the steps' own (term
    i is the sum of I_v over them), and ``terms`` and ``syzygies`` are the
    duals of the steps' modules, built when they are asked for.
    ``status`` is one of terminated / truncated / periodic; a periodic
    resolution records (start, period) and the isomorphism certificate.
    """

    direction: str
    module: Representation
    steps: list
    status: str
    period: tuple | None = None
    period_witness: object = None
    # the terms read so far, extended as the steps grow: ``terms`` hands out
    # this one list, so a term a caller appends to it stays in it
    # (``perfbench/test_checks.py`` tampers with a resolution that way)
    _terms: list = dc_field(default_factory=list, init=False, repr=False,
                            compare=False)

    def _read(self, X):
        return X if self.direction == "projective" else dual_module(X)

    @property
    def terms(self):
        self._terms += [self._read(s.P) for s in self.steps[len(self._terms):]]
        return self._terms

    @property
    def term_vertices(self):
        return [s.verts for s in self.steps]

    @property
    def syzygies(self):
        return [self._read(X) for X in [self.module] + [s.K for s in self.steps]]


def minimal_resolution(M, direction="projective", cutoff=10, seed=None):
    """Minimal projective resolution or injective coresolution up to cutoff.

    Stops early on termination (zero syzygy) or certified periodicity (a
    syzygy isomorphic to an earlier one, with stored witness).  Isomorphic
    modules have equal dimension vectors and equal tops, and the top of
    syzygy j lists the vertices ``steps[j].verts`` (of the last one,
    ``steps[-1].next_verts``); only a syzygy that matches an earlier one in
    both is tested with ``is_isomorphic``.
    ``seed`` is not read: the benchmark's ``queries`` workload passes it.
    """
    if direction == "injective":
        return replace(minimal_resolution(dual_module(M), "projective", cutoff),
                       direction="injective")
    if direction != "projective":
        raise QfabError(f"unknown resolution direction {direction!r}")
    res = Resolution("projective", M, [], "truncated")
    steps, K = res.steps, M
    while len(steps) <= cutoff and K.total_dim:
        steps.append(_step(K))
        K = steps[-1].K
        # the earlier syzygies are non-zero, so a zero one matches none
        for j in range(1, len(steps)):
            earlier = steps[j - 1].K
            if earlier.dims != K.dims or steps[-1].next_verts != steps[j].verts:
                continue
            cert = is_isomorphic(earlier, K)
            if cert:
                res.status = "periodic"
                res.period = (j, len(steps) - j)
                res.period_witness = cert
                return res
    if not K.total_dim:
        res.status = "terminated"
    return res


def extend_resolution(res, n_terms):
    """Mechanically grow a resolution to n_terms terms.

    Used to evaluate the Hom complex at degrees beyond an early periodicity
    break; the status flag is left untouched.
    """
    steps = res.steps
    K = steps[-1].K if steps else res.module
    while len(steps) < n_terms and K.total_dim:
        steps.append(_step(K))
        K = steps[-1].K


# ---------------------------------------------------------------------------
# Ext via the Hom complex over generator coordinates
# ---------------------------------------------------------------------------


def _hom_offsets(verts, N):
    """Hom(+ Ae_v, N) = + e_v N, one block of coordinates per summand: the
    offset of each block, and their total."""
    A = N.algebra
    *offsets, total = accumulate((N.dims[A.vertex_pos[v]] for v in verts),
                                 initial=0)
    return offsets, total


def _hom_complex_matrix(step, N):
    """Matrix of Hom(P_i, N) -> Hom(P_{i+1}, N), phi -> phi . d, for the
    step d: P_{i+1} -> P_i."""
    A = N.algebra
    hoff_next, rows = _hom_offsets(step.next_verts, N)
    hoff_prev, cols = _hom_offsets(step.verts, N)
    out = [[A.field.zero] * cols for _ in range(rows)]
    for r, s, i, c in step.d:
        act = N.action(i)   # N_{v_s} -> N_{v_r}
        for a in range(act.rows):
            for b in range(act.cols):
                if act.data[a][b]:
                    out[hoff_next[r] + a][hoff_prev[s] + b] += c * act.data[a][b]
    return Matrix(rows, cols, out, A.field)


def ext_dim(M, N, i, resolution=None, seed=None):
    """dim Ext^i(M, N) from a minimal projective resolution of M.  ``seed``
    is not read: the benchmark's ``queries`` workload passes it."""
    if i < 0:
        raise QfabError("ext degree must be >= 0")
    res = resolution or minimal_resolution(M, "projective", cutoff=i)
    return _ext_from_resolution(res, N, i)


def _ext_from_resolution(res, N, i):
    """dim Ext^i(M, N) from steps i - 1 and i: the kernel of
    Hom(P_i, N) -> Hom(P_{i+1}, N) modulo the image of Hom(P_{i-1}, N)."""
    steps = res.steps
    if res.status == "periodic":
        start, p = res.period
        if i >= len(steps):  # so i > start
            i = start + 1 + (i - start - 1) % p
        # a periodic resolution never ends, so this lists step i
        extend_resolution(res, i + 1)
    elif i >= len(steps):
        if res.status == "terminated":
            return 0
        raise QfabError("resolution truncated below requested Ext degree")
    _, dim_i = _hom_offsets(steps[i].verts, N)
    if dim_i == 0:
        return 0
    rank_in = rank(_hom_complex_matrix(steps[i - 1], N)) if i else 0
    return dim_i - rank_in - rank(_hom_complex_matrix(steps[i], N))


def ext_vanishes_upto(M, N, n, resolution=None):
    res = resolution or minimal_resolution(M, "projective", cutoff=n)
    for i in range(1, n + 1):
        if _ext_from_resolution(res, N, i) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# homological dimensions
# ---------------------------------------------------------------------------


def proj_dim(M, cutoff=12):
    res = minimal_resolution(M, "projective", cutoff=cutoff)
    if res.status == "terminated":
        return DimValue.finite(max(len(res.steps) - 1, 0))
    if res.status == "periodic":
        return DimValue.infinite(note=f"syzygy period {res.period}")
    return DimValue.at_least(cutoff)


def inj_dim(M, cutoff=12):
    return proj_dim(dual_module(M), cutoff=cutoff)


def global_dimension(A, cutoff=12):
    """gl.dim via proj.dim of all simples."""
    out = DimValue.finite(0)
    for v in A.vertices:
        out = dim_max(out, proj_dim(simple_module(A, v), cutoff=cutoff))
        if out.kind == "infinite":
            return out
    return out


def dual_regular(A):
    """DA as a left A-module."""
    return dual_module(md.regular_module(A.opposite()))


def gorenstein_dimension(A, cutoff=12):
    """(Gor.dim, inj.dim _AA, proj.dim DA); 0 iff self-injective."""
    idim = inj_dim(md.regular_module(A), cutoff=cutoff)
    pdim = proj_dim(dual_regular(A), cutoff=cutoff)
    return dim_max(idim, pdim), idim, pdim


def is_projective_module(M):
    """The minimal cover is onto, so it is an isomorphism, and M projective,
    exactly when it has M's dimension.  The cover is + Ae_v over the top
    coordinates (v, c) of M, so its dimension is read off the algebra."""
    A = M.algebra
    return sum(len(A.by_source(v)) for v, _ in _top(M)) == M.total_dim


def is_injective_module(M):
    return is_projective_module(dual_module(M))


def dominant_dimension(A, cutoff=12):
    """Number of leading projective-injective terms in the minimal injective
    coresolution of the regular module.

    Term i is the sum of I_v over ``term_vertices[i]``, so it is projective
    exactly when each of those I_v is; each vertex is tested once."""
    res = minimal_resolution(md.regular_module(A), "injective", cutoff=cutoff)
    projective = {}
    for i, verts in enumerate(res.term_vertices):
        for v in verts:
            if v not in projective:
                projective[v] = is_projective_module(injective_module(A, v))
        if not all(projective[v] for v in verts):
            return DimValue.finite(i)
    if res.status == "terminated":
        return DimValue.infinite(note="self-injective")
    return DimValue.at_least(len(res.steps))


def is_self_injective(A):
    """Is every indecomposable injective projective?  For a basic algebra,
    such as a bound quiver algebra, that is self-injectivity."""
    return all(is_projective_module(injective_module(A, v)) for v in A.vertices)


# ---------------------------------------------------------------------------
# transpose, AR translation, Nakayama functor
# ---------------------------------------------------------------------------


def transpose(M):
    """Tr(M) over the opposite algebra: the cokernel of Hom(d, A) for the
    minimal presentation d of M, its step; zero when M is projective.  It
    is the quotient of the free op-module over ``step.next_verts`` by the
    column spans of Hom(d, A), on its layout: no free module and no
    projection is built."""
    step = _step(M)
    if not step.next_verts:
        return zero_module(M.algebra.opposite())
    _, H1, mats = _dual_presentation_map(M.algebra, step)
    return md._quotient(H1, [md._column_span(m) for m in mats])[0]


def _dual_presentation_map(A, step):
    """Hom(P0, A) -> Hom(P1, A), psi -> psi . d, for the step d: P1 -> P0,
    as (H0, H1, matrices by vertex).

    Hom(+ Ae_v, A) = + e_v A is the free op-module over the same vertices,
    so H0 and H1 are the op-layouts (``modules.FreeLayout``) over
    ``step.verts`` and ``step.next_verts``, and no free module is built.
    """
    op = A.opposite()
    H0, H1 = md.FreeLayout(op, step.verts), md.FreeLayout(op, step.next_verts)
    mats = [[[A.field.zero] * d0 for _ in range(d1)] for d0, d1 in zip(H0.dims, H1.dims)]
    for r, s, i, c in step.d:
        # y_s -> c * (i . y_s): left multiplication by i, e_{v_s} A -> e_{v_r} A
        for x, (_, k_x) in H0.pos[s].items():
            for y, cy in A.mult(i, x).items():
                w, k_y = H1.pos[r][y]
                mats[w][k_y][k_x] += c * cy
    return H0, H1, [Matrix(d1, d0, m, A.field)
                    for d0, d1, m in zip(H0.dims, H1.dims, mats)]


def ar_translate(M, seed=None):
    """tau = D Tr from a minimal presentation; zero on projectives.

    The transpose is deterministic, so ``seed`` is not read; it stays because
    the benchmark's ``queries`` workload passes it."""
    return dual_module(transpose(M))


def ar_translate_inverse(M):
    """tau^- = Tr D; zero on injectives."""
    return transpose(dual_module(M))


def nakayama_functor(M):
    """nu(M) = D Hom(M, A).  Hom(-, A) is left exact, so Hom(M, A) is the
    kernel of Hom(d, A) for a minimal presentation d of M, a submodule of
    the free op-module over ``step.verts`` read on its layout."""
    H0, _, mats = _dual_presentation_map(M.algebra, _step(M))
    return dual_module(md._sub_representation(H0, [_kernel(m) for m in mats])[0])


# ---------------------------------------------------------------------------
# Gorenstein projectivity / injectivity
# ---------------------------------------------------------------------------


def certify_gorenstein(A, cutoff=12):
    """Return Gor.dim as an int, or raise NotGorensteinCertified."""
    g, idim, pdim = gorenstein_dimension(A, cutoff=cutoff)
    if not g.is_finite:
        raise NotGorensteinCertified(
            f"Gorenstein dimension not certified below {cutoff}: "
            f"inj.dim {idim}, proj.dim DA {pdim}")
    return g.value


def is_gorenstein_projective(M, gor_n):
    """Ext^i(M, A) = 0 for 1 <= i <= Gor.dim."""
    return not gor_n or ext_vanishes_upto(M, md.regular_module(M.algebra), gor_n)


def is_gorenstein_injective(M, gor_n):
    """Ext^i(DA, M) = 0 for 1 <= i <= Gor.dim."""
    return not gor_n or ext_vanishes_upto(dual_regular(M.algebra), M, gor_n)


# ---------------------------------------------------------------------------
# gen_l / cogen_l membership
# ---------------------------------------------------------------------------


def _quotient_modules(A, F, make):
    """The modules make(A/<f>, v) inflated to A, keyed by surviving vertex v."""
    Abar = quotient_by_idempotent_ideal(A, F)
    return {v: md.inflate_from_quotient(make(Abar, v), A) for v in Abar.vertices}


@dataclass
class GenMembershipReport:
    module: Representation
    idempotent: tuple
    level: object               # int or "inf"
    verdict: bool
    method_resolution: dict
    method_ext: dict

    def __bool__(self):
        return self.verdict


def _resolution_closure_bound(res):
    if res.status == "terminated":
        return len(res.steps)
    if res.status == "periodic":
        start, p = res.period
        return start + p
    return None


def gen_membership(M, e_vertices, level, cutoff=20):
    """Is M in gen_level(Ae)?  Runs both characterisations and cross-checks:

    * resolution method: the first level+1 minimal-resolution terms lie in
      add(Ae), i.e. every cover summand vertex is in e;
    * Ext method: Ext^i(M, F) = 0 for 0 <= i <= level and every
      indecomposable injective module F of A/<e>, viewed as an A-module.
    """
    A = M.algebra
    eset = set(e_vertices)
    res = minimal_resolution(M, "projective", cutoff=cutoff)
    bound = _resolution_closure_bound(res)
    if level == "inf":
        if bound is None:
            raise QfabError(
                f"resolution neither terminates nor repeats within {cutoff}; "
                f"cannot decide gen_inf (raise the cutoff)")
        check_upto = bound - 1
    else:
        if level >= len(res.steps) and res.status == "truncated":
            raise QfabError("resolution truncated below the requested level")
        check_upto = min(level, len(res.steps) - 1)
    viol = None
    for i in range(check_upto + 1):
        if i >= len(res.steps):
            break
        bad = [v for v in res.steps[i].verts if v not in eset]
        if bad:
            viol = (i, bad)
            break
    verdict_a = viol is None
    method_a = {"terms_checked": check_upto + 1, "violation": viol,
                "status": res.status}

    injectives = _quotient_modules(A, eset, injective_module)
    ext_upto = check_upto + 1 if level == "inf" else level
    ext_upto = min(ext_upto, (bound if bound is not None else cutoff))
    viol_b = None
    for v, F in injectives.items():
        for i in range(0, ext_upto + 1):
            if i >= len(res.steps) and res.status == "terminated":
                break
            d = _ext_from_resolution(res, F, i)
            if d != 0:
                viol_b = (v, i, d)
                break
        if viol_b:
            break
    verdict_b = viol_b is None
    method_b = {"ext_checked_upto": ext_upto, "violation": viol_b}
    if verdict_a != verdict_b:
        raise QfabError(
            f"gen-membership methods disagree: resolution {verdict_a} "
            f"vs ext {verdict_b} ({method_a} / {method_b})")
    return GenMembershipReport(M, tuple(sorted(eset)), level, verdict_a,
                               method_a, method_b)


def cogen_membership(M, e_vertices, level, cutoff=20):
    """Is M in cogen_level(eA)?  By duality: is D(M) in gen_level(A^op e)?

    The Ext method of that test checks Ext^i(D(M), D(X)) = Ext^i(X, M) = 0
    for the projective A/<e>-modules X.  The report names M itself."""
    rep = gen_membership(dual_module(M), e_vertices, level, cutoff=cutoff)
    rep.module = M
    return rep
