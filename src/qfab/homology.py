"""Projective covers, (co)syzygies, minimal resolutions, Ext, homological
dimensions, the transpose / AR translation / Nakayama functor, Gorenstein and
dominant dimension, Gorenstein (co)projectivity, and resolution-generator
membership (gen_l / cogen_l).

Injective-side computations are dualized: an injective coresolution of M is
the dual of a minimal projective resolution of D(M) over the opposite
algebra, so the projective machinery is the single source of truth;
cogen_l membership is gen_l membership of D(M) over the opposite algebra.

Each derived object has one construction.  One resolution step (cover the
last syzygy, take the kernel) grows every projective resolution and syzygy.
M is projective when its minimal cover has M's dimension: the cover is onto,
so it is then an isomorphism, and no kernel is taken.  An algebra is
self-injective when every indecomposable injective is projective.  The
transpose and the Nakayama functor share one minimal presentation
P1 -d-> P0 -> M: Tr(M) is the cokernel of Hom(d, A) and, Hom(-, A) being
left exact, nu(M) = D Hom(M, A) is the dual of its kernel.

Every free module + Ae_v here (cover terms and Hom(P, A) in the
presentation) is built by ``modules.free_module``, and its coordinates are
read from ``modules.projective_layout``, the single source of free-module
coordinates.

A resolution step costs what the module costs, not what the algebra costs.
Blocks with a zero side are never computed (see ``modules``), and
``projective_cover`` skips the vertices where M is 0.  Its columns are
vectors walked along the factor table, i . x_s from u . x_s for the shorter
u in each factor term, so the action of a non-generator basis element on M
is never built as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import quotient_by_idempotent_ideal
from .linalg import Matrix, Subspace, from_columns, rank
from .errors import QfabError, NotGorensteinCertified
from . import modules as md
from .modules import (ModuleMap, Representation, dual_module, free_module,
                      injective_module, is_isomorphic, projective_layout,
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

    Summand s is generated by x_s, the unit vector at a coordinate c of M_v
    outside the radical's pivots.  Column (s, i) of the cover is i . x_s,
    walked along the factor table by increasing length: x_s itself for the
    idempotent, column c of M(g) for a generator g, and
    sum coeff * M(g) (u . x_s) over ``A.factor(i)`` otherwise.  Vertices
    where M is 0 get no radical pass and no columns.
    """
    A = M.algebra
    F = A.field
    summand_data = []
    for v in range(A.n_vertices):
        if not M.dims[v]:
            continue
        sub = Subspace(M.dims[v], F)
        for g in A.generators:
            if A.basis[g].target == v:
                for col in M.action(g).columns():
                    sub.insert(col)
        pivs = set(sub.pivots)
        summand_data.extend((v, c) for c in range(M.dims[v]) if c not in pivs)
    if not summand_data:
        Z = zero_module(A)
        return Z, ModuleMap.zero(Z, M), []
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
    res = _unresolved(M)
    extend_resolution(res, n)
    return res.syzygies[-1]


def cosyzygy(M, n=1):
    """The n-th cosyzygy, via duality."""
    return dual_module(syzygy(dual_module(M), n))


def dual_map(f: ModuleMap):
    """D(f): D(target) -> D(source) over the opposite algebra."""
    S = dual_module(f.target)
    T = dual_module(f.source)
    return ModuleMap(S, T, [m.transpose() for m in f.mats])


@dataclass
class Resolution:
    """A minimal resolution with its bookkeeping.

    ``terms[i]`` is the i-th term, ``diffs[i] : terms[i+1] -> terms[i]``
    (reversed for an injective coresolution).
    ``syzygies[i]`` is the i-th (co)syzygy (index 0 = the target itself).
    ``status`` is one of terminated / truncated / periodic; a periodic
    resolution records (start, period) and the isomorphism certificate.
    """

    target: Representation
    direction: str
    terms: list
    diffs: list
    term_vertices: list
    syzygies: list
    status: str
    period: tuple | None = None
    period_witness: object = None
    kernel_inclusions: list | None = None


def _unresolved(M):
    """A projective resolution of M with no terms yet."""
    return Resolution(M, "projective", [], [], [], [M], "truncated",
                      kernel_inclusions=[])


def _resolution_step(res):
    """Append the minimal cover of the last syzygy, as the next term, and
    its kernel, as the next syzygy."""
    P, cover, verts = projective_cover(res.syzygies[-1])
    if res.terms:
        res.diffs.append(res.kernel_inclusions[-1].compose(cover))
    res.terms.append(P)
    res.term_vertices.append(verts)
    K, inc = md.kernel(cover)
    res.kernel_inclusions.append(inc)
    res.syzygies.append(K)


def minimal_resolution(M, direction="projective", cutoff=10, seed=0):
    """Minimal projective resolution or injective coresolution up to cutoff.

    Stops early on termination (zero syzygy) or certified periodicity (a
    syzygy isomorphic to an earlier one, with stored witness).
    """
    if direction == "injective":
        res = minimal_resolution(dual_module(M), "projective", cutoff, seed)
        return Resolution(M, "injective", [dual_module(t) for t in res.terms],
                          [dual_map(d) for d in res.diffs], res.term_vertices,
                          [dual_module(s) for s in res.syzygies], res.status,
                          res.period, res.period_witness)
    if direction != "projective":
        raise QfabError(f"unknown resolution direction {direction!r}")
    res = _unresolved(M)
    while len(res.terms) <= cutoff and res.syzygies[-1].total_dim:
        _resolution_step(res)
        cur = res.syzygies[-1]
        # the earlier syzygies are non-zero, so a zero one matches none
        for j in range(1, len(res.syzygies) - 1):
            if res.syzygies[j].dims == cur.dims:
                cert = is_isomorphic(res.syzygies[j], cur, seed=seed)
                if cert:
                    res.status = "periodic"
                    res.period = (j, len(res.syzygies) - 1 - j)
                    res.period_witness = cert
                    return res
    if res.syzygies[-1].total_dim == 0:
        res.status = "terminated"
    return res


def extend_resolution(res, n_terms):
    """Mechanically grow a projective resolution to n_terms terms.

    Used to evaluate the Hom complex at degrees beyond an early periodicity
    break; the status flag is left untouched.
    """
    if res.direction != "projective" or res.kernel_inclusions is None:
        raise QfabError("only stored projective resolutions can be extended")
    while len(res.terms) < n_terms and res.syzygies[-1].total_dim:
        _resolution_step(res)


# ---------------------------------------------------------------------------
# Ext via the Hom complex over generator coordinates
# ---------------------------------------------------------------------------


def _hom_coords_dim(term_vertices, N):
    A = N.algebra
    return sum(N.dims[A.vertex_pos[v]] for v in term_vertices)


def _differential_entries(A, verts_prev, verts_next, d):
    """d: + Ae_{verts_next} -> + Ae_{verts_prev} as entries of A.

    Yields (r, s, i, c), one per term: the image under d of the generator of
    summand r of the source is the sum of the terms c * (basis element i of
    A, in summand s of the target).  With no ``verts_next``, d is not read.
    """
    _, pos_prev = projective_layout(A, verts_prev)
    at = {wk: (s, i) for s, slots in enumerate(pos_prev) for i, wk in slots.items()}
    _, pos_next = projective_layout(A, verts_next)
    for r, (v_id, slots) in enumerate(zip(verts_next, pos_next)):
        w, col = slots[A.idempotent_index[A.vertex_pos[v_id]]]
        m = d.mats[w]
        for k in range(m.rows):
            c = m.data[k][col]
            if c:
                s, i = at[(w, k)]
                yield r, s, i, c


def _hom_complex_matrix(verts_prev, verts_next, d, N):
    """Matrix of Hom(P_prev, N) -> Hom(P_next, N), phi -> phi . d."""
    A = N.algebra
    rows = _hom_coords_dim(verts_next, N)
    cols = _hom_coords_dim(verts_prev, N)
    out = [[A.field.zero] * cols for _ in range(rows)]
    # Hom(+ Ae_v, N) = + e_v N: one block of coordinates per summand
    hoff_prev = []
    acc = 0
    for v_id in verts_prev:
        hoff_prev.append(acc)
        acc += N.dims[A.vertex_pos[v_id]]
    hoff_next = []
    acc = 0
    for v_id in verts_next:
        hoff_next.append(acc)
        acc += N.dims[A.vertex_pos[v_id]]
    for r, s, i, c in _differential_entries(A, verts_prev, verts_next, d):
        act = N.action(i)   # N_{v_s} -> N_{v_r}
        for a in range(act.rows):
            for b in range(act.cols):
                if act.data[a][b]:
                    out[hoff_next[r] + a][hoff_prev[s] + b] += c * act.data[a][b]
    return Matrix(rows, cols, out, A.field)


def ext_dim(M, N, i, resolution=None, seed=0):
    """dim Ext^i(M, N) from a minimal projective resolution of M."""
    if i < 0:
        raise QfabError("ext degree must be >= 0")
    res = resolution or minimal_resolution(M, "projective", cutoff=i + 1, seed=seed)
    return _ext_from_resolution(res, N, i)


def _ext_from_resolution(res, N, i):
    if i >= len(res.terms):
        if res.status == "terminated":
            return 0
        if res.status == "periodic":
            start, p = res.period
            if i > start:
                i = start + 1 + (i - start - 1) % p
            extend_resolution(res, i + 2)
        else:
            raise QfabError("resolution truncated below requested Ext degree")
    terms, tverts, diffs = res.terms, res.term_vertices, res.diffs
    dim_i = _hom_coords_dim(tverts[i], N)
    if dim_i == 0:
        return 0
    rank_in = 0
    if i >= 1:
        m_in = _hom_complex_matrix(tverts[i - 1], tverts[i], diffs[i - 1], N)
        rank_in = rank(m_in)
    rank_out = 0
    if i + 1 >= len(terms) and res.status == "periodic":
        extend_resolution(res, i + 2)
    if i + 1 < len(terms):
        m_out = _hom_complex_matrix(tverts[i], tverts[i + 1], diffs[i], N)
        rank_out = rank(m_out)
    elif res.status != "terminated" and res.syzygies[len(terms)].total_dim > 0:
        raise QfabError("resolution too short for requested Ext degree")
    return dim_i - rank_in - rank_out


def ext_vanishes_upto(M, N, n, resolution=None, seed=0):
    res = resolution or minimal_resolution(M, "projective", cutoff=n + 1, seed=seed)
    for i in range(1, n + 1):
        if _ext_from_resolution(res, N, i) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# homological dimensions
# ---------------------------------------------------------------------------


def proj_dim(M, cutoff=12, seed=0):
    res = minimal_resolution(M, "projective", cutoff=cutoff, seed=seed)
    if res.status == "terminated":
        return DimValue.finite(max(len(res.terms) - 1, 0))
    if res.status == "periodic":
        return DimValue.infinite(note=f"syzygy period {res.period}")
    return DimValue.at_least(cutoff)


def inj_dim(M, cutoff=12, seed=0):
    return proj_dim(dual_module(M), cutoff=cutoff, seed=seed)


def global_dimension(A, cutoff=12, seed=0):
    """gl.dim via proj.dim of all simples."""
    out = DimValue.finite(0)
    for v in A.vertices:
        out = dim_max(out, proj_dim(simple_module(A, v), cutoff=cutoff, seed=seed))
        if out.kind == "infinite":
            return out
    return out


def regular_left(A):
    cache = _cache(A)
    if "regular" not in cache:
        cache["regular"] = md.regular_module(A)
    return cache["regular"]


def dual_regular(A):
    """DA as a left A-module."""
    cache = _cache(A)
    if "DA" not in cache:
        cache["DA"] = dual_module(md.regular_module(A.opposite()))
    return cache["DA"]


def _cache(A):
    if not hasattr(A, "_homology_cache"):
        A._homology_cache = {}
    return A._homology_cache


def gorenstein_dimension(A, cutoff=12, seed=0):
    """(Gor.dim, inj.dim _AA, proj.dim DA); 0 iff self-injective."""
    idim = inj_dim(regular_left(A), cutoff=cutoff, seed=seed)
    pdim = proj_dim(dual_regular(A), cutoff=cutoff, seed=seed)
    return dim_max(idim, pdim), idim, pdim


def is_projective_module(M):
    """The minimal cover is onto, so it is an isomorphism, and M projective,
    exactly when it has M's dimension."""
    return projective_cover(M)[0].total_dim == M.total_dim


def is_injective_module(M):
    return is_projective_module(dual_module(M))


def dominant_dimension(A, cutoff=12, seed=0):
    """Number of leading projective-injective terms in the minimal injective
    coresolution of the regular module.

    Term i is the sum of I_v over ``term_vertices[i]``, so it is projective
    exactly when each of those I_v is; each vertex is tested once."""
    res = minimal_resolution(regular_left(A), "injective", cutoff=cutoff, seed=seed)
    projective = {}
    for i, verts in enumerate(res.term_vertices):
        for v in verts:
            if v not in projective:
                projective[v] = is_projective_module(injective_module(A, v))
        if not all(projective[v] for v in verts):
            return DimValue.finite(i)
    if res.status == "terminated":
        return DimValue.infinite(note="self-injective")
    return DimValue.at_least(len(res.terms))


def is_self_injective(A):
    """Is every indecomposable injective projective?  For a basic algebra,
    such as a bound quiver algebra, that is self-injectivity."""
    return all(is_projective_module(injective_module(A, v)) for v in A.vertices)


# ---------------------------------------------------------------------------
# transpose, AR translation, Nakayama functor
# ---------------------------------------------------------------------------


def _presentation(M):
    """A minimal presentation P1 -d-> P0 -> M -> 0 as (verts0, verts1, d),
    P_i the free module over verts_i; verts1 is empty and d None when M is
    projective."""
    _, cover, verts0 = projective_cover(M)
    K, inc = md.kernel(cover)
    if K.total_dim == 0:
        return verts0, [], None
    _, cover1, verts1 = projective_cover(K)
    return verts0, verts1, inc.compose(cover1)


def transpose(M):
    """Tr(M) over the opposite algebra: the cokernel of Hom(d, A) for a
    minimal presentation d of M."""
    verts0, verts1, d = _presentation(M)
    if d is None:
        return zero_module(M.algebra.opposite())
    C, _ = md.cokernel(_dual_presentation_map(M.algebra, verts0, verts1, d))
    return C


def _dual_presentation_map(A, verts0, verts1, d):
    """Hom(P0, A) -> Hom(P1, A), psi -> psi . d, in op-module coordinates.

    Hom(+ Ae_v, A) = + e_v A is the free op-module over the same vertices.
    """
    op = A.opposite()
    H0, pos0 = free_module(op, verts0)
    H1, pos1 = free_module(op, verts1)
    mats = [[[A.field.zero] * H0.dims[w] for _ in range(H1.dims[w])]
            for w in range(op.n_vertices)]
    for r, s, i, c in _differential_entries(A, verts0, verts1, d):
        # y_s -> c * (i . y_s): left multiplication by i, e_{v_s} A -> e_{v_r} A
        for x, (_, k_x) in pos0[s].items():
            for y, cy in A.mult(i, x).items():
                w, k_y = pos1[r][y]
                mats[w][k_y][k_x] += c * cy
    f_mats = [Matrix(H1.dims[w], H0.dims[w], mats[w], A.field)
              for w in range(op.n_vertices)]
    return ModuleMap(H0, H1, f_mats)


def ar_translate(M, seed=0):
    """tau = D Tr from a minimal presentation; zero on projectives.

    The transpose is deterministic, so ``seed`` is not read; it stays because
    the benchmark's ``queries`` workload passes it."""
    return dual_module(transpose(M))


def ar_translate_inverse(M):
    """tau^- = Tr D; zero on injectives."""
    return transpose(dual_module(M))


def nakayama_functor(M):
    """nu(M) = D Hom(M, A).  Hom(-, A) is left exact, so Hom(M, A) is the
    kernel of Hom(d, A) for a minimal presentation d of M."""
    H, _ = md.kernel(_dual_presentation_map(M.algebra, *_presentation(M)))
    return dual_module(H)


# ---------------------------------------------------------------------------
# Gorenstein projectivity / injectivity
# ---------------------------------------------------------------------------


def certify_gorenstein(A, cutoff=12, seed=0):
    """Return Gor.dim as an int, or raise NotGorensteinCertified."""
    g, idim, pdim = gorenstein_dimension(A, cutoff=cutoff, seed=seed)
    if not g.is_finite:
        raise NotGorensteinCertified(
            f"Gorenstein dimension not certified below {cutoff}: "
            f"inj.dim {idim}, proj.dim DA {pdim}")
    return g.value


def is_gorenstein_projective(M, gor_n, seed=0, cross_check=False):
    """Ext^i(M, A) = 0 for 1 <= i <= Gor.dim; optional syzygy cross-check."""
    A = M.algebra
    ok = ext_vanishes_upto(M, regular_left(A), gor_n, seed=seed) if gor_n else True
    if not cross_check:
        return ok
    corro = None
    if ok and gor_n:
        X = cosyzygy(M, gor_n)
        Y = syzygy(X, gor_n)
        corro = bool(is_isomorphic(Y, M, seed=seed))
    return ok, corro


def is_gorenstein_injective(M, gor_n, seed=0):
    """Ext^i(DA, M) = 0 for 1 <= i <= Gor.dim."""
    A = M.algebra
    if gor_n == 0:
        return True
    cache = _cache(A)
    key = ("DA-res", gor_n + 1, seed)
    if key not in cache:
        cache[key] = minimal_resolution(dual_regular(A), "projective",
                                        cutoff=gor_n + 1, seed=seed)
    res = cache[key]
    for i in range(1, gor_n + 1):
        if _ext_from_resolution(res, M, i) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# gen_l / cogen_l membership
# ---------------------------------------------------------------------------


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
        return len(res.terms)
    if res.status == "periodic":
        start, p = res.period
        return start + p
    return None


def gen_membership(M, e_vertices, level, cutoff=20, seed=0):
    """Is M in gen_level(Ae)?  Runs both characterisations and cross-checks:

    * resolution method: the first level+1 minimal-resolution terms lie in
      add(Ae), i.e. every cover summand vertex is in e;
    * Ext method: Ext^i(M, F) = 0 for 0 <= i <= level and every
      indecomposable injective module F of A/<e>, viewed as an A-module.
    """
    A = M.algebra
    eset = set(e_vertices)
    res = minimal_resolution(M, "projective", cutoff=cutoff, seed=seed)
    bound = _resolution_closure_bound(res)
    if level == "inf":
        if bound is None:
            raise QfabError(
                f"resolution neither terminates nor repeats within {cutoff}; "
                f"cannot decide gen_inf (raise the cutoff)")
        check_upto = bound - 1
    else:
        if level >= len(res.terms) and res.status == "truncated":
            raise QfabError("resolution truncated below the requested level")
        check_upto = min(level, len(res.terms) - 1)
    viol = None
    for i in range(check_upto + 1):
        if i >= len(res.terms):
            break
        bad = [v for v in res.term_vertices[i] if v not in eset]
        if bad:
            viol = (i, bad)
            break
    verdict_a = viol is None
    method_a = {"terms_checked": check_upto + 1, "violation": viol,
                "status": res.status}

    Abar = quotient_by_idempotent_ideal(A, eset)
    injectives = []
    for v in Abar.vertices:
        F = md.inflate_from_quotient(injective_module(Abar, v), A)
        injectives.append((v, F))
    ext_upto = check_upto + 1 if level == "inf" else level
    ext_upto = min(ext_upto, (bound if bound is not None else cutoff))
    viol_b = None
    for v, F in injectives:
        for i in range(0, ext_upto + 1):
            if i >= len(res.terms) and res.status == "terminated":
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


def cogen_membership(M, e_vertices, level, cutoff=20, seed=0):
    """Is M in cogen_level(eA)?  By duality: is D(M) in gen_level(A^op e)?

    The Ext method of that test checks Ext^i(D(M), D(X)) = Ext^i(X, M) = 0
    for the projective A/<e>-modules X.  The report names M itself."""
    rep = gen_membership(dual_module(M), e_vertices, level, cutoff=cutoff,
                         seed=seed)
    rep.module = M
    return rep
