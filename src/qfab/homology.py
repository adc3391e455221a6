"""Projective covers, (co)syzygies, minimal resolutions, Ext, homological
dimensions, the transpose / AR translation / Nakayama functor, Gorenstein and
dominant dimension, Gorenstein (co)projectivity, and resolution-generator
membership (gen_l / cogen_l).

Injective-side computations are dualized: an injective coresolution of M is
the dual of a minimal projective resolution of D(M) over the opposite
algebra, so the projective machinery is the single source of truth;
cogen_l membership is gen_l membership of D(M) over the opposite algebra.

Every free module + Ae_v here (cover terms, Hom(P, A) in the transpose, the
projectives of the Nakayama functor) is built by ``modules.free_module``, and
its coordinates are read from ``modules.projective_layout``, the single
source of free-module coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import quotient_by_idempotent_ideal
from .linalg import Matrix, Subspace, from_columns, kernel_basis, rank, solve
from .errors import QfabError, NotGorensteinCertified
from . import modules as md
from .modules import (ModuleMap, Representation, dual_module, free_module,
                      hom_space, injective_module, is_isomorphic,
                      projective_layout, projective_module, simple_module,
                      zero_module)


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
    """Minimal projective cover (P, surjection, summand vertex list)."""
    A = M.algebra
    summand_data = []
    for v in range(A.n_vertices):
        sub = Subspace(M.dims[v], A.field)
        for g in A.generators:
            if A.basis[g].target == v:
                for col in M.action(g).columns():
                    sub.insert(col)
        pivs = set(sub.pivots)
        for k in range(M.dims[v]):
            if k not in pivs:
                x = [A.field.zero] * M.dims[v]
                x[k] = A.field.one
                summand_data.append((v, x))
    if not summand_data:
        Z = zero_module(A)
        return Z, ModuleMap.zero(Z, M), []
    P, pos = free_module(A, [A.vertices[v] for v, _ in summand_data])
    # the cover map sends element i of summand s to i . x_s
    mats = [ [ [A.field.zero]*P.dims[w] for _ in range(M.dims[w]) ]
             for w in range(A.n_vertices) ]
    for (v, x), slots in zip(summand_data, pos):
        for i, (w, k) in slots.items():
            col = M.action(i).apply(x)
            for r in range(M.dims[w]):
                mats[w][r][k] = col[r]
    cover = ModuleMap(P, M, [Matrix(M.dims[w], P.dims[w], mats[w], A.field)
                             for w in range(A.n_vertices)])
    return P, cover, [A.vertices[v] for v, _ in summand_data]


def syzygy(M, n=1):
    """The n-th syzygy (kernel of iterated minimal covers)."""
    cur = M
    for _ in range(n):
        if cur.total_dim == 0:
            return cur
        _, cover, _ = projective_cover(cur)
        cur, _ = md.kernel(cover)
    return cur


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

    ``terms[i]`` is the i-th term, ``diffs[i] : terms[i] -> terms[i-1]``,
    ``augmentation`` connects terms[0] with the target.  ``syzygies[i]`` is
    the i-th (co)syzygy (index 0 = the target itself).  ``status`` is one of
    terminated / truncated / periodic; a periodic resolution records
    (start, period) and the isomorphism certificate.
    """

    target: Representation
    direction: str
    terms: list
    diffs: list
    augmentation: ModuleMap
    term_vertices: list
    syzygies: list
    status: str
    minimal: bool = True
    period: tuple | None = None
    period_witness: object = None
    kernel_inclusions: list | None = None

    @property
    def length(self):
        """Index of the last nonzero term for terminated resolutions."""
        return len(self.terms) - 1


def minimal_resolution(M, direction="projective", cutoff=10, seed=0,
                       detect_periodicity=True):
    """Minimal projective resolution or injective coresolution up to cutoff.

    Stops early on termination (zero syzygy) or certified periodicity (a
    syzygy isomorphic to an earlier one, with stored witness).
    """
    if direction == "injective":
        res = minimal_resolution(dual_module(M), "projective", cutoff, seed,
                                 detect_periodicity)
        terms = [dual_module(t) for t in res.terms]
        diffs = [dual_map(d) for d in res.diffs]
        aug = dual_map(res.augmentation)
        syzygies = [dual_module(s) for s in res.syzygies]
        return Resolution(M, "injective", terms, diffs, aug, res.term_vertices,
                          syzygies, res.status, True, res.period,
                          res.period_witness)
    if direction != "projective":
        raise QfabError(f"unknown resolution direction {direction!r}")
    terms, diffs, tverts = [], [], []
    syzygies = [M]
    cur = M
    incs = []
    status = "truncated"
    period = None
    witness = None
    for i in range(cutoff + 1):
        if cur.total_dim == 0:
            status = "terminated"
            break
        P, cover, verts = projective_cover(cur)
        terms.append(P)
        tverts.append(verts)
        if i == 0:
            aug = cover
        else:
            diffs.append(incs[-1].compose(cover))
        K, inc = md.kernel(cover)
        incs.append(inc)
        syzygies.append(K)
        cur = K
        if detect_periodicity and cur.total_dim > 0:
            for j in range(1, len(syzygies) - 1):
                old = syzygies[j]
                if old.dims == cur.dims and old.total_dim > 0:
                    cert = is_isomorphic(old, cur, seed=seed)
                    if cert:
                        status = "periodic"
                        period = (j, len(syzygies) - 1 - j)
                        witness = cert
                        break
            if status == "periodic":
                break
    else:
        status = "truncated" if cur.total_dim > 0 else "terminated"
    if not terms:
        aug = ModuleMap.zero(zero_module(M.algebra), M)
    return Resolution(M, "projective", terms, diffs, aug, tverts, syzygies,
                      status, True, period, witness, incs)


def extend_resolution(res, n_terms):
    """Mechanically grow a projective resolution to n_terms terms.

    Used to evaluate the Hom complex at degrees beyond an early periodicity
    break; the status flag is left untouched.
    """
    if res.direction != "projective" or res.kernel_inclusions is None:
        raise QfabError("only stored projective resolutions can be extended")
    while len(res.terms) < n_terms:
        cur = res.syzygies[-1]
        if cur.total_dim == 0:
            return
        P, cover, verts = projective_cover(cur)
        res.terms.append(P)
        res.term_vertices.append(verts)
        res.diffs.append(res.kernel_inclusions[-1].compose(cover))
        K, inc = md.kernel(cover)
        res.kernel_inclusions.append(inc)
        res.syzygies.append(K)


# ---------------------------------------------------------------------------
# Ext via the Hom complex over generator coordinates
# ---------------------------------------------------------------------------


def _hom_coords_dim(term_vertices, N):
    A = N.algebra
    return sum(N.dims[A.vertex_pos[v]] for v in term_vertices)


def _differential_entries(verts_prev, verts_next, d):
    """d: + Ae_{verts_next} -> + Ae_{verts_prev} as entries of A.

    Yields (r, s, i, c), one per term: the image under d of the generator of
    summand r of the source is the sum of the terms c * (basis element i of
    A, in summand s of the target).
    """
    A = d.source.algebra
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
    for r, s, i, c in _differential_entries(verts_prev, verts_next, d):
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
    if M.total_dim == 0:
        return True
    _, cover, _ = projective_cover(M)
    K, _ = md.kernel(cover)
    return K.total_dim == 0


def is_injective_module(M):
    return is_projective_module(dual_module(M))


def dominant_dimension(A, cutoff=12, seed=0):
    """Number of leading projective-injective terms in the minimal injective
    coresolution of the regular module."""
    res = minimal_resolution(regular_left(A), "injective", cutoff=cutoff, seed=seed)
    for i, term in enumerate(res.terms):
        if not is_projective_module(term):
            return DimValue.finite(i)
    if res.status == "terminated":
        return DimValue.infinite(note="self-injective")
    return DimValue.at_least(len(res.terms))


def is_self_injective(A, seed=0):
    """Does the Nakayama functor permute the indecomposable projectives?"""
    if A.is_zero():
        return True
    projs = {v: projective_module(A, v) for v in A.vertices}
    used = set()
    for v in A.vertices:
        I = injective_module(A, v)
        found = None
        for w in A.vertices:
            if w in used:
                continue
            if projs[w].dims == I.dims and is_isomorphic(I, projs[w], seed=seed):
                found = w
                break
        if found is None:
            return False
        used.add(found)
    return True


# ---------------------------------------------------------------------------
# transpose, AR translation, Nakayama functor
# ---------------------------------------------------------------------------


def transpose(M, seed=0):
    """Tr(M) over the opposite algebra, from a minimal presentation."""
    A = M.algebra
    op = A.opposite()
    if M.total_dim == 0:
        return zero_module(op)
    _, cover, verts0 = projective_cover(M)
    K, inc = md.kernel(cover)
    if K.total_dim == 0:
        return zero_module(op)
    _, cover1, verts1 = projective_cover(K)
    d = inc.compose(cover1)    # P1 -> P0
    C, _ = md.cokernel(_dual_presentation_map(verts0, verts1, d))
    return C


def _dual_presentation_map(verts0, verts1, d):
    """Hom(P0, A) -> Hom(P1, A), psi -> psi . d, in op-module coordinates.

    Hom(+ Ae_v, A) = + e_v A is the free op-module over the same vertices.
    """
    A = d.source.algebra
    op = A.opposite()
    H0, pos0 = free_module(op, verts0)
    H1, pos1 = free_module(op, verts1)
    mats = [[[A.field.zero] * H0.dims[w] for _ in range(H1.dims[w])]
            for w in range(op.n_vertices)]
    for r, s, i, c in _differential_entries(verts0, verts1, d):
        # y_s -> c * (i . y_s): left multiplication by i, e_{v_s} A -> e_{v_r} A
        for x, (_, k_x) in pos0[s].items():
            for y, cy in A.mult(i, x).items():
                w, k_y = pos1[r][y]
                mats[w][k_y][k_x] += c * cy
    f_mats = [Matrix(H1.dims[w], H0.dims[w], mats[w], A.field)
              for w in range(op.n_vertices)]
    return ModuleMap(H0, H1, f_mats)


def ar_translate(M, seed=0):
    """tau = D Tr from a minimal presentation; zero on projectives."""
    return dual_module(transpose(M, seed=seed))


def ar_translate_inverse(M, seed=0):
    """tau^- = Tr D; zero on injectives."""
    return transpose(dual_module(M), seed=seed)


def nakayama_functor(M):
    """nu(M) = D Hom(M, A)."""
    A = M.algebra
    op = A.opposite()
    if M.total_dim == 0:
        return zero_module(A)
    projs = {v: free_module(A, [v]) for v in A.vertices}
    hom_bases = {v: hom_space(M, P) for v, (P, _) in projs.items()}
    dims = [len(hom_bases[v]) for v in A.vertices]
    # op-module: action of op generator g (A: i -> j) maps component j -> i
    gen_mats = {}
    for g in op.generators:
        bg_op = op.basis[g]
        vj, vi = A.vertices[bg_op.source], A.vertices[bg_op.target]
        basis_j = hom_bases[vj]
        basis_i = hom_bases[vi]
        cols = [[] for _ in basis_j]
        if basis_j and basis_i:
            rmul = _right_multiplication_map(A, g, projs[vj], projs[vi])
            flat = [h.as_vector() for h in basis_i]
            flat_i = from_columns(flat, len(flat[0]), A.field)
            for k, phi in enumerate(basis_j):
                cols[k] = solve(flat_i, rmul.compose(phi).as_vector())
                if cols[k] is None:
                    raise QfabError("right multiplication left the hom space")
        gen_mats[g] = from_columns(cols, len(basis_i), A.field)
    H = Representation(op, dims, gen_mats)
    return dual_module(H)


def _right_multiplication_map(A, g, src, tgt):
    """x -> x . g as a left-module map Ae_j -> Ae_i for g: i -> j.

    ``src`` and ``tgt`` are the ``free_module`` results for [j] and [i]."""
    (Pj, (slots_j,)), (Pi, (slots_i,)) = src, tgt
    mats = [[[A.field.zero] * Pj.dims[w] for _ in range(Pi.dims[w])]
            for w in range(A.n_vertices)]
    for x, (w, slot_x) in slots_j.items():
        for y, c in A.mult(x, g).items():
            w2, slot_y = slots_i[y]
            mats[w2][slot_y][slot_x] = c
    return ModuleMap(Pj, Pi, [Matrix(Pi.dims[w], Pj.dims[w], mats[w], A.field)
                              for w in range(A.n_vertices)])


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
