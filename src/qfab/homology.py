"""Projective covers, (co)syzygies, minimal resolutions, Ext, homological
dimensions, the transpose / AR translation / Nakayama functor, Gorenstein and
dominant dimension, Gorenstein (co)projectivity, and resolution-generator
membership (gen_l / cogen_l).

Injective-side computations are dualized: an injective coresolution of M is
the dual of a minimal projective resolution of D(M) over the opposite
algebra, so the projective machinery is the single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import Matrix, Subspace, from_columns, kernel_basis, rank, solve
from .errors import QfabError, NotGorensteinCertified
from . import modules as md
from .modules import (ModuleMap, Representation, direct_sum, dual_module,
                      hom_space, injective_module, is_isomorphic,
                      projective_module, simple_module, zero_module)


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
    summands = [projective_module(A, A.vertices[v]) for v, _ in summand_data]
    P, incs, projs = direct_sum(summands)
    # assemble the cover map: generator of summand s at vertex v maps to x
    mats = [ [ [A.field.zero]*P.dims[w] for _ in range(M.dims[w]) ]
             for w in range(A.n_vertices) ]
    col_off = [0] * A.n_vertices
    for s, (v, x) in enumerate(summand_data):
        Pv = summands[s]
        _, slots = Pv._projective_slots
        for i, (w, slot) in slots.items():
            col = M.action(i).apply(x)
            for r in range(M.dims[w]):
                mats[w][r][col_off[w] + slot] = col[r]
        for w in range(A.n_vertices):
            col_off[w] += Pv.dims[w]
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


def _hom_complex_matrix(P_prev, verts_prev, P_next, verts_next, d, N):
    """Matrix of Hom(P_prev, N) -> Hom(P_next, N), phi -> phi . d."""
    A = N.algebra
    rows = _hom_coords_dim(verts_next, N)
    cols = _hom_coords_dim(verts_prev, N)
    out = [[A.field.zero] * cols for _ in range(rows)]
    # concrete coordinates of P_prev: offsets per summand slot
    prev_offsets = []   # per summand: dict basis_idx -> (vertex, concrete col)
    col_off = [0] * A.n_vertices
    for v_id in verts_prev:
        vpos = A.vertex_pos[v_id]
        Pv = projective_module(A, v_id)
        _, slots = Pv._projective_slots
        prev_offsets.append({i: (w, col_off[w] + slot) for i, (w, slot) in slots.items()})
        for w in range(A.n_vertices):
            col_off[w] += Pv.dims[w]
    # reverse lookup: concrete coordinate -> (summand s, basis elt i)
    concrete = {}
    for s, table in enumerate(prev_offsets):
        for i, (w, pos) in table.items():
            concrete[(w, pos)] = (s, i)
    # Hom coordinate offsets
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
    # generator positions inside P_next
    gen_cols = []
    col_off = [0] * A.n_vertices
    for v_id in verts_next:
        vpos = A.vertex_pos[v_id]
        Pv = projective_module(A, v_id)
        _, slots = Pv._projective_slots
        idem = A.idempotent_index[vpos]
        gen_cols.append((vpos, col_off[vpos] + slots[idem][1]))
        for w in range(A.n_vertices):
            col_off[w] += Pv.dims[w]
    for r, (vpos_r, col_r) in enumerate(gen_cols):
        img = [d.mats[vpos_r].data[k][col_r] for k in range(d.mats[vpos_r].rows)] \
            if d.mats[vpos_r].rows else []
        # img is d(gen_r), a vector in P_prev's vertex-vpos_r component
        for k, c in enumerate(img):
            if not c:
                continue
            s, i = concrete[(vpos_r, k)]
            act = N.action(i)   # N_{v_s} -> N_{vpos_r}
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
        m_in = _hom_complex_matrix(terms[i - 1], tverts[i - 1], terms[i],
                                   tverts[i], diffs[i - 1], N)
        rank_in = rank(m_in)
    rank_out = 0
    if i + 1 >= len(terms) and res.status == "periodic":
        extend_resolution(res, i + 2)
    if i + 1 < len(terms):
        m_out = _hom_complex_matrix(terms[i], tverts[i], terms[i + 1],
                                    tverts[i + 1], diffs[i], N)
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
    P0, cover, verts0 = projective_cover(M)
    K, inc = md.kernel(cover)
    if K.total_dim == 0:
        return zero_module(op)
    P1, cover1, verts1 = projective_cover(K)
    d = inc.compose(cover1)    # P1 -> P0
    H0, h0_data = _hom_to_regular_projective(P0, verts0)
    H1, h1_data = _hom_to_regular_projective(P1, verts1)
    f = _dual_presentation_map(P0, verts0, P1, verts1, d, H0, h0_data, H1, h1_data)
    C, _ = md.cokernel(f)
    return C


def _hom_to_regular_projective(P, verts):
    """Hom(P, A) = + e_v A as a module over the opposite algebra."""
    A = P.algebra
    op = A.opposite()
    summands = [projective_module(op, v) for v in verts]
    if not summands:
        return zero_module(op), []
    H, incs, projs = direct_sum(summands)
    return H, (summands, incs, projs)


def _dual_presentation_map(P0, verts0, P1, verts1, d, H0, h0_data, H1, h1_data):
    """Hom(P0, A) -> Hom(P1, A), psi -> psi . d, in op-module coordinates."""
    A = P0.algebra
    op = A.opposite()
    zero = A.field.zero
    # concrete coordinates of P0: (summand s, algebra basis elt i)
    prev_tbl = []
    col_off = [0] * A.n_vertices
    for v_id in verts0:
        Pv = projective_module(A, v_id)
        _, slots = Pv._projective_slots
        prev_tbl.append({i: (w, col_off[w] + slot) for i, (w, slot) in slots.items()})
        for w in range(A.n_vertices):
            col_off[w] += Pv.dims[w]
    concrete = {}
    for s, table in enumerate(prev_tbl):
        for i, (w, pos) in table.items():
            concrete[(w, pos)] = (s, i)
    # generator columns of P1
    gen_cols = []
    col_off = [0] * A.n_vertices
    for v_id in verts1:
        vpos = A.vertex_pos[v_id]
        Pv = projective_module(A, v_id)
        _, slots = Pv._projective_slots
        idem = A.idempotent_index[vpos]
        gen_cols.append((vpos, col_off[vpos] + slots[idem][1]))
        for w in range(A.n_vertices):
            col_off[w] += Pv.dims[w]
    # H0 coordinates: summand s at op-vertex w: op basis elts with op source
    # verts0[s] and op target w (= A elts with target verts0[s], source w)
    summands0 = h0_data[0] if h0_data else []
    summands1 = h1_data[0] if h1_data else []
    off0 = _summand_offsets(summands0, op.n_vertices)
    off1 = _summand_offsets(summands1, op.n_vertices)
    mats = [[[zero] * H0.dims[w] for _ in range(H1.dims[w])]
            for w in range(op.n_vertices)]
    for r, (vpos_r, col_r) in enumerate(gen_cols):
        # d(gen_r) lives in P0's vertex-vpos_r component
        col = [d.mats[vpos_r].data[k][col_r] for k in range(d.mats[vpos_r].rows)]
        for k, c in enumerate(col):
            if not c:
                continue
            s, i = concrete[(vpos_r, k)]
            # contribution: y_s -> c * (i . y_s): left multiplication by i,
            # mapping e_{verts0[s]} A -> e_{vpos_r} A
            _, slots_s = summands0[s]._projective_slots
            _, slots_r = summands1[r]._projective_slots
            for x, (w_op, slot_x) in slots_s.items():
                prod = P0.algebra.mult(i, x)
                for y, cy in prod.items():
                    w2, slot_y = slots_r[y]
                    pos_x = off0[s][w_op] + slot_x
                    pos_y = off1[r][w2] + slot_y
                    mats[w2][pos_y][pos_x] += c * cy
    f_mats = [Matrix(H1.dims[w], H0.dims[w], mats[w], A.field)
              for w in range(op.n_vertices)]
    return ModuleMap(H0, H1, f_mats)


def _summand_offsets(summands, nv):
    """Per-summand, per-vertex starting offsets inside a direct sum."""
    out = []
    acc = [0] * nv
    for s in summands:
        out.append(list(acc))
        for w in range(nv):
            acc[w] += s.dims[w]
    return out


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
    hom_bases = {v: hom_space(M, projective_module(A, v)) for v in A.vertices}
    dims = [len(hom_bases[v]) for v in A.vertices]
    # op-module: action of op generator g (A: i -> j) maps component j -> i
    gen_mats = {}
    for g in op.generators:
        bg_op = op.basis[g]
        j_pos, i_pos = bg_op.source, bg_op.target
        vj, vi = A.vertices[j_pos], A.vertices[i_pos]
        Pj = projective_module(A, vj)
        Pi = projective_module(A, vi)
        rmul = _right_multiplication_map(A, g, Pj, Pi)
        basis_j = hom_bases[vj]
        basis_i = hom_bases[vi]
        cols = []
        if basis_j:
            flat_i = _flatten_basis(basis_i) if basis_i else None
            for phi in basis_j:
                comp = rmul.compose(phi)
                if basis_i:
                    x = solve(flat_i, _flatten_map(comp))
                    if x is None:
                        raise QfabError("right multiplication left the hom space")
                else:
                    x = []
                cols.append(x)
        gen_mats[g] = from_columns(cols, len(basis_i), A.field)
    H = Representation(op, dims, gen_mats)
    return dual_module(H)


def _right_multiplication_map(A, g, Pj, Pi):
    """x -> x . g as a left-module map Ae_j -> Ae_i for g: i -> j."""
    _, slots_j = Pj._projective_slots
    _, slots_i = Pi._projective_slots
    mats = [[[A.field.zero] * Pj.dims[w] for _ in range(Pi.dims[w])]
            for w in range(A.n_vertices)]
    for x, (w, slot_x) in slots_j.items():
        for y, c in A.mult(x, g).items():
            w2, slot_y = slots_i[y]
            mats[w2][slot_y][slot_x] = c
    return ModuleMap(Pj, Pi, [Matrix(Pi.dims[w], Pj.dims[w], mats[w], A.field)
                              for w in range(A.n_vertices)])


def _flatten_map(f):
    v = []
    for m in f.mats:
        for r in m.data:
            v.extend(r)
    return v


def _flatten_basis(basis):
    rows = [_flatten_map(f) for f in basis]
    return Matrix(len(rows), len(rows[0]), rows, basis[0].source.field).transpose()


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
    from .algebra import quotient_by_idempotent_ideal

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

    Abar = quotient_by_idempotent_ideal(A, sorted(eset))
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
    """Is M in cogen_level(eA)?  Dual of gen_membership; the Ext method tests
    Ext^i(A/<e>, M) = 0 for 0 <= i <= level."""
    from .algebra import quotient_by_idempotent_ideal

    A = M.algebra
    eset = set(e_vertices)
    res = minimal_resolution(M, "injective", cutoff=cutoff, seed=seed)
    bound = _resolution_closure_bound(res)
    if level == "inf":
        if bound is None:
            raise QfabError(
                f"coresolution neither terminates nor repeats within {cutoff}")
        check_upto = bound - 1
    else:
        if level >= len(res.terms) and res.status == "truncated":
            raise QfabError("coresolution truncated below the requested level")
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

    Abar = quotient_by_idempotent_ideal(A, sorted(eset))
    quop = []
    for v in Abar.vertices:
        X = md.inflate_from_quotient(projective_module(Abar, v), A)
        quop.append((v, X))
    ext_upto = check_upto + 1 if level == "inf" else level
    ext_upto = min(ext_upto, (bound if bound is not None else cutoff))
    viol_b = None
    for v, X in quop:
        resX = minimal_resolution(X, "projective", cutoff=ext_upto + 1, seed=seed)
        for i in range(0, ext_upto + 1):
            d = _ext_from_resolution(resX, M, i)
            if d != 0:
                viol_b = (v, i, d)
                break
        if viol_b:
            break
    verdict_b = viol_b is None
    method_b = {"ext_checked_upto": ext_upto, "violation": viol_b}
    if verdict_a != verdict_b:
        raise QfabError(
            f"cogen-membership methods disagree: resolution {verdict_a} "
            f"vs ext {verdict_b} ({method_a} / {method_b})")
    return GenMembershipReport(M, tuple(sorted(eset)), level, verdict_a,
                               method_a, method_b)
