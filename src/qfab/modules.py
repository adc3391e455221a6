"""Finite-dimensional modules over an FDAlgebra, given as validated
representations: one space per vertex, one matrix per algebra generator.

The action of an arbitrary basis element is derived through the algebra's
factorization table, so module data stays small while every exactness
computation (kernels, images, homs) remains exact linear algebra.

Modules are small and live on a few vertices, so most blocks have a zero
side.  Such a block is never computed: ``Representation.action`` returns the
shared ``Matrix.zero`` for it, ``free_module`` builds no rows for it, and
``_sub_representation`` only checks that an image with an empty target block
is zero.
"""

from __future__ import annotations

import random

from .linalg import (Matrix, from_columns, kernel_basis, rank, solve,
                     solve_matrix, Subspace, unit_vectors)
from .errors import (AlgebraMismatch, QfabError, DimensionMismatch,
                     NotQuotientModule)

# Random combinations is_isomorphic tries before it answers no, the largest
# grid is_isomorphic_exhaustive walks, and the draws random_module makes
# before it falls back to a simple module.
ISO_TRIALS = 2
EXHAUSTIVE_ISO_LIMIT = 10 ** 7
RANDOM_MODULE_ATTEMPTS = 40


class Representation:
    """A left module over an FDAlgebra."""

    def __init__(self, algebra, dims, gen_mats):
        self.algebra = algebra
        self.dims = tuple(dims)
        if len(self.dims) != algebra.n_vertices:
            raise DimensionMismatch("dimension vector length mismatch")
        self.gen_mats = dict(gen_mats)
        self._action = {}
        zeros = {}  # one zero matrix per shape, shared by missing generators
        for g in algebra.generators:
            b = algebra.basis[g]
            shape = (self.dims[b.target], self.dims[b.source])
            m = self.gen_mats.get(g)
            if m is None:
                m = zeros.get(shape)
                if m is None:
                    m = zeros[shape] = Matrix.zero(*shape, algebra.field)
                self.gen_mats[g] = m
            if (m.rows, m.cols) != shape:
                raise DimensionMismatch(f"generator matrix shape mismatch at basis {g}")

    @property
    def field(self):
        return self.algebra.field

    @property
    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim == 0

    def __repr__(self):
        return f"Representation(dim {list(self.dims)})"

    def action(self, idx):
        """Matrix of basis element idx, from its source to its target space.

        A block with a zero side is the shared ``Matrix.zero``, with no
        factor products and no cache entry."""
        got = self._action.get(idx)
        if got is not None:
            return got
        A = self.algebra
        b = A.basis[idx]
        rows, cols = self.dims[b.target], self.dims[b.source]
        if not rows or not cols:
            return Matrix.zero(rows, cols, A.field)
        if b.length == 0:
            m = Matrix.identity(self.dims[b.source], A.field)
        elif idx in self.gen_mats:
            m = self.gen_mats[idx]
        else:
            terms = A.factor(idx)
            if terms is None:
                raise QfabError(f"no action data for generator basis element {idx}")
            # a factorization has at least one term
            m = _combination(((c, self.action(g) * self.action(u))
                              for c, g, u in terms), A.field)
        self._action[idx] = m
        return m

    def validate(self, full=False):
        """Check multiplicativity of the action.

        The generator-against-basis check suffices (longer elements factor
        through generators); ``full=True`` checks every basis pair.
        """
        A = self.algebra
        pairs = []
        first = A.generators if not full else range(A.dim)
        for g in first:
            bg = A.basis[g]
            if bg.length == 0:
                continue
            for u in range(A.dim):
                bu = A.basis[u]
                if bu.target != bg.source:
                    continue
                pairs.append((g, u))
        for g, u in pairs:
            bg, bu = A.basis[g], A.basis[u]
            lhs = self.action(g) * self.action(u)
            rhs = _combination(((c, self.action(k)) for k, c in A.mult(g, u).items()),
                               A.field)
            if not (lhs.is_zero() if rhs is None else lhs == rhs):
                return False
        return True

    def dim_vector(self):
        return dict(zip(self.algebra.vertices, self.dims))


def _combination(terms, field):
    """The sum of c * m over the (c, m) pairs, scaling m only when c is not
    1; None when there are no terms."""
    out = None
    for c, m in terms:
        if c != field.one:
            m = m.scale(c)
        out = m if out is None else out + m
    return out


class ModuleMap:
    """A homomorphism of representations: one matrix per vertex."""

    def __init__(self, source, target, mats):
        if source.algebra is not target.algebra:
            raise AlgebraMismatch("module map across different algebras")
        self.source = source
        self.target = target
        self.mats = list(mats)
        for v, m in enumerate(self.mats):
            if (m.rows, m.cols) != (target.dims[v], source.dims[v]):
                raise DimensionMismatch(f"map matrix shape mismatch at vertex {v}")

    @staticmethod
    def zero(source, target):
        return ModuleMap(source, target,
                         [Matrix.zero(target.dims[v], source.dims[v], source.field)
                          for v in range(source.algebra.n_vertices)])

    @staticmethod
    def identity(module):
        return ModuleMap(module, module,
                         [Matrix.identity(d, module.field) for d in module.dims])

    def is_zero(self):
        return all(m.is_zero() for m in self.mats)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise DimensionMismatch("composition shape mismatch")
        return ModuleMap(other.source, self.target,
                         [a * b for a, b in zip(self.mats, other.mats)])

    def __add__(self, other):
        return ModuleMap(self.source, self.target,
                         [a + b for a, b in zip(self.mats, other.mats)])

    def scale(self, c):
        return ModuleMap(self.source, self.target, [m.scale(c) for m in self.mats])

    def intertwines(self):
        A = self.source.algebra
        for g in A.generators:
            b = A.basis[g]
            lhs = self.mats[b.target] * self.source.action(g)
            rhs = self.target.action(g) * self.mats[b.source]
            if lhs != rhs:
                return False
        return True

    def rank(self):
        return sum(rank(m) for m in self.mats)

    def as_vector(self):
        """All entries in one list: vertex by vertex, each matrix row by row."""
        return [x for m in self.mats for r in m.data for x in r]

    def is_isomorphism(self):
        return (self.source.dims == self.target.dims and
                all(rank(m) == m.rows == m.cols for m in self.mats))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def zero_module(A):
    return Representation(A, [0] * A.n_vertices, {})


def simple_module(A, vertex_id):
    dims = [0] * A.n_vertices
    dims[A.vertex_pos[vertex_id]] = 1
    return Representation(A, dims, {})


def projective_layout(A, vertex_ids):
    """Coordinates of the free module + Ae_{v_s} over the listed vertices.

    Returns ``(dims, pos)``: ``pos[s][i] = (w, k)`` puts basis element i of A
    (source ``vertex_ids[s]``) of summand s at coordinate k of the vertex-w
    space.  Coordinates run by vertex w, then summand s, then
    ``A.by_source`` order, the block order of ``direct_sum``.  A vertex may
    be listed more than once.
    """
    dims = [0] * A.n_vertices
    pos = []
    for v in vertex_ids:
        slots = {}
        for i in A.by_source(A.vertex_pos[v]):
            w = A.basis[i].target
            slots[i] = (w, dims[w])
            dims[w] += 1
        pos.append(slots)
    return dims, pos


def free_module(A, vertex_ids):
    """The free module + Ae_v over the listed vertices, with its layout.

    Returns ``(P, pos)`` with ``pos`` as in ``projective_layout``."""
    dims, pos = projective_layout(A, vertex_ids)
    zero = A.field.zero
    leaving = [[] for _ in dims]  # generators by source vertex
    rows = {}
    for g in A.generators:
        bg = A.basis[g]
        if dims[bg.source] and dims[bg.target]:  # Representation fills in the rest
            leaving[bg.source].append(g)
            rows[g] = [[zero] * dims[bg.source] for _ in range(dims[bg.target])]
    for slots in pos:
        for i, (w, k) in slots.items():
            for g in leaving[w]:
                m = rows[g]
                for j, c in A.mult(g, i).items():
                    m[slots[j][1]][k] = c
    gen_mats = {g: Matrix(len(m), dims[A.basis[g].source], m, A.field)
                for g, m in rows.items()}
    return Representation(A, dims, gen_mats), pos


def projective_module(A, vertex_id):
    """Ae_v: basis = algebra basis elements with source v."""
    return free_module(A, [vertex_id])[0]


def dual_module(M):
    """D(M): a module over the opposite algebra on the dual spaces."""
    A = M.algebra
    op = A.opposite()
    gen_mats = {}
    for g in op.generators:
        gen_mats[g] = M.action(g).transpose()
    return Representation(op, M.dims, gen_mats)


def injective_module(A, vertex_id):
    """D(e_v A), the indecomposable injective at v."""
    return dual_module(projective_module(A.opposite(), vertex_id))


def regular_module(A):
    """The left regular module, as the direct sum of all Ae_v in vertex order."""
    return free_module(A, A.vertices)[0]


def direct_sum(summands):
    """Block sum; returns (module, inclusions, projections)."""
    if not summands:
        raise QfabError("direct_sum of nothing")
    A = summands[0].algebra
    for s in summands:
        if s.algebra is not A:
            raise AlgebraMismatch("direct sum across algebras")
    nv = A.n_vertices
    dims = [sum(s.dims[v] for s in summands) for v in range(nv)]
    gen_mats = {}
    for g in A.generators:
        b = A.basis[g]
        rows, cols = dims[b.target], dims[b.source]
        m = [[A.field.zero] * cols for _ in range(rows)]
        ro = co = 0
        for s in summands:
            sm = s.action(g)
            for i, r in enumerate(sm.data):
                m[ro + i][co:co + sm.cols] = r
            ro += s.dims[b.target]
            co += s.dims[b.source]
        gen_mats[g] = Matrix(rows, cols, m, A.field)
    M = Representation(A, dims, gen_mats)
    incs, projs = [], []
    zero = A.field.zero
    ro = [0] * nv
    for s in summands:
        inc, prj = [], []
        for v in range(nv):
            rowsel = [[zero] * dims[v] for _ in range(s.dims[v])]
            colsel = [[zero] * s.dims[v] for _ in range(dims[v])]
            for k in range(s.dims[v]):
                colsel[ro[v] + k][k] = A.field.one
                rowsel[k][ro[v] + k] = A.field.one
            inc.append(Matrix(dims[v], s.dims[v], colsel, A.field))
            prj.append(Matrix(s.dims[v], dims[v], rowsel, A.field))
        incs.append(ModuleMap(s, M, inc))
        projs.append(ModuleMap(M, s, prj))
        for v in range(nv):
            ro[v] += s.dims[v]
    return M, incs, projs


# ---------------------------------------------------------------------------
# kernels, images, quotients
# ---------------------------------------------------------------------------


def _sub_representation(N, col_bases):
    """Submodule of N spanned (vertexwise) by the given column bases.

    ``col_bases[v]`` is a list of vectors in N_v, assumed action-stable.
    Returns (module, inclusion).
    """
    A = N.algebra
    mats = [from_columns(cols, N.dims[v], A.field) for v, cols in enumerate(col_bases)]
    dims = [m.cols for m in mats]
    gen_mats = {}
    for g in A.generators:
        b = A.basis[g]
        if not dims[b.source]:
            continue  # an empty block: Representation fills in its zero
        img = N.action(g) * mats[b.source]
        if not dims[b.target]:
            if not img.is_zero():
                raise QfabError("subspace is not action-stable")
            continue
        x = solve_matrix(mats[b.target], img)
        if x is None:
            raise QfabError("subspace is not action-stable")
        gen_mats[g] = x
    S = Representation(A, dims, gen_mats)
    return S, ModuleMap(S, N, mats)


def kernel(f: ModuleMap):
    """Kernel with its inclusion."""
    bases = [kernel_basis(f.mats[v]) for v in range(f.source.algebra.n_vertices)]
    return _sub_representation(f.source, bases)


def image(f: ModuleMap):
    """Image as a submodule of the target, with its inclusion."""
    A = f.source.algebra
    bases = []
    for v in range(A.n_vertices):
        sub = Subspace(f.target.dims[v], A.field)
        for col in f.mats[v].columns():
            sub.insert(col)
        bases.append([list(r) for r in sub.rows])
    return _sub_representation(f.target, bases)


def cokernel(f: ModuleMap):
    """Cokernel with the projection from the target."""
    A = f.source.algebra
    N = f.target
    subs = []
    complements = []
    for v in range(A.n_vertices):
        sub = Subspace(N.dims[v], A.field)
        for col in f.mats[v].columns():
            sub.insert(col)
        subs.append(sub)
        pivset = set(sub.pivots)
        complements.append([k for k in range(N.dims[v]) if k not in pivset])
    dims = [len(c) for c in complements]

    def project(v, vec):
        res = subs[v].reduce(vec)
        return [res[k] for k in complements[v]]

    proj_mats = []
    for v in range(A.n_vertices):
        cols = [project(v, u) for u in unit_vectors(N.dims[v], A.field)]
        proj_mats.append(from_columns(cols, dims[v], A.field))
    gen_mats = {}
    for g in A.generators:
        b = A.basis[g]
        act = N.action(g)
        cols = [project(b.target, act.column(k)) for k in complements[b.source]]
        gen_mats[g] = from_columns(cols, dims[b.target], A.field)
    C = Representation(A, dims, gen_mats)
    return C, ModuleMap(N, C, proj_mats)


# ---------------------------------------------------------------------------
# radical, top, socle
# ---------------------------------------------------------------------------


def radical_submodule(M):
    """rad(M) = rad(A).M with its inclusion."""
    A = M.algebra
    bases = []
    for v in range(A.n_vertices):
        sub = Subspace(M.dims[v], A.field)
        for g in A.generators:
            if A.basis[g].target == v:
                for col in M.action(g).columns():
                    sub.insert(col)
        bases.append([list(r) for r in sub.rows])
    return _sub_representation(M, bases)


def top(M):
    """M/rad(M) with the projection."""
    R, inc = radical_submodule(M)
    return cokernel(inc)


def socle(M):
    """The annihilator of the radical, with its inclusion."""
    A = M.algebra
    bases = []
    for v in range(A.n_vertices):
        stack = None
        for g in A.generators:
            if A.basis[g].source == v:
                stack = M.action(g) if stack is None else stack.vstack(M.action(g))
        bases.append(unit_vectors(M.dims[v], A.field) if stack is None
                     else kernel_basis(stack))
    return _sub_representation(M, bases)


# ---------------------------------------------------------------------------
# corner / quotient transport
# ---------------------------------------------------------------------------


def restrict_to_corner(M, C):
    """eM as a module over the corner algebra C = eAe."""
    return _restrict(M, C, "corner")


def restrict_from_quotient(M, Abar):
    """Restrict an A-module killed by <e> to A/<e>; inverse of inflation.
    Raises NotQuotientModule when <e> does not kill M."""
    outside = _support_outside(M, Abar)
    if outside:
        raise NotQuotientModule(f"<e> does not kill the module: it is "
                                f"non-zero at the killed vertices {outside}")
    return _restrict(M, Abar, "quotient")


def _restrict(M, B, role):
    """M restricted to B, the ``role`` child of M's algebra: the spaces at
    B's vertices, each generator of B acting as the parent basis element it
    came from."""
    keep = _reduction(M.algebra, B, role).keep[role]
    dims = [M.dims[M.algebra.vertex_pos[v]] for v in B.vertices]
    return Representation(B, dims, {g: M.action(keep[g]) for g in B.generators})


def _reduction(A, B, role):
    """The IdempotentReduction that made B, checked to be A's ``role`` child."""
    red = B.reduction
    if red is None or red.parent is not A or getattr(red, role) is not B:
        raise AlgebraMismatch(f"algebra is not a {role} of the module's algebra")
    return red


def _support_outside(M, Abar):
    """The vertices of M's algebra missing from the quotient Abar where M is
    non-zero."""
    A = _reduction(M.algebra, Abar, "quotient").parent
    return [v for v in A.vertices
            if v not in Abar.vertex_pos and M.dims[A.vertex_pos[v]]]


def inflate_from_quotient(M, A):
    """View a module over A/<e> as a module over A (the ideal acts as zero)."""
    Abar = M.algebra
    red = _reduction(A, Abar, "quotient")
    dims = [M.dims[Abar.vertex_pos[v]] if v in Abar.vertex_pos else 0
            for v in A.vertices]
    gen_mats = {}
    for g in A.generators:
        # a non-zero class in A/<e> keeps g's endpoints, so the shapes agree;
        # a generator in <e> is left out and acts as zero
        m = _combination(((c, M.action(k)) for k, c in
                          red.reduce({g: A.field.one}).items()), A.field)
        if m is not None:
            gen_mats[g] = m
    return Representation(A, dims, gen_mats)


def is_quotient_module(M, Abar):
    """Does <e> annihilate M (i.e. is M an A/<e>-module)?"""
    return not _support_outside(M, Abar)


# ---------------------------------------------------------------------------
# hom spaces, isomorphism, endomorphism data
# ---------------------------------------------------------------------------


def hom_space(M, N):
    """Canonical basis of Hom(M, N) as a list of ModuleMaps."""
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    A = M.algebra
    nv = A.n_vertices
    offs = []
    total = 0
    for v in range(nv):
        offs.append(total)
        total += N.dims[v] * M.dims[v]
    if total == 0:
        return []
    rows = []
    zero = A.field.zero
    for g in A.generators:
        b = A.basis[g]
        s, t = b.source, b.target
        mg = M.action(g)
        ng = N.action(g)
        # phi_t * M(g) - N(g) * phi_s = 0, entry (i, j): i < N.dims[t], j < M.dims[s]
        for i in range(N.dims[t]):
            for j in range(M.dims[s]):
                row = [zero] * total
                for k in range(M.dims[t]):
                    if mg.data[k][j]:
                        row[offs[t] + i * M.dims[t] + k] += mg.data[k][j]
                for k in range(N.dims[s]):
                    if ng.data[i][k]:
                        row[offs[s] + k * M.dims[s] + j] -= ng.data[i][k]
                if any(row):
                    rows.append(row)
    basis_vecs = kernel_basis(Matrix(len(rows), total, rows, A.field))
    out = []
    for vec in basis_vecs:
        mats = []
        for v in range(nv):
            m = [[vec[offs[v] + i * M.dims[v] + j] for j in range(M.dims[v])]
                 for i in range(N.dims[v])]
            mats.append(Matrix(N.dims[v], M.dims[v], m, A.field))
        out.append(ModuleMap(M, N, mats))
    return out


def hom_dim(M, N):
    return len(hom_space(M, N))


class IsoCertificate:
    def __init__(self, verdict, witness=None, trials=None, reason=""):
        self.verdict = verdict
        self.witness = witness
        self.trials = trials
        self.reason = reason

    def __bool__(self):
        return self.verdict


def is_isomorphic(M, N, seed=0):
    """Randomized isomorphism test with certificate.

    Invertibility of a random combination of a Hom basis certifies yes; the
    determinant of the generic combination vanishes identically iff no
    isomorphism exists, so each failed trial is wrong with probability at
    most total_dim / range, with range >= total_dim * 2**64.
    """
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("isomorphism test across algebras")
    if M.dims != N.dims:
        return IsoCertificate(False, reason="dimension vectors differ")
    if M.total_dim == 0:
        return IsoCertificate(True, witness=ModuleMap.zero(M, N))
    basis = hom_space(M, N)
    if not basis:
        return IsoCertificate(False, reason="Hom space is zero")
    rng = random.Random(seed)
    spread = max(M.total_dim, 1) * (2 ** 64)
    for t in range(ISO_TRIALS):
        phi = basis[0].scale(M.field.coerce(rng.randrange(spread)))
        for h in basis[1:]:
            phi = phi + h.scale(M.field.coerce(rng.randrange(spread)))
        if phi.is_isomorphism():
            return IsoCertificate(True, witness=phi, trials=t + 1)
    return IsoCertificate(False, trials=ISO_TRIALS,
                          reason=f"{ISO_TRIALS} random combinations singular")


def is_isomorphic_exhaustive(M, N):
    """Deterministic complete test for small modules.

    Evaluates the determinant of combinations over the grid {0..D}^m with
    D = total dimension; some grid point is invertible iff an isomorphism
    exists (Schwartz-Zippel on the degree-D determinant polynomial).
    """
    if M.dims != N.dims:
        return False
    if M.total_dim == 0:
        return True
    basis = hom_space(M, N)
    if not basis:
        return False
    D = M.total_dim
    m = len(basis)
    if (D + 1) ** m > EXHAUSTIVE_ISO_LIMIT:
        raise QfabError("exhaustive isomorphism grid too large")
    coeffs = [0] * m
    while True:
        phi = basis[0].scale(M.field.coerce(coeffs[0]))
        for k in range(1, m):
            phi = phi + basis[k].scale(M.field.coerce(coeffs[k]))
        if phi.is_isomorphism():
            return True
        k = 0
        while k < m:
            coeffs[k] += 1
            if coeffs[k] <= D:
                break
            coeffs[k] = 0
            k += 1
        if k == m:
            return False


def endo_structure(M):
    """Endomorphism basis plus structure constants (composition)."""
    basis = hom_space(M, M)
    n = len(basis)
    base_mat = from_columns([h.as_vector() for h in basis],
                            sum(d * d for d in M.dims), M.field)
    table = {}
    for i in range(n):
        for j in range(n):
            x = solve(base_mat, basis[i].compose(basis[j]).as_vector())
            if x is None:
                raise QfabError("composition left the endomorphism space")
            table[(i, j)] = x
    return basis, table


def endo_radical_dim(M):
    """dim of rad End(M) via the trace form of the regular representation
    (valid in characteristic zero)."""
    if M.field.characteristic != 0:
        raise QfabError("endomorphism radical via trace form needs char 0")
    basis, table = endo_structure(M)
    n = len(basis)
    if n == 0:
        return 0
    left_trace = []
    for l in range(n):
        tr = M.field.zero
        for k in range(n):
            tr = tr + table[(l, k)][k]
        left_trace.append(tr)
    gram = [[M.field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = table[(i, j)]
            tr = M.field.zero
            for l in range(n):
                if prod[l]:
                    tr = tr + prod[l] * left_trace[l]
            gram[i][j] = tr
    return n - rank(Matrix(n, n, gram, M.field))


def is_indecomposable(M):
    """End(M)/rad has dimension 1 (local endomorphism ring)."""
    if M.total_dim == 0:
        return False
    return len(hom_space(M, M)) - endo_radical_dim(M) == 1


# ---------------------------------------------------------------------------
# standard module front-end and random sampling
# ---------------------------------------------------------------------------


def standard_module(A, kind, vertex_id):
    if vertex_id not in A.vertex_pos:
        raise QfabError(f"unknown vertex {vertex_id!r}")
    if kind == "simple":
        return simple_module(A, vertex_id)
    if kind in ("projective", "proj"):
        return projective_module(A, vertex_id)
    if kind in ("injective", "inj"):
        return injective_module(A, vertex_id)
    raise QfabError(f"unknown module kind {kind!r}")


def submodule_generated_by(N, seeds):
    """Smallest action-stable subspace containing the seed vectors.

    ``seeds``: list of (vertex position, vector).  Returns (module, inclusion).
    """
    A = N.algebra
    subs = [Subspace(N.dims[v], A.field) for v in range(A.n_vertices)]
    work = []
    for v, vec in seeds:
        if subs[v].insert(vec):
            work.append((v, list(vec)))
    while work:
        v, vec = work.pop()
        for g in A.generators:
            b = A.basis[g]
            if b.source == v:
                img = N.action(g).apply(vec)
                if any(img) and subs[b.target].insert(img):
                    work.append((b.target, img))
    bases = [[list(r) for r in sub.rows] for sub in subs]
    return _sub_representation(N, bases)


def random_module(A, rng, max_total_dim=8):
    """A pseudo-random module: a submodule of a random projective generated
    by random elements, re-drawn until the size cap is met."""
    for _ in range(RANDOM_MODULE_ATTEMPTS):
        v = A.vertices[rng.randrange(A.n_vertices)]
        P = projective_module(A, v)
        if P.total_dim == 0:
            continue
        nseeds = 1 + rng.randrange(2)
        seeds = []
        for _ in range(nseeds):
            w = rng.randrange(A.n_vertices)
            if P.dims[w] == 0:
                continue
            vec = [A.field.coerce(rng.randrange(-3, 4)) for _ in range(P.dims[w])]
            seeds.append((w, vec))
        if not seeds:
            continue
        M, _ = submodule_generated_by(P, seeds)
        if 0 < M.total_dim <= max_total_dim:
            return M
    return simple_module(A, A.vertices[rng.randrange(A.n_vertices)])
