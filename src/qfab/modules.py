"""Finite-dimensional modules over an FDAlgebra, given as validated
representations: one space per vertex, one matrix per algebra generator
between two non-zero spaces.

The action of an arbitrary basis element is derived through the algebra's
factorization table, so module data stays small while every exactness
computation (kernels, images, homs) remains exact linear algebra.

Modules are small and live on a few vertices, so most blocks have a zero
side.  Such a block is never computed: ``Representation.action`` returns the
shared ``Matrix.zero`` for it, and ``free_module``, ``cokernel``,
``direct_sum`` and ``dual_module`` build nothing for it.  ``radical_spaces`` reads only ``gen_mats``, and ``socle``,
``submodule_generated_by``, ``hom_space``, ``restrict_to_corner`` and
``inflate_from_quotient`` read only the generators leaving a non-zero
vertex, through ``FDAlgebra.generators_from``.  A module costs its
support: ``Representation.gen_mats`` holds exactly the generators whose
source and target spaces are both non-zero.  The constructor checks the
shape of every matrix it is given, drops those with a zero side, and fills
in a shared zero for a supported generator left out.
``_supported_generators`` lists those generators, through
``FDAlgebra.generators_from`` at the non-zero vertices.

A submodule is handed to ``_sub_representation`` as an echelon basis per
vertex with its unit coordinates: the pivots of a ``Subspace`` (``image``,
``radical_submodule``, ``submodule_generated_by``) or the free columns of a
kernel basis (``kernel``, ``socle``).  The basis matrix is the identity at
those rows, so the coordinates of a vector of the span are its entries
there: submodules read their generator matrices off the images and never
solve a linear system.
"""

from __future__ import annotations

import itertools
import random

from .linalg import (Matrix, _kernel, from_columns, kernel_basis, rank,
                     Span, Subspace, unit_vectors)
from .errors import (AlgebraMismatch, QfabError, DimensionMismatch, InputError,
                     NotQuotientModule)

# Random combinations is_isomorphic draws when no exact step decides, and
# the largest grid of Hom coefficients it or is_isomorphic_exhaustive walks.
ISO_TRIALS = 2
ISO_GRID_LIMIT = 2 ** 12


class Representation:
    """A left module over an FDAlgebra."""

    def __init__(self, algebra, dims, gen_mats):
        self.algebra = algebra
        self.dims = dims = tuple(dims)
        if len(dims) != algebra.n_vertices:
            raise DimensionMismatch("dimension vector length mismatch")
        basis = algebra.basis
        self.gen_mats = {}
        for g, m in gen_mats.items():
            b = basis[g]
            if (m.rows, m.cols) != (dims[b.target], dims[b.source]):
                raise DimensionMismatch(f"generator matrix shape mismatch at basis {g}")
            if m.rows and m.cols:
                self.gen_mats[g] = m
        zeros = {}  # one zero matrix per shape, shared by missing generators
        for g, v, t in _supported_generators(algebra, dims):
            if g not in self.gen_mats:
                shape = (dims[t], dims[v])
                m = zeros.get(shape)
                if m is None:
                    m = zeros[shape] = Matrix.zero(*shape, algebra.field)
                self.gen_mats[g] = m
        self._action = {}
        self._top = None  # _top(self), once computed

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
        for g in A.generators if not full else range(A.dim):
            bg = A.basis[g]
            if bg.length == 0:
                continue
            for u in range(A.dim):
                if A.basis[u].target != bg.source:
                    continue
                lhs = self.action(g) * self.action(u)
                rhs = _combination(((c, self.action(k))
                                    for k, c in A.mult(g, u).items()), A.field)
                if not (lhs.is_zero() if rhs is None else lhs == rhs):
                    return False
        return True

    def dim_vector(self):
        return dict(zip(self.algebra.vertices, self.dims))


def _supported_generators(A, dims):
    """(g, source, target) for each generator g of A whose source and target
    spaces in the dimension vector ``dims`` are both non-zero."""
    for v, d in enumerate(dims):
        if d:
            for g in A.generators_from(v):
                t = A.basis[g].target
                if dims[t]:
                    yield g, v, t


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
    leaving = [[] for _ in dims]  # supported generators by source vertex
    rows = {}
    for g, v, t in _supported_generators(A, dims):
        leaving[v].append(g)
        rows[g] = [[zero] * dims[v] for _ in range(dims[t])]
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
    gen_mats = {g: M.action(g).transpose()
                for g, _, _ in _supported_generators(op, M.dims)}
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
    for g, v, t in _supported_generators(A, dims):
        m = [[A.field.zero] * dims[v] for _ in range(dims[t])]
        ro = co = 0
        for s in summands:
            sm = s.action(g)
            for i, r in enumerate(sm.data):
                m[ro + i][co:co + sm.cols] = r
            ro += s.dims[t]
            co += s.dims[v]
        gen_mats[g] = Matrix(dims[t], dims[v], m, A.field)
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


def _sub_representation(N, bases):
    """Submodule of N spanned, vertex by vertex, by echelon bases.

    ``bases[v]`` is ``(vectors, units)``: vectors in N_v whose matrix of
    columns is the identity at the rows ``units``.  A vector of their span is
    the combination with its entries at ``units`` as coefficients, so each
    generator matrix is read off the image, and one product checks that the
    span is action-stable.  That product equals the image at the unit rows
    by construction, so only the other rows are computed and compared.
    Returns (module, inclusion).
    """
    A = N.algebra
    mats = [from_columns(cols, N.dims[v], A.field) for v, (cols, _) in enumerate(bases)]
    dims = [m.cols for m in mats]
    off_units = {}  # by target vertex: the rows off the units, and the basis there
    gen_mats = {}
    for v, d in enumerate(dims):
        if not d:
            continue  # empty blocks: Representation leaves them out
        for g in A.generators_from(v):
            t = A.basis[g].target
            img = N.action(g) * mats[v]
            units = bases[t][1]
            x = Matrix(dims[t], d, [img.data[p] for p in units], A.field)
            off = off_units.get(t)
            if off is None:
                unit_set = set(units)
                rows = [p for p in range(N.dims[t]) if p not in unit_set]
                off = off_units[t] = rows, Matrix(len(rows), dims[t],
                                                  [mats[t].data[p] for p in rows], A.field)
            rows, basis_off = off
            if rows and (basis_off * x).data != tuple([img.data[p] for p in rows]):
                raise QfabError("subspace is not action-stable")
            gen_mats[g] = x
    S = Representation(A, dims, gen_mats)
    return S, ModuleMap(S, N, mats)


def kernel(f: ModuleMap):
    """Kernel with its inclusion."""
    return _sub_representation(f.source, [_kernel(m) for m in f.mats])


def _column_span(m):
    """The column span of m as a ``Subspace``."""
    sub = Subspace(m.rows, m.field)
    for col in m.columns():
        sub.insert(col)
    return sub


def image(f: ModuleMap):
    """Image as a submodule of the target, with its inclusion."""
    return _sub_representation(f.target, [(sub.rows, sub.pivots)
                                          for sub in map(_column_span, f.mats)])


def cokernel(f: ModuleMap):
    """Cokernel with the projection from the target."""
    A = f.source.algebra
    N = f.target
    subs = [_column_span(m) for m in f.mats]
    complements = []
    for v, sub in enumerate(subs):
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
    for g, v, t in _supported_generators(A, dims):
        act = N.action(g)
        cols = [project(t, act.column(k)) for k in complements[v]]
        gen_mats[g] = from_columns(cols, dims[t], A.field)
    C = Representation(A, dims, gen_mats)
    return C, ModuleMap(N, C, proj_mats)


# ---------------------------------------------------------------------------
# radical, top, socle
# ---------------------------------------------------------------------------


def radical_spaces(M):
    """rad(M) vertex by vertex, as one ``Subspace`` of M_v per vertex v.

    rad(M) is spanned by the images of the generators, and a reduced echelon
    form depends only on the span, not on the order of its vectors, so only
    the blocks in ``M.gen_mats`` are read."""
    A = M.algebra
    subs = [Subspace(d, A.field) for d in M.dims]
    for g, m in M.gen_mats.items():
        sub = subs[A.basis[g].target]
        for col in m.columns():
            sub.insert(col)
    return subs


def _top(M):
    """The coordinates (v, c), vertex by vertex, with c outside the pivots of
    the radical's span in M_v (``radical_spaces``): a basis of M's top.
    Computed once per module and kept on it, as ``action`` keeps its
    matrices."""
    if M._top is None:
        out = []
        for v, sub in enumerate(radical_spaces(M)):
            pivs = set(sub.pivots)
            out.extend((v, c) for c in range(M.dims[v]) if c not in pivs)
        M._top = out
    return M._top


def radical_submodule(M):
    """rad(M) = rad(A).M with its inclusion."""
    return _sub_representation(M, [(sub.rows, sub.pivots)
                                   for sub in radical_spaces(M)])


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
        for g in A.generators_from(v):
            stack = M.action(g) if stack is None else stack.vstack(M.action(g))
        bases.append((unit_vectors(M.dims[v], A.field), range(M.dims[v]))
                     if stack is None else _kernel(stack))
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
    return Representation(B, dims, {g: M.action(keep[g])
                                    for g, _, _ in _supported_generators(B, dims)})


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
    for g, _, _ in _supported_generators(A, dims):
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
    # phi is a vector: vertex by vertex, each N.dims[v] x M.dims[v] block by rows
    offs = list(itertools.accumulate((n * m for n, m in zip(N.dims, M.dims)), initial=0))
    total = offs.pop()
    if total == 0:
        return []
    rows = []
    zero = A.field.zero
    # phi_t M(g) = N(g) phi_s for g: s -> t, entry (i, j): i < N.dims[t], j < M.dims[s]
    for s, d in enumerate(M.dims):
        if not d:
            continue
        for g in A.generators_from(s):
            t = A.basis[g].target
            mg = M.action(g)
            ng = N.action(g)
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
        for v in range(A.n_vertices):
            m = [[vec[offs[v] + i * M.dims[v] + j] for j in range(M.dims[v])]
                 for i in range(N.dims[v])]
            mats.append(Matrix(N.dims[v], M.dims[v], m, A.field))
        out.append(ModuleMap(M, N, mats))
    return out


def hom_dim(M, N):
    return len(hom_space(M, N))


class IsoCertificate:
    def __init__(self, verdict, witness=None, reason=""):
        self.verdict = verdict
        self.witness = witness
        self.reason = reason

    def __bool__(self):
        return self.verdict


def is_isomorphic(M, N):
    """Is M isomorphic to N?  A yes has an isomorphism as ``witness``, a no
    a ``reason`` naming the step that decided it.  In order:

    1. unequal dimension vectors or Hom = 0 say no, a zero module yes;
    2. an invertible Hom basis map says yes;
    3. if M or N has a simple top, End is local, so the non-isomorphisms
       form a subspace of Hom(M, N): no invertible basis map means no
       ("local-basis");
    4. over F_p with p ** dim Hom <= ``ISO_GRID_LIMIT``, the grid of
       ``is_isomorphic_exhaustive`` decides ("exhaustive");
    5. else ``ISO_TRIALS`` combinations from a fixed stream are tried.  Their
       no, "randomized-no", is the only inexact answer: a trial errs with
       probability at most 2**-64 over Q and total_dim / p over F_p.
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
    for phi in basis:
        if phi.is_isomorphism():
            return IsoCertificate(True, witness=phi)
    if _has_simple_top(M) or _has_simple_top(N):
        return IsoCertificate(False, reason="local-basis")
    p = M.field.characteristic
    if p and p ** len(basis) <= ISO_GRID_LIMIT:
        points, reason = _grid(M, len(basis))[1], "exhaustive"
    else:
        rng, spread = random.Random(0), M.total_dim * 2 ** 64
        points = ([rng.randrange(spread) for _ in basis] for _ in range(ISO_TRIALS))
        reason = "randomized-no"
    phi = _first_invertible(basis, points, M.field)
    return IsoCertificate(phi is not None, witness=phi, reason="" if phi else reason)


def is_isomorphic_exhaustive(M, N):
    """Deterministic complete test for small modules: some point of ``_grid``
    is invertible iff an isomorphism exists.  With p <= D the grid is all of
    Hom(M, N); else D + 1 values per coefficient suffice (Schwartz-Zippel)."""
    if M.dims != N.dims:
        return False
    basis = hom_space(M, N)
    size, points = _grid(M, len(basis))
    if size > ISO_GRID_LIMIT:
        raise QfabError("exhaustive isomorphism grid too large")
    return M.total_dim == 0 or _first_invertible(basis, points, M.field) is not None


def _grid(M, m):
    """(size, points) of range(min(D + 1, p)) ** m, D = M.total_dim and p the
    characteristic (unbounded over Q)."""
    p = M.field.characteristic
    side = M.total_dim + 1 if not p else min(M.total_dim + 1, p)
    return side ** m, itertools.product(range(side), repeat=m)


def _first_invertible(basis, points, field):
    """The first combination sum c_k * basis[k], over the integer coefficient
    lists ``points``, that is an isomorphism; None when there is none."""
    for coeffs in points:
        phi = _combination(((field.coerce(c), h) for c, h in zip(coeffs, basis) if c),
                           field)
        if phi is not None and phi.is_isomorphism():
            return phi
    return None


def _has_simple_top(M):
    """Is M/rad(M) one-dimensional?  Then M is local, and so is End(M)."""
    return len(_top(M)) == 1


def endo_structure(M):
    """Endomorphism basis plus structure constants (composition)."""
    basis = hom_space(M, M)
    n = len(basis)
    span = Span(sum(d * d for d in M.dims), M.field)
    for h in basis:
        span.add(h.as_vector())
    table = {}
    for i in range(n):
        for j in range(n):
            x = span.add(basis[i].compose(basis[j]).as_vector())
            if x is None:
                raise QfabError("composition left the endomorphism space")
            table[(i, j)] = x
    return basis, table


def endo_radical_dim(M):
    """dim of rad End(M), the kernel of the trace form of End(M)'s regular
    representation (exact in characteristic zero only).

    dim End(M) minus this is dim End(M)/rad, which is 1 exactly when End(M)
    is local with the ground field as its residue field.  That is what
    ``is_indecomposable`` decides: over a field that is not algebraically
    closed an indecomposable M can have a larger division ring as
    End(M)/rad."""
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
    """Is End(M)/rad End(M) the ground field?  True implies M is
    indecomposable (End(M) is local).  False means M is zero, decomposable,
    or indecomposable with End(M)/rad a larger division ring: over Q, the
    Kronecker module Q^2 with a = 1 and b a rotation by 90 degrees has
    End(M) = Q(i) and gets False, like a decomposable module.  The name is
    kept; over an algebraically closed field the two properties agree."""
    if M.total_dim == 0:
        return False
    return len(hom_space(M, M)) - endo_radical_dim(M) == 1


# ---------------------------------------------------------------------------
# standard module front-end and the truncated projectives
# ---------------------------------------------------------------------------


def standard_module(A, kind, vertex_id):
    """The simple, projective or injective module at a vertex; an unknown
    kind or vertex is an ``InputError``."""
    make = {"simple": simple_module, "proj": projective_module,
            "projective": projective_module, "inj": injective_module,
            "injective": injective_module}.get(kind)
    if make is None:
        raise InputError(f"unknown module kind {kind!r}: expected "
                         f"simple|proj|inj:<vertex>")
    if vertex_id not in A.vertex_pos:
        raise InputError(f"unknown vertex {vertex_id!r}")
    return make(A, vertex_id)


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
        for g in A.generators_from(v):
            t = A.basis[g].target
            img = N.action(g).apply(vec)
            if any(img) and subs[t].insert(img):
                work.append((t, img))
    return _sub_representation(N, [(sub.rows, sub.pivots) for sub in subs])


def truncated_projectives(A):
    """(v, j, P_v modulo the submodule its paths of length j generate) for
    every vertex v and every j >= 1 with such paths, by j, then by v:
    non-projective modules with a simple top, the simples first."""
    frees = [(v, *free_module(A, [v])) for v in A.vertices]
    out = []
    for j in range(1, max((b.length for b in A.basis), default=0) + 1):
        for v, P, pos in frees:
            seeds = []
            for i, (w, k) in pos[0].items():
                if A.basis[i].length == j:
                    unit = [A.field.zero] * P.dims[w]
                    unit[k] = A.field.one
                    seeds.append((w, unit))
            if seeds:
                _, inc = submodule_generated_by(P, seeds)
                out.append((v, j, cokernel(inc)[0]))
    return out
