"""Finite-dimensional modules over an FDAlgebra, given as validated
representations: one space per vertex, one matrix per algebra generator
between two non-zero spaces.

The action of an arbitrary basis element is derived through the algebra's
factorization table, so module data stays small while every exactness
computation (kernels, images, homs) remains exact linear algebra.

Modules are small and live on a few vertices, so most blocks have a zero
side.  Such a block is never computed: ``Representation.action`` returns the
shared ``Matrix.zero`` for it, and ``FreeModule``, ``cokernel``,
``direct_sum`` and ``dual_module`` build nothing for it.  ``radical_spaces``
reads only ``gen_mats``, and ``socle``, ``submodule_generated_by``,
``hom_space``, ``restrict_to_corner`` and ``inflate_from_quotient`` read
only the generators leaving a non-zero vertex, through
``FDAlgebra.generators_from``.  A module costs its support:
``Representation.gen_mats`` holds exactly the generators whose source and
target spaces are both non-zero.  The constructor checks the shape of every
matrix it is given, drops those with a zero side, and fills in a shared
zero for a supported generator left out.  ``_supported_generators`` lists
those generators, through ``FDAlgebra.generators_from`` at the non-zero
vertices.

A submodule is handed to ``_sub_representation`` (``_submodule`` adds its
inclusion) as an echelon basis per vertex with its unit coordinates: the
pivots of a ``Subspace`` (``image``, ``radical_submodule``,
``submodule_generated_by``) or the free columns of a kernel basis
(``kernel``, ``socle``).  The basis matrix is the identity at those rows,
so the coordinates of a vector of the span are its entries there:
submodules read their generator matrices off the images and never solve a
linear system.  A quotient is handed to ``_quotient`` as one ``Subspace``
per vertex, and lives on the coordinates off its pivots.

Both routines take the images of their vectors from the ambient's ``act``.
A ``Representation`` multiplies by its generator matrices.  A free module
+ Ae_v is one object, ``FreeModule``: its coordinates (``pos`` and their
inverse ``at``) and an ``act`` that reads A's product table,
g . (s, i) = sum_j mult(g, i)[j] (s, j), sparsely.  Its generator matrices
are built only when ``gen_mats`` is read, so a free module that is only an
intermediate (a syzygy's cover term, Hom(P, A) in a presentation) never
builds them.
"""

from __future__ import annotations

import itertools

from .linalg import (Matrix, _kernel, from_columns, kernel_basis, rank,
                     Subspace, unit_vectors)
from .errors import (AlgebraMismatch, QfabError, DimensionMismatch, InputError,
                     NotQuotientModule)

# The largest grid of Hom coefficients that is_isomorphic walks where the
# trace form does not decide (F_p, p <= dim M + dim N), or that
# is_isomorphic_exhaustive walks.
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

    def act(self, g, cols):
        """Generator g applied to the vectors ``cols`` at its source: their
        images, as lists."""
        m = self.action(g)
        return [m.apply(c) for c in cols]

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


class FreeModule(Representation):
    """The free module + Ae_v over the listed vertices.

    ``pos[s][i] = (w, k)`` puts basis element i of A (source ``vertex_ids[s]``)
    of summand s at coordinate k of the vertex-w space, and
    ``at[w][k] = (s, i)`` inverts it.  Coordinates run by vertex w, then
    summand s, then ``A.by_source`` order, the block order of
    ``direct_sum``.  A vertex may be listed more than once.

    A map of free modules is fixed by its generator images (Green, Solberg
    and Zacharia, Trans. AMS 353, 2001), so ``act`` reads
    g . (s, i) = sum_j mult(g, i)[j] (s, j) off A's product table, touching
    only the non-zero entries.  The generator matrices are built from the
    same table when ``gen_mats`` is first read, and never when only ``act``
    and the coordinates are."""

    def __init__(self, A, vertex_ids):
        self.algebra = A
        dims = [0] * A.n_vertices
        self.pos, self.at = [], [[] for _ in dims]
        for s, v in enumerate(vertex_ids):
            slots = {}
            for i in A.by_source(A.vertex_pos[v]):
                w = A.basis[i].target
                slots[i] = (w, dims[w])
                self.at[w].append((s, i))
                dims[w] += 1
            self.pos.append(slots)
        self.dims = tuple(dims)
        self._gen_mats = None
        self._action = {}
        self._top = None

    @property
    def gen_mats(self):
        """The generator matrices, built from A's product table when first
        read."""
        if self._gen_mats is None:
            A, dims = self.algebra, self.dims
            zero = A.field.zero
            leaving = [[] for _ in dims]  # supported generators by source vertex
            rows = {}
            for g, v, t in _supported_generators(A, dims):
                leaving[v].append(g)
                rows[g] = [[zero] * dims[v] for _ in range(dims[t])]
            for slots in self.pos:
                for i, (w, k) in slots.items():
                    for g in leaving[w]:
                        m = rows[g]
                        for j, c in A.mult(g, i).items():
                            m[slots[j][1]][k] = c
            self._gen_mats = {g: Matrix(len(m), dims[A.basis[g].source], m, A.field)
                              for g, m in rows.items()}
        return self._gen_mats

    def act(self, g, cols):
        """Generator g applied to the vectors ``cols`` at its source: their
        images, as lists.  Only the coordinates g does not kill are read."""
        A = self.algebra
        b = A.basis[g]
        live = []  # (k, [(coordinate of g . (s, i), coefficient)]) where g . (s, i) != 0
        for k, (s, i) in enumerate(self.at[b.source]):
            prod = A.mult(g, i)
            if prod:
                slots = self.pos[s]
                live.append((k, [(slots[j][1], c) for j, c in prod.items()]))
        zero, n = A.field.zero, self.dims[b.target]
        out = []
        for col in cols:
            y = [zero] * n
            for k, terms in live:
                x = col[k]
                if x:
                    for kk, c in terms:
                        y[kk] = y[kk] + c * x
            out.append(y)
        return out


def projective_module(A, vertex_id):
    """Ae_v: basis = algebra basis elements with source v."""
    return FreeModule(A, [vertex_id])


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
    return FreeModule(A, A.vertices)


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
    generator matrix is read off the images ``N.act(g, vectors)``, and one
    product checks that the span is action-stable.  That product equals the
    images at the unit rows by construction, so only the other rows are
    computed and compared.  Returns the submodule alone.
    """
    A = N.algebra
    F = A.field
    dims = [len(cols) for cols, _ in bases]
    off_units = {}  # by target vertex: the rows off the units, and the basis there
    gen_mats = {}
    for v, d in enumerate(dims):
        if not d:
            continue  # empty blocks: Representation leaves them out
        for g in A.generators_from(v):
            t = A.basis[g].target
            img = N.act(g, bases[v][0])
            basis, units = bases[t]
            x = Matrix(dims[t], d, [[y[p] for y in img] for p in units], F)
            off = off_units.get(t)
            if off is None:
                unit_set = set(units)
                rows = [p for p in range(N.dims[t]) if p not in unit_set]
                off = off_units[t] = rows, Matrix(len(rows), dims[t],
                                                  [[y[p] for y in basis] for p in rows], F)
            rows, basis_off = off
            if rows and (basis_off * x).data != tuple([tuple([y[p] for y in img])
                                                       for p in rows]):
                raise QfabError("subspace is not action-stable")
            gen_mats[g] = x
    return Representation(A, dims, gen_mats)


def _submodule(N, bases):
    """``_sub_representation`` of N on ``bases`` with its inclusion into N."""
    S = _sub_representation(N, bases)
    return S, ModuleMap(S, N, [from_columns(cols, N.dims[v], N.field)
                               for v, (cols, _) in enumerate(bases)])


def kernel(f: ModuleMap):
    """Kernel with its inclusion."""
    return _submodule(f.source, [_kernel(m) for m in f.mats])


def _column_span(m):
    """The column span of m as a ``Subspace``."""
    sub = Subspace(m.rows, m.field)
    for col in m.columns():
        sub.insert(col)
    return sub


def image(f: ModuleMap):
    """Image as a submodule of the target, with its inclusion."""
    return _submodule(f.target, [(sub.rows, sub.pivots)
                                 for sub in map(_column_span, f.mats)])


def _quotient(N, subs):
    """N modulo an action-stable subspace, ``subs[v]`` a ``Subspace`` of N_v.

    The quotient lives on the coordinates of N_v off the pivots of
    ``subs[v]``, its ``complements``: a class is the residue of
    ``subs[v].reduce`` there.  A generator's matrix reads the images of
    those unit vectors, ``N.act``, and reduces them at the target.  Returns
    (module, complements).
    """
    A = N.algebra
    F = A.field
    complements = []
    for v, sub in enumerate(subs):
        pivset = set(sub.pivots)
        complements.append([k for k in range(N.dims[v]) if k not in pivset])
    dims = [len(c) for c in complements]
    units = {}  # by source vertex: the unit vectors at the complement
    gen_mats = {}
    for g, v, t in _supported_generators(A, dims):
        u = units.get(v)
        if u is None:
            us = unit_vectors(N.dims[v], F)
            u = units[v] = [us[k] for k in complements[v]]
        cols = [[res[k] for k in complements[t]]
                for res in map(subs[t].reduce, N.act(g, u))]
        gen_mats[g] = from_columns(cols, dims[t], F)
    return Representation(A, dims, gen_mats), complements


def cokernel(f: ModuleMap):
    """Cokernel with the projection from the target."""
    N = f.target
    F = N.field
    subs = [_column_span(m) for m in f.mats]
    C, complements = _quotient(N, subs)
    proj_mats = []
    for v, sub in enumerate(subs):
        cols = [[res[k] for k in complements[v]]
                for res in map(sub.reduce, unit_vectors(N.dims[v], F))]
        proj_mats.append(from_columns(cols, C.dims[v], F))
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
    return _submodule(M, [(sub.rows, sub.pivots) for sub in radical_spaces(M)])


def top(M):
    """M/rad(M) with the projection."""
    _, inc = radical_submodule(M)
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
    return _submodule(M, bases)


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
    3. if M or N has a simple top, it is local, and so is End, so the non-isomorphisms
       form a subspace of Hom(M, N): no invertible basis map means no
       ("local-basis");
    4. the sum of the basis maps, if invertible, says yes;
    5. over Q, or F_p with p > dim M + dim N, the trace form decides
       ("trace-rank"): with c = ``_trace_rank`` of Hom(M, N) with Hom(N, M),
       s(M + N) = s(M) + s(N) + 2c (``_end_top_dim``), so by Krull-Schmidt
       M ~ N iff 2c = s(M) + s(N), and c = 0 says no.  A yes takes its
       witness from ``_pencil`` or else the grid range(D + 1) ** dim Hom,
       D = dim M, which holds one by Schwartz-Zippel;
    6. over a smaller F_p, the grid of ``is_isomorphic_exhaustive`` decides
       ("exhaustive") up to ``ISO_GRID_LIMIT`` points; above that an
       invertible ``_pencil`` says yes, and otherwise the no is "undecided",
       the one answer that proves nothing.
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
    if len(_top(M)) == 1 or len(_top(N)) == 1:
        return IsoCertificate(False, reason="local-basis")
    phi = sum(basis[1:], basis[0])
    if phi.is_isomorphism():
        return IsoCertificate(True, witness=phi)
    p, D = M.field.characteristic, M.total_dim
    size, points = _grid(M, len(basis))
    if not p or p > 2 * D:
        c = _trace_rank(basis, hom_space(N, M))
        if not c or 2 * c != _end_top_dim(M) + _end_top_dim(N):
            return IsoCertificate(False, reason="trace-rank")
        phi = _pencil(basis, D)
        if not phi.is_isomorphism():
            phi = _first_invertible(basis, points, M.field)
        if phi is None:
            raise QfabError("the trace form says isomorphic, the grid holds no isomorphism")
        return IsoCertificate(True, witness=phi)
    if size > ISO_GRID_LIMIT:
        phi = _pencil(basis, D)
        if phi.is_isomorphism():
            return IsoCertificate(True, witness=phi)
        return IsoCertificate(False, reason="undecided")
    phi = _first_invertible(basis, points, M.field)
    return IsoCertificate(phi is not None, witness=phi, reason="" if phi else "exhaustive")


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


def _pencil(basis, D):
    """x = h_1 + c_2 h_2 + c_3 h_3 + ..., each c_k the first of 1, ..., D + 1
    giving the partial sum the highest rank, which the rank of x + t h keeps
    for all but at most D values of t.  The sum can still miss an isomorphism."""
    x, F = basis[0], basis[0].source.field
    for h in basis[1:]:
        x = max((x + h.scale(F.coerce(c)) for c in range(1, D + 2)), key=ModuleMap.rank)
    return x


def _trace_rank(xs, ys):
    """The rank of (x, y) -> tr(x o y) on maps xs: M -> N and ys: N -> M.
    tr(x o y) sums x_v[i][j] * y_v[j][i] over the vertices v and entries,
    so the Gram matrix is the flat xs times the flat transposed ys."""
    if not xs or not ys:
        return 0
    F, flat = xs[0].source.field, [x.as_vector() for x in xs]
    n = len(flat[0])
    cols = [[m.data[j][i] for m in y.mats for i in range(m.cols) for j in range(m.rows)]
            for y in ys]
    return rank(Matrix(len(xs), n, flat, F) * from_columns(cols, n, F))


def _end_top_dim(M):
    """s(M) = dim End(M)/rad: the rank of End(M)'s trace form, whose kernel
    is the radical in characteristic 0 or above dim M (Dickson's criterion;
    Cohen, Ivanyos and Wales, JPAA 117, 1997)."""
    E = hom_space(M, M)
    return _trace_rank(E, E)


def is_indecomposable(M):
    """Is End(M)/rad End(M) the ground field (``_end_top_dim`` is 1)?  True
    implies M is indecomposable (End(M) is local).  False means M is zero, decomposable,
    or indecomposable with End(M)/rad a larger division ring: over Q, the
    Kronecker module Q^2 with a = 1 and b a rotation by 90 degrees has
    End(M) = Q(i) and gets False, like a decomposable module.  The name is
    kept; over an algebraically closed field the two properties agree.
    Precondition: characteristic 0 or above dim M, else ``QfabError``."""
    if M.total_dim == 0:
        return False
    p = M.field.characteristic
    if p and p <= M.total_dim:
        raise QfabError(f"indecomposability by the trace form needs characteristic "
                        f"0 or above dim M = {M.total_dim}, not {p}")
    return _end_top_dim(M) == 1


# ---------------------------------------------------------------------------
# standard module front-end and the truncated projectives
# ---------------------------------------------------------------------------


def standard_module(A, kind, vertex_id):
    """The simple, projective or injective module at a vertex; an unknown
    kind or vertex is an ``InputError``."""
    make = {"simple": simple_module, "proj": projective_module,
            "inj": injective_module}.get(kind)
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
            img, = N.act(g, [vec])
            if any(img) and subs[t].insert(img):
                work.append((t, img))
    return _submodule(N, [(sub.rows, sub.pivots) for sub in subs])


def truncated_projectives(A):
    """(v, j, P_v modulo the submodule its paths of length j generate) for
    every vertex v and every j >= 1 with such paths, by j, then by v:
    non-projective modules with a simple top, the simples first."""
    frees = [(v, FreeModule(A, [v])) for v in A.vertices]
    out = []
    for j in range(1, max((b.length for b in A.basis), default=0) + 1):
        for v, P in frees:
            seeds = []
            for i, (w, k) in P.pos[0].items():
                if A.basis[i].length == j:
                    unit = [A.field.zero] * P.dims[w]
                    unit[k] = A.field.one
                    seeds.append((w, unit))
            if seeds:
                _, inc = submodule_generated_by(P, seeds)
                out.append((v, j, cokernel(inc)[0]))
    return out
