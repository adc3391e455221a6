"""Endomorphism algebras of module direct sums, presented as bound quiver
algebras.

For pairwise non-isomorphic indecomposable summands M_1, ..., M_t the
opposite endomorphism algebra of their sum is basic with one vertex per
summand; Hom(M_j, M_i) realises the path block i -> j.  The algebra is
rebuilt from its Gabriel presentation (arrows = a complement of the radical
square, relations = kernels of the evaluation, degree by degree) so the
result carries the same path-graded structure as every other algebra here.
"""

from __future__ import annotations

from .errors import QfabError, SummandsNotDistinct, SummandDecomposable
from .linalg import Span, Subspace
from .quiver import Quiver, Arrow, Presentation
from .algebra import (build_algebra, _EchelonIdeal, _extract_relations,
                      _sparse_product)
from . import modules as md


class EndoData:
    """Extraction result: the algebra, its presentation, and hom lifts."""

    def __init__(self, algebra, presentation, summands, arrow_maps, idempotent_of_summand):
        self.algebra = algebra
        self.presentation = presentation
        self.summands = summands
        self.arrow_maps = arrow_maps            # arrow id -> ModuleMap
        self.idempotent_of_summand = idempotent_of_summand  # index -> vertex id

    def basis_map(self, basis_idx):
        """The endomorphism realising a basis element of the algebra."""
        b = self.algebra.basis[basis_idx]
        if b.length == 0:
            s = self.algebra.vertices[b.source]
            i = [k for k, v in self.idempotent_of_summand.items() if v == s][0]
            return md.ModuleMap.identity(self.summands[i])
        arrows = self.presentation.quiver.arrows
        f = self.arrow_maps[arrows[b.word[0]].id]
        for a_pos in b.word[1:]:
            g = self.arrow_maps[arrows[a_pos].id]
            # path extension a . p composes on the module side as p o a
            f = f.compose(g)
        return f


def endomorphism_algebra(summands):
    """End(M_1 + ... + M_t)^op as a bound quiver algebra.

    Precondition: the summands are pairwise non-isomorphic, and each has
    End(M_i)/rad equal to the ground field (``md.is_indecomposable``), so
    that each gives one vertex.  Raises SummandsNotDistinct when two are
    isomorphic and SummandDecomposable when a summand's End/rad is not the
    ground field: it is decomposable, or indecomposable with a larger
    division ring there.  The characteristic must be 0 or above the
    dimension of each summand (the precondition of ``md.is_indecomposable``);
    below that this raises ``QfabError`` naming the bound.
    """
    if not summands:
        raise QfabError("no summands")
    A = summands[0].algebra
    for M in summands:
        if M.algebra is not A:
            raise QfabError("summands over different algebras")
    t = len(summands)
    for i in range(t):
        if not md.is_indecomposable(summands[i]):
            raise SummandDecomposable(
                f"summand {i}: End/rad is not the ground field (the summand is "
                f"decomposable, or its End/rad is a larger division ring)")
        for j in range(i + 1, t):
            # End(M_i) is local, so the maps M_i -> M_j that are not
            # invertible form a subspace: M_i ~ M_j iff a basis map is
            if any(h.is_isomorphism() for h in md.hom_space(summands[i], summands[j])):
                raise SummandsNotDistinct(f"summands {i} and {j} are isomorphic")

    field = A.field
    # block (s, t): algebra elements s -> t are Hom(M_t, M_s)
    hom = {}
    for s in range(t):
        for u in range(t):
            hom[(s, u)] = md.hom_space(summands[u], summands[s])

    # diagonal re-basing: identity + radical part (phi minus its scalar part)
    def scalar_part(M, phi):
        tr = field.zero
        for m in phi.mats:
            for r in range(m.rows):
                tr = tr + m.data[r][r]
        return field.div(tr, field.coerce(M.total_dim))

    raw = []      # (s, u, ModuleMap), s -> u in the algebra
    idem_idx = {}
    for v in range(t):
        idem_idx[v] = len(raw)
        raw.append((v, v, md.ModuleMap.identity(summands[v])))
    rad_indices = []
    for v in range(t):
        block = []
        for phi in hom[(v, v)]:
            lam = scalar_part(summands[v], phi)
            psi = phi + md.ModuleMap.identity(summands[v]).scale(-lam)
            if not psi.is_zero():
                block.append(psi)
        block = _echelon_maps(block, field)
        for psi in block:
            rad_indices.append(len(raw))
            raw.append((v, v, psi))
    for s in range(t):
        for u in range(t):
            if s == u:
                continue
            # element s -> u is realised by a map M_u -> M_s
            for phi in _echelon_maps(hom[(s, u)], field):
                rad_indices.append(len(raw))
                raw.append((s, u, phi))

    dim = len(raw)
    # each block's span, with the raw indices of the vectors it stored
    block_span = {}
    for i, (s, u, phi) in enumerate(raw):
        vec = phi.as_vector()
        if (s, u) not in block_span:
            block_span[(s, u)] = Span(len(vec), field), []
        span, stored = block_span[(s, u)]
        if span.add(vec) is None:
            stored.append(i)

    def mult_raw(i, j):
        """raw[i] . raw[j] (apply j first) in raw coordinates."""
        si, ui, phi_i = raw[i]
        sj, uj, phi_j = raw[j]
        if uj != si:
            return {}
        comp = phi_j.compose(phi_i)       # module side reverses
        span, stored = block_span[(sj, ui)]
        x = span.add(comp.as_vector())
        if x is None:
            raise QfabError("endomorphism composition left its block")
        return {i: c for i, c in zip(stored, x) if c}

    # radical square and arrow choice, lowest raw index first: a radical
    # element outside the span of rad^2 and of the earlier arrows is an arrow
    ideal = _EchelonIdeal(range(dim), lambda i: (raw[i][0], raw[i][1]),
                          lambda i: -i, field)
    for i in rad_indices:
        for j in rad_indices:
            ideal.insert(mult_raw(i, j))
    gen_list = [i for i in rad_indices if ideal.insert({i: field.one})]

    vertex_ids = [f"m{v}" for v in range(t)]
    arrows = []
    for k, g in enumerate(gen_list):
        s, u, _ = raw[g]
        arrows.append(Arrow(f"x{k}", vertex_ids[s], vertex_ids[u]))
    Q = Quiver(vertex_ids, arrows)

    # degree-by-degree relation extraction (evaluation into raw coordinates)
    relations = _extract_relations(
        Q, [(raw[g][0], raw[g][1], {g: field.one}) for g in gen_list],
        lambda a, b: _sparse_product(a, b, mult_raw), dim, field)

    pres = Presentation(Q, relations, name="endomorphism algebra")
    B = build_algebra(pres, field)
    if B.dim != dim:
        raise QfabError(f"extracted algebra dimension {B.dim} != hom dimension {dim}")
    arrow_maps = {f"x{k}": raw[g][2] for k, g in enumerate(gen_list)}
    idem_of = {v: vertex_ids[v] for v in range(t)}
    return EndoData(B, pres, list(summands), arrow_maps, idem_of)


def _echelon_maps(maps, field):
    """Deterministic echelon re-basing of a list of module maps."""
    if not maps:
        return []
    sub = Subspace(len(maps[0].as_vector()), field)
    out = []
    for phi in maps:
        if sub.insert(phi.as_vector()):
            out.append(phi)
    return out
