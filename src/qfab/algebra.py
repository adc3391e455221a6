"""Finite-dimensional bound quiver algebras as exact structure constants.

An algebra is stored as a path-graded basis plus a multiplication strategy.
``build_algebra`` closes the relation ideal by linear saturation inside a
length-bounded path space; for length-homogeneous presentations this runs
degree by degree in quotient coordinates (never materialising the full path
space), for mixed-length relations a direct saturation over an enumerated
path space is used.  Both produce the same canonical object: basis = the
normal-form paths under the length-then-lex order, structure constants = the
reduction of concatenation modulo the closed ideal.  Arrow k of the
presentation is ``generators[k]``, the one record of which element it is.

Derived algebras (opposite, corner eAe, quotient A/<e>) share the same class;
their multiplication is delegated to the parent algebra.  An
``IdempotentReduction`` record, one per (algebra, vertex set), is the single
owner of the corner and quotient index maps; each child links back to it
through ``reduction``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import QQ
from .linalg import Subspace, from_columns, solve
from .quiver import Quiver, Arrow, PathWord, Relation, Presentation
from .errors import NotAdmissible, QfabError


@dataclass(frozen=True)
class BasisElt:
    """One basis element: a normal-form path (word in application order)."""

    word: tuple
    source: int
    target: int
    length: int


class FDAlgebra:
    """A finite-dimensional basic algebra with designated vertex idempotents.

    ``basis[i]`` records endpoints and the representative path; ``mult(i, j)``
    returns the expansion of ``basis[i] . basis[j]`` ("apply j first") as a
    sparse ``{index: coeff}`` dict.  ``generators`` is a list of basis indices
    whose classes form a basis of rad/rad^2; every longer basis element
    factors through them via ``factor``, which is what makes module actions
    well-defined from generator matrices alone.
    """

    def __init__(self, field, vertex_ids, basis, idempotent_index, mult_fn, *,
                 presentation=None, name="", max_len=None):
        self.field = field
        self.vertices = list(vertex_ids)
        self.vertex_pos = {v: i for i, v in enumerate(self.vertices)}
        self.basis = list(basis)
        self.idempotent_index = list(idempotent_index)
        self._mult_fn = mult_fn
        self._mult_cache = {}
        self.presentation = presentation
        self._generators = None
        self._generators_from = None
        self._factor = {}
        self.name = name
        self.max_len = max_len
        self.dim = len(self.basis)
        self._by_source = [[] for _ in self.vertices]
        self._by_target = [[] for _ in self.vertices]
        for i, b in enumerate(self.basis):
            self._by_source[b.source].append(i)
            self._by_target[b.target].append(i)
        self._opposite = None
        self._reductions = {}
        self.reduction = None   # the IdempotentReduction that made this algebra

    # -- basic views ------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    def by_source(self, vpos):
        return self._by_source[vpos]

    def by_target(self, vpos):
        return self._by_target[vpos]

    @property
    def radical_indices(self):
        return [i for i, b in enumerate(self.basis) if b.length >= 1]

    def is_zero(self):
        return self.dim == 0

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return f"FDAlgebra({self.n_vertices} vertices, dim {self.dim}{nm})"

    # -- multiplication ---------------------------------------------------

    def mult(self, i, j):
        """basis[i] * basis[j] (apply j first) as a sparse dict."""
        bi, bj = self.basis[i], self.basis[j]
        if bj.target != bi.source:
            return {}
        if bi.length == 0:
            return {j: self.field.one}
        if bj.length == 0:
            return {i: self.field.one}
        key = (i, j)
        got = self._mult_cache.get(key)
        if got is None:
            got = self._mult_fn(i, j)
            self._mult_cache[key] = got
        return got

    def mult_vec(self, vec_a, vec_b):
        """Product of two sparse basis-coordinate vectors (a after b)."""
        out = {}
        zero = self.field.zero
        for i, ca in vec_a.items():
            for j, cb in vec_b.items():
                c = ca * cb
                if not c:
                    continue
                for k, ck in self.mult(i, j).items():
                    s = out.get(k, zero) + c * ck
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    # -- generators and factorization --------------------------------------

    @property
    def generators(self):
        if self._generators is None:
            self._compute_generator_data()
        return self._generators

    def generators_from(self, vpos):
        """The generators with source vertex position vpos, in ``generators``
        order; the index is built once, at the first call."""
        if self._generators_from is None:
            out = [[] for _ in self.vertices]
            for g in self.generators:
                out[self.basis[g].source].append(g)
            # tuples: every caller shares the index, so it is immutable
            self._generators_from = [tuple(gs) for gs in out]
        return self._generators_from[vpos]

    def factor(self, idx):
        """Terms (coeff, g, u) with basis[idx] = sum coeff * (g . u), where g
        is a generator and u a strictly shorter basis element.  None when idx
        is a generator or an idempotent."""
        if self._generators is None:
            self._compute_generator_data()
        return self._factor.get(idx)

    def _compute_generator_data(self):
        zero, one = self.field.zero, self.field.one
        by_len_block = {}
        for i, b in enumerate(self.basis):
            if b.length >= 1:
                by_len_block.setdefault((b.length, b.source, b.target), []).append(i)
        gens = []
        factor = {}
        for (m, s, t) in sorted(by_len_block):
            idxs = by_len_block[(m, s, t)]
            block_pos = {b: k for k, b in enumerate(idxs)}
            cols, keys = [], []

            def add_col(g, u):
                prod = self.mult(g, u)
                col = [zero] * len(idxs)
                for k, c in prod.items():
                    if k not in block_pos:
                        raise QfabError("algebra is not length-graded; "
                                        "generator factorization unsupported")
                    col[block_pos[k]] = c
                cols.append(col)
                keys.append((g, u))

            for g in gens:
                bg = self.basis[g]
                if bg.target != t or bg.length >= m:
                    continue
                need = m - bg.length
                for u in self.by_source(s):
                    bu = self.basis[u]
                    if bu.length == need and bu.target == bg.source:
                        add_col(g, u)
            for b in idxs:
                unit = [zero] * len(idxs)
                unit[block_pos[b]] = one
                x = solve(from_columns(cols, len(idxs), self.field), unit) if cols else None
                if x is None:
                    gens.append(b)
                    # later block members may factor through b directly
                    add_col(b, self.idempotent_index[s])
                else:
                    factor[b] = [
                        (c, keys[k][0], keys[k][1])
                        for k, c in enumerate(x) if c
                    ]
        self._generators = gens
        self._factor.update(factor)

    # -- derived algebras ---------------------------------------------------

    def opposite(self):
        if self._opposite is None:
            op = _make_opposite(self)
            self._opposite = op
            op._opposite = self
        return self._opposite

    def idempotent_reduction(self, vertex_ids):
        """The IdempotentReduction for e = the sum of the listed vertex
        idempotents, one per vertex set for the life of this algebra."""
        key = frozenset(vertex_ids)
        if key not in self._reductions:
            self._reductions[key] = IdempotentReduction(self, key)
        return self._reductions[key]

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Exhaustive structural check: unit laws, grading, associativity on
        all basis triples, radical nilpotency.  Cubic in dim; for tests."""
        one = self.field.one
        for v, idx in enumerate(self.idempotent_index):
            b = self.basis[idx]
            assert b.length == 0 and b.source == v and b.target == v
            assert self.mult(idx, idx) == {idx: one}
        for i, bi in enumerate(self.basis):
            assert self.mult(self.idempotent_index[bi.target], i) == {i: one}
            assert self.mult(i, self.idempotent_index[bi.source]) == {i: one}
        for i, bi in enumerate(self.basis):
            for j, bj in enumerate(self.basis):
                p = self.mult(i, j)
                if bj.target != bi.source:
                    assert p == {}
                for k in p:
                    bk = self.basis[k]
                    assert bk.source == bj.source and bk.target == bi.target
        for i in range(self.dim):
            for j in range(self.dim):
                pij = self.mult(i, j)
                for k in range(self.dim):
                    left = {}
                    for x, c in pij.items():
                        for y, d in self.mult(x, k).items():
                            left[y] = left.get(y, self.field.zero) + c * d
                    right = {}
                    for x, c in self.mult(j, k).items():
                        for y, d in self.mult(i, x).items():
                            right[y] = right.get(y, self.field.zero) + c * d
                    left = {y: c for y, c in left.items() if c}
                    right = {y: c for y, c in right.items() if c}
                    assert left == right, f"associativity fails at ({i},{j},{k})"
        rad = [{i: one} for i in self.radical_indices]
        power = rad
        for _ in range(self.dim + 1):
            if not power:
                return True
            nxt = []
            seen = Subspace(self.dim, self.field)
            for v in power:
                for r in rad:
                    p = self.mult_vec(r, v)
                    if p and seen.insert(_dense(p, self.dim, self.field.zero)):
                        nxt.append(p)
            power = nxt
        raise AssertionError("radical is not nilpotent")


def _dense(vec, n, zero):
    d = [zero] * n
    for i, c in vec.items():
        d[i] = c
    return d


# ---------------------------------------------------------------------------
# construction from a presentation
# ---------------------------------------------------------------------------


def build_algebra(pres: Presentation, field=QQ):
    """Close the relation ideal and return the quotient algebra.

    Homogeneous presentations use the degree-by-degree engine; mixed-length
    relations fall back to saturation over an enumerated path space.
    """
    _validate_presentation(pres)
    if pres.is_homogeneous():
        return _build_graded(pres, field)
    return build_algebra_blunt(pres, field)


def _validate_presentation(pres):
    for rel in pres.relations:
        for _, p in rel.terms:
            if p.quiver is not pres.quiver:
                raise QfabError("relation path belongs to a different quiver")


def _build_graded(pres, field):
    Q = pres.quiver
    nv = Q.n_vertices
    arrows = Q.arrows
    bound = pres.default_length_bound()
    one, zero = field.one, field.zero

    rel_by_len = {}
    for rel in pres.relations:
        rel_by_len.setdefault(rel.max_length, []).append(rel)

    words, sources, targets = [], [], []
    deg_index = {}
    word_lut = {}

    def add_elt(word, s, t, deg):
        idx = len(words)
        words.append(word)
        sources.append(s)
        targets.append(t)
        deg_index.setdefault(deg, []).append(idx)
        if word:
            word_lut[word] = idx
        return idx

    idempotent_index = [add_elt((), v, v, 0) for v in range(nv)]
    arrow_elt = [add_elt((a_pos,), Q.vertex_index[a.source],
                         Q.vertex_index[a.target], 1)
                 for a_pos, a in enumerate(arrows)]

    # left_mult[a][u] = expansion of (a . u); entries exist for every valid
    # pairing with u below the top finished degree
    left_mult = [{} for _ in arrows]
    for a_pos, a in enumerate(arrows):
        left_mult[a_pos][idempotent_index[Q.vertex_index[a.source]]] = {arrow_elt[a_pos]: one}

    # rho[b][u] = expansion of (u . b) for u in finished degrees
    rho = [{} for _ in arrows]
    for b_pos, b in enumerate(arrows):
        rho[b_pos][idempotent_index[Q.vertex_index[b.target]]] = {arrow_elt[b_pos]: one}

    def apply_left(a_pos, vec):
        lm = left_mult[a_pos]
        nxt = {}
        for u, c in vec.items():
            for w, d in lm.get(u, {}).items():
                s = nxt.get(w, zero) + c * d
                if s:
                    nxt[w] = s
                else:
                    nxt.pop(w, None)
        return nxt

    def path_class(word, src_vertex):
        if not word:
            return {idempotent_index[src_vertex]: one}
        vec = {arrow_elt[word[0]]: one}
        for a_pos in word[1:]:
            vec = apply_left(a_pos, vec)
            if not vec:
                break
        return vec

    max_rel_len = max(rel_by_len, default=0)
    carried = []
    effective_len = None
    if not arrows:
        effective_len = 1
    m = 2
    while effective_len is None and m <= bound:
        prev = deg_index.get(m - 1, [])
        coords = []
        for a_pos, a in enumerate(arrows):
            asrc = Q.vertex_index[a.source]
            atgt = Q.vertex_index[a.target]
            for u in prev:
                if targets[u] == asrc:
                    coords.append((a_pos, u, sources[u], atgt))
        blocks = {}
        for a_pos, u, s, t in coords:
            blocks.setdefault((s, t), []).append((a_pos, u))
        coord_pos = {}
        for key in blocks:
            blocks[key].sort(key=lambda au: words[au[1]] + (au[0],), reverse=True)
            for k, au in enumerate(blocks[key]):
                coord_pos[au] = (key, k)

        images = {key: [] for key in blocks}
        for rel in rel_by_len.get(m, []):
            vec = {}
            for coeff, pw in rel.terms:
                w = pw.arrows
                pre = path_class(w[:-1], Q.vertex_index[pw.source])
                cf = field.coerce(coeff)
                for u, c in pre.items():
                    kkey = (w[-1], u)
                    s = vec.get(kkey, zero) + cf * c
                    if s:
                        vec[kkey] = s
                    else:
                        vec.pop(kkey, None)
            if vec:
                key = coord_pos[next(iter(vec))][0]
                images[key].append(vec)
        for row in carried:
            for b_pos in range(len(arrows)):
                vec = {}
                for (a_pos, u), c in row.items():
                    for w, d in rho[b_pos].get(u, {}).items():
                        kkey = (a_pos, w)
                        s = vec.get(kkey, zero) + c * d
                        if s:
                            vec[kkey] = s
                        else:
                            vec.pop(kkey, None)
                if vec:
                    key = coord_pos[next(iter(vec))][0]
                    images[key].append(vec)

        carried = []
        new_elts = []
        stage_quota = {}
        for key in sorted(blocks):
            cc = blocks[key]
            npos = len(cc)
            sub = Subspace(npos, field)
            for vec in images[key]:
                dense = [zero] * npos
                for au, c in vec.items():
                    dense[coord_pos[au][1]] = c
                sub.insert(dense)
            for r in sub.rows:
                carried.append({cc[k]: c for k, c in enumerate(r) if c})
            pivset = set(sub.pivots)
            nonpiv = [k for k in range(npos) if k not in pivset]
            local_id = {}
            for k in nonpiv:
                a_pos, u = cc[k]
                local_id[k] = len(new_elts)
                new_elts.append((words[u] + (a_pos,), key[0], key[1]))
            for k in range(npos):
                if k in local_id:
                    stage_quota[cc[k]] = {local_id[k]: one}
                else:
                    stage_quota[cc[k]] = {}
            for r, p in zip(sub.rows, sub.pivots):
                tail = {local_id[k]: -r[k] for k in nonpiv if r[k]}
                stage_quota[cc[p]] = tail

        # canonical order within the degree: ascending by word
        order = sorted(range(len(new_elts)), key=lambda i: new_elts[i][0])
        renum = {old: new for new, old in enumerate(order)}
        base = len(words)
        for old in order:
            word, s, t = new_elts[old]
            add_elt(word, s, t, m)
        for (a_pos, u), vec in stage_quota.items():
            left_mult[a_pos][u] = {base + renum[lid]: c for lid, c in vec.items()}
        for b_pos in range(len(arrows)):
            rb = rho[b_pos]
            for u in prev:
                w = words[u]
                a_pos = w[-1]
                u2 = (word_lut[w[:-1]] if len(w) > 1
                      else idempotent_index[sources[u]])
                acc = {}
                for x, c in rb.get(u2, {}).items():
                    for y, d in left_mult[a_pos].get(x, {}).items():
                        s = acc.get(y, zero) + c * d
                        if s:
                            acc[y] = s
                        else:
                            acc.pop(y, None)
                if acc:
                    rb[u] = acc
        if not new_elts and m >= max_rel_len:
            effective_len = m
        m += 1
    if effective_len is None:
        raise NotAdmissible(
            f"no length L <= {bound} kills all paths; presentation not "
            f"admissible within the bound (raise Presentation.length_bound)")

    basis = [BasisElt(words[i], sources[i], targets[i], len(words[i]))
             for i in range(len(words))]

    def mult_fn(i, j):
        vec = {j: one}
        for a_pos in basis[i].word:
            vec = apply_left(a_pos, vec)
            if not vec:
                break
        return vec

    alg = FDAlgebra(field, [v.id for v in Q.vertices], basis, idempotent_index,
                    mult_fn, presentation=pres, name=pres.name,
                    max_len=effective_len)
    alg._generators = arrow_elt
    factor = {}
    for i, b in enumerate(basis):
        if b.length >= 2:
            factor[i] = [(one, arrow_elt[b.word[-1]], word_lut[b.word[:-1]])]
    alg._factor = factor
    return alg


# The most paths build_algebra_blunt enumerates before it gives up.
BLUNT_MAX_PATHS = 250_000


def build_algebra_blunt(pres: Presentation, field=QQ):
    """Direct ideal saturation over an enumerated path space.

    Reference engine: correct for homogeneous presentations, and for
    mixed-length ones whenever the bound comfortably exceeds the ideal's
    effective degree.  ``BLUNT_MAX_PATHS`` caps exponential path growth.
    """
    _validate_presentation(pres)
    Q = pres.quiver
    nv = Q.n_vertices
    bound = pres.default_length_bound()
    one, zero = field.one, field.zero

    paths = []
    index = {}

    def add_path(word, s, t):
        idx = len(paths)
        paths.append((word, s, t))
        index[(word, s)] = idx
        if idx > BLUNT_MAX_PATHS:
            raise NotAdmissible(
                f"path enumeration exceeded {BLUNT_MAX_PATHS}; use a "
                f"homogeneous presentation or raise the cap")
        return idx

    for v in range(nv):
        add_path((), v, v)
    frontier = list(range(nv))
    arrows_from = {}
    for a_pos, a in enumerate(Q.arrows):
        arrows_from.setdefault(Q.vertex_index[a.source], []).append(a_pos)
    for _ in range(bound):
        nxt = []
        for pidx in frontier:
            word, s, t = paths[pidx]
            for a_pos in arrows_from.get(t, []):
                widx = add_path(word + (a_pos,), s,
                                Q.vertex_index[Q.arrows[a_pos].target])
                nxt.append(widx)
        frontier = nxt

    block_order = {}
    block_pos = {}
    for i, (word, s, t) in enumerate(paths):
        block_order.setdefault((s, t), []).append(i)
    for key, idxs in block_order.items():
        idxs.sort(key=lambda i: (len(paths[i][0]), paths[i][0]), reverse=True)
        for k, i in enumerate(idxs):
            block_pos[i] = k
    spans = {key: Subspace(len(idxs), field) for key, idxs in block_order.items()}

    def to_dense(vec):
        i0 = next(iter(vec))
        key = (paths[i0][1], paths[i0][2])
        dense = [zero] * len(block_order[key])
        for i, c in vec.items():
            dense[block_pos[i]] = c
        return key, dense

    worklist = []
    for rel in pres.relations:
        vec = {}
        for coeff, pw in rel.terms:
            i = index[(pw.arrows, Q.vertex_index[pw.source])]
            vec[i] = vec.get(i, zero) + field.coerce(coeff)
        vec = {i: c for i, c in vec.items() if c}
        if vec:
            key, dense = to_dense(vec)
            spans[key].insert(dense)
            worklist.append(vec)

    while worklist:
        vec = worklist.pop()
        for a_pos, a in enumerate(Q.arrows):
            asrc = Q.vertex_index[a.source]
            atgt = Q.vertex_index[a.target]
            lv, rv = {}, {}
            l_ok = r_ok = True
            for i, c in vec.items():
                word, s, t = paths[i]
                if t == asrc:
                    if len(word) >= bound:
                        l_ok = False
                    else:
                        j = index[(word + (a_pos,), s)]
                        lv[j] = lv.get(j, zero) + c
                else:
                    l_ok = False
                if s == atgt:
                    if len(word) >= bound:
                        r_ok = False
                    else:
                        j = index[((a_pos,) + word, asrc)]
                        rv[j] = rv.get(j, zero) + c
                else:
                    r_ok = False
            for ok, nv_ in ((l_ok, lv), (r_ok, rv)):
                if not ok or not nv_:
                    continue
                nv_ = {i: c for i, c in nv_.items() if c}
                if not nv_:
                    continue
                key, dense = to_dense(nv_)
                if spans[key].insert(dense):
                    worklist.append(nv_)

    def all_length_in_span(L):
        for i, (word, s, t) in enumerate(paths):
            if len(word) == L:
                unit = [zero] * len(block_order[(s, t)])
                unit[block_pos[i]] = one
                if not spans[(s, t)].contains(unit):
                    return False
        return True

    eff = None
    for L in range(1, bound + 1):
        if all_length_in_span(L):
            eff = L
            break
    if eff is None:
        raise NotAdmissible(f"no length L <= {bound} with all length-L paths in the ideal")
    if eff == 1 and Q.n_arrows:
        raise NotAdmissible("an arrow is congruent to zero modulo the ideal")

    pivot_paths = set()
    for key, sub in spans.items():
        for p in sub.pivots:
            pivot_paths.add(block_order[key][p])
    basis_paths = [i for i, (word, s, t) in enumerate(paths)
                   if len(word) < eff and i not in pivot_paths]
    basis_paths.sort(key=lambda i: (len(paths[i][0]), paths[i][0], paths[i][1]))
    new_index = {i: k for k, i in enumerate(basis_paths)}

    def reduce_path(word, s):
        i = index.get((word, s))
        if i is None or len(word) >= eff:
            return {}
        key = (s, paths[i][2])
        unit = [zero] * len(block_order[key])
        unit[block_pos[i]] = one
        res = spans[key].reduce(unit)
        out = {}
        for k, c in enumerate(res):
            if c:
                pi = block_order[key][k]
                assert len(paths[pi][0]) < eff
                out[new_index[pi]] = c
        return out

    basis = [BasisElt(paths[i][0], paths[i][1], paths[i][2], len(paths[i][0]))
             for i in basis_paths]
    idempotent_index = [new_index[index[((), v)]] for v in range(nv)]
    arrow_elt = [new_index[index[((a_pos,), Q.vertex_index[a.source])]]
                 for a_pos, a in enumerate(Q.arrows)]

    def mult_fn(i, j):
        return reduce_path(basis[j].word + basis[i].word, basis[j].source)

    alg = FDAlgebra(field, [v.id for v in Q.vertices], basis, idempotent_index,
                    mult_fn, presentation=pres, name=pres.name, max_len=eff)
    alg._generators = arrow_elt
    factor = {}
    for k, b in enumerate(basis):
        if b.length >= 2:
            pre = reduce_path(b.word[:-1], b.source)
            factor[k] = [(c, arrow_elt[b.word[-1]], u) for u, c in pre.items()]
    alg._factor = factor
    return alg


# ---------------------------------------------------------------------------
# derived algebras
# ---------------------------------------------------------------------------


def _make_opposite(A):
    basis = [BasisElt(b.word, b.target, b.source, b.length) for b in A.basis]

    def mult_fn(i, j):
        return A.mult(j, i)

    return FDAlgebra(A.field, list(A.vertices), basis, list(A.idempotent_index),
                     mult_fn, name=f"{A.name}^op" if A.name else "",
                     max_len=A.max_len)


def corner(A, vertex_ids):
    """The corner algebra eAe, e the sum of the listed vertex idempotents."""
    return A.idempotent_reduction(vertex_ids).corner


def quotient_by_idempotent_ideal(A, vertex_ids):
    """A / <e> for e the sum of the listed vertex idempotents."""
    return A.idempotent_reduction(vertex_ids).quotient


class IdempotentReduction:
    """The corner eAe and the quotient A/AeA of ``parent``, e the sum of the
    idempotents at ``vertices`` (in the parent's vertex order).

    Each child is built on first use and links back here through its
    ``reduction`` attribute.  ``keep[role]`` (role "corner" or "quotient")
    lists the parent basis indices of that child's basis, and ``reduce``
    maps a sparse vector over the parent's basis to its class in A/<e>.
    """

    def __init__(self, parent, vertex_ids):
        unknown = set(vertex_ids) - set(parent.vertices)
        if unknown:
            raise QfabError(f"unknown vertices {sorted(unknown)}")
        self.parent = parent
        self.vertices = tuple(v for v in parent.vertices if v in vertex_ids)
        self.keep = {}
        self._corner = self._quotient = None

    @property
    def corner(self):
        """eAe: the parent's basis elements with both endpoints in the
        vertex set; multiplication is inherited."""
        if self._corner is None:
            if not self.vertices:
                raise QfabError("corner needs a nonempty vertex set")
            A = self.parent
            pos = {A.vertex_pos[v] for v in self.vertices}
            keep = [i for i, b in enumerate(A.basis)
                    if b.source in pos and b.target in pos]
            reindex = {i: k for k, i in enumerate(keep)}

            def mult_fn(i, j):
                return {reindex[k]: c for k, c in A.mult(keep[i], keep[j]).items()}

            self._corner = self._child("corner", list(self.vertices), keep,
                                       mult_fn, f"corner({A.name})")
        return self._corner

    @property
    def quotient(self):
        """A/<e>.  AeA is spanned by all products x . e_v . y of basis
        elements, so its echelon span is computed per (source, target) block
        and the quotient basis is the set of non-pivot basis elements (the
        normal-form paths avoiding the killed vertices, for every algebra in
        this package's scope)."""
        if self._quotient is None:
            A = self.parent
            kill_pos = {A.vertex_pos[v] for v in self.vertices}
            self._blocks = {}
            for i, b in enumerate(A.basis):
                self._blocks.setdefault((b.source, b.target), []).append(i)
            self._block_pos = {}
            for idxs in self._blocks.values():
                idxs.sort(key=lambda i: (A.basis[i].length, A.basis[i].word),
                          reverse=True)
                for k, i in enumerate(idxs):
                    self._block_pos[i] = k
            self._spans = {key: Subspace(len(idxs), A.field)
                           for key, idxs in self._blocks.items()}
            for vpos in sorted(kill_pos):
                for y in A.by_target(vpos):
                    for x in A.by_source(vpos):
                        prod = A.mult(x, y)
                        if prod:
                            key = (A.basis[y].source, A.basis[x].target)
                            self._spans[key].insert(self._dense(key, prod))
            pivot = {self._blocks[key][p] for key, sub in self._spans.items()
                     for p in sub.pivots}
            keep_pos = [p for p in range(A.n_vertices) if p not in kill_pos
                        and A.idempotent_index[p] not in pivot]
            keep = [i for i, b in enumerate(A.basis) if i not in pivot
                    and b.source in keep_pos and b.target in keep_pos]
            self._reindex = {i: k for k, i in enumerate(keep)}

            def mult_fn(i, j):
                return self.reduce(A.mult(keep[i], keep[j]))

            self._quotient = self._child(
                "quotient", [A.vertices[p] for p in keep_pos], keep, mult_fn,
                f"{A.name}/<e>")
        return self._quotient

    def reduce(self, vec):
        """The class in A/<e> of a sparse vector over the parent's basis, as
        a sparse vector over the quotient's basis (once the quotient is
        built)."""
        grouped = {}
        for k, c in vec.items():
            b = self.parent.basis[k]
            grouped.setdefault((b.source, b.target), {})[k] = c
        out = {}
        for key, part in grouped.items():
            reduced = self._spans[key].reduce(self._dense(key, part))
            for i, c in zip(self._blocks[key], reduced):
                if c and i in self._reindex:
                    out[self._reindex[i]] = c
        return out

    def _dense(self, key, vec):
        dense = [self.parent.field.zero] * len(self._blocks[key])
        for k, c in vec.items():
            dense[self._block_pos[k]] = c
        return dense

    def _child(self, role, vertices, keep, mult_fn, name):
        A = self.parent
        new_vpos = {A.vertex_pos[v]: k for k, v in enumerate(vertices)}
        basis = [BasisElt(A.basis[i].word, new_vpos[A.basis[i].source],
                          new_vpos[A.basis[i].target], A.basis[i].length) for i in keep]
        idem = [keep.index(A.idempotent_index[A.vertex_pos[v]]) for v in vertices]
        child = FDAlgebra(A.field, vertices, basis, idem, mult_fn,
                          name=name if A.name else "", max_len=A.max_len)
        child.reduction = self
        self.keep[role] = keep
        return child


# ---------------------------------------------------------------------------
# Gabriel presentation extraction
# ---------------------------------------------------------------------------


class ExtractedPresentation:
    """Result of quiver_of: a presentation plus the lift back to the algebra."""

    def __init__(self, presentation, arrow_lift, algebra):
        self.presentation = presentation
        self.arrow_lift = arrow_lift   # arrow id -> sparse vector over algebra basis
        self.algebra = algebra


def quiver_of(A):
    """Gabriel quiver with relations of a basic algebra.

    Arrows are the algebra's canonical generators (a complement of rad^2 in
    rad chosen in basis order); relations are a generating set of the kernel
    of the induced surjection from the path algebra, found degree by degree.
    build_algebra(quiver_of(A).presentation) is isomorphic to A.
    """
    gens = A.generators
    vertex_ids = list(A.vertices)
    arrows = []
    for k, g in enumerate(gens):
        b = A.basis[g]
        arrows.append(Arrow(f"x{k}", vertex_ids[b.source], vertex_ids[b.target]))
    Q = Quiver(vertex_ids, arrows)
    one = A.field.one
    relations = _extract_relations(
        Q, [(A.basis[g].source, A.basis[g].target, {g: one}) for g in gens],
        A.mult_vec, A.dim, A.field)
    pres = Presentation(Q, relations,
                        name=f"quiver_of({A.name})" if A.name else "")
    arrow_lift = {f"x{k}": {g: one} for k, g in enumerate(gens)}
    return ExtractedPresentation(pres, arrow_lift, A)


def _extract_relations(Q, gens, mult_vec, dim, field):
    """Relations among the arrows of Q, found degree by degree.

    Arrow k runs ``gens[k][0] -> gens[k][1]`` and evaluates to the sparse
    vector ``gens[k][2]``; ``mult_vec(a, b)`` multiplies two sparse vectors
    of a ``dim``-dimensional algebra (a after b).  Each block of paths of one
    degree is split into products chosen in word order, spanning the block's
    image, and one relation per other path, solved against the chosen ones.
    """
    zero, one = field.zero, field.one
    elems = [((k,), s, t, vec) for k, (s, t, vec) in enumerate(gens)]
    relations = []
    prev = list(range(len(elems)))
    degree = 2
    while prev and degree <= dim + 2:
        blocks = {}
        for k, (gs, gt, _) in enumerate(gens):
            for e in prev:
                if elems[e][2] == gs:
                    blocks.setdefault((elems[e][1], gt), []).append((k, e))
        new = []
        for key in sorted(blocks):
            cc = sorted(blocks[key], key=lambda ke: elems[ke[1]][0] + (ke[0],))
            sub = Subspace(dim, field)
            chosen = []
            for k, e in cc:
                val = mult_vec(gens[k][2], elems[e][3])
                dense = _dense(val, dim, zero)
                if sub.insert(dense):
                    chosen.append(((k, e), val))
                else:
                    mat = from_columns([_dense(v, dim, zero) for _, v in chosen],
                                       dim, field)
                    x = solve(mat, dense) if chosen else []
                    terms = [(one, PathWord(Q, elems[e][0] + (k,)))]
                    for pos, c in enumerate(x):
                        if c:
                            (k2, e2), _ = chosen[pos]
                            terms.append((-c, PathWord(Q, elems[e2][0] + (k2,))))
                    relations.append(Relation(terms))
            for (k, e), val in chosen:
                new.append(len(elems))
                elems.append((elems[e][0] + (k,), key[0], key[1], val))
        prev = new
        degree += 1
    return relations


def check_presentation_isomorphism(pres, B, vertex_map, arrow_images):
    """Does mapping pres's arrows to the given B-elements define an
    isomorphism build_algebra(pres) ~ B?

    ``vertex_map``: pres vertex id -> B vertex id.  ``arrow_images``: arrow
    id -> sparse vector over B's basis.  Checks gradings, relation vanishing
    and bijectivity (dimension count plus surjectivity of the induced map).
    """
    return _is_isomorphism(pres, build_algebra(pres, B.field), B, vertex_map,
                           arrow_images)


def _is_isomorphism(pres, Apres, B, vertex_map, arrow_images):
    """check_presentation_isomorphism with Apres = build_algebra(pres) given."""
    Q = pres.quiver
    one, zero = B.field.one, B.field.zero
    for a in Q.arrows:
        sa = B.vertex_pos[vertex_map[a.source]]
        ta = B.vertex_pos[vertex_map[a.target]]
        for i in arrow_images[a.id]:
            b = B.basis[i]
            if b.source != sa or b.target != ta:
                return False

    def eval_word(word, src_id):
        if not word:
            return {B.idempotent_index[B.vertex_pos[vertex_map[src_id]]]: one}
        vec = dict(arrow_images[Q.arrows[word[0]].id])
        for a_pos in word[1:]:
            vec = B.mult_vec(arrow_images[Q.arrows[a_pos].id], vec)
        return vec

    for rel in pres.relations:
        acc = {}
        for coeff, pw in rel.terms:
            cf = B.field.coerce(coeff)
            for i, c in eval_word(pw.arrows, pw.source).items():
                s = acc.get(i, zero) + cf * c
                if s:
                    acc[i] = s
                else:
                    acc.pop(i, None)
        if acc:
            return False

    if Apres.dim != B.dim:
        return False
    sub = Subspace(B.dim, B.field)
    count = 0
    for v in Q.vertices:
        if sub.insert(_dense(eval_word((), v.id), B.dim, zero)):
            count += 1
    for b in Apres.basis:
        if b.length >= 1:
            vec = eval_word(b.word, Apres.vertices[b.source])
            if sub.insert(_dense(vec, B.dim, zero)):
                count += 1
    return count == B.dim


def generator_lifts(pres, B, vertex_map):
    """Arrow id of pres -> {g: 1}, g the one generator of B in the arrow's
    block under ``vertex_map`` (pres vertex id -> B vertex id); None when a
    block has no generator or more than one."""
    gens_by_block = {}
    for g in B.generators:
        b = B.basis[g]
        gens_by_block.setdefault((b.source, b.target), []).append(g)
    lifts = {}
    for a in pres.quiver.arrows:
        key = (B.vertex_pos[vertex_map[a.source]], B.vertex_pos[vertex_map[a.target]])
        cands = gens_by_block.get(key, [])
        if len(cands) != 1:
            return None
        lifts[a.id] = {cands[0]: B.field.one}
    return lifts
