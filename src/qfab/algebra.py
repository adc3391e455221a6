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

The degree-by-degree engine keeps one product table, a . u: its coordinate
(u, b) is "arrow b, then u", so ideal rows are carried to the next degree by
left multiplication (``_build_graded`` says why the output is the same).

``_EchelonIdeal`` is the one normal-form routine modulo an ideal: an echelon
span per (source, target) block, whose non-pivot keys are the normal forms.
Both builders, the quotient A/<e> and ``endo``'s arrow choice reduce
through it.

Derived algebras (opposite, corner eAe, quotient A/<e>) share the same class;
their multiplication is delegated to the parent algebra.  An
``IdempotentReduction`` record, one per (algebra, vertex set), is the single
owner of the corner and quotient index maps; each child links back to it
through ``reduction``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import QQ
from .linalg import Span, Subspace
from .quiver import Quiver, Arrow, PathWord, Relation, Presentation
from .errors import InputError, NotAdmissible, QfabError


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
        self._steps = {}   # homology's resolution steps, by module content
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
        return _sparse_product(vec_a, vec_b, self.mult)

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
        gens_to = [[] for _ in self.vertices]   # the generators by target
        factor = {}
        for (m, s, t) in sorted(by_len_block):
            idxs = by_len_block[(m, s, t)]
            row_of = {b: k for k, b in enumerate(idxs)}
            # the products g . u that are independent of the earlier ones
            span, keys = Span(len(idxs), self.field), []

            def add_col(g, u):
                prod = self.mult(g, u)
                col = [zero] * len(idxs)
                for k, c in prod.items():
                    if k not in row_of:
                        raise QfabError("algebra is not length-graded; "
                                        "generator factorization unsupported")
                    col[row_of[k]] = c
                if span.add(col) is None:
                    keys.append((g, u))

            # g . u with u in block (m - len g, s, source g), in the order of
            # a scan over every generator and every element at s
            for g in gens_to[t]:
                bg = self.basis[g]
                if bg.length < m:
                    for u in by_len_block.get((m - bg.length, s, bg.source), ()):
                        add_col(g, u)
            for b in idxs:
                unit = [zero] * len(idxs)
                unit[row_of[b]] = one
                x = span.add(unit)
                if x is None:
                    gens.append(b)
                    gens_to[t].append(b)
                    # later block members may factor through b directly
                    keys.append((b, self.idempotent_index[s]))
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
                    left = self.mult_vec(pij, {k: one})
                    right = self.mult_vec({i: one}, self.mult(j, k))
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


def _add_scaled(out, c, vec):
    """out += c * vec for sparse vectors, dropping the entries that cancel."""
    for k, x in vec.items():
        s = out[k] + c * x if k in out else c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def _sparse_product(vec_a, vec_b, mult):
    """The product of two sparse vectors (a after b), ``mult(i, j)`` being
    the sparse product of coordinates i and j."""
    out = {}
    for i, ca in vec_a.items():
        for j, cb in vec_b.items():
            c = ca * cb
            if c:
                _add_scaled(out, c, mult(i, j))
    return out


class _EchelonIdeal:
    """A subspace of a path space in reduced echelon form, one ``Subspace``
    per (source, target) block: the one normal form modulo an ideal.

    ``keys`` are the coordinates, ``block(key)`` names a key's block and
    ``order(key)`` ranks it.  Within a block the keys run in descending
    order, so the pivots are the leading paths and ``reduce`` leaves only
    non-pivot keys.  Vectors are sparse ``{key: coeff}`` dicts without zero
    entries; one given to ``insert`` lies in a single block.
    """

    def __init__(self, keys, block, order, field):
        self.field = field
        groups = {}
        for k in sorted(keys, key=order, reverse=True):
            groups.setdefault(block(k), []).append(k)
        # block -> its keys in descending order, blocks sorted
        self._keys = {b: groups[b] for b in sorted(groups)}
        self._pos = {k: (b, p) for b, ks in self._keys.items()
                     for p, k in enumerate(ks)}
        # block -> its span, made at the block's first insert: most blocks
        # of a large algebra hold one path and never receive a vector
        self._subspaces = {}

    def _dense(self, b, vec):
        dense = [self.field.zero] * len(self._keys[b])
        pos = self._pos
        for k, c in vec.items():
            dense[pos[k][1]] = c
        return dense

    def insert(self, vec):
        """Add a vector; True when it enlarged the span."""
        if not vec:
            return False
        b = self._pos[next(iter(vec))][0]
        sub = self._subspaces.get(b)
        if sub is None:
            sub = self._subspaces[b] = Subspace(len(self._keys[b]), self.field)
        return sub.insert(self._dense(b, vec))

    def reduce(self, vec):
        """The normal form of vec: its residue, over non-pivot keys."""
        parts = {}
        for k, c in vec.items():
            parts.setdefault(self._pos[k][0], {})[k] = c
        out = {}
        for b, part in parts.items():
            sub = self._subspaces.get(b)
            if sub is None:     # no pivots in this block
                out.update(part)
                continue
            res = sub.reduce(self._dense(b, part))
            out.update((k, c) for k, c in zip(self._keys[b], res) if c)
        return out

    def pivots(self):
        """The set of pivot keys: the leading paths of the ideal."""
        return {self._keys[b][p] for b, sub in self._subspaces.items()
                for p in sub.pivots}

    def rows(self):
        """The echelon basis as sparse vectors, block by block."""
        return [{k: c for k, c in zip(self._keys[b], r) if c}
                for b in self._keys if b in self._subspaces
                for r in self._subspaces[b].rows]


# ---------------------------------------------------------------------------
# construction from a presentation
# ---------------------------------------------------------------------------


def build_algebra(pres: Presentation, field=QQ):
    """Close the relation ideal and return the quotient algebra.

    Homogeneous presentations use the degree-by-degree engine; mixed-length
    relations fall back to saturation over an enumerated path space.
    """
    _validate_presentation(pres, field)
    if pres.is_homogeneous():
        return _build_graded(pres, field)
    return build_algebra_blunt(pres, field)


def _validate_presentation(pres, field):
    """Every relation path lies in pres's quiver and every coefficient is
    defined over field (1/5 is not in F_5)."""
    for k, rel in enumerate(pres.relations, start=1):
        for coeff, p in rel.terms:
            if p.quiver is not pres.quiver:
                raise QfabError("relation path belongs to a different quiver")
            try:
                field.coerce(coeff)
            except ZeroDivisionError:
                raise InputError(f"relation {k} ({rel!r}): coefficient {coeff} "
                                 f"is not defined over {field.name}") from None


def _build_graded(pres, field):
    """The degree-by-degree closure.

    Degree m is spanned by the coordinates (u, b): arrow b, then a
    degree-(m-1) basis element u that starts at b's target.  An ideal
    element r of degree m-1 gives r . b = 0 there already, so the ideal of
    degree m is spanned by the relations of length m and by a . r for each
    arrow a and each carried row r, where a . (x, b) = (a . x, b).  The one
    product table, ``left_mult``, gives both, and ``split[u] = (x, b)``, the
    coordinate u was made from, gives a . u = (a . x, b), reduced.  The
    output is the blunt engine's: every standard word of degree m is a
    coordinate, since subwords of standard words are standard (Green 1999),
    so the pivots and normal forms are those of the whole path space.
    """
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

    arrow_source = [Q.vertex_index[a.source] for a in arrows]
    arrow_target = [Q.vertex_index[a.target] for a in arrows]
    idempotent_index = [add_elt((), v, v, 0) for v in range(nv)]
    arrow_elt = [add_elt((a_pos,), arrow_source[a_pos], arrow_target[a_pos], 1)
                 for a_pos in range(len(arrows))]
    arrows_from = [[] for _ in range(nv)]
    for a_pos, s in enumerate(arrow_source):
        arrows_from[s].append(a_pos)

    # left_mult[a][u] = expansion of (a . u); entries exist for every valid
    # pairing with u below the top finished degree
    left_mult = [{idempotent_index[s]: {arrow_elt[a_pos]: one}}
                 for a_pos, s in enumerate(arrow_source)]
    # split[u] = (x, b): the coordinate u = x . b was made from
    split = {arrow_elt[b]: (idempotent_index[t], b)
             for b, t in enumerate(arrow_target)}

    # the sums run inline: a call per (mostly empty) product costs more
    def walk(word, vec):
        """word[-1] . ... . word[0] . vec, a sparse vector over the basis."""
        for a_pos in word:
            lm = left_mult[a_pos]
            nxt = {}
            for u, c in vec.items():
                for w, d in lm.get(u, {}).items():
                    s = nxt.get(w, zero) + c * d
                    if s:
                        nxt[w] = s
                    else:
                        nxt.pop(w, None)
            vec = nxt
            if not vec:
                break
        return vec

    def coord_word(ub):
        return (ub[1],) + words[ub[0]]

    carried = []
    effective_len = None
    if not arrows:
        effective_len = 1
    m = 2
    while effective_len is None and m <= bound:
        prev = deg_index.get(m - 1, [])
        # a product is zero unless its factors' endpoints meet, so the loops
        # below pair each arrow only with the degree-(m-1) elements at its
        # vertex: most arrow x element pairs of a large quiver miss
        prev_from, prev_to = [[] for _ in range(nv)], [[] for _ in range(nv)]
        for u in prev:
            prev_from[sources[u]].append(u)
            prev_to[targets[u]].append(u)
        # coordinate (u, b) of degree m is the path b followed by u
        coords = [(u, b) for b in range(len(arrows))
                  for u in prev_from[arrow_target[b]]]
        ideal = _EchelonIdeal(coords,
                              lambda ub: (arrow_source[ub[1]], targets[ub[0]]),
                              coord_word, field)
        for rel in rel_by_len.get(m, []):
            vec = {}
            for coeff, pw in rel.terms:
                b = pw.arrows[0]
                rest = walk(pw.arrows[1:], {idempotent_index[arrow_target[b]]: one})
                _add_scaled(vec, field.coerce(coeff),
                            {(u, b): c for u, c in rest.items()})
            ideal.insert(vec)
        for row in carried:
            # a row lies in one block; a . x needs a to start at its target
            for a_pos in arrows_from[targets[next(iter(row))[0]]]:
                lm = left_mult[a_pos]
                vec = {}
                for (x, b), c in row.items():
                    for y, d in lm.get(x, {}).items():
                        s = vec.get((y, b), zero) + c * d
                        if s:
                            vec[(y, b)] = s
                        else:
                            vec.pop((y, b), None)
                ideal.insert(vec)
        carried = ideal.rows()

        # the new basis: the non-pivot coordinates, ascending by word
        pivots = ideal.pivots()
        new_elt = {}
        for ub in sorted((ub for ub in coords if ub not in pivots), key=coord_word):
            new_elt[ub] = add_elt(coord_word(ub), arrow_source[ub[1]],
                                  targets[ub[0]], m)
            split[new_elt[ub]] = ub
        # a . u = (a . x, b) for u = x . b, reduced
        for a_pos in range(len(arrows)):
            lm = left_mult[a_pos]
            for u in prev_to[arrow_source[a_pos]]:
                x, b = split[u]
                vec = {(y, b): d for y, d in lm.get(x, {}).items()}
                lm[u] = {new_elt[ub]: c for ub, c in ideal.reduce(vec).items()}
        if not new_elt:
            effective_len = m
        m += 1
    if effective_len is None:
        raise NotAdmissible(
            f"no length L <= {bound} kills all paths; presentation not "
            f"admissible within the bound (raise Presentation.length_bound)")

    basis = [BasisElt(words[i], sources[i], targets[i], len(words[i]))
             for i in range(len(words))]

    def mult_fn(i, j):
        return walk(basis[i].word, {j: one})

    alg = FDAlgebra(field, Q.vertices, basis, idempotent_index,
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
    _validate_presentation(pres, field)
    Q = pres.quiver
    nv = Q.n_vertices
    bound = pres.default_length_bound()
    one = field.one

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

    ideal = _EchelonIdeal(range(len(paths)),
                          lambda i: (paths[i][1], paths[i][2]),
                          lambda i: (len(paths[i][0]), paths[i][0]), field)
    worklist = []
    for rel in pres.relations:
        vec = {}
        for coeff, pw in rel.terms:
            _add_scaled(vec, field.coerce(coeff),
                        {index[(pw.arrows, Q.vertex_index[pw.source])]: one})
        if vec:
            ideal.insert(vec)
            worklist.append(vec)

    while worklist:
        vec = worklist.pop()
        if any(len(paths[i][0]) >= bound for i in vec):
            continue
        _, s, t = paths[next(iter(vec))]
        for a_pos, a in enumerate(Q.arrows):
            asrc, atgt = Q.vertex_index[a.source], Q.vertex_index[a.target]
            # a path and an arrow compose to a distinct path, so the
            # images need no sums
            images = []
            if t == asrc:
                images.append({index[(paths[i][0] + (a_pos,), s)]: c
                               for i, c in vec.items()})
            if s == atgt:
                images.append({index[((a_pos,) + paths[i][0], asrc)]: c
                               for i, c in vec.items()})
            worklist.extend(v for v in images if ideal.insert(v))

    eff = next((L for L in range(1, bound + 1)
                if all(not ideal.reduce({i: one})
                       for i, (word, _, _) in enumerate(paths)
                       if len(word) == L)), None)
    if eff is None:
        raise NotAdmissible(f"no length L <= {bound} with all length-L paths in the ideal")
    if eff == 1 and Q.n_arrows:
        raise NotAdmissible("an arrow is congruent to zero modulo the ideal")

    pivots = ideal.pivots()
    basis_paths = [i for i, (word, s, t) in enumerate(paths)
                   if len(word) < eff and i not in pivots]
    basis_paths.sort(key=lambda i: (len(paths[i][0]), paths[i][0], paths[i][1]))
    new_index = {i: k for k, i in enumerate(basis_paths)}

    def reduce_path(word, s):
        i = index.get((word, s))
        if i is None or len(word) >= eff:
            return {}
        return {new_index[k]: c for k, c in ideal.reduce({i: one}).items()}

    basis = [BasisElt(paths[i][0], paths[i][1], paths[i][2], len(paths[i][0]))
             for i in basis_paths]
    idempotent_index = [new_index[index[((), v)]] for v in range(nv)]
    arrow_elt = [new_index[index[((a_pos,), Q.vertex_index[a.source])]]
                 for a_pos, a in enumerate(Q.arrows)]

    def mult_fn(i, j):
        return reduce_path(basis[j].word + basis[i].word, basis[j].source)

    alg = FDAlgebra(field, Q.vertices, basis, idempotent_index,
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
        """A/<e>.  AeA is spanned by the products x . e_v . y of basis
        elements, v killed, kept as an ``_EchelonIdeal``; the quotient basis
        is the set of its non-pivot basis elements between kept vertices (the
        normal-form paths avoiding the killed vertices, for every algebra in
        this package's scope).

        Only the kept-kept blocks are closed.  A basis element b from s to t
        with s or t killed is b . e_s or e_t . b, so it lies in AeA, and the
        whole block (s, t) does.  Each product lies in one block, so leaving
        out the products x . e_v . y whose source (y's) or target (x's) is
        killed changes no kept-kept block: the pivots there, ``keep``, the
        vertices and the structure constants are those of the whole ideal,
        and ``reduce`` drops every other block."""
        if self._quotient is None:
            A = self.parent
            kill_pos = {A.vertex_pos[v] for v in self.vertices}
            self._ideal = _EchelonIdeal(
                range(A.dim), lambda i: (A.basis[i].source, A.basis[i].target),
                lambda i: (A.basis[i].length, A.basis[i].word), A.field)
            for vpos in sorted(kill_pos):
                ys = [y for y in A.by_target(vpos)
                      if A.basis[y].source not in kill_pos]
                xs = [x for x in A.by_source(vpos)
                      if A.basis[x].target not in kill_pos]
                for y in ys:
                    for x in xs:
                        self._ideal.insert(A.mult(x, y))
            pivot = self._ideal.pivots()
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
        return {self._reindex[i]: c for i, c in self._ideal.reduce(vec).items()
                if i in self._reindex}

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
    image, and one relation per other path, in coordinates over the chosen ones.
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
            span = Span(dim, field)
            chosen = []
            for k, e in cc:
                val = mult_vec(gens[k][2], elems[e][3])
                x = span.add(_dense(val, dim, zero))
                if x is None:
                    chosen.append(((k, e), val))
                else:
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
            _add_scaled(acc, B.field.coerce(coeff), eval_word(pw.arrows, pw.source))
        if acc:
            return False

    if Apres.dim != B.dim:
        return False
    sub = Subspace(B.dim, B.field)
    count = 0
    for v in Q.vertices:
        if sub.insert(_dense(eval_word((), v), B.dim, zero)):
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
