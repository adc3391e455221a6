"""Fabric and cofabric idempotents.

An idempotent f (a vertex subset F) is fabric when proj.dim of A/<f> is at
most one and a companion idempotent e exists such that the AR translation
carries projective A/<f>-modules to injective A/<e>-modules, and its inverse
carries injective A/<e>-modules back to projective A/<f>-modules.

Two detectors are provided and cross-checked: a quiver-level combinatorial
test (four arrow/through-path conditions, with the companion read off as the
vertices that are not targets of the distinguished arrows into F), and the
definitional test, which reads the greatest possible companion off the AR
translates and checks it against the definition, so that its "no" is exact
at every size (the argument is in ``check_fabric_definitional``).

No isomorphism is tested.  The fabric dimensions and the tilting pairing
ask whether a syzygy is P_v, or P_v/<f>P_v, and read the answer off its
dimension vector and top: yes exactly when the dimension vectors agree and
the top is one element at v (the argument is in ``fabric_dimension``).

Observed, not proved: on every vertex subset of every fixture the two
detectors disagree only where the combinatorial test fails its condition
(2) and the definitional one finds a companion (4 of 32 subsets of
canonical-2-211, 18 of 256 of canonical-2-221).  These 22 are exactly the
vertex sets with a companion e where T = Ae + A/<f> has proj.dim 1 and
Ext^1(T, T) = 0 but fewer summands than vertices, so T is only partial
tilting (Bongartz's count in ``special_tilting_module``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (ConditionFailed, NoCompanionFound, ProjDimTooBig,
                     QfabError, VerificationFailed,
                     InfiniteQuotientGlobalDimension, CornerProjDimUnbounded)
from .algebra import corner, quotient_by_idempotent_ideal
from . import modules as md
from . import homology as hm
from .homology import DimValue

@dataclass
class FabricReport:
    f: tuple
    e: tuple | None
    per_projective: dict = dc_field(default_factory=dict)
    fab_dim: object = None
    h: tuple | None = None
    h_level: object = None
    combinatorial: dict = dc_field(default_factory=dict)
    definitional: dict = dc_field(default_factory=dict)


def _gabriel_arrows(A):
    """(source vertex id, target vertex id, generator) per Gabriel arrow."""
    return [(A.vertices[A.basis[g].source], A.vertices[A.basis[g].target], g)
            for g in A.generators]


def companion_candidate(A, F):
    """The constructive companion: for each vertex i outside F there is at
    most one arrow from i into F (else None); e = vertices that are not a
    target of these arrows."""
    Fset = set(F)
    iprime = {}
    for (s, t, h) in _gabriel_arrows(A):
        if s not in Fset and t in Fset:
            if s in iprime:
                return None, None
            iprime[s] = (t, h)
    e = tuple(v for v in A.vertices if v not in {t for t, _ in iprime.values()})
    return e, iprime


def _some_arrow_gives(arrows, source, target, cls, path_of):
    """Is there an arrow h: source -> target with path_of(h) equal to the
    class cls?"""
    return any(s == source and t == target and path_of(h) == cls
               for (s, t, h) in arrows)


def check_fabric_combinatorial(A, F, cutoff=12):
    """Quiver-level fabric test.  Returns (e, transcript) on success.

    Precondition: proj.dim of A/<f> over A is at most 1 (ProjDimTooBig
    otherwise).  The four conditions are tested syntactically on the Gabriel
    quiver, with path congruences decided as equality of normal forms in A
    (scalar one: a proportional path is no match).
    """
    Fset = set(F)
    pd = _quotient_proj_dim(A, F, cutoff=cutoff)
    transcript = {"proj_dim_quotient": pd}
    if not pd.le(1):
        raise ProjDimTooBig(f"proj.dim_A(A/<f>) = {pd}, needs <= 1")

    arrows = _gabriel_arrows(A)
    e, iprime = companion_candidate(A, F)
    if e is None:
        raise ConditionFailed(1, "two arrows from one outside vertex into F")
    transcript["iprime"] = {i: t for i, (t, _) in iprime.items()}
    prime_targets = {t for t, _ in iprime.values()}

    # condition (2): arrows into a distinguished target come from its own
    # source vertex or from another distinguished target
    for j, (jp, _) in sorted(iprime.items()):
        for (s, t, _) in arrows:
            if t == jp and s != j and s not in prime_targets:
                raise ConditionFailed(2, f"arrow {s}->{t} into {j}' has source "
                                         f"{s} not {j} and not a distinguished target")

    # condition (3): factorization of (alpha_j . beta) through alpha_i
    for j, (jp, alpha_j) in sorted(iprime.items()):
        for (s, t, beta) in arrows:
            if t != j or s in Fset:
                continue
            i = s
            cls = A.mult(alpha_j, beta)
            if not cls:
                continue
            if i not in iprime:
                raise ConditionFailed(3, f"nonzero path {i}->{j}->{jp} but no "
                                         f"distinguished arrow at {i}")
            ip, alpha_i = iprime[i]
            if not _some_arrow_gives(arrows, ip, jp, cls,
                                     lambda delta: A.mult(delta, alpha_i)):
                raise ConditionFailed(3, f"no factorization of {i}->{j}->{jp}")

    # condition (4): paths (delta . alpha_i) between distinguished arrows
    # factor back through the quiver outside F
    for i, (ip, alpha_i) in sorted(iprime.items()):
        for j, (jp, alpha_j) in sorted(iprime.items()):
            for (s2, t2, delta) in arrows:
                if s2 != ip or t2 != jp:
                    continue
                cls = A.mult(delta, alpha_i)
                if not cls:
                    continue
                if not _some_arrow_gives(arrows, i, j, cls,
                                         lambda beta: A.mult(alpha_j, beta)):
                    raise ConditionFailed(4, f"no arrow {i}->{j} matching the "
                                             f"path {i}->{ip}->{jp}")
    transcript["e"] = e
    return e, transcript


def _quotient_proj_dim(A, F, cutoff=12):
    Abar = quotient_by_idempotent_ideal(A, F)
    Mf = md.inflate_from_quotient(md.regular_module(Abar), A)
    return hm.proj_dim(Mf, cutoff=cutoff)


def _holds_over_quotient(A, M, E, test):
    """Is M (an A-module) an A/<e>-module for which ``test`` holds?"""
    if M.total_dim == 0:
        return True
    Abar = quotient_by_idempotent_ideal(A, E)
    return (md.is_quotient_module(M, Abar)
            and test(md.restrict_from_quotient(M, Abar)))


def _companion_valid(A, F, E, taus):
    for tau in taus.values():
        if not _holds_over_quotient(A, tau, E, hm.is_injective_module):
            return False
    injs = hm._quotient_modules(A, E, md.injective_module)
    for I in injs.values():
        tinv = hm.ar_translate_inverse(I)
        if not _holds_over_quotient(A, tinv, F, hm.is_projective_module):
            return False
    return True


def check_fabric_definitional(A, F, cutoff=12):
    """Definitional fabric test: read the companion e off the AR translates
    tau_v of the projective A/<f>-modules.

    E starts as the vertices outside every supp tau_v.  While some u outside
    E and off every soc tau_v has supp I_u meeting E (I_u the indecomposable
    injective A-module at u), E loses supp I_u.  That E is then checked
    against the definition; a failure raises ``NoCompanionFound``.

    The "no" is exact.  For a valid e and u outside it, tau^- of the
    injective A/<e>-module at u is 0 or some P_v.  If P_v, that module is
    tau_v, with socle at u.  If 0, it is A-injective, so it is I_u and
    supp I_u misses e.  So every valid e lies inside E at every step, and
    the loop ends at the greatest such set.  Each tau_v stays injective over
    A/<e> as e grows inside the starting set, so that greatest set is valid
    whenever any companion is.

    When every tau_v is 0, E is the whole vertex set, the greatest of
    possibly several companions; the transcript's ``all_translates_zero``
    records that case.
    """
    pd = _quotient_proj_dim(A, F, cutoff=cutoff)
    if not pd.le(1):
        raise ProjDimTooBig(f"proj.dim_A(A/<f>) = {pd}, needs <= 1")
    projs = hm._quotient_modules(A, F, md.projective_module)
    taus = {v: hm.ar_translate(P) for v, P in projs.items()}
    support, socle = set(), set()
    for t in taus.values():
        support.update(p for p, d in enumerate(t.dims) if d)
        socle.update(p for p, d in enumerate(md.socle(t)[0].dims) if d)
    inj_supports = [{A.basis[i].source for i in A.by_target(u)}
                    for u in range(A.n_vertices)]
    E = set(range(A.n_vertices)) - support
    while hit := next((s for u, s in enumerate(inj_supports)
                       if u not in E and u not in socle and s & E), None):
        E -= hit
    e = tuple(sorted(A.vertices[p] for p in E))
    if not _companion_valid(A, F, e, taus):
        raise NoCompanionFound(f"no companion idempotent for F={sorted(F)}")
    return e, {"proj_dim_quotient": pd, "e": e, "all_translates_zero": not support}


def _top_vertex(M):
    """The vertex position of M's top when it is one element, else None."""
    top = md._top(M)
    return top[0][0] if len(top) == 1 else None


def fabric_dimension(A, F, cutoff=12):
    """Per-projective fabric dimensions and their supremum.

    For each indecomposable projective P of A/<f>: the least n >= 1 with
    P isomorphic to the n-th syzygy of an indecomposable injective A-module.
    Certified infinite when every injective's syzygy chain terminates or
    cycles without reaching P; otherwise honest ">= cutoff".

    A module S is isomorphic to P = P_v/<f>P_v exactly when S has P's
    dimension vector and a one-element top at v.  Such an S is zero on F,
    so <f> kills it; a cover P_v -> S then factors through P, and it is onto
    between spaces of one dimension.  So the syzygies are indexed by (dims,
    vertex of a one-element top), and no isomorphism is tested.
    """
    chains = [hm.minimal_resolution(md.injective_module(A, w), "projective",
                                    cutoff=cutoff) for w in A.vertices]
    least = {}   # (dims, _top_vertex) -> the least n of such a syzygy
    for res in chains:
        for n, S in enumerate(res.syzygies[1:], start=1):
            key = (S.dims, _top_vertex(S))
            least[key] = min(n, least.get(key, n))
    closed = all(res.status != "truncated" for res in chains)
    per = {}
    for v, P in hm._quotient_modules(A, F, md.projective_module).items():
        n = least.get((P.dims, A.vertex_pos[v]))
        if n is not None:
            per[v] = DimValue.finite(n)
        elif closed:
            per[v] = DimValue.infinite(note="all injective syzygy chains closed")
        else:
            per[v] = DimValue.at_least(cutoff)
    sup = DimValue.finite(0)
    for v, d in per.items():
        sup = hm.dim_max(sup, d)
    return per, sup


def analyze_fabric(A, F, cutoff=12, h=None):
    """Full fabric analysis: both detectors, companion, fabric dimensions."""
    report = FabricReport(f=tuple(sorted(F)), e=None)
    comb_e = None
    try:
        comb_e, tr = check_fabric_combinatorial(A, F, cutoff=cutoff)
        report.combinatorial = {"verdict": True, "e": tuple(sorted(comb_e)),
                                "transcript": tr}
    except (ProjDimTooBig, ConditionFailed) as exc:
        report.combinatorial = {"verdict": False, "reason": str(exc)}
    try:
        def_e, tr = check_fabric_definitional(A, F, cutoff=cutoff)
        report.definitional = {"verdict": True, "e": tuple(sorted(def_e)),
                               "transcript": tr}
        report.e = tuple(sorted(def_e))
    except (ProjDimTooBig, NoCompanionFound) as exc:
        report.definitional = {"verdict": False, "reason": str(exc)}
    if report.e is not None:
        per, sup = fabric_dimension(A, F, cutoff=cutoff)
        report.per_projective = per
        report.fab_dim = sup
        if h is not None:
            report.h = tuple(sorted(h))
            report.h_level = minimal_gen_level(A, h, cutoff=cutoff)
    return report


def cofabric_check(A, F, cutoff=12):
    """f is cofabric for A iff it is fabric for the opposite algebra."""
    return check_fabric_definitional(A.opposite(), F, cutoff=cutoff)


def cofabric_dimension(A, F, cutoff=12):
    return fabric_dimension(A.opposite(), F, cutoff=cutoff)


# ---------------------------------------------------------------------------
# special tilting module
# ---------------------------------------------------------------------------


def special_tilting_module(A, F, E, cutoff=12):
    """T = Ae + A/<f>, verified tilting by Bongartz's criterion: proj.dim
    at most 1, Ext^1(T, T) = 0 and n pairwise non-isomorphic indecomposable
    summands, n the number of vertices (Bongartz, LNM 903, 1981).  Every
    summand has a one-element top, so two coincide only as Ae_u and
    P_u/<f>P_u, exactly when <f>P_u = 0, that is, when both have the same
    dimension vector.  The transcript records the count as ``summands`` and
    the exact sequence 0 -> A -> T0 -> T1 -> 0 as ``pairing``.

    Returns (T, transcript); a failed axiom raises VerificationFailed, a
    short count "partial tilting: k of n summands".
    """
    Eset = set(E)
    projs = hm._quotient_modules(A, F, md.projective_module)
    frees = {v: md.projective_module(A, v) for v in A.vertices if v in Eset}
    summands = list(frees.values()) + list(projs.values())
    if not summands:
        raise QfabError("empty tilting candidate")
    T, _, _ = md.direct_sum(summands)
    transcript = {}

    pd = hm.proj_dim(T, cutoff=cutoff)
    transcript["proj_dim"] = pd
    if not pd.le(1):
        raise VerificationFailed(f"proj.dim(T) = {pd}")

    ext1 = hm.ext_dim(T, T, 1)
    transcript["ext1"] = ext1
    if ext1 != 0:
        raise VerificationFailed(f"Ext^1(T, T) = {ext1} != 0")

    count = len(summands) - sum(1 for v, P in frees.items()
                                if v in projs and projs[v].dims == P.dims)
    transcript["summands"] = count
    if count != A.n_vertices:
        raise VerificationFailed(f"partial tilting: {count} of {A.n_vertices} summands")

    # exact sequence 0 -> A -> T0 -> T1 -> 0 with T0 in add(Ae):
    # every non-E vertex w must pair with a quotient projective whose first
    # syzygy is P_w; its cover lives in add(Ae).  K is P_w when it has P_w's
    # dims and a one-element top at w, as P_w -> K is then an isomorphism.
    pairing = {}
    used = set()
    # one step per quotient projective: its kernel and its cover's vertices
    first = {v: hm._step(P) for v, P in projs.items()}
    for w in A.vertices:
        if w in Eset:
            continue
        dims = md.FreeModule(A, [w]).dims
        found = None
        for v in projs:
            if v in used:
                continue
            K = first[v].K
            if K.dims == dims and _top_vertex(K) == A.vertex_pos[w]:
                found = v
                break
        if found is None:
            raise VerificationFailed(f"no quotient projective pairs with P_{w}")
        pairing[w] = found
        used.add(found)
    for w, v in pairing.items():
        if any(u not in Eset for u in first[v].verts):
            raise VerificationFailed(f"middle term of the sequence for {w} "
                                     f"is not generated by e-vertices")
    transcript["pairing"] = pairing
    transcript["T0_in_add_Ae"] = True
    return T, transcript


# ---------------------------------------------------------------------------
# singular reduction
# ---------------------------------------------------------------------------


def singular_reduction(A, F, cutoff=12):
    """Corner fAf with the two finiteness certificates.

    Checks gl.dim(A/<f>) < infinity and proj.dim over fAf of fA < infinity;
    returns (corner, certificate)."""
    Abar = quotient_by_idempotent_ideal(A, F)
    g = hm.global_dimension(Abar, cutoff=cutoff)
    cert = {"quotient_gl_dim": g}
    if g.kind == "infinite":
        raise InfiniteQuotientGlobalDimension(
            f"gl.dim(A/<f>) certified infinite: {g.note}")
    if g.kind == "at_least":
        raise QfabError(f"gl.dim(A/<f>) undecided below cutoff {cutoff}")
    C = corner(A, F)
    fA = md.restrict_to_corner(md.regular_module(A), C)
    pdim = hm.proj_dim(fA, cutoff=cutoff)
    cert["corner_proj_dim_fA"] = pdim
    if pdim.kind == "infinite":
        raise CornerProjDimUnbounded("proj.dim_fAf(fA) certified infinite")
    if pdim.kind == "at_least":
        raise QfabError(f"proj.dim_fAf(fA) undecided below cutoff {cutoff}")
    cert["singular_equivalence"] = True
    return C, cert


# ---------------------------------------------------------------------------
# generator switching
# ---------------------------------------------------------------------------


def minimal_gen_level(A, H, cutoff=12):
    """The largest m with DA in gen_m(Ah), i.e. with terms 0..m of the
    minimal projective resolution of DA in add(Ah); None when term 0 is not.

    "inf" when every term is: all listed terms are, and the resolution
    terminates or repeats (the terms after a period repeat listed ones).
    A truncated resolution gives the last listed term, a lower bound."""
    res = hm.minimal_resolution(hm.dual_regular(A), "projective", cutoff=cutoff)
    Hset = set(H)
    for i, verts in enumerate(res.term_vertices):
        if any(v not in Hset for v in verts):
            return i - 1 if i else None
    if res.status == "truncated":
        return len(res.term_vertices) - 1
    return "inf"


def _named_truncated_projectives(A):
    """``md.truncated_projectives`` by name: S_v at j = 1, else P_v/len<j>."""
    return [(f"S_{v}" if j == 1 else f"P_{v}/len{j}", M)
            for v, j, M in md.truncated_projectives(A)]


def sample_gorenstein_injectives(A, gor_n, budget=20):
    """Deterministic GI sample: injectives, then n-th cosyzygies of the
    truncated projectives, simples first."""
    out = [(f"I_{v}", md.injective_module(A, v)) for v in A.vertices]
    for name, M in _named_truncated_projectives(A):
        if len(out) >= budget:
            break
        out.append((f"cosyz{gor_n}({name})", hm.cosyzygy(M, gor_n)))
    return out[:budget]


def verify_generator_switching(A, F, E, H=None, sample_budget=20, cutoff=24,
                               gor_n=None):
    """Check the two resolution-generator memberships on a GI sample.

    For every sampled Gorenstein injective M: M lies in gen_m(Ah) where m is
    the least level with DA in gen_m(Ah); and for every truncated projective
    X (simples first): its gor_n-th syzygy is in gen_inf(Af).
    """
    if gor_n is None:
        gor_n = hm.certify_gorenstein(A, cutoff=cutoff)
    H = tuple(sorted(H)) if H is not None else tuple(sorted(E))
    report = {"gor_dim": gor_n, "h": H, "samples": [], "syzygy_samples": [],
              "violations": []}
    m = minimal_gen_level(A, H, cutoff=cutoff)
    report["h_level"] = m
    if gor_n == 0:
        report["note"] = "self-injective: memberships are vacuous"
        return report
    if m is not None and m != "inf":
        for name, M in sample_gorenstein_injectives(A, gor_n, sample_budget):
            ok = hm.is_gorenstein_injective(M, gor_n)
            if M.total_dim == 0:
                report["samples"].append((name, True, "zero"))
                continue
            rep = hm.gen_membership(M, H, m, cutoff=cutoff)
            report["samples"].append((name, rep.verdict, "GI" if ok else "not-GI"))
            if ok and not rep.verdict:
                report["violations"].append((name, "gen_m(Ah)"))
    for name, X in _named_truncated_projectives(A)[:sample_budget]:
        W = hm.syzygy(X, gor_n)
        if W.total_dim == 0:
            report["syzygy_samples"].append((name, True, "zero"))
            continue
        rep = hm.gen_membership(W, F, "inf", cutoff=cutoff)
        report["syzygy_samples"].append((name, rep.verdict, ""))
        if not rep.verdict:
            report["violations"].append((name, "gen_inf(Af)"))
    report["pass"] = not report["violations"]
    return report
