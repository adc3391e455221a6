"""Fabric and cofabric idempotents.

An idempotent f (a vertex subset F) is fabric when proj.dim of A/<f> is at
most one and a companion idempotent e exists such that the AR translation
carries projective A/<f>-modules to injective A/<e>-modules, and its inverse
carries injective A/<e>-modules back to projective A/<f>-modules.

Two detectors are provided and cross-checked: a quiver-level combinatorial
test (four arrow/through-path conditions, with the companion read off as the
vertices that are not targets of the distinguished arrows into F), and the
definitional test that computes the AR translates and searches for a
companion directly.
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

# The exhaustive companion search builds 2^|allowed| candidate sets, so it
# runs only on algebras with at most this many vertices.
EXHAUSTIVE_COMPANION_LIMIT = 16


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


def _quotient_modules(A, F, make):
    """The modules make(A/<f>, v) inflated to A, keyed by surviving vertex v."""
    Abar = quotient_by_idempotent_ideal(A, F)
    return {v: md.inflate_from_quotient(make(Abar, v), A) for v in Abar.vertices}


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


def check_fabric_combinatorial(A, F, cutoff=12, seed=0):
    """Quiver-level fabric test.  Returns (e, transcript) on success.

    Precondition: proj.dim of A/<f> over A is at most 1 (ProjDimTooBig
    otherwise).  The four conditions are tested syntactically on the Gabriel
    quiver, with path congruences decided as equality of normal forms in A
    (scalar one; proportional matches are recorded as near misses).
    """
    Fset = set(F)
    transcript = {"near_misses": [], "conditions": {}}

    pd = _quotient_proj_dim(A, F, cutoff=cutoff, seed=seed)
    transcript["proj_dim_quotient"] = pd
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
        for (s, t, h) in arrows:
            if t == jp and s != j and s not in prime_targets:
                raise ConditionFailed(2, f"arrow {s}->{t} into {j}' has source "
                                         f"{s} not {j} and not a distinguished target")
    transcript["conditions"][2] = "ok"

    def classes_relation(c1, c2):
        if c1 == c2:
            return "equal"
        if c1 and c2 and set(c1) == set(c2):
            keys = sorted(c1)
            k0 = keys[0]
            lam = c1[k0] / c2[k0]
            if all(c1[k] == lam * c2[k] for k in keys):
                return ("proportional", lam)
        return "different"

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
            found = False
            for (s2, t2, delta) in arrows:
                if s2 == ip and t2 == jp:
                    cls2 = A.mult(delta, alpha_i)
                    rel = classes_relation(cls2, cls)
                    if rel == "equal":
                        found = True
                        break
                    if isinstance(rel, tuple):
                        transcript["near_misses"].append(
                            ("cond3", i, j, str(rel[1])))
            if not found:
                raise ConditionFailed(3, f"no factorization of {i}->{j}->{jp}")
    transcript["conditions"][3] = "ok"

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
                found = False
                for (s3, t3, beta) in arrows:
                    if s3 == i and t3 == j:
                        cls2 = A.mult(alpha_j, beta)
                        rel = classes_relation(cls2, cls)
                        if rel == "equal":
                            found = True
                            break
                        if isinstance(rel, tuple):
                            transcript["near_misses"].append(
                                ("cond4", i, j, str(rel[1])))
                if not found:
                    raise ConditionFailed(4, f"no arrow {i}->{j} matching the "
                                             f"path {i}->{ip}->{jp}")
    transcript["conditions"][4] = "ok"
    transcript["e"] = e
    return e, transcript


def _quotient_proj_dim(A, F, cutoff=12, seed=0):
    Abar = quotient_by_idempotent_ideal(A, F)
    if Abar.is_zero():
        return DimValue.finite(0)
    Mf = md.inflate_from_quotient(md.regular_module(Abar), A)
    return hm.proj_dim(Mf, cutoff=cutoff, seed=seed)


def _holds_over_quotient(A, M, E, test):
    """Is M (an A-module) an A/<e>-module for which ``test`` holds?"""
    if M.total_dim == 0:
        return True
    Abar = quotient_by_idempotent_ideal(A, E)
    return (md.is_quotient_module(M, Abar)
            and test(md.restrict_from_quotient(M, Abar)))


def _companion_valid(A, F, E, taus):
    for v, tau in taus.items():
        if not _holds_over_quotient(A, tau, E, hm.is_injective_module):
            return False
    injs = _quotient_modules(A, E, md.injective_module)
    for w, I in injs.items():
        tinv = hm.ar_translate_inverse(I)
        if not _holds_over_quotient(A, tinv, F, hm.is_projective_module):
            return False
    return True


def check_fabric_definitional(A, F, seed=0, cutoff=12):
    """Definitional fabric test: compute the AR translates of the projective
    A/<f>-modules and search for a companion e.

    The constructive candidate is tried first; on failure every subset of the
    allowed vertex set is tried (algebras with at most
    ``EXHAUSTIVE_COMPANION_LIMIT`` vertices), pruned by the supports of the
    translates.
    """
    pd = _quotient_proj_dim(A, F, cutoff=cutoff, seed=seed)
    if not pd.le(1):
        raise ProjDimTooBig(f"proj.dim_A(A/<f>) = {pd}, needs <= 1")
    projs = _quotient_modules(A, F, md.projective_module)
    taus = {v: hm.ar_translate(P) for v, P in projs.items()}
    transcript = {"proj_dim_quotient": pd,
                  "tau_dims": {v: t.dims for v, t in taus.items()}}

    e_c, _ = companion_candidate(A, F)
    candidates = [] if e_c is None else [e_c]
    if A.n_vertices <= EXHAUSTIVE_COMPANION_LIMIT:
        forbidden = {A.vertices[vpos] for t in taus.values()
                     for vpos, d in enumerate(t.dims) if d}
        allowed = [v for v in A.vertices if v not in forbidden]
        for mask in range(1 << len(allowed)):
            candidates.append([v for k, v in enumerate(allowed) if (mask >> k) & 1])
    for key in dict.fromkeys(tuple(sorted(cand)) for cand in candidates):
        if _companion_valid(A, F, key, taus):
            transcript["e"] = key
            return key, transcript
    raise NoCompanionFound(f"no companion idempotent for F={sorted(F)}")


def fabric_dimension(A, F, cutoff=12, seed=0):
    """Per-projective fabric dimensions and their supremum.

    For each indecomposable projective P of A/<f>: the least n >= 1 with
    P isomorphic to the n-th syzygy of an indecomposable injective A-module.
    Certified infinite when every injective's syzygy chain terminates or
    cycles without reaching P; otherwise honest ">= cutoff".
    """
    projs = _quotient_modules(A, F, md.projective_module)
    chains = []
    for w in A.vertices:
        I = md.injective_module(A, w)
        res = hm.minimal_resolution(I, "projective", cutoff=cutoff, seed=seed)
        chains.append((w, res))
    per = {}
    for v, P in projs.items():
        best = None
        all_closed = True
        for w, res in chains:
            limit = len(res.syzygies)
            for n in range(1, limit):
                S = res.syzygies[n]
                if S.dims == P.dims and md.is_isomorphic(S, P, seed=seed):
                    if best is None or n < best:
                        best = n
                    break
            else:
                if res.status == "truncated":
                    all_closed = False
        if best is not None:
            per[v] = DimValue.finite(best)
        elif all_closed:
            per[v] = DimValue.infinite(note="all injective syzygy chains closed")
        else:
            per[v] = DimValue.at_least(cutoff)
    sup = DimValue.finite(0)
    for v, d in per.items():
        sup = hm.dim_max(sup, d)
    return per, sup


def analyze_fabric(A, F, cutoff=12, seed=0, h=None):
    """Full fabric analysis: both detectors, companion, fabric dimensions."""
    report = FabricReport(f=tuple(sorted(F)), e=None)
    comb_e = None
    try:
        comb_e, tr = check_fabric_combinatorial(A, F, cutoff=cutoff, seed=seed)
        report.combinatorial = {"verdict": True, "e": tuple(sorted(comb_e)),
                                "transcript": tr}
    except (ProjDimTooBig, ConditionFailed) as exc:
        report.combinatorial = {"verdict": False, "reason": str(exc)}
    try:
        def_e, tr = check_fabric_definitional(A, F, seed=seed, cutoff=cutoff)
        report.definitional = {"verdict": True, "e": tuple(sorted(def_e)),
                               "transcript": {k: v for k, v in tr.items()
                                              if k != "tau_dims"}}
        report.e = tuple(sorted(def_e))
    except (ProjDimTooBig, NoCompanionFound) as exc:
        report.definitional = {"verdict": False, "reason": str(exc)}
    if report.e is not None:
        per, sup = fabric_dimension(A, F, cutoff=cutoff, seed=seed)
        report.per_projective = per
        report.fab_dim = sup
        if h is not None:
            report.h = tuple(sorted(h))
            report.h_level = minimal_gen_level(A, h, cutoff=cutoff, seed=seed)
    return report


def cofabric_check(A, F, seed=0, cutoff=12):
    """f is cofabric for A iff it is fabric for the opposite algebra."""
    return check_fabric_definitional(A.opposite(), F, seed=seed, cutoff=cutoff)


def cofabric_dimension(A, F, cutoff=12, seed=0):
    return fabric_dimension(A.opposite(), F, cutoff=cutoff, seed=seed)


# ---------------------------------------------------------------------------
# special tilting module
# ---------------------------------------------------------------------------


def special_tilting_module(A, F, E, cutoff=12, seed=0):
    """T = Ae + A/<f>, with the three tilting axioms verified.

    Returns (T, transcript).  Verification failures raise VerificationFailed
    since the theory guarantees the axioms for a fabric idempotent.
    """
    Eset = set(E)
    projs = _quotient_modules(A, F, md.projective_module)
    summands = [md.projective_module(A, v) for v in A.vertices if v in Eset]
    summands += list(projs.values())
    if not summands:
        raise QfabError("empty tilting candidate")
    T, _, _ = md.direct_sum(summands)
    transcript = {}

    pd = hm.proj_dim(T, cutoff=cutoff, seed=seed)
    transcript["proj_dim"] = pd
    if not pd.le(1):
        raise VerificationFailed(f"proj.dim(T) = {pd}")

    ext1 = hm.ext_dim(T, T, 1, seed=seed)
    transcript["ext1"] = ext1
    if ext1 != 0:
        raise VerificationFailed(f"Ext^1(T, T) = {ext1} != 0")

    # exact sequence 0 -> A -> T0 -> T1 -> 0 with T0 in add(Ae):
    # every non-E vertex w must pair with a quotient projective whose first
    # syzygy is P_w; its cover lives in add(Ae).
    pairing = {}
    used = set()
    kernels = {v: hm.syzygy(P, 1) for v, P in projs.items()}
    for w in A.vertices:
        if w in Eset:
            continue
        Pw = md.projective_module(A, w)
        found = None
        for v in projs:
            if v in used:
                continue
            K = kernels[v]
            if K.dims == Pw.dims and md.is_isomorphic(K, Pw, seed=seed):
                found = v
                break
        if found is None:
            raise VerificationFailed(f"no quotient projective pairs with P_{w}")
        pairing[w] = found
        used.add(found)
    for w, v in pairing.items():
        cover_vs = hm.projective_cover(projs[v])[2]
        if any(u not in Eset for u in cover_vs):
            raise VerificationFailed(f"middle term of the sequence for {w} "
                                     f"is not generated by e-vertices")
    transcript["pairing"] = pairing
    transcript["T0_in_add_Ae"] = True
    return T, transcript


# ---------------------------------------------------------------------------
# singular reduction
# ---------------------------------------------------------------------------


def singular_reduction(A, F, cutoff=12, seed=0):
    """Corner fAf with the two finiteness certificates.

    Checks gl.dim(A/<f>) < infinity and proj.dim over fAf of fA < infinity;
    returns (corner, certificate)."""
    Abar = quotient_by_idempotent_ideal(A, F)
    cert = {}
    if Abar.is_zero():
        cert["quotient_gl_dim"] = DimValue.finite(0)
    else:
        g = hm.global_dimension(Abar, cutoff=cutoff, seed=seed)
        cert["quotient_gl_dim"] = g
        if g.kind == "infinite":
            raise InfiniteQuotientGlobalDimension(
                f"gl.dim(A/<f>) certified infinite: {g.note}")
        if g.kind == "at_least":
            raise QfabError(f"gl.dim(A/<f>) undecided below cutoff {cutoff}")
    C = corner(A, F)
    fA = md.restrict_to_corner(md.regular_module(A), C)
    pdim = hm.proj_dim(fA, cutoff=cutoff, seed=seed)
    cert["corner_proj_dim_fA"] = pdim
    if pdim.kind == "infinite":
        raise CornerProjDimUnbounded(f"proj.dim_fAf(fA) certified infinite")
    if pdim.kind == "at_least":
        raise QfabError(f"proj.dim_fAf(fA) undecided below cutoff {cutoff}")
    cert["singular_equivalence"] = True
    return C, cert


# ---------------------------------------------------------------------------
# generator switching
# ---------------------------------------------------------------------------


def minimal_gen_level(A, H, cutoff=12, seed=0):
    """Least m with DA in gen_m(Ah), or None."""
    DA = hm.dual_regular(A)
    res = hm.minimal_resolution(DA, "projective", cutoff=cutoff, seed=seed)
    Hset = set(H)
    best = None
    for i, verts in enumerate(res.term_vertices):
        if any(v not in Hset for v in verts):
            best = i - 1
            break
    else:
        if res.status == "terminated":
            best = "inf"
        else:
            best = len(res.term_vertices) - 1
    if best == -1:
        return None
    return best


def sample_gorenstein_injectives(A, gor_n, budget=20, seed=0):
    """Deterministic GI sample: injectives, n-th cosyzygies of simples, then
    n-th cosyzygies of seeded random modules."""
    import random as _random
    rng = _random.Random(seed)
    out = []
    for v in A.vertices:
        out.append((f"I_{v}", md.injective_module(A, v)))
    for v in A.vertices:
        out.append((f"cosyz{gor_n}(S_{v})", hm.cosyzygy(md.simple_module(A, v), gor_n)))
    k = 0
    while len(out) < budget and k < budget * 3:
        k += 1
        M = md.random_module(A, rng, max_total_dim=8)
        out.append((f"cosyz{gor_n}(rand{k})", hm.cosyzygy(M, gor_n)))
    return out[:budget]


def verify_generator_switching(A, F, E, H=None, sample_budget=20, seed=0,
                               cutoff=24, gor_n=None):
    """Check the two resolution-generator memberships on a GI sample.

    For every sampled Gorenstein injective M: M lies in gen_m(Ah) where m is
    the least level with DA in gen_m(Ah); and for every simple and sampled
    module X: the gor_n-th syzygy of X lies in gen_inf(Af).
    """
    import random as _random
    if gor_n is None:
        gor_n = hm.certify_gorenstein(A, cutoff=cutoff, seed=seed)
    H = tuple(sorted(H)) if H is not None else tuple(sorted(E))
    report = {"gor_dim": gor_n, "h": H, "samples": [], "syzygy_samples": [],
              "violations": []}
    m = minimal_gen_level(A, H, cutoff=cutoff, seed=seed)
    report["h_level"] = m
    if gor_n == 0:
        report["note"] = "self-injective: memberships are vacuous"
        return report
    if m is not None and m != "inf":
        for name, M in sample_gorenstein_injectives(A, gor_n, sample_budget, seed):
            ok = hm.is_gorenstein_injective(M, gor_n, seed=seed)
            if M.total_dim == 0:
                report["samples"].append((name, True, "zero"))
                continue
            rep = hm.gen_membership(M, H, m, cutoff=cutoff, seed=seed)
            report["samples"].append((name, rep.verdict, "GI" if ok else "not-GI"))
            if ok and not rep.verdict:
                report["violations"].append((name, "gen_m(Ah)"))
    rng = _random.Random(seed + 1)
    xs = [(f"S_{v}", md.simple_module(A, v)) for v in A.vertices]
    while len(xs) < sample_budget:
        xs.append((f"rand{len(xs)}", md.random_module(A, rng, max_total_dim=8)))
    for name, X in xs[:sample_budget]:
        W = hm.syzygy(X, gor_n)
        if W.total_dim == 0:
            report["syzygy_samples"].append((name, True, "zero"))
            continue
        rep = hm.gen_membership(W, F, "inf", cutoff=cutoff, seed=seed)
        report["syzygy_samples"].append((name, rep.verdict, ""))
        if not rep.verdict:
            report["violations"].append((name, "gen_inf(Af)"))
    report["pass"] = not report["violations"]
    return report
