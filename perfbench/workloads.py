"""The three benchmark workloads: inputs, operations and answer checks.

Every input comes from this file and the workload seed; nothing is drawn
with ``qfab.modules.random_module``, so a change to the program cannot change
the inputs.  Only public ``qfab`` names are called, looked up through their
module (``hm.minimal_resolution``) when the operations are built, which is
after the tracer has patched them.

An operation is one user-visible question.  ``Op.run`` answers it and is the
timed part.  ``Op.answer`` reduces the result to plain data, used to compare
the processes of one run.  ``Op.check`` tests the result with a computation
made apart from the one that produced it, or with a property the answer must
have.  It returns a list of error strings, empty when the answer is right.
Each workload function returns its operations and a joint check, which takes
the results by label and tests rules that join several answers.
"""

from __future__ import annotations

import contextlib
import io
import random

from qfab import QQ, PrimeField, cli
from qfab import algebra as al
from qfab import errors as er
from qfab import fabric as fb
from qfab import fixtures as fx
from qfab import homology as hm
from qfab import modules as md
from qfab import nakayama as nk

# The large prime of the ``queries`` workload: scalars are FpElement there.
QUERY_PRIME = 2 ** 31 - 1

ANALYZE_FIXTURES = ["double-triangle", "two-ag-square", "preprojective-a3",
                    "preprojective-a4", "preprojective-a5", "preprojective-a6"]
FABRIC_CLI = [("double-triangle", "2,3,5", "1,3,4"),
              ("two-ag-square", "2,3,4", None)]
# gorenstein_dimension is asked on beilinson-2 only: on canonical-2-211 it
# takes about 9 s (26 s on canonical-2-221), which leaves too few passes in a
# run to take a median.
LIBRARY_DIMS = [("beilinson-2", ("gorenstein", "global", "self_injective")),
                ("canonical-2-211", ("global", "self_injective"))]
FABRIC_LIBRARY = [("canonical-2-211", ("1", "4", "8")),
                  ("canonical-2-221", ("1", "2", "4", "6", "8"))]
LITERATURE_GL_DIM = {"beilinson-2": 2, "canonical-2-211": 2, "canonical-2-221": 2}

# (n, Kupisch series).  Together they cover n = 1, 2, 3, both terminal kinds,
# rotations ((7,6,5,5,5,6) and (4,4,3,3)) and three rounds ((7,6,5,5,5,6),
# (6,5,4,4,4,5)).  An odd count keeps the median latency on one series.
REDUCE_SERIES = [(2, (7, 6, 5, 5, 5, 6)), (3, (5, 4, 4, 4, 4)),
                 (2, (6, 5, 4, 4, 4, 5)), (3, (4, 3, 3, 3)), (3, (3, 2, 2)),
                 (1, (4, 4, 3, 3)), (1, (4, 3, 3, 3))]

QUERY_COUNT = 400
QUERY_CUTOFF = 4
# Summand counts of the queries cycle through this pattern.
QUERY_SUMMANDS = (1, 1, 2, 3)


class Op:
    """One operation: a label, the timed call, and how to read and check it."""

    def __init__(self, label, run, answer, check):
        self.label = label
        self.run = run
        self.answer = answer
        self.check = check


# ---------------------------------------------------------------------------
# reading dimensions
# ---------------------------------------------------------------------------


def parse_dim(text):
    """A DimValue as printed ("2", "infinity", ">=12") -> (kind, value)."""
    text = str(text).strip()
    if text == "infinity":
        return ("infinite", None)
    if text.startswith(">="):
        return ("at_least", int(text[2:]))
    return ("finite", int(text))


def parse_report(text):
    """Key/value lines of a CLI report; indented lines keep their key."""
    out = {}
    for line in text.splitlines():
        if line.startswith("==") or ": " not in line:
            continue
        key, value = line.strip().split(": ", 1)
        out[key] = value
    return out


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_dimensions(name, dims):
    """Rules between homological dimensions of one algebra.

    ``dims`` maps any of "inj", "proj_DA", "gor", "dom", "gl" to a parsed
    dimension and "self_injective" to a bool.
    """
    errs = []
    fin = lambda k: k in dims and dims[k][0] == "finite"
    if fin("inj") and fin("proj_DA") and dims["inj"] != dims["proj_DA"]:
        errs.append(f"{name}: inj.dim A {dims['inj']} != proj.dim DA {dims['proj_DA']}")
    if fin("gl") and "gor" in dims and dims["gor"] != dims["gl"]:
        errs.append(f"{name}: Gor.dim {dims['gor']} != gl.dim {dims['gl']}")
    if "self_injective" in dims and "gor" in dims:
        if dims["self_injective"] != (dims["gor"] == ("finite", 0)):
            errs.append(f"{name}: self-injective {dims['self_injective']} "
                        f"but Gor.dim {dims['gor']}")
    if "self_injective" in dims and "dom" in dims:
        if dims["self_injective"] != (dims["dom"][0] == "infinite"):
            errs.append(f"{name}: self-injective {dims['self_injective']} "
                        f"but dom.dim {dims['dom']}")
        if (not dims["self_injective"] and fin("dom") and fin("gor")
                and not 0 <= dims["dom"][1] <= dims["gor"][1]):
            errs.append(f"{name}: dom.dim {dims['dom']} not in [0, Gor.dim {dims['gor']}]")
    if name.startswith("preprojective-a") and dims.get("self_injective") is False:
        errs.append(f"{name}: a preprojective algebra of type A is self-injective")
    if name in LITERATURE_GL_DIM and "gl" in dims \
            and dims["gl"] != ("finite", LITERATURE_GL_DIM[name]):
        errs.append(f"{name}: gl.dim {dims['gl']}, literature gives "
                    f"{LITERATURE_GL_DIM[name]}")
    return errs


def analyze_dims(report):
    return {"inj": parse_dim(report["inj.dim(A)"]),
            "proj_DA": parse_dim(report["proj.dim(DA)"]),
            "gor": parse_dim(report["Gorenstein-dimension"]),
            "dom": parse_dim(report["dominant-dimension"]),
            "gl": parse_dim(report["global-dimension"]),
            "self_injective": report["self-injective"] == "True"}


def quotient_module(A, F):
    """A/AfA as a left A-module, built as a cokernel.

    AfA is the trace of the projectives P_u (u in F) in A, so it is the
    submodule of the regular module generated by the images of all maps
    P_u -> A.  This avoids the quotient algebra that the program uses.
    """
    R = md.regular_module(A)
    seeds = []
    for u in F:
        for phi in md.hom_space(md.projective_module(A, u), R):
            for w, m in enumerate(phi.mats):
                seeds.extend((w, col) for col in m.columns() if any(col))
    S, inc = md.submodule_generated_by(R, seeds)
    C, _ = md.cokernel(inc)
    return C


def check_tilting(A, F, e):
    """T = Ae + A/AfA must have proj.dim <= 1 and Ext^1(T, T) = 0."""
    summands = [md.projective_module(A, v) for v in e]
    Q = quotient_module(A, F)
    if Q.total_dim:
        summands.append(Q)
    T, _, _ = md.direct_sum(summands)
    errs = []
    pd = hm.proj_dim(T, cutoff=3)
    if not pd.le(1):
        errs.append(f"F={','.join(F)}: proj.dim(Ae + A/AfA) = {pd}")
    ext1 = hm.ext_dim(T, T, 1)
    if ext1 != 0:
        errs.append(f"F={','.join(F)}: recomputed Ext^1(T, T) = {ext1}")
    return errs


def check_fabric_report(A, F, report):
    """A parsed ``qfab fabric`` report: detectors agree, dimensions add up,
    and the tilting module, rebuilt apart from the program, is tilting."""
    errs = []
    comb = report.get("combinatorial-verdict") == "True"
    defn = report.get("definitional-verdict") == "True"
    if comb and not defn:
        errs.append(f"F={F}: combinatorial yes, definitional no")
    if comb and defn and report["combinatorial-e"] != report["companion-e"]:
        errs.append(f"F={F}: combinatorial e {report['combinatorial-e']} "
                    f"!= definitional e {report['companion-e']}")
    if defn:
        per = [parse_dim(v) for k, v in report.items() if k.startswith("fab.dim P_")]
        errs += check_fabric_dimension(F, per, parse_dim(report["fab.dim"]))
        if report.get("tilting-ext1") != "0":
            errs.append(f"F={F}: reported tilting Ext^1 {report.get('tilting-ext1')}")
        errs += check_tilting(A, F.split(","), report["companion-e"].split(","))
    return errs


def _dim_order(d):
    kind, value = d
    return (2, 0) if kind == "infinite" else (1 if kind == "at_least" else 0, value)


def check_fabric_dimension(F, per, sup):
    """The fabric dimension is the supremum of the per-projective values."""
    top = max(per, key=_dim_order) if per else ("finite", 0)
    if top != sup:
        return [f"F={F}: fab.dim {sup} is not the supremum of {per}"]
    return []


def check_library_fabric(A, F, e, per, sup):
    errs = check_fabric_dimension(",".join(F), [parse_dim(v) for v in per.values()],
                                  parse_dim(sup))
    if set(per) & set(F):
        errs.append(f"F={F}: fabric dimension reported at a vertex of F")
    try:
        comb_e, _ = fb.check_fabric_combinatorial(A, list(F))
    except (er.ProjDimTooBig, er.ConditionFailed):
        comb_e = None
    if comb_e is not None and tuple(sorted(comb_e)) != tuple(e):
        errs.append(f"F={F}: combinatorial e {comb_e} != definitional e {e}")
    return errs + check_tilting(A, list(F), list(e))


def cartan_matrix(A):
    """Column v is the dimension vector of the projective P_v."""
    import sympy    # imported here to keep it out of the timed set-up
    cols = [md.projective_module(A, v).dims for v in A.vertices]
    return sympy.Matrix(len(cols), len(cols), lambda i, j: cols[j][i])


def check_reduction(n, entries, trace):
    """Terminal kind, shrinking corners and the blunt rebuild of the terminal."""
    errs = []
    label = f"n={n} {entries}"
    B = trace.terminal
    if trace.status == "self-injective":
        s = trace.terminal_series
        if s is None or len(set(s.entries)) != 1:
            errs.append(f"{label}: self-injective terminal with series {s}")
        g = hm.gorenstein_dimension(B)[0]
        if g != 0:
            errs.append(f"{label}: self-injective terminal has Gor.dim {g}")
    elif trace.status == "trivial-singularity":
        det = cartan_matrix(B).det()
        if det not in (1, -1):
            errs.append(f"{label}: trivial-singularity terminal has Cartan "
                        f"determinant {det}")
    else:
        errs.append(f"{label}: unknown terminal status {trace.status!r}")
    dims = [nk.higher_nakayama(n, entries)[0].dim]
    dims += [st.corner_dim for st in trace.stages]
    if any(a <= b for a, b in zip(dims, dims[1:])):
        errs.append(f"{label}: corner dimensions do not decrease: {dims}")
    if dims[-1] != B.dim:
        errs.append(f"{label}: last corner dim {dims[-1]} != terminal dim {B.dim}")
    pres = B.presentation if B.presentation is not None else al.quiver_of(B).presentation
    try:
        blunt = al.build_algebra_blunt(pres, B.field)
    except er.NotAdmissible:
        return errs     # the blunt engine gives up on large path spaces
    if blunt.dim != B.dim:
        errs.append(f"{label}: blunt rebuild has dim {blunt.dim}, terminal {B.dim}")
    for v in B.vertices:
        want = md.projective_module(B, v).total_dim
        got = md.projective_module(blunt, v).total_dim
        if want != got:
            errs.append(f"{label}: dim P_{v} is {want}, blunt rebuild gives {got}")
    return errs


def check_query(M, res, exts, tau):
    """Ext^1 by Hom dimensions, Euler characteristic, periodicity witness, tau."""
    A = M.algebra
    errs = []
    K = res.syzygies[1] if len(res.syzygies) > 1 else None
    if K is not None:
        P0 = res.terms[0]
        for v, got in zip(A.vertices, exts):
            S = md.simple_module(A, v)
            want = md.hom_dim(K, S) - md.hom_dim(P0, S) + md.hom_dim(M, S)
            if got != want:
                errs.append(f"Ext^1(M, S_{v}) = {got}, Hom dimensions give {want}")
    if res.status == "terminated":
        alt = [0] * A.n_vertices
        for i, P in enumerate(res.terms):
            for w, d in enumerate(P.dims):
                alt[w] += d if i % 2 == 0 else -d
        if alt != list(M.dims):
            errs.append(f"alternating sum of terms {alt} != dim M {list(M.dims)}")
    if res.status == "periodic":
        start, period = res.period
        w = res.period_witness.witness
        if not (w.is_isomorphism() and w.intertwines()):
            errs.append("periodicity witness is not a module isomorphism")
        if (w.source.dims != res.syzygies[start].dims
                or w.target.dims != res.syzygies[start + period].dims):
            errs.append("periodicity witness joins the wrong syzygies")
    projective = K is not None and K.total_dim == 0
    if projective != (tau.total_dim == 0):
        errs.append(f"tau M has dim {tau.total_dim} but M projective is {projective}")
    return errs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


# ``analyze`` and ``reduce`` have fixed inputs, and their qfab calls keep the
# program's default seed.  Over Q the answers do not depend on it, but the
# random coefficients of the isomorphism tests would change the work, and so
# the latency of the short operations, from one benchmark seed to the next.


def analyze_ops(seed):
    """CLI analyze/fabric reports and library dimension and fabric answers over Q."""
    ops = []
    for name in ANALYZE_FIXTURES:
        def check_analyze(out, name=name):
            rc, text = out
            if rc != 0:
                return [f"{name}: qfab analyze exit code {rc}"]
            return check_dimensions(name, analyze_dims(parse_report(text)))
        ops.append(Op(f"analyze {name}",
                      lambda name=name: run_cli(["analyze", f"fixture:{name}"]),
                      lambda out: out, check_analyze))
    for name, F, h in FABRIC_CLI:
        argv = ["fabric", f"fixture:{name}", "--f", F]
        if h:
            argv += ["--h", h]
        def check_fabric(out, name=name, F=F):
            rc, text = out
            report = parse_report(text)
            if rc != (0 if report.get("definitional-verdict") == "True" else 1):
                return [f"{name}: qfab fabric exit code {rc}"]
            return check_fabric_report(al.build_algebra(fx.fixture(name), QQ), F, report)
        ops.append(Op(f"fabric {name} F={F}", lambda argv=argv: run_cli(argv),
                      lambda out: out, check_fabric))
    algebras = {name: al.build_algebra(fx.fixture(name), QQ)
                for name in sorted({n for n, _ in LIBRARY_DIMS + FABRIC_LIBRARY})}
    calls = {"gorenstein": hm.gorenstein_dimension, "global": hm.global_dimension,
             "self_injective": hm.is_self_injective}
    for name, questions in LIBRARY_DIMS:
        for q in questions:
            ops.append(Op(f"{q} {name}",
                          lambda q=q, A=algebras[name]: calls[q](A),
                          repr, lambda out: []))
    for name, F in FABRIC_LIBRARY:
        A, f = algebras[name], ",".join(F)
        ops.append(Op(f"check_fabric_definitional {name} F={f}",
                      lambda A=A, F=F: fb.check_fabric_definitional(A, list(F)),
                      lambda out: list(out[0]), lambda out: []))
        ops.append(Op(f"fabric_dimension {name} F={f}",
                      lambda A=A, F=F: fb.fabric_dimension(A, list(F)),
                      lambda out: [{k: repr(v) for k, v in out[0].items()}, repr(out[1])],
                      lambda out: []))

    def joint(outs):
        """Checks that join the answers of several operations on one algebra."""
        errs = []
        for name, questions in LIBRARY_DIMS:
            got = [outs.get(f"{q} {name}") for q in questions]
            if any(g is None for g in got):
                continue
            dims = {}
            for q, out in zip(questions, got):
                if q == "gorenstein":
                    dims.update(zip(("gor", "inj", "proj_DA"), map(parse_dim, out)))
                elif q == "global":
                    dims["gl"] = parse_dim(out)
                else:
                    dims["self_injective"] = bool(out)
            errs += check_dimensions(name, dims)
        for name, F in FABRIC_LIBRARY:
            f = ",".join(F)
            e = outs.get(f"check_fabric_definitional {name} F={f}")
            fd = outs.get(f"fabric_dimension {name} F={f}")
            if e is not None and fd is not None:
                errs += check_library_fabric(algebras[name], F, e[0],
                                             {k: repr(v) for k, v in fd[0].items()},
                                             repr(fd[1]))
        return errs
    return ops, joint


def reduce_ops(seed):
    """Higher Nakayama reductions over Q, one operation per series."""
    ops = []
    for n, entries in REDUCE_SERIES:
        series = nk.validate_kupisch(entries)
        ops.append(Op(f"reduce n={n} {entries}",
                      lambda n=n, series=series: nk.reduce_to_selfinjective(n, series),
                      lambda tr: [tr.status, [str(s) for s in tr.series_history],
                                  [st.corner_dim for st in tr.stages], tr.terminal.dim],
                      lambda tr, n=n, entries=entries: check_reduction(n, entries, tr)))
    return ops, lambda outs: []


def query_algebras(field):
    algs = [al.build_algebra(fx.fixture(name), field)
            for name in ("preprojective-a5", "preprojective-a6", "double-triangle")]
    algs.append(nk.higher_nakayama(2, (4, 3, 3, 3), field=field)[0])
    algs.append(nk.higher_nakayama(3, (3, 3, 3), field=field)[0])
    return algs


def generator_shapes(A):
    """Every (projective vertex, generator vertices) shape over A, in a fixed
    order: one generating vector at each vertex of the projective's support,
    and two at each pair of neighbouring support vertices."""
    shapes = []
    for v in A.vertices:
        P = md.projective_module(A, v)
        support = [w for w in range(A.n_vertices) if P.dims[w]]
        shapes += [(v, (w,)) for w in support]
        shapes += [(v, pair) for pair in zip(support, support[1:])]
    return shapes


def query_plan(algs):
    """The fixed multiset of query shapes: QUERY_COUNT modules, spread evenly
    over the algebras, each a direct sum of 1, 2 or 3 generated summands."""
    plan = []
    per_algebra = QUERY_COUNT // len(algs)
    for A in algs:
        shapes = generator_shapes(A)
        step = max(1, len(shapes) // per_algebra)
        for j in range(per_algebra):
            count = QUERY_SUMMANDS[j % len(QUERY_SUMMANDS)]
            plan.append((A, [shapes[(j * step + 7 * t) % len(shapes)]
                             for t in range(count)]))
    return plan


def generated_module(A, shape, rng):
    """Submodule of P_v generated by vectors with seeded coefficients."""
    v, gen_vertices = shape
    P = md.projective_module(A, v)
    seeds = [(w, [A.field(rng.randrange(1, A.field.p)) for _ in range(P.dims[w])])
             for w in gen_vertices]
    return md.submodule_generated_by(P, seeds)[0]


def query_ops(seed):
    """The shapes are the same on every seed, so a pass does the same work;
    the seed draws every coefficient and the order of the queries."""
    algs = query_algebras(PrimeField(QUERY_PRIME))
    rng = random.Random(seed)
    plan = query_plan(algs)
    rng.shuffle(plan)
    ops = []
    for k, (A, shapes) in enumerate(plan):
        parts = [generated_module(A, shape, rng) for shape in shapes]
        M = parts[0] if len(parts) == 1 else md.direct_sum(parts)[0]

        def query(M=M, A=A):
            res = hm.minimal_resolution(M, "projective", cutoff=QUERY_CUTOFF, seed=seed)
            exts = [hm.ext_dim(M, md.simple_module(A, v), 1, resolution=res, seed=seed)
                    for v in A.vertices]
            return res, exts, hm.ar_translate(M, seed=seed)
        ops.append(Op(f"query {k} dim {M.total_dim}", query,
                      lambda out: [out[0].status, [list(t.dims) for t in out[0].terms],
                                   out[1], list(out[2].dims)],
                      lambda out, M=M: check_query(M, *out)))
    return ops, lambda outs: []


WORKLOADS = {"analyze": analyze_ops, "reduce": reduce_ops, "queries": query_ops}
