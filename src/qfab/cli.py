"""The qfab command line.

Commands: build, analyze, fabric, nakayama, resolve.  Exit codes: 0 success,
1 verification failure, 2 input error.  ``analyze``, ``fabric`` and
``nakayama`` take ``--cutoff``, past which a dimension is only bounded below;
``resolve``'s depth is ``--steps``.  Every report records the field, cutoff
and steps that produced it.  No answer depends on anything else, so
re-running with those knobs reproduces the bytes.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .errors import InputError, QfabError, ParseError
from .field import QQ, field_by_name
from .textio import parse_presentation, export_dot, ReportDocument
from .algebra import build_algebra
from .fixtures import fixture
from . import modules as md
from . import homology as hm
from . import fabric as fb
from . import nakayama as nk


def _load(args):
    path = args.file
    if path.startswith("fixture:"):
        pres = fixture(path[len("fixture:"):])
        field = QQ
    else:
        with open(path, "r", encoding="utf-8") as fh:
            pres, field = parse_presentation(fh.read(), name=path)
    if args.field:
        try:
            field = field_by_name(args.field)
        except ValueError as exc:
            raise ParseError(1, 1, f"--field: {exc}") from None
    return pres, field


def cmd_build(args):
    pres, field = _load(args)
    A = build_algebra(pres, field)
    doc = ReportDocument(f"build {pres.name or args.file}")
    doc.add("field", field.name)
    doc.add("vertices", len(A.vertices))
    doc.add("arrows", pres.quiver.n_arrows)
    doc.add("relations", len(pres.relations))
    doc.add("dimension", A.dim)
    doc.add("nilpotency-bound", A.max_len)
    for v in A.vertices:
        doc.add(f"dim P_{v}", len(A.by_source(A.vertex_pos[v])), indent=1)
    sys.stdout.write(doc.render())
    return 0


def cmd_analyze(args):
    pres, field = _load(args)
    A = build_algebra(pres, field)
    doc = ReportDocument(f"analyze {pres.name or args.file}")
    doc.add("field", field.name)
    doc.add("cutoff", args.cutoff)
    doc.add("dimension", A.dim)
    g, idim, pdim = hm.gorenstein_dimension(A, cutoff=args.cutoff)
    doc.add("inj.dim(A)", idim)
    doc.add("proj.dim(DA)", pdim)
    doc.add("Gorenstein-dimension", g)
    doc.add("dominant-dimension", hm.dominant_dimension(A, cutoff=args.cutoff))
    # A is self-injective exactly when inj.dim(A) = 0, for any cutoff >= 0
    doc.add("self-injective", idim == 0)
    gl = hm.global_dimension(A, cutoff=args.cutoff)
    doc.add("global-dimension", gl)
    sys.stdout.write(doc.render())
    return 0


def cmd_fabric(args):
    pres, field = _load(args)
    A = build_algebra(pres, field)
    F = _vertex_list(A, "--f", args.f)
    h = _vertex_list(A, "--h", args.h) if args.h else None
    report = fb.analyze_fabric(A, F, cutoff=args.cutoff, h=h)
    doc = ReportDocument(f"fabric {pres.name or args.file}")
    doc.add("field", field.name)
    doc.add("cutoff", args.cutoff)
    doc.add("f", ",".join(report.f))
    doc.add("combinatorial-verdict", report.combinatorial.get("verdict"))
    if report.combinatorial.get("verdict"):
        doc.add("combinatorial-e", ",".join(report.combinatorial["e"]))
    else:
        doc.add("combinatorial-reason", report.combinatorial.get("reason", ""))
    doc.add("definitional-verdict", report.definitional.get("verdict"))
    if report.definitional.get("verdict"):
        doc.add("companion-e", ",".join(report.e))
        if report.definitional["transcript"]["all_translates_zero"]:
            doc.add("companion-note", "every tau of a projective A/<f>-module is 0; "
                    "e, the whole vertex set, is the greatest of possibly several "
                    "companions")
        for v, d in sorted(report.per_projective.items()):
            doc.add(f"fab.dim P_{v}", d, indent=1)
        doc.add("fab.dim", report.fab_dim)
        try:
            _, ttr = fb.special_tilting_module(A, F, report.e, cutoff=args.cutoff)
            doc.add("tilting-module", "verified")
            doc.add("tilting-proj-dim", ttr["proj_dim"], indent=1)
            doc.add("tilting-ext1", ttr["ext1"], indent=1)
        except QfabError as exc:
            doc.add("tilting-module", f"failed: {exc}")
        if report.h is not None:
            doc.add("h", ",".join(report.h))
            doc.add("h-level", report.h_level)
    else:
        doc.add("definitional-reason", report.definitional.get("reason", ""))
    sys.stdout.write(doc.render())
    return 0 if report.definitional.get("verdict") else 1


def _vertex_list(A, flag, text):
    """The comma-separated vertex ids of a flag, each a vertex of A."""
    ids = [v.strip() for v in text.split(",") if v.strip()]
    unknown = [v for v in ids if v not in A.vertex_pos]
    if unknown:
        raise InputError(f"{flag}: unknown vertices {unknown}")
    return ids


def _label_list(labels):
    """Vertex labels joined by spaces: nakayama.vertex_label puts commas
    inside labels with a coordinate of 10 or more."""
    return " ".join(labels)


def cmd_nakayama(args):
    entries = []
    for x in args.kupisch.split(","):
        try:
            entries.append(int(x))
        except ValueError:
            raise InputError(f"--kupisch: entry {x!r} of {args.kupisch!r} "
                             f"is not an integer") from None
    try:
        series = nk.validate_kupisch(entries)
    except QfabError as exc:
        sys.stderr.write(f"invalid Kupisch series: {exc}\n")
        return 2
    doc = ReportDocument(f"nakayama n={args.n} l={series!r}")
    doc.add("cutoff", args.cutoff)
    A, pres = nk.higher_nakayama(args.n, series)
    doc.add("vertices", _label_list(A.vertices))
    doc.add("dimension", A.dim)
    doc.add("self-injective", hm.is_self_injective(A))
    if args.reduce:
        trace = nk.reduce_to_selfinjective(args.n, series, cutoff=args.cutoff)
        doc.section("reduction")
        doc.add("status", trace.status, indent=1)
        doc.add("series-history", [str(s) for s in trace.series_history], indent=1)
        for st in trace.stages:
            doc.add(f"round {st.round} pass {st.pass_index}",
                    {"f": _label_list(st.idempotent), "corner_dim": st.corner_dim,
                     "fabric_e": _label_list(st.fabric_e or ())}, indent=1)
        doc.add("terminal-vertices", _label_list(sorted(trace.terminal.vertices)),
                indent=1)
        doc.add("terminal-dimension", trace.terminal.dim, indent=1)
        if trace.terminal_series is not None:
            doc.add("terminal-series", str(trace.terminal_series), indent=1)
    sys.stdout.write(doc.render())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(pres, name="nakayama"))
    return 0


def cmd_resolve(args):
    pres, field = _load(args)
    A = build_algebra(pres, field)
    kind, sep, v = args.module.partition(":")
    if not sep:
        raise InputError(f"--module: {args.module!r} is not of the form "
                         f"simple|proj|inj:<vertex>")
    M = md.standard_module(A, kind, v)
    direction = "injective" if args.injective else "projective"
    res = hm.minimal_resolution(M, direction, cutoff=args.steps)
    doc = ReportDocument(f"resolve {kind}:{v} over {pres.name or args.file}")
    doc.add("field", field.name)
    doc.add("direction", direction)
    doc.add("steps", args.steps)
    doc.add("status", res.status)
    if res.period:
        doc.add("period", res.period)
    for i, verts in enumerate(res.term_vertices):
        doc.add(f"term {i}", Counter(verts), indent=1)
    sys.stdout.write(doc.render())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(res, name="resolution"))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="qfab",
        description="Exact computations with bound quiver algebras: fabric "
                    "idempotents, syzygies, higher Nakayama reduction.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cutoff", type=int, default=12)

    def algebra_file(p):
        p.add_argument("file", help="presentation file or fixture:<name>")
        p.add_argument("--field", default=None, help="Q or F<p>")

    p = sub.add_parser("build", help="parse, close the ideal, report dimensions")
    algebra_file(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("analyze", help="homological dimensions and self-injectivity")
    algebra_file(p)
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("fabric", help="fabric idempotent analysis")
    algebra_file(p)
    p.add_argument("--f", required=True, help="comma-separated vertex ids")
    p.add_argument("--h", default=None, help="optional switching idempotent")
    common(p)
    p.set_defaults(fn=cmd_fabric)

    p = sub.add_parser("nakayama", help="higher Nakayama algebras and reduction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kupisch", required=True, help="comma-separated series")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--dot", default=None)
    common(p)
    p.set_defaults(fn=cmd_nakayama)

    p = sub.add_parser("resolve", help="minimal (co)resolutions of a module")
    algebra_file(p)
    p.add_argument("--module", required=True, help="simple|proj|inj:<vertex>")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--injective", action="store_true")
    p.add_argument("--dot", default=None)
    p.set_defaults(fn=cmd_resolve)

    args = ap.parse_args(argv)
    try:
        for flag in ("cutoff", "steps"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise InputError(f"--{flag}: must be at least 0, got {value}")
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except QfabError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
