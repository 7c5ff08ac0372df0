"""The verbs that read or write object files: verify, family, analyze,
iso, orbit and export.

`cli.main` imports this module only when one of these verbs runs, so
`classify`, `factorize`, `--help` and usage errors never compile it.  Input
files, text or data, are parsed in one place, `_read_inputs`, which reads
each through `serialize.parse_any` and turns a parse error into a usage error
(exit 2); a witness file gives the witness, which carries its own q and p.
Every object written as text goes through the one writer, `serialize.write_text`.
`family` takes each family's builder, variant flag, parameter check and
vertex count from the one table in `families`.
"""

from __future__ import annotations

import importlib

from .cli import (EXIT_OK, EXIT_PROPERTY, EXIT_UNDETERMINED, _Usage, _emit,
                  _render_split)


def _read_inputs(args, count=None):
    from . import serialize
    paths = args.input or []
    if count is not None and len(paths) != count:
        raise _Usage(f"this verb needs exactly {count} --input file(s), got {len(paths)}")
    objs = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                objs.append(serialize.parse_any(fh.read()))
        except OSError as exc:
            raise _Usage(f"cannot read {path}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise _Usage(f"cannot read {path}: not UTF-8 text "
                         f"(byte {exc.start} is {exc.object[exc.start]:#04x})")
        except serialize.ParseError as exc:
            raise _Usage(str(exc))
    return objs


def _as_tensor(obj):
    from .algebra import StructureTensor, from_graph
    from .graphs import ColoredDigraph
    if isinstance(obj, ColoredDigraph):
        return from_graph(obj)
    if isinstance(obj, StructureTensor):
        return obj
    raise _Usage("expected a graph or algebra file, got a witness file")


def _as_graph(obj):
    from .algebra import to_graph
    from .graphs import ColoredDigraph
    return obj if isinstance(obj, ColoredDigraph) else to_graph(_as_tensor(obj))


def _report_dict(rep) -> dict:
    kinds = {"NonProper": "non-proper", "ColorCountMismatch": "color-count-mismatch",
             "NotRegular": "not-regular", "NotSurjective": "not-surjective"}
    violations = []
    for v in rep.violations:
        d = {"kind": kinds[type(v).__name__]}
        d.update(vars(v))
        violations.append(d)
    return {"is_uniform": rep.is_uniform, "p": rep.p, "q": rep.q,
            "r": rep.r, "s": rep.s, "violations": violations}


# ---------------------------------------------------------------------------
# verbs

def verify(args) -> int:
    from .graphs import validate_uniform
    (obj,) = _read_inputs(args, 1)
    rep = validate_uniform(_as_graph(obj))
    lines = [f"uniformity check on q={rep.q}, p={rep.p}"]
    if rep.is_uniform:
        lines.append(f"uniform of type ({rep.p},{rep.q},{rep.r}), degree s={rep.s}")
    else:
        lines.append("not uniform:")
        for v in rep.violations:
            lines.append(f"  {v}")
    _emit(args, "\n".join(lines), _report_dict(rep))
    return EXIT_OK if rep.is_uniform else EXIT_PROPERTY


# the largest vertex count `family` builds; kneser(n, 1) stores C(n, 2)
# colors of n - 2 elements each, about 80 MiB at this size
FAMILY_MAX_VERTICES = 200


def family(args) -> int:
    from . import families
    from .graphs import validate_uniform
    name = args.name
    if name not in families._FAMILIES:
        raise _Usage(f"unknown family '{name}'; choose from "
                     + ", ".join(sorted(families._FAMILIES)))
    module, builder, variant, accepts, _, _ = families._FAMILIES[name]
    arity = accepts.__code__.co_argcount
    params = args.params
    if len(params) != arity:
        raise _Usage(f"family '{name}' takes {arity} integer parameter(s)")
    try:
        fargs = [int(x) for x in params]
    except ValueError:
        raise _Usage("family parameters must be integers")
    kwargs = {}
    if args.variant:
        if args.variant != variant:
            raise _Usage(f"family '{name}' has no variant '{args.variant}'")
        kwargs[args.variant] = True
    try:
        families.check_parameters(name, *fargs)
        # a parameter above the limit is refused before a count that may be
        # huge is computed, since no accepted parameter exceeds the count
        q = max(fargs, default=0)
        if q <= FAMILY_MAX_VERTICES:
            q = families.vertex_count(name, *fargs)
        if q > FAMILY_MAX_VERTICES:
            raise _Usage(f"family '{name}' would have at least {q} vertices; "
                         f"the limit is {FAMILY_MAX_VERTICES}")
        g = getattr(importlib.import_module(f"{__package__}.{module}"),
                    builder)(*fargs, **kwargs)
    except ValueError as exc:
        raise _Usage(str(exc))
    rep = validate_uniform(g)
    payload = g.to_data()
    payload["family"] = name
    payload["type"] = [rep.p, rep.q, rep.r]
    body = _format_object(g, args.format)
    human = (f"family {name}({', '.join(params)})"
             + (f" [{args.variant}]" if args.variant else "")
             + f": type ({rep.p},{rep.q},{rep.r}), s={rep.s}\n\n" + body)
    _emit(args, human, payload, file_body=body)
    return EXIT_OK


def _format_object(obj, fmt: str) -> str:
    from . import serialize
    from .graphs import ColoredDigraph
    if fmt == "dot":
        return serialize.write_dot(_as_graph(obj))
    if fmt == "data":
        return serialize.to_json(obj)
    return serialize.write_text(obj if isinstance(obj, ColoredDigraph) else _as_tensor(obj))


def analyze(args) -> int:
    from . import serialize
    from .analysis import (ad_rank, center_dim, commutator_dim, is_heisenberg_type,
                           j_gram, totally_geodesic)
    from .graphs import connected_components, validate_uniform
    from .linear import derivation_dim
    (obj,) = _read_inputs(args, 1)
    t, g = _as_tensor(obj), _as_graph(obj)
    rep = validate_uniform(g)
    lines = [f"analysis of q={t.q}, p={t.p} "
             f"({len(t.entries)} nonzero brackets)"]
    payload = {"uniform": _report_dict(rep)}
    lines.append(serialize.bracket_table(t).rstrip("\n") or "(abelian)")
    cdim = center_dim(t)
    mdim = commutator_dim(t)
    payload["center_dim"] = cdim
    payload["commutator_dim"] = mdim
    lines.append(f"center dimension {cdim}; commutator dimension {mdim}")
    if not rep.is_uniform:
        lines.append("not uniform; skipping the uniform-only invariants")
        for v in rep.violations:
            lines.append(f"  {v}")
        _emit(args, "\n".join(lines), payload)
        return EXIT_PROPERTY
    ads = [ad_rank(t, i) for i in range(1, t.q + 1)]
    cents = [t.p + t.q - a for a in ads]  # rank-nullity on ad_{v_i}
    # J_{z_k} is |E_k| disjoint signed 2 x 2 rotations: its rank is 2 |E_k|
    jranks = list(j_gram(t))
    htype = is_heisenberg_type(t)
    payload.update({
        "centralizer_dims": cents, "ad_ranks": ads, "j_ranks": jranks,
        "j_gram": jranks,
        "heisenberg_type": htype,
        "derivation_dim": derivation_dim(t),
    })
    lines.append(f"type ({rep.p},{rep.q},{rep.r}), degree s={rep.s}")
    lines.append(f"centralizer dims {cents}; ad ranks {ads}; J ranks {jranks}")
    lines.append(f"J gram diagonal {jranks} (expect all {2 * rep.r})")
    lines.append(f"square-norm J identity: {'holds' if htype else 'fails'}")
    lines.append(f"derivation algebra dimension {payload['derivation_dim']}")
    tg_rows = []
    for comp in connected_components(g):
        colors = sorted({k for (i, j, k) in g.arcs if i in comp and j in comp})
        res = totally_geodesic(t, comp, colors)
        tg_rows.append({"vertices": list(comp), "colors": colors,
                        "is_subalgebra": res.is_subalgebra,
                        "is_totally_geodesic": res.is_totally_geodesic})
        lines.append(f"component {list(comp)} with colors {colors}: "
                     f"subalgebra={res.is_subalgebra}, "
                     f"totally geodesic={res.is_totally_geodesic}")
    payload["totally_geodesic"] = tg_rows
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK


def iso(args) -> int:
    from . import serialize
    from .algebra import check_witness, signed_perm_isomorphic
    from .graphs import ColoredDigraph, colorings_equivalent
    from .linear import IsoWitness
    objs = _read_inputs(args)
    if args.strict_equivalence and not (
            len(objs) == 2 and all(isinstance(o, ColoredDigraph) for o in objs)):
        raise _Usage("--strict-equivalence needs two graph files")
    if len(objs) == 3:
        a, b, w = objs
        if not isinstance(w, IsoWitness):
            raise _Usage("third --input must be a witness file")
        t1, t2 = _as_tensor(a), _as_tensor(b)
        if (t1.q, t1.p) == (t2.q, t2.p) != (w.q, w.p):
            raise _Usage(f"witness header says q={w.q} p={w.p}, but the algebras "
                         f"have q={t1.q} p={t1.p}")
        try:
            res = check_witness(t1, t2, w)
        except ValueError as exc:
            raise _Usage(str(exc))
        payload = {"mode": "check-witness", "ok": res.ok,
                   "failures": list(res.failures)}
        human = ("witness check: " + ("all brackets intertwined"
                 if res.ok else "fails at " + ", ".join(res.failures)))
        _emit(args, human, payload)
        return EXIT_OK if res.ok else EXIT_PROPERTY
    if len(objs) != 2:
        raise _Usage("iso needs two object files, plus an optional witness file")
    a, b = objs
    if isinstance(a, ColoredDigraph) and isinstance(b, ColoredDigraph):
        if (a.q, a.p) != (b.q, b.p):
            _emit(args, "inequivalent: (q, p) differ",
                  {"mode": "coloring-equivalence", "equivalent": False,
                   "reason": "shape"})
            return EXIT_PROPERTY
        wit = colorings_equivalent(a, b, strict=args.strict_equivalence,
                                   budget=args.budget)
        if wit is not None:
            payload = {"mode": "coloring-equivalence", "equivalent": True,
                       "vertex_images": list(wit.vertex_images),
                       "color_images": list(wit.color_images)}
            _emit(args, "equivalent colorings\nvertex images "
                  + " ".join(map(str, wit.vertex_images)) + "\ncolor images "
                  + " ".join(map(str, wit.color_images)), payload)
            return EXIT_OK
        _emit(args, "inequivalent colorings (exhaustive search)",
              {"mode": "coloring-equivalence", "equivalent": False,
               "reason": "exhausted"})
        return EXIT_PROPERTY
    t1, t2 = _as_tensor(a), _as_tensor(b)
    if (t1.p, t1.q) == (t2.p, t2.q):
        w = signed_perm_isomorphic(t1, t2, budget=args.budget)
        if w is not None:
            payload = {"mode": "signed-perm", "isomorphic": True,
                       "witness": w.to_data()}
            _emit(args, "isomorphic via signed permutation\n\n"
                  + serialize.write_text(w), payload)
            return EXIT_OK
    from .classification import Invariants, refine
    _, splits = refine([Invariants((t1,)), Invariants((t2,))])
    if not splits:
        _emit(args, "undetermined: no signed-permutation witness and no "
              "separating certificate",
              {"mode": "signed-perm", "isomorphic": None})
        return EXIT_UNDETERMINED
    human, entry = _render_split(splits[0])
    _emit(args, "distinct, inputs " + human,
          {"mode": "signed-perm", "isomorphic": False, "certificate": entry})
    return EXIT_PROPERTY


def orbit(args) -> int:
    from .algebra import sign_class_report, sign_vector
    (obj,) = _read_inputs(args, 1)
    t = _as_tensor(obj)
    try:
        report = sign_class_report(t, budget=args.budget)
    except ValueError as exc:
        _emit(args, f"sign-class analysis failed: {exc}", {"error": str(exc)})
        return EXIT_PROPERTY
    lines = [f"{len(report.orbit_representatives)} diagonal sign orbit(s), "
             f"{len(report.classes)} class(es) after signed-permutation merging"]
    cls_payload = []
    for n, sc in enumerate(report.classes, start=1):
        lines.append(f"class {n}: orbits {list(sc.members)}, square-norm "
                     f"identity {'holds' if sc.heisenberg else 'fails'}")
        lines.append("  representative signs "
                     + " ".join("+1" if s > 0 else "-1"
                                for s in sign_vector(sc.representative)))
        cls_payload.append({"members": list(sc.members),
                            "heisenberg": sc.heisenberg,
                            "representative": sc.representative.to_data()})
    payload = {"orbit_count": len(report.orbit_representatives),
               "classes": cls_payload}
    _emit(args, "\n".join(lines), payload)
    return EXIT_OK


def export(args) -> int:
    (obj,) = _read_inputs(args, 1)
    # a witness file in any format but data is a usage error
    body = _format_object(obj, args.format)
    _emit(args, body, obj.to_data(), file_body=body)
    return EXIT_OK
