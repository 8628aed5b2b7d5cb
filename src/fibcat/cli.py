"""Workspace file format, command-line surface, and DOT export.

A workspace is a single JSON document with named categories, functors,
presheaves, lexicons and corpora.  Identity morphisms may be omitted in
files and are synthesized on load (named "id:<object>"), together with the
composition entries forced by the unit laws; any other missing composite
is a SchemaError.  ``save`` emits a canonical form so save . load is
byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import factor as factor_mod
from . import groth, pregroup
from .mcg import classify_over_mcg, mcg as make_mcg
from .errors import (
    FibcatError,
    IoError,
    MalformedSpec,
    SchemaError,
    UnknownName,
    ValidationError,
)
from .fib import (
    fibre,
    is_discrete_fibration,
    is_fibration,
    reindex,
)
from .fincat import (
    CONTRAVARIANT,
    COVARIANT,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    ValidationReport,
    comma,
    pullback,
    validate_category,
    validate_functor,
    validate_set_valued,
)

FORMAT_VERSION = 1


@dataclass
class Workspace:
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    presheaves: dict = field(default_factory=dict)
    lexicons: dict = field(default_factory=dict)  # name -> list of (phrase, type text)
    corpora: dict = field(default_factory=dict)  # name -> list of token lists


def _require(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def _build_category(name, doc):
    path = f"categories.{name}"
    _require(isinstance(doc, dict), path, "expected an object")
    _require("objects" in doc, path, "missing 'objects'")
    _require("morphisms" in doc, f"{path}.morphisms", "missing 'morphisms'")
    objects = doc["objects"]
    _require(
        isinstance(objects, list) and all(isinstance(o, str) for o in objects),
        f"{path}.objects",
        "expected a list of strings",
    )
    morphisms = []
    for i, rec in enumerate(doc["morphisms"]):
        mp = f"{path}.morphisms[{i}]"
        _require(isinstance(rec, dict), mp, "expected an object")
        for key in ("id", "src", "tgt"):
            _require(isinstance(rec.get(key), str), f"{mp}.{key}", "missing or non-string")
        _require(rec["src"] in objects, f"{mp}.src", f"unknown object {rec['src']}")
        _require(rec["tgt"] in objects, f"{mp}.tgt", f"unknown object {rec['tgt']}")
        morphisms.append(Morphism(rec["id"], rec["src"], rec["tgt"]))
    identity = dict(doc.get("identity", {}))
    declared = {m.id for m in morphisms}
    for obj in objects:
        if obj not in identity:
            mid = f"id:{obj}"
            _require(mid not in declared, f"{path}.identity", f"{mid} already declared")
            morphisms.append(Morphism(mid, obj, obj))
            declared.add(mid)
            identity[obj] = mid
        else:
            _require(
                identity[obj] in declared,
                f"{path}.identity.{obj}",
                f"unknown morphism {identity[obj]}",
            )
    cat = FinCat(tuple(objects), tuple(morphisms), identity, {})
    compose = cat.compose
    for g, inner in doc.get("compose", {}).items():
        _require(cat.has_morphism(g), f"{path}.compose.{g}", "unknown morphism")
        _require(isinstance(inner, dict), f"{path}.compose.{g}", "expected an object")
        for f, h in inner.items():
            _require(cat.has_morphism(f), f"{path}.compose.{g}.{f}", "unknown morphism")
            _require(isinstance(h, str) and cat.has_morphism(h), f"{path}.compose.{g}.{f}", "unknown composite")
            compose[(g, f)] = h
    # unit-law completion: composites with an identity are forced
    identities = set(identity.values())
    for g, f in cat.composable_pairs():
        if (g, f) in compose:
            continue
        if f in identities:
            compose[(g, f)] = g
        elif g in identities:
            compose[(g, f)] = f
        else:
            raise SchemaError(
                f"{path}.compose",
                f"missing composite for ({g}, {f}) not forced by unit laws",
            )
    return cat


def _build_functor(name, doc, categories):
    path = f"functors.{name}"
    _require(isinstance(doc, dict), path, "expected an object")
    for key in ("dom", "cod", "omap", "mmap"):
        _require(key in doc, f"{path}.{key}", "missing")
    _require(doc["dom"] in categories, f"{path}.dom", f"unknown category {doc['dom']}")
    _require(doc["cod"] in categories, f"{path}.cod", f"unknown category {doc['cod']}")
    dom, cod = categories[doc["dom"]], categories[doc["cod"]]
    omap = dict(doc["omap"])
    mmap = dict(doc["mmap"])
    for c in dom.objects:
        _require(c in omap, f"{path}.omap.{c}", "missing object image")
        _require(cod.has_object(omap[c]), f"{path}.omap.{c}", f"unknown object {omap[c]}")
    for m in dom.morphisms:
        if m.id not in mmap and dom.is_identity(m.id):
            mmap[m.id] = cod.identity[omap[m.src]]
        _require(m.id in mmap, f"{path}.mmap.{m.id}", "missing morphism image")
        _require(
            cod.has_morphism(mmap[m.id]),
            f"{path}.mmap.{m.id}",
            f"unknown morphism {mmap[m.id]}",
        )
    return FunctorSpec(dom, cod, omap, mmap)


def _build_presheaf(name, doc, categories):
    path = f"presheaves.{name}"
    _require(isinstance(doc, dict), path, "expected an object")
    _require(doc.get("base") in categories, f"{path}.base", "unknown category")
    base = categories[doc["base"]]
    variance = doc.get("variance", CONTRAVARIANT)
    _require(
        variance in (CONTRAVARIANT, COVARIANT), f"{path}.variance", "bad variance"
    )
    eltset = {}
    for c, elts in doc.get("eltset", {}).items():
        _require(base.has_object(c), f"{path}.eltset.{c}", "unknown object")
        eltset[c] = tuple(elts)
    for c in base.objects:
        _require(c in eltset, f"{path}.eltset.{c}", "missing element set")
    action = {}
    for mid, table in doc.get("action", {}).items():
        _require(base.has_morphism(mid), f"{path}.action.{mid}", "unknown morphism")
        action[mid] = dict(table)
    for m in base.morphisms:
        if m.id not in action and base.is_identity(m.id):
            action[m.id] = {x: x for x in eltset[m.src]}
        _require(m.id in action, f"{path}.action.{m.id}", "missing action")
    return SetValuedFunctor(base=base, variance=variance, eltset=eltset, action=action)


def load(path) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    _require(doc.get("format") == FORMAT_VERSION, "format", "expected format 1")
    ws = Workspace()
    for name, cdoc in doc.get("categories", {}).items():
        ws.categories[name] = _build_category(name, cdoc)
    for name, fdoc in doc.get("functors", {}).items():
        ws.functors[name] = _build_functor(name, fdoc, ws.categories)
    for name, pdoc in doc.get("presheaves", {}).items():
        ws.presheaves[name] = _build_presheaf(name, pdoc, ws.categories)
    for name, entries in doc.get("lexicons", {}).items():
        lpath = f"lexicons.{name}"
        _require(isinstance(entries, list), lpath, "expected a list")
        pairs = []
        for i, rec in enumerate(entries):
            _require(
                isinstance(rec, dict) and "phrase" in rec and "type" in rec,
                f"{lpath}[{i}]",
                "expected {phrase, type}",
            )
            pairs.append((rec["phrase"], rec["type"]))
        ws.lexicons[name] = pairs
    for name, sentences in doc.get("corpora", {}).items():
        cpath = f"corpora.{name}"
        _require(isinstance(sentences, list), cpath, "expected a list")
        toks = []
        for i, s in enumerate(sentences):
            if isinstance(s, str):
                toks.append(s.split())
            elif isinstance(s, list) and all(isinstance(t, str) for t in s):
                toks.append(list(s))
            else:
                raise SchemaError(f"{cpath}[{i}]", "expected a string or token list")
        ws.corpora[name] = toks
    _validate_workspace(ws)
    return ws


def _validate_workspace(ws: Workspace):
    violations = []

    def collect(report, where):
        for v in report.violations:
            violations.append({"law": f"{where}: {v['law']}", "witness": v["witness"]})

    try:
        for name, cat in ws.categories.items():
            collect(validate_category(cat), f"categories.{name}")
        for name, F in ws.functors.items():
            collect(validate_functor(F), f"functors.{name}")
        for name, W in ws.presheaves.items():
            collect(validate_set_valued(W), f"presheaves.{name}")
        for name, pairs in ws.lexicons.items():
            pregroup.make_lexicon(pairs)
    except MalformedSpec as exc:
        raise SchemaError("$", str(exc)) from exc
    if violations:
        raise ValidationError(ValidationReport.from_violations(violations))


def save(ws: Workspace, path):
    doc = {"format": FORMAT_VERSION, "categories": {}, "functors": {},
           "presheaves": {}, "lexicons": {}, "corpora": {}}
    for name in sorted(ws.categories):
        c = ws.categories[name]
        doc["categories"][name] = {
            "objects": list(c.objects),
            "morphisms": [{"id": m.id, "src": m.src, "tgt": m.tgt} for m in c.morphisms],
            "identity": {o: c.identity[o] for o in sorted(c.identity)},
            "compose": _compose_doc(c),
        }
    for name in sorted(ws.functors):
        F = ws.functors[name]
        doc["functors"][name] = {
            "dom": _category_name(ws, F.dom),
            "cod": _category_name(ws, F.cod),
            "omap": {k: F.omap[k] for k in sorted(F.omap)},
            "mmap": {k: F.mmap[k] for k in sorted(F.mmap)},
        }
    for name in sorted(ws.presheaves):
        W = ws.presheaves[name]
        doc["presheaves"][name] = {
            "base": _category_name(ws, W.base),
            "variance": W.variance,
            "eltset": {c: list(W.eltset[c]) for c in sorted(W.eltset)},
            "action": {
                m: {k: W.action[m][k] for k in sorted(W.action[m])}
                for m in sorted(W.action)
            },
        }
    for name in sorted(ws.lexicons):
        doc["lexicons"][name] = [
            {"phrase": phrase, "type": text} for phrase, text in ws.lexicons[name]
        ]
    for name in sorted(ws.corpora):
        doc["corpora"][name] = [list(s) for s in ws.corpora[name]]
    text = json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _compose_doc(c: FinCat):
    out = {}
    for (g, f), h in c.compose.items():
        out.setdefault(g, {})[f] = h
    return {g: {f: out[g][f] for f in sorted(out[g])} for g in sorted(out)}


def _category_name(ws, cat):
    for name, c in ws.categories.items():
        if c is cat:
            return name
    raise UnknownName("category is not part of the workspace")


# --- DOT export -----------------------------------------------------------


def _dot_quote(s):
    return '"' + s.replace('"', '\\"') + '"'


def dot_export(ws: Workspace, name) -> str:
    """DOT text for a named category, or for a named functor rendered as a
    fibration: fibres as clusters over base nodes, reindexing edges
    between fibre elements."""
    if name in ws.categories:
        c = ws.categories[name]
        lines = ["digraph {", "  rankdir=LR;"]
        for o in c.objects:
            lines.append(f"  {_dot_quote(o)};")
        for m in c.morphisms:
            if not c.is_identity(m.id):
                lines.append(
                    f"  {_dot_quote(m.src)} -> {_dot_quote(m.tgt)}"
                    f" [label={_dot_quote(m.id)}];"
                )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if name in ws.functors:
        p = ws.functors[name]
        base = p.cod
        lines = ["digraph {", "  rankdir=LR;", "  compound=true;"]
        for i, c in enumerate(base.objects):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f"    label={_dot_quote(c)};")
            for e in fibre(p, c).elements:
                lines.append(f"    {_dot_quote(e)};")
            lines.append("  }")
        for m in p.dom.morphisms:
            if not p.dom.is_identity(m.id):
                lines.append(
                    f"  {_dot_quote(m.src)} -> {_dot_quote(m.tgt)}"
                    f" [label={_dot_quote(p.mmap[m.id])}];"
                )
        for c in base.objects:
            lines.append(f"  {_dot_quote('base:' + c)} [shape=box];")
        for m in base.morphisms:
            if not base.is_identity(m.id):
                lines.append(
                    f"  {_dot_quote('base:' + m.src)} -> {_dot_quote('base:' + m.tgt)}"
                    f" [label={_dot_quote(m.id)}];"
                )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise UnknownName(name)


# --- command implementations ---------------------------------------------


def _emit(out, key, value):
    print(f"{key}: {value}", file=out)


def _report_lines(out, report):
    for v in report.violations:
        _emit(out, "VIOLATION", f"{v['law']} {v['witness']}")


def _get(ws_map, name, kind):
    if name not in ws_map:
        raise UnknownName(f"no {kind} named {name!r}")
    return ws_map[name]


def cmd_validate(args, out):
    ws = load(args.workspace)  # eager validation happens here
    _emit(out, "OK", f"workspace valid ({len(ws.categories)} categories)")
    return 0


def cmd_fibres(args, out):
    ws = load(args.workspace)
    p = _get(ws.functors, args.functor, "functor")
    for c in p.cod.objects:
        fb = fibre(p, c)
        _emit(out, c, " ".join(fb.elements))
    return 0


def cmd_reindex(args, out):
    ws = load(args.workspace)
    p = _get(ws.functors, args.functor, "functor")
    r = reindex(p, args.morphism)
    for x, y in r.table.items():
        print(f"{x} -> {y}", file=out)
    return 0


def cmd_check_fib(args, out):
    ws = load(args.workspace)
    p = _get(ws.functors, args.functor, "functor")
    if args.cloven:
        result = is_fibration(p)
        if result["ok"]:
            _emit(out, "OK", "cloven fibration")
            for (e, u), lift in result["cleavage"].items():
                _emit(out, "LIFT", f"({e}, {u}) -> {lift}")
            return 0
        _emit(out, "FAIL", "not a fibration")
        for v in result["violations"]:
            _emit(out, "VIOLATION", f"{v['law']} {v['witness']}")
        return 1
    report = is_discrete_fibration(p)
    if report.ok:
        _emit(out, "OK", "discrete fibration")
        return 0
    _emit(out, "FAIL", "not a discrete fibration")
    _report_lines(out, report)
    return 1


def cmd_elements(args, out):
    ws = load(args.workspace)
    W = _get(ws.presheaves, args.presheaf, "presheaf")
    built = groth.elements(W)
    for o in built.total.objects:
        _emit(out, "OBJECT", o)
    for m in built.total.morphisms:
        if not built.total.is_identity(m.id):
            _emit(out, "MORPHISM", f"{m.id} : {m.src} -> {m.tgt}")
    return 0


def cmd_straighten(args, out):
    ws = load(args.workspace)
    p = _get(ws.functors, args.functor, "functor")
    W = groth.straighten(p)
    for c in W.base.objects:
        _emit(out, c, " ".join(W.eltset[c]))
    for m in W.base.morphisms:
        if not W.base.is_identity(m.id):
            table = ", ".join(f"{k}->{v}" for k, v in W.action[m.id].items())
            _emit(out, m.id, f"{{{table}}}")
    return 0


def cmd_roundtrip(args, out):
    ws = load(args.workspace)
    if args.name in ws.presheaves:
        witness = groth.roundtrip_presheaf(ws.presheaves[args.name])
    elif args.name in ws.functors:
        witness = groth.roundtrip_fibration(ws.functors[args.name])
    else:
        raise UnknownName(args.name)
    _emit(out, "CHECKED", str(witness.checked).lower())
    return 0


def cmd_factorize(args, out):
    ws = load(args.workspace)
    F = _get(ws.functors, args.functor, "functor")
    if args.fib:
        fac = factor_mod.comprehensive_factor_fib(F)
    else:
        fac = factor_mod.comprehensive_factor_opfib(F)
    _emit(out, "VARIANT", fac.variant)
    _emit(out, "MID-OBJECTS", " ".join(fac.mid.objects))
    for c in F.dom.objects:
        _emit(out, "S", f"{c} -> {fac.s.omap[c]}")
    return 0


def cmd_check_initial(args, out):
    ws = load(args.workspace)
    s = _get(ws.functors, args.functor, "functor")
    report = factor_mod.is_initial(s)
    if report.ok:
        _emit(out, "OK", "initial functor")
        return 0
    _emit(out, "FAIL", "not initial")
    _report_lines(out, report)
    return 1


def cmd_check_final(args, out):
    ws = load(args.workspace)
    s = _get(ws.functors, args.functor, "functor")
    report = factor_mod.is_final(s)
    if report.ok:
        _emit(out, "OK", "final functor")
        return 0
    _emit(out, "FAIL", "not final")
    _report_lines(out, report)
    return 1


def _print_category(cat, out):
    for o in cat.objects:
        _emit(out, "OBJECT", o)
    for m in cat.morphisms:
        if not cat.is_identity(m.id):
            _emit(out, "MORPHISM", f"{m.id} : {m.src} -> {m.tgt}")


def cmd_comma(args, out):
    ws = load(args.workspace)
    F = _get(ws.functors, args.F, "functor")
    G = _get(ws.functors, args.G, "functor")
    _print_category(comma(F, G).cat, out)
    return 0


def cmd_pullback(args, out):
    ws = load(args.workspace)
    F = _get(ws.functors, args.F, "functor")
    G = _get(ws.functors, args.G, "functor")
    _print_category(pullback(F, G).cat, out)
    return 0


def cmd_mcg(args, out):
    ids = args.objects.split(",") if "," in args.objects else None
    if ids is None:
        try:
            n = int(args.objects)
        except ValueError:
            ids = [args.objects] if args.objects else []
        else:
            ids = [str(i) for i in range(n)]
    _print_category(make_mcg(ids), out)
    return 0


def cmd_classify_mcg(args, out):
    ws = load(args.workspace)
    p = _get(ws.functors, args.functor, "functor")
    cls = classify_over_mcg(p)
    _emit(out, "FIBRE-SET", " ".join(cls.fibre_set))
    for e in p.dom.objects:
        _emit(out, "H", f"{e} -> {cls.iso.omap[e]}")
    return 0


def cmd_parse(args, out):
    ws = load(args.lexicon)
    if args.lexicon_name:
        pairs = _get(ws.lexicons, args.lexicon_name, "lexicon")
    elif len(ws.lexicons) == 1:
        pairs = next(iter(ws.lexicons.values()))
    else:
        raise UnknownName("workspace has several lexicons; pass --lexicon-name")
    lex = pregroup.make_lexicon(pairs, args.convention)
    target = pregroup.parse_type(args.target, args.convention)
    result = pregroup.parse_sentence(args.sentence.split(), lex, target)
    if isinstance(result, pregroup.ParseFailure):
        _emit(out, "FAIL", result.kind)
        _emit(out, "DETAIL", result.detail)
        return 1
    for phrase, ptype in zip(result.segmentation, result.types):
        _emit(out, "SEGMENT", f"[{' '.join(phrase)}] : {pregroup.format_type(ptype, args.convention)}")
    for step in result.witness.steps:
        z, z2 = step.cancelled_exponents
        _emit(out, "STEP", f"position {step.position} cancels ({step.cancelled_base},{z})({step.cancelled_base},{z2})")
    _emit(out, "RESULT", pregroup.format_type(result.witness.end, args.convention))
    return 0


def cmd_semantics(args, out):
    ws = load(args.workspace)
    pairs = _get(ws.lexicons, args.lexicon, "lexicon")
    corpus = _get(ws.corpora, args.corpus, "corpus")
    lex = pregroup.make_lexicon(pairs, args.convention)
    target = pregroup.parse_type(args.target, args.convention)
    sem = pregroup.build_semantics(corpus, lex, target, args.convention)
    for oid in sem.base.objects:
        _emit(out, "FIBRE-SIZE", f"{oid} = {len(sem.presheaf.eltset[oid])}")
    ok = is_discrete_fibration(sem.fibration.projection).ok
    _emit(out, "DISCRETE-FIBRATION", str(ok).lower())
    return 0 if ok else 1


def cmd_dot(args, out):
    ws = load(args.workspace)
    print(dot_export(ws, args.name), file=out, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fibcat",
        description="Finite categories, fibrations, and the pregroup toy semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = cmd("validate", cmd_validate, help="validate a workspace file")
    p.add_argument("workspace")

    p = cmd("fibres", cmd_fibres, help="list fibres of a functor")
    p.add_argument("workspace")
    p.add_argument("functor")

    p = cmd("reindex", cmd_reindex, help="reindexing table along a base morphism")
    p.add_argument("workspace")
    p.add_argument("functor")
    p.add_argument("morphism")

    p = cmd("check-fib", cmd_check_fib, help="discrete or cloven fibration check")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--discrete", action="store_true")
    group.add_argument("--cloven", action="store_true")
    p.add_argument("workspace")
    p.add_argument("functor")

    p = cmd("elements", cmd_elements, help="category of elements of a presheaf")
    p.add_argument("workspace")
    p.add_argument("presheaf")

    p = cmd("straighten", cmd_straighten, help="presheaf of fibres of a discrete fibration")
    p.add_argument("workspace")
    p.add_argument("functor")

    p = cmd("roundtrip", cmd_roundtrip, help="verify the equivalence witnesses")
    p.add_argument("workspace")
    p.add_argument("name")

    p = cmd("factorize", cmd_factorize, help="comprehensive factorization")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fib", action="store_true")
    group.add_argument("--opfib", action="store_true")
    p.add_argument("workspace")
    p.add_argument("functor")

    p = cmd("check-initial", cmd_check_initial, help="initial-functor check")
    p.add_argument("workspace")
    p.add_argument("functor")

    p = cmd("check-final", cmd_check_final, help="final-functor check")
    p.add_argument("workspace")
    p.add_argument("functor")

    p = cmd("comma", cmd_comma, help="comma category of two functors")
    p.add_argument("workspace")
    p.add_argument("F")
    p.add_argument("G")

    p = cmd("pullback", cmd_pullback, help="strict pullback of two functors")
    p.add_argument("workspace")
    p.add_argument("F")
    p.add_argument("G")

    p = cmd("mcg", cmd_mcg, help="maximally connected groupoid on a set")
    p.add_argument("objects", help="a count or a comma-separated object list")

    p = cmd("classify-mcg", cmd_classify_mcg, help="classify a fibration over an MCG")
    p.add_argument("workspace")
    p.add_argument("functor")

    p = cmd("parse", cmd_parse, help="pregroup parse of a sentence")
    p.add_argument("--lexicon", required=True, help="workspace file holding the lexicon")
    p.add_argument("--lexicon-name", default=None)
    p.add_argument("--target", default="s")
    p.add_argument("--convention", choices=("paper", "lambek"), default="paper")
    p.add_argument("sentence")

    p = cmd("semantics", cmd_semantics, help="build the toy semantics from a corpus")
    p.add_argument("workspace")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", default="s")
    p.add_argument("--convention", choices=("paper", "lambek"), default="paper")

    p = cmd("dot", cmd_dot, help="DOT export of a category or fibration")
    p.add_argument("workspace")
    p.add_argument("name")

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args, out)
    except ValidationError as exc:
        _emit(out, "FAIL", "validation")
        _report_lines(out, exc.report)
        return 1
    except (IoError, SchemaError, UnknownName) as exc:
        _emit(out, "ERROR", str(exc))
        return 2
    except FibcatError as exc:
        _emit(out, "FAIL", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
