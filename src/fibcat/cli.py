"""Workspace file format, command-line surface, and DOT export.

A workspace is a single JSON document with named categories, functors,
presheaves, lexicons and corpora.  Identity morphisms may be omitted in
files and are synthesized on load (named "id:<object>"), and the
composites forced by the unit laws may be omitted, as they are read by
rule; any other missing composite is a SchemaError, as is any id that
fails ``fincat.is_plain_id``.  The id rule is checked once per list of ids
(a category's objects, its morphism ids, an element set, a sentence), and
each id on its own only where the list fails, to name the first that does.

``load`` builds each category, functor and presheaf and validates it before
it builds the next.  Each record field has one check, whose raise alone
formats the record's path.  A file that is not UTF-8 JSON, or that nests
too deeply to decode, is a SchemaError at "$", as is one with a \\u escape
that gives a lone surrogate, which no output could encode.
Besides the category names a functor or presheaf refers to, it resolves
only the ``compose`` keys; every other reference is resolved once, by the
fincat validator of the structure, which for a functor resolves the keys of
its ``omap`` and ``mmap`` too.  Each non-empty ``compose`` row of the
file is kept, uncopied, as the category's row, and the table holds nothing
else.  When every identity has the right ends, the unit composites are
lawful by rule, so the category's check reads only the file's own entries.
``load`` prefixes the path of the validator's MalformedSpec with the
structure's place in the workspace, reads a missing composite off its
composition-totality violations, and raises the law violations of all
structures in one ValidationError.  The validators keep their reports on
the categories, functors and presheaves they check, so a command that
validates a loaded one again, as ``elements`` does, or reads its report,
as ``check-fib --cloven`` does, reads the kept report.  Each
distinct lexicon type text is parsed, each phrase split, and each
lexicon's pregroup.Lexicon built, once per load; a phrase or string
sentence without "(", ")" or "|" needs none of its words checked against
the id rule.  ``save`` writes the lexicon entries as the file wrote them,
and emits a canonical form, with sorted rows that hold the unit composites
too, so save . load is byte-stable.  Each command writes its output to
``out``, one write per line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from dataclasses import dataclass, field

from . import factor as factor_mod
from . import groth, pregroup
from .mcg import classify_over_mcg, mcg_walk
from .errors import (
    FibcatError,
    IoError,
    MalformedSpec,
    SchemaError,
    TypeSyntaxError,
    UnknownMorphism,
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
    _ID_RULE,
    CONTRAVARIANT,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    ValidationReport,
    _first_bad_id,
    _with_unit_pairs,
    comma_walk,
    is_plain_id,
    pullback_walk,
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
    # name -> (pregroup.Lexicon, ((phrase, type text), ...) as written)
    lexicons: dict = field(default_factory=dict)
    corpora: dict = field(default_factory=dict)  # name -> list of token lists


def _require(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def _bracketed(text):
    """True if text holds "(", ")" or "|"; without them, text and each of
    its words pass the id rule."""
    return "(" in text or ")" in text or "|" in text


def _require_ids(ids, path):
    i = _first_bad_id(ids)
    if i is not None:
        raise SchemaError(f"{path}[{i}]", _ID_RULE)


def _object(doc, key, path):
    value = doc.get(key, {})
    _require(isinstance(value, dict), path, "expected an object")
    return value


def _str_map(value, path):
    if not (isinstance(value, dict) and all(isinstance(v, str) for v in value.values())):
        raise SchemaError(path, "expected an object of strings")
    return dict(value)


def _id_list(value, path):
    """value, a list of strings that each pass the id rule."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise SchemaError(path, "expected a list of strings")
    _require_ids(value, path)
    return value


def _validated(where, validate, x, violations):
    """The report of validate(x), after appending its law violations,
    prefixed by where, to violations; a MalformedSpec becomes a SchemaError
    at where."""
    try:
        report = validate(x)
    except MalformedSpec as exc:
        raise SchemaError(f"{where}.{exc.path}", exc.message) from exc
    violations.extend(
        {"law": f"{where}: {v['law']}", "witness": v["witness"]} for v in report.violations
    )
    return report


def _morphisms(records, path):
    """The Morphisms of the records at path; a SchemaError names the first
    defect, where a record's fields are checked before its id's rule."""
    morphisms = []
    for i, rec in enumerate(records):
        if isinstance(rec, dict):
            mid, src, tgt = rec.get("id"), rec.get("src"), rec.get("tgt")
            if isinstance(mid, str) and isinstance(src, str) and isinstance(tgt, str):
                morphisms.append(Morphism(mid, src, tgt))
                continue
        _require_morphism_ids(morphisms, path)  # an earlier bad id is the first defect
        _require(isinstance(rec, dict), f"{path}[{i}]", "expected an object")
        key = next(k for k in ("id", "src", "tgt") if not isinstance(rec.get(k), str))
        raise SchemaError(f"{path}[{i}].{key}", "missing or non-string")
    _require_morphism_ids(morphisms, path)
    return morphisms


def _require_morphism_ids(morphisms, path):
    i = _first_bad_id([m.id for m in morphisms])
    if i is not None:
        raise SchemaError(f"{path}[{i}].id", _ID_RULE)


def _build_category(name, doc, violations):
    """The category of doc, its table the file's non-empty rows."""
    path = f"categories.{name}"
    _require(isinstance(doc, dict), path, "expected an object")
    _require("objects" in doc, path, "missing 'objects'")
    mpath = f"{path}.morphisms"
    _require("morphisms" in doc, mpath, "missing 'morphisms'")
    objects = _id_list(doc["objects"], f"{path}.objects")
    _require(isinstance(doc["morphisms"], list), mpath, "expected a list")
    morphisms = _morphisms(doc["morphisms"], mpath)
    identity = _str_map(doc.get("identity", {}), f"{path}.identity")
    declared = {m.id for m in morphisms}
    for obj in objects:
        if obj not in identity:
            mid = f"id:{obj}"
            if mid in declared:
                raise SchemaError(f"{path}.identity", f"{mid} already declared")
            morphisms.append(Morphism(mid, obj, obj))
            identity[obj] = mid
    cat = FinCat(tuple(objects), tuple(morphisms), identity, {})
    for g, row in _object(doc, "compose", f"{path}.compose").items():
        if not cat.has_morphism(g):
            raise SchemaError(f"{path}.compose.{g}", "unknown morphism")
        if not isinstance(row, dict):
            raise SchemaError(f"{path}.compose.{g}", "expected an object")
        for f, h in row.items():
            if not isinstance(h, str):
                raise SchemaError(f"{path}.compose.{g}.{f}", "unknown composite")
        if row:
            cat.compose[g] = row
    # validate_category reads the composites the unit laws force by rule, so
    # a missing one is not forced; it checks references before laws, so a
    # dangling end is reported as such, not as a missing composite
    report = _validated(path, validate_category, cat, violations)
    totality = (v["witness"] for v in report.violations if v["law"] == "composition-totality")
    missing = next(totality, None)
    if missing is not None:
        raise SchemaError(
            f"{path}.compose",
            "missing composite for ({}, {}) not forced by unit laws".format(*missing),
        )
    return cat


def _build_functor(name, doc, categories, violations):
    path = f"functors.{name}"
    _require(isinstance(doc, dict), path, "expected an object")
    for key in ("dom", "cod", "omap", "mmap"):
        _require(key in doc, f"{path}.{key}", "missing")
    for key in ("dom", "cod"):
        cname = doc[key]
        ok = isinstance(cname, str) and cname in categories
        _require(ok, f"{path}.{key}", f"unknown category {cname}")
    dom, cod = categories[doc["dom"]], categories[doc["cod"]]
    omap = _str_map(doc["omap"], f"{path}.omap")
    mmap = _str_map(doc["mmap"], f"{path}.mmap")
    for i in dom.identity.values():
        if i not in mmap and dom.is_identity(i) and omap.get(dom.src(i)) in cod.identity:
            mmap[i] = cod.identity[omap[dom.src(i)]]
    F = FunctorSpec(dom, cod, omap, mmap)
    _validated(path, validate_functor, F, violations)
    return F


def _build_presheaf(name, doc, categories, violations):
    path = f"presheaves.{name}"
    _require(isinstance(doc, dict), path, "expected an object")
    base_name = doc.get("base")
    ok = isinstance(base_name, str) and base_name in categories
    _require(ok, f"{path}.base", "unknown category")
    base = categories[base_name]
    variance = doc.get("variance", CONTRAVARIANT)
    eltset = {
        c: tuple(_id_list(elts, f"{path}.eltset.{c}"))
        for c, elts in _object(doc, "eltset", f"{path}.eltset").items()
    }
    action = {
        mid: _str_map(table, f"{path}.action.{mid}")
        for mid, table in _object(doc, "action", f"{path}.action").items()
    }
    for i in base.identity.values():
        if i not in action and base.is_identity(i) and base.src(i) in eltset:
            action[i] = {x: x for x in eltset[base.src(i)]}
    W = SetValuedFunctor(base=base, variance=variance, eltset=eltset, action=action)
    _validated(path, validate_set_valued, W, violations)
    return W


def _type(text, path):
    """The type text parsed; it must also pass the id rule."""
    if not (isinstance(text, str) and is_plain_id(text)):
        raise SchemaError(path, f"expected a string in which {_ID_RULE}")
    try:
        return pregroup.parse_type(text)
    except TypeSyntaxError as exc:
        raise SchemaError(path, str(exc)) from exc


def _build_lexicon(name, entries, parsed):
    """The Lexicon of entries, and their (phrase, type text) pairs as
    written; each type must parse, each phrase occurs once and is
    non-empty.  parsed maps each type text already parsed in this load to
    its type, so each is parsed once."""
    lpath = f"lexicons.{name}"
    _require(isinstance(entries, list), lpath, "expected a list")
    index, written = {}, []  # phrase words -> type
    for i, rec in enumerate(entries):
        if not (isinstance(rec, dict) and "phrase" in rec and "type" in rec):
            raise SchemaError(f"{lpath}[{i}]", "expected {phrase, type}")
        phrase, text = rec["phrase"], rec["type"]
        tokens = tuple(phrase.split()) if isinstance(phrase, str) else ()
        if not tokens or tokens in index or _first_bad_id(tokens) is not None:
            problem = f"expected a new, non-empty phrase; in its words {_ID_RULE}"
            raise SchemaError(f"{lpath}[{i}].phrase", problem)
        try:
            index[tokens] = parsed[text]
        except (KeyError, TypeError):  # a new text, or a list or object
            index[tokens] = parsed[text] = _type(text, f"{lpath}[{i}].type")
        written.append((phrase, text))
    return pregroup.Lexicon(tuple(index.items())), tuple(written)


def _build_corpus(name, sentences):
    cpath = f"corpora.{name}"
    _require(isinstance(sentences, list), cpath, "expected a list")
    toks = []
    for i, s in enumerate(sentences):
        if isinstance(s, str):
            toks.append(s.split())
            if not _bracketed(s):
                continue
        elif isinstance(s, list) and all(isinstance(t, str) for t in s):
            toks.append(list(s))
        else:
            raise SchemaError(f"{cpath}[{i}]", "expected a string or token list")
        _require_ids(toks[-1], f"{cpath}[{i}]")
    return toks


def load(path) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if "\\u" in text:  # only a \u escape can give a lone surrogate, which no output encodes
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError("$", "a \\u escape gives a lone surrogate") from None
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    version = doc.get("format")  # JSON true equals 1 in Python
    _require(version == FORMAT_VERSION and version is not True, "format", "expected format 1")
    ws, violations, parsed = Workspace(), [], {}
    for name, cdoc in _object(doc, "categories", "categories").items():
        ws.categories[name] = _build_category(name, cdoc, violations)
    for name, fdoc in _object(doc, "functors", "functors").items():
        ws.functors[name] = _build_functor(name, fdoc, ws.categories, violations)
    for name, pdoc in _object(doc, "presheaves", "presheaves").items():
        ws.presheaves[name] = _build_presheaf(name, pdoc, ws.categories, violations)
    for name, entries in _object(doc, "lexicons", "lexicons").items():
        ws.lexicons[name] = _build_lexicon(name, entries, parsed)
    for name, sentences in _object(doc, "corpora", "corpora").items():
        ws.corpora[name] = _build_corpus(name, sentences)
    if violations:
        raise ValidationError(ValidationReport(tuple(violations)))
    return ws


def save(ws: Workspace, path):
    # a category saved under two names keeps the first: reversed, it is written last
    names = {id(c): name for name, c in reversed(ws.categories.items())}
    doc = {"format": FORMAT_VERSION, "categories": {}, "functors": {},
           "presheaves": {}, "lexicons": {}, "corpora": {}}
    for name in sorted(ws.categories):
        c = ws.categories[name]
        table = _with_unit_pairs(c)
        doc["categories"][name] = {
            "objects": list(c.objects),
            "morphisms": [{"id": m.id, "src": m.src, "tgt": m.tgt} for m in c.morphisms],
            "identity": {o: c.identity[o] for o in sorted(c.identity)},
            "compose": {g: dict(sorted(table[g].items())) for g in sorted(table)},
        }
    for name in sorted(ws.functors):
        F = ws.functors[name]
        doc["functors"][name] = {
            "dom": _category_name(names, F.dom),
            "cod": _category_name(names, F.cod),
            "omap": {k: F.omap[k] for k in sorted(F.omap)},
            "mmap": {k: F.mmap[k] for k in sorted(F.mmap)},
        }
    for name in sorted(ws.presheaves):
        W = ws.presheaves[name]
        doc["presheaves"][name] = {
            "base": _category_name(names, W.base),
            "variance": W.variance,
            "eltset": {c: list(W.eltset[c]) for c in sorted(W.eltset)},
            "action": {
                m: {k: W.action[m][k] for k in sorted(W.action[m])}
                for m in sorted(W.action)
            },
        }
    for name in sorted(ws.lexicons):
        doc["lexicons"][name] = [
            {"phrase": phrase, "type": text} for phrase, text in ws.lexicons[name][1]
        ]
    for name in sorted(ws.corpora):
        doc["corpora"][name] = [list(s) for s in ws.corpora[name]]
    text = json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _category_name(names, cat):
    try:
        return names[id(cat)]
    except KeyError:
        raise UnknownName("category is not part of the workspace") from None


# --- DOT export -----------------------------------------------------------


def _dot_quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_edges(cat, label, prefix=""):
    """One labelled edge per non-identity morphism of cat."""
    return [
        f"  {_dot_quote(prefix + m.src)} -> {_dot_quote(prefix + m.tgt)}"
        f" [label={_dot_quote(label(m.id))}];"
        for m in cat.morphisms
        if not cat.is_identity(m.id)
    ]


def dot_export(ws: Workspace, name) -> str:
    """DOT text for a named category, or for a named functor rendered as a
    fibration: fibres as clusters over base nodes, reindexing edges
    between fibre elements."""
    if name in ws.categories:
        c = ws.categories[name]
        lines = ["digraph {", "  rankdir=LR;"]
        lines += [f"  {_dot_quote(o)};" for o in c.objects]
        lines += _dot_edges(c, str)
    elif name in ws.functors:
        p = ws.functors[name]
        base = p.cod
        lines = ["digraph {", "  rankdir=LR;", "  compound=true;"]
        for i, c in enumerate(base.objects):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f"    label={_dot_quote(c)};")
            lines += [f"    {_dot_quote(e)};" for e in fibre(p, c).elements]
            lines.append("  }")
        lines += _dot_edges(p.dom, lambda mid: p.mmap[mid])
        lines += [f"  {_dot_quote('base:' + c)} [shape=box];" for c in base.objects]
        lines += _dot_edges(base, str, "base:")
    else:
        raise UnknownName(name)
    return "\n".join(lines + ["}"]) + "\n"


# --- command implementations ---------------------------------------------


def _emit(out, key, value):
    out.write(f"{key}: {value}\n")


def _verdict(out, report, ok_text, fail_text):
    if report.ok:
        _emit(out, "OK", ok_text)
        return 0
    _emit(out, "FAIL", fail_text)
    for v in report.violations:
        _emit(out, "VIOLATION", f"{v['law']} {v['witness']}")
    return 1


def _get(ws_map, name, kind):
    if name not in ws_map:
        raise UnknownName(f"no {kind} named {name!r}")
    return ws_map[name]


def _functor(ws, args):
    return _get(ws.functors, args.functor, "functor")


def _print_category(cat, out):
    for o in cat.objects:
        _emit(out, "OBJECT", o)
    for m in cat.morphisms:
        if not cat.is_identity(m.id):
            _emit(out, "MORPHISM", f"{m.id} : {m.src} -> {m.tgt}")


def cmd_validate(args, ws, out):
    _emit(out, "OK", f"workspace valid ({len(ws.categories)} categories)")


def cmd_fibres(args, ws, out):
    p = _functor(ws, args)
    for c in p.cod.objects:
        _emit(out, c, " ".join(fibre(p, c).elements))


def cmd_reindex(args, ws, out):
    r = reindex(_functor(ws, args), args.morphism)
    for x, y in r.table.items():
        out.write(f"{x} -> {y}\n")


def cmd_check_fib(args, ws, out):
    p = _functor(ws, args)
    if args.discrete:
        report = is_discrete_fibration(p)
        return _verdict(out, report, "discrete fibration", "not a discrete fibration")
    report = is_fibration(p)
    code = _verdict(out, report, "cloven fibration", "not a fibration")
    if report.ok:
        for (e, u), lift in report.witness.items():
            _emit(out, "LIFT", f"({e}, {u}) -> {lift}")
    return code


def cmd_elements(args, ws, out):
    W = _get(ws.presheaves, args.presheaf, "presheaf")
    _print_category(groth.elements(W).total, out)


def cmd_straighten(args, ws, out):
    W = groth.straighten(_functor(ws, args))
    for c in W.base.objects:
        _emit(out, c, " ".join(W.eltset[c]))
    for m in W.base.morphisms:
        if not W.base.is_identity(m.id):
            table = ", ".join(f"{k}->{v}" for k, v in W.action[m.id].items())
            _emit(out, m.id, f"{{{table}}}")


def cmd_roundtrip(args, ws, out):
    if args.name in ws.presheaves:
        groth.roundtrip_presheaf(ws.presheaves[args.name])
    elif args.name in ws.functors:
        groth.roundtrip_fibration(ws.functors[args.name])
    else:
        raise UnknownName(args.name)
    _emit(out, "CHECKED", "true")


def cmd_factorize(args, ws, out):
    F = _functor(ws, args)
    if args.fib:
        fac = factor_mod.comprehensive_factor_fib(F)
    else:
        fac = factor_mod.comprehensive_factor_opfib(F)
    _emit(out, "VARIANT", fac.variant)
    _emit(out, "MID-OBJECTS", " ".join(fac.mid.objects))
    for c in F.dom.objects:
        _emit(out, "S", f"{c} -> {fac.s.omap[c]}")


def cmd_check_comma(args, ws, out):
    """check-initial and check-final; the check is looked up on each call,
    since the parser outlives a rebinding of factor.is_initial or is_final."""
    kind = args.command[len("check-"):]
    check = factor_mod.is_initial if kind == "initial" else factor_mod.is_final
    report = check(_functor(ws, args))
    return _verdict(out, report, f"{kind} functor", f"not {kind}")


def cmd_comma(args, ws, out):
    """comma and pullback print the objects and morphisms of their walk and
    build no table or projection; the walk is looked up on each call like
    cmd_check_comma's check."""
    F = _get(ws.functors, args.F, "functor")
    G = _get(ws.functors, args.G, "functor")
    walk = comma_walk if args.command == "comma" else pullback_walk
    _print_category(walk(F, G)[0], out)


def cmd_mcg(args, ws, out):
    """mcg prints the objects and morphisms of mcg_walk, which checks every
    name before the first line is written and builds no table."""
    arg = args.objects  # a count only as ASCII digits: "1_0", "+3" and "٣" are names
    if re.fullmatch(r"-?[0-9]+", arg):
        # int() refuses more digits (Python 3.11), and no such mcg could be built
        _require(len(arg) <= 4300, "objects", "count too large")
        _require(int(arg) >= 0, "objects", "negative count")
        ids = [str(i) for i in range(int(arg))]
    else:
        ids = arg.split(",") if arg else []
    _print_category(mcg_walk(ids), out)


def cmd_classify_mcg(args, ws, out):
    p = _functor(ws, args)
    cls = classify_over_mcg(p)
    _emit(out, "FIBRE-SET", " ".join(cls.fibre_set))
    for e in p.dom.objects:
        _emit(out, "H", f"{e} -> {cls.iso.omap[e]}")


def cmd_parse(args, ws, out):
    if not args.lexicon_name and len(ws.lexicons) != 1:
        what = "several lexicons; pass --lexicon-name" if ws.lexicons else "no lexicon"
        raise UnknownName(f"workspace has {what}")
    lex, _ = _get(ws.lexicons, args.lexicon_name or next(iter(ws.lexicons)), "lexicon")
    target = _type(args.target, "--target")
    result = pregroup.parse_sentence(args.sentence.split(), lex, target, args.convention)
    if isinstance(result, pregroup.ParseFailure):
        _emit(out, "FAIL", result.kind)
        _emit(out, "DETAIL", pregroup.describe(result))
        return 1
    for phrase, ptype in zip(result.segmentation, result.types):
        _emit(out, "SEGMENT", f"[{' '.join(phrase)}] : {pregroup.format_type(ptype)}")
    for step in result.witness.steps:
        # each exponent times the convention's d, so the pair reads (z, z+1) in both; the
        # benchmark's step check (bench/grammar.py, _STEP) replays these integers, so the
        # line can print the pair in type syntax only once that check reads it
        z, z2 = (pregroup.CONVENTIONS[args.convention] * z for z in step.cancelled_exponents)
        _emit(out, "STEP", f"position {step.position} cancels ({step.cancelled_base},{z})({step.cancelled_base},{z2})")
    _emit(out, "RESULT", pregroup.format_type(result.witness.end))


def cmd_semantics(args, ws, out):
    """W's fibre sizes, a tensor's the product of its factors' sizes, and
    DISCRETE-FIBRATION as pregroup.semantics_verdict(W), which reads
    validate_set_valued(W).ok off the generating data: the projection of
    elements(W) has one lift per element and arrow iff each action is a
    total function into the right set, elements(W) is a category iff W is
    functorial, and plain ids keep element ids distinct.  No product is
    listed, so the command takes time linear in the corpus and lexicon."""
    lex, _ = _get(ws.lexicons, args.lexicon, "lexicon")
    corpus = _get(ws.corpora, args.corpus, "corpus")
    W = pregroup.build_semantics(corpus, lex, _type(args.target, "--target"), args.convention)
    for oid in W.base.objects:
        elts = W.eltset[oid]
        size = elts.size if isinstance(elts, pregroup.Product) else len(elts)
        _emit(out, "FIBRE-SIZE", f"{oid} = {size}")
    ok = pregroup.semantics_verdict(W)
    _emit(out, "DISCRETE-FIBRATION", str(ok).lower())
    return 0 if ok else 1


def cmd_dot(args, ws, out):
    out.write(dot_export(ws, args.name))


@functools.cache
def build_parser():
    """The one parser of this process, built on first use and shared, so
    callers must not add to it.  It binds only the cmd_* functions, which
    look the library up when they run."""
    parser = argparse.ArgumentParser(
        prog="fibcat",
        description="Finite categories, fibrations, and the pregroup toy semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, *positionals, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn, workspace=None)
        for arg in positionals:
            p.add_argument(arg)
        return p

    def choice(p, *flags):
        group = p.add_mutually_exclusive_group(required=True)
        for flag in flags:
            group.add_argument(flag, action="store_true")

    def grammar(p):
        p.add_argument("--target", default="s")
        p.add_argument("--convention", choices=("paper", "lambek"), default="paper")

    ws_f = ("workspace", "functor")
    cmd("validate", cmd_validate, "workspace", help="validate a workspace file")
    cmd("fibres", cmd_fibres, *ws_f, help="list fibres of a functor")
    cmd(
        "reindex", cmd_reindex, *ws_f, "morphism", help="reindexing table along a base morphism"
    )
    p = cmd("check-fib", cmd_check_fib, *ws_f, help="discrete or cloven fibration check")
    choice(p, "--discrete", "--cloven")
    cmd(
        "elements", cmd_elements, "workspace", "presheaf", help="category of elements of a presheaf"
    )
    cmd("straighten", cmd_straighten, *ws_f, help="presheaf of fibres of a discrete fibration")
    cmd("roundtrip", cmd_roundtrip, "workspace", "name", help="verify the equivalence witnesses")
    p = cmd("factorize", cmd_factorize, *ws_f, help="comprehensive factorization")
    choice(p, "--fib", "--opfib")
    cmd("check-initial", cmd_check_comma, *ws_f, help="initial-functor check")
    cmd("check-final", cmd_check_comma, *ws_f, help="final-functor check")
    cmd("comma", cmd_comma, "workspace", "F", "G", help="comma category of two functors")
    cmd("pullback", cmd_comma, "workspace", "F", "G", help="strict pullback of two functors")
    p = cmd("mcg", cmd_mcg, help="maximally connected groupoid on a set")
    p.add_argument("objects", help="a count or a comma-separated object list")
    cmd("classify-mcg", cmd_classify_mcg, *ws_f, help="classify a fibration over an MCG")

    p = cmd("parse", cmd_parse, help="pregroup parse of a sentence")
    p.add_argument("--lexicon", dest="workspace", metavar="LEXICON", required=True,
                   help="workspace file holding the lexicon")
    p.add_argument("--lexicon-name", default=None)
    grammar(p)
    p.add_argument("sentence")

    p = cmd("semantics", cmd_semantics, "workspace", help="build the toy semantics from a corpus")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True)
    grammar(p)

    cmd("dot", cmd_dot, "workspace", "name", help="DOT export of a category or fibration")
    return parser


def main(argv=None, out=None):
    """The exit code of the command argv names, run on the workspace it names,
    loaded here once; all output, -h included, goes to out.  A usage or input
    error exits 2, a failed check 1, and a command that returns nothing 0."""
    out = out or sys.stdout
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ws = None if args.workspace is None else load(args.workspace)
        return args.fn(args, ws, out) or 0
    except ValidationError as exc:
        return _verdict(out, exc.report, None, "validation")
    except (IoError, MalformedSpec, UnknownName, UnknownMorphism) as exc:
        _emit(out, "ERROR", str(exc))
        return 2
    except FibcatError as exc:
        _emit(out, "FAIL", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
