"""Hypothesis properties over small generated workspaces whose ids are drawn
from an alphabet with the characters fibcat itself uses in generated ids.

Every generated workspace holds a category that obeys the laws by
construction (no two non-identity morphisms compose), a presheaf on it, its
identity functor and a functor to the terminal category.  Only the ids are
adversarial.

``is_plain_id`` is compared with its former walk over every character
(``helpers.scan_is_plain_id``) on text that mixes the brackets with
characters of every UTF-8 length and lone surrogates.

The loader's category builder is compared with the one it replaced,
``helpers.scan_build_category``, on generated category documents whose ids,
references and shapes are adversarial.

Random categories of functions between small sets
(``helpers.rand_concrete_category``) have loops, idempotents and parallel
arrows; ``validate_category``, the fibration checks on the elements of
their inclusion into sets, ``elements`` and ``comma`` are compared with the
scans in tests/helpers.py, and the paper's results on that projection (the
roundtrips, both factorizations, the legs of a comma square) are checked,
also through every CLI command on a saved workspace.

The pregroup properties compare type parsing and longest-match lookup with
the oracles in tests/helpers.py; a generated lexicon repeats type texts,
good and bad, to pin which entry a bad one is reported at.  No ``parse`` or
``semantics`` command raises on a generated lexicon and corpus, under either
convention and with the target s or the unit.
"""

import copy
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibcat import cli
from fibcat.errors import MalformedSpec, SchemaError, TypeSyntaxError
from fibcat.factor import comprehensive_factor_fib, comprehensive_factor_opfib
from fibcat.fib import fibre, is_discrete_opfibration, is_fibration, is_opfibration
from fibcat.fincat import (
    CONTRAVARIANT,
    FinCat,
    SetValuedFunctor,
    comma,
    constant_functor,
    identity_functor,
    is_plain_id,
    opposite,
    opposite_functor,
    terminal_category,
    tuple_id,
    validate_category,
)
from fibcat.groth import elements, roundtrip_fibration, roundtrip_presheaf
from fibcat.mcg import mcg
from fibcat.pregroup import (
    CONVENTIONS,
    Lexicon,
    SimpleType,
    format_type,
    parse_type,
)
from helpers import (
    bfs_components,
    built_category,
    comma_under,
    factor_fib_via_opposite,
    parse_type_by_deltas,
    rand_concrete_category,
    scan_build_category,
    scan_cloven_fibration,
    scan_comma,
    scan_discrete_opfibration,
    scan_elements,
    scan_is_plain_id,
    scan_longest_match,
    scan_validate_category,
)

# Each workspace draws its ids from two atoms joined by "|", sometimes in
# brackets, so that distinct (object, element) pairs often render alike
# when they are joined naively.
ATOMS = ["a", "b", "(", ")", "->", ":*"]


@st.composite
def workspaces(draw):
    atom = st.sampled_from(draw(st.lists(st.sampled_from(ATOMS), min_size=2, max_size=2)))
    joined = st.builds("{}|{}".format, atom, atom)
    ids = st.one_of(atom, joined, joined.map("({})".format))
    objects = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    # morphisms run from the first k objects to the others only
    k = draw(st.integers(0, len(objects)))
    ends = st.tuples(st.sampled_from(objects[:k]), st.sampled_from(objects[k:]))
    pairs = draw(st.lists(ends, max_size=3)) if 0 < k < len(objects) else []
    mids = draw(st.lists(ids, min_size=len(pairs), max_size=len(pairs), unique=True))
    morphisms = [{"id": m, "src": a, "tgt": b} for m, (a, b) in zip(mids, pairs)]
    eltset = {o: draw(st.lists(ids, min_size=1, max_size=3, unique=True)) for o in objects}
    action = {
        m["id"]: {y: draw(st.sampled_from(eltset[m["src"]])) for y in eltset[m["tgt"]]}
        for m in morphisms
    }
    return {
        "format": 1,
        "categories": {
            "C": {"objects": objects, "morphisms": morphisms},
            "T": {"objects": ["*"], "morphisms": []},
        },
        "functors": {
            "p": {
                "dom": "C", "cod": "C",
                "omap": {o: o for o in objects}, "mmap": {m: m for m in mids},
            },
            "k": {
                "dom": "C", "cod": "T",
                "omap": {o: "*" for o in objects}, "mmap": {m: "id:*" for m in mids},
            },
        },
        "presheaves": {"W": {"base": "C", "eltset": eltset, "action": action}},
    }


# The brackets, ASCII, characters of 2, 3 and 4 UTF-8 bytes, and lone
# surrogates, which a library caller such as mcg() may still pass.
id_chars = st.one_of(
    st.sampled_from("()|"),
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
    st.characters(min_codepoint=0x800, max_codepoint=0xFFFF),
    st.characters(min_codepoint=0x10000),
    st.integers(0xD800, 0xDFFF).map(chr),
)


@given(st.lists(id_chars, max_size=12).map("".join))
@example("(\ud800|\udfff)")
@example("(é|ü)|")
@settings(max_examples=300, deadline=None)
def test_is_plain_id_matches_the_walk_over_every_character(s):
    assert is_plain_id(s) == scan_is_plain_id(s)


plain_ids = st.text("ab()|->:*", max_size=5).filter(is_plain_id)


@given(st.lists(plain_ids, min_size=1, max_size=3), st.lists(plain_ids, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_tuple_id_is_injective_on_plain_ids_and_plain_again(a, b):
    assert is_plain_id(tuple_id(*a))
    assert (tuple_id(*a) == tuple_id(*b)) == (a == b)


# Up to four names of up to two atoms each, so that "->" often lands at a
# name's edge.  No name is all digits, since a count n builds n^2 arrows and
# n^3 composites.
mcg_atoms = st.sampled_from(["a", "b", "->", "-", ">", "|", "(", ")"])
mcg_names = st.lists(st.lists(mcg_atoms, max_size=2).map("".join), max_size=4).map(",".join)


@given(mcg_names)
@settings(max_examples=150, deadline=None)
def test_mcg_rejects_or_arrow_ids_are_distinct(objects):
    out = io.StringIO()
    code = cli.main(["mcg", objects], out=out)
    if code == 2:
        return
    assert code == 0
    lines = out.getvalue().splitlines()
    n = sum(line.startswith("OBJECT: ") for line in lines)
    arrows = [line.split(" : ")[0] for line in lines if line.startswith("MORPHISM: ")]
    assert len(set(arrows)) == len(arrows) == n * (n - 1)


@given(st.lists(st.lists(mcg_atoms, max_size=2).map("".join), max_size=4))
@settings(max_examples=150, deadline=None)
def test_the_library_mcg_refuses_or_its_arrow_ids_are_distinct(names):
    try:
        c = mcg(names)
    except MalformedSpec:
        return
    assert validate_category(c).ok  # raises MalformedSpec at a repeated id


def _saved(doc, tmp):
    path = os.path.join(tmp, "ws.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@given(workspaces())
@settings(max_examples=150, deadline=None)
def test_load_rejects_or_element_ids_are_distinct(doc):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ws = cli.load(_saved(doc, tmp))
        except SchemaError:  # exit 2
            return
    built = elements(ws.presheaves["W"])
    for names in (built.total.objects, [m.id for m in built.total.morphisms]):
        assert len(set(names)) == len(names)


@given(workspaces())
@settings(max_examples=12, deadline=None)
def test_no_command_raises(doc):
    morphisms = [m["id"] for m in doc["categories"]["C"]["morphisms"]]
    argvs = [["validate", "WS"], ["elements", "WS", "W"], ["roundtrip", "WS", "W"]]
    argvs += [["dot", "WS", name] for name in ("C", "T", "p", "W")]
    for p in ("p", "k"):
        argvs += [
            ["fibres", "WS", p], ["check-fib", "--discrete", "WS", p],
            ["check-fib", "--cloven", "WS", p], ["straighten", "WS", p],
            ["roundtrip", "WS", p], ["reindex", "WS", p, "nope"],
        ]
        argvs += [["reindex", "WS", p, m] for m in morphisms + ["id:*"]]
        argvs += [
            ["factorize", "--opfib", "WS", p], ["factorize", "--fib", "WS", p],
            ["check-initial", "WS", p], ["check-final", "WS", p], ["classify-mcg", "WS", p],
        ]
        argvs += [[cmd, "WS", p, q] for cmd in ("comma", "pullback") for q in ("p", "k")]
    with tempfile.TemporaryDirectory() as tmp:
        path = _saved(doc, tmp)
        for argv in argvs:
            argv = [path if a == "WS" else a for a in argv]
            assert cli.main(argv, out=io.StringIO()) in (0, 1, 2)


@given(workspaces(), st.data())
@settings(max_examples=60, deadline=None)
def test_save_load_keeps_the_names_of_equal_categories(doc, data):
    # D and U are structurally equal to C and T; each reference picks one
    cats = doc["categories"]
    cats["D"], cats["U"] = copy.deepcopy(cats["C"]), copy.deepcopy(cats["T"])
    pick = lambda *names: data.draw(st.sampled_from(names))
    for F in doc["functors"].values():
        F["dom"] = pick("C", "D")
        F["cod"] = pick("C", "D") if F["cod"] == "C" else pick("T", "U")
    doc["presheaves"]["W"]["base"] = pick("C", "D")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ws = cli.load(_saved(doc, tmp))
        except SchemaError:
            return
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        cli.save(ws, first)
        cli.save(cli.load(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            text = a.read()
            assert text == b.read()
    saved = json.loads(text)
    for name, F in doc["functors"].items():
        assert (saved["functors"][name]["dom"], saved["functors"][name]["cod"]) == (F["dom"], F["cod"])
    assert saved["presheaves"]["W"]["base"] == doc["presheaves"]["W"]["base"]


# Category documents.  Names contain "(", ")" or "|"; in some documents they
# also break the id rule or repeat, and in some ends and table references
# dangle or composites are not strings.  The object list may be empty.
@st.composite
def category_docs(draw):
    broken, dangling = draw(st.booleans()), draw(st.booleans())
    odd = ["a|b", "b)", "(u", "u|v"] if broken else []
    object_names = st.sampled_from(["a", "b", "c", "(a|b)"] + odd)
    objects = draw(st.lists(object_names, max_size=4, unique=not broken))
    ends = st.sampled_from(objects + ["ghost"] * dangling or ["ghost"])
    names = st.sampled_from(["u", "v", "w", "(u|v)", "id:a"] + odd)
    unique = (lambda arrow: arrow[0]) if not broken else None
    arrows = draw(st.lists(st.tuples(names, ends, ends), max_size=4, unique_by=unique))
    ids = [m for m, _, _ in arrows] + [f"id:{o}" for o in objects] + ["ghost"] * dangling
    refs = st.sampled_from(ids or ["ghost"])
    composites = st.one_of(refs, st.integers(), st.none()) if dangling else refs
    records = [{"id": m, "src": a, "tgt": b} for m, a, b in arrows]
    if broken:  # some records lose fields, have non-strings or are no objects
        fields = st.dictionaries(st.sampled_from(["id", "src", "tgt"]), st.one_of(names, st.none()))
        junk = st.one_of(st.just([]), fields)
        records = [draw(st.one_of(st.just(rec), junk)) for rec in records]
    table = st.dictionaries(refs, st.dictionaries(refs, composites, max_size=2), max_size=3)
    doc = {"objects": objects, "morphisms": records, "compose": draw(table)}
    if draw(st.booleans()):
        identity = st.dictionaries(st.sampled_from(objects or ["a"]), refs, max_size=2)
        doc["identity"] = draw(identity)
    return doc


@given(category_docs())
@settings(max_examples=300, deadline=None)
def test_the_loader_builds_each_category_as_the_scan_does(doc):
    assert built_category(cli._build_category, doc) == built_category(scan_build_category, doc)


# The inclusions into sets of categories of functions between sets of up to
# 3 elements, with up to 3 objects and 24 arrows.
concrete_categories = st.randoms(use_true_random=False).map(rand_concrete_category)


@given(concrete_categories, st.data())
@settings(max_examples=200, deadline=None)
def test_validate_category_matches_the_scan_on_concrete_categories(W, data):
    c = W.base
    assert validate_category(c).violations == scan_validate_category(c) == ()
    ends = {m.id: (m.src, m.tgt) for m in c.morphisms}
    parallel = [
        (g, f, m)
        for g, row in c.compose.items()
        for f, h in row.items()
        for m in ends
        if m != h and ends[m] == ends[h]
    ]
    if parallel:
        g, f, m = data.draw(st.sampled_from(parallel))
        bad = FinCat(c.objects, c.morphisms, c.identity, {**c.compose, g: {**c.compose[g], f: m}})
        assert validate_category(bad).violations == scan_validate_category(bad)


@given(concrete_categories)
@settings(max_examples=200, deadline=None)
def test_the_elements_of_a_concrete_category_match_the_scans(W):
    p = elements(W).projection
    assert is_discrete_opfibration(p).violations == scan_discrete_opfibration(p) == ()
    report = is_fibration(p)
    assert (report.ok, report.violations, report.witness) == scan_cloven_fibration(p)
    roundtrip_presheaf(W)
    roundtrip_fibration(opposite_functor(p))


@given(concrete_categories)
@settings(max_examples=100, deadline=None)
def test_the_factorizations_of_the_elements_of_a_concrete_category(W):
    p = elements(W).projection
    opfac, fac, oracle = (
        comprehensive_factor_opfib(p), comprehensive_factor_fib(p), factor_fib_via_opposite(p)
    )
    assert fac == oracle
    assert fac.mid.morphisms == oracle.mid.morphisms
    for d in W.base.objects:
        # (d/p) is the opposite of (p^op/d), so it has the same components
        for q, F in ((opfac.p, p), (fac.p, opposite_functor(p))):
            assert len(fibre(q, d).elements) == len(bfs_components(comma_under(F, d).cat))


# Smaller ones, whose comma categories stay small enough for the scans and
# the cloven checks.
small_concrete_categories = st.randoms(use_true_random=False).map(
    lambda rng: rand_concrete_category(rng, max_arrows=6)
)


@given(small_concrete_categories)
@settings(max_examples=60, deadline=None)
def test_comma_and_elements_match_the_scans_on_concrete_categories(W):
    V = SetValuedFunctor(opposite(W.base), CONTRAVARIANT, W.eltset, W.action)
    for X in (W, V):
        built, oracle = elements(X), scan_elements(X)
        assert built == oracle
        assert (built.obj_id, built.mor_id) == (oracle.obj_id, oracle.mor_id)
        assert built.total.morphisms == oracle.total.morphisms
    I, p = identity_functor(W.base), elements(W).projection
    for F, G in ((I, I), (p, I), (I, p)):
        cm, oracle = comma(F, G), scan_comma(F, G)
        assert cm == oracle
        assert (cm.cat.objects, cm.cat.morphisms) == (oracle.cat.objects, oracle.cat.morphisms)


@given(small_concrete_categories)
@settings(max_examples=40, deadline=None)
def test_the_legs_of_a_comma_square_over_a_concrete_category(W):
    cm = comma(elements(W).projection, identity_functor(W.base))
    assert is_fibration(cm.projA).ok
    assert is_opfibration(cm.projB).ok


# Type texts that parse, and ones that break the id rule or the type syntax.
lexicon_type_texts = st.sampled_from(["n", "n^l.s", "1", "n^x", "s)", "n^l^r"])


def _type_problem(text):
    if not is_plain_id(text):
        return f"expected a string in which {cli._ID_RULE}"
    try:
        parse_type(text)
    except TypeSyntaxError as exc:
        return str(exc)
    return None


@given(st.lists(lexicon_type_texts, min_size=1, max_size=8))
@example(["n", "n^x", "n^l.s", "n^x", "n"])
@settings(max_examples=100, deadline=None)
def test_a_lexicon_parses_each_text_once_and_reports_the_first_bad_entry(texts):
    problems = [_type_problem(t) for t in texts]
    bad = next((i for i, p in enumerate(problems) if p), None)
    read = texts if bad is None else texts[: bad + 1]
    entries = [{"phrase": f"w{i}", "type": t} for i, t in enumerate(texts)]
    doc = {"format": 1, "lexicons": {"L": entries}}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        cli.pregroup, "parse_type", side_effect=parse_type
    ) as parse:
        try:
            ws = cli.load(_saved(doc, tmp))
        except SchemaError as exc:
            assert (exc.path, exc.message) == (f"lexicons.L[{bad}].type", problems[bad])
        else:
            assert bad is None
            assert [t for *_, t in ws.lexicons["L"]] == [parse_type(t) for t in texts]
    assert parse.call_count == len({t for t in read if is_plain_id(t)})


# Simple types with up to three mixed adjoint markers, and the unit, joined
# by "." and spaces; with bad=True, some simple types do not parse.
simple_type_texts = st.one_of(
    st.just("1"),
    st.builds(
        lambda base, markers: base + ("^" + markers if markers else ""),
        st.sampled_from(["n", "s", "np"]),
        st.text("lr", max_size=3),
    ),
)
bad_simple_type_texts = st.sampled_from(["1^l", "n^", "^r", "n^x", "n^l^r"])


@st.composite
def type_texts(draw, bad=False):
    simple = st.one_of(simple_type_texts, bad_simple_type_texts) if bad else simple_type_texts
    simples = draw(st.lists(simple, min_size=1, max_size=5))
    text = simples[0]
    for simple in simples[1:]:
        text += draw(st.sampled_from([".", " ", " . ", "  "])) + simple
    return text


def _parsed(parse, text):
    try:
        return parse(text)
    except TypeSyntaxError as exc:
        return str(exc)


@given(type_texts(bad=True))
@settings(max_examples=200, deadline=None)
def test_parse_type_matches_the_delta_table(text):
    assert _parsed(parse_type, text) == _parsed(parse_type_by_deltas, text)


@given(type_texts())
@settings(max_examples=200, deadline=None)
def test_format_type_parses_back_to_the_same_type(text):
    t = parse_type(text)
    assert parse_type(format_type(t)) == t


# Phrases over three words, so that many share a prefix.
phrase_words = st.sampled_from(["a", "b", "c"])


@given(
    st.lists(st.lists(phrase_words, min_size=1, max_size=3).map(tuple), max_size=8, unique=True),
    st.lists(phrase_words, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_longest_match_matches_the_scan(phrases, tokens):
    lex = Lexicon(tuple((p, (SimpleType(f"t{i}"),)) for i, p in enumerate(phrases)))
    for start in range(len(tokens) + 1):
        assert lex.longest_match(tokens, start) == scan_longest_match(lex, tokens, start)


# Lexicons over the same words, with types that often reduce to s or to the
# unit, and corpora whose sentences may be empty.
@st.composite
def grammar_workspaces(draw):
    phrase = st.lists(phrase_words, min_size=1, max_size=2).map(" ".join)
    phrases = draw(st.lists(phrase, min_size=1, max_size=4, unique=True))
    types = st.one_of(st.sampled_from(["1", "s", "n", "n^r.s", "s.n^l"]), type_texts())
    lexicon = [{"phrase": p, "type": draw(types)} for p in phrases]
    corpus = draw(st.lists(st.lists(phrase_words, max_size=3).map(" ".join), min_size=1, max_size=3))
    return {"format": 1, "lexicons": {"L": lexicon}, "corpora": {"K": corpus}}


@given(grammar_workspaces())
@example({"format": 1, "lexicons": {"L": [{"phrase": "a", "type": "1"}]}, "corpora": {"K": [""]}})
@settings(max_examples=40, deadline=None)
def test_no_grammar_command_raises(doc):
    argvs = []
    for convention in CONVENTIONS:
        for target in ("s", "1"):
            grammar = ["--convention", convention, "--target", target]
            argvs.append(["semantics", "WS", "--lexicon", "L", "--corpus", "K", *grammar])
            argvs += [["parse", "--lexicon", "WS", *grammar, s] for s in doc["corpora"]["K"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = _saved(doc, tmp)
        for argv in argvs:
            argv = [path if a == "WS" else a for a in argv]
            assert cli.main(argv, out=io.StringIO()) in (0, 1, 2)


@given(small_concrete_categories)
@settings(max_examples=8, deadline=None)
def test_no_command_raises_on_a_saved_concrete_category(W):
    built, T = elements(W), terminal_category()
    p, q = built.projection, opposite_functor(built.projection)
    categories = {"C": W.base, "E": built.total, "Cop": q.cod, "Eop": q.dom, "T": T}
    functors = {
        "p": p, "q": q, "id": identity_functor(W.base), "k": constant_functor(W.base, T, "*"),
    }
    ws = cli.Workspace(categories=categories, functors=functors, presheaves={"W": W})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ws.json")
        cli.save(ws, path)
        loaded = cli.load(path)
        assert (loaded.categories, loaded.functors) == (categories, functors)
        argvs = [["validate", path], ["elements", path, "W"], ["roundtrip", path, "W"]]
        argvs += [["dot", path, name] for name in [*categories, *functors]]
        for name, F in functors.items():
            argvs += [
                [cmd, path, name]
                for cmd in ("fibres", "straighten", "roundtrip", "check-initial", "check-final")
            ]
            argvs += [["check-fib", flag, path, name] for flag in ("--discrete", "--cloven")]
            argvs += [["factorize", flag, path, name] for flag in ("--opfib", "--fib")]
            argvs += [["reindex", path, name, u.id] for u in F.cod.morphisms]
            argvs.append(["classify-mcg", path, name])
        pairs = [("p", "id"), ("id", "p"), ("k", "k"), ("q", "q")]
        argvs += [[cmd, path, F, G] for cmd in ("comma", "pullback") for F, G in pairs]
        for argv in argvs:
            assert cli.main(argv, out=io.StringIO()) in (0, 1, 2)
