"""Hypothesis properties over small generated workspaces whose ids are drawn
from an alphabet with the characters fibcat itself uses in generated ids.

Every generated workspace holds a category that obeys the laws by
construction (no two non-identity morphisms compose), a presheaf on it, its
identity functor and a functor to the terminal category.  Only the ids are
adversarial.

``is_plain_id`` is compared with its former walk over every character
(``helpers.scan_is_plain_id``) on text that mixes the brackets with
characters of every UTF-8 length and lone surrogates.  The list form of the
rule, ``fincat._first_bad_id``, names the first id of a list that the walk
refuses, on lists of ids nested up to depth 6 with line breaks inside and
outside brackets, and checks a list of plain ids without calling
``is_plain_id``.

``validate_functor`` and ``validate_set_valued`` walk the unit pairs, read
by rule, only where one can fail; they are compared with their former full walks
(``helpers.scan_validate_functor``, ``helpers.scan_validate_set_valued``) on
random functors and presheaves, as drawn and with a wrong unit composite,
an identity that is no loop, a broken identity image or a broken identity
action, with and without kept reports on the categories.  ``check_iso_over``
computes the inverse of its witness and composes one triangle over the
base, not two; it is compared with its former four comparisons
(``helpers.scan_check_iso_over``), given the inverse built from lifts and
reindexing as the library built it before, on the witnesses of
``roundtrip_fibration`` and ``classify_over_mcg``, as built and with one
value of one map changed, and on a pass returns that inverse, its maps in
the same key order.

The loader's category builder is compared with the one it replaced,
``helpers.scan_build_category``, on generated category documents whose ids,
references and shapes are adversarial, and on documents of random concrete
categories, some identities left for load to synthesize, with one written
entry redirected, which take each path of load's category check.

Random categories of functions between small sets
(``helpers.rand_concrete_category``) have loops, idempotents and parallel
arrows.  Written without their unit entries, and with one entry dropped,
redirected or written at a unit pair, ``validate_category`` must give the
violations, in order, that ``helpers.scan_validate_category`` gives on the
copy that ``helpers.scan_complete_units`` fills.  ``validate_category``, the fibration checks on the elements of
their inclusion into sets, ``elements`` and ``comma`` are compared with the
scans in tests/helpers.py, and the paper's results on that projection (the
roundtrips, both factorizations, the legs of a comma square) are checked,
also through every CLI command on a saved workspace.

The pregroup properties compare type parsing and longest-match lookup with
the oracles in tests/helpers.py; a generated lexicon repeats type texts,
good and bad, to pin which entry a bad one is reported at.  A lexicon and a
corpus whose words mix brackets, "|" and letters, spaced by runs of
spaces, load exactly when every word passes ``scan_is_plain_id``, and
otherwise fail at the first word that does not.  No ``parse`` or
``semantics`` command raises on a generated lexicon and corpus, under either
convention and with the target s or the unit; where the corpus parses,
``build_semantics`` gives the presheaf that ``helpers.scan_semantics``
materializes, element for element, and ``semantics`` prints the fibre sizes
of the category of elements of that presheaf and the verdict that
``helpers.scan_semantics_verdict`` reads off its projection.
"""

import copy
import dataclasses
import io
import itertools
import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibcat import cli, fincat
from fibcat.errors import (
    FibcatError,
    MalformedSpec,
    SchemaError,
    TypeSyntaxError,
    UnparsedSentence,
)
from fibcat.factor import comprehensive_factor_fib, comprehensive_factor_opfib
from fibcat.fib import fibre, is_discrete_opfibration, is_fibration, is_opfibration
from fibcat.fincat import (
    CONTRAVARIANT,
    FinCat,
    FunctorSpec,
    SetValuedFunctor,
    check_iso_over,
    comma,
    constant_functor,
    identity_functor,
    is_plain_id,
    opposite,
    opposite_functor,
    pullback,
    terminal_category,
    tuple_id,
    validate_category,
    validate_functor,
    validate_set_valued,
)
from fibcat.groth import elements, roundtrip_fibration, roundtrip_presheaf, straighten
from fibcat.mcg import classify_over_mcg, mcg, mcg_on_function
from fibcat.pregroup import (
    CONVENTIONS,
    Lexicon,
    SimpleType,
    build_semantics,
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
    rand_dag_category,
    rand_discrete_fibration,
    rand_fibration_over_mcg,
    rand_functor,
    rand_presheaf,
    scan_build_category,
    scan_check_iso_over,
    scan_cloven_fibration,
    scan_comma,
    scan_complete_units,
    scan_discrete_opfibration,
    scan_elements,
    scan_filled,
    scan_filled_result,
    scan_is_plain_id,
    scan_longest_match,
    scan_mcg_inverse,
    scan_roundtrip_forward,
    scan_semantics,
    scan_semantics_verdict,
    scan_validate_category,
    scan_validate_functor,
    scan_validate_set_valued,
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


# Lists of ids nested up to depth 6, with line breaks inside and outside
# brackets, lone surrogates, empty ids and, in some, a stray bracket or "|".
def nested_ids(atoms, depth=6):
    ids = atoms
    for _ in range(depth):
        ids = st.one_of(
            ids,
            st.lists(ids, max_size=2).map(lambda parts: "(" + "|".join(parts) + ")"),
            st.lists(ids, min_size=2, max_size=2).map("".join),
        )
    return ids


plain_atoms = st.sampled_from(["", "a", "é", "日", "😀", "\ud800", "->"])
id_lists = st.lists(
    nested_ids(st.one_of(plain_atoms, st.sampled_from(["\n", "|", "(", ")"]))), max_size=5
)


@given(id_lists)
@example([])
@example([""])
@example(["(a\nb)", "a|b"])
@example(["a\n(b|c)", "(\n|\n)", ")\n("])
@example(["(((((((a)))))))", "((((((((((|))))))))))", "(((((((((a)))))))))|"])
@settings(max_examples=300, deadline=None)
def test_a_list_of_ids_fails_at_its_first_id_that_the_walk_refuses(ids):
    first = next((i for i, s in enumerate(ids) if not scan_is_plain_id(s)), None)
    assert fincat._first_bad_id(ids) == first


@given(st.lists(nested_ids(plain_atoms), max_size=5))
@settings(max_examples=200, deadline=None)
def test_a_list_of_plain_ids_without_line_breaks_is_checked_in_one_call(ids):
    with mock.patch.object(fincat, "is_plain_id", side_effect=AssertionError("one call per id")):
        assert fincat._first_bad_id(ids) is None


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


@given(concrete_categories, st.data())
@settings(max_examples=200, deadline=None)
def test_a_table_without_its_unit_entries_validates_as_the_filled_scan(W, data):
    # the table holds no entry with an identity in it, as a file may write
    # it, or one entry changed: dropped, redirected, or a unit entry written
    # with any morphism as its composite
    c = W.base
    identities = set(c.identity.values())
    table = {
        g: {f: h for f, h in row.items() if f not in identities}
        for g, row in c.compose.items() if g not in identities
    }
    table = {g: row for g, row in table.items() if row}
    written = [(g, f) for g, row in table.items() for f in row]
    kind = data.draw(st.sampled_from(["none", "drop", "redirect", "unit"]))
    if kind in ("drop", "redirect") and written:
        g, f = data.draw(st.sampled_from(written))
        if kind == "drop":
            del table[g][f]
        else:
            table[g][f] = data.draw(st.sampled_from([m.id for m in c.morphisms]))
    elif kind == "unit":
        m = data.draw(st.sampled_from(c.morphisms))
        g, f = data.draw(st.sampled_from([(m.id, c.identity[m.src]), (c.identity[m.tgt], m.id)]))
        table.setdefault(g, {})[f] = data.draw(st.sampled_from([m.id for m in c.morphisms]))
    bare = FinCat(c.objects, c.morphisms, c.identity, table)
    filled = FinCat(c.objects, c.morphisms, c.identity, copy.deepcopy(table))
    scan_complete_units(filled)
    assert validate_category(bare).violations == scan_validate_category(filled)


@given(concrete_categories, st.data())
@settings(max_examples=150, deadline=None)
def test_a_document_with_one_redirected_entry_loads_as_the_scan_builds_it(W, data):
    # some identities are left out, with the entries through them, for load
    # to synthesize and fill in again; one entry the file wrote points elsewhere
    c = W.base
    gone = set(data.draw(st.lists(st.sampled_from(list(c.identity.values())), unique=True)))
    compose = {
        g: {f: h for f, h in row.items() if f not in gone}
        for g, row in c.compose.items() if g not in gone
    }
    written = [(g, f) for g, row in compose.items() for f in row]
    if written:
        g, f = data.draw(st.sampled_from(written))
        ends = (c.src(compose[g][f]), c.tgt(compose[g][f]))
        parallel = [m.id for m in c.morphisms if (m.src, m.tgt) == ends]
        compose[g][f] = data.draw(st.sampled_from(parallel + [m.id for m in c.morphisms]))
    doc = {
        "objects": list(c.objects),
        "morphisms": [
            {"id": m.id, "src": m.src, "tgt": m.tgt} for m in c.morphisms if m.id not in gone
        ],
        "identity": {o: i for o, i in c.identity.items() if i not in gone},
        "compose": compose,
    }
    assert built_category(cli._build_category, doc) == built_category(scan_build_category, doc)


def _with_wrong_unit(rng, c):
    """c with one composite that has an identity in it set to another
    morphism, a parallel one where there is one; c if it has none."""
    identities = set(c.identity.values())
    units = [(g, f) for g, row in c.compose.items() for f in row if {g, f} & identities]
    if not units or len(c.morphisms) < 2:
        return c
    g, f = rng.choice(units)
    h = c.compose[g][f]
    ends = (c.src(h), c.tgt(h))
    others = [m.id for m in c.morphisms if m.id != h]
    parallel = [m for m in others if (c.src(m), c.tgt(m)) == ends]
    compose = {**c.compose, g: {**c.compose[g], f: rng.choice(parallel or others)}}
    return FinCat(c.objects, c.morphisms, c.identity, compose)


def _with_a_non_loop_identity(rng, c):
    """c with one object's identity named as a morphism out of or into it
    that is no loop; c if it has none."""
    non_loops = [m for m in c.morphisms if m.src != m.tgt]
    if not non_loops:
        return c
    m = rng.choice(non_loops)
    identity = {**c.identity, rng.choice((m.src, m.tgt)): m.id}
    return FinCat(c.objects, c.morphisms, identity, c.compose)


def _keep_reports(kept, *categories):
    """Validate each category, so it keeps its report, when kept is set."""
    for c in categories if kept else ():
        validate_category(c)


FUNCTOR_MUTATIONS = ("none", "dom-unit", "cod-unit", "dom-identity", "cod-identity", "image")


# Random functors from a free DAG category to another or to a category of
# functions, which has loops, as drawn and with one mutation.
@given(st.randoms(use_true_random=False), st.sampled_from(FUNCTOR_MUTATIONS), st.booleans())
@settings(max_examples=300, deadline=None)
def test_validate_functor_matches_the_full_walk(rng, mutation, kept):
    dom = rand_dag_category(rng)
    cod = rand_dag_category(rng).cat if rng.random() < 0.5 else rand_concrete_category(rng).base
    F = rand_functor(rng, dom, cod)
    dom, omap, mmap = F.dom, F.omap, dict(F.mmap)
    if mutation == "dom-unit":
        dom = _with_wrong_unit(rng, dom)
    elif mutation == "cod-unit":
        cod = _with_wrong_unit(rng, cod)
    elif mutation == "dom-identity":
        dom = _with_a_non_loop_identity(rng, dom)
    elif mutation == "cod-identity":
        cod = _with_a_non_loop_identity(rng, cod)
    elif mutation == "image":
        # another loop where there is one, so the endpoints are still preserved
        c = rng.choice(dom.objects)
        loops = [u for u in cod.hom(omap[c], omap[c]) if u != mmap[dom.identity[c]]]
        mmap[dom.identity[c]] = rng.choice(loops or [m.id for m in cod.morphisms])
    F = FunctorSpec(dom, cod, omap, mmap)
    _keep_reports(kept, dom, cod)
    assert validate_functor(F).violations == scan_validate_functor(F)


PRESHEAF_MUTATIONS = ("none", "base-unit", "base-identity", "identity-action")


# Random contravariant presheaves on free DAG categories and covariant
# inclusions of categories of functions, as drawn and with one mutation.
@given(st.randoms(use_true_random=False), st.sampled_from(PRESHEAF_MUTATIONS), st.booleans())
@settings(max_examples=300, deadline=None)
def test_validate_set_valued_matches_the_full_walk(rng, mutation, kept):
    if rng.random() < 0.5:
        W = rand_presheaf(rng, rand_dag_category(rng), min_elts=1)
    else:
        W = rand_concrete_category(rng)
    base, action = W.base, dict(W.action)
    if mutation == "base-unit":
        base = _with_wrong_unit(rng, base)
    elif mutation == "base-identity":
        base = _with_a_non_loop_identity(rng, base)
    elif mutation == "identity-action":
        # a total function on the set that is not the identity
        objects = [c for c in base.objects if len(W.eltset[c]) > 1]
        if objects:
            c = rng.choice(objects)
            elts = W.eltset[c]
            action[base.identity[c]] = dict(zip(elts, elts[1:] + elts[:1]))
    W = SetValuedFunctor(base, W.variance, W.eltset, action)
    _keep_reports(kept, base)
    assert validate_set_valued(W).violations == scan_validate_set_valued(W)


def _outcome(check, *args):
    """What check(*args) returns, else the type and text of what it raised."""
    try:
        return check(*args)
    except FibcatError as exc:
        return type(exc), str(exc)


# The witnesses that roundtrip_fibration and classify_over_mcg build, on
# random discrete fibrations over free DAG categories and over MCGs, as
# built and with one value of one map of H, p or q changed.  The oracle is
# given the inverse that the library built from lifts and reindexing before
# check_iso_over computed it (helpers.scan_roundtrip_forward and
# helpers.scan_mcg_inverse).
@given(st.randoms(use_true_random=False), st.sampled_from(("none", "H", "p", "q")), st.booleans())
@settings(max_examples=300, deadline=None)
def test_check_iso_over_agrees_with_both_triangles_composed(rng, part, over_mcg):
    if over_mcg:
        p, _ = rand_fibration_over_mcg(rng, n_objects=rng.randint(1, 3))
        cls = classify_over_mcg(p)
        q = cls.product_projection
        witness, Hinv = {"H": cls.iso, "p": p, "q": q}, scan_mcg_inverse(p, cls.fibre_set, q.dom)
    else:
        p = rand_discrete_fibration(rng)
        built = elements(straighten(p))
        witness = {"H": roundtrip_fibration(p).backward, "p": p, "q": built.projection}
        Hinv = scan_roundtrip_forward(p, built)
    F = witness.get(part)
    fields = [f for f in ("omap", "mmap") if F is not None and getattr(F, f)]
    if fields:
        field = rng.choice(fields)
        images = F.cod.objects if field == "omap" else [m.id for m in F.cod.morphisms]
        changed = dict(getattr(F, field))
        changed[rng.choice(list(changed))] = rng.choice([*images, "zzz"])
        witness[part] = dataclasses.replace(F, **{field: changed})
    H, p, q = witness["H"], witness["p"], witness["q"]
    outcome = _outcome(check_iso_over, H, p, q)
    assert outcome == _outcome(scan_check_iso_over, H, Hinv, p, q)
    if isinstance(outcome, FunctorSpec):  # the inverse, its maps in the oracle's key order
        assert (list(outcome.omap), list(outcome.mmap)) == (list(Hinv.omap), list(Hinv.mmap))
    else:
        assert part != "none"


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
        assert scan_filled_result(built) == oracle
        assert (built.obj_id, built.mor_id) == (oracle.obj_id, oracle.mor_id)
        assert built.total.morphisms == oracle.total.morphisms
    I, p = identity_functor(W.base), elements(W).projection
    for F, G in ((I, I), (p, I), (I, p)):
        cm, oracle = comma(F, G), scan_comma(F, G)
        assert scan_filled_result(cm) == oracle
        assert (cm.cat.objects, cm.cat.morphisms) == (oracle.cat.objects, oracle.cat.morphisms)


@given(small_concrete_categories)
@settings(max_examples=40, deadline=None)
def test_the_legs_of_a_comma_square_over_a_concrete_category(W):
    cm = comma(elements(W).projection, identity_functor(W.base))
    assert is_fibration(cm.projA).ok
    assert is_opfibration(cm.projB).ok


def _category_lines(cat):
    lines = [f"OBJECT: {o}" for o in cat.objects]
    morphisms = (m for m in cat.morphisms if not cat.is_identity(m.id))
    return lines + [f"MORPHISM: {m.id} : {m.src} -> {m.tgt}" for m in morphisms]


@given(small_concrete_categories, st.lists(st.sampled_from("xyz"), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_comma_and_pullback_commands_print_the_library_categories(W, images):
    # the commands build only the objects and morphisms they print; the
    # library builds the whole result, which helpers.scan_comma checks
    h = mcg_on_function(dict(zip("abc", images)), "abc"[: len(images)], "xyz")
    p, idC, idM = elements(W).projection, identity_functor(W.base), identity_functor(h.cod)
    categories = {"C": W.base, "E": p.dom, "A": h.dom, "M": h.cod}
    functors = {"p": p, "id": idC, "h": h, "idM": idM}
    ws = cli.Workspace(categories=categories, functors=functors)
    pairs = [("p", "id"), ("id", "p"), ("id", "id"), ("h", "idM"), ("idM", "h")]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ws.json")
        cli.save(ws, path)
        for (name, build), (F, G) in itertools.product(
            [("comma", comma), ("pullback", pullback)], pairs
        ):
            out = io.StringIO()
            assert cli.main([name, path, F, G], out=out) == 0
            expected = _category_lines(build(functors[F], functors[G]).cat)
            assert out.getvalue().splitlines() == expected


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
            lex, written = ws.lexicons["L"]
            assert [t for _, t in lex.entries] == [parse_type(t) for t in texts]
            assert written == tuple((e["phrase"], e["type"]) for e in entries)
    assert parse.call_count == len({t for t in read if is_plain_id(t)})


# Words of brackets, "|" and letters, plain ones often enough that a whole
# lexicon passes and its corpus is read, and texts that join them by runs
# of spaces, with or without spaces at either end.
bracket_words = st.one_of(
    st.sampled_from(["a", "(a|b)", "()"]), st.text("()|ab", min_size=1, max_size=4)
)


@st.composite
def spaced_texts(draw, min_size):
    pieces = [draw(st.text(" ", max_size=2))]
    for word in draw(st.lists(bracket_words, min_size=min_size, max_size=3)):
        pieces += [word, draw(st.text(" ", min_size=1, max_size=3))]
    return "".join(pieces if draw(st.booleans()) else pieces[:-1])


def _first_bad_word(doc):
    """(path, message) of the first word of doc's lexicon, then of its
    corpus, that fails the id rule by the walk over every character."""
    problem = f"expected a new, non-empty phrase; in its words {cli._ID_RULE}"
    for i, rec in enumerate(doc["lexicons"]["L"]):
        if not all(map(scan_is_plain_id, rec["phrase"].split())):
            return f"lexicons.L[{i}].phrase", problem
    for i, sentence in enumerate(doc["corpora"]["K"]):
        words = sentence.split() if isinstance(sentence, str) else sentence
        for j, word in enumerate(words):
            if not scan_is_plain_id(word):
                return f"corpora.K[{i}][{j}]", cli._ID_RULE
    return None


@given(
    st.lists(spaced_texts(1), min_size=1, max_size=4, unique_by=lambda p: tuple(p.split())),
    st.lists(st.one_of(spaced_texts(0), st.lists(bracket_words, max_size=3)), max_size=4),
)
@example(["(a b)"], [])
@example(["a"], ["(a  |b)"])
@settings(max_examples=300, deadline=None)
def test_lexicons_and_corpora_load_iff_every_word_is_plain(phrases, corpus):
    entries = [{"phrase": p, "type": "n"} for p in phrases]
    doc = {"format": 1, "lexicons": {"L": entries}, "corpora": {"K": corpus}}
    bad = _first_bad_word(doc)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ws = cli.load(_saved(doc, tmp))
        except SchemaError as exc:
            assert (exc.path, exc.message) == bad
        else:
            assert bad is None
            assert ws.lexicons["L"][1] == tuple((p, "n") for p in phrases)
            assert ws.corpora["K"] == [s.split() if isinstance(s, str) else s for s in corpus]


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


@given(grammar_workspaces())
@example({"format": 1, "lexicons": {"L": [{"phrase": "a", "type": "1"}]}, "corpora": {"K": [""]}})
@example(  # a sentence that is a phrase of another
    {
        "format": 1,
        "lexicons": {"L": [{"phrase": "a b", "type": "s"}, {"phrase": "c", "type": "s^r.s"}]},
        "corpora": {"K": ["a b", "a b c"]},
    }
)
@example(  # sentences that share a word
    {
        "format": 1,
        "lexicons": {
            "L": [
                {"phrase": "a", "type": "n"},
                {"phrase": "b", "type": "n^r.s"},
                {"phrase": "c", "type": "n^r.s"},
            ]
        },
        "corpora": {"K": ["a b", "a c", "a b"]},
    }
)
@example(  # a word repeated within one sentence
    {
        "format": 1,
        "lexicons": {"L": [{"phrase": "a", "type": "s.s^l"}, {"phrase": "b", "type": "s"}]},
        "corpora": {"K": ["a a b", "a b"]},
    }
)
@example(  # a phrase that occurs twice in one sentence
    {
        "format": 1,
        "lexicons": {"L": [{"phrase": "a b", "type": "s.s^l"}, {"phrase": "c", "type": "s"}]},
        "corpora": {"K": ["a b a b c", "a b c"]},
    }
)
@example(  # a one-phrase sentence whose id comes before the constituent's
    {
        "format": 1,
        "lexicons": {
            "L": [
                {"phrase": "it rains", "type": "s"},
                {"phrase": "so it", "type": "s.n^r"},
                {"phrase": "rains", "type": "n"},
            ]
        },
        "corpora": {"K": ["it rains", "so it rains"]},
    }
)
@settings(max_examples=40, deadline=None)
def test_semantics_prints_the_verdict_and_fibres_of_the_category_of_elements(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = _saved(doc, tmp)
        ws = cli.load(path)
        (lex, _), corpus = ws.lexicons["L"], ws.corpora["K"]
        for convention in CONVENTIONS:
            for target in ("s", "1"):
                try:
                    scan = scan_semantics(corpus, lex, parse_type(target), convention)
                except UnparsedSentence:
                    continue
                W = build_semantics(corpus, lex, parse_type(target), convention)
                assert scan_filled(W.base) == scan.base
                assert {c: tuple(elts) for c, elts in W.eltset.items()} == scan.eltset
                assert {m: dict(table) for m, table in W.action.items()} == scan.action
                p, ok = elements(scan).projection, scan_semantics_verdict(scan)
                lines = [f"FIBRE-SIZE: {c} = {len(fibre(p, c).elements)}\n" for c in scan.base.objects]
                lines.append(f"DISCRETE-FIBRATION: {str(ok).lower()}\n")
                argv = ["semantics", path, "--lexicon", "L", "--corpus", "K"]
                out = io.StringIO()
                code = cli.main([*argv, "--convention", convention, "--target", target], out=out)
                assert (code, out.getvalue()) == (0 if ok else 1, "".join(lines))


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
        # the file holds the unit composites that the built categories read by rule

        def filled(F):
            return scan_filled(F.dom), scan_filled(F.cod), F.omap, F.mmap

        assert loaded.categories == {name: scan_filled(c) for name, c in categories.items()}
        assert {n: filled(F) for n, F in loaded.functors.items()} == {
            n: filled(F) for n, F in functors.items()
        }
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
