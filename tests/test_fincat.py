import copy
import dataclasses
import glob
import json
import os
import pickle

import pytest

from fibcat import cli
from fibcat.errors import CodMismatch, MalformedSpec, WitnessFailure
from fibcat.fincat import (
    CONTRAVARIANT,
    FinCat,
    FunctorSpec,
    Morphism,
    SetValuedFunctor,
    check_iso_over,
    comma,
    compose_functors,
    connected_components,
    constant_functor,
    identity_functor,
    opposite,
    pullback,
    terminal_category,
    validate_category,
    validate_functor,
    validate_set_valued,
)
from fibcat.mcg import classify_over_mcg, mcg, mcg_on_function

from conftest import FIXTURES
from helpers import (
    scan_complete_units,
    bfs_components,
    built_category,
    chain_base,
    fig2_fibration,
    rand_dag_category,
    rand_functor,
    scan_build_category,
    scan_check_category_wellformed,
    scan_comma,
    scan_filled_result,
    scan_validate_by_rule,
    scan_validate_functor,
    strict_pullback,
)


def arrow_category():
    cat = FinCat(
        ("a", "b"),
        (
            Morphism("u", "a", "b"),
            Morphism("id:a", "a", "a"),
            Morphism("id:b", "b", "b"),
        ),
        {"a": "id:a", "b": "id:b"},
        {"u": {"id:a": "u"}, "id:b": {"u": "u", "id:b": "id:b"}, "id:a": {"id:a": "id:a"}},
    )
    return cat


class TestMorphism:
    """Morphism's hand-written __init__ keeps the generated dataclass's
    behaviour."""

    def test_keyword_construction(self):
        m = Morphism(tgt="b", id="f", src="a")
        assert (m.id, m.src, m.tgt) == ("f", "a", "b")
        assert m == Morphism("f", "a", "b")

    def test_a_missing_or_unknown_field_is_refused(self):
        with pytest.raises(TypeError):
            Morphism("f", "a")
        with pytest.raises(TypeError):
            Morphism("f", "a", "b", dom="a")

    def test_equality_and_hash_are_by_value(self):
        m = Morphism("f", "a", "b")
        assert m == Morphism("f", "a", "b") and hash(m) == hash(Morphism("f", "a", "b"))
        assert m != Morphism("f", "a", "c") and m != ("f", "a", "b")
        assert len({m, Morphism("f", "a", "b"), Morphism("g", "a", "b")}) == 2

    def test_repr(self):
        assert repr(Morphism("f", "a", "b")) == "Morphism(id='f', src='a', tgt='b')"

    def test_pickle_and_deepcopy_round_trip(self):
        m = Morphism("(f|g)", "a", "b")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, protocol)) == m
        assert copy.deepcopy(m) == m and copy.copy(m) == m

    def test_replace(self):
        m = Morphism("f", "a", "b")
        assert dataclasses.replace(m, tgt="c") == Morphism("f", "a", "c")
        assert m.tgt == "b"

    def test_match_on_positional_fields(self):
        match Morphism("f", "a", "b"):
            case Morphism(mid, src, tgt):
                assert (mid, src, tgt) == ("f", "a", "b")
            case _:
                pytest.fail("no match")

    def test_assignment_is_refused(self):
        m = Morphism("f", "a", "b")
        for field in ("id", "src", "tgt"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, field, "x")
        assert (m.id, m.src, m.tgt) == ("f", "a", "b") and not hasattr(m, "__dict__")

    def test_a_new_attribute_or_a_deletion_is_refused(self):
        m = Morphism("f", "a", "b")
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.extra = 1
        for name in ("id", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(m, name)
        assert (m.id, m.src, m.tgt) == ("f", "a", "b") and not hasattr(m, "extra")


class TestValidateCategory:
    def test_terminal_ok(self):
        assert validate_category(terminal_category()).ok

    def test_mcg2_ok(self):
        assert validate_category(mcg("ab")).ok

    def test_deleted_composite_is_flagged(self):
        g = mcg("ab")
        broken = FinCat(
            g.objects,
            g.morphisms,
            g.identity,
            {
                x: {f: h for f, h in row.items() if (x, f) != ("(b->a)", "(a->b)")}
                for x, row in g.compose.items()
            },
        )
        report = validate_category(broken)
        assert not report.ok
        assert any(v["law"] == "composition-totality" for v in report.violations)

    def test_dangling_id_raises(self):
        cat = FinCat(("a",), (Morphism("m", "a", "ghost"),), {"a": "m"}, {})
        with pytest.raises(MalformedSpec):
            validate_category(cat)

    def test_empty_category_ok(self):
        assert validate_category(FinCat((), (), {}, {})).ok


def _outcome(violations_of, c):
    """The violations found in c, or the path and message of the
    MalformedSpec raised."""
    try:
        return "checked", violations_of(c)
    except MalformedSpec as exc:
        return "malformed", exc.path, exc.message


def _parallel_redirect(rng, ids, identity, compose, by_id):
    """Redirect a composite of two non-identities to another morphism with
    the same endpoints, which keeps every law but associativity."""
    ends = {m: (by_id[m].src, by_id[m].tgt) for m in ids}
    choices = [
        (key, others)
        for key, h in compose.items()
        if not set(key) & set(identity.values())
        for others in [[m for m in ids if m != h and ends[m] == ends.get(h)]]
        if others
    ]
    if choices:
        key, others = rng.choice(choices)
        compose[key] = rng.choice(others)


def _mutate(rng, c, kind):
    """A copy of c with one defect of the given kind.  The table is edited
    as {(g, f): g.f} and grouped into rows again at the end."""
    objects, morphisms = list(c.objects), list(c.morphisms)
    identity = dict(c.identity)
    compose = {(g, f): h for g, row in c.compose.items() for f, h in row.items()}
    ids, by_id = [m.id for m in morphisms], {m.id: m for m in morphisms}
    if kind == "drop" and compose:
        del compose[rng.choice(list(compose))]
    elif kind == "redirect" and compose:
        compose[rng.choice(list(compose))] = rng.choice(ids)
    elif kind == "parallel":
        _parallel_redirect(rng, ids, identity, compose, by_id)
    elif kind == "unit":
        m = rng.choice(morphisms)
        i, j = (identity.get(m.src), m.id) if rng.random() < 0.5 else (m.id, identity.get(m.tgt))
        if i is not None and j is not None:
            compose[(i, j)] = rng.choice(ids)
    elif kind == "identity-endpoints":
        identity[rng.choice(objects)] = rng.choice(ids)
    elif kind == "missing-identity":
        identity.pop(rng.choice(objects), None)
    elif kind == "not-composable":
        g, f = rng.choice(morphisms), rng.choice(morphisms)
        if f.tgt != g.src:
            compose[(g.id, f.id)] = rng.choice(ids)
    elif kind == "dangling":
        where = rng.randrange(5)
        if where == 0:
            compose[(rng.choice(ids), "ghost")] = rng.choice(ids)
        elif where == 4:
            compose[("ghost", rng.choice(ids + ["ghost"]))] = rng.choice(ids + ["ghost"])
        elif where == 1 and compose:
            compose[rng.choice(list(compose))] = "ghost"
        elif where == 2:
            identity[rng.choice(objects)] = "ghost"
        else:
            m = rng.randrange(len(morphisms))
            morphisms[m] = Morphism(morphisms[m].id, morphisms[m].src, "nowhere")
    elif kind == "duplicate":
        if rng.random() < 0.5:
            m = rng.choice(morphisms)
            morphisms.insert(rng.randrange(len(morphisms) + 1), Morphism(m.id, m.tgt, m.src))
        else:
            objects.insert(rng.randrange(len(objects) + 1), rng.choice(objects))
    rows = {}
    for (g, f), h in compose.items():
        rows.setdefault(g, {})[f] = h
    return FinCat(tuple(objects), tuple(morphisms), identity, rows)


MUTATIONS = (
    "drop", "redirect", "parallel", "unit", "identity-endpoints", "missing-identity",
    "not-composable", "dangling", "duplicate",
)


class TestValidateCategoryOracle:
    """validate_category against the full pair and triple loops it had before
    it counted totality and skipped identity triples and thin categories,
    run on a copy whose table also holds the unit composites."""

    def test_matches_the_scan_on_random_categories(self, rng):
        laws, malformed = set(), 0
        for i in range(240):
            if i % 6 == 5:
                c = mcg([f"m{k}" for k in range(rng.randint(1, 3))])
            else:
                c = rand_dag_category(rng, max_objects=5, max_edges=6).cat
            cases = [c] + [
                _mutate(rng, c, kind) for kind in rng.sample(MUTATIONS, 3)
            ]
            # several defects at once, e.g. a dropped composite next to an entry
            # whose pair is not composable, which keeps the entry count
            twice = _mutate(rng, _mutate(rng, c, rng.choice(MUTATIONS)), rng.choice(MUTATIONS))
            for x in cases + [twice]:
                got = _outcome(lambda y: validate_category(y).violations, x)
                assert got == _outcome(scan_validate_by_rule, x)
                if got[0] == "malformed":
                    malformed += 1
                else:
                    laws |= {v["law"] for v in got[1]}
        assert laws == {
            "identity-totality", "identity-endpoints", "composition-totality",
            "composition-composability", "endpoint-coherence", "right-unit", "left-unit",
            "associativity",
        }
        assert malformed > 50

    def test_a_broken_composite_of_parallel_arrows_is_caught_without_identity_triples(self, rng):
        # every law but associativity holds, so only the triples with no
        # identity are checked, and they hold the violation
        found = 0
        for _ in range(200):
            c = rand_dag_category(rng, max_objects=6, max_edges=10).cat
            x = _mutate(rng, c, "parallel")
            violations = validate_category(x).violations
            assert violations == scan_validate_by_rule(x)
            assert {v["law"] for v in violations} <= {"associativity"}
            found += bool(violations)
        assert found >= 10

    def test_an_identity_triple_is_checked_when_a_unit_law_fails(self):
        # u, v: a -> b with u . id:a = v and v . id:a = u, so both right
        # units fail and (u, id:a, id:a) is not associative
        cat = parallel_pair(("u", "id:a", "v"), ("v", "id:a", "u"))
        violations = validate_category(cat).violations
        assert violations == scan_validate_by_rule(cat)
        assert ("associativity", ("u", "id:a", "id:a")) in [
            (v["law"], v["witness"]) for v in violations
        ]
        assert violations[0]["law"] == "right-unit"

    def test_a_thin_category_with_a_redirected_composite_walks_its_triples(self):
        # mcg(3) stays thin, but (b->c).(a->b) = (a->b) breaks endpoint
        # coherence, so the triples through that entry are checked too
        c = mcg("abc")
        c.compose["(b->c)"]["(a->b)"] = "(a->b)"
        violations = validate_category(c).violations
        assert violations == scan_validate_by_rule(c)
        assert [v["law"] for v in violations][:1] == ["endpoint-coherence"]
        assert "associativity" in {v["law"] for v in violations}

    def test_no_triple_of_a_lawful_thin_category_is_read(self):
        reads = []

        class Row(dict):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        c = mcg("abcd")
        rows = {g: Row(row) for g, row in c.compose.items()}
        assert validate_category(FinCat(c.objects, c.morphisms, c.identity, rows)).ok
        assert reads == []
        rows["(b->c)"]["(a->b)"] = "(a->b)"  # not lawful: the triples are walked
        report = validate_category(FinCat(c.objects, c.morphisms, c.identity, rows))
        assert "associativity" in {v["law"] for v in report.violations}

    def test_a_triple_through_a_row_of_two_entries_is_checked(self):
        # g's row holds its unit entry and g . f only, h's three entries;
        # h . (g . f) = x but (h . g) . f = y, with x, y: A -> D parallel
        arrows = [("f", "A", "B"), ("g", "B", "C"), ("h", "C", "D"), ("gf", "A", "C"),
                  ("hg", "B", "D"), ("x", "A", "D"), ("y", "A", "D")]
        composites = [("g", "f", "gf"), ("h", "g", "hg"), ("h", "gf", "x"), ("hg", "f", "y")]
        c = with_units("ABCD", arrows, composites)
        assert len(c.compose["g"]) == 2 and len(c.compose["h"]) == 3
        violations = validate_category(c).violations
        assert violations == scan_validate_by_rule(c)
        assert [(v["law"], v["witness"]) for v in violations] == [
            ("associativity", ("h", "g", "f"))
        ]

    def test_the_first_repeated_id_matches_the_scan(self, rng):
        for _ in range(200):
            c = rand_dag_category(rng, max_objects=4, max_edges=4).cat
            objects, morphisms = list(c.objects), list(c.morphisms)
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    morphisms.insert(rng.randrange(len(morphisms) + 1), rng.choice(morphisms))
                else:
                    objects.insert(rng.randrange(len(objects) + 1), rng.choice(objects))
            x = FinCat(tuple(objects), tuple(morphisms), c.identity, c.compose)
            got = _outcome(lambda y: validate_category(y).violations, x)
            assert got[0] == "malformed"
            assert got == _outcome(scan_check_category_wellformed, x)

    def test_a_late_repeat_among_many_ids_is_found_in_one_walk(self):
        # comparing each id with all those before it takes seconds here
        objects = tuple(f"o{i}" for i in range(20_000))
        identity = {o: f"id:{o}" for o in objects}
        morphisms = tuple(Morphism(m, o, o) for o, m in identity.items())
        for cat, path in [
            (FinCat(objects + objects[:1], morphisms, identity, {}), "objects[20000]"),
            (FinCat(objects, morphisms + morphisms[:1], identity, {}), "morphisms[20000].id"),
        ]:
            with pytest.raises(MalformedSpec) as exc:
                validate_category(cat)
            assert exc.value.path == path


def _category_doc(rng, c):
    """c as a workspace category document.  Some identities named
    id:<object> are left out, with their table entries, for load to
    synthesize and fill in again."""
    gone = {i for o, i in c.identity.items() if i == f"id:{o}" and rng.random() < 0.3}
    compose = {}
    for g, row in c.compose.items():
        for f, h in row.items():
            if not {g, f, h} & gone:
                compose.setdefault(g, {})[f] = h
    return {
        "objects": list(c.objects),
        "morphisms": [
            {"id": m.id, "src": m.src, "tgt": m.tgt} for m in c.morphisms if m.id not in gone
        ],
        "identity": {o: i for o, i in c.identity.items() if i not in gone},
        "compose": compose,
    }


def _mutate_doc(rng, doc, kind):
    """doc with one defect of its JSON shape or ids, of the given kind."""
    records, objects, compose = doc["morphisms"], doc["objects"], doc["compose"]
    if kind == "record" and records:
        records[rng.randrange(len(records))] = rng.choice([[], "u", 3])
    elif kind == "field" and records:
        rec = rng.choice(records)
        key = rng.choice(["id", "src", "tgt"])
        if rng.random() < 0.5:
            del rec[key]
        else:
            rec[key] = rng.choice([1, None, ["v0"]])
    elif kind == "composite" and compose:
        inner = compose[rng.choice(list(compose))]
        if inner:
            inner[rng.choice(list(inner))] = rng.choice([None, 1, ["h"]])
    elif kind == "inner" and compose:
        compose[rng.choice(list(compose))] = rng.choice(["h", [], 1])
    elif kind == "unknown-g":
        compose["ghost"] = {}
    elif kind == "id-rule":
        bad = rng.choice(["(", ")", "|x", ")("])
        if records and rng.random() < 0.5:
            rng.choice(records)["id"] += bad
        else:
            objects[rng.randrange(len(objects))] += bad
    elif kind == "identity-map":
        doc["identity"] = rng.choice([[], {objects[0]: 1}])
    elif kind == "declared" and doc["identity"]:
        del doc["identity"][rng.choice(list(doc["identity"]))]
    return doc


DOC_MUTATIONS = (
    "record", "field", "composite", "inner", "unknown-g", "id-rule", "identity-map", "declared",
)


class TestBuildCategoryOracle:
    """The loader's category builder against the one it replaced, which
    formatted every path up front, filled the unit composites by walking
    every composable pair and checked references before the laws."""

    def test_matches_the_scan_on_mutated_documents(self, rng):
        built, violated, messages = 0, 0, []
        for i in range(200):
            if i % 6 == 5:
                c = mcg([f"m{k}" for k in range(rng.randint(1, 3))])
            else:
                c = rand_dag_category(rng, max_objects=5, max_edges=6).cat
            cases = [c] + [_mutate(rng, c, kind) for kind in rng.sample(MUTATIONS, 3)]
            twice = _mutate(rng, _mutate(rng, c, rng.choice(MUTATIONS)), rng.choice(MUTATIONS))
            cases.append(twice)
            docs = [_category_doc(rng, x) for x in cases]
            docs.append(_mutate_doc(rng, _category_doc(rng, c), rng.choice(DOC_MUTATIONS)))
            for doc in docs:
                got = built_category(cli._build_category, doc)
                assert got == built_category(scan_build_category, doc)
                if got[0] == "schema":
                    messages.append(got[2])
                else:
                    built, violated = built + 1, violated + bool(got[5])
        assert built > 300 and violated > 50
        for kind in (
            "expected an object", "missing or non-string", "brackets must nest",
            "expected an object of strings", "already declared", "unknown morphism",
            "unknown composite", "duplicate morphism id", "duplicate object id",
        ):
            assert any(kind in m for m in messages), kind


    @pytest.mark.parametrize(
        "doc, outcome",
        [
            # the identity of a is u: a -> b, so load fills v . u = v as a unit
            # composite, and validate_category reports the wrong ends
            (
                {
                    "objects": ["a", "b", "c"],
                    "morphisms": [
                        {"id": "u", "src": "a", "tgt": "b"}, {"id": "v", "src": "b", "tgt": "c"},
                    ],
                    "identity": {"a": "u"},
                },
                "built",
            ),
            ({"objects": [], "morphisms": []}, "built"),
            # v . u and v . w are missing: the first in declaration order is reported
            (
                {
                    "objects": ["a", "b", "c"],
                    "morphisms": [
                        {"id": "v", "src": "b", "tgt": "c"}, {"id": "u", "src": "a", "tgt": "b"},
                        {"id": "w", "src": "a", "tgt": "b"},
                    ],
                },
                "schema",
            ),
        ],
        ids=["identity-with-wrong-ends", "empty", "two-missing"],
    )
    def test_matches_the_scan_on_written_documents(self, doc, outcome):
        got = built_category(cli._build_category, doc)
        assert got == built_category(scan_build_category, doc)
        assert got[0] == outcome


def _negative_category(name, category):
    with open(os.path.join(FIXTURES, "negative", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)["categories"][category]


class TestLoadPaths:
    """Load validates a category on one of three paths: with every identity
    rightly ended, it reads only the entries the file wrote and checks the
    unit laws only if one of those is a wrong unit entry; otherwise it walks
    every entry.  Each path gives what the scan gives."""

    @pytest.mark.parametrize(
        "doc, read, laws",
        [
            # two parallel composites and a file-given unit entry that is right:
            # the file's three entries are read, the twelve unit pairs are not
            (
                {
                    "objects": ["a", "b", "c"],
                    "morphisms": [
                        {"id": "u", "src": "a", "tgt": "b"}, {"id": "v", "src": "a", "tgt": "b"},
                        {"id": "w", "src": "b", "tgt": "c"}, {"id": "wu", "src": "a", "tgt": "c"},
                        {"id": "wv", "src": "a", "tgt": "c"},
                    ],
                    "compose": {"w": {"u": "wu", "v": "wv"}, "u": {"id:a": "u"}},
                },
                3,
                [],
            ),
            # the identity of b is f: a -> b, so the four unit pairs are walked
            # too, by rule, after the file's five entries, and read no row
            (_negative_category("misended_identity", "C"), 5, [
                "identity-endpoints", "composition-composability", "endpoint-coherence",
                "endpoint-coherence",
            ]),
            # the file gives f . id:A = g, so the unit laws are checked
            (_negative_category("wrong_unit_composite", "D"), 1, ["right-unit"]),
            # one object, two loops: a . a = b but a . (a . a) != (a . a) . a
            (_negative_category("broken_assoc", "loops"), 4, ["associativity"] * 2),
        ],
        ids=["filled-entries-skipped", "misended-identity", "wrong-unit-entry", "broken-triple"],
    )
    def test_each_path_matches_the_scan(self, category_reads, doc, read, laws):
        got = built_category(cli._build_category, doc)
        assert category_reads == [read]
        assert got == built_category(scan_build_category, doc)
        assert [v["law"].split(": ")[1] for v in got[5]] == laws

    def test_a_loaded_category_keeps_the_report_of_a_fresh_check(self, fixtures_dir):
        paths = glob.glob(os.path.join(fixtures_dir, "**", "*.json"), recursive=True)
        checked = 0
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                categories = json.load(fh).get("categories", {})
            for name, doc in categories.items():
                c = cli._build_category(name, doc, [])
                assert validate_category(c) is vars(c)["_report"]
                assert validate_category(c) == validate_category(copy.deepcopy(c))
                checked += 1
        assert checked > 10


class TestValidateFunctor:
    def test_identity_functor(self):
        assert validate_functor(identity_functor(chain_base())).ok

    def test_fig2_projection(self):
        assert validate_functor(fig2_fibration()).ok

    def test_lift_sent_to_identity_breaks_endpoints(self):
        p = fig2_fibration()
        mmap = dict(p.mmap)
        mmap["f:B0"] = "id:A"
        bad = FunctorSpec(p.dom, p.cod, p.omap, mmap)
        report = validate_functor(bad)
        assert any(v["law"] == "endpoint-preservation" for v in report.violations)

    def test_composite_of_functors_is_functor(self, rng):
        for _ in range(40):
            A = rand_dag_category(rng, 3, 3)
            B = rand_dag_category(rng, 3, 3)
            C = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, A, B.cat)
            G = rand_functor(rng, B, C.cat)
            GF = compose_functors(
                G, FunctorSpec(A.cat, B.cat, F.omap, F.mmap)
            )
            assert validate_functor(GF).ok

    def test_functors_that_do_not_compose(self):
        F = identity_functor(terminal_category())
        with pytest.raises(CodMismatch, match="cod\\(F\\) != dom\\(G\\)"):
            compose_functors(identity_functor(chain_base()), F)


def with_units(objects, arrows, composites=()):
    """A category on objects with identities id:<o>, the arrows (id, src,
    tgt), the composites (g, f, g.f), and those the unit laws force."""
    cat = FinCat(
        objects,
        [Morphism(f"id:{o}", o, o) for o in objects] + [Morphism(*a) for a in arrows],
        {o: f"id:{o}" for o in objects},
        {},
    )
    for g, f, h in composites:
        cat.compose.setdefault(g, {})[f] = h
    scan_complete_units(cat)
    return cat


def parallel_pair(*composites):
    return with_units("ab", [("u", "a", "b"), ("v", "a", "b")], composites)


def chain_with_gf(h):
    """A -> B -> C whose composite g.f is h."""
    arrows = [("f", "A", "B"), ("g", "B", "C"), ("gf", "A", "C")]
    return with_units("ABC", arrows, [("g", "f", h)])


def idempotent():
    """One object a and e: a -> a with e.e = e."""
    return with_units("a", [("e", "a", "a")], [("e", "e", "e")])


def on_the_point(*elts, action):
    return SetValuedFunctor(terminal_category(), CONTRAVARIANT, {"*": elts}, {"id:*": action})


# One minimal structure per law that breaks that law alone.
LAW_CASES = [
    (validate_category, FinCat(("a",), (), {}, {}), [("identity-totality", ("a",))]),
    (
        validate_category,
        FinCat(
            ("a", "b"),
            (Morphism("u", "a", "b"), Morphism("id:b", "b", "b")),
            {"a": "u", "b": "id:b"},
            {"id:b": {"u": "u", "id:b": "id:b"}},
        ),
        [("identity-endpoints", ("a", "u"))],
    ),
    (
        validate_category,
        with_units("ab", [("u", "a", "b")], [("u", "u", "u")]),
        [("composition-composability", ("u", "u"))],
    ),
    (validate_category, chain_with_gf("f"), [("endpoint-coherence", ("g", "f", "f"))]),
    (validate_category, parallel_pair(("u", "id:a", "v")), [("right-unit", ("u", "id:a"))]),
    (validate_category, parallel_pair(("id:b", "u", "v")), [("left-unit", ("id:b", "u"))]),
    (
        validate_functor,
        FunctorSpec(terminal_category(), idempotent(), {"*": "a"}, {"id:*": "e"}),
        [("identity-preservation", ("*",))],
    ),
    (
        validate_set_valued,
        on_the_point("x", action={"x": "y"}),
        [("action-endpoints", ("id:*",))],
    ),
    (
        validate_set_valued,
        on_the_point("x", "y", action={"x": "x", "y": "x"}),
        [("identity-action", ("*",))],
    ),
    (
        # the base breaks endpoint-coherence: g.f is f
        validate_set_valued,
        SetValuedFunctor(
            chain_with_gf("f"),
            CONTRAVARIANT,
            {"A": ("a",), "B": ("b",), "C": ("c",)},
            {
                "f": {"b": "a"},
                "g": {"c": "b"},
                "gf": {"c": "a"},
                **{f"id:{o}": {o.lower(): o.lower()} for o in "ABC"},
            },
        ),
        [("composition-action", ("g", "f"))],
    ),
]


@pytest.mark.parametrize(
    "validate, x, violations", LAW_CASES, ids=[vs[0][0] for _, _, vs in LAW_CASES]
)
def test_each_law_reports_its_witness(validate, x, violations):
    assert [(v["law"], v["witness"]) for v in validate(x).violations] == violations


def test_an_identity_that_is_no_loop_breaks_the_identity_action():
    # u: a -> b is named the identity of a, so the identity's table has no row for x
    base = FinCat(
        ("a", "b"),
        (Morphism("u", "a", "b"), Morphism("id:b", "b", "b")),
        {"a": "u", "b": "id:b"},
        {"id:b": {"u": "u", "id:b": "id:b"}},
    )
    W = SetValuedFunctor(
        base, CONTRAVARIANT, {"a": ("x",), "b": ("y",)}, {"u": {"y": "x"}, "id:b": {"y": "y"}}
    )
    assert [(v["law"], v["witness"]) for v in validate_set_valued(W).violations] == [
        ("identity-action", ("a",))
    ]


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "replace": dataclasses.replace,
}


class TestKeptReports:
    """validate_category, validate_functor and validate_set_valued keep their
    report on the value they checked; no copy carries it, so a changed copy
    is checked afresh."""

    def test_a_validated_value_returns_its_kept_report(self, fixtures_dir):
        ws = cli.load(os.path.join(fixtures_dir, "fig2.json"))
        c, p, W = ws.categories["ABC"], ws.functors["p"], ws.presheaves["W"]
        assert validate_category(c) is validate_category(c)
        assert validate_functor(p) is validate_functor(p)
        assert validate_set_valued(W) is validate_set_valued(W)
        assert validate_category(c).ok and validate_functor(p).ok and validate_set_valued(W).ok

    @pytest.mark.parametrize("copier", COPIES.values(), ids=COPIES.keys())
    def test_a_changed_copy_of_a_validated_category_is_reported(self, fixtures_dir, copier):
        c = cli.load(os.path.join(fixtures_dir, "fig2.json")).categories["ABC"]
        assert validate_category(c).ok
        copied = copier(c)
        assert "_report" not in vars(copied)
        copied.compose["g"]["f"] = "f"
        violation = {"law": "endpoint-coherence", "witness": ("g", "f", "f")}
        assert validate_category(copied).violations == (violation,)

    @pytest.mark.parametrize("copier", COPIES.values(), ids=COPIES.keys())
    def test_a_changed_copy_of_a_validated_functor_is_reported(self, fixtures_dir, copier):
        p = cli.load(os.path.join(fixtures_dir, "fig2.json")).functors["p"]
        assert validate_functor(p).ok and "_report" in vars(p)
        copied = copier(p)
        assert "_report" not in vars(copied)
        copied.mmap["f:B0"] = "g"
        violation = {"law": "endpoint-preservation", "witness": ("f:B0",)}
        assert validate_functor(copied).violations[0] == violation

    @pytest.mark.parametrize("copier", COPIES.values(), ids=COPIES.keys())
    def test_a_changed_copy_of_a_validated_presheaf_is_reported(self, fixtures_dir, copier):
        W = cli.load(os.path.join(fixtures_dir, "fig2.json")).presheaves["W"]
        assert validate_set_valued(W).ok
        copied = copier(W)
        assert "_report" not in vars(copied)
        copied.action["f"]["B0"] = "A1"
        violation = {"law": "composition-action", "witness": ("g", "f")}
        assert validate_set_valued(copied).violations == (violation,)


class TestReferencePaths:
    def test_dangling_morphism_end(self):
        cat = FinCat(("a",), (Morphism("m", "a", "ghost"),), {"a": "m"}, {})
        with pytest.raises(MalformedSpec) as exc:
            validate_category(cat)
        assert (exc.value.path, exc.value.message) == ("morphisms[0].tgt", "unknown object ghost")

    def test_duplicate_elements(self):
        W = SetValuedFunctor(mcg("A"), CONTRAVARIANT, {"A": ("x", "x")}, {"(A->A)": {"x": "x"}})
        with pytest.raises(MalformedSpec) as exc:
            validate_set_valued(W)
        assert (exc.value.path, exc.value.message) == ("eltset.A", "duplicate elements")

    def test_unknown_object_image(self):
        c = chain_base()
        F = FunctorSpec(c, c, {**identity_functor(c).omap, "B": "Z"}, identity_functor(c).mmap)
        with pytest.raises(MalformedSpec) as exc:
            validate_functor(F)
        assert exc.value.path == "omap.B"

    @pytest.mark.parametrize(
        "key, image, message", [("omap", "A", "unknown object"), ("mmap", "f", "unknown morphism")]
    )
    def test_a_key_outside_the_domain(self, key, image, message):
        one = identity_functor(chain_base())
        F = dataclasses.replace(one, **{key: {**getattr(one, key), "Z": image}})
        for validate in (validate_functor, scan_validate_functor):
            with pytest.raises(MalformedSpec) as exc:
                validate(F)
            assert (exc.value.path, exc.value.message) == (f"{key}.Z", message)


class TestCheckIsoOver:
    """One case per message, a pass returning the inverse, and a pass on an
    iso other than the one classify_over_mcg builds."""

    def test_identity_is_an_iso_over_the_base(self):
        p = fig2_fibration()
        one = identity_functor(p.dom)
        inverse = check_iso_over(one, p, p)
        assert inverse == one and list(inverse.mmap) == list(one.mmap)

    def test_a_broken_triangle_is_refused(self):
        p = fig2_fibration()
        one = identity_functor(p.dom)
        q = FunctorSpec(p.dom, p.cod, {**p.omap, "A0": "B"}, p.mmap)
        with pytest.raises(WitnessFailure, match="triangle over the base fails"):
            check_iso_over(one, p, q)

    def test_a_witness_that_is_no_functor_is_refused(self):
        c = chain_base()
        p = identity_functor(c)
        bad = FunctorSpec(c, c, p.omap, {**p.mmap, "f": "g"})
        with pytest.raises(WitnessFailure, match="witness map is not a functor"):
            check_iso_over(bad, p, p)

    def test_an_inverse_that_is_no_functor_is_refused(self):
        # H is the identity maps into a copy of the chain whose table has one
        # more entry, f after g, which do not compose: H keeps every composite
        # of the chain and q . H = p, but the inverse does not keep that entry
        c = chain_base()
        table = {**c.compose, "f": {**c.compose["f"], "g": "gf"}}
        wider = FinCat(c.objects, c.morphisms, c.identity, table)
        one = identity_functor(c)
        H, q = FunctorSpec(c, wider, one.omap, one.mmap), FunctorSpec(wider, c, one.omap, one.mmap)
        assert validate_functor(H).ok and compose_functors(q, H) == one
        with pytest.raises(WitnessFailure, match="witness map is not a functor"):
            check_iso_over(H, one, q)

    def test_a_witness_without_a_left_inverse_is_refused(self):
        c = chain_base()
        p = identity_functor(c)
        with pytest.raises(WitnessFailure, match="H has no left inverse"):
            check_iso_over(constant_functor(c, c, "A"), p, p)

    def test_a_witness_without_a_right_inverse_is_refused(self):
        # the point includes into the chain at A, which it does not cover
        one, c = terminal_category(), chain_base()
        H, p, q = constant_functor(one, c, "A"), identity_functor(one), identity_functor(c)
        with pytest.raises(WitnessFailure, match="H has no right inverse"):
            check_iso_over(H, p, q)

    def test_a_witness_onto_the_objects_but_not_the_morphisms_has_no_right_inverse(self):
        # the point includes into one object with an idempotent loop e, which
        # q sends to the identity: H is a bijection on objects that misses e
        one = terminal_category()
        loop = FinCat(("*",), (Morphism("id:*", "*", "*"), Morphism("e", "*", "*")),
                      {"*": "id:*"}, {"e": {"e": "e"}})
        H = FunctorSpec(one, loop, {"*": "*"}, {"id:*": "id:*"})
        p, q = identity_functor(one), FunctorSpec(loop, one, {"*": "*"}, {"id:*": "id:*", "e": "id:*"})
        assert validate_functor(H).ok and validate_functor(q).ok and compose_functors(q, H) == p
        with pytest.raises(WitnessFailure, match="H has no right inverse"):
            check_iso_over(H, p, q)

    def test_a_fibre_swap_after_the_classification_is_an_iso_over_the_base(self):
        # X = {x0, x1}, and X x base lists x0's copy of the base, then x1's:
        # swapping the two copies is an automorphism over the base, its own
        # inverse, so the swap after the iso has the iso's inverse after it
        p = cli.load(os.path.join(FIXTURES, "mcg_fibration.json")).functors["p"]
        cls = classify_over_mcg(p)
        q = cls.product_projection
        objects, arrows = q.dom.objects, [m.id for m in q.dom.morphisms]
        n, k = len(objects) // 2, len(arrows) // 2
        swap = FunctorSpec(q.dom, q.dom, dict(zip(objects, objects[n:] + objects[:n])),
                           dict(zip(arrows, arrows[k:] + arrows[:k])))
        assert len(cls.fibre_set) == 2 and validate_functor(swap).ok
        inverse = check_iso_over(compose_functors(swap, cls.iso), p, q)
        assert inverse == compose_functors(cls.inverse, swap) != cls.inverse
        assert (list(inverse.omap), list(inverse.mmap)) == (list(objects), arrows)


class TestOpposite:
    def test_terminal_self_dual(self):
        assert opposite(terminal_category()) == terminal_category()

    def test_involution_on_the_nose(self):
        c = chain_base()
        assert opposite(opposite(c)) == c

    def test_endpoints_swap(self):
        op = opposite(chain_base())
        assert op.src("f") == "B" and op.tgt("f") == "A"
        assert op.src("gf") == "C" and op.tgt("gf") == "A"
        assert validate_category(op).ok


class TestComma:
    def test_terminal_comma(self):
        one = identity_functor(terminal_category())
        cm = comma(one, one)
        assert len(cm.cat.objects) == 1
        assert validate_category(cm.cat).ok

    def test_arrow_category_of_the_arrow(self):
        idf = identity_functor(arrow_category())
        cm = comma(idf, idf)
        # objects are the three morphisms id_a, u, id_b
        assert len(cm.cat.objects) == 3
        assert validate_category(cm.cat).ok
        assert validate_functor(cm.projA).ok
        assert validate_functor(cm.projB).ok

    def test_codomain_mismatch(self):
        with pytest.raises(CodMismatch):
            comma(identity_functor(terminal_category()), identity_functor(chain_base()))

    def test_projections_are_functors_on_random_inputs(self, rng):
        for _ in range(30):
            C = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
            G = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
            cm = comma(F, G)
            assert validate_category(cm.cat).ok
            assert validate_functor(cm.projA).ok
            assert validate_functor(cm.projB).ok

    def test_matches_the_scan_on_random_functors_and_groupoids(self, rng):
        for i in range(60):
            if i % 4 == 3:  # functors between groupoids, also non-injective ones
                A, B = rng.choice(["ab", "abc"]), rng.choice(["xy", "xyz"])
                fn = {a: rng.choice(B) for a in A}
                F, G = mcg_on_function(fn, A, B), identity_functor(mcg(B))
            else:
                C = rand_dag_category(rng, 3, 4)
                F = rand_functor(rng, rand_dag_category(rng, 3, 3), C.cat)
                G = rand_functor(rng, rand_dag_category(rng, 3, 3), C.cat)
            cm, oracle = comma(F, G), scan_comma(F, G)
            assert scan_filled_result(cm) == oracle
            assert (cm.cat.objects, cm.cat.morphisms) == (oracle.cat.objects, oracle.cat.morphisms)


class TestPullback:
    def test_pullback_along_identity(self):
        c = chain_base()
        idf = identity_functor(c)
        pb = pullback(idf, idf)
        assert len(pb.cat.objects) == len(c.objects)
        assert len(pb.cat.morphisms) == len(c.morphisms)

    def test_fibre_as_pullback(self):
        # pulling the total category back along the inclusion of A gives
        # the three-element discrete fibre
        p = fig2_fibration()
        one = terminal_category()
        incl = FunctorSpec(one, p.cod, {"*": "A"}, {"id:*": "id:A"})
        pb = pullback(p, incl)
        assert len(pb.cat.objects) == 3
        assert all(pb.cat.is_identity(m.id) for m in pb.cat.morphisms)

    def test_disjoint_inclusions_pull_back_to_empty(self):
        arr = arrow_category()
        one = terminal_category()
        at_a = FunctorSpec(one, arr, {"*": "a"}, {"id:*": "id:a"})
        at_b = FunctorSpec(one, arr, {"*": "b"}, {"id:*": "id:b"})
        pb = pullback(at_a, at_b)
        assert pb.cat.objects == ()

    def test_projections_commute_strictly(self, rng):
        for _ in range(20):
            C = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
            G = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
            pb = pullback(F, G)
            assert compose_functors(F, pb.projA) == compose_functors(G, pb.projB)

    def test_matches_the_full_subcategory_of_the_comma(self, rng):
        for _ in range(100):
            C = rand_dag_category(rng, 3, 3)
            F = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
            G = rand_functor(rng, rand_dag_category(rng, 3, 2), C.cat)
            for A, B in ((F, G), (F, F), (F, identity_functor(C.cat))):
                pb, oracle = pullback(A, B), strict_pullback(A, B)
                assert pb.cat.objects == oracle.cat.objects
                assert pb.cat.morphisms == oracle.cat.morphisms
                assert pb.cat.identity == oracle.cat.identity
                assert scan_filled_result(pb) == oracle


class TestConnectedComponents:
    def test_discrete(self):
        cat = FinCat(
            ("a", "b", "c"),
            tuple(Morphism(f"id:{o}", o, o) for o in "abc"),
            {o: f"id:{o}" for o in "abc"},
            {(f"id:{o}", f"id:{o}"): f"id:{o}" for o in "abc"},
        )
        edges = [(m.src, m.tgt) for m in cat.morphisms]
        assert connected_components(cat.objects, edges) == [["a"], ["b"], ["c"]]

    def test_mcg_is_connected(self):
        c = mcg("wxyz")
        assert len(connected_components(c.objects, [(m.src, m.tgt) for m in c.morphisms])) == 1

    def test_matches_bfs_oracle(self, rng):
        for _ in range(200):
            c = rand_dag_category(rng, 5, 4).cat
            edges = [(m.src, m.tgt) for m in c.morphisms]
            assert connected_components(c.objects, edges) == bfs_components(c)
