import argparse
import glob
import io
import json
import os
import random
import sys

import pytest

from fibcat import cli, factor, fincat
from fibcat.errors import MalformedSpec, SchemaError, ValidationError
from fibcat.fib import is_discrete_fibration
from fibcat.mcg import mcg, product_with_mcg

from helpers import rand_dag_category


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def fig2(fixtures_dir):
    return os.path.join(fixtures_dir, "fig2.json")


@pytest.fixture
def span(fixtures_dir):
    return os.path.join(fixtures_dir, "span.json")


class TestLoadSave:
    def test_load_synthesizes_identities(self, fig2):
        ws = cli.load(fig2)
        cat = ws.categories["ABC"]
        assert cat.identity == {"A": "id:A", "B": "id:B", "C": "id:C"}
        assert cat.compose["g"]["id:B"] == "g"

    def test_missing_nonunit_composite_is_a_schema_error(self, tmp_path):
        doc = {
            "format": 1,
            "categories": {
                "chain": {
                    "objects": ["a", "b", "c"],
                    "morphisms": [
                        {"id": "f", "src": "a", "tgt": "b"},
                        {"id": "g", "src": "b", "tgt": "c"},
                    ],
                }
            },
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            cli.load(str(path))
        assert "compose" in exc.value.path

    def test_save_load_is_byte_stable(self, fig2, tmp_path):
        ws = cli.load(fig2)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        cli.save(ws, str(first))
        cli.save(cli.load(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            cli.load(str(path))

    @pytest.mark.parametrize(
        "content, error",
        [
            (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
            (b"[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf-8", "nested-too-deeply"],
    )
    def test_an_unreadable_file_is_invalid_json(self, tmp_path, content, error):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError) as exc:
            cli.load(str(path))
        assert exc.value.path == "$"
        code, text = run(["validate", str(path)])
        assert code == 2
        assert text.startswith(f"ERROR: $: invalid JSON: {error}")
        assert text.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, argv",
        [
            ({"format": 1, "categories": {"C\ud800": {"objects": 5}}}, ["validate"]),
            (None, ["fibres", "p"]),
            (None, ["comma", "p", "p"]),
            (None, ["dot", "C"]),
        ],
        ids=["validate", "fibres", "comma", "dot"],
    )
    def test_a_lone_surrogate_is_refused_at_load(self, tmp_path, doc, argv):
        # json.dumps writes it as the escape \ud800; printed, it would raise
        # UnicodeEncodeError on any UTF-8 output
        doc = doc or self._one_object_workspace("a\ud800")
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        code, text = run([argv[0], str(path), *argv[1:]])
        assert (code, text) == (2, "ERROR: $: a \\u escape gives a lone surrogate\n")

    def test_an_escaped_surrogate_pair_loads(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(self._one_object_workspace("a\U0001F600")))
        assert "\\ud83d\\ude00" in path.read_text()
        assert run(["fibres", str(path), "p"]) == (0, "a\U0001F600: a\U0001F600\n")

    @staticmethod
    def _one_object_workspace(obj):
        """A category C on obj alone and its identity functor p."""
        return {
            "format": 1,
            "categories": {"C": {"objects": [obj], "morphisms": []}},
            "functors": {"p": {"dom": "C", "cod": "C", "omap": {obj: obj}, "mmap": {}}},
        }

    @pytest.mark.parametrize(
        "version, result",
        [
            (True, (2, "ERROR: format: expected format 1\n")),  # True == 1 in Python
            (1.0, (0, "OK: workspace valid (0 categories)\n")),  # the same JSON number
        ],
    )
    def test_format_is_the_number_one(self, tmp_path, version, result):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({"format": version}))
        assert run(["validate", str(path)]) == result

    def test_missing_file(self, tmp_path):
        from fibcat.errors import IoError

        with pytest.raises(IoError):
            cli.load(str(tmp_path / "absent.json"))

    def test_save_keeps_each_phrase_and_type_text_as_written(self, tmp_path):
        lexicon = [{"phrase": "big  deal", "type": "n . n^l"}, {"phrase": " deal", "type": "n"}]
        doc = {"format": 1, "lexicons": {"L": lexicon}, "corpora": {"K": ["big  deal deal"]}}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        cli.save(cli.load(str(path)), str(path))
        saved = json.loads(path.read_text())
        assert saved["lexicons"] == {"L": lexicon}
        assert saved["corpora"] == {"K": [["big", "deal", "deal"]]}

    def test_save_to_a_missing_directory(self, fig2, tmp_path):
        from fibcat.errors import IoError

        with pytest.raises(IoError):
            cli.save(cli.load(fig2), str(tmp_path / "absent" / "ws.json"))
        assert not (tmp_path / "absent").exists()

    def test_save_of_a_functor_on_a_category_outside_the_workspace(self, tmp_path):
        from fibcat.errors import UnknownName
        from fibcat.fincat import identity_functor, terminal_category

        ws = cli.Workspace(functors={"p": identity_functor(terminal_category())})
        path = tmp_path / "ws.json"
        with pytest.raises(UnknownName, match="category is not part of the workspace"):
            cli.save(ws, str(path))
        assert not path.exists()


class TestNegativeFixtures:
    def test_broken_associativity_rejected(self, fixtures_dir):
        path = os.path.join(fixtures_dir, "negative", "broken_assoc.json")
        with pytest.raises(ValidationError) as exc:
            cli.load(path)
        assert any(
            "associativity" in v["law"] for v in exc.value.report.violations
        )

    def test_missing_mmap_rejected(self, fixtures_dir):
        path = os.path.join(fixtures_dir, "negative", "missing_mmap.json")
        with pytest.raises(SchemaError) as exc:
            cli.load(path)
        assert exc.value.path == "functors.p.mmap.f:B1"

    def test_missing_lift_loads_but_fails_the_fibration_check(self, fixtures_dir):
        path = os.path.join(fixtures_dir, "negative", "missing_lift.json")
        ws = cli.load(path)
        report = is_discrete_fibration(ws.functors["p"])
        assert {"law": "unique-lift", "witness": ("C0", "g", 0)} in report.violations


class TestStrayMapKeys:
    """A functor map key outside the domain is refused at load, so no later
    command fails on it."""

    @pytest.mark.parametrize(
        "fixture, key, image, argv",
        [
            ("fig2.json", "omap", "B", ["validate"]),
            ("fig2.json", "omap", "B", ["roundtrip", "p"]),
            ("fig2.json", "omap", "B", ["factorize", "--opfib", "p"]),
            ("fig2.json", "mmap", "g", ["factorize", "--fib", "p"]),
            ("mcg_fibration.json", "omap", "m0", ["classify-mcg", "p"]),
            ("mcg_fibration.json", "mmap", "(m0->m0)", ["classify-mcg", "p"]),
        ],
    )
    def test_a_stray_key_exits_two(self, fixtures_dir, tmp_path, fixture, key, image, argv):
        with open(os.path.join(fixtures_dir, fixture), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["functors"]["p"][key]["zzz"] = image
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        what = "object" if key == "omap" else "morphism"
        error = f"ERROR: functors.p.{key}.zzz: unknown {what}\n"
        assert run([argv[0], str(path), *argv[1:]]) == (2, error)

    def test_a_repeated_domain_id_is_no_stray_key(self):
        i = fincat.Morphism("i", "A", "A")
        c = fincat.FinCat(("A", "A"), (i, i), {"A": "i"}, {"i": {"i": "i"}})
        assert fincat.validate_functor(fincat.identity_functor(c)).ok


class TestCommands:
    def test_validate_ok(self, fig2):
        code, text = run(["validate", fig2])
        assert code == 0
        assert text.startswith("OK:")

    def test_validate_exit_one(self, fixtures_dir):
        path = os.path.join(fixtures_dir, "negative", "broken_assoc.json")
        code, text = run(["validate", path])
        assert code == 1
        assert "FAIL: validation" in text

    def test_schema_errors_exit_two(self, fixtures_dir):
        path = os.path.join(fixtures_dir, "negative", "missing_mmap.json")
        code, text = run(["validate", path])
        assert code == 2
        assert text.startswith("ERROR:")

    def test_usage_error_exits_two(self):
        assert run(["no-such-command"])[0] == 2

    def test_fibres(self, fig2):
        code, text = run(["fibres", fig2, "p"])
        assert code == 0
        assert "A: A0 A1 A2" in text
        assert "C: C0 C1" in text

    def test_reindex(self, fig2):
        code, text = run(["reindex", fig2, "p", "f"])
        assert code == 0
        assert text.splitlines() == ["B0 -> A0", "B1 -> A2", "B2 -> A2"]

    def test_check_fib_discrete(self, fig2, span):
        assert run(["check-fib", "--discrete", fig2, "p"])[0] == 0
        code, text = run(["check-fib", "--discrete", span, "q"])
        assert code == 1
        assert "unique-lift" in text

    def test_check_fib_cloven(self, fig2, span):
        code, text = run(["check-fib", "--cloven", fig2, "p"])
        assert code == 0
        assert "LIFT: (B0, f) -> f:B0" in text
        assert run(["check-fib", "--cloven", span, "q"])[0] == 1

    def test_elements_matches_library(self, fig2):
        from fibcat.groth import elements

        code, text = run(["elements", fig2, "W"])
        assert code == 0
        ws = cli.load(fig2)
        built = elements(ws.presheaves["W"])
        for o in built.total.objects:
            assert f"OBJECT: {o}" in text

    def test_straighten(self, fig2):
        code, text = run(["straighten", fig2, "p"])
        assert code == 0
        assert "A: A0 A1 A2" in text
        assert "f: {B0->A0, B1->A2, B2->A2}" in text

    def test_roundtrip(self, fig2):
        for name in ("W", "p"):
            code, text = run(["roundtrip", fig2, name])
            assert code == 0
            assert "CHECKED: true" in text

    def test_factorize(self, fig2):
        code, text = run(["factorize", "--opfib", fig2, "p"])
        assert code == 0
        assert "VARIANT: opfibration" in text
        code, text = run(["factorize", "--fib", fig2, "p"])
        assert code == 0
        assert "VARIANT: fibration" in text

    def test_check_initial_final(self, fig2):
        # the fig2 projection is surjective with connected commas upstairs?
        code, _ = run(["check-initial", fig2, "p"])
        assert code in (0, 1)  # smoke: command runs and reports
        code, _ = run(["check-final", fig2, "p"])
        assert code in (0, 1)

    def test_comma_and_pullback(self, fig2):
        code, text = run(["comma", fig2, "p", "p"])
        assert code == 0
        assert "OBJECT:" in text
        code, text = run(["pullback", fig2, "p", "p"])
        assert code == 0
        assert "OBJECT:" in text

    @pytest.mark.parametrize("command", ["comma", "pullback"])
    def test_comma_and_pullback_build_no_table_and_no_projection(
        self, fig2, monkeypatch, command
    ):
        # they print the objects and morphisms only, so the category they
        # build keeps its empty table and neither projection is made
        built, functors = [], []
        real_cat, real_functor = fincat.FinCat, fincat.FunctorSpec
        monkeypatch.setattr(fincat, "FinCat", lambda *a: built.append(real_cat(*a)) or built[-1])
        monkeypatch.setattr(fincat, "FunctorSpec", lambda *a: functors.append(a) or real_functor(*a))
        code, text = run([command, fig2, "p", "p"])
        assert code == 0 and "MORPHISM: " in text
        objects = tuple(line[len("OBJECT: "):] for line in text.splitlines() if "OBJECT: " in line)
        assert [c.objects for c in built] == [objects]
        assert built[0].compose == {}
        assert functors == []

    def test_mcg_builds_no_table(self, monkeypatch):
        # it prints n + n^2 lines, so the one category it builds keeps its
        # empty table rather than mcg's n^3 composites
        module = sys.modules[mcg.__module__]  # fibcat.mcg names the function
        built, real_cat = [], module.FinCat
        monkeypatch.setattr(module, "FinCat", lambda *a, **k: built.append(real_cat(*a, **k)) or built[-1])
        code, text = run(["mcg", "3"])
        assert (code, len(text.splitlines())) == (0, 3 + 6)
        assert [c.objects for c in built] == [("0", "1", "2")]
        assert built[0].compose == {}

    def test_mcg_command(self):
        code, text = run(["mcg", "3"])
        assert code == 0
        assert text.count("OBJECT:") == 3
        assert text.count("MORPHISM:") == 6  # identities suppressed
        code, text = run(["mcg", "a,b"])
        assert "OBJECT: a" in text

    # only ASCII digits, with an optional "-", are a count
    @pytest.mark.parametrize("name", ["1_0", "٣", "+3"])
    def test_mcg_reads_what_int_would_count_as_one_name(self, name):
        assert run(["mcg", name]) == (0, f"OBJECT: {name}\n")

    def test_classify_mcg(self, tmp_path):
        base = mcg("ab")
        total, proj = product_with_mcg(("x0", "x1"), base)
        ws = cli.Workspace()
        ws.categories = {"G": base, "T": total}
        ws.functors = {"p": proj}
        path = tmp_path / "mcg.json"
        cli.save(ws, str(path))
        code, text = run(["classify-mcg", str(path), "p"])
        assert code == 0
        assert "FIBRE-SET: (x0|a) (x1|a)" in text

    def test_parse(self, fig2):
        code, text = run(
            ["parse", "--lexicon", fig2, "--target", "s", "the cat sleeps"]
        )
        assert code == 0
        assert "SEGMENT: [the cat] : n" in text
        assert "RESULT: s" in text

    def test_parse_failure_exit_one(self, fig2):
        code, text = run(
            ["parse", "--lexicon", fig2, "--target", "s", "sleeps the cat"]
        )
        assert code == 1
        assert "FAIL: no-reduction" in text

    def test_semantics(self, fig2):
        code, text = run(
            ["semantics", fig2, "--lexicon", "toy", "--corpus", "toy", "--target", "s"]
        )
        assert code == 0
        assert "FIBRE-SIZE: (the cat, n) = 2" in text
        assert "DISCRETE-FIBRATION: true" in text

    @pytest.mark.parametrize(
        "lexicon, corpus, target, lines",
        [
            pytest.param(
                [{"phrase": "it rains", "type": "s"}, {"phrase": "now", "type": "s^r.s"}],
                ["it rains", "it rains now"],
                "s",
                [
                    "FIBRE-SIZE: (it rains|s) = 1",
                    "FIBRE-SIZE: (it rains now, s) = 1",
                    "FIBRE-SIZE: (it rains, s) = 2",
                    "FIBRE-SIZE: (now, s^r.s) = 1",
                    "FIBRE-SIZE: (it rains, s)⊗(now, s^r.s) = 2",
                ],
                id="a-sentence-is-a-phrase-of-another",
            ),
            # its tensor is the empty product, whose one element is "()"
            pytest.param(
                [{"phrase": "rain", "type": "1"}],
                [""],
                "1",
                ["FIBRE-SIZE: (, 1) = 1", "FIBRE-SIZE:  = 1"],
                id="the-empty-sentence",
            ),
        ],
    )
    def test_semantics_fibre_sizes(self, tmp_path, lexicon, corpus, target, lines):
        doc = {"format": 1, "lexicons": {"L": lexicon}, "corpora": {"K": corpus}}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        argv = ["semantics", str(path), "--lexicon", "L", "--corpus", "K", "--target", target]
        code, text = run(argv)
        assert (code, text.splitlines()) == (0, lines + ["DISCRETE-FIBRATION: true"])

    @pytest.mark.parametrize(
        "fixture, argv",
        [
            ("fig2.json", ["--lexicon", "toy", "--corpus", "toy"]),
            ("pregroup.json", ["--lexicon", "lambek", "--corpus", "lambek", "--convention", "lambek"]),
        ],
    )
    def test_semantics_builds_no_category_of_elements(self, fixtures_dir, fixture, argv):
        # calls are matched by code object, whichever module's name for the function runs
        watched = {
            f.__code__
            for f in (cli.pregroup.build_semantics, cli.groth.elements, is_discrete_fibration)
        }
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls.append(frame.f_code.co_name)

        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            code, text = run(["semantics", os.path.join(fixtures_dir, fixture), *argv])
        finally:
            sys.setprofile(before)
        assert (code, text.splitlines()[-1]) == (0, "DISCRETE-FIBRATION: true")
        assert calls == ["build_semantics"]

    def test_semantics_sizes_are_products_and_no_product_is_listed(self, tmp_path, monkeypatch):
        # the corpus big^k cat sleeps, k = 1..N: each word occurs in every
        # sentence, so the tensor of sentence k has N^(k+2) elements, past
        # sys.maxsize at N = 20; a listed product element raises
        N, words = 20, [("big", "n.n^l"), ("cat", "n"), ("sleeps", "n^l.s")]
        sentences = [["big"] * k + ["cat", "sleeps"] for k in range(1, N + 1)]
        lexicon = [{"phrase": w, "type": t} for w, t in words]
        doc = {"format": 1, "lexicons": {"L": lexicon}, "corpora": {"K": [" ".join(s) for s in sentences]}}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))

        def listed(*factors):
            raise AssertionError("semantics listed a product")

        monkeypatch.setattr(cli.pregroup, "iproduct", listed)
        code, text = run(["semantics", str(path), "--lexicon", "L", "--corpus", "K", "--target", "s"])
        part = dict(words)
        lines = [f"FIBRE-SIZE: ({' '.join(s)}, s) = 1" for s in sentences]
        lines += [f"FIBRE-SIZE: ({w}, {t}) = {N}" for w, t in words]
        lines += [
            f"FIBRE-SIZE: {'⊗'.join(f'({w}, {part[w]})' for w in s)} = {N ** len(s)}"
            for s in sentences
        ]
        assert (code, text.splitlines()) == (0, lines + ["DISCRETE-FIBRATION: true"])
        assert N ** len(sentences[-1]) > sys.maxsize

    def test_semantics_computes_its_verdict(self, fig2, monkeypatch):
        argv = ["semantics", fig2, "--lexicon", "toy", "--corpus", "toy"]
        code, text = run(argv)
        build = cli.pregroup.build_semantics

        def without_one_reduction_entry(*args):
            W = build(*args)
            W.action[next(m for m in W.action if m.startswith("reduce:"))].popitem()
            return W

        monkeypatch.setattr(cli.pregroup, "build_semantics", without_one_reduction_entry)
        sizes = text.removesuffix("DISCRETE-FIBRATION: true\n")
        assert (code, run(argv)) == (0, (1, sizes + "DISCRETE-FIBRATION: false\n"))

    @pytest.mark.parametrize("convention", ["paper", "lambek"])
    def test_each_type_is_parsed_once(self, fig2, monkeypatch, convention):
        calls = []
        parse_type = cli.pregroup.parse_type
        monkeypatch.setattr(
            cli.pregroup, "parse_type", lambda *a: calls.append(a) or parse_type(*a)
        )
        run(["parse", "--lexicon", fig2, "--convention", convention, "the cat sleeps"])
        # two distinct type texts among the three lexicon entries, then the target
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "--lexicon", "WS", "--lexicon-name", "b", "the cat sleeps"],
            ["semantics", "WS", "--lexicon", "b", "--corpus", "toy"],
        ],
        ids=["parse", "semantics"],
    )
    def test_each_lexicon_is_indexed_once_at_load(self, fig2, tmp_path, monkeypatch, argv):
        with open(fig2, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["lexicons"]["b"] = doc["lexicons"]["toy"]
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        calls, Lexicon = [], cli.pregroup.Lexicon
        monkeypatch.setattr(
            cli.pregroup, "Lexicon", lambda *a, **k: calls.append(a) or Lexicon(*a, **k)
        )
        ws = cli.load(str(path))
        assert len(calls) == 2  # one for each lexicon
        argv = [str(path) if a == "WS" else a for a in argv]
        args = cli.build_parser().parse_args(argv)
        args.fn(args, ws, io.StringIO())
        assert len(calls) == 2  # none in the command
        assert run(argv)[0] == 0 and len(calls) == 4  # main loads once

    def test_elements_walks_the_composition_action_once_at_load(self, fig2, monkeypatch):
        calls, walk = [], fincat._composition_action
        monkeypatch.setattr(fincat, "_composition_action", lambda *a: calls.append(a) or walk(*a))
        ws = cli.load(fig2)
        assert len(calls) == 1  # W's, at load
        args = cli.build_parser().parse_args(["elements", fig2, "W"])
        args.fn(args, ws, io.StringIO())
        assert len(calls) == 1  # none in the command: elements reads the kept report
        assert run(["elements", fig2, "W"])[0] == 0 and len(calls) == 2  # main loads once

    def test_check_fib_cloven_checks_the_functor_laws_once_at_load(self, fig2, monkeypatch):
        walks, build = [], cli._build_category

        class Counted(dict):
            def items(self):
                walks.append(self)
                return super().items()

        def counted(name, *args):
            c = build(name, *args)
            if name == "E":  # the domain of p, validated; count the walks over its table
                object.__setattr__(c, "compose", Counted(c.compose))
            return c

        monkeypatch.setattr(cli, "_build_category", counted)
        ws = cli.load(fig2)
        assert len(walks) == 1  # validate_functor's on p, at load
        args = cli.build_parser().parse_args(["check-fib", "--cloven", fig2, "p"])
        args.fn(args, ws, io.StringIO())
        assert len(walks) == 1  # none in the command: is_fibration reads p's kept report
        assert run(["check-fib", "--cloven", fig2, "p"])[0] == 0 and len(walks) == 2

    @pytest.mark.parametrize("workspace", ["fig2", "dag"])
    def test_load_reads_only_the_table_entries_the_file_wrote(
        self, workspace, fig2, tmp_path, category_reads
    ):
        path = fig2
        if workspace == "dag":  # a free DAG category, its identities left to load
            c = rand_dag_category(random.Random(5), max_objects=6, max_edges=9).cat
            units = set(c.identity.values())
            category = {
                "objects": list(c.objects),
                "morphisms": [
                    {"id": m.id, "src": m.src, "tgt": m.tgt}
                    for m in c.morphisms if m.id not in units
                ],
                "compose": {
                    g: {f: h for f, h in row.items() if f not in units}
                    for g, row in c.compose.items() if g not in units
                },
            }
            path = tmp_path / "dag.json"
            path.write_text(json.dumps({"format": 1, "categories": {"D": category}}))
        with open(path, encoding="utf-8") as fh:
            categories = json.load(fh)["categories"].values()
        written = sum(len(row) for doc in categories for row in doc.get("compose", {}).values())
        ws = cli.load(str(path))
        assert sum(category_reads) == written > 0
        # the unit entries load filled in are not read
        rows = [row for c in ws.categories.values() for row in c.compose.values()]
        assert sum(map(len, rows)) > written

    @pytest.mark.parametrize(
        "lexicons, error",
        [
            ({}, "workspace has no lexicon"),
            ({"a": [], "b": []}, "workspace has several lexicons; pass --lexicon-name"),
        ],
    )
    def test_parse_without_a_lexicon_name_needs_exactly_one(self, tmp_path, lexicons, error):
        ws = tmp_path / "ws.json"
        doc = {"format": 1, "categories": {"C": {"objects": ["A"], "morphisms": []}}}
        ws.write_text(json.dumps({**doc, "lexicons": lexicons}))
        assert run(["parse", "--lexicon", str(ws), "the cat"]) == (2, f"ERROR: {error}\n")

    def test_unknown_name_exits_two(self, fig2):
        assert run(["fibres", fig2, "nope"])[0] == 2


class TestOneParser:
    def test_a_second_call_builds_no_parser(self, fig2, monkeypatch):
        run(["validate", fig2])
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser,
            "__init__",
            lambda self, *a, **k: built.append(a or k) or init(self, *a, **k),
        )
        assert run(["validate", fig2]) == (0, "OK: workspace valid (2 categories)\n")
        assert run(["mcg", "-h"])[0] == 0
        assert built == []

    @pytest.mark.parametrize(
        "argv, owner, name",
        [
            (["check-initial", "WS", "p"], factor, "is_initial"),
            (["check-final", "WS", "p"], factor, "is_final"),
            (["comma", "WS", "p", "p"], cli, "comma_walk"),
            (["pullback", "WS", "p", "p"], cli, "pullback_walk"),
        ],
        ids=["check-initial", "check-final", "comma", "pullback"],
    )
    def test_the_library_function_is_looked_up_on_each_call(
        self, fig2, monkeypatch, argv, owner, name
    ):
        # the parser built by the first call must not keep the function it saw
        argv = [fig2 if a == "WS" else a for a in argv]
        first = run(argv)
        calls, real = [], getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
        assert run(argv) == first
        assert len(calls) == 1


# one run of each subcommand that reads a workspace, on fig2.json (WS)
WORKSPACE_COMMANDS = [
    ["validate", "WS"], ["fibres", "WS", "p"], ["reindex", "WS", "p", "f"],
    ["check-fib", "--cloven", "WS", "p"], ["elements", "WS", "W"], ["straighten", "WS", "p"],
    ["roundtrip", "WS", "W"], ["factorize", "--fib", "WS", "p"], ["check-initial", "WS", "p"],
    ["check-final", "WS", "p"], ["comma", "WS", "p", "p"], ["pullback", "WS", "p", "p"],
    ["classify-mcg", "WS", "p"], ["parse", "--lexicon", "WS", "the cat sleeps"],
    ["semantics", "WS", "--lexicon", "toy", "--corpus", "toy"], ["dot", "WS", "p"],
]


class TestBoundary:
    """main loads the workspace, writes everything to out and sets the exit code."""

    @pytest.mark.parametrize("argv", WORKSPACE_COMMANDS, ids=[a[0] for a in WORKSPACE_COMMANDS])
    def test_each_workspace_command_loads_it_once(self, fig2, monkeypatch, argv):
        loads, real = [], cli.load
        monkeypatch.setattr(cli, "load", lambda path: loads.append(path) or real(path))
        run([fig2 if a == "WS" else a for a in argv])
        assert loads == [fig2]

    def test_mcg_loads_nothing(self, monkeypatch):
        monkeypatch.setattr(cli, "load", lambda path: pytest.fail(f"loaded {path}"))
        assert run(["mcg", "2"])[0] == 0

    @pytest.mark.parametrize("argv", [["-h"], ["mcg", "-h"], ["parse", "--help"]])
    def test_help_goes_to_out(self, capsys, argv):
        code, text = run(argv)
        assert code == 0
        assert text.startswith("usage: fibcat")
        assert capsys.readouterr() == ("", "")

    def test_a_library_input_error_exits_two(self, fig2, monkeypatch):
        def straighten(p):
            raise MalformedSpec("x", "y")

        monkeypatch.setattr(cli.groth, "straighten", straighten)
        assert run(["straighten", fig2, "p"]) == (2, "ERROR: x: y\n")


class TestDot:
    def test_category_export(self, fig2):
        code, text = run(["dot", fig2, "ABC"])
        assert code == 0
        assert text.startswith("digraph {")
        assert '"A" -> "B" [label="f"];' in text
        assert "id:A" not in text

    def test_functor_export_uses_clusters(self, fig2):
        code, text = run(["dot", fig2, "p"])
        assert code == 0
        assert text.count("subgraph cluster_") == 3
        assert '"base:A" -> "base:B"' in text

    def test_a_backslash_is_escaped_before_a_quote(self, tmp_path):
        # unescaped, the backslash of a\ would escape the closing quote
        doc = {
            "format": 1,
            "categories": {
                "C": {
                    "objects": ["a\\", 'b"'],
                    "morphisms": [{"id": 'f\\"', "src": "a\\", "tgt": 'b"'}],
                }
            },
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        code, text = run(["dot", str(path), "C"])
        assert code == 0
        assert text.splitlines()[2:] == [
            '  "a\\\\";',
            '  "b\\"";',
            '  "a\\\\" -> "b\\"" [label="f\\\\\\""];',
            "}",
        ]


class TestIdsAndAliases:
    def test_elements_with_a_separator_in_a_morphism_id(self, tmp_path):
        doc = {
            "format": 1,
            "categories": {
                "C": {
                    "objects": ["A", "B"],
                    "morphisms": [{"id": "f|g", "src": "A", "tgt": "B"}],
                }
            },
            "presheaves": {
                "W": {
                    "base": "C",
                    "eltset": {"A": ["x"], "B": ["y"]},
                    "action": {"f|g": {"y": "x"}},
                }
            },
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        code, text = run(["elements", str(path), "W"])
        assert code == 2
        assert text.startswith("ERROR: categories.C.morphisms[0].id: ")

    @pytest.mark.parametrize(
        "records, line",
        [
            ([{"id": "f|g", "src": "A", "tgt": "B"}, {"id": "h", "src": 7, "tgt": "B"}],
             f"categories.C.morphisms[0].id: {fincat._ID_RULE}"),
            ([{"id": "f", "src": 7, "tgt": "B"}, {"id": "h|", "src": "A", "tgt": "B"}],
             "categories.C.morphisms[0].src: missing or non-string"),
            ([{"id": "f", "src": "A", "tgt": "B"}, {"id": "h|", "tgt": "B"}],
             "categories.C.morphisms[1].src: missing or non-string"),
            ([{"id": "f", "src": "A", "tgt": "B"}, {"id": "h|", "src": "A", "tgt": "B"}, []],
             f"categories.C.morphisms[1].id: {fincat._ID_RULE}"),
        ],
        ids=["bad-id-first", "missing-field-first", "own-field-first", "bad-id-then-no-object"],
    )
    def test_the_first_defective_record_is_reported(self, tmp_path, records, line):
        doc = {"format": 1, "categories": {"C": {"objects": ["A", "B"], "morphisms": records}}}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)]) == (2, f"ERROR: {line}\n")

    def test_ids_with_line_breaks_in_brackets_load(self, tmp_path):
        doc = {
            "format": 1,
            "categories": {
                "C": {
                    "objects": ["(a\nb)", "c\n"],
                    "morphisms": [{"id": "(f|\n)", "src": "(a\nb)", "tgt": "c\n"}],
                }
            },
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        c = cli.load(str(path)).categories["C"]
        assert c.objects == ("(a\nb)", "c\n") and c.morphisms[0].id == "(f|\n)"

    def test_save_load_keeps_equal_categories_apart(self, tmp_path):
        from fibcat.fincat import SetValuedFunctor, identity_functor

        a, b = mcg("xy"), mcg("xy")
        assert a == b and a is not b
        W = SetValuedFunctor(
            base=b,
            variance="contravariant",
            eltset={"x": ("e",), "y": ("e",)},
            action={m.id: {"e": "e"} for m in b.morphisms},
        )
        ws = cli.Workspace(
            categories={"a": a, "b": b},
            functors={"F": identity_functor(b)},
            presheaves={"W": W},
        )
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        cli.save(ws, str(first))
        doc = json.loads(first.read_text())
        assert (doc["functors"]["F"]["dom"], doc["functors"]["F"]["cod"]) == ("b", "b")
        assert doc["presheaves"]["W"]["base"] == "b"
        back = cli.load(str(first))
        assert back.functors["F"].dom is back.categories["b"]
        assert back.presheaves["W"].base is back.categories["b"]
        cli.save(back, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_save_names_a_category_held_under_two_names_by_the_first(self, tmp_path):
        from fibcat.fincat import SetValuedFunctor, identity_functor

        c = mcg("xy")
        W = SetValuedFunctor(
            base=c,
            variance="contravariant",
            eltset={"x": ("e",), "y": ("e",)},
            action={m.id: {"e": "e"} for m in c.morphisms},
        )
        # "b" is declared first, so it wins though "a" sorts first
        ws = cli.Workspace(
            categories={"b": c, "a": c}, functors={"F": identity_functor(c)}, presheaves={"W": W}
        )
        path = tmp_path / "ws.json"
        cli.save(ws, str(path))
        doc = json.loads(path.read_text())
        assert (doc["functors"]["F"]["dom"], doc["functors"]["F"]["cod"]) == ("b", "b")
        assert doc["presheaves"]["W"]["base"] == "b"

    def test_colliding_element_ids_are_rejected_at_load(self, tmp_path):
        # objects A|x and A with elements y and x|y would both give (A|x|y)
        doc = {
            "format": 1,
            "categories": {"C": {"objects": ["A|x", "A"], "morphisms": []}},
            "presheaves": {
                "W": {"base": "C", "eltset": {"A|x": ["y"], "A": ["x|y"]}, "action": {}}
            },
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        for argv in (["elements", str(path), "W"], ["roundtrip", str(path), "W"]):
            code, text = run(argv)
            assert code == 2
            assert text.startswith("ERROR: categories.C.objects[0]: ")

    def test_bracketed_ids_that_nest_are_accepted(self, tmp_path):
        doc = {
            "format": 1,
            "categories": {"C": {"objects": ["(a|b)", "x:(y)"], "morphisms": []}},
            "presheaves": {
                "W": {"base": "C", "eltset": {"(a|b)": ["(p|(q))"], "x:(y)": []}}
            },
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(doc))
        code, text = run(["elements", str(path), "W"])
        assert code == 0
        assert text.splitlines() == ["OBJECT: ((a|b)|(p|(q)))"]


@pytest.mark.parametrize("phrases, i", [(["a", "b (c"], 1), (["(a|b) c", "x|y"], 1), (["a)"], 0)])
def test_a_lexicon_phrase_whose_word_breaks_the_id_rule(tmp_path, phrases, i):
    doc = {"format": 1, "lexicons": {"L": [{"phrase": p, "type": "n"} for p in phrases]}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        cli.load(str(path))
    problem = f"expected a new, non-empty phrase; in its words {cli._ID_RULE}"
    assert (exc.value.path, exc.value.message) == (f"lexicons.L[{i}].phrase", problem)


class TestUnknownNames:
    def test_reindex_along_an_unknown_morphism(self, fig2):
        from fibcat.errors import UnknownMorphism
        from fibcat.fib import reindex

        with pytest.raises(UnknownMorphism):
            reindex(cli.load(fig2).functors["p"], "nope")
        code, text = run(["reindex", fig2, "p", "nope"])
        assert code == 2
        assert text == "ERROR: no base morphism named 'nope'\n"

    def test_roundtrip_of_an_unknown_name(self, fig2):
        assert run(["roundtrip", fig2, "nope"]) == (2, "ERROR: nope\n")

    def test_mcg_rejects_duplicate_objects(self):
        code, text = run(["mcg", "a,b,a"])
        assert code == 2
        assert text.startswith("ERROR: ")

    @pytest.mark.parametrize(
        "objects, error",
        [
            # "(a->b->c)" would name both a -> b->c and a->b -> c
            ("a,b->c,a->b,c", "objects[1]: an object name may not contain '->'"),
            ("a->b", "objects[0]: an object name may not contain '->'"),
            ("a,", "objects[1]: empty object name"),
            (",a", "objects[0]: empty object name"),
            ("-1", "objects: negative count"),
            ("9" * 4301, "objects: count too large"),
            ("a,(b", "objects[1]: brackets must nest and '|' may appear only inside them"),
            ("x|y", "objects[0]: brackets must nest and '|' may appear only inside them"),
            ("a,b,a", "objects: duplicate object names"),
        ],
    )
    def test_mcg_rejects_names_that_make_arrow_ids_collide(self, objects, error):
        assert run(["mcg", objects]) == (2, f"ERROR: {error}\n")


def _typed_doc():
    return {
        "format": 1,
        "categories": {
            "C": {"objects": ["A", "B"], "morphisms": [{"id": "f", "src": "A", "tgt": "B"}]}
        },
        "functors": {"F": {"dom": "C", "cod": "C", "omap": {"A": "A", "B": "B"}, "mmap": {"f": "f"}}},
        "presheaves": {
            "W": {"base": "C", "eltset": {"A": ["x"], "B": ["y"]}, "action": {"f": {"y": "x"}}}
        },
        "lexicons": {"toy": [{"phrase": "cats", "type": "n"}, {"phrase": "sleep", "type": "n^r.s"}]},
    }


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize(
    "keys, value, path",
    [
        (("categories", "C", "identity"), ["id:A"], "categories.C.identity"),
        (("categories", "C", "morphisms"), {"f": "A"}, "categories.C.morphisms"),
        (("categories", "C", "compose"), [], "categories.C.compose"),
        (("functors", "F", "omap"), ["A", "B"], "functors.F.omap"),
        (("functors", "F", "mmap", "f"), ["f"], "functors.F.mmap"),
        (("functors", "F", "dom"), ["C"], "functors.F.dom"),
        (("presheaves", "W", "eltset", "A"), 1, "presheaves.W.eltset.A"),
        (("presheaves", "W", "eltset", "A"), ["x", "x"], "presheaves.W.eltset.A"),
        (("presheaves", "W", "action", "f"), [["y", "x"]], "presheaves.W.action.f"),
        (("presheaves", "W", "base"), ["C"], "presheaves.W.base"),
        (("categories",), [], "categories"),
        (("lexicons", "toy", 0, "phrase"), 7, "lexicons.toy[0].phrase"),
        (("lexicons", "toy", 0, "phrase"), "  ", "lexicons.toy[0].phrase"),
        (("lexicons", "toy", 0, "type"), ["n"], "lexicons.toy[0].type"),
        (("lexicons", "toy", 1, "phrase"), "cats", "lexicons.toy[1].phrase"),
        (("lexicons", "toy", 1, "type"), "n^x", "lexicons.toy[1].type"),
        (("corpora",), {"K": [["cats", "a|b"]]}, "corpora.K[0][1]"),
        (("lexicons", "toy", 0), "cats", "lexicons.toy[0]"),
        (("corpora",), {"K": [7]}, "corpora.K[0]"),
        (("presheaves", "W", "eltset", "A"), ["a|b"], "presheaves.W.eltset.A[0]"),
    ],
)
def test_wrongly_typed_json_is_a_schema_error(tmp_path, keys, value, path):
    doc = _typed_doc()
    _set(doc, keys, value)
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        cli.load(str(ws))
    assert exc.value.path == path
    code, text = run(["validate", str(ws)])
    assert code == 2
    assert text.startswith(f"ERROR: {path}: ")


# One single-error mutation of _typed_doc() per workspace reference rule,
# with the exact line `validate` prints.
@pytest.mark.parametrize(
    "keys, value, line",
    [
        (("categories", "C", "morphisms", 0, "src"), "Z",
         "categories.C.morphisms[0].src: unknown object Z"),
        (("categories", "C", "morphisms", 0, "tgt"), "Z",
         "categories.C.morphisms[0].tgt: unknown object Z"),
        (("categories", "C", "identity"), {"A": "g"},
         "categories.C.identity.A: unknown morphism g"),
        (("categories", "C", "compose"), {"g": {}}, "categories.C.compose.g: unknown morphism"),
        (("categories", "C", "compose"), {"f": {"g": "f"}},
         "categories.C.compose.f.g: unknown morphism"),
        (("categories", "C", "compose"), {"f": {"id:A": "g"}},
         "categories.C.compose.f.id:A: unknown composite"),
        (("functors", "F", "omap"), {"A": "A"}, "functors.F.omap.B: missing object image"),
        (("functors", "F", "omap", "B"), "Z", "functors.F.omap.B: unknown object Z"),
        (("functors", "F", "mmap"), {}, "functors.F.mmap.f: missing morphism image"),
        (("functors", "F", "mmap", "f"), "g", "functors.F.mmap.f: unknown morphism g"),
        (("presheaves", "W", "variance"), "both", "presheaves.W.variance: bad variance"),
        (("presheaves", "W", "eltset", "Z"), ["z"], "presheaves.W.eltset.Z: unknown object"),
        (("presheaves", "W", "eltset", "A"), ["x", "x"],
         "presheaves.W.eltset.A: duplicate elements"),
        (("presheaves", "W", "eltset"), {"A": ["x"]},
         "presheaves.W.eltset.B: missing element set"),
        (("presheaves", "W", "action", "g"), {}, "presheaves.W.action.g: unknown morphism"),
        (("presheaves", "W", "action"), {}, "presheaves.W.action.f: missing action"),
        # reported at "$" before the validators reported paths
        (("categories", "C", "objects"), ["A", "B", "A"],
         "categories.C.objects[2]: duplicate object id"),
        (("categories", "C", "morphisms"), [{"id": "f", "src": "A", "tgt": "B"}] * 2,
         "categories.C.morphisms[1].id: duplicate morphism id"),
        (("categories", "C", "identity"), {"Z": "f"}, "categories.C.identity.Z: unknown object"),
    ],
)
def test_each_reference_rule_prints_its_path(tmp_path, keys, value, line):
    doc = _typed_doc()
    _set(doc, keys, value)
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    assert run(["validate", str(ws)]) == (2, f"ERROR: {line}\n")


@pytest.mark.parametrize(
    "target, message",
    [
        ("n^x", "bad simple type 'n^x' (column 0)"),
        ("s)", "expected a string in which brackets must nest and '|' may appear only inside them"),
    ],
)
def test_a_bad_target_is_a_schema_error(fig2, target, message):
    for argv in (
        ["parse", "--lexicon", fig2, "--target", target, "the cat sleeps"],
        ["semantics", fig2, "--lexicon", "toy", "--corpus", "toy", "--target", target],
    ):
        assert run(argv) == (2, f"ERROR: --target: {message}\n")


def test_roundtrip_of_a_covariant_presheaf(tmp_path):
    doc = _typed_doc()
    doc["presheaves"]["K"] = {
        "base": "C",
        "variance": "covariant",
        "eltset": {"A": ["x", "y"], "B": ["z"]},
        "action": {"f": {"x": "z", "y": "z"}},
    }
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    assert run(["roundtrip", str(ws), "K"]) == (0, "CHECKED: true\n")


@pytest.mark.parametrize(
    "compose, violations",
    [
        (
            {"g": {"f": "f"}},
            [
                "categories.ABC: endpoint-coherence ('g', 'f', 'f')",
                "functors.p: composition-preservation ('g:C0', 'f:B2')",
                "functors.p: composition-preservation ('g:C1', 'f:B0')",
                "presheaves.W: composition-action ('g', 'f')",
            ],
        ),
        (
            {"g": {"f": "gf", "g": "g"}},
            ["categories.ABC: composition-composability ('g', 'g')"],
        ),
    ],
    ids=["wrong-endpoints", "not-composable"],
)
def test_a_lawless_base_composite_is_reported(fig2, tmp_path, compose, violations):
    with open(fig2) as fh:
        doc = json.load(fh)
    doc["categories"]["ABC"]["compose"] = compose
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    expected = "".join(f"VIOLATION: {v}\n" for v in violations)
    assert run(["validate", str(ws)]) == (1, "FAIL: validation\n" + expected)


def test_violations_at_filled_composites_follow_those_at_the_files_entries(tmp_path):
    # the composites the unit laws force go into their rows, as e.id:y
    # does into e's, yet their violations are listed after every entry of
    # the file, in the order of the composable pairs
    dom = {
        "objects": ["x", "y"],
        "morphisms": [
            {"id": "p", "src": "x", "tgt": "y"},
            {"id": "e", "src": "y", "tgt": "y"},
            {"id": "k", "src": "y", "tgt": "y"},
        ],
        "compose": {"e": {"e": "e", "k": "e", "p": "p"}, "k": {"e": "k", "k": "k", "p": "p"}},
    }
    cod = {
        "objects": ["a", "b"],
        "morphisms": [{"id": "u", "src": "a", "tgt": "b"}, {"id": "v", "src": "b", "tgt": "b"}],
        "compose": {"v": {"v": "v", "u": "u"}},
    }
    doc = {
        "format": 1,
        "categories": {"C": cod, "D": dom},
        "functors": {
            "F": {
                "dom": "D", "cod": "C", "omap": {"x": "a", "y": "b"},
                "mmap": {"p": "u", "e": "v", "k": "id:b", "id:y": "u"},
            }
        },
        "presheaves": {
            "W": {
                "base": "D",
                "eltset": {"x": ["s"], "y": ["t", "t2"]},
                "action": {
                    "p": {"t": "s", "t2": "s"}, "e": {"t": "t2", "t2": "t2"},
                    "k": {"t": "t", "t2": "t"}, "id:y": {"t": "t2", "t2": "t"},
                },
            }
        },
    }
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    violations = ["functors.F: endpoint-preservation ('id:y',)"]
    violations += ["functors.F: identity-preservation ('y',)"]
    violations += [
        f"functors.F: composition-preservation {pair}"
        for pair in [("k", "e"), ("e", "id:y"), ("k", "id:y"), ("id:y", "p"), ("id:y", "e"),
                     ("id:y", "k"), ("id:y", "id:y")]
    ]
    violations += ["presheaves.W: identity-action ('y',)"]
    violations += [
        f"presheaves.W: composition-action {pair}"
        for pair in [("e", "k"), ("k", "e"), ("e", "id:y"), ("k", "id:y"), ("id:y", "id:y")]
    ]
    expected = "".join(f"VIOLATION: {v}\n" for v in violations)
    assert run(["validate", str(ws)]) == (1, "FAIL: validation\n" + expected)


def test_an_identity_that_is_no_loop_is_reported(tmp_path):
    doc = {
        "format": 1,
        "categories": {
            "C": {
                "objects": ["A", "B"],
                "morphisms": [{"id": "f", "src": "A", "tgt": "B"}],
                "identity": {"A": "f"},
            }
        },
        "presheaves": {
            "W": {"base": "C", "eltset": {"A": ["x"], "B": ["y"]}, "action": {"f": {"y": "x"}}}
        },
    }
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    violations = [
        "categories.C: identity-endpoints ('A', 'f')",
        "categories.C: endpoint-coherence ('id:B', 'f', 'id:B')",
        "categories.C: left-unit ('id:B', 'f')",
        "presheaves.W: identity-action ('A',)",
        "presheaves.W: composition-action ('id:B', 'f')",
    ]
    expected = "".join(f"VIOLATION: {v}\n" for v in violations)
    assert run(["validate", str(ws)]) == (1, "FAIL: validation\n" + expected)


def test_every_composite_of_the_fixtures_can_be_swapped(fixtures_dir, tmp_path):
    """Set each composite of each fixture category to each morphism id:
    validate answers with an exit code, never a traceback."""
    ws = tmp_path / "ws.json"
    swaps = 0
    for path in sorted(glob.glob(os.path.join(fixtures_dir, "**", "*.json"), recursive=True)):
        with open(path) as fh:
            doc = json.load(fh)
        for cat in doc.get("categories", {}).values():
            ids = [m["id"] for m in cat["morphisms"]]
            for inner in cat.get("compose", {}).values():
                for f, h in inner.items():
                    for mid in ids:
                        inner[f] = mid
                        ws.write_text(json.dumps(doc))
                        assert run(["validate", str(ws)])[0] in (0, 1, 2), (path, f, mid)
                        swaps += 1
                    inner[f] = h
    assert swaps == 1681


def test_each_structure_is_checked_before_the_next_is_built(tmp_path):
    doc = _typed_doc()
    doc["functors"]["F"]["omap"]["B"] = "Z"
    doc["presheaves"]["W"]["eltset"]["A"] = 1
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(doc))
    assert run(["validate", str(ws)]) == (2, "ERROR: functors.F.omap.B: unknown object Z\n")
