import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcat.errors import TypeSyntaxError, UnparsedSentence
from fibcat.fib import is_discrete_fibration, reindex
from fibcat.pregroup import (
    NoReduction,
    ParseFailure,
    ParseResult,
    ReductionStep,
    ReductionWitness,
    SimpleType,
    build_semantics,
    format_type,
    make_lexicon,
    parse_sentence,
    parse_type,
    reduce,
    replay,
)

from helpers import in_convention, search_reduce

TOY_LEXICON = [
    ("the cat", "n"),
    ("sleeps", "n^l.s"),
    ("is fat", "n^l.s"),
]

TOY_CORPUS = [
    ["the", "cat", "sleeps"],
    ["the", "cat", "is", "fat"],
]


class TestTypeSyntax:
    def test_simple(self):
        assert parse_type("n") == (SimpleType("n", 0),)

    def test_adjoints(self):
        assert parse_type("n^l.s") == (SimpleType("n", 1), SimpleType("s", 0))
        assert parse_type("n^r") == (SimpleType("n", -1),)
        assert parse_type("n^ll") == (SimpleType("n", 2),)

    def test_lambek_convention_flips_the_signs(self):
        # one reading of n^l, and the convention's rule picks which neighbour it cancels
        assert parse_type("n^l") == (SimpleType("n", 1),)
        witness = reduce(parse_type("n^l.n"), (), "lambek")
        assert witness.steps == (ReductionStep(0, "n", (1, 0)),)
        assert isinstance(reduce(parse_type("n.n^l"), (), "lambek"), NoReduction)
        assert isinstance(reduce(parse_type("n^l.n"), ()), NoReduction)

    def test_unit(self):
        assert parse_type("1") == ()
        assert format_type(()) == "1"

    def test_roundtrip(self):
        for text in ("n", "n^l.s", "s^rr.n.s^l"):
            assert format_type(parse_type(text)) == text

    def test_bad_syntax_reports_the_column(self):
        for text, column in [("n.s^x", 2), ("n.^l", 2), ("n^^l", 0)]:
            with pytest.raises(TypeSyntaxError) as exc:
                parse_type(text)
            assert exc.value.column == column


SIMPLE_TYPES = st.builds(SimpleType, st.sampled_from("nms"), st.integers(-2, 2))


@st.composite
def type_and_target(draw):
    """Up to 12 simple types, and a target of up to 2 drawn at random or
    kept from the type in order."""
    t = tuple(draw(st.lists(SIMPLE_TYPES, max_size=12)))
    if draw(st.booleans()):
        return t, tuple(draw(st.lists(SIMPLE_TYPES, max_size=2)))
    kept = draw(st.sets(st.integers(0, len(t) - 1), max_size=2)) if t else ()
    return t, tuple(t[i] for i in sorted(kept))


@st.composite
def planted(draw):
    """A target of up to 2 simple types with up to 5 contractible pairs
    inserted at random positions, so that it reduces to the target."""
    target = tuple(draw(st.lists(SIMPLE_TYPES, max_size=2)))
    t = list(target)
    for _ in range(draw(st.integers(0, 5))):
        b, z = draw(st.sampled_from("nms")), draw(st.integers(-2, 1))
        at = draw(st.integers(0, len(t)))
        t[at:at] = [SimpleType(b, z), SimpleType(b, z + 1)]
    return tuple(t), target


def pairs(k):
    """k contractible pairs with distinct bases, in type syntax."""
    return ".".join(f"a{i}.a{i}^l" for i in range(k))


class TestReduce:
    def test_single_contraction(self):
        t = parse_type("n.n^l.s")
        witness = reduce(t, parse_type("s"))
        assert len(witness.steps) == 1
        step = witness.steps[0]
        assert (step.cancelled_base, step.cancelled_exponents) == ("n", (0, 1))
        assert replay(witness)

    def test_wrong_order_has_no_reduction(self):
        t = parse_type("n^l.s.n")
        result = reduce(t, parse_type("s"))
        assert isinstance(result, NoReduction)

    def test_reduction_to_unit(self):
        witness = reduce(parse_type("n.n^l"), ())
        assert witness.end == ()
        assert replay(witness)

    def test_leftmost_first(self):
        # two disjoint contractions: the first recorded step is at the left
        witness = reduce(parse_type("n.n^l.m.m^l"), ())
        assert witness.steps[0].position == 0
        assert replay(witness)

    def test_apply_step_validates_the_record(self):
        t = parse_type("n.n^l")
        bad = ReductionStep(position=0, cancelled_base="m", cancelled_exponents=(0, 1))
        with pytest.raises(ValueError):
            from fibcat.pregroup import apply_step

            apply_step(t, bad)

    @pytest.mark.parametrize(
        "t, step, error",
        [
            ("n.n^l", ReductionStep(1, "n", (0, 1)), "step position out of range"),
            ("n.n^l", ReductionStep(-1, "n", (0, 1)), "step position out of range"),
            ("n.m^l", ReductionStep(0, "n", (0, 1)), "pair at 0 is not contractible"),
        ],
    )
    def test_apply_step_refuses_a_step_the_type_cannot_take(self, t, step, error):
        from fibcat.pregroup import apply_step

        with pytest.raises(ValueError) as exc:
            apply_step(parse_type(t), step)
        assert str(exc.value) == error

    def test_a_search_leaves_no_garbage_cycle(self):
        # the search state is freed when reduce returns, not by the collector
        cases = [("n.n^l.n.n^l.s", True), ("n.n^l.n^l.s.n", False)]
        gc.collect()
        gc.disable()
        try:
            for text, accepted in cases:
                result = reduce(parse_type(text), parse_type("s"))
                assert isinstance(result, NoReduction) is not accepted
                assert gc.collect() == 0
        finally:
            gc.enable()

    @given(
        st.lists(
            st.tuples(st.sampled_from("nms"), st.integers(-2, 2)), max_size=6
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_found_witness_replays(self, raw):
        t = tuple(SimpleType(b, z) for b, z in raw)
        result = reduce(t, ())
        if not isinstance(result, NoReduction):
            assert replay(result)

    @given(type_and_target())
    @settings(max_examples=500, deadline=None)
    def test_equals_the_leftmost_first_search(self, case):
        assert reduce(*case) == search_reduce(*case)

    # few random types reduce, so planted paper reductions, negated, add lambek ones
    @given(
        st.one_of(
            type_and_target(), planted().map(lambda c: [in_convention(t, "lambek") for t in c])
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_lambek_equals_the_search_on_negated_types(self, case):
        # lambek's rule on t is the paper rule on t with every exponent negated
        t, target = case
        found = search_reduce(in_convention(t, "lambek"), in_convention(target, "lambek"))
        if isinstance(found, NoReduction):
            expected = NoReduction(start=t, target=target)
        else:
            steps = tuple(
                ReductionStep(s.position, s.cancelled_base, tuple(-z for z in s.cancelled_exponents))
                for s in found.steps
            )
            expected = ReductionWitness(start=t, steps=steps, end=target)
        result = reduce(t, target, "lambek")
        assert result == expected
        if isinstance(result, ReductionWitness) and result.steps:
            assert replay(result, "lambek")
            with pytest.raises(ValueError, match="not contractible"):
                replay(result, "paper")

    @given(planted())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_search_on_planted_reductions(self, case):
        result = reduce(*case)
        assert not isinstance(result, NoReduction)
        assert result == search_reduce(*case)

    def test_a_rejection_is_polynomial(self):
        # 2^40 dead states for a leftmost-first search
        t = parse_type(pairs(40) + ".t")
        assert len(t) == 81
        assert reduce(t, parse_type("s")) == NoReduction(start=t, target=parse_type("s"))

    def test_an_acceptance_past_a_dead_leftmost_pair_is_polynomial(self):
        # contracting b.b^l first strands b^ll: every other pair goes first
        t = parse_type("b.b^l." + pairs(40) + ".b^ll")
        witness = reduce(t, parse_type("b"))
        assert replay(witness) and witness.end == parse_type("b")
        assert [step.position for step in witness.steps] == [2] * 40 + [1]

    @pytest.mark.parametrize("k", [10, 12, 14])
    def test_the_guards_equal_the_search_at_small_sizes(self, k):
        for text, target in [(pairs(k) + ".t", "s"), ("b.b^l." + pairs(k) + ".b^ll", "b")]:
            t = parse_type(text)
            assert reduce(t, parse_type(target)) == search_reduce(t, parse_type(target))

    @given(st.lists(st.sampled_from("nms"), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_word_followed_by_its_left_adjoint_cancels(self, bases):
        t = tuple(SimpleType(b, 0) for b in bases) + tuple(
            SimpleType(b, 1) for b in reversed(bases)
        )
        result = reduce(t, ())
        assert not isinstance(result, NoReduction)
        assert replay(result)


class TestParseSentence:
    @pytest.fixture
    def lex(self):
        return make_lexicon(TOY_LEXICON)

    def test_the_cat_sleeps(self, lex):
        result = parse_sentence(["the", "cat", "sleeps"], lex, parse_type("s"))
        assert isinstance(result, ParseResult)
        assert result.segmentation == (("the", "cat"), ("sleeps",))
        assert len(result.witness.steps) == 1

    def test_scrambled_order_fails(self, lex):
        result = parse_sentence(["sleeps", "the", "cat"], lex, parse_type("s"))
        assert isinstance(result, ParseFailure)
        assert result.kind == "no-reduction"
        assert isinstance(result.detail, NoReduction)

    def test_unknown_word(self, lex):
        result = parse_sentence(["the", "cat", "purrs"], lex, parse_type("s"))
        assert result == ParseFailure(kind="unknown-phrase", detail="purrs")

    def test_longest_match_wins(self):
        lex = make_lexicon([("the", "n"), ("the cat", "n"), ("sleeps", "n^l.s")])
        result = parse_sentence(["the", "cat", "sleeps"], lex, parse_type("s"))
        assert result.segmentation[0] == ("the", "cat")

    def test_an_empty_phrase_is_refused(self):
        # parse_sentence is not called: it never returns on such a lexicon
        # when it is accepted
        with pytest.raises(ValueError, match="empty phrase"):
            make_lexicon([("", "n"), ("cat", "n")])

    def test_a_repeated_phrase_is_refused(self):
        with pytest.raises(ValueError, match="duplicate phrases"):
            make_lexicon([("the cat", "n"), ("sleeps", "n^l.s"), ("the  cat", "s")])


class TestSemantics:
    @pytest.fixture
    def model(self):
        return build_semantics(TOY_CORPUS, make_lexicon(TOY_LEXICON), parse_type("s"))

    def test_sentence_meanings_are_singletons(self, model):
        assert model.presheaf.eltset["(the cat sleeps, s)"] == ("the cat sleeps",)
        assert model.presheaf.eltset["(the cat is fat, s)"] == ("the cat is fat",)

    def test_constituent_meanings_collect_sentences(self, model):
        assert set(model.presheaf.eltset["(the cat, n)"]) == {
            "the cat sleeps",
            "the cat is fat",
        }
        assert model.presheaf.eltset["(sleeps, n^l.s)"] == ("the cat sleeps",)

    def test_tensor_meanings_are_products(self, model):
        tensor = "(the cat, n)⊗(sleeps, n^l.s)"
        assert set(model.presheaf.eltset[tensor]) == {
            "(the cat sleeps|the cat sleeps)",
            "(the cat is fat|the cat sleeps)",
        }

    def test_reduction_acts_by_the_diagonal(self, model):
        table = model.presheaf.action["reduce:(the cat sleeps)"]
        assert table == {"the cat sleeps": "(the cat sleeps|the cat sleeps)"}

    def test_fibration_is_discrete(self, model):
        assert is_discrete_fibration(model.fibration.projection).ok
        table = reindex(model.fibration.projection, "reduce:(the cat sleeps)").table
        assert table == {
            "((the cat sleeps, s)|the cat sleeps)": (
                "((the cat, n)⊗(sleeps, n^l.s)|(the cat sleeps|the cat sleeps))"
            )
        }

    def test_a_sentence_that_is_one_phrase_gets_no_reduction(self):
        # "it rains" parses in zero steps, so its tensor is its sentence object
        lex = make_lexicon(TOY_LEXICON + [("it rains", "s")])
        model = build_semantics(TOY_CORPUS + [["it", "rains"]], lex, parse_type("s"))
        assert model.presheaf.eltset["(it rains, s)"] == ("it rains",)
        reductions = [m.id for m in model.presheaf.base.morphisms if m.id.startswith("reduce:")]
        assert reductions == ["reduce:(the cat sleeps)", "reduce:(the cat is fat)"]

    def test_a_one_phrase_sentence_that_another_sentence_uses_keeps_its_own_object(self):
        # the constituent (it rains, s) of "it rains now" is no singleton
        lex = make_lexicon([("it rains", "s"), ("now", "s^r.s")])
        corpus = [["it", "rains"], ["it", "rains", "now"]]
        model = build_semantics(corpus, lex, parse_type("s"))
        assert model.presheaf.eltset["(it rains|s)"] == ("it rains",)
        assert model.presheaf.eltset["(it rains, s)"] == ("it rains", "it rains now")
        reduction = model.presheaf.base.morphism("reduce:(it rains)")
        assert (reduction.src, reduction.tgt) == ("(it rains, s)", "(it rains|s)")
        assert model.presheaf.action["reduce:(it rains)"] == {"it rains": "it rains"}
        assert is_discrete_fibration(model.fibration.projection).ok

    def test_each_distinct_sentence_is_parsed_once(self, model, monkeypatch):
        from fibcat import pregroup

        calls = []

        def counted(tokens, lex, target, convention):
            calls.append(tuple(tokens))
            return parse_sentence(tokens, lex, target, convention)

        monkeypatch.setattr(pregroup, "parse_sentence", counted)
        lex = make_lexicon(TOY_LEXICON)
        again = build_semantics(TOY_CORPUS * 3, lex, parse_type("s"))
        assert sorted(calls) == sorted(map(tuple, TOY_CORPUS))
        assert again == model
        with pytest.raises(UnparsedSentence) as exc:
            build_semantics(TOY_CORPUS * 2 + [["cat"]] * 2, lex, parse_type("s"))
        assert exc.value.index == 4

    def test_unparsable_corpus_raises(self):
        with pytest.raises(UnparsedSentence) as exc:
            build_semantics(
                [["sleeps", "the", "cat"]], make_lexicon(TOY_LEXICON), parse_type("s")
            )
        assert exc.value.index == 0

    def test_a_non_identity_composite_is_refused(self):
        # "1)⊗(y" is no plain id, so the tensor of one sentence names the
        # sentence object of the other and two reductions compose; a
        # workspace cannot say this, since load rejects such a phrase
        lex = make_lexicon([("x,", "s"), ("1)⊗(y", "1"), ("x", "1"), ("y", "s")])
        with pytest.raises(ValueError) as exc:
            build_semantics([["x,", "1)⊗(y"], ["x", "y"]], lex, parse_type("s"))
        assert str(exc.value) == (
            "corpus induces a non-identity composite reduce:(x y) . reduce:(x, 1)⊗(y);"
            " unsupported"
        )

    @pytest.mark.parametrize(
        "corpus, convention, text",
        [
            ([["sleeps", "the", "cat"]], "paper", "NoReduction(start=n^l.s.n, target=s)"),
            ([["sleeps", "the", "cat"]], "lambek", "NoReduction(start=n^l.s.n, target=s)"),
            ([["the", "cat", "purrs"]], "paper", "unknown phrase 'purrs'"),
        ],
    )
    def test_an_unparsed_sentence_is_reported_in_type_syntax(self, corpus, convention, text):
        with pytest.raises(UnparsedSentence) as exc:
            build_semantics(corpus, make_lexicon(TOY_LEXICON), parse_type("s"), convention)
        assert str(exc.value) == f"corpus sentence 0 does not parse: {text}"
