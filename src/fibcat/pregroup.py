"""Pregroup types, contraction-based reduction, and the corpus-driven toy
semantics.

Types are strings of simple types carrying an adjoint exponent; reduction
searches adjacent contractions (b, z)(b, z+1) only, leftmost first.  A
convention is the sign of the exponent of ^l, and ^r has the opposite
sign: the default "paper" convention takes ^l to +1 so that n . n^l
contracts; "lambek" takes ^l to -1, so it negates every exponent of the
paper reading and ``in_convention`` derives it from a paper parse.

``build_semantics`` assembles a finite base category from corpus parses,
assigns each constituent the set of corpus sentences containing its
phrase, and produces a genuine discrete fibration via the category of
elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product as iproduct

from .errors import TypeSyntaxError, UnparsedSentence
from .fincat import (
    CONTRAVARIANT,
    FinCat,
    Morphism,
    SetValuedFunctor,
    complete_units,
    tuple_id,
)

CONVENTIONS = {"paper": +1, "lambek": -1}  # the exponent of ^l; ^r is its negative


@dataclass(frozen=True)
class SimpleType:
    base: str
    exponent: int = 0


# a pregroup type is a tuple of SimpleType; the empty tuple is the unit


def in_convention(t, convention):
    """The type t, parsed in the paper convention, as `convention` reads it."""
    sign = CONVENTIONS[convention]
    return tuple(SimpleType(st.base, sign * st.exponent) for st in t)


def format_type(t, convention="paper"):
    if not t:
        return "1"
    sign = CONVENTIONS[convention]
    parts = []
    for st in t:
        z = sign * st.exponent  # the number of l markers, or minus that of r
        parts.append(st.base + ("^" + ("l" if z > 0 else "r") * abs(z) if z else ""))
    return ".".join(parts)


_TOKEN = re.compile(r"([^\s.^]+)(?:\^([lr]+))?$")


def parse_type(text, convention="paper"):
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    sign = CONVENTIONS[convention]
    simples = []
    for chunk in re.finditer(r"[^.\s]+", text):
        col, m = chunk.start(), _TOKEN.match(chunk.group())
        if m is None:
            raise TypeSyntaxError(f"bad simple type {chunk.group()!r}", col)
        base, markers = m.group(1), m.group(2) or ""
        if base == "1":
            if markers:
                raise TypeSyntaxError("unit type takes no adjoint", col)
        else:
            simples.append(SimpleType(base, sign * (markers.count("l") - markers.count("r"))))
    return tuple(simples)


@dataclass(frozen=True)
class ReductionStep:
    position: int
    cancelled_base: str
    cancelled_exponents: tuple  # (z, z+1)


@dataclass(frozen=True)
class ReductionWitness:
    start: tuple
    steps: tuple
    end: tuple


@dataclass(frozen=True)
class NoReduction:
    start: tuple
    target: tuple


def _contractible(a: SimpleType, b: SimpleType):
    return a.base == b.base and b.exponent == a.exponent + 1


def apply_step(t, step: ReductionStep):
    i = step.position
    if i < 0 or i + 1 >= len(t):
        raise ValueError("step position out of range")
    a, b = t[i], t[i + 1]
    if not _contractible(a, b):
        raise ValueError(f"pair at {i} is not contractible")
    if a.base != step.cancelled_base or (a.exponent, b.exponent) != tuple(
        step.cancelled_exponents
    ):
        raise ValueError("step record does not match the type")
    return t[:i] + t[i + 2 :]


def replay(witness: ReductionWitness):
    cur = witness.start
    for step in witness.steps:
        cur = apply_step(cur, step)
    return cur == witness.end


def reduce(t, target):
    """Backtracking search for a contraction sequence from t to target,
    leftmost contraction first.  Returns a NoReduction value when the
    exhaustive search fails."""
    t, target = tuple(t), tuple(target)
    steps = _search(t, (), target, set())
    if steps is None:
        return NoReduction(start=t, target=target)
    return ReductionWitness(start=t, steps=steps, end=target)


def _search(cur, steps, target, seen):
    """steps extended by the contractions that take cur to target, leftmost
    first, or None.  seen holds the types visited so far; none is revisited."""
    if cur == target:
        return steps
    if len(cur) < len(target) or cur in seen:
        return None
    seen.add(cur)
    for i in range(len(cur) - 1):
        if _contractible(cur[i], cur[i + 1]):
            step = ReductionStep(
                position=i,
                cancelled_base=cur[i].base,
                cancelled_exponents=(cur[i].exponent, cur[i + 1].exponent),
            )
            found = _search(cur[:i] + cur[i + 2 :], steps + (step,), target, seen)
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class Lexicon:
    entries: tuple  # of (phrase tokens tuple, type tuple)

    def __post_init__(self):
        index = dict(self.entries)  # phrase tokens -> type
        if () in index:
            raise ValueError("empty phrase in lexicon")
        if len(index) != len(self.entries):
            raise ValueError("duplicate phrases in lexicon")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_lengths", sorted({len(p) for p in index}, reverse=True))

    def longest_match(self, tokens, start):
        for k in self._lengths:
            phrase = tuple(tokens[start : start + k])  # past the end: shorter, still longest
            if phrase in self._index:
                return phrase, self._index[phrase]
        return None


def make_lexicon(pairs, convention="paper"):
    """Build a Lexicon from (phrase string, type string) pairs."""
    return Lexicon(
        entries=tuple(
            (tuple(phrase.split()), parse_type(text, convention))
            for phrase, text in pairs
        )
    )


@dataclass(frozen=True)
class ParseFailure:
    kind: str  # "unknown-phrase" | "no-reduction"
    detail: object


@dataclass(frozen=True)
class ParseResult:
    segmentation: tuple  # of phrase token tuples
    types: tuple  # one pregroup type per segment
    witness: ReductionWitness


def describe(failure, convention="paper"):
    """The detail of a ParseFailure as text: the unknown word, or the
    NoReduction with both types in type syntax."""
    d = failure.detail
    if failure.kind == "unknown-phrase":
        return d
    start, target = (format_type(t, convention) for t in (d.start, d.target))
    return f"NoReduction(start={start}, target={target})"


def parse_sentence(tokens, lex: Lexicon, target):
    """Longest-match segmentation left to right, then contraction search."""
    tokens = tuple(tokens)
    segmentation, types = [], []
    pos = 0
    while pos < len(tokens):
        match = lex.longest_match(tokens, pos)
        if match is None:
            return ParseFailure(kind="unknown-phrase", detail=tokens[pos])
        phrase, ptype = match
        segmentation.append(phrase)
        types.append(ptype)
        pos += len(phrase)
    concat = tuple(st for t in types for st in t)
    witness = reduce(concat, target)
    if isinstance(witness, NoReduction):
        return ParseFailure(kind="no-reduction", detail=witness)
    return ParseResult(
        segmentation=tuple(segmentation), types=tuple(types), witness=witness
    )


def _contains(haystack, needle):
    n, k = len(haystack), len(needle)
    return any(tuple(haystack[i : i + k]) == needle for i in range(n - k + 1))


@dataclass(frozen=True)
class SpeakerFibration:
    base: FinCat
    presheaf: SetValuedFunctor
    fibration: object  # ElementsResult
    parses: tuple  # (sentence id, ParseResult) per corpus sentence


def _constituent_id(phrase, ptype, convention):
    return f"({' '.join(phrase)}, {format_type(ptype, convention)})"


def _tuple_elt(parts):
    return tuple_id(*parts) if len(parts) > 1 else parts[0]


def build_semantics(corpus, lex: Lexicon, target, convention="paper") -> SpeakerFibration:
    """The toy semantics: each constituent's meaning set is the set of
    corpus sentences employing it; sentence meanings are singletons;
    tensor meanings are cartesian products; reduction acts by the
    diagonal."""
    from .groth import elements

    sentences = {}  # tokens -> (sentence id, parse), once per distinct sentence
    for i, tokens in enumerate(corpus):
        tokens = tuple(tokens)
        if tokens not in sentences:
            result = parse_sentence(tokens, lex, target)
            if isinstance(result, ParseFailure):
                raise UnparsedSentence(i, result, describe(result, convention))
            sentences[tokens] = (" ".join(tokens), result)

    eltset = {}  # in insertion order, which is the order of the objects

    def add_object(oid, elts):
        if oid not in eltset:
            eltset[oid] = tuple(elts)

    # per parse: sentence id, sentence object, phrases, constituent ids, tensor id
    shapes = []
    for sid, result in sentences.values():
        phrases = result.segmentation
        part_ids = tuple(
            _constituent_id(ph, ty, convention) for ph, ty in zip(phrases, result.types)
        )
        sent_obj = _constituent_id((sid,), result.witness.end, convention)
        shapes.append((sid, sent_obj, phrases, part_ids, "⊗".join(part_ids)))
    # sentence objects first: they win when a lexicon phrase is itself a
    # full corpus sentence of the target type
    for sid, sent_obj, _, _, _ in shapes:
        add_object(sent_obj, (sid,))
    for _, _, phrases, part_ids, _ in shapes:
        for phrase, cid in zip(phrases, part_ids):
            add_object(cid, (sid for t, (sid, _) in sentences.items() if _contains(t, phrase)))
    for _, _, _, part_ids, tid in shapes:
        combos = iproduct(*(eltset[pid] for pid in part_ids))
        add_object(tid, (_tuple_elt(combo) for combo in combos))

    morphisms, identity = [], {}
    for oid in eltset:
        mid = f"id:{oid}"
        morphisms.append(Morphism(mid, oid, oid))
        identity[oid] = mid
    action = {identity[oid]: {x: x for x in elts} for oid, elts in eltset.items()}
    for sid, sent_obj, _, part_ids, tid in shapes:
        if tid == sent_obj:
            continue  # zero-step reduction collapses to the identity
        mid = f"reduce:({sid})"
        morphisms.append(Morphism(mid, tid, sent_obj))
        action[mid] = {sid: _tuple_elt((sid,) * len(part_ids))}
    # reductions run tensor -> sentence and nothing leaves a sentence
    # object, so the only composites involve identities
    cat = FinCat(tuple(eltset), tuple(morphisms), identity, {})
    complete_units(cat)
    missing = next((pair for pair in cat.composable_pairs() if pair not in cat.compose), None)
    if missing is not None:
        g, f = missing
        raise ValueError(
            f"corpus induces a non-identity composite {g} . {f}; unsupported"
        )
    presheaf = SetValuedFunctor(
        base=cat, variance=CONTRAVARIANT, eltset=eltset, action=action
    )
    return SpeakerFibration(
        base=cat,
        presheaf=presheaf,
        fibration=elements(presheaf),
        parses=tuple(sentences.values()),
    )
