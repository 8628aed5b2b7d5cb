"""Pregroup types, contraction-based reduction, and the corpus-driven toy
semantics.

Types are strings of simple types carrying an adjoint exponent, the number
of its l markers less the number of its r markers, so a type reads the same
in every convention.  A convention only chooses which adjoint cancels:
reduction contracts adjacent pairs (b, z)(b, z + d) only, with d the
convention's entry in CONVENTIONS, each time the leftmost pair after which
the target can still be reached.  The default "paper" convention (d = +1)
contracts n . n^l and n^r . n; "lambek" (d = -1) contracts n^l . n and
n . n^r.

``build_semantics`` assembles a finite base category from corpus parses and
assigns each constituent the set of corpus sentences containing its phrase:
the speaker's presheaf W, whose discrete fibration is ``groth.elements(W)``.
A tensor's meaning set is a Product held by its factors, and each identity
acts as an Identity, so W is built, and ``semantics_verdict`` checks it, in
time linear in the corpus and the lexicon; only a caller that lists a
product pays for its elements.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from math import prod

from .errors import TypeSyntaxError, UnparsedSentence
from .fincat import (
    CONTRAVARIANT,
    FinCat,
    Morphism,
    SetValuedFunctor,
    complete_units,
    tuple_id,
)

CONVENTIONS = {"paper": +1, "lambek": -1}  # (b, z) contracts with a next (b, z + d)


@dataclass(frozen=True)
class SimpleType:
    base: str
    exponent: int = 0


# a pregroup type is a tuple of SimpleType; the empty tuple is the unit


def format_type(t):
    if not t:
        return "1"
    parts = []
    for st in t:
        z = st.exponent  # the number of l markers, or minus that of r
        parts.append(st.base + ("^" + ("l" if z > 0 else "r") * abs(z) if z else ""))
    return ".".join(parts)


_TOKEN = re.compile(r"([^\s.^]+)(?:\^([lr]+))?$")


def parse_type(text):
    """The type that text denotes, in every convention."""
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
            simples.append(SimpleType(base, markers.count("l") - markers.count("r")))
    return tuple(simples)


@dataclass(frozen=True)
class ReductionStep:
    position: int
    cancelled_base: str
    cancelled_exponents: tuple  # (z, z + d), as written


@dataclass(frozen=True)
class ReductionWitness:
    start: tuple
    steps: tuple
    end: tuple


@dataclass(frozen=True)
class NoReduction:
    start: tuple
    target: tuple


def apply_step(t, step: ReductionStep, convention="paper"):
    i = step.position
    if i < 0 or i + 1 >= len(t):
        raise ValueError("step position out of range")
    a, b = t[i], t[i + 1]
    if a.base != b.base or b.exponent != a.exponent + CONVENTIONS[convention]:
        raise ValueError(f"pair at {i} is not contractible")
    if a.base != step.cancelled_base or (a.exponent, b.exponent) != tuple(
        step.cancelled_exponents
    ):
        raise ValueError("step record does not match the type")
    return t[:i] + t[i + 2 :]


def replay(witness: ReductionWitness, convention="paper"):
    cur = witness.start
    for step in witness.steps:
        cur = apply_step(cur, step, convention)
    return cur == witness.end


def reduce(t, target, convention="paper"):
    """The contractions from t to target by the convention's rule, leftmost
    feasible first: each step contracts the leftmost adjacent pair after
    which target can still be reached.  That is the first success of a
    leftmost-first backtracking search, found without backtracking.
    Returns a NoReduction value when t cannot reach target."""
    t, target, d = tuple(t), tuple(target), CONVENTIONS[convention]
    code = {}  # (base, exponent) -> a small int
    cur = [code.setdefault((st.base, st.exponent), len(code)) for st in t]
    goal = [code.setdefault((st.base, st.exponent), len(code)) for st in target]
    simple = list(code)
    succ = [code.get((b, z + d), -1) for b, z in simple]  # x contracts with succ[x]
    at = [0] * len(code)  # the target indices that hold each code
    for j, c in enumerate(goal):
        at[c] |= 1 << j
    occ = [0] * len(code)  # the suffix lengths at which each code starts
    for k, c in enumerate(cur):
        occ[c] |= 1 << (len(cur) - k)
    E, R = [1], [1 << len(goal)]  # the empty suffix is the unit and target[len(goal):]
    _extend(cur, succ, at, occ, E, R)
    if not R[-1] & 1:
        return NoReduction(start=t, target=target)
    steps = []
    while cur != goal:
        n = len(cur)
        for i in range(n - 1):
            if succ[cur[i]] != cur[i + 1]:
                continue
            # the entries of the suffixes right of the pair stay valid
            nxt, E2, R2 = cur[:i] + cur[i + 2 :], E[: n - i - 1], R[: n - i - 1]
            occ2, keep = occ[:], (1 << (n - i - 1)) - 1
            for c in set(cur[: i + 2]):  # the codes whose positions move or go
                occ2[c] = (occ[c] & keep) | ((occ[c] >> 2) & ~keep)
            _extend(nxt, succ, at, occ2, E2, R2)
            if R2[-1] & 1:
                break
        else:  # a reachable target always leaves some contraction feasible
            raise AssertionError(f"no feasible contraction in {cur}")
        b, z = simple[cur[i]]
        steps.append(ReductionStep(position=i, cancelled_base=b, cancelled_exponents=(z, z + d)))
        cur, E, R, occ = nxt, E2, R2, occ2
    return ReductionWitness(start=t, steps=tuple(steps), end=target)


def _extend(cur, succ, at, occ, E, R):
    """Append to E and R the entries of the suffixes of cur that they lack.

    Both lists are indexed by suffix length r, and so are the bits of E and
    of occ: occ[c] has bit r when the suffix of length r starts with c.
    E[r] has bit s when that suffix, less its last s simple types,
    contracts to the unit.  R[r] has bit j when it reduces to target[j:];
    at[c] has bit j when target[j] is c.  The first simple type c of a
    suffix either stays as a target type, or it contracts with a partner
    succ[c] after types that contract to the unit, and the types after the
    partner reduce on their own."""
    n = len(cur)
    for r in range(len(E), n + 1):
        c = cur[n - r]
        e, reach = 1 << r, at[c] & (R[r - 1] >> 1)
        if succ[c] >= 0:
            partners = occ[succ[c]] & E[r - 1]
            while partners:
                low = partners & -partners
                s = low.bit_length() - 2  # the suffix after the partner
                e |= E[s]
                reach |= R[s]
                partners ^= low
        E.append(e)
        R.append(reach)


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


def make_lexicon(pairs):
    """Build a Lexicon from (phrase string, type string) pairs."""
    return Lexicon(
        entries=tuple((tuple(phrase.split()), parse_type(text)) for phrase, text in pairs)
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


def describe(failure):
    """The detail of a ParseFailure as text: the unknown word, or the
    NoReduction with both types in type syntax."""
    d = failure.detail
    if failure.kind == "unknown-phrase":
        return d
    start, target = (format_type(t) for t in (d.start, d.target))
    return f"NoReduction(start={start}, target={target})"


def parse_sentence(tokens, lex: Lexicon, target, convention="paper"):
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
    witness = reduce(concat, target, convention)
    if isinstance(witness, NoReduction):
        return ParseFailure(kind="no-reduction", detail=witness)
    return ParseResult(
        segmentation=tuple(segmentation), types=tuple(types), witness=witness
    )


def _constituent_id(phrase, ptype):
    return f"({' '.join(phrase)}, {format_type(ptype)})"


def _tuple_elt(parts):
    """A product element: its one component, else their tuple id ("()" if none)."""
    return tuple_id(*parts) if len(parts) != 1 else parts[0]


@dataclass(frozen=True)
class Product:
    """A tensor's meaning set: the cartesian product of its factors, each an
    ordered set of element ids (a dict's keys).  Its elements are the tuple
    ids of the combinations, in itertools.product order, listed only when it
    is iterated.  ``size`` is a plain int; len() refuses one past
    sys.maxsize."""

    factors: tuple  # of dicts

    @property
    def size(self):
        return prod(map(len, self.factors))

    def __len__(self):
        return self.size

    def __iter__(self):
        return map(_tuple_elt, iproduct(*self.factors))


@dataclass(frozen=True, eq=False)
class Identity(Mapping):
    """The identity action on a fibre, as a mapping that lists its entries
    only when iterated; it equals the table {x: x for x in fibre}."""

    fibre: object  # a tuple or a Product

    @cached_property
    def _members(self):
        return frozenset(self.fibre)

    def __getitem__(self, x):
        if x not in self._members:
            raise KeyError(x)
        return x

    def __iter__(self):
        return iter(self.fibre)

    def __len__(self):
        return len(self.fibre)


def _occurrences(sentences, phrases):
    """{phrase: the ids of the sentences that contain it, each once, in
    sentence order}, from one pass over each sentence's windows of the
    phrase lengths."""
    found = {phrase: [] for phrase in phrases}
    lengths = {len(phrase) for phrase in phrases}
    for tokens, (sid, _) in sentences.items():
        for k in lengths:
            for i in range(len(tokens) - k + 1):
                hits = found.get(tokens[i : i + k])
                if hits is not None and (not hits or hits[-1] != sid):
                    hits.append(sid)
    return found


def build_semantics(corpus, lex: Lexicon, target, convention="paper") -> SetValuedFunctor:
    """The toy semantics as the speaker's contravariant presheaf W on the
    grammar category: each constituent's meaning set is the tuple of corpus
    sentences employing it; sentence meanings are singletons; tensor
    meanings are cartesian products, held as Products; each identity acts
    as an Identity, and reduction acts by the diagonal.  The objects are the
    sentence objects, then the constituents, then the tensors, each in the
    order the corpus first has them, and of two objects with one id the
    first wins.  It takes time linear in the corpus and the lexicon, since
    no product is listed here: a caller that iterates a Product, or builds
    groth.elements(W), pays for it."""
    sentences = {}  # tokens -> (sentence id, parse), once per distinct sentence
    for i, tokens in enumerate(corpus):
        tokens = tuple(tokens)
        if tokens not in sentences:
            result = parse_sentence(tokens, lex, target, convention)
            if isinstance(result, ParseFailure):
                raise UnparsedSentence(i, result, describe(result))
            sentences[tokens] = (" ".join(tokens), result)
    parses = [  # (sentence id, parse, constituent ids)
        (sid, r, tuple(_constituent_id(ph, ty) for ph, ty in zip(r.segmentation, r.types)))
        for sid, r in sentences.values()
    ]

    # A sentence that is one phrase of the target type has the id of that
    # phrase's constituent.  When a sentence of more phrases uses the
    # constituent too, the sentence object takes a tuple id instead, and the
    # constituent reduces to it in zero steps.
    shared = {cid for _, _, cids in parses if len(cids) > 1 for cid in cids}
    eltset = {}  # in insertion order, which is the order of the objects
    reductions = []  # (sentence id, tensor id, its constituent ids, sentence object)
    # sentence objects first: they win when a lexicon phrase is itself a
    # full corpus sentence of the target type that no other sentence uses
    for sid, r, cids in parses:
        sent_obj = _constituent_id((sid,), r.witness.end)
        if sent_obj in shared:
            sent_obj = tuple_id(sid, format_type(r.witness.end))
        eltset.setdefault(sent_obj, (sid,))
        reductions.append((sid, "⊗".join(cids), cids, sent_obj))
    occurrences = _occurrences(sentences, {ph for _, r, _ in parses for ph in r.segmentation})
    factor = {}  # constituent id -> its fibre as an ordered set, made once
    for _, r, cids in parses:
        for phrase, cid in zip(r.segmentation, cids):
            if cid not in factor:
                factor[cid] = dict.fromkeys(eltset.setdefault(cid, tuple(occurrences[phrase])))
    for _, tid, cids, _ in reductions:
        eltset.setdefault(tid, Product(tuple(factor[cid] for cid in cids)))

    morphisms, identity = [], {}
    for oid in eltset:
        mid = f"id:{oid}"
        morphisms.append(Morphism(mid, oid, oid))
        identity[oid] = mid
    action = {identity[oid]: Identity(elts) for oid, elts in eltset.items()}
    for sid, tid, cids, sent_obj in reductions:
        if tid == sent_obj:
            continue  # zero-step reduction collapses to the identity
        mid = f"reduce:({sid})"
        morphisms.append(Morphism(mid, tid, sent_obj))
        action[mid] = {sid: _tuple_elt((sid,) * len(cids))}
    # reductions run tensor -> sentence and nothing leaves a sentence
    # object, so the only composites involve identities
    cat = FinCat(tuple(eltset), tuple(morphisms), identity, {})
    complete_units(cat)
    rows = cat.compose
    missing = next((p for p in cat.composable_pairs() if p[1] not in rows.get(p[0], ())), None)
    if missing is not None:
        g, f = missing
        raise ValueError(
            f"corpus induces a non-identity composite {g} . {f}; unsupported"
        )
    return SetValuedFunctor(base=cat, variance=CONTRAVARIANT, eltset=eltset, action=action)


def semantics_verdict(W: SetValuedFunctor) -> bool:
    """validate_set_valued(W).ok for a W that build_semantics returns, read
    off its generating data in time linear in it, with no product listed.

    Each identity must act as the Identity on its own fibre; then the unit
    laws hold, and with them every composite, since build_semantics makes
    no other.  Each reduce: action must be a total function from the
    sentence's fibre into the tensor's; a value that is the diagonal of its
    sentence lies in a product iff the sentence lies in each factor."""
    for m in W.base.morphisms:
        table, fibre = W.action.get(m.id), W.eltset[m.src]
        if W.base.is_identity(m.id):
            ok = isinstance(table, Identity) and table.fibre == fibre
        else:
            ok = (
                table is not None
                and set(table) == set(W.eltset[m.tgt])
                and all(_has(fibre, sid, x) for sid, x in table.items())
            )
        if not ok:
            return False
    return True


def _has(fibre, sid, x):
    """x in fibre, tested factor by factor when x is the diagonal of sid in
    a Product, so that no product is listed."""
    if isinstance(fibre, Product) and x == _tuple_elt((sid,) * len(fibre.factors)):
        return all(sid in f for f in fibre.factors)
    return x in fibre
