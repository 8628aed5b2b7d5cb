"""Seeded pregroup lexicon and sentences, with independent answer checks.

Types use the Lambek convention: ``x^l`` has exponent -1 and ``x^r`` has
exponent +1, so ``n . n^r`` and ``n^l . n`` contract.  Grammatical sentences
follow  S -> NP V NP,  NP -> ADJ* N [REL V ADJ* N].  A contraction removes
(b, z)(b, z+1), which leaves the sum of (-1)^z over the simple types of each
base b unchanged; a sentence whose sums differ from those of ``s`` therefore
has no reduction, which is how the rejected sentences are known to be
rejected without running the search.
"""

from __future__ import annotations

import re
from collections import Counter

NOUN, ADJ, VERB, REL = "n", "n.n^l", "n^r.s.n^l", "n^r.n.s^l.n"
TARGET = (("s", 0),)
CORPUS_CANDIDATES = 100


def simple_types(text):
    """``n^r.s.n^l`` -> [("n", 1), ("s", 0), ("n", -1)] (Lambek convention)."""
    out = []
    for part in text.split("."):
        base, _, marks = part.partition("^")
        out.append((base, sum(-1 if ch == "l" else 1 for ch in marks)))
    return out


def weights(types):
    w = Counter()
    for base, z in types:
        w[base] += -1 if z % 2 else 1
    return {b: v for b, v in w.items() if v}


class Lexicon:
    """155 entries: nouns, adjectives, transitive verbs, relative
    pronouns, and two-word nouns and verbs.  Two-word phrases use tokens of
    their own, so longest-match segmentation never has a choice to make."""

    def __init__(self, rng):
        self.by_type = {
            NOUN: [(f"noun{i}",) for i in range(66)] + [(f"big{i}", f"deal{i}") for i in range(10)],
            ADJ: [(f"adj{i}",) for i in range(30)],
            VERB: [(f"verb{i}",) for i in range(34)] + [(f"look{i}", f"at{i}") for i in range(10)],
            REL: [(f"who{i}",) for i in range(5)],
        }
        self.entries = [(phrase, t) for t, phrases in self.by_type.items() for phrase in phrases]
        rng.shuffle(self.entries)
        self.single_nouns = [p for p in self.by_type[NOUN] if len(p) == 1]

    def to_doc(self):
        return [{"phrase": " ".join(p), "type": t} for p, t in self.entries]


def _pick(rng, lex, t, max_len, vocab):
    choices = [p for p in (vocab or lex.by_type)[t] if len(p) <= max_len]
    return rng.choice(choices), t


def _np(rng, lex, n, vocab, relative):
    """Segments of a noun phrase of exactly n tokens.

    Only a subject NP takes a relative clause.  On an object NP the verb's
    n^l meets the head noun first, and the leftmost-first search then
    backtracks exponentially before it finds the parse."""
    if relative and n >= 5 and rng.random() < 0.7:
        head = rng.randint(1, min(3, n - 3))
        verb = _pick(rng, lex, VERB, n - head - 2, vocab)
        rest = n - head - 1 - len(verb[0])
        return _np(rng, lex, head, vocab, False) + [_pick(rng, lex, REL, 1, vocab), verb] + _np(rng, lex, rest, vocab, False)
    noun = _pick(rng, lex, NOUN, min(n, 2), vocab)
    return [_pick(rng, lex, ADJ, 1, vocab) for _ in range(n - len(noun[0]))] + [noun]


def sentence(rng, lex, n, vocab=None):
    """Segments (phrase tokens, type) of a grammatical sentence of n >= 3 tokens."""
    verb = _pick(rng, lex, VERB, n - 2, vocab)
    left = rng.randint(1, n - 1 - len(verb[0]))
    return _np(rng, lex, left, vocab, True) + [verb] + _np(rng, lex, n - left - len(verb[0]), vocab, False)


def ungrammatical(rng, lex, n):
    """A sentence of n tokens whose n-weight is off by one: a grammatical
    sentence of n - 1 tokens with one more noun at a segment boundary."""
    segs = sentence(rng, lex, n - 1)
    at = rng.randint(0, len(segs))
    return segs[:at] + [(rng.choice(lex.single_nouns), NOUN)] + segs[at:]


def reword(rng, lex, segs):
    """The same type string with seeded words: each segment is redrawn among
    the phrases of its type and token count."""
    return [(rng.choice([p for p in lex.by_type[t] if len(p) == len(phrase)]), t) for phrase, t in segs]


def tokens(segs):
    return [tok for phrase, _ in segs for tok in phrase]


def check_invariant(segs, grammatical):
    types = [st for _, t in segs for st in simple_types(t)]
    ok = weights(types) == weights(TARGET)
    if ok != grammatical:
        raise ValueError(f"generated sentence breaks its invariant: {' '.join(tokens(segs))}")


_STEP = re.compile(r"STEP: position (\d+) cancels \((\S+?),(-?\d+)\)\((\S+?),(-?\d+)\)$")


def check_accepted(segs):
    """Check for an accepted parse: the SEGMENT lines name the generator's
    segmentation and the STEP lines replay, on the generator's own types,
    to the target."""
    seg_lines = [f"SEGMENT: [{' '.join(p)}] : {t}" for p, t in segs]
    start = [st for _, t in segs for st in simple_types(t)]

    def check(code, lines):
        if code != 0:
            return f"exit {code}, expected 0"
        if lines[: len(seg_lines)] != seg_lines:
            return "segmentation differs"
        if lines[-1:] != ["RESULT: s"]:
            return "missing RESULT: s"
        cur = list(start)
        for line in lines[len(seg_lines) : -1]:
            m = _STEP.match(line)
            if m is None:
                return f"unexpected line {line!r}"
            i, b1, z1, b2, z2 = int(m[1]), m[2], int(m[3]), m[4], int(m[5])
            if not (0 <= i < len(cur) - 1 and cur[i] == (b1, z1) and cur[i + 1] == (b2, z2)
                    and b1 == b2 and z2 == z1 + 1):
                return f"step does not replay: {line!r}"
            del cur[i : i + 2]
        return None if tuple(cur) == TARGET else f"steps end at {cur}"

    return check


def check_rejected(code, lines):
    if code != 1:
        return f"exit {code}, expected 1"
    if lines[:1] != ["FAIL: no-reduction"] or not lines[1:2] or not lines[1].startswith("DETAIL: NoReduction("):
        return "expected FAIL: no-reduction"
    return None


def _contains(haystack, needle):
    k = len(needle)
    return any(tuple(haystack[i : i + k]) == needle for i in range(len(haystack) - k + 1))


def semantics_sizes(corpus):
    """(object id, fibre size) per base object of ``fibcat semantics``:
    a singleton per sentence, the set of sentences containing each
    constituent, and the product of its parts' sets per sentence tensor."""
    sids = [" ".join(tokens(segs)) for segs in corpus]
    sent_toks = [tokens(segs) for segs in corpus]
    sizes = {f"({sid}, s)": 1 for sid in sids}
    for segs in corpus:
        for phrase, t in segs:
            cid = f"({' '.join(phrase)}, {t})"
            if cid not in sizes:
                sizes[cid] = sum(_contains(toks, phrase) for toks in sent_toks)
    for segs in corpus:
        parts = [f"({' '.join(p)}, {t})" for p, t in segs]
        size = 1
        for cid in parts:
            size *= sizes[cid]
        sizes.setdefault("⊗".join(parts), size)
    return list(sizes.items())


def corpus(rng, lex, n_sentences, length, elements, vocab_size):
    """``n_sentences`` distinct sentences of ``length`` tokens whose
    semantics has about ``elements`` fibre elements: the closest of a fixed
    number of seeded candidates, so every seed does the same set-up work.

    Sentences draw from a small vocabulary so that constituents recur across
    sentences, which is what makes the tensor fibres large."""
    best, best_gap = None, None
    for _ in range(CORPUS_CANDIDATES):
        vocab = {t: rng.sample(phrases, min(len(phrases), vocab_size)) for t, phrases in lex.by_type.items()}
        sents, seen = [], set()
        while len(sents) < n_sentences:
            segs = sentence(rng, lex, length, vocab)
            key = tuple(tokens(segs))
            if key not in seen:
                seen.add(key)
                sents.append(segs)
        gap = abs(sum(size for _, size in semantics_sizes(sents)) - elements)
        if best is None or gap < best_gap:
            best, best_gap = sents, gap
    return best
