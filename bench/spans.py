"""Span recorder for the traced run.

``Tracer.install`` wraps each public ``fibcat`` function that a per-layer
metric names, in every ``fibcat`` namespace that holds a reference to it
(``cli`` imports ``reindex`` and ``comma`` by name, ``groth`` and ``mcg``
import ``reindex``, and so on).  Imports done inside a function body, such
as ``from .groth import elements``, look the name up at call time and so
find the wrapper.  A span records its name, start, end, parent span and
command id; a span's self time is its duration minus the time its child
spans cover.  Spans are kept in memory, up to ``SPAN_CAP``, and written out
when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 100_000


def _morphisms(args, result):
    return len(args[0].morphisms)


def _compose_entries(args, result):
    return len(args[0].compose)


def _comma_entries(args, result):
    return len(result.cat.compose)


def _elements_entries(args, result):
    return len(result.total.compose)


def _total_morphisms(args, result):
    return len(args[0].dom.morphisms)


def _simple_types(args, result):
    return len(args[0])


# (module, attribute, span name, work count per call or None).  The work
# count is read from the call's arguments or result.
TARGETS = [
    ("fibcat.cli", "main", "cli.main", None),
    ("fibcat.cli", "load", "cli.load", None),
    ("fibcat.fincat", "validate_category", "fincat.validate_category", _morphisms),
    ("fibcat.fincat", "validate_functor", "fincat.validate_functor", None),
    ("fibcat.fincat", "validate_set_valued", "fincat.validate_set_valued", None),
    ("fibcat.fincat", "comma", "fincat.comma", _comma_entries),
    ("fibcat.fincat", "connected_components", "fincat.connected_components", None),
    ("fibcat.fib", "is_discrete_fibration", "fib.is_discrete_fibration", None),
    ("fibcat.fib", "reindex", "fib.reindex", None),
    ("fibcat.fib", "is_fibration", "fib.is_fibration", None),
    ("fibcat.fib", "is_cartesian", "fib.is_cartesian", None),
    ("fibcat.groth", "elements", "groth.elements", _elements_entries),
    ("fibcat.groth", "straighten", "groth.straighten", None),
    ("fibcat.groth", "roundtrip_presheaf", "groth.roundtrip", None),
    ("fibcat.groth", "roundtrip_fibration", "groth.roundtrip", None),
    ("fibcat.factor", "comprehensive_factor_opfib", "factor.factorize", None),
    ("fibcat.factor", "comprehensive_factor_fib", "factor.factorize", None),
    ("fibcat.factor", "is_initial", "factor.initial_final", None),
    ("fibcat.factor", "is_final", "factor.initial_final", None),
    ("fibcat.mcg", "classify_over_mcg", "mcg.classify_over_mcg", None),
    ("fibcat.pregroup", "reduce", "pregroup.reduce", None),
    ("fibcat.pregroup", "Lexicon.longest_match", "pregroup.longest_match", None),
    ("fibcat.pregroup", "build_semantics", "pregroup.build_semantics", None),
]
# The size axis of each growth exponent: what the function builds or
# inspects.  For pregroup.reduce only rejected calls count, since a rejection
# runs the search to exhaustion.
GROWTH = {
    "groth.straighten": _total_morphisms,
    "groth.elements": _elements_entries,
    "fincat.comma": _comma_entries,
    "fincat.validate_category": _compose_entries,
    "pregroup.reduce": _simple_types,
}


class _Stat:
    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.cmds = 0  # commands that made at least one call
        self.work = 0  # sum of the per-call work counts
        self.accept_s = 0.0  # pregroup.reduce only: time by outcome
        self.reject_s = 0.0
        self.samples = []  # (work count, duration) for the growth fit


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.spans = []  # (span id, parent id, command id, name, start, end)
        self.dropped = 0
        self._stack = []  # [span id, time covered by child spans]
        self._next_id = 0
        self._cmd = None
        self._cmd_names = set()
        self._cmd_self = 0.0
        self._restore = []

    # -- wrapping -------------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "fibcat" or name.startswith("fibcat.")]
        for modname, attr, name, work in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:  # a method: wrap it on its class
                cls, meth = attr.split(".")
                owner = getattr(owner, cls)
                self._replace([owner], meth, owner.__dict__[meth], name, work)
            else:
                self._replace(modules, attr, getattr(owner, attr), name, work)

    def _replace(self, namespaces, attr, fn, name, work):
        wrapper = self._wrap(fn, name, work)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapper)
                    self._restore.append((ns, key, fn))

    def uninstall(self):
        for ns, key, fn in reversed(self._restore):
            setattr(ns, key, fn)
        self._restore.clear()

    def _wrap(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer._record(name, frame, parent, start, end, work, args, result)

        return traced

    def _record(self, name, frame, parent, start, end, work, args, result):
        dur = end - start
        self_time = dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats[name]
        st.self_s += self_time
        st.calls += 1
        self._cmd_self += self_time
        if name not in self._cmd_names:
            self._cmd_names.add(name)
            st.cmds += 1
        if result is not None:  # None: the call raised, or found no match
            if name == "pregroup.reduce":
                if type(result).__name__ == "NoReduction":
                    st.reject_s += dur
                    st.samples.append((GROWTH[name](args, result), dur))
                else:
                    st.accept_s += dur
            elif name in GROWTH:
                st.samples.append((GROWTH[name](args, result), dur))
            if work is not None:
                st.work += work(args, result)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent, self._cmd, name, start, end))
        else:
            self.dropped += 1

    # -- per command ----------------------------------------------------------

    def begin(self, cmd_id):
        self._cmd = cmd_id
        self._cmd_names = set()
        self._cmd_self = 0.0

    def end(self):
        """The self time recorded during the command that just ended."""
        return self._cmd_self

    # -- results --------------------------------------------------------------

    def metrics(self, n_cmds):
        """Per-layer metrics, each a total over the traced commands divided
        by their number ``n_cmds``, except ``calls_per_cmd``, which divides
        by the commands that made a call, and the growth exponents."""
        s = self.stats
        m = {}
        for name in sorted({name for _, _, name, _ in TARGETS} - {"pregroup.reduce"}):
            m[f"{name}.self_s"] = (s[name].self_s / n_cmds, "s/cmd")
        for name in ("cli.load", "fincat.comma", "fib.reindex", "fib.is_cartesian",
                     "pregroup.reduce", "pregroup.longest_match"):
            m[f"{name}.calls"] = (s[name].calls / n_cmds, "count/cmd")
        m["fincat.validate_category.morphisms"] = (s["fincat.validate_category"].work / n_cmds, "count/cmd")
        m["fincat.comma.compose_entries"] = (s["fincat.comma"].work / n_cmds, "count/cmd")
        m["groth.elements.compose_entries"] = (s["groth.elements"].work / n_cmds, "count/cmd")
        disc = s["fib.is_discrete_fibration"]
        m["fib.is_discrete_fibration.calls_per_cmd"] = (disc.calls / max(disc.cmds, 1), "count/cmd")
        m["pregroup.reduce.accept_s"] = (s["pregroup.reduce"].accept_s / n_cmds, "s/cmd")
        m["pregroup.reduce.reject_s"] = (s["pregroup.reduce"].reject_s / n_cmds, "s/cmd")
        for name in GROWTH:
            m[f"{name}.growth_exp"] = (growth_exponent(s[name].samples), "exponent")
        return m

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, cmd, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "cmd": cmd, "name": name,
                                     "start": start, "end": end}) + "\n")


def growth_exponent(samples):
    """Least-squares slope of log(duration) on log(work) over every call;
    0.0 when the calls do not span two work sizes."""
    pts = [(math.log(n), math.log(d)) for n, d in samples if n > 0 and d > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
