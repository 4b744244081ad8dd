"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side of each layer boundary:
around ``decode()`` (by the caller), around every scorer call (a proxy
scorer), around the outermost ``eval_lookahead`` (a patched module
attribute), and ``extend`` is counted. Nothing here is active in the
timed run.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter_ns

DECODE, SCORER, LOOKAHEAD = "decode", "scorer", "lookahead"


class Tracer:
    """Spans of one run. A span is ``(id, parent, decode_id, name, t0, t1)``
    with times in ns; spans of one decode share ``decode_id``."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.decode_id = -1
        self.extend_calls = 0
        self.lookahead_nodes = 0
        self._stack: list[int] = [-1]
        self._next_id = 0
        self._lookahead_depth = 0

    def begin(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, perf_counter_ns()

    def end(self, token: tuple[int, int], name: str) -> None:
        t1 = perf_counter_ns()
        span_id, t0 = token
        self._stack.pop()
        self.spans.append((span_id, self._stack[-1], self.decode_id, name, t0, t1))

    def call_decode(self, fn, scorer, inp, config):
        self.decode_id += 1
        token = self.begin()
        try:
            return fn(scorer, inp, config)
        finally:
            self.end(token, DECODE)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write("id\tparent\tdecode\tname\tt0_ns\tt1_ns\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")

    def summary(self) -> dict:
        """Totals per layer, in ns, with self times computed from the spans.

        ``decode_self`` is the decode span minus every scorer span inside
        it; ``lookahead_self`` likewise for the outermost lookahead spans.
        """
        name_of = {s[0]: s[3] for s in self.spans}
        parent_of = {s[0]: s[1] for s in self.spans}
        total = {DECODE: 0, SCORER: 0, LOOKAHEAD: 0}
        count = {DECODE: 0, SCORER: 0, LOOKAHEAD: 0}
        scorer_under = {DECODE: 0, LOOKAHEAD: 0}
        lookahead_calls = 0
        for span_id, parent, _, name, t0, t1 in self.spans:
            dur = t1 - t0
            total[name] += dur
            count[name] += 1
            if name != SCORER:
                continue
            while parent != -1:
                scorer_under[name_of[parent]] += dur
                if name_of[parent] == LOOKAHEAD:
                    lookahead_calls += 1
                parent = parent_of[parent]
        return {
            "decodes": count[DECODE],
            "decode_ns": total[DECODE],
            "decode_self_ns": total[DECODE] - scorer_under[DECODE],
            "scorer_calls": count[SCORER],
            "scorer_ns": total[SCORER],
            "lookahead_spans": count[LOOKAHEAD],
            "lookahead_ns": total[LOOKAHEAD],
            "lookahead_self_ns": total[LOOKAHEAD] - scorer_under[LOOKAHEAD],
            "lookahead_calls": lookahead_calls,
            "lookahead_nodes": self.lookahead_nodes,
            "extend_calls": self.extend_calls,
        }


class KeyLog:
    """Classifies each scored ``(context, prefix)`` key as new, repeated
    within the current decode, or already scored by an earlier decode."""

    def __init__(self):
        self.calls = 0
        self.within = 0
        self.across = 0
        self._decode_id = None
        self._decode: set = set()
        self._earlier: set[int] = set()

    def note(self, decode_id: int, context, prefix) -> None:
        if decode_id != self._decode_id:
            self._earlier.update(map(hash, self._decode))
            self._decode = set()
            self._decode_id = decode_id
        key = (context, tuple(prefix))
        self.calls += 1
        if key in self._decode:
            self.within += 1
        else:
            if hash(key) in self._earlier:
                self.across += 1
            self._decode.add(key)


class TracedScorer:
    """Proxy recording a span around every ``next_logprobs`` call and the
    key it scored. Other attributes pass through to the wrapped scorer."""

    def __init__(self, inner, tracer: Tracer, keys: KeyLog):
        self.inner = inner
        self.vocabulary = inner.vocabulary
        self._tracer = tracer
        self._keys = keys

    def next_logprobs(self, context, prefix):
        self._keys.note(self._tracer.decode_id, context, prefix)
        token = self._tracer.begin()
        try:
            return self.inner.next_logprobs(context, prefix)
        finally:
            self._tracer.end(token, SCORER)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class ServerTotals:
    """Server-side proxy: counts calls and time inside the real scorer."""

    def __init__(self, inner):
        self.inner = inner
        self.vocabulary = inner.vocabulary
        self.calls = 0
        self.ns = 0

    def next_logprobs(self, context, prefix):
        t0 = perf_counter_ns()
        try:
            return self.inner.next_logprobs(context, prefix)
        finally:
            self.ns += perf_counter_ns() - t0
            self.calls += 1


def _seqdec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "seqdec" or name.startswith("seqdec."))]


@contextmanager
def patched(tracer: Tracer):
    """Count ``extend`` and span the outermost ``eval_lookahead`` in every
    seqdec module that holds them, restoring the originals on exit.

    The decode module is reached through ``sys.modules``: the package
    attribute ``seqdec.decode`` is the re-exported ``decode`` function.
    """
    decode_mod = sys.modules["seqdec.decode"]
    core_mod = sys.modules["seqdec.core"]
    orig_extend = getattr(core_mod, "extend", None)
    orig_lookahead = getattr(decode_mod, "eval_lookahead", None)

    def extend(*args, **kwargs):
        tracer.extend_calls += 1
        return orig_extend(*args, **kwargs)

    def eval_lookahead(*args, **kwargs):
        tracer.lookahead_nodes += 1
        if tracer._lookahead_depth:
            return orig_lookahead(*args, **kwargs)
        tracer._lookahead_depth += 1
        token = tracer.begin()
        try:
            return orig_lookahead(*args, **kwargs)
        finally:
            tracer.end(token, LOOKAHEAD)
            tracer._lookahead_depth -= 1

    swaps = []
    for mod in _seqdec_modules():
        for attr, orig, repl in (("extend", orig_extend, extend),
                                 ("eval_lookahead", orig_lookahead, eval_lookahead)):
            if orig is not None and getattr(mod, attr, None) is orig:
                swaps.append((mod, attr, orig))
                setattr(mod, attr, repl)
    try:
        yield
    finally:
        for mod, attr, orig in swaps:
            setattr(mod, attr, orig)
