import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import seqdec
from seqdec.core import (
    NEG_INF,
    DecodeConfig,
    DecodeInput,
    DecodeResult,
    Hypothesis,
    Vocabulary,
    extend,
)
from seqdec.decode import _lookahead, decode
from seqdec.oracle import breadth_first_lookahead, sum_left_to_right
from seqdec.scorers import CountingScorer, TableModel

TINY3_ROWS = {
    "": {"a": 0.5, "b": 0.4, "</s>": 0.1},
    "a": {"a": 0.1, "b": 0.2, "</s>": 0.7},
    "b": {"a": 0.7, "b": 0.2, "</s>": 0.1},
}
TINY3_DEFAULT = {"a": 0.25, "b": 0.25, "</s>": 0.5}


def make_tiny3() -> TableModel:
    vocab = Vocabulary(["<s>", "a", "b", "</s>"])
    return TableModel(vocab, dict(TINY3_ROWS), dict(TINY3_DEFAULT))


def uniform_model(vocab: Vocabulary) -> TableModel:
    """Every extension token at probability 1/|extension set|."""
    n = len(vocab.extension_ids)
    return TableModel(vocab, {}, {vocab.tokens[t]: 1 / n for t in vocab.extension_ids})


def write_model(model, path) -> None:
    """Save a model file as ``seqdec train`` does: its ``to_json()``,
    keys sorted."""
    Path(path).write_text(json.dumps(model.to_json(), sort_keys=True), encoding="utf-8")


@pytest.fixture
def tiny3() -> TableModel:
    return make_tiny3()


@pytest.fixture
def inp() -> DecodeInput:
    return DecodeInput("t0")


def random_table_model(seed: int, n_ext: int, depth: int,
                       allow_zero: bool = False) -> TableModel:
    """Random table model covering every prefix up to `depth` generated
    tokens; n_ext counts extension tokens including EOS."""
    rng = random.Random(seed)
    letters = [chr(ord("a") + i) for i in range(n_ext - 1)]
    vocab = Vocabulary(["<s>"] + letters + ["</s>"])
    ext = [vocab.tokens[i] for i in vocab.extension_ids]

    def row():
        floor = 0.0 if allow_zero else 1e-3
        weights = [rng.random() + floor for _ in ext]
        if allow_zero and rng.random() < 0.3:
            weights[rng.randrange(len(weights) - 1)] = 0.0
        # left to right, as sum() was before Python 3.12, so the rows (and
        # the digests pinned over them) are the same on every version
        total = sum_left_to_right(weights)
        probs = [w / total for w in weights]
        probs[-1] = 1.0 - sum_left_to_right(probs[:-1])
        return dict(zip(ext, probs))

    rows = {}
    for length in range(depth):
        for combo in itertools.product(letters, repeat=length):
            rows[" ".join(combo)] = row()
    return TableModel(vocab, rows, row())


class BatchRecorder:
    """A model's rows with a batch method, recording each batch and
    counting each single call."""

    def __init__(self, model):
        self.model = model
        self.vocabulary = model.vocabulary
        self.batches = []
        self.singles = 0

    def next_logprobs(self, context, prefix):
        self.singles += 1
        return self.model.next_logprobs(context, prefix)

    def next_logprobs_batch(self, context, prefixes):
        self.batches.append(list(prefixes))
        return [self.model.next_logprobs(context, p) for p in prefixes]


class PrefixRecorder:
    """A model's rows, recording every prefix asked, in order."""

    def __init__(self, model):
        self.model = model
        self.vocabulary = model.vocabulary
        self.asked = []

    def next_logprobs(self, context, prefix):
        self.asked.append(tuple(prefix))
        return self.model.next_logprobs(context, prefix)


def one_hot_model(token: str = "a") -> TableModel:
    """Deterministic scorer always emitting `token` with probability 1."""
    vocab = Vocabulary(["<s>", "a", "b", "</s>"])
    row = {t: 0.0 for t in ("a", "b", "</s>")}
    row[token] = 1.0
    return TableModel(vocab, {}, row)


def lbs_reference_step(scorer, context: str, beam, d: int, k: int):
    """Straight-line lookahead beam step using the breadth-first oracle.

    Ranks every candidate by cumulative score plus exact lookahead bonus;
    structurally independent of the branch-and-bound implementation.
    """
    vocab = scorer.vocabulary
    inp = DecodeInput("ref", context)
    cands = []
    for h in beam:
        if h.complete:
            scorer.next_logprobs(context, h.tokens)
            cands.append(h)
        else:
            row = scorer.next_logprobs(context, h.tokens)
            for tid in vocab.extension_ids:
                cands.append(extend(h, tid, row[tid], vocab.eos_id))
    scored = [(c.cum_logprob + breadth_first_lookahead(scorer, inp, c, d), c)
              for c in cands]
    scored.sort(key=lambda fc: (-fc[0],) + fc[1].sort_key())
    return [c for _, c in scored[:k]]


def lbs_reference_decode(scorer, context: str, d: int, k: int, n_max: int):
    """Full raw-mode lookahead decode driven by the breadth-first oracle.

    Returns (final beam, scorer call count).
    """
    counted = CountingScorer(scorer)
    beam = [Hypothesis.initial(scorer.vocabulary)]
    for _ in range(n_max):
        beam = lbs_reference_step(counted, context, beam, d, k)
    return beam, counted.calls


def lhbs_reference_decode(scorer, context: str, k: int, n_max: int, mode: str):
    """Lookbehind heuristic beam search written out slot by slot on
    Hypothesis objects, one scorer call per previous beam slot.

    Slot i pops the canonical best of the leftover pool of slot i-1 plus
    the children of the i-th previous hypothesis (one pop in raw mode,
    two in practical mode); a complete raw slot is its own sole child and
    is charged without asking the scorer. Structurally independent of the
    cursor-heap kernel in ``seqdec.decode``.

    Returns (DecodeResult, steps), one step per beam step run:
    ``{"prev": canonically sorted previous beam, "slots": [{"slot": i,
    "pool": sorted pool, "popped": popped hypotheses}, ...]}``.
    """
    counted = CountingScorer(scorer)
    vocab = scorer.vocabulary
    pops = 1 if mode == "raw" else 2
    steps = []

    def step(beam):
        prev = sorted(beam, key=Hypothesis.sort_key)
        leftover, popped, slots = [], [], []
        for i in range(k):
            pool = list(leftover)
            if i < len(prev):
                h = prev[i]
                if h.complete:
                    counted.charge(1)
                    pool.append(h)
                else:
                    row = counted.next_logprobs(context, h.tokens)
                    pool += [extend(h, tid, row[tid], vocab.eos_id)
                             for tid in vocab.extension_ids]
            if not pool:
                break
            pool = sorted(pool, key=Hypothesis.sort_key)
            taken, leftover = pool[:pops], pool[pops:]
            popped += taken
            slots.append({"slot": i, "pool": pool, "popped": taken})
        steps.append({"prev": prev, "slots": slots})
        return popped

    beam = [Hypothesis.initial(vocab)]
    if mode == "raw":
        for _ in range(n_max):
            beam = step(beam)
        finished = [h for h in beam if h.complete]
        best = min(finished or beam, key=Hypothesis.sort_key)
    else:
        finished = []
        for _ in range(n_max):
            popped = sorted(step(beam), key=Hypothesis.sort_key)
            beam = [h for h in popped if not h.complete][:k]
            finished = sorted(finished + [h for h in popped if h.complete],
                              key=Hypothesis.sort_key)[:k]
            if not beam:
                break
            if finished and max(h.cum_logprob for h in beam) <= finished[0].cum_logprob:
                break
        best = finished[0] if finished else min(beam, key=Hypothesis.sort_key)
    result = DecodeResult(best, tuple(sorted(finished, key=Hypothesis.sort_key)), tuple(beam),
                          counted.calls)
    return result, steps


def assert_lhbs_steps_match_reference(scorer, inp: DecodeInput, k: int, n_max: int,
                                      mode: str) -> list:
    """Assert that the LHBS decode at every ``max_len`` from 1 to ``n_max``
    returns the reference's result on every field, and return the
    reference's step records at ``n_max``. A beam after t steps does not
    depend on ``max_len``, so this pins the decoder to the reference one
    step at a time, and the records are the decoder's steps."""
    for t in range(1, n_max + 1):
        got = decode(scorer, inp, DecodeConfig(beam_width=k, max_len=t,
                                               strategy="lhbs", mode=mode))
        want, steps = lhbs_reference_decode(scorer, inp.context, k, t, mode)
        assert got == want, f"k {k} mode {mode} max_len {t}"
    return steps


def lookahead(scorer, context: str, h, d: int, f_max: float = NEG_INF) -> float:
    """The decoders' lookahead walk from ``h``: max(f_max, h's score + its
    best d-step continuation increment)."""
    return _lookahead(CountingScorer(scorer), context, h.tokens, h.cum_logprob, d, f_max)


def reference_eval_lookahead(scorer, context: str, h, d: int, f_max: float = NEG_INF) -> float:
    """Hypothesis-based branch-and-bound lookahead, kept as the reference
    for the float kernel in ``seqdec.decode``: it builds every child as a
    Hypothesis, sorts them canonically and recurses on the survivors."""
    if d < 0:
        raise ValueError("lookahead depth must be >= 0")
    if h.complete or d == 0:
        return max(h.cum_logprob, f_max)
    vocab = scorer.vocabulary
    row = scorer.next_logprobs(context, h.tokens)
    children = [extend(h, tid, row[tid], vocab.eos_id) for tid in vocab.extension_ids]
    children.sort(key=Hypothesis.sort_key)
    for child in children:
        if child.cum_logprob < f_max:
            break
        f_max = max(f_max, reference_eval_lookahead(scorer, context, child, d - 1, f_max))
    return f_max


def run_in_child(code: str):
    """The JSON that ``code`` prints, run by a fresh interpreter that
    imports this seqdec; a run over 30 s fails the test."""
    src = str(Path(seqdec.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)
