"""Brute-force reference implementations.

These exist only to verify the optimized decoders and are written as
plain breadth-first enumeration, deliberately unlike the search code.
"""

from __future__ import annotations

from seqdec.core import (
    DEFAULT_BUDGET,
    DecodeInput,
    Hypothesis,
    check_budget,
    sum_left_to_right,
)
from seqdec.scorers import Scorer


def enumerate_all(scorer: Scorer, inp: DecodeInput, n_max: int,
                  budget: int = DEFAULT_BUDGET) -> tuple[tuple[tuple[int, ...], float], ...]:
    """(tokens, score) of every complete sequence of at most n_max
    generated tokens, scored by direct left-to-right factorization."""
    vocab = scorer.vocabulary
    check_budget(len(vocab.extension_ids), n_max, budget)
    complete: list[tuple[tuple[int, ...], float]] = []
    # frontier holds incomplete prefixes as (tokens, cum_logprob)
    frontier: list[tuple[tuple[int, ...], float]] = [((vocab.bos_id,), 0.0)]
    for _ in range(n_max):
        next_frontier = []
        for tokens, score in frontier:
            row = scorer.next_logprobs(inp.context, tokens)
            complete.append((tokens + (vocab.eos_id,), score + row[vocab.eos_id]))
            for tid in vocab.core_ids:
                next_frontier.append((tokens + (tid,), score + row[tid]))
        frontier = next_frontier
    return tuple(complete)


def brute_force_map(scorer: Scorer, inp: DecodeInput, n_max: int,
                    budget: int = DEFAULT_BUDGET) -> Hypothesis:
    """Globally optimal complete hypothesis by full enumeration."""
    tokens, score = min(enumerate_all(scorer, inp, n_max, budget),
                        key=lambda ts: (-ts[1], ts[0]))
    # rebuild per-step log-probabilities by re-scoring the winning path
    steps = []
    for i in range(1, len(tokens)):
        row = scorer.next_logprobs(inp.context, tokens[:i])
        steps.append(row[tokens[i]])
    return Hypothesis(tokens=tokens, cum_logprob=sum_left_to_right(steps),
                      step_logprobs=tuple(steps), complete=True)


def breadth_first_lookahead(scorer: Scorer, inp: DecodeInput, h: Hypothesis,
                            d: int, budget: int = DEFAULT_BUDGET) -> float:
    """Exact best d-step continuation increment of h, by exhaustive
    level-by-level expansion. EOS absorbs: continuations reaching EOS
    early contribute nothing afterwards. Returns 0 for d = 0 or for a
    complete hypothesis."""
    if d < 0:
        raise ValueError("depth must be >= 0")
    if d == 0 or h.complete:
        return 0.0
    vocab = scorer.vocabulary
    check_budget(len(vocab.extension_ids), d, budget)
    best = None
    frontier: list[tuple[tuple[int, ...], float]] = [(h.tokens, 0.0)]
    for _ in range(d):
        next_frontier = []
        for tokens, inc in frontier:
            row = scorer.next_logprobs(inp.context, tokens)
            eos_inc = inc + row[vocab.eos_id]
            if best is None or eos_inc > best:
                best = eos_inc
            for tid in vocab.core_ids:
                next_frontier.append((tokens + (tid,), inc + row[tid]))
        frontier = next_frontier
    for _, inc in frontier:
        if best is None or inc > best:
            best = inc
    return best
