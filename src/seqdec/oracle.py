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

#: A sequence as (tokens, score).
_Scored = tuple[tuple[int, ...], float]


def _expand(scorer: Scorer, context: str, tokens: tuple[int, ...],
            depth: int) -> tuple[list[_Scored], list[_Scored]]:
    """Every continuation of ``tokens`` up to ``depth`` steps, level by
    level, as (tokens, score increment): the ones ending in EOS, in the
    order they are reached, and the incomplete ones ``depth`` steps on."""
    vocab = scorer.vocabulary
    complete = []
    frontier = [(tokens, 0.0)]
    for _ in range(depth):
        if not frontier:  # only EOS extends, so no sequence grows further
            break
        next_frontier = []
        for prefix, score in frontier:
            row = scorer.next_logprobs(context, prefix)
            complete.append((prefix + (vocab.eos_id,), score + row[vocab.eos_id]))
            for tid in vocab.core_ids:
                next_frontier.append((prefix + (tid,), score + row[tid]))
        frontier = next_frontier
    return complete, frontier


def enumerate_all(scorer: Scorer, inp: DecodeInput, n_max: int,
                  budget: int = DEFAULT_BUDGET) -> tuple[_Scored, ...]:
    """(tokens, score) of every complete sequence of at most n_max
    generated tokens, scored by direct left-to-right factorization."""
    if n_max < 1:  # [BOS, EOS] takes one step
        raise ValueError("max_len must be >= 1")
    vocab = scorer.vocabulary
    check_budget(len(vocab.extension_ids), n_max, budget)
    return tuple(_expand(scorer, inp.context, (vocab.bos_id,), n_max)[0])


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
    check_budget(len(scorer.vocabulary.extension_ids), d, budget)
    complete, frontier = _expand(scorer, inp.context, h.tokens, d)
    return max(inc for _, inc in complete + frontier)
