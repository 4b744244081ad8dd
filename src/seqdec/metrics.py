"""Model-intrinsic sequence metrics and cross-strategy comparison tables.

All quantities are in nats. Surprisal at BOS is fixed to 0 and kept out
of the series; the EOS step is included. A hypothesis's NLL is
``-h.cum_logprob`` and its length ``h.length``.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import astuple, dataclass, fields
from typing import Sequence

from seqdec.core import DecodeConfig, DecodeInput, Hypothesis, sum_left_to_right
from seqdec.decode import decode
from seqdec.scorers import Scorer


def surprisal_series(scorer: Scorer, inp: DecodeInput,
                     tokens: Sequence[int]) -> tuple[float, ...]:
    """Per-step surprisals of a token sequence, recomputed directly from
    the scorer, not from a decode's hypotheses."""
    if not tokens or tokens[0] != scorer.vocabulary.bos_id:
        raise ValueError("sequence must begin with BOS")
    values = []
    for i in range(1, len(tokens)):
        row = scorer.next_logprobs(inp.context, tokens[:i])
        values.append(-row[tokens[i]])
    return tuple(values)


def uid_error(values: Sequence[float]) -> float:
    """Population standard deviation of the per-step surprisals."""
    if not values:
        raise ValueError("empty surprisal series")
    if any(math.isinf(v) for v in values):
        return math.inf
    return statistics.pstdev(values)


def step_uid_error(h: Hypothesis) -> float:
    """UID error of the step surprisals ``h`` carries, as scored by the
    decode that built it."""
    return uid_error([-lp for lp in h.step_logprobs])


def perplexity(h: Hypothesis) -> float:
    """exp(NLL / length), inf when the NLL is."""
    nll = -h.cum_logprob
    return math.inf if math.isinf(nll) else math.exp(nll / h.length)


@dataclass(frozen=True)
class ComparisonRow:
    strategy: str
    k: int
    d: int
    mean_nll: float
    delta_nll_vs_beam: float
    mean_uid_error: float
    mean_length: float
    mean_ppl: float
    mean_calls: float


CSV_HEADER = [f.name for f in fields(ComparisonRow)]


def _mean(xs: Sequence[float]) -> float:
    return sum_left_to_right(xs) / len(xs)


def compare_strategies(scorer: Scorer, corpus: Sequence[DecodeInput],
                       configs: Sequence[DecodeConfig]) -> list[ComparisonRow]:
    """Decode the corpus under every config and aggregate per-sentence
    metrics by unweighted mean. NLL deltas are computed sentence-wise
    against the beam run with the same beam width, then averaged."""
    if not corpus:
        raise ValueError("empty corpus")
    ks = {c.beam_width for c in configs}
    beam_ks = {c.beam_width for c in configs if c.strategy == "beam"}
    missing = ks - beam_ks
    if missing:
        raise ValueError(f"no beam baseline for k in {sorted(missing)}")

    per_config: dict[DecodeConfig, list] = {}
    for cfg in configs:
        per_config[cfg] = [decode(scorer, inp, cfg) for inp in corpus]

    baseline_nll: dict[int, list[float]] = {}
    for cfg, results in per_config.items():
        if cfg.strategy == "beam":
            baseline_nll[cfg.beam_width] = [-r.best.cum_logprob for r in results]

    rows = []
    for cfg in configs:
        results = per_config[cfg]
        nlls = [-r.best.cum_logprob for r in results]
        base = baseline_nll[cfg.beam_width]
        rows.append(ComparisonRow(
            strategy=cfg.strategy,
            k=cfg.beam_width,
            d=cfg.lookahead_depth if cfg.strategy == "lbs" else 0,
            mean_nll=_mean(nlls),
            delta_nll_vs_beam=_mean([n - b for n, b in zip(nlls, base)]),
            mean_uid_error=_mean([step_uid_error(r.best) for r in results]),
            mean_length=_mean([r.best.length for r in results]),
            mean_ppl=_mean([perplexity(r.best) for r in results]),
            mean_calls=_mean([r.scorer_calls for r in results]),
        ))
    return rows


def rows_to_csv(rows: Sequence[ComparisonRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(map(astuple, rows))
    return buf.getvalue()
