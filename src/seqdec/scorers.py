"""Concrete scoring models behind the abstract next-token interface.

A scorer maps (context string, token-id prefix) to a row of natural-log
probabilities over every extension token (vocabulary minus BOS, plus EOS).
Rows must exponentiate and sum to 1 and be bit-identical across repeated
calls with the same arguments.
"""

from __future__ import annotations

import json
import math
from typing import Protocol, Sequence

from seqdec.core import NEG_INF, Vocabulary


class Scorer(Protocol):
    vocabulary: Vocabulary

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> dict[int, float]:
        ...


def _check_prefix(vocab: Vocabulary, prefix: Sequence[int]) -> None:
    # A trailing EOS is tolerated, so a finished prefix can still be
    # scored; its row means nothing, and the decoders do not ask for it.
    if not prefix or prefix[0] != vocab.bos_id:
        raise ValueError("prefix must begin with BOS")
    if vocab.eos_id in prefix[:-1]:
        raise ValueError("prefix must not contain an interior EOS")


def _log_row(vocab: Vocabulary, probs: dict[str, float]) -> dict[int, float]:
    row = {}
    for tid in vocab.extension_ids:
        p = probs.get(vocab.tokens[tid], 0.0)
        row[tid] = math.log(p) if p > 0.0 else NEG_INF
    return row


def context_key(vocab: Vocabulary, prefix: Sequence[int]) -> str:
    """Space-joined post-BOS prefix tokens; empty string right after BOS."""
    return " ".join(vocab.tokens[i] for i in prefix[1:])


class _JsonModel:
    """Saving and loading through a subclass's ``to_json``/``from_json``,
    with sorted keys so the bytes are reproducible."""

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, sort_keys=True)

    @classmethod
    def load(cls, path: str):
        with open(path, encoding="utf-8") as f:
            return cls.from_json(json.load(f))


class TableModel(_JsonModel):
    """Explicit lookup-table model, the workhorse test fixture.

    Rows are keyed by the space-joined post-BOS prefix; unlisted prefixes
    fall back to ``default_row``. The context string is ignored.
    """

    def __init__(self, vocabulary: Vocabulary, rows: dict[str, dict[str, float]],
                 default_row: dict[str, float]):
        self.vocabulary = vocabulary
        for key, row in list(rows.items()) + [("<default>", default_row)]:
            total = sum(row.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"row {key!r} sums to {total}, not 1")
            if any(p < 0.0 or p > 1.0 for p in row.values()):
                raise ValueError(f"row {key!r} has probabilities outside [0, 1]")
        self.rows = rows
        self.default_row = default_row
        self._log_rows = {k: _log_row(vocabulary, r) for k, r in rows.items()}
        self._log_default = _log_row(vocabulary, default_row)

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> dict[int, float]:
        _check_prefix(self.vocabulary, prefix)
        row = self._log_rows.get(context_key(self.vocabulary, prefix), self._log_default)
        return dict(row)

    def to_json(self) -> dict:
        return {
            "vocab": list(self.vocabulary.tokens),
            "rows": self.rows,
            "default": self.default_row,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TableModel":
        vocab = Vocabulary.from_tokens(obj["vocab"])
        return cls(vocab, obj["rows"], obj["default"])


class UniformModel:
    """Every extension token gets probability 1/|extension set|."""

    def __init__(self, vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        n = len(vocabulary.extension_ids)
        lp = math.log(1.0 / n)
        self._row = {tid: lp for tid in vocabulary.extension_ids}

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> dict[int, float]:
        _check_prefix(self.vocabulary, prefix)
        return dict(self._row)


class NgramModel(_JsonModel):
    """Add-alpha smoothed n-gram model over whitespace tokens.

    The conditioning history is the context string's tokens followed by
    the generated prefix (BOS-padded on the left), truncated to the last
    order-1 tokens. Conditional probability is
    (count(ctx, y) + alpha) / (count(ctx, .) + alpha * |extension set|).
    """

    def __init__(self, vocabulary: Vocabulary, order: int, alpha: float,
                 counts: dict[str, dict[str, int]]):
        if order < 1:
            raise ValueError("order must be >= 1")
        if alpha <= 0.0:
            raise ValueError("alpha must be > 0")
        self.vocabulary = vocabulary
        self.order = order
        self.alpha = alpha
        self.counts = counts

    def _history_key(self, context: str, prefix: Sequence[int]) -> str:
        bos = self.vocabulary.tokens[self.vocabulary.bos_id]
        history = context.split() + [self.vocabulary.tokens[i] for i in prefix[1:]]
        window = ([bos] * (self.order - 1) + history)[-(self.order - 1):] if self.order > 1 else []
        return " ".join(window)

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> dict[int, float]:
        _check_prefix(self.vocabulary, prefix)
        key = self._history_key(context, prefix)
        ctx_counts = self.counts.get(key, {})
        ext = self.vocabulary.extension_ids
        total = sum(ctx_counts.values()) + self.alpha * len(ext)
        row = {}
        for tid in ext:
            c = ctx_counts.get(self.vocabulary.tokens[tid], 0)
            row[tid] = math.log((c + self.alpha) / total)
        return row

    def to_json(self) -> dict:
        return {
            "vocab": list(self.vocabulary.tokens),
            "order": self.order,
            "alpha": self.alpha,
            "counts": self.counts,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NgramModel":
        vocab = Vocabulary.from_tokens(obj["vocab"])
        return cls(vocab, obj["order"], obj["alpha"], obj["counts"])


def train_ngram(corpus: Sequence[str], order: int, alpha: float,
                bos: str = "<s>", eos: str = "</s>") -> NgramModel:
    """Count-based training over whitespace-tokenized lines.

    Each line is BOS-padded on the left and EOS-appended. Deterministic:
    identical corpus bytes yield identical models.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    lines = [line.split() for line in corpus if line.strip()]
    if not lines:
        raise ValueError("empty corpus")
    seen = sorted({tok for line in lines for tok in line})
    if bos in seen or eos in seen:
        raise ValueError("corpus must not contain the BOS/EOS markers")
    vocab = Vocabulary.from_tokens([bos] + seen + [eos], bos=bos, eos=eos)
    counts: dict[str, dict[str, int]] = {}
    for line in lines:
        padded = [bos] * (order - 1) + line + [eos]
        for i in range(order - 1, len(padded)):
            key = " ".join(padded[i - order + 1:i])
            tok = padded[i]
            counts.setdefault(key, {})
            counts[key][tok] = counts[key].get(tok, 0) + 1
    counts = {k: dict(sorted(v.items())) for k, v in sorted(counts.items())}
    return NgramModel(vocab, order, alpha, counts)


class CountingScorer:
    """Transparent wrapper counting logical scorer calls: every
    next_logprobs invocation, plus every ``charge()``.

    Each decode builds its own wrapper, so ``calls`` is that decode's count.
    """

    def __init__(self, inner: Scorer):
        self.inner = inner
        self.vocabulary = inner.vocabulary
        self.calls = 0

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> dict[int, float]:
        self.calls += 1
        return self.inner.next_logprobs(context, prefix)

    def charge(self) -> None:
        """Count one call without asking the wrapped scorer, for a row the
        caller would discard (a finished raw-mode beam slot)."""
        self.calls += 1


def load_model(kind: str, path: str):
    if kind == "table":
        return TableModel.load(path)
    if kind == "ngram":
        return NgramModel.load(path)
    raise ValueError(f"unknown scorer kind {kind!r}")
