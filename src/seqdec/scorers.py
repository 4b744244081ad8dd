"""Concrete scoring models behind the abstract next-token interface.

A scorer maps (context string, token-id prefix) to a row of natural-log
probabilities over every extension token (vocabulary minus BOS, plus EOS).
Rows must exponentiate and sum to 1 and be bit-identical across repeated
calls with the same arguments. A scorer whose calls cost a round trip
may also define ``next_logprobs_batch(context, prefixes)``, returning
one row per prefix, in order, each equal to its ``next_logprobs`` row.

The in-process models build each row once, as a ``Row`` checked where
it is made, and share it between calls. Any other scorer may return a
mapping from extension id to log-probability; ``CountingScorer``, which
every decoder reads rows through, checks it into a ``Row``.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Iterable, Mapping, Protocol, Sequence

from seqdec.core import NEG_INF, Row, Vocabulary


class Scorer(Protocol):
    """``next_logprobs_batch`` is optional; see the module docstring."""

    vocabulary: Vocabulary

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> Mapping[int, float] | Row:
        ...


def _check_prefix(vocab: Vocabulary, prefix: Sequence[int]) -> None:
    # A trailing EOS is tolerated, so a finished prefix can still be
    # scored; its row means nothing, and the decoders do not ask for it.
    if not prefix or prefix[0] != vocab.bos_id:
        raise ValueError("prefix must begin with BOS")
    eos = vocab.eos_id
    if eos in prefix and prefix.index(eos) != len(prefix) - 1:
        raise ValueError("prefix must not contain an interior EOS")


def _log_row(vocab: Vocabulary, probs: dict[str, float]) -> Row:
    ps = [probs.get(vocab.tokens[tid], 0.0) for tid in vocab.extension_ids]
    return Row.of(vocab, [math.log(p) if p > 0.0 else NEG_INF for p in ps])


def _check_extension_tokens(vocab: Vocabulary, what: str, tokens: Iterable[str]) -> None:
    # a token missing from the extension set would take its mass out of the row
    for t in tokens:
        if vocab.token_ids.get(t, vocab.bos_id) == vocab.bos_id:
            raise ValueError(f"{what} names {t!r}, not an extension token")


def _vocabulary(obj: dict) -> Vocabulary:
    tokens = obj["vocab"]
    if not isinstance(tokens, list):  # a string or an object would iterate as tokens
        raise ValueError("'vocab' must be a list of token strings")
    return Vocabulary(tokens)


def _is_probs(row) -> bool:
    # exact types: a JSON boolean is not a number
    return isinstance(row, dict) and all(type(p) in (int, float) for p in row.values())


class TableModel:
    """Explicit lookup-table model, the workhorse test fixture.

    Rows are keyed by the space-joined post-BOS prefix, looked up as its
    token ids; unlisted prefixes fall back to ``default_row``. The
    context string is ignored.
    """

    def __init__(self, vocabulary: Vocabulary, rows: dict[str, dict[str, float]],
                 default_row: dict[str, float]):
        if not (isinstance(rows, dict) and all(map(_is_probs, rows.values()))
                and _is_probs(default_row)):
            raise ValueError("'rows' must map prefixes to rows, and each row and "
                             "'default' must map tokens to numbers")
        self.vocabulary = vocabulary
        for key, row in list(rows.items()) + [("<default>", default_row)]:
            # a NaN fails both tests; the first compares an int of any size exactly
            if not all(0.0 <= p <= 1.0 for p in row.values()):
                raise ValueError(f"row {key!r} has probabilities outside [0, 1]")
            total = sum(row.values())
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(f"row {key!r} sums to {total}, not 1")
            _check_extension_tokens(vocabulary, f"row {key!r}", row)
        ids = vocabulary.token_ids
        keys: dict[tuple[int, ...], str] = {}  # prefix -> its row key
        for key in rows:
            for t in key.split():
                if t not in ids:
                    raise ValueError(f"row key {key!r} names {t!r}, not a vocabulary token")
            prefix = tuple(ids[t] for t in key.split())
            # no prefix reaches it: a lookup drops the BOS a prefix begins
            # with, and a prefix holds EOS only at its end
            if vocabulary.bos_id in prefix or vocabulary.eos_id in prefix[:-1]:
                raise ValueError(f"row key {key!r} names BOS or holds EOS before its end, "
                                 "so no prefix reaches it")
            first = keys.setdefault(prefix, key)
            if first != key:  # one row would be lost
                raise ValueError(f"row keys {first!r} and {key!r} name the same prefix")
        self.rows = rows
        self.default_row = default_row
        self._log_rows = {prefix: _log_row(vocabulary, rows[key]) for prefix, key in keys.items()}
        self._log_default = _log_row(vocabulary, default_row)

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> Row:
        _check_prefix(self.vocabulary, prefix)
        return self._log_rows.get(tuple(prefix[1:]), self._log_default)

    def to_json(self) -> dict:
        return {
            "vocab": list(self.vocabulary.tokens),
            "rows": self.rows,
            "default": self.default_row,
        }


def _check_order_alpha(order: int, alpha: float) -> None:
    # exact types: a JSON boolean is not a number
    if type(order) is not int or order < 1:
        raise ValueError("'order' must be an integer >= 1")
    if type(alpha) not in (int, float) or not 0.0 < alpha < math.inf:  # also rejects NaN
        raise ValueError("'alpha' must be a finite number > 0")


class NgramModel:
    """Add-alpha smoothed n-gram model over whitespace tokens.

    The conditioning history is the context string's tokens followed by
    the generated prefix (BOS-padded on the left), truncated to the last
    order-1 tokens. Conditional probability is
    (count(ctx, y) + alpha) / (count(ctx, .) + alpha * |extension set|).

    Count histories are looked up as token ids (a word outside the
    vocabulary stays a string), and a history's row is computed on its
    first call and kept, so memory grows with the count histories a
    decode visits, not with histories x vocabulary; every unseen history
    shares one row, built at construction. Within a row, every token the
    history never saw shares one float object.
    """

    def __init__(self, vocabulary: Vocabulary, order: int, alpha: float,
                 counts: dict[str, dict[str, int]]):
        _check_order_alpha(order, alpha)
        if not isinstance(counts, dict) or not all(
                isinstance(c, dict) and all(type(n) is int and n >= 0 for n in c.values())
                and sum(c.values()) <= sys.float_info.max for c in counts.values()):
            raise ValueError("counts must map each history to integer counts >= 0 "
                             "whose sum fits a float")
        # a row's total is its count sum plus alpha over the extension set;
        # each sum fits a float (compared exactly above), so adding cannot raise
        mass = alpha * len(vocabulary.extension_ids)
        sums = [sum(c.values()) for c in counts.values()]
        if not all(alpha / (n + mass) > 0.0 for n in [0, *sums]):  # 0: an unseen history
            raise ValueError(f"alpha {alpha!r} does not fit these counts: a history's count "
                             "sum + alpha * |extension set| must be a finite float, and "
                             "alpha over it must not round to 0")
        ids = vocabulary.token_ids
        histories: dict[tuple[int | str, ...], str] = {}  # key -> its history
        for history, ctx_counts in counts.items():
            _check_extension_tokens(vocabulary, f"history {history!r}", ctx_counts)
            words = history.split()
            if len(words) != order - 1:  # no lookup could reach it
                raise ValueError(f"history {history!r} must hold order - 1 = {order - 1} words")
            first = histories.setdefault(tuple(ids.get(w, w) for w in words), history)
            if first != history:  # one count table would be lost
                raise ValueError(f"histories {first!r} and {history!r} name the same tokens")
        self.vocabulary = vocabulary
        self.order = order
        self.alpha = alpha
        self.counts = counts
        self._counts = {key: counts[h] for key, h in histories.items()}
        self._rows: dict[tuple[int | str, ...], Row] = {}
        self._unseen = self._log_row({})

    def _log_row(self, ctx_counts: dict[str, int]) -> Row:
        tokens = self.vocabulary.tokens
        ext = self.vocabulary.extension_ids
        total = sum(ctx_counts.values()) + self.alpha * len(ext)
        unseen = math.log(self.alpha / total)
        cs = (ctx_counts.get(tokens[tid], 0) for tid in ext)
        return Row.of(self.vocabulary, [math.log((c + self.alpha) / total) if c else unseen
                                        for c in cs])

    def _history(self, context: str, prefix: Sequence[int]) -> tuple[int | str, ...]:
        """The last order-1 tokens of the BOS-padded history (context
        words, then the prefix after BOS) as token ids; a context word
        outside the vocabulary stays a string."""
        n = self.order - 1
        need = n - (len(prefix) - 1)  # tokens the prefix cannot supply
        if need <= 0:
            return tuple(prefix[len(prefix) - n:])
        words = context.split()[-need:]
        ids = self.vocabulary.token_ids
        return ((self.vocabulary.bos_id,) * (need - len(words))
                + tuple(ids.get(w, w) for w in words) + tuple(prefix[1:]))

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> Row:
        _check_prefix(self.vocabulary, prefix)
        key = self._history(context, prefix)
        row = self._rows.get(key)
        if row is None:
            ctx_counts = self._counts.get(key)
            if ctx_counts is None:
                return self._unseen
            row = self._rows[key] = self._log_row(ctx_counts)
        return row

    def to_json(self) -> dict:
        return {
            "vocab": list(self.vocabulary.tokens),
            "order": self.order,
            "alpha": self.alpha,
            "counts": self.counts,
        }


def train_ngram(corpus: Iterable[str], order: int, alpha: float) -> NgramModel:
    """Count-based training over whitespace-tokenized lines.

    Each line is BOS-padded (``<s>``) on the left and EOS-appended (``</s>``).
    The corpus is read once, one line at a time, so it may be a file or a generator.
    Deterministic: identical corpus bytes yield identical models.
    """
    _check_order_alpha(order, alpha)
    words: set[str] = set()
    counts: dict[str, dict[str, int]] = {}
    pad = ["<s>"] * (order - 1)
    for line in corpus:
        tokens = line.split()
        if not tokens:
            continue
        words.update(tokens)
        padded = pad + tokens + ["</s>"]
        for i in range(order - 1, len(padded)):
            ctx_counts = counts.setdefault(" ".join(padded[i - order + 1:i]), {})
            ctx_counts[padded[i]] = ctx_counts.get(padded[i], 0) + 1
    if not words:
        raise ValueError("empty corpus")
    if "<s>" in words or "</s>" in words:
        raise ValueError("corpus must not contain the BOS/EOS markers")
    vocab = Vocabulary(["<s>"] + sorted(words) + ["</s>"])
    return NgramModel(vocab, order, alpha, counts)


class CountingScorer:
    """Transparent wrapper counting logical scorer calls: every
    next_logprobs invocation, one per prefix of every
    ``next_logprobs_batch`` invocation, plus n per ``charge(n)``. It is
    the only writer of ``calls``.

    It is also the gate for rows: a ``Row`` passes as it is, any other row
    is checked into one by ``Row.of``. Each decode builds its own
    wrapper, so ``calls`` is that decode's count.
    """

    def __init__(self, inner: Scorer):
        self.inner = inner
        self.vocabulary = inner.vocabulary
        self.calls = 0
        self._inner_batch = getattr(inner, "next_logprobs_batch", None)

    def _row(self, row: Mapping[int, float]) -> Row:
        return Row.of(self.vocabulary, map(row.__getitem__, self.vocabulary.extension_ids))

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> Row:
        self.calls += 1
        row = self.inner.next_logprobs(context, prefix)
        return row if type(row) is Row else self._row(row)

    def next_logprobs_batch(self, context: str,
                            prefixes: Sequence[Sequence[int]]) -> list[Row]:
        """One row per prefix, from one call of the wrapped scorer's batch
        method if it has one, else from one ``next_logprobs`` call each."""
        self.calls += len(prefixes)
        if self._inner_batch is None:
            score = self.inner.next_logprobs
            return [row if type(row := score(context, p)) is Row else self._row(row)
                    for p in prefixes]
        rows = self._inner_batch(context, prefixes)
        if len(rows) != len(prefixes):
            raise ValueError(f"batch returned {len(rows)} rows for {len(prefixes)} prefixes")
        return [row if type(row) is Row else self._row(row) for row in rows]

    def charge(self, n: int) -> None:
        """Count n calls without asking the wrapped scorer, for rows the
        caller would discard (finished raw-mode beam slots)."""
        self.calls += n


def _load_object(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except RecursionError:
            raise ValueError("the file is nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise ValueError("the file does not hold a JSON object")
    return obj


def load_model(path: str) -> TableModel | NgramModel:
    """The model saved at ``path`` as its ``to_json()``: an ``NgramModel``
    when the object has ``"counts"``, else a ``TableModel``. A file of the
    wrong shape raises ``ValueError`` or ``KeyError``."""
    obj = _load_object(path)
    vocab = _vocabulary(obj)
    if "counts" in obj:
        return NgramModel(vocab, obj["order"], obj["alpha"], obj["counts"])
    return TableModel(vocab, obj["rows"], obj["default"])


def load_vocabulary(path: str) -> Vocabulary:
    """The vocabulary of the model file at ``path``: its ``"vocab"`` list."""
    return _vocabulary(_load_object(path))
