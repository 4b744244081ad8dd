"""Domain types and shared primitives used by every decoder.

All probabilities live in natural-log space as double-precision floats.
Zero probability is represented by ``float('-inf')``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

NEG_INF = float("-inf")

#: Default node budget for exhaustive search / enumeration guards.
DEFAULT_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Instance is too large for an exhaustive operation."""


class ScorerTransportError(Exception):
    """A remote scorer failed at the transport/protocol level."""


def check_budget(n_ext: int, depth: int, budget: int) -> None:
    """Refuse when ``n_ext ** depth`` exceeds ``budget``.

    The power is built one factor at a time and abandoned as soon as it
    passes the budget, so a huge depth is refused at once.
    """
    nodes = 1
    for _ in range(depth):
        if nodes > budget or n_ext == 1:
            break
        nodes *= n_ext
    if nodes > budget:
        raise BudgetExceededError(f"{n_ext}^{depth} exceeds node budget {budget}")


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory whose ``<s>`` is BOS and ``</s>`` is EOS, wherever
    they stand.

    Extension tokens (the set usable to grow a hypothesis) are every
    token except BOS; EOS is always a legal extension.
    """

    tokens: tuple[str, ...]
    #: The ids of ``<s>`` and ``</s>``.
    bos_id: int = field(init=False, repr=False)
    eos_id: int = field(init=False, repr=False)
    #: Token ids legal as hypothesis extensions (everything but BOS).
    extension_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: Extension ids excluding EOS.
    core_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: Token string -> token id.
    token_ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        for t in self.tokens:
            if type(t) is not str:
                raise ValueError(f"token {t!r} is not a string")
            # model files join tokens with spaces, so a token holding
            # whitespace would read as several tokens
            if t.split() != [t]:
                raise ValueError(f"token {t!r} is empty or contains whitespace")
        object.__setattr__(self, "token_ids", {t: i for i, t in enumerate(self.tokens)})
        if len(self.token_ids) != len(self.tokens):
            raise ValueError("token strings must be unique")
        for name, marker in (("bos_id", "<s>"), ("eos_id", "</s>")):
            if marker not in self.token_ids:
                raise ValueError(f"the tokens hold no {marker!r} marker")
            object.__setattr__(self, name, self.token_ids[marker])
        ext = tuple(i for i in range(len(self.tokens)) if i != self.bos_id)
        object.__setattr__(self, "extension_ids", ext)
        object.__setattr__(self, "core_ids", tuple(i for i in ext if i != self.eos_id))

    def extension_values(self, row: tuple[float, ...]) -> tuple[float, ...]:
        """A row's values at the extension ids: every value but BOS's."""
        return row[:self.bos_id] + row[self.bos_id + 1:]

    def to_strings(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in ids]


class Row(tuple):
    """A validated next-token row: log-probabilities indexed by token id
    over the whole vocabulary, -inf in the BOS slot. A tuple is read-only,
    so a row is shared between calls and read as it is. ``keys()`` runs
    over the extension ids, so ``dict(row)`` is ``{extension id:
    log-probability}``, a copy a caller may change.
    """

    _ranked: tuple[int, ...] | None = None

    @classmethod
    def of(cls, vocab: Vocabulary, lps: Iterable[float]) -> Row:
        """The row of ``lps``, given in extension-id order; a positive or
        NaN value raises ``ValueError``. Every row is made here."""
        values = list(lps)
        # sum() is NaN when any value is, which max() can miss
        if max(values) > 0.0 or math.isnan(sum(values)):
            raise ValueError("extension log-probabilities must be <= 0 and not NaN")
        values.insert(vocab.bos_id, NEG_INF)
        row = tuple.__new__(cls, values)
        row.vocabulary = vocab
        return row

    def keys(self) -> tuple[int, ...]:
        return self.vocabulary.extension_ids

    def ranked(self) -> tuple[int, ...]:
        """The extension ids by log-probability descending, then id,
        computed on the first call and kept with the row."""
        if self._ranked is None:
            # stable, so equal log-probabilities keep id order
            self._ranked = tuple(sorted(self.vocabulary.extension_ids,
                                        key=self.__getitem__, reverse=True))
        return self._ranked


@dataclass(frozen=True)
class Hypothesis:
    """A (partial) output sequence with its accumulated log-probability.

    ``cum_logprob`` is always the left-to-right sum of ``step_logprobs``
    in the same accumulation order, so the factorization identity holds
    bit-exactly.
    """

    tokens: tuple[int, ...]
    cum_logprob: float
    step_logprobs: tuple[float, ...]
    complete: bool

    @classmethod
    def initial(cls, vocab: Vocabulary) -> "Hypothesis":
        return cls((vocab.bos_id,), 0.0, (), False)

    def sort_key(self):
        """Canonical total order: score descending, tokens ascending."""
        return (-self.cum_logprob, self.tokens)

    @property
    def length(self) -> int:
        """Generated-token count (BOS excluded, EOS included)."""
        return len(self.tokens) - 1


def extend(h: Hypothesis, token: int, logprob: float, eos_id: int) -> Hypothesis:
    """Append ``token`` to ``h`` with the given extension log-probability."""
    if h.complete:
        raise ValueError("cannot extend a complete hypothesis")
    if logprob > 0.0:
        raise ValueError("extension log-probability must be <= 0")
    return Hypothesis(
        tokens=h.tokens + (token,),
        cum_logprob=h.cum_logprob + logprob,
        step_logprobs=h.step_logprobs + (logprob,),
        complete=(token == eos_id),
    )


def sum_left_to_right(values: Iterable[float]) -> float:
    """The sum in the order given; builtin ``sum()`` is compensated from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class DecodeInput:
    """One decoding problem: an id plus an opaque conditioning string."""

    id: str
    context: str = ""


VALID_STRATEGIES = ("greedy", "beam", "lbs", "lhbs", "exhaustive")
VALID_MODES = ("raw", "practical")


@dataclass(frozen=True)
class DecodeConfig:
    beam_width: int = 1
    lookahead_depth: int = 0
    max_len: int = 32
    strategy: str = "beam"
    mode: str = "practical"
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.lookahead_depth < 0:
            raise ValueError("lookahead_depth must be >= 0")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.strategy not in VALID_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.mode not in VALID_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class DecodeResult:
    best: Hypothesis
    finished: tuple[Hypothesis, ...]
    final_beam: tuple[Hypothesis, ...]
    scorer_calls: int
