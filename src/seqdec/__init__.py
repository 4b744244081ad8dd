"""Sequence decoding engine: beam search, lookahead beam search (LBS),
lookbehind heuristic beam search (LHBS), exhaustive MAP search, and
brute-force oracles over an abstract autoregressive scoring interface."""

from seqdec.core import (
    DecodeConfig,
    DecodeInput,
    DecodeResult,
    Hypothesis,
    Vocabulary,
    extend,
)
from seqdec.decode import decode
from seqdec.scorers import CountingScorer, NgramModel, TableModel

__all__ = [
    "Vocabulary",
    "Hypothesis",
    "DecodeInput",
    "DecodeConfig",
    "DecodeResult",
    "extend",
    "decode",
    "TableModel",
    "NgramModel",
    "CountingScorer",
]

__version__ = "0.1.0"
