"""Workload definitions for the seqdec benchmark: models, decode
configurations, seeded input streams and the output digest.

Imported by ``run.py`` (the client) and ``server_child.py`` (the remote
scorer process), so both build bit-identical models.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "corpus.txt"


def import_seqdec():
    """Import seqdec from this checkout's ``src/`` and nowhere else.

    Raises ``SystemExit`` when the checkout holds no seqdec sources, so
    the benchmark never measures an installed copy by mistake.
    """
    src = ROOT / "src"
    if not (src / "seqdec" / "__init__.py").is_file() or not CORPUS.is_file():
        raise SystemExit(f"seqdec sources not found under {ROOT}: run from a full checkout")
    sys.path.insert(0, str(src))
    import seqdec
    if Path(seqdec.__file__).resolve().parent != src / "seqdec":
        raise SystemExit(f"imported seqdec from {seqdec.__file__}, not from {src}")
    return seqdec


import_seqdec()

from seqdec.core import DecodeConfig, DecodeInput  # noqa: E402
from seqdec.scorers import train_ngram  # noqa: E402

#: The synthetic trigram text and every canary input use fixed seeds, so
#: the model and the recorded canary digests do not depend on --seed.
SYNTH_SEED = 20230826
CANARY_SEED = "canary"

SYNTH_WORDS = [f"w{i:02d}" for i in range(40)]
SYNTH_TERMINAL = set(SYNTH_WORDS[32:])
SYNTH_WEIGHTS = (32, 16, 8, 4, 2, 1)


def _synth_successors() -> dict[str, list[str]]:
    rng = random.Random(SYNTH_SEED)
    return {w: rng.sample(SYNTH_WORDS, len(SYNTH_WEIGHTS)) for w in SYNTH_WORDS}


def _synth_walk(rng: random.Random, succ: dict[str, list[str]], length: int | None) -> list[str]:
    """A walk of the synthetic Markov chain. With ``length`` None the walk
    ends after a terminal word with probability 3/4 (at most 20 words)."""
    w = rng.choice(SYNTH_WORDS[:32])
    out = [w]
    while len(out) < (length or 20):
        if length is None and w in SYNTH_TERMINAL and rng.random() < 0.75:
            break
        w = rng.choices(succ[w], weights=SYNTH_WEIGHTS)[0]
        out.append(w)
    return out


def build_model(kind: str):
    """The workload's in-process scorer: ``bigram`` or ``trigram``."""
    if kind == "bigram":
        lines = CORPUS.read_text(encoding="utf-8").splitlines()
        return train_ngram(lines, order=2, alpha=0.5)
    if kind == "trigram":
        rng = random.Random(SYNTH_SEED)
        succ = _synth_successors()
        lines = [" ".join(_synth_walk(rng, succ, None)) for _ in range(3000)]
        return train_ngram(lines, order=3, alpha=0.05)
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    configs: tuple[DecodeConfig, ...]
    remote: bool


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "raw-lookahead-trigram", "trigram",
            (DecodeConfig(beam_width=4, lookahead_depth=2, max_len=12, strategy="lbs", mode="raw"),
             DecodeConfig(beam_width=4, max_len=12, strategy="beam", mode="raw")),
            False),
        Workload(
            "remote-bigram", "bigram",
            (DecodeConfig(beam_width=8, max_len=16, strategy="beam", mode="practical"),),
            True),
    )
}


def inputs(workload: Workload, seed, vocabulary):
    """Endless stream of DecodeInputs with pairwise distinct contexts.

    Bigram contexts are 7 to 10 corpus words: the first 6 spell a seeded
    permutation of the decode index in base 10, so the first million
    contexts are distinct without remembering them; the rest are drawn
    at random. Trigram contexts are the first 6 words of lines drawn
    like the training text (shorter lines and repeats are skipped), so
    they follow the distribution the model was trained on.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    i = 0
    if workload.model == "trigram":
        succ = _synth_successors()
        seen: set[str] = set()
        while True:
            walk = _synth_walk(rng, succ, None)
            context = " ".join(walk[:6])
            if len(walk) >= 6 and context not in seen:
                seen.add(context)
                yield DecodeInput(str(i), context)
                i += 1
    words = [t for j, t in enumerate(vocabulary.tokens)
             if j not in (vocabulary.bos_id, vocabulary.eos_id)]
    base, digits = len(words), 6
    span = base ** digits
    stride = rng.randrange(1, span)
    while math.gcd(stride, span) != 1:  # i -> stride * i + offset is then a bijection
        stride = rng.randrange(1, span)
    offset = rng.randrange(span)
    while True:
        code = (stride * i + offset) % span
        head = [words[(code // base ** d) % base] for d in range(digits)]
        tail = [rng.choice(words) for _ in range(rng.randint(1, 4))]
        yield DecodeInput(str(i), " ".join(head + tail))
        i += 1


def _hyp_text(h) -> str:
    steps = ",".join(x.hex() for x in h.step_logprobs)
    return f"{' '.join(map(str, h.tokens))}|{h.cum_logprob.hex()}|{steps}|{int(h.complete)}"


def result_digest(result) -> bytes:
    """SHA-256 over ``best``, ``finished``, ``final_beam`` and
    ``scorer_calls``; floats are written exactly, as hex."""
    text = "\n".join([
        _hyp_text(result.best),
        ";".join(map(_hyp_text, result.finished)),
        ";".join(map(_hyp_text, result.final_beam)),
        str(result.scorer_calls),
    ])
    return hashlib.sha256(text.encode("ascii")).digest()
