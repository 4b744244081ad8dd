"""The score-first search kernel: bit-exact agreement with the
Hypothesis-based reference, logical calls against model calls,
rejection of positive log-probabilities, and the memory a step and a
long decode trace."""

import hashlib
import json
import random
import tracemalloc

import pytest

from seqdec.core import NEG_INF, DecodeConfig, DecodeInput, Hypothesis, Vocabulary, extend
from seqdec.decode import _cursors, _popped, decode
from seqdec.scorers import CountingScorer, TableModel

from conftest import (
    PrefixRecorder,
    assert_lhbs_steps_match_reference,
    lbs_reference_decode,
    lookahead,
    random_table_model,
    reference_eval_lookahead,
)

SEEDS = range(200)
INP = DecodeInput("k0")


def raw(strategy, k, d=0, n_max=4):
    return DecodeConfig(beam_width=k, lookahead_depth=d, max_len=n_max,
                        strategy=strategy, mode="raw")


def random_start(model, rng):
    """The root, or a random incomplete prefix of one or two tokens, or a
    complete one."""
    vocab = model.vocabulary
    h = Hypothesis.initial(vocab)
    for _ in range(rng.randrange(3)):
        tid = rng.choice(vocab.extension_ids)
        h = extend(h, tid, model.next_logprobs("", h.tokens)[tid], vocab.eos_id)
        if h.complete:
            break
    return h


def random_f_max(h, rng):
    roll = rng.random()
    if roll < 0.3:
        return NEG_INF
    if roll < 0.4:
        return h.cum_logprob
    return h.cum_logprob - rng.uniform(0.0, 4.0)


def test_eval_lookahead_bit_exact_against_reference():
    for seed in SEEDS:
        rng = random.Random(seed)
        model = random_table_model(seed, 3 + seed % 3, 4, allow_zero=(seed % 4 == 0))
        for _ in range(3):
            h = random_start(model, rng)
            for d in (0, 1, 2, 3):
                f_max = random_f_max(h, rng)
                got_scorer, want_scorer = CountingScorer(model), CountingScorer(model)
                got = lookahead(got_scorer, "", h, d, f_max)
                want = reference_eval_lookahead(want_scorer, "", h, d, f_max)
                assert got.hex() == want.hex(), (seed, h.tokens, d, f_max)
                assert got_scorer.calls == want_scorer.calls, (seed, h.tokens, d, f_max)


#: Fewer finite candidates than k: only a is possible at the first step,
#: and b never is.
FEW_FINITE = TableModel(Vocabulary(["<s>", "a", "b", "</s>"]),
                        {"": {"a": 1.0}, "a": {"a": 0.5, "</s>": 0.5}},
                        {"a": 0.5, "</s>": 0.5})


def test_raw_beam_and_lbs_d0_match_reference():
    for seed in SEEDS:
        model = random_table_model(seed, 4, 4, allow_zero=(seed % 3 == 0))
        k = 1 + seed % 3
        ref_beam, _ = lbs_reference_decode(model, "", 0, k, 4)
        assert decode(model, INP, raw("beam", k)).final_beam == tuple(ref_beam), seed
        assert decode(model, INP, raw("lbs", k)).final_beam == tuple(ref_beam), seed
    # -inf candidates still fill the beam, in both modes
    for k in (2, 3, 4):
        ref_beam, _ = lbs_reference_decode(FEW_FINITE, "", 0, k, 3)
        assert decode(FEW_FINITE, INP, raw("beam", k, n_max=3)).final_beam == tuple(ref_beam)
        for mode in ("raw", "practical"):
            beam = decode(FEW_FINITE, INP, DecodeConfig(
                beam_width=k, max_len=3, strategy="beam", mode=mode))
            lbs = decode(FEW_FINITE, INP, DecodeConfig(
                beam_width=k, max_len=3, strategy="lbs", mode=mode))
            assert lbs == beam, (k, mode)


def test_raw_lbs_matches_reference():
    for seed in SEEDS:
        model = random_table_model(seed, 4, 4, allow_zero=(seed % 3 == 0))
        k = 1 + seed % 3
        for d in (1, 2):
            ref_beam, _ = lbs_reference_decode(model, "", d, k, 4)
            got = decode(model, INP, raw("lbs", k, d))
            assert got.final_beam == tuple(ref_beam), (seed, d)


class DyadicScorer:
    """Rows of exactly representable log-probabilities (multiples of
    -1/4), drawn per prefix from a seeded generator, so candidate scores
    tie often and exactly and the canonical tie-break on full token
    tuples decides the beam. Rows are not normalized: only the search
    order is under test."""

    def __init__(self, seed):
        self.vocabulary = Vocabulary(["<s>", "a", "b", "c", "</s>"])
        self.seed = seed

    def next_logprobs(self, context, prefix):
        rng = random.Random(f"{self.seed}/{tuple(prefix)}")
        return {tid: -0.25 * rng.randint(1, 4) for tid in self.vocabulary.extension_ids}


def test_exact_ties_follow_the_canonical_order():
    for seed in range(100):
        scorer = DyadicScorer(seed)
        k = 2 + seed % 3
        for d in (0, 1, 2):
            ref_beam, _ = lbs_reference_decode(scorer, "", d, k, 5)
            got = decode(scorer, INP, raw("lbs", k, d, n_max=5))
            assert got.final_beam == tuple(ref_beam), (seed, d)
        assert decode(scorer, INP, raw("beam", k, n_max=5)).final_beam == \
            decode(scorer, INP, raw("lbs", k, n_max=5)).final_beam, seed


def test_scores_that_round_together_follow_token_order():
    # at -2**53 doubles are 2 apart, so the distinct log-probabilities of
    # a (log 0.4) and b (log 0.5) add up to one score: the row ranks b
    # first, the canonical order puts a first
    vocab = Vocabulary(["<s>", "a", "b", "</s>"])
    model = TableModel(vocab, {}, {"a": 0.4, "b": 0.5, "</s>": 0.1})
    h = Hypothesis((vocab.bos_id,), -2.0**53, (), False)
    row = model.next_logprobs("", h.tokens)
    a, b = vocab.token_ids["a"], vocab.token_ids["b"]
    assert row[b] > row[a] and h.cum_logprob + row[a] == h.cum_logprob + row[b]
    for d in (1, 2, 3):
        got, want = CountingScorer(PrefixRecorder(model)), CountingScorer(PrefixRecorder(model))
        assert (lookahead(got, "", h, d).hex()
                == reference_eval_lookahead(want, "", h, d).hex())
        assert got.inner.asked == want.inner.asked, d
        assert got.calls == want.calls
    nodes = list(_popped(_cursors(CountingScorer(model), "", [(-h.cum_logprob, h.tokens, ())])))
    full = sorted((-(h.cum_logprob + row[tid]), h.tokens + (tid,)) for tid in vocab.extension_ids)
    assert [(neg, tokens) for neg, tokens, _ in nodes] == full
    assert [tokens[-1] for _, tokens, _ in nodes] == [a, b, vocab.eos_id]


def _traced_peak(decode):
    """decode()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return decode(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_growing_raw_beam_holds_its_nodes_not_their_ancestors():
    # a node that kept its parent would keep every ancestor's token tuple,
    # about 4,000^2 / 2 ids (a 62 MB peak); the beam's own nodes trace 0.2 MB
    vocab = Vocabulary(["<s>", "a", "</s>"])
    model = TableModel(vocab, {}, {"a": 0.5, "</s>": 0.5})
    r, peak = _traced_peak(lambda: decode(model, INP, raw("beam", 1, n_max=4000)))
    assert r.best.tokens == (vocab.bos_id,) + (vocab.token_ids["a"],) * 4000
    assert r.scorer_calls == 4000 and not r.finished
    assert peak < 2_000_000


@pytest.mark.parametrize("strategy,d", [("beam", 0), ("lbs", 1), ("lhbs", 0)])
def test_a_step_pays_for_the_candidates_it_reads(strategy, d):
    # 10^5 tokens, the one ranked r (from 1) with probability falling as
    # 1 / r^2, EOS the least likely: a step that listed and sorted all
    # k x |V| candidates traced 44 MB; the few a strategy reads off the
    # kept row ranking trace 5 kB
    words = [f"w{i}" for i in range(10**5 - 2)]
    vocab = Vocabulary(["<s>", *words, "</s>"])
    weights = [1 / r**2 for r in range(1, 10**5)]
    total = sum(weights)
    model = TableModel(vocab, {}, {t: w / total for t, w in zip([*words, "</s>"], weights)})
    model.next_logprobs("", (vocab.bos_id,)).ranked()  # every prefix shares the default row
    r, peak = _traced_peak(lambda: decode(model, INP, raw(strategy, 4, d, n_max=3)))
    assert r.best.tokens == (vocab.bos_id,) + (vocab.token_ids["w0"],) * 3
    assert peak < 1_000_000


class ModelCalls:
    """Counts the calls that reach the model."""

    def __init__(self, inner):
        self.inner = inner
        self.vocabulary = inner.vocabulary
        self.calls = 0

    def next_logprobs(self, context, prefix):
        self.calls += 1
        return self.inner.next_logprobs(context, prefix)


#: scorer_calls of raw beam k=3, lbs k=2 d=1, lbs k=2 d=2 and lhbs k=3
#: (max_len 5) on random_table_model(seed, 4, 4), as recorded before
#: finished slots stopped reaching the model.
LOGICAL_CALLS = {
    0: (13, 18, 24, 13),
    1: (13, 13, 14, 13),
    2: (13, 21, 34, 13),
    3: (13, 13, 14, 13),
    4: (13, 11, 12, 13),
    5: (13, 13, 14, 13),
}
RAW_RUNS = (("beam", 3, 0), ("lbs", 2, 1), ("lbs", 2, 2), ("lhbs", 3, 0))


def test_finished_raw_slots_count_without_asking_the_model():
    for seed, expected in LOGICAL_CALLS.items():
        model = random_table_model(seed, 4, 4, allow_zero=(seed % 2 == 1))
        for (strategy, k, d), calls in zip(RAW_RUNS, expected):
            proxy = ModelCalls(model)
            result = decode(proxy, INP, raw(strategy, k, d, n_max=5))
            assert result.scorer_calls == calls, (seed, strategy, d)
            assert proxy.calls < result.scorer_calls, (seed, strategy, d)


class PositiveRow:
    """A malformed scorer: once the prefix holds ``from_length`` tokens
    (BOS included), its rows put log-probability 0.5 on EOS."""

    def __init__(self, from_length=1):
        self.vocabulary = Vocabulary(["<s>", "a", "b", "</s>"])
        self.from_length = from_length

    def next_logprobs(self, context, prefix):
        eos = 0.5 if len(prefix) >= self.from_length else -2.0
        return {1: -1.0, 2: -1.5, 3: eos}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_positive_row_rejected_by_lookahead(d):
    scorer = PositiveRow()
    h = Hypothesis.initial(scorer.vocabulary)
    with pytest.raises(ValueError, match="must be <= 0"):
        lookahead(scorer, "", h, d)
    with pytest.raises(ValueError, match="must be <= 0"):
        reference_eval_lookahead(scorer, "", h, d)


@pytest.mark.parametrize("strategy,mode,d", [
    ("beam", "raw", 0),
    ("beam", "practical", 0),
    ("lbs", "raw", 0),
    ("lbs", "raw", 2),
    ("lbs", "practical", 1),
])
def test_positive_row_rejected_by_ranking(strategy, mode, d):
    config = DecodeConfig(beam_width=2, lookahead_depth=d, max_len=3,
                          strategy=strategy, mode=mode)
    with pytest.raises(ValueError, match="must be <= 0"):
        decode(PositiveRow(), INP, config)


@pytest.mark.parametrize("d", [1, 2])
def test_positive_row_rejected_inside_lbs_lookahead(d):
    # the first step's row is valid; only rows the lookahead asks for are not
    config = DecodeConfig(beam_width=2, lookahead_depth=d, max_len=1,
                          strategy="lbs", mode="raw")
    with pytest.raises(ValueError, match="must be <= 0"):
        decode(PositiveRow(from_length=2), INP, config)
    assert decode(PositiveRow(from_length=2), INP, raw("beam", 2, n_max=1))


def _hyp(h):
    return [list(h.tokens), h.cum_logprob.hex(), [lp.hex() for lp in h.step_logprobs],
            h.complete]


def _fields(result):
    return [_hyp(result.best), [_hyp(h) for h in result.finished],
            [_hyp(h) for h in result.final_beam], result.scorer_calls]


def _steps(steps):
    return [[[_hyp(h) for h in step["prev"]],
             [[rec["slot"], [_hyp(h) for h in rec["pool"]], [_hyp(h) for h in rec["popped"]]]
              for rec in step["slots"]]]
            for step in steps]


#: SHA-256 over the LHBS (raw and practical, k in 1, 2, 3, 5, with each
#: step's slot records) and exhaustive outputs below, recorded before LHBS
#: moved onto the ranked-entry kernel and exhaustive search onto an
#: explicit stack. The slot records now come from the reference LHBS,
#: which the LHBS decode equals at every ``max_len``.
PINNED_LHBS_EXHAUSTIVE = "4d11a7d772e755577ca83817cb1ce202e9a8bbe2e0fd50bafbc4192faf83e39c"


def test_lhbs_and_exhaustive_outputs_match_the_recorded_digest():
    digest = hashlib.sha256()
    for seed in SEEDS:
        model = random_table_model(seed, 3 + seed % 3, 4, allow_zero=(seed % 4 == 0))
        for mode in ("raw", "practical"):
            for k in (1, 2, 3, 5):
                steps = assert_lhbs_steps_match_reference(model, INP, k, 5, mode)
                result = decode(model, INP, DecodeConfig(
                    beam_width=k, max_len=5, strategy="lhbs", mode=mode))
                record = [seed, mode, k, _fields(result), _steps(steps)]
                digest.update(json.dumps(record).encode())
        result = decode(model, INP, DecodeConfig(max_len=5, strategy="exhaustive"))
        digest.update(json.dumps([seed, _fields(result)]).encode())
    assert digest.hexdigest() == PINNED_LHBS_EXHAUSTIVE
