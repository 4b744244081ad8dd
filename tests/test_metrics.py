import math
import statistics

import pytest

from seqdec.core import VALID_STRATEGIES, DecodeConfig, DecodeInput
from seqdec.decode import decode
from seqdec.metrics import (
    CSV_HEADER,
    compare_strategies,
    perplexity,
    rows_to_csv,
    step_uid_error,
    surprisal_series,
    uid_error,
)
from seqdec.oracle import brute_force_map, sum_left_to_right

from conftest import one_hot_model, random_table_model


class TestSurprisalSeries:
    def test_tiny3_best_path(self, tiny3, inp):
        series = surprisal_series(tiny3, inp, (0, 1, 3))
        assert series == pytest.approx((0.6931, 0.3567), abs=1e-4)

    def test_one_hot_chain_zero_surprisal(self, inp):
        model = one_hot_model("a")
        series = surprisal_series(model, inp, (0, 1, 1, 1))
        assert series == (0.0, 0.0, 0.0)
        assert uid_error(series) == 0.0

    def test_sum_equals_nll_of_decode(self, inp):
        for seed in range(10):
            model = random_table_model(seed, 4, 4)
            cfg = DecodeConfig(beam_width=2, max_len=4, strategy="beam", mode="practical")
            r = decode(model, inp, cfg)
            series = surprisal_series(model, inp, r.best.tokens)
            assert sum_left_to_right(series) == -r.best.cum_logprob

    def test_requires_bos(self, tiny3, inp):
        with pytest.raises(ValueError):
            surprisal_series(tiny3, inp, (1, 3))


class TestUidError:
    def test_hand_value(self):
        assert uid_error((0.6931, 0.3567)) == pytest.approx(0.1682, abs=1e-4)

    def test_constant_series(self):
        assert uid_error((0.5, 0.5, 0.5)) == 0.0

    def test_single_element(self):
        assert uid_error((1.3,)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uid_error(())

    def test_infinite_surprisal(self):
        assert uid_error((1.0, math.inf)) == math.inf

    def test_eos_switch(self):
        # the EOS step counts; a caller leaves it out by slicing
        series = (0.5, 0.5, 3.0)
        assert uid_error(series[:-1]) == 0.0
        assert uid_error(series) > 0.0


class TestMetricsRecord:
    def test_identities(self, inp):
        for seed in range(10):
            model = random_table_model(seed, 4, 4)
            for strategy in ("greedy", "beam", "lhbs"):
                cfg = DecodeConfig(beam_width=2, max_len=4, strategy=strategy,
                                   mode="practical")
                best = decode(model, inp, cfg).best
                nll = -best.cum_logprob
                assert nll == sum_left_to_right(-lp for lp in best.step_logprobs)
                assert perplexity(best) == math.exp(nll / best.length)
                assert best.length == len(best.tokens) - 1

    def test_perplexity_inf_when_nll_is(self, inp):
        # the one-hot model's practical beam ends in EOS at -inf
        best = decode(one_hot_model(), inp, DecodeConfig(beam_width=2, max_len=4)).best
        assert best.cum_logprob == -math.inf
        assert perplexity(best) == math.inf
        assert step_uid_error(best) == math.inf

    def test_a_decode_computes_no_uid_error(self, inp, monkeypatch):
        def refuse(data):
            raise AssertionError("statistics.pstdev called by a decode")
        monkeypatch.setattr(statistics, "pstdev", refuse)
        model = random_table_model(0, 4, 4)
        for strategy in VALID_STRATEGIES:
            for mode in ("raw", "practical"):
                decode(model, inp, DecodeConfig(beam_width=2, lookahead_depth=1, max_len=4,
                                                strategy=strategy, mode=mode))

    def test_uid_error_read_equals_metrics_uid_error_bit_exact(self, inp):
        # the one-hot model's practical decodes end in EOS at -inf: UID inf
        models = [random_table_model(seed, 4, 4, allow_zero=(seed % 2 == 1))
                  for seed in range(20)]
        for model in models + [one_hot_model()]:
            for strategy in VALID_STRATEGIES:
                for mode in ("raw", "practical"):
                    r = decode(model, inp, DecodeConfig(beam_width=2, lookahead_depth=1,
                                                        max_len=4, strategy=strategy, mode=mode))
                    want = uid_error(surprisal_series(model, inp, r.best.tokens))
                    assert step_uid_error(r.best).hex() == want.hex(), (strategy, mode)


class TestCompareStrategies:
    def corpus(self, n=6):
        return [DecodeInput(f"s{i}", "") for i in range(n)]

    def test_single_beam_row_zero_delta(self, tiny3):
        cfg = DecodeConfig(beam_width=2, max_len=3, strategy="beam", mode="raw")
        rows = compare_strategies(tiny3, self.corpus(), [cfg])
        assert len(rows) == 1
        assert rows[0].delta_nll_vs_beam == 0.0
        assert rows[0].strategy == "beam"

    def test_lbs_improves_or_matches_beam(self, inp):
        # deeper search can only lower the candidate-pool optimum on average
        deltas = []
        for seed in range(20):
            model = random_table_model(seed, 4, 4)
            beam_cfg = DecodeConfig(beam_width=2, max_len=4, strategy="beam", mode="raw")
            lbs_cfg = DecodeConfig(beam_width=2, lookahead_depth=1, max_len=4,
                                   strategy="lbs", mode="raw")
            rows = compare_strategies(model, [DecodeInput("x")], [beam_cfg, lbs_cfg])
            deltas.append(rows[1].delta_nll_vs_beam)
        assert sum(deltas) / len(deltas) <= 0.0

    def test_missing_baseline_rejected(self, tiny3):
        lbs_cfg = DecodeConfig(beam_width=2, lookahead_depth=1, max_len=3,
                               strategy="lbs", mode="raw")
        with pytest.raises(ValueError):
            compare_strategies(tiny3, self.corpus(), [lbs_cfg])

    def test_empty_corpus_rejected(self, tiny3):
        cfg = DecodeConfig(beam_width=2, max_len=3, strategy="beam")
        with pytest.raises(ValueError):
            compare_strategies(tiny3, [], [cfg])

    def test_csv_shape(self, tiny3):
        configs = [
            DecodeConfig(beam_width=k, lookahead_depth=d, max_len=3,
                         strategy=s, mode="raw")
            for k in (2, 4)
            for s, d in (("beam", 0), ("lbs", 1), ("lhbs", 0))
        ]
        rows = compare_strategies(tiny3, self.corpus(), configs)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 7


class TestSearchErrorBound:
    def test_exhaustive_nll_lower_bounds_strategies(self, inp):
        for seed in range(10):
            model = random_table_model(seed, 3, 4)
            bf = brute_force_map(model, inp, 4)
            for strategy in ("beam", "lbs", "lhbs"):
                cfg = DecodeConfig(beam_width=2, lookahead_depth=1, max_len=4,
                                   strategy=strategy, mode="raw")
                r = decode(model, inp, cfg)
                if r.best.complete:
                    assert -bf.cum_logprob <= -r.best.cum_logprob + 1e-12
