import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from seqdec.core import (
    NEG_INF,
    VALID_MODES,
    VALID_STRATEGIES,
    BudgetExceededError,
    DecodeConfig,
    DecodeInput,
    Hypothesis,
    Vocabulary,
    extend,
)
from seqdec.decode import decode
from seqdec.oracle import breadth_first_lookahead, brute_force_map, enumerate_all
from seqdec.scorers import CountingScorer, TableModel

from conftest import (
    assert_lhbs_steps_match_reference,
    lbs_reference_decode,
    lookahead,
    one_hot_model,
    random_table_model,
    run_in_child,
)


def cfg(strategy, k=1, d=0, n_max=3, mode="raw", **kw):
    return DecodeConfig(beam_width=k, lookahead_depth=d, max_len=n_max,
                        strategy=strategy, mode=mode, **kw)


def strs(vocab, hyp):
    return vocab.to_strings(hyp.tokens)


class TestGreedy:
    def test_tiny3(self, tiny3, inp):
        r = decode(tiny3, inp, cfg("greedy"))
        assert strs(tiny3.vocabulary, r.best) == ["<s>", "a", "</s>"]
        assert r.best.cum_logprob == pytest.approx(math.log(0.35), abs=1e-12)

    def test_forced_path_hits_max_len(self, inp):
        model = one_hot_model("a")
        r = decode(model, inp, cfg("greedy", n_max=3))
        assert strs(model.vocabulary, r.best) == ["<s>", "a", "a", "a"]
        assert r.best.cum_logprob == 0.0
        assert not r.best.complete

    def test_immediate_eos(self, inp):
        model = one_hot_model("</s>")
        r = decode(model, inp, cfg("greedy"))
        assert strs(model.vocabulary, r.best) == ["<s>", "</s>"]
        assert r.best.cum_logprob == 0.0
        assert r.scorer_calls == 1


class TestBeam:
    def test_tiny3_practical_k2(self, tiny3, inp):
        r = decode(tiny3, inp, cfg("beam", k=2, mode="practical"))
        vocab = tiny3.vocabulary
        assert strs(vocab, r.best) == ["<s>", "a", "</s>"]
        assert r.best.cum_logprob == pytest.approx(math.log(0.35), abs=1e-4)
        # step-2 surviving beam after the early stop
        survivors = {tuple(strs(vocab, h)) for h in r.final_beam}
        assert survivors == {("<s>", "b", "a"), ("<s>", "a", "b")}
        scores = sorted((h.cum_logprob for h in r.final_beam), reverse=True)
        assert scores[0] == pytest.approx(math.log(0.28), abs=1e-4)
        assert scores[1] == pytest.approx(math.log(0.10), abs=1e-4)

    def test_tiny3_k1_matches_greedy(self, tiny3, inp):
        r = decode(tiny3, inp, cfg("beam", k=1, mode="practical"))
        assert strs(tiny3.vocabulary, r.best) == ["<s>", "a", "</s>"]

    def test_wide_raw_beam_equals_exhaustive(self, inp):
        for seed in range(10):
            model = random_table_model(seed, 3, 4)
            wide = decode(model, inp, cfg("beam", k=27, n_max=4, mode="raw"))
            exact = decode(model, inp, cfg("exhaustive", n_max=4))
            assert wide.best.tokens == exact.best.tokens

    def test_raw_runs_full_n_max(self, tiny3, inp):
        r = decode(tiny3, inp, cfg("beam", k=2, n_max=3, mode="raw"))
        # complete hypotheses are carried forward and win at the end
        assert r.best.complete
        assert r.best.cum_logprob == pytest.approx(math.log(0.35), abs=1e-12)

    def test_deterministic(self, inp):
        model = random_table_model(5, 4, 4)
        a = decode(model, inp, cfg("beam", k=3, n_max=4, mode="practical"))
        b = decode(model, inp, cfg("beam", k=3, n_max=4, mode="practical"))
        assert a.best == b.best
        assert a.final_beam == b.final_beam
        assert a.scorer_calls == b.scorer_calls


class TestExhaustive:
    def test_tiny3(self, tiny3, inp):
        r = decode(tiny3, inp, cfg("exhaustive"))
        assert strs(tiny3.vocabulary, r.best) == ["<s>", "a", "</s>"]
        assert math.exp(r.best.cum_logprob) == pytest.approx(0.35, abs=1e-12)

    def test_dominant_eos(self, inp):
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.1, "</s>": 0.9})
        r = decode(model, inp, cfg("exhaustive"))
        assert strs(vocab, r.best) == ["<s>", "</s>"]

    def test_n_max_1(self, tiny3, inp):
        r = decode(tiny3, inp, cfg("exhaustive", n_max=1))
        assert strs(tiny3.vocabulary, r.best) == ["<s>", "</s>"]

    def test_budget_refusal(self, tiny3, inp):
        with pytest.raises(BudgetExceededError):
            decode(tiny3, inp, cfg("exhaustive", n_max=20))

    def test_deeper_than_the_recursion_limit(self, inp):
        # the first dive follows "a" down to max_len before any complete
        # hypothesis bounds the search
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.5, "</s>": 0.5})
        r = decode(model, inp, cfg("exhaustive", n_max=1500, budget=2**1500))
        assert strs(vocab, r.best) == ["<s>", "</s>"]
        assert r.scorer_calls == 1500

    def test_memory_is_linear_in_max_len(self, inp):
        # the first dive reaches 2,000 levels; a full Hypothesis per level
        # would hold about 2,000^2 / 2 tokens and step log-probabilities
        # (a 34 MB peak); the path held once traces under 1 MB
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.5, "</s>": 0.5})
        tracemalloc.start()
        try:
            r = decode(model, inp, cfg("exhaustive", n_max=2000, budget=2**2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert strs(vocab, r.best) == ["<s>", "</s>"] and r.scorer_calls == 2000
        assert peak < 4_000_000

    def test_pruned_equals_enumeration(self, inp):
        for seed in range(30):
            model = random_table_model(seed, 4, 4, allow_zero=(seed % 2 == 0))
            r = decode(model, inp, cfg("exhaustive", n_max=4))
            bf = brute_force_map(model, inp, 4)
            assert r.best.tokens == bf.tokens
            assert r.best.cum_logprob == bf.cum_logprob


class TestEvalLookahead:
    def test_tiny3_one_step(self, tiny3, inp):
        vocab = tiny3.vocabulary
        root = Hypothesis.initial(vocab)
        b = extend(root, 2, math.log(0.4), vocab.eos_id)
        f = lookahead(tiny3, inp.context, b, 1)
        assert f == pytest.approx(math.log(0.28), abs=1e-4)

    def test_depth_zero_returns_cum(self, tiny3, inp):
        vocab = tiny3.vocabulary
        h = extend(Hypothesis.initial(vocab), 1, math.log(0.5), vocab.eos_id)
        assert lookahead(tiny3, inp.context, h, 0) == h.cum_logprob
        assert lookahead(tiny3, inp.context, h, 0, f_max=-10.0) == h.cum_logprob

    def test_complete_is_absorbing(self, tiny3, inp):
        vocab = tiny3.vocabulary
        done = extend(Hypothesis.initial(vocab), vocab.eos_id, math.log(0.1), vocab.eos_id)
        for d in range(4):
            assert lookahead(tiny3, inp.context, done, d) == done.cum_logprob

    def test_f_max_floor(self, tiny3, inp):
        vocab = tiny3.vocabulary
        h = extend(Hypothesis.initial(vocab), 2, math.log(0.4), vocab.eos_id)
        assert lookahead(tiny3, inp.context, h, 1, f_max=-0.1) == -0.1

    def test_matches_breadth_first(self, inp):
        for seed in range(40):
            model = random_table_model(seed, 4, 5)
            vocab = model.vocabulary
            h = Hypothesis.initial(vocab)
            row = model.next_logprobs("", h.tokens)
            h = extend(h, vocab.core_ids[seed % 2], row[vocab.core_ids[seed % 2]], vocab.eos_id)
            for d in range(5):
                truth = h.cum_logprob + breadth_first_lookahead(model, inp, h, d)
                assert lookahead(model, inp.context, h, d) == pytest.approx(truth, abs=1e-12)

    def test_pruning_saves_calls(self, inp):
        model = random_table_model(1, 5, 4)
        vocab = model.vocabulary
        h = Hypothesis.initial(vocab)
        pruned = CountingScorer(model)
        lookahead(pruned, inp.context, h, 3, f_max=-0.05)
        unpruned = CountingScorer(model)
        lookahead(unpruned, inp.context, h, 3)
        assert pruned.calls <= unpruned.calls


class TestLBS:
    def test_d0_recovers_beam_raw(self, inp):
        for seed in range(20):
            model = random_table_model(seed, 4, 4)
            for k in (1, 2, 4):
                b = decode(model, inp, cfg("beam", k=k, n_max=4, mode="raw"))
                l = decode(model, inp, cfg("lbs", k=k, d=0, n_max=4, mode="raw"))
                assert l.best.tokens == b.best.tokens
                assert [h.tokens for h in l.final_beam] == [h.tokens for h in b.final_beam]

    def test_deep_lookahead_recovers_exhaustive(self, inp):
        for seed in range(20):
            model = random_table_model(seed, 4, 4)
            l = decode(model, inp, cfg("lbs", k=1, d=4, n_max=4, mode="raw"))
            bf = brute_force_map(model, inp, 4)
            assert l.best.cum_logprob == pytest.approx(bf.cum_logprob, abs=1e-12)

    def test_tiny3_d1_k1_first_step(self, tiny3, inp):
        # step-1 totals: a -> ln 0.5 + ln 0.7, b -> ln 0.4 + ln 0.7, </s> -> ln 0.1
        r = decode(tiny3, inp, cfg("lbs", k=1, d=1, n_max=3, mode="raw"))
        assert r.best.tokens[1] == 1  # token a selected first

    def test_selection_matches_breadth_first_reference(self, inp):
        for seed in range(15):
            model = random_table_model(seed, 4, 4)
            for d in (1, 2):
                for k in (1, 2):
                    r = decode(model, inp, cfg("lbs", k=k, d=d, n_max=4, mode="raw"))
                    ref_beam, _ = lbs_reference_decode(model, "", d, k, 4)
                    assert [h.tokens for h in r.final_beam] == [h.tokens for h in ref_beam]

    def test_never_more_calls_than_breadth_first(self, inp):
        for seed in range(15):
            model = random_table_model(seed, 4, 4)
            r = decode(model, inp, cfg("lbs", k=2, d=2, n_max=4, mode="raw"))
            _, ref_calls = lbs_reference_decode(model, "", 2, 2, 4)
            assert r.scorer_calls <= ref_calls

    def test_final_ranking_uses_plain_score(self, inp):
        # lookahead steers selection only; the returned best maximizes
        # cumulative log-probability among the surviving hypotheses
        for seed in range(10):
            model = random_table_model(seed, 4, 4)
            r = decode(model, inp, cfg("lbs", k=3, d=1, n_max=4, mode="raw"))
            complete = [h for h in r.final_beam if h.complete]
            pool = complete if complete else list(r.final_beam)
            assert r.best.cum_logprob == max(h.cum_logprob for h in pool)


class TestLHBS:
    def test_tiny3_practical_k2_trace(self, tiny3, inp):
        r = decode(tiny3, inp, cfg("lhbs", k=2, n_max=3, mode="practical"))
        vocab = tiny3.vocabulary
        assert strs(vocab, r.best) == ["<s>", "a", "</s>"]
        step2 = assert_lhbs_steps_match_reference(tiny3, inp, 2, 3, "practical")[1]
        slot1, slot2 = step2["slots"]
        popped1 = [tuple(strs(vocab, h)) for h in slot1["popped"]]
        popped2 = [tuple(strs(vocab, h)) for h in slot2["popped"]]
        assert popped1 == [("<s>", "a", "</s>"), ("<s>", "a", "b")]
        assert popped2 == [("<s>", "b", "a"), ("<s>", "b", "b")]
        survivors = {tuple(strs(vocab, h)) for h in r.final_beam}
        assert survivors == {("<s>", "b", "a"), ("<s>", "a", "b")}

    def test_k1_raw_matches_beam(self, inp):
        for seed in range(10):
            model = random_table_model(seed, 4, 4)
            b = decode(model, inp, cfg("beam", k=1, n_max=4, mode="raw"))
            l = decode(model, inp, cfg("lhbs", k=1, n_max=4, mode="raw"))
            assert l.best.tokens == b.best.tokens
            assert l.scorer_calls == b.scorer_calls

    def test_first_step_fills_beam_like_beam_search(self, tiny3, inp):
        b = decode(tiny3, inp, cfg("beam", k=2, n_max=1, mode="raw"))
        l = decode(tiny3, inp, cfg("lhbs", k=2, n_max=1, mode="raw"))
        assert sorted(h.tokens for h in l.final_beam) == sorted(h.tokens for h in b.final_beam)

    def test_proposition2_raw(self, inp):
        for seed in range(25):
            model = random_table_model(seed, 4, 4)
            k = 2 + seed % 3
            for step in assert_lhbs_steps_match_reference(model, inp, k, 4, "raw"):
                prev_sorted = step["prev"]
                for record in step["slots"]:
                    i = record["slot"]
                    popped = record["popped"][0]
                    pool = record["pool"]
                    # clause 2: the popped candidate is the pool maximum
                    assert popped.sort_key() == min(h.sort_key() for h in pool)
                    # clause 1: its parent ranks in the top i+1 of the previous
                    # beam (a carried complete hypothesis is its own parent)
                    prefix_rank = next(
                        j for j, h in enumerate(prev_sorted)
                        if h.tokens in (popped.tokens[:-1], popped.tokens)
                    )
                    assert prefix_rank <= i

    def test_call_parity_with_beam_raw(self, inp):
        for seed in range(30):
            model = random_table_model(seed, 4, 4)
            for k in (1, 2, 4):
                b = decode(model, inp, cfg("beam", k=k, n_max=4, mode="raw"))
                l = decode(model, inp, cfg("lhbs", k=k, n_max=4, mode="raw"))
                assert l.scorer_calls == b.scorer_calls

    def test_deterministic(self, inp):
        model = random_table_model(9, 4, 4)
        a = decode(model, inp, cfg("lhbs", k=3, n_max=4, mode="practical"))
        b = decode(model, inp, cfg("lhbs", k=3, n_max=4, mode="practical"))
        assert a.best == b.best and a.final_beam == b.final_beam

    @pytest.mark.parametrize("mode", ["raw", "practical"])
    def test_memory_follows_the_previous_beam_not_k(self, inp, mode):
        # at most 2^3 previous hypotheses per step; one child list per
        # slot of k = 10^5 traced a 6.4 MB peak, as wide as beam search's
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.5, "</s>": 0.5})
        k = 10**5
        tracemalloc.start()
        try:
            r = decode(model, inp, cfg("lhbs", k=k, n_max=4, mode=mode))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # k exceeds every candidate count, so both keep every candidate
        b = decode(model, inp, cfg("beam", k=k, n_max=4, mode=mode))
        assert set(r.final_beam) == set(b.final_beam) and r.best == b.best
        assert peak < 500_000

    def test_wide_raw_beam_reads_the_ranking_once(self):
        # sorting each slot's pool anew took 100 s (2 cores, Python 3.11);
        # one pass over the step's ranking costs about what beam search
        # does. The decodes run in a child, so a quadratic pick fails by
        # the timeout
        code = """if True:
            import json
            from seqdec.core import DecodeConfig, DecodeInput
            from seqdec.decode import decode
            from seqdec.scorers import train_ngram
            with open(%r, encoding="utf-8") as f:
                model = train_ngram(f, 2, 1.0)
            print(json.dumps({s: decode(model, DecodeInput("x", "the"), DecodeConfig(
                beam_width=4096, max_len=12, strategy=s, mode="raw")).scorer_calls
                for s in ("beam", "lhbs")}))
        """ % str(Path(__file__).parent / "data" / "corpus.txt")
        assert run_in_child(code) == {"beam": 34_002, "lhbs": 34_002}


class TestModes:
    def test_practical_early_stop_is_sound(self, inp):
        # early termination never returns a worse hypothesis than raw mode
        for seed in range(15):
            model = random_table_model(seed, 4, 5)
            raw = decode(model, inp, cfg("beam", k=2, n_max=5, mode="raw"))
            prac = decode(model, inp, cfg("beam", k=2, n_max=5, mode="practical"))
            if raw.best.complete and prac.best.complete:
                assert prac.best.cum_logprob >= raw.best.cum_logprob - 1e-12

    def test_oracle_upper_bounds_every_strategy(self, inp):
        for seed in range(10):
            model = random_table_model(seed, 3, 4)
            bf = brute_force_map(model, inp, 4)
            for strategy in ("greedy", "beam", "lbs", "lhbs"):
                mode = "raw" if strategy != "greedy" else "practical"
                r = decode(model, inp, cfg(strategy, k=2, d=1, n_max=4, mode=mode))
                if r.best.complete:
                    assert bf.cum_logprob >= r.best.cum_logprob - 1e-12


    def test_a_settled_raw_beam_returns_what_every_step_would(self, inp):
        # every beam on this model is all complete within five steps; the
        # references run each step
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.1, "</s>": 0.9})
        for k in (1, 2, 4):
            lbs_calls = []
            for n_max in range(1, 13):
                b = decode(model, inp, cfg("beam", k=k, n_max=n_max))
                assert (list(b.final_beam), b.scorer_calls) == lbs_reference_decode(
                    model, "", 0, k, n_max)
                r = decode(model, inp, cfg("lbs", k=k, d=1, n_max=n_max))
                assert list(r.final_beam) == lbs_reference_decode(model, "", 1, k, n_max)[0]
                lbs_calls.append(r.scorer_calls)
            # the reference also counts its breadth-first lookahead, so LBS's
            # settled steps are checked by their cost: one call per slot
            assert [b - a for a, b in zip(lbs_calls[6:], lbs_calls[7:])] == [len(r.final_beam)] * 5
            assert_lhbs_steps_match_reference(model, inp, k, 12, "raw")

    def test_a_settled_raw_beam_stops_at_any_max_len(self):
        # 10^9 steps, each charging k logical calls, would take hours; the
        # decodes run in a child so a missing exit fails by the timeout
        code = """if True:
            import json
            from seqdec.core import DecodeConfig, DecodeInput, Vocabulary
            from seqdec.decode import decode
            from seqdec.scorers import TableModel
            vocab = Vocabulary(["<s>", "a", "</s>"])
            model = TableModel(vocab, {}, {"a": 0.1, "</s>": 0.9})
            print(json.dumps({s: decode(model, DecodeInput("x"), DecodeConfig(
                beam_width=4, lookahead_depth=d, max_len=10**9, strategy=s, mode="raw"
            )).scorer_calls for s, d in (("beam", 0), ("lbs", 1), ("lhbs", 0))}))
        """
        # the paper's count: one logical call per beam slot per step
        assert run_in_child(code) == {
            "beam": 3_999_999_994, "lbs": 3_999_999_997, "lhbs": 3_999_999_994}

    def test_lhbs_at_a_huge_k_costs_the_candidates_it_reads(self):
        # a beam that cannot fill k slots: visiting each empty slot took
        # about 20 min at k = 10^9; the decodes run in a child, so a visit
        # per slot fails by the timeout
        code = """if True:
            import json
            from seqdec.core import DecodeConfig, DecodeInput, Vocabulary
            from seqdec.decode import decode
            from seqdec.scorers import TableModel
            vocab = Vocabulary(["<s>", "a", "b", "</s>"])
            model = TableModel(vocab, {}, {"a": 0.3, "b": 0.3, "</s>": 0.4})
            print(json.dumps({f"{mode}-{k}": repr(decode(model, DecodeInput("x"), DecodeConfig(
                beam_width=k, max_len=6, strategy="lhbs", mode=mode)))
                for mode in ("raw", "practical") for k in (1000, 10**9)}))
        """
        out = run_in_child(code)
        for mode, calls in (("raw", 120), ("practical", 1)):
            assert out[f"{mode}-1000000000"] == out[f"{mode}-1000"]
            assert out[f"{mode}-1000"].endswith(f"scorer_calls={calls})")

    def test_a_k_past_sys_maxsize_decodes_as_a_k_no_beam_fills(self):
        # islice refuses a stop past sys.maxsize, and practical beam search
        # reads 2k; the decodes run in a child, so a visit per slot fails
        # by the timeout
        code = """if True:
            import json
            from seqdec.core import DecodeConfig, DecodeInput, Vocabulary
            from seqdec.decode import decode
            from seqdec.scorers import TableModel
            vocab = Vocabulary(["<s>", "a", "</s>"])
            model = TableModel(vocab, {}, {"a": 0.1, "</s>": 0.9})
            print(json.dumps({f"{s}-{mode}-{k}": repr(decode(model, DecodeInput("x"), DecodeConfig(
                beam_width=k, lookahead_depth=1, max_len=6, strategy=s, mode=mode)))
                for s in ("beam", "lbs", "lhbs") for mode in ("raw", "practical")
                for k in (10**9, 10**19)}))
        """
        out = run_in_child(code)
        # LBS's lookahead adds a call per active slot
        calls = {"beam-raw": 21, "beam-practical": 1, "lbs-raw": 27, "lbs-practical": 2,
                 "lhbs-raw": 21, "lhbs-practical": 1}
        for run, n in calls.items():
            assert out[f"{run}-{10**19}"] == out[f"{run}-{10**9}"]
            assert out[f"{run}-{10**9}"].endswith(f"scorer_calls={n})")

    def test_a_wide_beam_over_one_tied_row_reads_the_run_lazily(self):
        # every child of every slot ties on a uniform 32,000-token row;
        # sorting each slot's whole run before its first child took about
        # 56 s per decode, reading it lazily under 2 s (2 cores, Python
        # 3.11). The decodes run in a child, so a whole-run read fails by
        # the timeout
        code = """if True:
            import json
            from seqdec.core import DecodeConfig, DecodeInput, Vocabulary
            from seqdec.decode import decode
            from seqdec.scorers import TableModel
            vocab = Vocabulary(["<s>", *("w%d" % i for i in range(31998)), "</s>"])
            model = TableModel(vocab, {}, {t: 1 / 31999 for t in vocab.tokens[1:]})
            # ties go to the lower ids, so every slot extends w0 ... w0
            want = [(0,) + (1,) * 499 + (t,) for t in range(1, 65)]
            out = {}
            for s in ("beam", "lhbs"):
                for mode in ("raw", "practical"):
                    r = decode(model, DecodeInput("x"), DecodeConfig(
                        beam_width=64, max_len=500, strategy=s, mode=mode))
                    out[s + "-" + mode] = [r.scorer_calls, [h.tokens for h in r.final_beam] == want]
            print(json.dumps(out))
        """
        # one call for the first step, then one per slot: 1 + 64 x 499
        assert run_in_child(code) == {
            "beam-raw": [31_937, True], "beam-practical": [31_937, True],
            "lhbs-raw": [31_937, True], "lhbs-practical": [31_937, True]}


@pytest.mark.parametrize("mode", VALID_MODES)
@pytest.mark.parametrize("strategy", VALID_STRATEGIES)
def test_a_vocabulary_of_only_bos_and_eos_decodes_to_eos(inp, strategy, mode):
    # the first step's only candidate is complete: practical mode stops at
    # the empty beam, and a raw beam settles on it, charging every step
    vocab = Vocabulary(["<s>", "</s>"])
    model = TableModel(vocab, {}, {"</s>": 1.0})
    r = decode(model, inp, cfg(strategy, k=2, d=1, n_max=5, mode=mode))
    eos = Hypothesis((0, 1), 0.0, (0.0,), True)
    assert r.best == eos and r.finished == (eos,)
    searched = strategy in ("beam", "lbs", "lhbs")
    assert r.final_beam == (() if searched and mode == "practical" else (eos,))
    assert r.scorer_calls == (5 if searched and mode == "raw" else 1)


class TestLookaheadBudget:
    def test_deep_lookahead_refused(self, inp):
        model = random_table_model(0, 4, 4)  # 4 extension tokens: 4^6 = 4096 > 100
        for mode in ("raw", "practical"):
            with pytest.raises(BudgetExceededError):
                decode(model, inp, cfg("lbs", k=2, d=6, mode=mode, budget=100))

    def test_lookahead_within_budget_runs(self, inp):
        model = random_table_model(0, 4, 4)  # 4^3 = 64 <= 100
        r = decode(model, inp, cfg("lbs", k=2, d=3, budget=100))
        assert r.best.tokens[0] == model.vocabulary.bos_id

    def test_huge_depth_refused_without_recursing(self, tiny3, inp):
        with pytest.raises(BudgetExceededError):
            decode(tiny3, inp, cfg("lbs", k=2, d=1200))

    def test_depth_beyond_the_recursion_limit_runs(self, inp):
        # the lookahead walks an explicit stack, so the budget alone bounds d
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1})
        d = sys.getrecursionlimit() + 100
        for mode in ("raw", "practical"):
            r = decode(model, inp, cfg("lbs", k=1, d=d, n_max=2, mode=mode, budget=2**d))
            # the d-level dive down "a" scores far below stopping at once
            assert strs(vocab, r.best) == ["<s>", "</s>"]
            assert r.scorer_calls > d

    def test_depth_beyond_the_recursion_limit_refused(self, inp):
        # past the recursion limit only the budget refuses a depth: one
        # node short of 2^d, and before any scorer call
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = CountingScorer(TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1}))
        d = sys.getrecursionlimit() + 100
        for mode in ("raw", "practical"):
            with pytest.raises(BudgetExceededError, match="exceeds node budget"):
                decode(model, inp, cfg("lbs", k=1, d=d, n_max=2, mode=mode,
                                       budget=2**d - 1))
        assert model.calls == 0

    def test_depth_just_under_the_recursion_limit_refused(self, inp):
        # called with few frames to spare, an over-budget depth is still
        # refused by the budget, not by a RecursionError
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = CountingScorer(TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1}))
        limit = sys.getrecursionlimit()
        d = limit - 5

        def dive(n):
            if n:
                return dive(n - 1)
            return decode(model, inp, cfg("lbs", k=1, d=d, n_max=2, budget=2**d - 1))

        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        with pytest.raises(BudgetExceededError, match="exceeds node budget"):
            dive(limit - depth - 30)
        assert model.calls == 0

    def test_scorer_needing_many_frames_runs(self, inp):
        # the lookahead adds no frames per level below the scorer's own
        vocab = Vocabulary(["<s>", "a", "</s>"])
        table = TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1})

        class Deep:
            vocabulary = vocab

            def next_logprobs(self, context, prefix, depth=sys.getrecursionlimit() - 300):
                if depth:
                    return self.next_logprobs(context, prefix, depth - 1)
                return table.next_logprobs(context, prefix)

        r = decode(Deep(), inp, cfg("lbs", k=1, d=400, n_max=2, budget=2**400))
        assert strs(vocab, r.best) == ["<s>", "</s>"]

    def test_depth_0_runs_deep_in_the_stack(self, inp):
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1})
        limit = sys.getrecursionlimit()

        def dive(n):
            if n:
                return dive(n - 1)
            return decode(model, inp, cfg("lbs", k=1, d=0, n_max=2))

        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        # 30 frames to spare: the search needs fewer, the old 50-frame slack more
        r = dive(limit - depth - 30)
        assert strs(vocab, r.best) == ["<s>", "a", "a"]

    def test_eval_lookahead_beyond_the_recursion_limit_runs(self, inp):
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = CountingScorer(TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1}))
        root = Hypothesis.initial(vocab)
        # the dive down "a" asks one row per level; stopping at once wins
        assert lookahead(model, inp.context, root, 5000) == math.log(0.1)
        assert model.calls == 5000

    def test_eval_lookahead_memory_is_linear_in_d(self, inp):
        # the dive reaches 2,000 levels; a prefix tuple per level would
        # hold about 2,000^2 / 2 token ids (a 16 MB peak); the path held
        # once and one iterator per level trace under 1 MB
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1})
        tracemalloc.start()
        try:
            f = lookahead(model, inp.context, Hypothesis.initial(vocab), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f == math.log(0.1)
        assert peak < 2_000_000

    def test_depth_within_the_recursion_limit_runs(self, inp):
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1})
        r = decode(model, inp, cfg("lbs", k=1, d=400, n_max=2, budget=2**400))
        # the 400-level dive down "a" scores far below stopping at once
        assert strs(vocab, r.best) == ["<s>", "</s>"]
        assert r.scorer_calls > 400
