import math

import pytest

from seqdec.core import BudgetExceededError, DecodeInput, Hypothesis, Vocabulary, extend
from seqdec.oracle import (
    breadth_first_lookahead,
    brute_force_map,
    enumerate_all,
    sum_left_to_right,
)
from seqdec.scorers import TableModel

from conftest import one_hot_model, random_table_model, run_in_child, uniform_model


class TestEnumerateAll:
    def test_tiny3_n2(self, tiny3, inp):
        enum = enumerate_all(tiny3, inp, 2)
        assert len(enum) == 3  # |V|^0 + |V|^1 with |V| = 2
        by_tokens = {tokens: math.exp(score) for tokens, score in enum}
        assert by_tokens[(0, 3)] == pytest.approx(0.1)
        assert by_tokens[(0, 1, 3)] == pytest.approx(0.35)
        assert by_tokens[(0, 2, 3)] == pytest.approx(0.04)

    def test_n1_single_candidate(self, tiny3, inp):
        enum = enumerate_all(tiny3, inp, 1)
        assert len(enum) == 1
        assert enum[0][0] == (0, 3)

    def test_count_formula(self, inp):
        for n_max in (1, 2, 3, 4):
            for n_ext in (3, 4):
                model = random_table_model(0, n_ext, n_max)
                enum = enumerate_all(model, inp, n_max)
                n_core = n_ext - 1
                assert len(enum) == sum(n_core ** (t - 1) for t in range(1, n_max + 1))

    def test_total_mass_identity(self, inp):
        for seed in range(20):
            model = random_table_model(seed, 4, 4)
            n_max = 4
            enum = enumerate_all(model, inp, n_max)
            complete_mass = sum(math.exp(s) for _, s in enum)
            # frontier mass: every incomplete length-n_max sequence
            vocab = model.vocabulary
            frontier = [((vocab.bos_id,), 0.0)]
            for _ in range(n_max):
                nxt = []
                for tokens, score in frontier:
                    row = model.next_logprobs("", tokens)
                    for tid in vocab.core_ids:
                        nxt.append((tokens + (tid,), score + row[tid]))
                frontier = nxt
            frontier_mass = sum(math.exp(s) for _, s in frontier)
            assert complete_mass + frontier_mass == pytest.approx(1.0, abs=1e-6)

    def test_budget_refusal(self, tiny3, inp):
        with pytest.raises(BudgetExceededError):
            enumerate_all(tiny3, inp, 20)


class TestBruteForceMap:
    def test_tiny3(self, tiny3, inp):
        best = brute_force_map(tiny3, inp, 3)
        assert best.tokens == (0, 1, 3)
        assert math.exp(best.cum_logprob) == pytest.approx(0.35)
        assert best.complete
        assert best.cum_logprob == sum_left_to_right(best.step_logprobs)

    def test_uniform_prefers_short(self, inp):
        vocab = Vocabulary(["<s>", "a", "b", "</s>"])
        model = uniform_model(vocab)
        best = brute_force_map(model, inp, 2)
        assert best.tokens == (0, vocab.eos_id)
        assert math.exp(best.cum_logprob) == pytest.approx(1 / 3)

    def test_one_hot_chain(self, inp):
        model = one_hot_model("b")
        # forced b,b,... never reaches EOS within budget; the only complete
        # sequences have zero probability, canonical order breaks the tie
        best = brute_force_map(model, inp, 2)
        assert best.complete
        assert best.cum_logprob == float("-inf")

    def test_one_hot_eos(self, inp):
        model = one_hot_model("</s>")
        best = brute_force_map(model, inp, 3)
        assert best.tokens == (0, 3)
        assert best.cum_logprob == 0.0


class TestBreadthFirstLookahead:
    def test_tiny3_from_b(self, tiny3, inp):
        vocab = tiny3.vocabulary
        b = extend(Hypothesis.initial(vocab), 2, math.log(0.4), vocab.eos_id)
        assert breadth_first_lookahead(tiny3, inp, b, 1) == pytest.approx(math.log(0.7))

    def test_depth_zero(self, tiny3, inp):
        h = Hypothesis.initial(tiny3.vocabulary)
        assert breadth_first_lookahead(tiny3, inp, h, 0) == 0.0

    def test_negative_depth_refused(self, tiny3, inp):
        h = Hypothesis.initial(tiny3.vocabulary)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            breadth_first_lookahead(tiny3, inp, h, -1)

    def test_complete_absorbing(self, tiny3, inp):
        vocab = tiny3.vocabulary
        done = extend(Hypothesis.initial(vocab), vocab.eos_id, math.log(0.1), vocab.eos_id)
        for d in range(4):
            assert breadth_first_lookahead(tiny3, inp, done, d) == 0.0

    def test_budget_refusal(self, tiny3, inp):
        h = Hypothesis.initial(tiny3.vocabulary)
        with pytest.raises(BudgetExceededError):
            breadth_first_lookahead(tiny3, inp, h, 20)


def test_a_two_token_vocabulary_stops_where_nothing_grows():
    # only EOS extends, so the budget admits any depth: walking 10^12
    # empty levels took about 21 hours; the oracles run in a child, so a
    # walk per level fails by the timeout
    code = """if True:
        import json
        from seqdec.core import DecodeInput, Hypothesis, Vocabulary
        from seqdec.oracle import breadth_first_lookahead, brute_force_map, enumerate_all
        from seqdec.scorers import TableModel
        vocab = Vocabulary(["<s>", "</s>"])
        model = TableModel(vocab, {}, {"</s>": 1.0})
        h = Hypothesis.initial(vocab)
        print(json.dumps({n: [repr(enumerate_all(model, DecodeInput("x"), n)),
                              repr(brute_force_map(model, DecodeInput("x"), n)),
                              breadth_first_lookahead(model, DecodeInput("x"), h, n)]
                          for n in (1, 10**12)}))
    """
    out = run_in_child(code)
    assert out["1000000000000"] == out["1"]
    assert out["1"] == ["(((0, 1), 0.0),)",
                        "Hypothesis(tokens=(0, 1), cum_logprob=0.0, step_logprobs=(0.0,), "
                        "complete=True)", 0.0]
