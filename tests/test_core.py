import math
import random
import re

import pytest

from seqdec.core import (
    NEG_INF,
    BudgetExceededError,
    DecodeConfig,
    Hypothesis,
    Vocabulary,
    check_budget,
    extend,
)
from seqdec.oracle import sum_left_to_right


def h(tokens, steps):
    cum = 0.0
    for s in steps:
        cum += s
    return Hypothesis(tuple(tokens), cum, tuple(steps), False)


class TestCanonicalOrder:
    def test_lexicographic_on_score_tie(self):
        a = h([0, 1], [-1.0])
        b = h([0, 2], [-1.0])
        assert a.sort_key() < b.sort_key()

    def test_score_descending(self):
        a = h([0, 2], [-1.0])
        b = h([0, 1], [-2.0])
        assert a.sort_key() < b.sort_key()

    def test_reflexive(self):
        a = h([0, 1], [-1.0])
        assert a.sort_key() == a.sort_key()

    def test_total_order_properties(self):
        rng = random.Random(3)
        hyps = [h([0] + [rng.randint(1, 3) for _ in range(rng.randint(1, 3))],
                  [round(rng.choice([-1.0, -2.0]), 3)])
                for _ in range(30)]
        for a in hyps:
            for b in hyps:
                ka, kb = a.sort_key(), b.sort_key()
                assert (ka < kb) == (kb > ka)
                assert (ka < kb) + (ka == kb) + (ka > kb) == 1
                for c in hyps:
                    if ka <= kb <= c.sort_key():
                        assert ka <= c.sort_key()
        once = sorted(hyps, key=Hypothesis.sort_key)
        again = sorted(reversed(hyps), key=Hypothesis.sort_key)
        assert [x.sort_key() for x in once] == [x.sort_key() for x in again]


class TestExtend:
    def setup_method(self):
        self.vocab = Vocabulary(["<s>", "a", "b", "</s>"])

    def test_single_step(self):
        root = Hypothesis.initial(self.vocab)
        child = extend(root, 1, math.log(0.5), self.vocab.eos_id)
        assert child.tokens == (0, 1)
        assert child.cum_logprob == pytest.approx(-0.6931, abs=1e-4)
        assert not child.complete
        assert root.tokens == (0,)  # input unmodified

    def test_eos_completes(self):
        root = Hypothesis.initial(self.vocab)
        a = extend(root, 1, math.log(0.5), self.vocab.eos_id)
        done = extend(a, self.vocab.eos_id, math.log(0.7), self.vocab.eos_id)
        assert done.complete
        # ln 0.5 + ln 0.7 = ln 0.35
        assert done.cum_logprob == pytest.approx(math.log(0.35), abs=1e-12)

    def test_neg_inf_absorbs(self):
        root = Hypothesis.initial(self.vocab)
        dead = extend(root, 1, NEG_INF, self.vocab.eos_id)
        more = extend(dead, 2, math.log(0.9), self.vocab.eos_id)
        assert more.cum_logprob == NEG_INF

    def test_complete_cannot_extend(self):
        root = Hypothesis.initial(self.vocab)
        done = extend(root, self.vocab.eos_id, math.log(0.1), self.vocab.eos_id)
        with pytest.raises(ValueError):
            extend(done, 1, -1.0, self.vocab.eos_id)

    def test_cum_equals_step_sum_bit_exact(self):
        rng = random.Random(11)
        for _ in range(100):
            hyp = Hypothesis.initial(self.vocab)
            prev = 0.0
            for _ in range(rng.randint(1, 10)):
                lp = -rng.random()
                hyp = extend(hyp, rng.choice([1, 2]), lp, self.vocab.eos_id)
                assert hyp.cum_logprob <= prev  # monotone under extension
                prev = hyp.cum_logprob
            assert hyp.cum_logprob == sum_left_to_right(hyp.step_logprobs)


class TestVocabulary:
    def test_ids_are_not_parameters(self):
        # BOS and EOS are the positions of <s> and </s>
        with pytest.raises(TypeError):
            Vocabulary(("<s>", "a", "</s>"), 0, 2)

    def test_rejects_duplicate_tokens(self):
        with pytest.raises(ValueError, match="unique"):
            Vocabulary(("<s>", "x", "x", "</s>"))

    @pytest.mark.parametrize("token", [1, None, ("a",), ["a"]])
    def test_rejects_a_token_that_is_not_a_string(self, token):
        with pytest.raises(ValueError, match=f"token {re.escape(repr(token))} is not a string"):
            Vocabulary(("<s>", token, "</s>"))

    @pytest.mark.parametrize("tokens,marker", [
        (["a", "b"], "'<s>'"),
        (["a", "</s>"], "'<s>'"),
        (["<s>", "a"], "'</s>'"),
    ])
    def test_from_tokens_names_a_missing_marker(self, tokens, marker):
        with pytest.raises(ValueError, match=f"the tokens hold no {marker} marker"):
            Vocabulary(tokens)

    @pytest.mark.parametrize("token", ["a b", " a", "a\t", "a\nb", "a\xa0b", ""])
    def test_rejects_an_empty_token_or_whitespace_in_one(self, token):
        # model files join tokens with spaces: over <s>, "a b", a, b, </s>
        # the row key "a b" would mean both [a b] and [a, b]
        with pytest.raises(ValueError, match="whitespace"):
            Vocabulary(["<s>", token, "a", "b", "</s>"])

    def test_extension_ids_exclude_bos(self):
        v = Vocabulary(["<s>", "a", "b", "</s>"])
        assert v.bos_id not in v.extension_ids
        assert v.eos_id in v.extension_ids
        assert v.core_ids == (1, 2)


class TestDecodeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)
        with pytest.raises(ValueError):
            DecodeConfig(max_len=0)
        with pytest.raises(ValueError):
            DecodeConfig(strategy="nope")
        with pytest.raises(ValueError):
            DecodeConfig(mode="nope")
        with pytest.raises(ValueError):
            DecodeConfig(lookahead_depth=-1)


class TestStoredIds:
    def test_ids_are_stored_once(self):
        v = Vocabulary(["<s>", "a", "b", "</s>"])
        assert v.extension_ids is v.extension_ids
        assert v.core_ids is v.core_ids
        assert v.extension_ids == (1, 2, 3)

    def test_bos_and_eos_anywhere(self):
        v = Vocabulary(("x", "</s>", "<s>", "y"))
        assert (v.bos_id, v.eos_id) == (2, 1)
        assert v.extension_ids == (0, 1, 3)
        assert v.core_ids == (0, 3)

    def test_equality_and_hash_use_declared_fields_only(self):
        a = Vocabulary(["<s>", "a", "</s>"])
        b = Vocabulary(["<s>", "a", "</s>"])
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.tokens, a.bos_id, a.eos_id))
        assert "extension_ids" not in repr(a)


class TestCheckBudget:
    def test_power_against_budget(self):
        check_budget(4, 3, 64)
        with pytest.raises(BudgetExceededError, match="4\\^4"):
            check_budget(4, 4, 255)
        with pytest.raises(BudgetExceededError):
            check_budget(3, 0, 0)

    def test_huge_depth_is_decided_at_once(self):
        with pytest.raises(BudgetExceededError):
            check_budget(2, 10**12, 10**7)
        check_budget(1, 10**12, 1)
