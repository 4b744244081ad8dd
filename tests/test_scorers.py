import json
import math
import sys
import threading

import pytest

from seqdec.core import DecodeConfig, DecodeInput, Vocabulary
from seqdec.decode import decode
from seqdec.scorers import (
    CountingScorer,
    NgramModel,
    TableModel,
    UniformModel,
    train_ngram,
)

from conftest import make_tiny3, random_table_model


def row_mass(row):
    return sum(math.exp(lp) for lp in row.values() if lp != float("-inf"))


class TestTableModel:
    def test_bos_row(self, tiny3):
        row = tiny3.next_logprobs("", (0,))
        assert row[1] == pytest.approx(math.log(0.5))
        assert row[2] == pytest.approx(math.log(0.4))
        assert row[3] == pytest.approx(math.log(0.1))

    def test_listed_prefix(self, tiny3):
        row = tiny3.next_logprobs("", (0, 1))
        assert row[3] == pytest.approx(math.log(0.7))

    def test_default_fallback(self, tiny3):
        row = tiny3.next_logprobs("", (0, 1, 1))
        assert row[3] == pytest.approx(math.log(0.5))
        assert row[1] == pytest.approx(math.log(0.25))

    def test_missing_bos_rejected(self, tiny3):
        with pytest.raises(ValueError):
            tiny3.next_logprobs("", (1, 2))

    def test_interior_eos_rejected(self, tiny3):
        with pytest.raises(ValueError):
            tiny3.next_logprobs("", (0, 3, 1))

    def test_trailing_eos_tolerated(self, tiny3):
        row = tiny3.next_logprobs("", (0, 1, 3))
        assert row_mass(row) == pytest.approx(1.0, abs=1e-9)

    def test_unnormalized_row_rejected(self):
        vocab = Vocabulary.from_tokens(["<s>", "a", "</s>"])
        with pytest.raises(ValueError):
            TableModel(vocab, {"": {"a": 0.5, "</s>": 0.4}}, {"a": 0.5, "</s>": 0.5})

    def test_rows_normalized_everywhere(self):
        for seed in range(20):
            model = random_table_model(seed, 4, 3)
            row = model.next_logprobs("", (0,))
            assert row_mass(row) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_bit_identical(self, tiny3):
        a = tiny3.next_logprobs("", (0, 2))
        b = tiny3.next_logprobs("", (0, 2))
        assert a == b

    def test_json_roundtrip(self, tiny3, tmp_path):
        path = tmp_path / "model.json"
        tiny3.save(str(path))
        loaded = TableModel.load(str(path))
        assert loaded.next_logprobs("", (0, 1)) == tiny3.next_logprobs("", (0, 1))
        obj = json.loads(path.read_text())
        assert set(obj) == {"vocab", "rows", "default"}


class TestUniformModel:
    def test_uniform_row(self):
        vocab = Vocabulary.from_tokens(["<s>", "a", "b", "</s>"])
        model = UniformModel(vocab)
        row = model.next_logprobs("", (0,))
        assert all(lp == pytest.approx(math.log(1 / 3)) for lp in row.values())


class TestNgram:
    def test_hand_counted_bigram(self):
        # corpus "a a": counts after <s>-padding are (<s>->a), (a->a), (a-></s>)
        # vocab extensions {a, </s>} plus unseen corpus token b is absent here,
        # so build the 3-way case the long way: train on "a a" and "b"
        model = train_ngram(["a a", "b"], order=2, alpha=1.0)
        # extension tokens: a, b, </s>; count(a, a) = 1; count(a, .) = 2
        row = model.next_logprobs("", (0, model.vocabulary.tokens.index("a")))
        assert math.exp(row[model.vocabulary.tokens.index("a")]) == pytest.approx(2 / 5)

    def test_unseen_context_uniform(self):
        model = train_ngram(["a b"], order=3, alpha=0.5)
        ids = {t: i for i, t in enumerate(model.vocabulary.tokens)}
        row = model.next_logprobs("", (0, ids["b"], ids["b"]))
        n_ext = len(model.vocabulary.extension_ids)
        for lp in row.values():
            assert math.exp(lp) == pytest.approx(1 / n_ext)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([], order=2, alpha=1.0)
        with pytest.raises(ValueError):
            train_ngram(["   ", ""], order=2, alpha=1.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            train_ngram(["a"], order=2, alpha=0.0)

    def test_rows_sum_to_one(self):
        model = train_ngram(["a b a", "b a b b"], order=2, alpha=0.3)
        ids = {t: i for i, t in enumerate(model.vocabulary.tokens)}
        for prefix in [(0,), (0, ids["a"]), (0, ids["a"], ids["b"])]:
            assert row_mass(model.next_logprobs("", prefix)) == pytest.approx(1.0, abs=1e-12)

    def test_context_string_shifts_history(self):
        model = train_ngram(["a b", "b a"], order=2, alpha=1.0)
        empty_ctx = model.next_logprobs("", (0,))
        with_ctx = model.next_logprobs("a", (0,))
        assert empty_ctx != with_ctx

    def test_deterministic_serialization(self):
        a = train_ngram(["a b", "b"], order=2, alpha=1.0)
        b = train_ngram(["a b", "b"], order=2, alpha=1.0)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_json_roundtrip(self, tmp_path):
        model = train_ngram(["a b a"], order=2, alpha=1.0)
        path = tmp_path / "ngram.json"
        model.save(str(path))
        loaded = NgramModel.load(str(path))
        assert loaded.next_logprobs("", (0,)) == model.next_logprobs("", (0,))


class TestCountingScorer:
    def test_transparent_and_counts(self, tiny3):
        counted = CountingScorer(tiny3)
        assert counted.calls == 0
        for i in range(5):
            assert counted.next_logprobs("", (0,)) == tiny3.next_logprobs("", (0,))
        assert counted.calls == 5

    def test_concurrent_decodes_count_their_own_calls(self, tiny3):
        # every decode builds its own wrapper, so decodes sharing one model
        # across threads each report their own logical call count
        config = DecodeConfig(beam_width=2, lookahead_depth=1, max_len=3,
                              strategy="lbs", mode="raw")
        want = decode(tiny3, DecodeInput("s"), config).scorer_calls
        counts = []

        def worker():
            for _ in range(50):
                counts.append(decode(tiny3, DecodeInput("s"), config).scorer_calls)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counts == [want] * 400
