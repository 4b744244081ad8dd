import hashlib
import json
import math
import re
import sys
import threading
from pathlib import Path

import pytest

from seqdec.core import NEG_INF, DecodeConfig, DecodeInput, Row, Vocabulary
from seqdec.decode import decode
from seqdec.scorers import (
    CountingScorer,
    NgramModel,
    TableModel,
    load_model,
    train_ngram,
)

from conftest import BatchRecorder, make_tiny3, random_table_model, uniform_model, write_model


def row_mass(row):
    values = row.vocabulary.extension_values(row)
    return sum(math.exp(lp) for lp in values if lp != float("-inf"))


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
        vocab = Vocabulary(["<s>", "a", "</s>"])
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
        write_model(tiny3, path)
        loaded = load_model(str(path))
        assert type(loaded) is TableModel
        assert loaded.next_logprobs("", (0, 1)) == tiny3.next_logprobs("", (0, 1))
        obj = json.loads(path.read_text())
        assert set(obj) == {"vocab", "rows", "default"}


class TestUniformModel:
    def test_uniform_row(self):
        vocab = Vocabulary(["<s>", "a", "b", "</s>"])
        model = uniform_model(vocab)
        row = model.next_logprobs("", (0,))
        assert all(lp == pytest.approx(math.log(1 / 3)) for lp in vocab.extension_values(row))


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
        for lp in model.vocabulary.extension_values(row):
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
        write_model(model, path)
        loaded = load_model(str(path))
        assert type(loaded) is NgramModel
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


class TestBatchCounting:
    """``next_logprobs_batch`` counts one logical call per prefix."""

    PREFIXES = [(0,), (0, 1), (0, 2), (0, 1, 2)]

    def test_without_a_batch_method_loops_over_next_logprobs(self, tiny3):
        counted = CountingScorer(tiny3)
        rows = counted.next_logprobs_batch("", self.PREFIXES)
        assert rows == [tiny3.next_logprobs("", p) for p in self.PREFIXES]
        assert counted.calls == 4
        assert counted.next_logprobs_batch("", []) == [] and counted.calls == 4

    def test_a_batch_method_is_called_once_per_batch(self, tiny3):
        recorder = BatchRecorder(tiny3)
        counted = CountingScorer(recorder)
        rows = counted.next_logprobs_batch("", self.PREFIXES)
        assert rows == [tiny3.next_logprobs("", p) for p in self.PREFIXES]
        assert recorder.batches == [self.PREFIXES] and recorder.singles == 0
        assert counted.calls == 4

    def test_a_batch_with_the_wrong_row_count_raises(self, tiny3):
        class Short:
            vocabulary = tiny3.vocabulary

            def next_logprobs_batch(self, context, prefixes):
                return [tiny3.next_logprobs(context, p) for p in prefixes[1:]]

        with pytest.raises(ValueError, match="3 rows for 4 prefixes"):
            CountingScorer(Short()).next_logprobs_batch("", self.PREFIXES)


class TestModelValidation:
    """A model that would serve a bad row is refused when it is built."""

    VOCAB = Vocabulary(["<s>", "a", "</s>"])

    @pytest.mark.parametrize("row", [
        {"a": math.nan, "</s>": 0.5},
        {"a": math.nan, "</s>": 1.0},
        {"a": 1.5, "</s>": -0.5},
        # true summed to 1 and was served as probability 1; a string or
        # null raised TypeError
        {"a": True},
        {"a": "1.0"},
        {"a": None},
    ])
    def test_table_row_with_nan_or_out_of_range_probability(self, row):
        with pytest.raises(ValueError):
            TableModel(self.VOCAB, {"": row}, {"a": 0.5, "</s>": 0.5})
        with pytest.raises(ValueError):
            TableModel(self.VOCAB, {}, row)

    @pytest.mark.parametrize("order", [0, 2.0, "2", True, None])
    def test_order_must_be_an_integer_ge_1(self, order):
        # a float order built, then failed mid-decode slicing the history
        with pytest.raises(ValueError, match="'order' must be an integer >= 1"):
            NgramModel(self.VOCAB, order, 0.5, {})
        with pytest.raises(ValueError, match="'order' must be an integer >= 1"):
            train_ngram(["a"], order=order, alpha=0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0, "0.5", True, None])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            NgramModel(self.VOCAB, 2, alpha, {"<s>": {"a": 1}})
        with pytest.raises(ValueError, match="alpha"):
            train_ngram(["a"], order=2, alpha=alpha)

    @pytest.mark.parametrize("alpha,counts", [
        (1e308, {}),  # alpha * 2 extension tokens is inf
        (1e307, {"<s>": {"a": 17 * 10**307}}),  # the count sum plus 2e307 is inf
        (1e-300, {"<s>": {"a": 10**300}}),  # alpha over the total rounds to 0
    ], ids=["alpha-overflow", "total-overflow", "unseen-underflow"])
    def test_alpha_must_fit_the_counts(self, alpha, counts):
        # each would divide by inf or take the log of 0 when the row is made
        message = re.escape(f"alpha {alpha!r} does not fit these counts")
        with pytest.raises(ValueError, match=message):
            NgramModel(self.VOCAB, 2, alpha, counts)

    def test_alpha_at_the_edge_of_the_counts_is_accepted(self):
        # 1e307 + 1e307 * 2 and 5e-324 / (1 + 1e-323) are finite and > 0
        for alpha, counts in ((1e307, {"<s>": {"a": 10**307}}), (5e-324, {"<s>": {"a": 1}})):
            row = NgramModel(self.VOCAB, 2, alpha, counts).next_logprobs("", (0,))
            assert all(-math.inf < lp <= 0.0 for lp in self.VOCAB.extension_values(row))

    @pytest.mark.parametrize("count", [-1, 1.5, 2.0, "1", None])
    def test_counts_must_be_integers_ge_0(self, count):
        with pytest.raises(ValueError, match="count"):
            NgramModel(self.VOCAB, 2, 0.5, {"<s>": {"a": 1, "</s>": count}})

    @pytest.mark.parametrize("counts", [[], {"<s>": [1, 2]}, {"<s>": None}])
    def test_counts_must_be_objects(self, counts):
        with pytest.raises(ValueError, match="count"):
            NgramModel(self.VOCAB, 2, 0.5, counts)

    @pytest.mark.parametrize("rows,default,match", [
        ({}, {"a": 0.5, "typo": 0.5}, "row '<default>' names 'typo'"),
        ({"": {"a": 0.5, "<s>": 0.5}}, {"a": 1.0}, "row '' names '<s>'"),
        ({"zz": {"a": 1.0}}, {"a": 1.0}, "row key 'zz' names 'zz'"),
    ])
    def test_table_names_only_vocabulary_tokens(self, rows, default, match):
        # the first two would serve a row of mass 0.5; the last could
        # never be reached
        with pytest.raises(ValueError, match=match):
            TableModel(self.VOCAB, rows, default)

    @pytest.mark.parametrize("target", ["zz", "<s>"])
    def test_counts_name_only_extension_tokens(self, target):
        # {"a": 1, "zz": 5} would serve a row of mass 0.286
        with pytest.raises(ValueError, match=f"history '<s>' names '{target}'"):
            NgramModel(self.VOCAB, 2, 0.5, {"a": {"a": 1}, "<s>": {"a": 1, target: 5}})

    def test_zero_count_is_accepted(self):
        model = NgramModel(self.VOCAB, 2, 0.5, {"<s>": {"a": 0, "</s>": 2}})
        row = model.next_logprobs("", (0,))
        assert row[1] == math.log(0.5 / 3.0)
        assert row[2] == math.log(2.5 / 3.0)


class TestRowBoundaries:
    """Every place a row is made rejects a positive and a NaN value. Model
    construction is covered by ``TestModelValidation``."""

    VOCAB = Vocabulary(["<s>", "a", "</s>"])

    @pytest.mark.parametrize("lps", [
        [1e-300, NEG_INF], [0.5, -1.0], [math.inf, NEG_INF],
        [math.nan, -1.0], [-1.0, math.nan], [math.nan, 0.5],
    ])
    def test_row_of_rejects_a_positive_or_nan_value(self, lps):
        with pytest.raises(ValueError, match="must be <= 0 and not NaN"):
            Row.of(self.VOCAB, lps)

    def test_row_spans_the_vocabulary_with_minus_inf_at_bos(self):
        vocab = Vocabulary(("x", "</s>", "<s>", "y"))
        row = Row.of(vocab, [-1.0, -2.0, -3.0])
        assert row == (-1.0, -2.0, NEG_INF, -3.0)
        assert dict(row) == {0: -1.0, 1: -2.0, 3: -3.0}
        assert vocab.extension_values(row) == (-1.0, -2.0, -3.0)

    @pytest.mark.parametrize("tokens,bos,eos", [(("<s>", "</s>"), 0, 1), (("</s>", "<s>"), 1, 0)])
    def test_two_token_vocabulary_reads_a_tuple(self, tokens, bos, eos):
        vocab = Vocabulary(tokens)
        assert (vocab.bos_id, vocab.eos_id) == (bos, eos)
        row = Row.of(vocab, [0.0])
        assert row[vocab.bos_id] == NEG_INF and vocab.extension_values(row) == (0.0,)

    def test_ngram_rows_are_checked_where_they_are_made(self):
        # a model changed after construction still cannot reach a decoder
        # with a bad row: (1 + 0.6) / (1 - 1 + 0.6 * 2) is 4/3, and alpha
        # NaN is NaN
        model = NgramModel(self.VOCAB, 2, 0.6, {"<s>": {"a": 1}, "a": {"a": 1}})
        model.counts["<s>"]["zz"] = -1
        with pytest.raises(ValueError, match="must be <= 0 and not NaN"):
            model.next_logprobs("", (0,))
        model.alpha = math.nan
        with pytest.raises(ValueError, match="must be <= 0 and not NaN"):
            model.next_logprobs("", (0, 1))
        with pytest.raises(ValueError, match="alpha"):
            NgramModel(self.VOCAB, 2, math.nan, {})

    @pytest.mark.parametrize("value", [0.25, math.nan])
    def test_counting_scorer_checks_a_third_party_row(self, value):
        class DictScorer:
            vocabulary = self.VOCAB

            def next_logprobs(self, context, prefix):
                return {1: value, 2: -1.0}

            def next_logprobs_batch(self, context, prefixes):
                return [self.next_logprobs(context, p) for p in prefixes]

        counted = CountingScorer(DictScorer())
        with pytest.raises(ValueError, match="must be <= 0 and not NaN"):
            counted.next_logprobs("", (0,))
        with pytest.raises(ValueError, match="must be <= 0 and not NaN"):
            counted.next_logprobs_batch("", [(0,)])

    def test_counting_scorer_passes_rows_through_and_converts_mappings(self, tiny3):
        row = tiny3.next_logprobs("", (0,))
        assert CountingScorer(tiny3).next_logprobs("", (0,)) is row

        class DictScorer:
            vocabulary = tiny3.vocabulary

            def next_logprobs(self, context, prefix):
                row = tiny3.next_logprobs(context, prefix)
                return dict(zip(self.vocabulary.extension_ids,
                                self.vocabulary.extension_values(row)))

        converted = CountingScorer(DictScorer()).next_logprobs("", (0,))
        assert type(converted) is Row and converted == row


class TestLazyRows:
    def test_construction_computes_no_row_per_history(self, monkeypatch):
        # 2,000 words and 2,000 bigram histories: one row per history
        # would be 4e6 entries
        words = [f"w{i}" for i in range(2000)]
        vocab = Vocabulary(["<s>"] + words + ["</s>"])
        counts = {w: {words[(i + 1) % len(words)]: 1} for i, w in enumerate(words)}
        rows_built = []
        log_row = NgramModel._log_row
        monkeypatch.setattr(NgramModel, "_log_row",
                            lambda self, c: rows_built.append(c) or log_row(self, c))
        model = NgramModel(vocab, 2, 0.5, counts)
        assert rows_built == [{}]  # the shared unseen row only
        w5 = vocab.tokens.index("w5")
        row = model.next_logprobs("", (0, w5))
        assert model.next_logprobs("w5", (0,)) is row
        assert rows_built == [{}, {"w6": 1}]
        assert model.next_logprobs("", (0,)) is model.next_logprobs("x", (0,))  # unseen
        assert len(rows_built) == 2
        assert len(model._rows) == 1  # no entry for an unseen history

    def test_out_of_vocabulary_context_word_finds_its_count_history(self):
        vocab = Vocabulary(["<s>", "a", "</s>"])
        model = NgramModel(vocab, 3, 0.5, {"zz a": {"</s>": 3}, "a zz": {"a": 1}})
        row = model.next_logprobs("zz", (0, 1))
        assert row[2] == math.log(3.5 / 4.0)
        assert model.next_logprobs("zz a", (0,)) is row
        assert model.next_logprobs("a zz", (0,))[1] == math.log(1.5 / 2.0)
        assert model.next_logprobs("b zz", (0,)) is model.next_logprobs("", (0,))  # unseen

    def test_training_computes_no_row(self, monkeypatch):
        rows_built = []
        log_row = NgramModel._log_row
        monkeypatch.setattr(NgramModel, "_log_row",
                            lambda self, c: rows_built.append(c) or log_row(self, c))
        train_ngram([f"w{i} w{i + 1}" for i in range(500)], 3, 0.5)
        assert rows_built == [{}]


class TestTrainedBytes:
    # recorded before rows were kept between calls and training was streamed
    DIGESTS = {
        (2, 0.5): "5163894dfed161828783bcd9bd4c0e4dfbe9f39a8e566eb1f10297138161a649",
        (2, 0.05): "2dc56886ac9a8e999abadf4b11c8c12dcd882b3812485cec327096d3b80ca16b",
        (3, 0.5): "7c29a0aed43264e6238f24b697715bae1cf8dba713bd9ac5cb10f869a9d91639",
        (3, 0.05): "b690749ca96b4a9639cc147c7fdddbd7aff98dbaff658aff1058d8b7a766404d",
    }

    @pytest.mark.parametrize("order,alpha", sorted(DIGESTS))
    def test_saved_model_bytes_are_unchanged(self, tmp_path, order, alpha):
        corpus = Path(__file__).parent / "data" / "corpus.txt"
        with open(corpus, encoding="utf-8") as lines:  # streamed, not a list
            model = train_ngram(lines, order, alpha)
        path = tmp_path / "model.json"
        write_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[order, alpha]

    def test_a_generator_corpus_trains_the_same_model(self):
        lines = ["a b a", "", "b a b b"]
        assert train_ngram(iter(lines), 3, 0.5).to_json() == train_ngram(lines, 3, 0.5).to_json()
