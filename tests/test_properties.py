"""Property tests over generated models (needs the ``test`` extra's
``hypothesis``). Examples are derandomized, so every run checks the same
cases."""

import math
from operator import itemgetter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from seqdec.core import Hypothesis, Vocabulary  # noqa: E402
from seqdec.decode import _hypothesis, _ranked  # noqa: E402
from seqdec.scorers import CountingScorer, NgramModel, TableModel, UniformModel  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

WORDS = ["a", "b", "c", "d"]


def vocabulary(n_words: int) -> Vocabulary:
    return Vocabulary.from_tokens(["<s>"] + WORDS[:n_words] + ["</s>"])


# ------------------------------------------------------------ n-gram rows


def reference_ngram_row(model: NgramModel, context: str, prefix) -> dict:
    """The add-alpha row as it was computed on every call before rows
    were kept between calls."""
    vocab = model.vocabulary
    bos = vocab.tokens[vocab.bos_id]
    history = context.split() + [vocab.tokens[i] for i in prefix[1:]]
    n = model.order - 1
    key = " ".join(([bos] * n + history)[-n:]) if n else ""
    ctx_counts = model.counts.get(key, {})
    ext = vocab.extension_ids
    total = sum(ctx_counts.values()) + model.alpha * len(ext)
    return {tid: math.log((ctx_counts.get(vocab.tokens[tid], 0) + model.alpha) / total)
            for tid in ext}


@st.composite
def ngram_cases(draw):
    n_words = draw(st.integers(1, 3))
    vocab = vocabulary(n_words)
    order = draw(st.integers(1, 4))
    alpha = draw(st.floats(min_value=1e-6, max_value=100.0))
    words = WORDS[:n_words]
    history = st.lists(st.sampled_from(["<s>"] + words), min_size=order - 1,
                       max_size=order - 1).map(" ".join)
    counts = draw(st.dictionaries(history, st.dictionaries(
        st.sampled_from(words + ["</s>"]), st.integers(0, 40)), max_size=8))
    model = NgramModel(vocab, order, alpha, counts)
    ids = list(range(1, n_words + 1))
    queries = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(words + ["x"]), max_size=3).map(" ".join),
        st.lists(st.sampled_from(ids), max_size=4),
        st.booleans()), min_size=1, max_size=6))
    return model, [(context, (0, *tail) + ((vocab.eos_id,) if eos else ()))
                   for context, tail, eos in queries]


@PROPERTY
@given(ngram_cases())
def test_kept_ngram_rows_equal_the_formula_bit_for_bit(case):
    model, queries = case
    for _ in range(2):  # a row is computed on the first call and kept for the second
        for context, prefix in queries:
            row = model.next_logprobs(context, prefix)
            want = reference_ngram_row(model, context, prefix)
            assert [(tid, lp.hex()) for tid, lp in row.items()] == \
                [(tid, lp.hex()) for tid, lp in want.items()]


# ------------------------------------------------------------ ranking


def reference_ranked(counted: CountingScorer, context: str, beam) -> list:
    """The ranking as it was: the beam in its given order, then one sort
    on score and the full token tuple."""
    ext = counted.vocabulary.extension_ids
    entries = []
    for h in beam:
        if h.complete:
            counted.charge()
            entries.append((-h.cum_logprob, h.tokens, h, None))
            continue
        row = counted.next_logprobs(context, h.tokens)
        entries += [(-(h.cum_logprob + row[tid]), h.tokens + (tid,), h, row[tid])
                    for tid in ext]
    entries.sort(key=itemgetter(0, 1))
    return entries


def _plain(entries):
    return [(neg.hex(), tokens, id(parent), lp) for neg, tokens, parent, lp in entries]


@st.composite
def dyadic_rows(draw, n_ext: int):
    """A row whose probabilities are multiples of 1/8, so equal scores
    (and zero probabilities) are common and exact."""
    units = draw(st.lists(st.integers(0, n_ext - 1), min_size=8, max_size=8))
    return [units.count(i) / 8 for i in range(n_ext)]


@st.composite
def dyadic_table_models(draw):
    n_words = draw(st.integers(1, 3))
    vocab = vocabulary(n_words)
    ext = [vocab.tokens[i] for i in vocab.extension_ids]
    words = WORDS[:n_words]
    keys = draw(st.lists(st.lists(st.sampled_from(words), max_size=3).map(" ".join),
                         unique=True, max_size=10))
    rows = {key: dict(zip(ext, draw(dyadic_rows(len(ext))))) for key in keys}
    return TableModel(vocab, rows, dict(zip(ext, draw(dyadic_rows(len(ext))))))


@PROPERTY
@given(dyadic_table_models(), st.integers(1, 5), st.sampled_from(["raw", "practical"]),
       st.data())
def test_ranked_equals_the_full_canonical_sort(model, k, mode, data):
    eos = model.vocabulary.eos_id
    beam = [Hypothesis.initial(model.vocabulary)]
    for _ in range(4):
        shuffled = data.draw(st.permutations(beam))
        counted, ref_counted = CountingScorer(model), CountingScorer(model)
        entries = _ranked(counted, "", shuffled)
        assert _plain(entries) == _plain(reference_ranked(ref_counted, "", beam))
        assert counted.calls == ref_counted.calls == len(beam)
        beam = [_hypothesis(e, eos) for e in entries[:k]]
        if mode == "practical":
            beam = [h for h in beam if not h.complete]
        if not beam:
            break


# ------------------------------------------------------------ read-only rows


any_model = st.one_of(
    dyadic_table_models(),
    ngram_cases().map(itemgetter(0)),
    st.integers(1, 3).map(lambda n: UniformModel(vocabulary(n))),
)


@PROPERTY
@given(any_model, st.data(), st.floats(allow_nan=False))
def test_rows_are_read_only_and_shared(model, data, value):
    vocab = model.vocabulary
    prefix = (0, *data.draw(st.lists(st.sampled_from(vocab.core_ids), max_size=3)))
    row = model.next_logprobs("", prefix)
    before = dict(row)
    tid = data.draw(st.sampled_from(vocab.extension_ids))
    with pytest.raises(TypeError):
        row[tid] = value
    with pytest.raises(TypeError):
        del row[tid]
    copy = dict(row)
    copy[tid] = value
    again = model.next_logprobs("", prefix)
    assert again is row and dict(again) == before
