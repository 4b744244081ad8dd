"""Property tests over generated models (needs the ``test`` extra's
``hypothesis``). Examples are derandomized, so every run checks the same
cases."""

import json
import math
from dataclasses import replace
from operator import itemgetter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from seqdec.core import (  # noqa: E402
    NEG_INF,
    DecodeConfig,
    DecodeInput,
    Hypothesis,
    Row,
    Vocabulary,
    extend,
)
from seqdec.decode import _cursors, _popped, decode  # noqa: E402
from seqdec.oracle import enumerate_all  # noqa: E402
from seqdec.remote import _respond, _row  # noqa: E402
from seqdec.scorers import CountingScorer, NgramModel, TableModel  # noqa: E402

from conftest import (  # noqa: E402
    PrefixRecorder,
    assert_lhbs_steps_match_reference,
    lookahead,
    reference_eval_lookahead,
    uniform_model,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

WORDS = ["a", "b", "c", "d"]
INP = DecodeInput("p")


@st.composite
def vocabularies(draw):
    """One to three words, with BOS and EOS anywhere in the token order."""
    n_words = draw(st.integers(1, 3))
    return Vocabulary(draw(st.permutations(["<s>"] + WORDS[:n_words] + ["</s>"])))


def words_of(vocab: Vocabulary) -> list[str]:
    return [vocab.tokens[i] for i in vocab.core_ids]


def assert_row_is(row, want: dict, vocab: Vocabulary) -> None:
    """``row`` spans the vocabulary, holds ``want`` bit for bit at every
    extension id and -inf at BOS, and its extension values are ``want``'s,
    in extension-id order."""
    ext = vocab.extension_ids
    assert len(row) == len(vocab.tokens) and row[vocab.bos_id] == NEG_INF
    assert [row[tid].hex() for tid in ext] == [want[tid].hex() for tid in ext]
    assert list(zip(ext, vocab.extension_values(row))) == list(want.items())


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
    vocab = draw(vocabularies())
    order = draw(st.integers(1, 4))
    alpha = draw(st.floats(min_value=1e-6, max_value=100.0))
    words = words_of(vocab)
    history = st.lists(st.sampled_from(["<s>"] + words), min_size=order - 1,
                       max_size=order - 1).map(" ".join)
    counts = draw(st.dictionaries(history, st.dictionaries(
        st.sampled_from(words + ["</s>"]), st.integers(0, 40)), max_size=8))
    model = NgramModel(vocab, order, alpha, counts)
    queries = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(words + ["x"]), max_size=3).map(" ".join),
        st.lists(st.sampled_from(vocab.core_ids), max_size=4),
        st.booleans()), min_size=1, max_size=6))
    return model, [(context, (vocab.bos_id, *tail) + ((vocab.eos_id,) if eos else ()))
                   for context, tail, eos in queries]


@PROPERTY
@given(ngram_cases())
def test_kept_ngram_rows_equal_the_formula_bit_for_bit(case):
    model, queries = case
    for _ in range(2):  # a row is computed on the first call and kept for the second
        for context, prefix in queries:
            assert_row_is(model.next_logprobs(context, prefix),
                          reference_ngram_row(model, context, prefix), model.vocabulary)


# ------------------------------------------------------------ ranking


def reference_ranked(counted: CountingScorer, context: str, beam) -> list:
    """The ranking as it was: the beam of nodes in its given order, then
    one sort on score and the full token tuple."""
    ext, eos = counted.vocabulary.extension_ids, counted.vocabulary.eos_id
    entries = []
    for node in beam:
        neg, tokens, _ = node
        if tokens[-1] == eos:
            counted.charge(1)
            entries.append(node)
            continue
        row = counted.next_logprobs(context, tokens)
        entries += [(-(-neg + row[tid]), tokens + (tid,), node, row[tid]) for tid in ext]
    entries.sort(key=itemgetter(0, 1))
    return entries


def _node(entry):
    """The node a reference entry stands for; a carried node is itself."""
    return entry if len(entry) == 3 else (entry[0], entry[1], entry[2][2] + (entry[3],))


@st.composite
def dyadic_rows(draw, n_ext: int):
    """A row whose probabilities are multiples of 1/8, so equal scores
    (and zero probabilities) are common and exact."""
    units = draw(st.lists(st.integers(0, n_ext - 1), min_size=8, max_size=8))
    return [units.count(i) / 8 for i in range(n_ext)]


@st.composite
def dyadic_table_models(draw):
    vocab = draw(vocabularies())
    ext = [vocab.tokens[i] for i in vocab.extension_ids]
    words = words_of(vocab)
    keys = draw(st.lists(st.lists(st.sampled_from(words), max_size=3).map(" ".join),
                         unique=True, max_size=10))
    rows = {key: dict(zip(ext, draw(dyadic_rows(len(ext))))) for key in keys}
    return TableModel(vocab, rows, dict(zip(ext, draw(dyadic_rows(len(ext))))))


def reference_table_row(model: TableModel, prefix) -> dict:
    """The table row as it was built when rows were mappings."""
    vocab = model.vocabulary
    probs = model.rows.get(" ".join(vocab.to_strings(prefix[1:])), model.default_row)
    ps = {tid: probs.get(vocab.tokens[tid], 0.0) for tid in vocab.extension_ids}
    return {tid: math.log(p) if p > 0.0 else NEG_INF for tid, p in ps.items()}


@PROPERTY
@given(dyadic_table_models(), st.data())
def test_table_rows_equal_the_formula_bit_for_bit(model, data):
    vocab = model.vocabulary
    for _ in range(4):
        prefix = (vocab.bos_id, *data.draw(st.lists(st.sampled_from(vocab.core_ids), max_size=3)))
        assert_row_is(model.next_logprobs("", prefix), reference_table_row(model, prefix), vocab)


@PROPERTY
@given(dyadic_table_models(), st.integers(1, 5), st.sampled_from(["raw", "practical"]),
       st.data())
def test_ranked_equals_the_full_canonical_sort(model, k, mode, data):
    eos = model.vocabulary.eos_id
    beam = [(-0.0, (model.vocabulary.bos_id,), ())]
    for _ in range(4):
        shuffled = data.draw(st.permutations(beam))
        counted, ref_counted = CountingScorer(model), CountingScorer(model)
        nodes = list(_popped(_cursors(counted, "", shuffled)))
        want = map(_node, reference_ranked(ref_counted, "", beam))
        assert [(n[0].hex(), *n[1:]) for n in nodes] == [(n[0].hex(), *n[1:]) for n in want]
        assert counted.calls == ref_counted.calls == len(beam)
        beam = nodes[:k]
        if mode == "practical":
            beam = [h for h in beam if h[1][-1] != eos]
        if not beam:
            break


@PROPERTY
@given(dyadic_table_models(), st.integers(1, 4), st.data())
def test_lookahead_equals_the_reference(model, d, data):
    # d >= 3 opens a level below the root's, so only then is the walk's
    # stack more than one level deep
    vocab = model.vocabulary
    h = Hypothesis.initial(vocab)
    for tid in data.draw(st.lists(st.sampled_from(vocab.core_ids), max_size=2)):
        h = extend(h, tid, model.next_logprobs("", h.tokens)[tid], vocab.eos_id)
    f_max = data.draw(st.one_of(st.just(NEG_INF), st.just(h.cum_logprob),
                                st.floats(0.0, 4.0).map(lambda x: h.cum_logprob - x)))
    got, want = CountingScorer(PrefixRecorder(model)), CountingScorer(PrefixRecorder(model))
    assert (lookahead(got, "", h, d, f_max).hex()
            == reference_eval_lookahead(want, "", h, d, f_max).hex())
    assert got.inner.asked == want.inner.asked
    assert got.calls == want.calls


# ------------------------------------------------------------ decoders


MODES = st.sampled_from(["raw", "practical"])


@PROPERTY
@given(dyadic_table_models(), st.integers(1, 5), st.integers(1, 4), MODES)
def test_proposition1_lbs_at_depth_0_is_beam_search(model, k, n_max, mode):
    config = DecodeConfig(beam_width=k, max_len=n_max, mode=mode)
    assert (decode(model, INP, replace(config, strategy="lbs"))
            == decode(model, INP, replace(config, strategy="beam")))


@PROPERTY
@given(dyadic_table_models(), st.integers(1, 4))
def test_pruned_exhaustive_search_is_the_enumeration_argmax(model, n_max):
    best = decode(model, INP, DecodeConfig(max_len=n_max, strategy="exhaustive")).best
    tokens, score = min(enumerate_all(model, INP, n_max), key=lambda ts: (-ts[1], ts[0]))
    assert (best.tokens, best.cum_logprob.hex()) == (tokens, score.hex())


@PROPERTY
@given(dyadic_table_models(), st.integers(1, 5), MODES)
def test_lhbs_equals_the_reference_at_every_step(model, k, mode):
    # exact ties are common here, so the canonical tie-break of each pool
    # is checked as well as the slot rule
    assert_lhbs_steps_match_reference(model, INP, k, 4, mode)


# ------------------------------------------------------------ read-only rows


any_model = st.one_of(
    dyadic_table_models(),
    ngram_cases().map(itemgetter(0)),
    vocabularies().map(uniform_model),
)


@PROPERTY
@given(any_model, st.data(), st.floats(allow_nan=False))
def test_rows_are_read_only_and_shared(model, data, value):
    vocab = model.vocabulary
    prefix = (vocab.bos_id, *data.draw(st.lists(st.sampled_from(vocab.core_ids), max_size=3)))
    row = model.next_logprobs("", prefix)
    before = vocab.extension_values(row)
    tid = data.draw(st.sampled_from(vocab.extension_ids))
    with pytest.raises(TypeError):
        row[tid] = value
    with pytest.raises(TypeError):
        del row[tid]
    copy = dict(row)
    copy[tid] = value
    again = model.next_logprobs("", prefix)
    assert again is row and vocab.extension_values(again) == before


# ------------------------------------------------------------ wire rows


@st.composite
def wire_rows(draw):
    """A normalized row: either one value within 1e-9 of 0 (0.0, -0.0 and
    subnormals included) among -inf and values below -50, down to the
    lowest float; or the logs of integer weights, -inf for a zero weight."""
    vocab = draw(vocabularies())
    n = len(vocab.extension_ids)
    if draw(st.booleans()):
        top = draw(st.floats(min_value=-1e-9, max_value=0.0))
        rest = draw(st.lists(st.one_of(st.just(NEG_INF), st.floats(max_value=-50.0)),
                             min_size=n - 1, max_size=n - 1))
        values = rest[:]
        values.insert(draw(st.integers(0, n - 1)), top)
    else:
        weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
        values = [math.log(w / sum(weights)) if w else NEG_INF for w in weights]
    return Row.of(vocab, values)


class _KeptRow:
    """Returns one kept row on every call."""

    def __init__(self, row):
        self.row = row
        self.vocabulary = row.vocabulary

    def next_logprobs(self, context, prefix):
        return self.row


@PROPERTY
@given(wire_rows())
def test_rows_cross_the_wire_bit_for_bit(row):
    vocab = row.vocabulary
    counted = CountingScorer(_KeptRow(row))
    line = json.dumps({"id": 1, "context": "", "prefixes": [["<s>"], ["<s>"]]}).encode()
    numbers = {}
    # the first reply sends the row's values, then its number; later ones the number
    values, number = json.loads(_respond(counted, numbers, line))["rows"]
    back = _row(vocab, values)
    assert [v.hex() for v in back] == [v.hex() for v in row]
    assert number == 0 and json.loads(_respond(counted, numbers, line))["rows"] == [0, 0]
