import hashlib
import json
import math
import os
import re
import socket
import stat
from pathlib import Path

import pytest

from seqdec import cli
from seqdec.cli import main
from seqdec.core import Vocabulary
from seqdec.remote import RemoteScorer, ScorerServer
from seqdec.scorers import TableModel

from conftest import make_tiny3, random_table_model, write_model


@pytest.fixture
def tiny3_files(tmp_path):
    model_path = tmp_path / "tiny3.json"
    write_model(make_tiny3(), model_path)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"id": "s1", "context": ""}\n')
    return tmp_path, str(model_path), str(corpus_path)


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


class TestDecodeCommand:
    def test_beam_decode_record(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        out = str(tmp / "out.jsonl")
        rc = main(["decode", "--strategy", "beam", "--k", "2", "--max-len", "3",
                   "--model", model, "--input", corpus, "--output", out])
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 1
        rec = records[0]
        assert rec["tokens"] == ["a", "</s>"]
        assert rec["score"] == pytest.approx(math.log(0.35), abs=1e-9)
        assert rec["strategy"] == "beam" and rec["k"] == 2
        assert rec["nll"] == pytest.approx(-math.log(0.35), abs=1e-9)
        assert rec["length"] == 2

    def test_missing_model_is_usage_error(self, tiny3_files, capsys):
        tmp, _, corpus = tiny3_files
        rc = main(["decode", "--strategy", "beam", "--input", corpus,
                   "--output", str(tmp / "o.jsonl")])
        assert rc == 2

    def test_unreadable_input(self, tiny3_files):
        tmp, model, _ = tiny3_files
        rc = main(["decode", "--strategy", "beam", "--model", model,
                   "--input", str(tmp / "nope.jsonl"), "--output", str(tmp / "o.jsonl")])
        assert rc == 2

    def test_budget_refusal(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        out = str(tmp / "o.jsonl")
        rc = main(["decode", "--strategy", "exhaustive", "--max-len", "25",
                   "--model", model, "--input", corpus, "--output", out])
        assert rc == 4
        assert not os.path.exists(out)  # no partial output

    def test_reproducible_bytes_modulo_walltime(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = str(tmp / name)
            assert main(["decode", "--strategy", "lhbs", "--k", "2", "--max-len", "3",
                         "--model", model, "--input", corpus, "--output", out]) == 0
            records = read_jsonl(out)
            for r in records:
                r.pop("wall_time_ms")
            outs.append(records)
        assert outs[0] == outs[1]

    def test_empty_corpus_writes_an_empty_file(self, tiny3_files):
        tmp, model, _ = tiny3_files
        empty = tmp / "empty.jsonl"
        empty.write_text("\n")
        out = tmp / "o.jsonl"
        rc = main(["decode", "--strategy", "beam", "--model", model,
                   "--input", str(empty), "--output", str(out)])
        assert rc == 0
        assert out.read_bytes() == b""  # not one blank JSONL line

    @pytest.mark.parametrize("given,message", [
        (["--model", "{vocab}"], "cannot load model {vocab}: 'rows'"),
        (["--endpoint", "127.0.0.1:1"], "--model (vocabulary file) required for remote scorer"),
    ], ids=["no-endpoint", "no-model"])
    def test_remote_scorer_without_endpoint_or_model_exits_2(self, tiny3_files, capsys,
                                                             given, message):
        # without --endpoint a vocabulary file is read as a model, and it
        # names no rows
        tmp, _, corpus = tiny3_files
        vocab = tmp / "vocab.json"
        vocab.write_text('{"vocab": ["<s>", "a", "b", "</s>"]}')
        rc = main(["decode", "--strategy", "beam", *[g.format(vocab=vocab) for g in given],
                   "--input", corpus, "--output", str(tmp / "o.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message.format(vocab=vocab)}\n"

    def test_remote_transport_failure(self, tiny3_files, capsys):
        # --endpoint alone picks the remote scorer, though the file is a
        # whole model: nothing listens, so it is not decoded in process
        tmp, model, corpus = tiny3_files
        rc = main(["decode", "--strategy", "beam", "--model", model, "--endpoint", "127.0.0.1:1",
                   "--input", corpus, "--output", str(tmp / "o.jsonl")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("transport error: ")
        assert not (tmp / "o.jsonl").exists()

    def test_scorer_option_is_gone(self, tiny3_files, capsys):
        tmp, model, corpus = tiny3_files
        rc = main(["decode", "--strategy", "beam", "--scorer", "ngram", "--model", model,
                   "--input", corpus, "--output", str(tmp / "o.jsonl")])
        assert rc == 2
        assert "unrecognized arguments: --scorer ngram" in capsys.readouterr().err
        assert not (tmp / "o.jsonl").exists()

    @pytest.mark.parametrize("port", ["0", "-1", "65536", "65537", "x", ""])
    def test_endpoint_port_out_of_range_exits_2(self, tiny3_files, capsys, port):
        # the resolver wrapped 65537 to port 1, so 127.0.0.1:{P + 65536}
        # decoded against a server on port P, and -1 read as a transport
        # failure (exit 3); no connection is tried
        tmp, model, corpus = tiny3_files
        endpoint = f"127.0.0.1:{port}"
        rc = main(["decode", "--strategy", "beam", "--model", model, "--endpoint", endpoint,
                   "--input", corpus, "--output", str(tmp / "o.jsonl")])
        assert rc == 2
        assert f"--endpoint {endpoint}: the port must be 1 to 65535" in capsys.readouterr().err
        assert not (tmp / "o.jsonl").exists()


CORPUS_TXT = str(Path(__file__).parent / "data" / "corpus.txt")


# full precision: report means are summed left to right, so the bytes are
# the same on every supported Python, though sum() is compensated from 3.12 on
def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


DECODE_DIGEST = "43d5594f76b64133d81da20ad1850cafb4b73d4c63597a5707e976eb8a14329e"
TABLE_DECODE_DIGEST = "a912eb52fd6d0b9a354ea006c90e0c4693e7df956ce998ddf27fbaad4556c287"
COMPARE_DIGEST = "8933dfecf1a88c1e07ea9b8d6730b993f96b8f817e4562920991221a4a0df27a"


@pytest.fixture
def bigram_files(tmp_path):
    """A bigram trained on the test corpus, and one decode input per
    corpus line as its context, plus an empty and an unknown context."""
    model = str(tmp_path / "bigram.json")
    assert main(["train", "--input", CORPUS_TXT, "--output", model, "--order", "2"]) == 0
    contexts = [""] + Path(CORPUS_TXT).read_text().splitlines() + ["zebra"]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"s{i}", "context": c}) + "\n"
                              for i, c in enumerate(contexts)))
    return tmp_path, ["--model", model, "--input", str(corpus)]


class TestGoldenOutputs:
    """The CLI's outputs, pinned by digest, so a refactor that changes
    any record or report shows here. No option names the model's kind:
    the file does."""

    @staticmethod
    def decode_all(tmp, common):
        """Every strategy x mode's records, wall times dropped, one JSON
        line each."""
        out = str(tmp / "out.jsonl")
        lines = []
        for strategy in ("greedy", "beam", "lbs", "lhbs", "exhaustive"):
            for mode in ("raw", "practical"):
                assert main(["decode", "--strategy", strategy, "--mode", mode, "--k", "3",
                             "--d", "2", "--max-len", "6", *common, "--output", out]) == 0
                for record in read_jsonl(out):
                    del record["wall_time_ms"]
                    lines.append(json.dumps(record))
        return lines

    def test_decode_records(self, bigram_files):
        tmp, common = bigram_files
        lines = self.decode_all(tmp, common)
        assert len(lines) == 320
        assert _digest("\n".join(lines)) == DECODE_DIGEST

    def test_table_decode_records(self, bigram_files):
        tmp, common = bigram_files
        model = tmp / "table.json"
        write_model(random_table_model(7, 4, 3), model)
        common[common.index("--model") + 1] = str(model)
        lines = self.decode_all(tmp, common)
        assert len(lines) == 320
        assert _digest("\n".join(lines)) == TABLE_DECODE_DIGEST

    def test_compare_report(self, bigram_files):
        tmp, common = bigram_files
        out = tmp / "report.csv"
        assert main(["compare", "--runs", "greedy,beam,lbs:1,lbs:2,lhbs", "--ks", "2,3",
                     "--max-len", "6", *common, "--output", str(out)]) == 0
        assert _digest(out.read_text()) == COMPARE_DIGEST


class TestCompareCommand:
    def test_sweep_row_count(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        out = tmp / "report.csv"
        rc = main(["compare", "--runs", "beam,lbs:1,lhbs", "--ks", "2,4",
                   "--max-len", "3", "--mode", "raw",
                   "--model", model, "--input", corpus, "--output", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("strategy,k,d,mean_nll,delta_nll_vs_beam")
        assert len(lines) == 7

    def test_missing_beam_baseline(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        rc = main(["compare", "--runs", "lbs:1,lhbs", "--ks", "2",
                   "--model", model, "--input", corpus,
                   "--output", str(tmp / "r.csv")])
        assert rc == 2

    def test_empty_runs_exits_2(self, tiny3_files, capsys):
        tmp, model, corpus = tiny3_files
        rc = main(["compare", "--runs", ",", "--ks", "2",
                   "--model", model, "--input", corpus, "--output", str(tmp / "r.csv")])
        assert rc == 2
        assert "empty --runs specification" in capsys.readouterr().err
        assert not (tmp / "r.csv").exists()

    def test_empty_corpus(self, tiny3_files, tmp_path):
        tmp, model, _ = tiny3_files
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["compare", "--runs", "beam", "--ks", "2",
                   "--model", model, "--input", str(empty),
                   "--output", str(tmp / "r.csv")])
        assert rc == 2


@pytest.mark.parametrize("obj", [
    {"vocab": ["<s>", "a", "</s>"], "rows": {}, "default": {"a": 0.5, "typo": 0.5}},
    {"vocab": ["<s>", "a", "</s>"], "order": 2, "alpha": 0.5,
     "counts": {"<s>": {"a": 1, "zz": 5}}},
], ids=["table-obj0", "ngram-obj1"])
def test_model_naming_a_token_outside_the_vocabulary_exits_2(tmp_path, capsys, obj):
    # such a model would serve rows that do not sum to 1
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "s1", "context": ""}\n')
    out = tmp_path / "out.jsonl"
    rc = main(["decode", "--strategy", "beam", "--k", "2", "--max-len", "3",
               "--model", str(model), "--input", str(corpus), "--output", str(out)])
    assert rc == 2
    assert "not an extension token" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("obj", [
    {"vocab": ["<s>", "a b", "a", "b", "</s>"], "rows": {"a b": {"</s>": 1.0}},
     "default": {"a b": 0.25, "a": 0.25, "b": 0.25, "</s>": 0.25}},
    {"vocab": ["<s>", "a b", "a", "b", "</s>"], "order": 2, "alpha": 0.5,
     "counts": {"<s>": {"a b": 1}}},
], ids=["table-obj0", "ngram-obj1"])
def test_model_with_whitespace_in_a_token_exits_2(tmp_path, capsys, obj):
    # a space-joined key could not tell the token "a b" from [a, b]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "s1", "context": ""}\n')
    out = tmp_path / "out.jsonl"
    rc = main(["decode", "--strategy", "beam", "--k", "2", "--max-len", "3",
               "--model", str(model), "--input", str(corpus), "--output", str(out)])
    assert rc == 2
    assert "whitespace" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("obj,message", [
    ({"vocab": ["<s>", "a", "b", "</s>"], "rows": {"a b": {"a": 1.0}, "a  b": {"b": 1.0}},
      "default": {"</s>": 1.0}}, "row keys 'a b' and 'a  b' name the same prefix"),
    ({"vocab": ["<s>", "a", "</s>"], "order": 2, "alpha": 0.5,
      "counts": {"a": {"a": 1}, " a": {"</s>": 1}}},
     "histories 'a' and ' a' name the same tokens"),
    ({"vocab": ["<s>", "a", "</s>"], "order": 2, "alpha": 0.5,
      "counts": {"<s> a": {"a": 1}}}, "history '<s> a' must hold order - 1 = 1 words"),
    ({"vocab": ["<s>", "a", "</s>"], "order": 1, "alpha": 0.5,
      "counts": {"a": {"a": 1}}}, "history 'a' must hold order - 1 = 0 words"),
    ({"vocab": ["<s>", "a", "</s>"], "rows": {"<s>": {"a": 1.0}},
      "default": {"</s>": 1.0}},
     "row key '<s>' names BOS or holds EOS before its end, so no prefix reaches it"),
    ({"vocab": ["<s>", "a", "</s>"], "rows": {"</s> a": {"a": 1.0}},
      "default": {"</s>": 1.0}},
     "row key '</s> a' names BOS or holds EOS before its end, so no prefix reaches it"),
], ids=["table-keys", "ngram-histories", "ngram-long-history", "unigram-history",
        "table-bos-key", "table-interior-eos-key"])
def test_model_key_that_collides_or_cannot_be_reached_exits_2(tmp_path, capsys, obj, message):
    # one of two colliding keys was silently dropped, and a history of the
    # wrong length could never be looked up
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "s1", "context": ""}\n')
    out = tmp_path / "out.jsonl"
    rc = main(["decode", "--strategy", "beam", "--model", str(model),
               "--input", str(corpus), "--output", str(out)])
    assert rc == 2
    assert f"cannot load model {model}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("remote,obj,message", [
    ([], [1], "cannot load model .*: the file does not hold a JSON object"),
    (["--endpoint", "127.0.0.1:1"], [1],
     "cannot load vocabulary from .*: the file does not hold a JSON object"),
    ([], {"vocab": ["<s>", "a", "</s>"], "rows": [], "default": {"a": 1.0}},
     "'rows' must map prefixes to rows"),
    ([], {"vocab": 5, "rows": {}, "default": {"a": 1.0}},
     "'vocab' must be a list of token strings"),
    ([], {"vocab": ["<s>", 1, "</s>"], "rows": {}, "default": {"a": 1.0}},
     "cannot load model .*: token 1 is not a string"),
    ([], {"vocab": ["<s>", "a", "</s>"], "order": "2", "alpha": 0.5, "counts": {}},
     "'order' must be an integer >= 1"),
    ([], {"vocab": ["a", "</s>"], "rows": {}, "default": {"a": 1.0}},
     "cannot load model .*: the tokens hold no '<s>' marker"),
    (["--endpoint", "127.0.0.1:1"], {"vocab": ["<s>", "a"]},
     "cannot load vocabulary from .*: the tokens hold no '</s>' marker"),
], ids=["model-list", "vocabulary-list", "rows-list", "vocab-number", "vocab-non-string",
        "order-string", "vocab-without-bos", "vocabulary-without-eos"])
def test_model_file_of_the_wrong_shape_exits_2(tmp_path, capsys, remote, obj, message):
    # valid JSON that is not a model raised TypeError or AttributeError (exit 1)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "s1", "context": ""}\n')
    out = tmp_path / "out.jsonl"
    rc = main(["decode", "--strategy", "beam", "--model", str(model), *remote,
               "--input", str(corpus), "--output", str(out)])
    assert rc == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("remote,what", [([], "model"),
                                         (["--endpoint", "127.0.0.1:1"], "vocabulary from")],
                         ids=["model", "vocabulary"])
def test_model_file_nested_too_deeply_exits_2(tmp_path, capsys, remote, what):
    # the parser's RecursionError was a traceback (exit 1)
    model = tmp_path / "model.json"
    model.write_text("[" * 100_000 + "]" * 100_000)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "s1", "context": ""}\n')
    out = tmp_path / "out.jsonl"
    rc = main(["decode", "--strategy", "beam", "--model", str(model), *remote,
               "--input", str(corpus), "--output", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: cannot load {what} {model}: "
                                       f"the file is nested too deeply to parse\n")
    assert not out.exists()


@pytest.mark.parametrize("obj,message", [
    ({"vocab": ["<s>", "a", "</s>"], "rows": {}, "default": {"a": 10**400, "</s>": 0}},
     "outside \\[0, 1\\]"),
    ({"vocab": ["<s>", "a", "</s>"], "order": 2, "alpha": 0.5,
      "counts": {"<s>": {"a": 10**400}}}, "whose sum fits a float"),
], ids=["table", "ngram"])
def test_model_holding_a_huge_integer_exits_2(tmp_path, capsys, obj, message):
    # converting 10**400 to a float raised OverflowError (exit 1)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "s1", "context": ""}\n')
    out = tmp_path / "out.jsonl"
    rc = main(["decode", "--strategy", "beam", "--k", "2", "--max-len", "3",
               "--model", str(model), "--input", str(corpus), "--output", str(out)])
    assert rc == 2
    assert re.search("cannot load model .*" + message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("lines,lineno", [
    (['5'], 1),
    (['{"id": "s1"}', '["s2"]'], 2),
    (['{"id": [1]}'], 1),
    (['{"id": null}'], 1),
    (['{"id": true}'], 1),
    (['{"id": "s1", "context": 5}'], 1),
    (['{"id": "s1", "context": null}'], 1),
    (['{"id": 1}', '{"id": "1"}'], 2),  # both would be written as "1"
    (['{"id": "s1"}', '{"id": "s2",'], 2),
    (['{"context": "a"}'], 1),
    # the parser's RecursionError was a traceback (exit 1)
    (['{"id": "s1"}', "[" * 100_000 + "]" * 100_000], 2),
], ids=["scalar", "array", "id-array", "id-null", "id-bool", "context-number",
        "context-null", "duplicate-written-id", "bad-json", "id-missing", "nested-too-deeply"])
def test_bad_corpus_record_exits_2_with_its_line(tmp_path, capsys, lines, lineno):
    model = tmp_path / "tiny3.json"
    write_model(make_tiny3(), model)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.jsonl"
    rc = main(["decode", "--strategy", "beam", "--model", str(model),
               "--input", str(corpus), "--output", str(out)])
    assert rc == 2
    assert f"{corpus}:{lineno}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", [
    ["decode", "--strategy", "beam"],
    ["compare", "--runs", "beam", "--ks", "2"],
    ["oracle", "--max-len", "2"],
    ["train"],
], ids=["decode", "compare", "oracle", "train"])
def test_unwritable_output_exits_2(tiny3_files, capsys, command, target):
    # the temp file could not be made, or could not replace a directory;
    # either was a traceback (exit 1)
    tmp, model, corpus = tiny3_files
    if command == ["train"]:
        source = ["--input", CORPUS_TXT]
    else:
        source = ["--model", model, "--input", corpus]
    out = tmp / "missing" / "out" if target == "missing-directory" else tmp / "out"
    if target == "a-directory":
        out.mkdir()
    rc = main([*command, *source, "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # the path asked for, not the temp file's random name
    assert repr(str(out)) in err and ".seqdec-" not in err
    assert not list(tmp.rglob(".seqdec-*"))


@pytest.mark.parametrize("command", [
    ["decode", "--strategy", "beam"],
    ["train"],
], ids=["decode", "train"])
def test_output_file_gets_the_mode_a_plain_write_gives(tiny3_files, command):
    # the temp file renamed over the output was made 0600 whatever the umask
    tmp, model, corpus = tiny3_files
    source = ["--input", CORPUS_TXT] if command == ["train"] else ["--model", model,
                                                                   "--input", corpus]
    out = tmp / "out"
    umask = os.umask(0o022)
    try:
        assert main([*command, *source, "--output", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


class TestTrainCommand:
    def test_roundtrip_and_determinism(self, tmp_path):
        corpus = tmp_path / "text.txt"
        corpus.write_text("a b a\nb a\n")
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["train", "--input", str(corpus), "--output", str(out1),
                     "--order", "2", "--alpha", "1.0"]) == 0
        assert main(["train", "--input", str(corpus), "--output", str(out2),
                     "--order", "2", "--alpha", "1.0"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        obj = json.loads(out1.read_text())
        assert obj["order"] == 2 and "counts" in obj

    def test_zero_alpha_rejected(self, tmp_path):
        corpus = tmp_path / "text.txt"
        corpus.write_text("a b\n")
        rc = main(["train", "--input", str(corpus), "--output",
                   str(tmp_path / "m.json"), "--alpha", "0"])
        assert rc == 2

    def test_unreadable_input_rejected(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        out = tmp_path / "m.json"
        rc = main(["train", "--input", str(missing), "--output", str(out)])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    def test_empty_corpus_rejected(self, tmp_path):
        corpus = tmp_path / "text.txt"
        corpus.write_text("\n\n")
        rc = main(["train", "--input", str(corpus),
                   "--output", str(tmp_path / "m.json")])
        assert rc == 2

    @pytest.mark.parametrize("text,flags,message", [
        ("a b\n", ["--order", "0"], "'order' must be an integer >= 1"),
        ("a <s> b\n", [], "must not contain the BOS/EOS markers"),
        ("a b </s>\n", [], "must not contain the BOS/EOS markers"),
    ], ids=["order-0", "bos-in-corpus", "eos-in-corpus"])
    def test_bad_order_or_corpus_exits_2(self, tmp_path, capsys, text, flags, message):
        corpus = tmp_path / "text.txt"
        corpus.write_text(text)
        out = tmp_path / "m.json"
        rc = main(["train", "--input", str(corpus), "--output", str(out), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_rejected(self, tmp_path, alpha):
        corpus = tmp_path / "text.txt"
        corpus.write_text("a b\n")
        out = tmp_path / "m.json"
        rc = main(["train", "--input", str(corpus), "--output", str(out), "--alpha", alpha])
        assert rc == 2
        assert not out.exists()

    def test_model_with_a_negative_count_rejected_on_load(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"vocab": ["<s>", "a", "</s>"], "order": 2, "alpha": 0.5,
                                     "counts": {"<s>": {"a": -1, "</s>": 3}}}))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "s1", "context": ""}\n')
        rc = main(["decode", "--strategy", "beam", "--model", str(model),
                   "--input", str(corpus), "--output", str(tmp_path / "o.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot load model" in err and "integer counts >= 0" in err

    def test_alpha_times_the_extension_set_overflowing_rejected(self, tmp_path, capsys):
        # alpha * 3 extension tokens is inf, so building the unseen row took
        # log(alpha / inf) and printed only "error: math domain error"
        corpus = tmp_path / "text.txt"
        corpus.write_text("a b\n")
        out = tmp_path / "m.json"
        rc = main(["train", "--input", str(corpus), "--output", str(out), "--alpha", "1e308"])
        assert rc == 2
        assert "alpha 1e+308 does not fit these counts" in capsys.readouterr().err
        assert not out.exists()

    def test_model_whose_count_sum_plus_alpha_overflows_rejected_on_load(self, tmp_path,
                                                                           capsys):
        # the model loaded and failed mid-decode with "error: math domain error"
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"vocab": ["<s>", "a", "</s>"], "order": 2, "alpha": 1e307,
                                     "counts": {"<s>": {"a": 17 * 10**307}}}))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "s1", "context": ""}\n')
        rc = main(["decode", "--strategy", "beam", "--model", str(model),
                   "--input", str(corpus), "--output", str(tmp_path / "o.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot load model" in err and "alpha 1e+307 does not fit" in err


class TestOracleCommand:
    def test_map_record(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        out = str(tmp / "map.jsonl")
        rc = main(["oracle", "--max-len", "3", "--model", model,
                   "--input", corpus, "--output", out])
        assert rc == 0
        rec = read_jsonl(out)[0]
        assert rec["tokens"] == ["a", "</s>"]
        assert rec["p"] == pytest.approx(0.35)

    def test_enumerate_flag(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        out = str(tmp / "enum.jsonl")
        rc = main(["oracle", "--max-len", "2", "--enumerate", "--model", model,
                   "--input", corpus, "--output", out])
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 3  # one line per complete sequence

    @pytest.mark.parametrize("flags", [[], ["--enumerate"]], ids=["map", "enumerate"])
    def test_empty_corpus_writes_an_empty_file(self, tiny3_files, flags):
        tmp, model, _ = tiny3_files
        empty = tmp / "empty.jsonl"
        empty.write_text("")
        out = tmp / "o.jsonl"
        rc = main(["oracle", *flags, "--max-len", "2", "--model", model,
                   "--input", str(empty), "--output", str(out)])
        assert rc == 0
        assert out.read_bytes() == b""  # not one blank JSONL line

    @pytest.mark.parametrize("max_len", ["0", "-1"])
    @pytest.mark.parametrize("flags", [[], ["--enumerate"]], ids=["map", "enumerate"])
    def test_max_len_below_1_exits_2(self, tiny3_files, flags, max_len, capsys):
        tmp, model, corpus = tiny3_files
        out = tmp / "o.jsonl"
        rc = main(["oracle", *flags, "--max-len", max_len, "--model", model,
                   "--input", corpus, "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: max_len must be >= 1\n"
        assert not out.exists()

    def test_budget_refusal(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        rc = main(["oracle", "--max-len", "20", "--model", model,
                   "--input", corpus, "--output", str(tmp / "o.jsonl")])
        assert rc == 4

    def test_budget_environment_variable_is_not_read(self, tiny3_files, monkeypatch):
        tmp, model, corpus = tiny3_files
        monkeypatch.setenv("SEQDEC_BUDGET", "2")  # 3^2 nodes would exceed it
        out = tmp / "o.jsonl"
        rc = main(["oracle", "--max-len", "2", "--model", model,
                   "--input", corpus, "--output", str(out)])
        assert rc == 0
        assert read_jsonl(str(out))[0]["tokens"] == ["a", "</s>"]

    def test_non_integer_budget_exits_2(self, tiny3_files, capsys):
        tmp, model, corpus = tiny3_files
        out = tmp / "o.jsonl"
        rc = main(["decode", "--strategy", "beam", "--budget", "abc", "--model", model,
                   "--input", corpus, "--output", str(out)])
        assert rc == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err
        assert not out.exists()
        # an integer --budget is used as it is
        rc = main(["decode", "--strategy", "beam", "--budget", "5", "--model", model,
                   "--input", corpus, "--output", str(out)])
        assert rc == 0
        assert read_jsonl(str(out))[0]["tokens"] == ["a", "</s>"]


class TestLookaheadBudgetExit:
    def test_deep_lookahead_exits_4(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        out = str(tmp / "o.jsonl")
        rc = main(["decode", "--strategy", "lbs", "--k", "2", "--d", "1200",
                   "--model", model, "--input", corpus, "--output", out])
        assert rc == 4
        assert not os.path.exists(out)

    def test_deep_exhaustive_search_exits_0(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        out = str(tmp / "o.jsonl")
        rc = main(["decode", "--strategy", "exhaustive", "--max-len", "2000",
                   "--budget", str(2**4000), "--model", model, "--input", corpus,
                   "--output", out])
        assert rc == 0
        assert read_jsonl(out)[0]["tokens"] == ["a", "</s>"]

    def test_lookahead_deeper_than_the_recursion_limit_exits_0(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        vocab = Vocabulary(["<s>", "a", "</s>"])
        write_model(TableModel(vocab, {}, {"a": 0.9, "</s>": 0.1}), model)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "s1", "context": ""}\n')
        out = tmp_path / "o.jsonl"
        rc = main(["decode", "--strategy", "lbs", "--k", "1", "--d", "1100", "--max-len", "2",
                   "--budget", str(2**1100), "--model", str(model), "--input", str(corpus),
                   "--output", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert read_jsonl(str(out))[0]["tokens"] == ["</s>"]

    def test_seed_flag_is_gone(self, tiny3_files):
        tmp, model, corpus = tiny3_files
        rc = main(["--seed", "1", "decode", "--strategy", "beam", "--model", model,
                   "--input", corpus, "--output", str(tmp / "o.jsonl")])
        assert rc == 2


def test_server_error_reply_exits_3(tiny3_files, capsys):
    tmp, model, corpus = tiny3_files

    class PositiveScorer:
        # a row holding a positive value, which the server cannot send
        vocabulary = make_tiny3().vocabulary

        def next_logprobs(self, context, prefix):
            return {1: 0.5, 2: -1.0, 3: -1.0}

    server = ScorerServer(PositiveScorer()).start()
    try:
        host, port = server.address
        rc = main(["decode", "--strategy", "beam", "--model", model,
                   "--endpoint", f"{host}:{port}", "--input", corpus,
                   "--output", str(tmp / "o.jsonl")])
    finally:
        server.shutdown()
        server.server_close()
    assert rc == 3
    assert "server error: ValueError: extension log-probabilities must be <= 0" in \
        capsys.readouterr().err
    assert not os.path.exists(tmp / "o.jsonl")


def test_permuted_vocabulary_file_exits_3(tiny3_files, capsys):
    tmp, model, corpus = tiny3_files
    # the server lists the client's tokens in another order, so its
    # positional rows would be read against the wrong tokens
    vocab = Vocabulary(["<s>", "b", "a", "</s>"])
    server = ScorerServer(TableModel(vocab, {}, {"a": 0.5, "b": 0.25, "</s>": 0.25})).start()
    try:
        host, port = server.address
        rc = main(["decode", "--strategy", "beam", "--model", model,
                   "--endpoint", f"{host}:{port}", "--input", corpus,
                   "--output", str(tmp / "o.jsonl")])
    finally:
        server.shutdown()
        server.server_close()
    assert rc == 3
    assert "extension tokens differ from the server's" in capsys.readouterr().err
    assert not os.path.exists(tmp / "o.jsonl")


@pytest.fixture
def served(tmp_path, monkeypatch):
    """A loopback ScorerServer for tiny3 and the RemoteScorer clients the
    CLI opens against it."""
    model = make_tiny3()
    vocab_path = tmp_path / "vocab.json"
    write_model(model, vocab_path)
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"id": "s1", "context": ""}\n')
    server = ScorerServer(model).start()
    clients = []

    class Recorded(RemoteScorer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clients.append(self)

    monkeypatch.setattr(cli, "RemoteScorer", Recorded)
    host, port = server.address
    remote = ["--endpoint", f"{host}:{port}", "--model", str(vocab_path)]
    yield tmp_path, remote, str(corpus_path), clients
    server.shutdown()
    server.server_close()


class TestRemoteScorerClosed:
    def assert_closed(self, clients):
        assert len(clients) == 1
        assert clients[0]._sock.fileno() == -1

    def test_decode(self, served):
        tmp, remote, corpus, clients = served
        rc = main(["decode", "--strategy", "beam", "--k", "2", "--max-len", "3", *remote,
                   "--input", corpus, "--output", str(tmp / "o.jsonl")])
        assert rc == 0
        self.assert_closed(clients)

    def test_decode_error_path(self, served):
        tmp, remote, _, clients = served
        rc = main(["decode", "--strategy", "beam", *remote,
                   "--input", str(tmp / "nope.jsonl"), "--output", str(tmp / "o.jsonl")])
        assert rc == 2
        self.assert_closed(clients)

    def test_decode_budget_path(self, served):
        tmp, remote, corpus, clients = served
        rc = main(["decode", "--strategy", "lbs", "--d", "1200", *remote,
                   "--input", corpus, "--output", str(tmp / "o.jsonl")])
        assert rc == 4
        self.assert_closed(clients)

    def test_compare(self, served):
        tmp, remote, corpus, clients = served
        rc = main(["compare", "--runs", "beam,lbs:1", "--ks", "2", "--max-len", "3",
                   *remote, "--input", corpus, "--output", str(tmp / "r.csv")])
        assert rc == 0
        self.assert_closed(clients)

    def test_compare_error_path(self, served):
        tmp, remote, corpus, clients = served
        rc = main(["compare", "--runs", "lbs:1", "--ks", "2", *remote,
                   "--input", corpus, "--output", str(tmp / "r.csv")])
        assert rc == 2  # no beam baseline
        self.assert_closed(clients)


@pytest.mark.parametrize("command", [
    ["decode", "--strategy", "lbs", "--k", "2", "--d", "1"],
    ["compare", "--runs", "beam,lbs:1,lhbs", "--ks", "1,2"],
], ids=["decode", "compare"])
def test_endpoint_alone_writes_the_in_process_records(served, command):
    tmp, remote, corpus, clients = served
    local = ["--model", remote[remote.index("--model") + 1]]
    outputs = []
    for scorer in (remote, local):
        out = tmp / "out"
        assert main([*command, "--max-len", "3", *scorer, "--input", corpus,
                     "--output", str(out)]) == 0
        text = out.read_text()
        if command[0] == "decode":
            text = [{k: v for k, v in json.loads(line).items() if k != "wall_time_ms"}
                    for line in text.splitlines()]
        outputs.append(text)
    assert len(clients) == 1  # the remote run went over the wire
    assert outputs[0] == outputs[1]


def test_bracketed_ipv6_endpoint_writes_the_in_process_records(tiny3_files):
    tmp, model, corpus = tiny3_files

    class IPv6Server(ScorerServer):
        address_family = socket.AF_INET6

    try:
        server = IPv6Server(make_tiny3(), "::1").start()
    except OSError:
        pytest.skip("no IPv6 loopback")
    try:
        records = []
        for remote in (["--endpoint", f"[::1]:{server.address[1]}"], []):
            out = tmp / "out.jsonl"
            assert main(["decode", "--strategy", "lbs", "--k", "2", "--d", "1", "--max-len", "3",
                         "--model", model, *remote, "--input", corpus,
                         "--output", str(out)]) == 0
            records.append([{k: v for k, v in r.items() if k != "wall_time_ms"}
                            for r in read_jsonl(out)])
    finally:
        server.shutdown()
        server.server_close()
    assert records[0] == records[1]
