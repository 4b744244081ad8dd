import json
import math
import socket
import threading

import pytest

from seqdec.core import NEG_INF, DecodeConfig, DecodeInput, ScorerTransportError, Vocabulary
from seqdec.decode import beam_decode, decode
from seqdec.remote import RemoteScorer, ScorerServer
from seqdec.scorers import TableModel

from conftest import make_tiny3, random_table_model


@pytest.fixture
def served_tiny3():
    model = make_tiny3()
    server = ScorerServer(model)
    server.start()
    yield model, server.address
    server.shutdown()
    server.server_close()


class TestRemoteScorer:
    def test_row_matches_local_bit_identical(self, served_tiny3):
        model, (host, port) = served_tiny3
        client = RemoteScorer(model.vocabulary, host, port)
        try:
            for prefix in [(0,), (0, 1), (0, 2), (0, 1, 1)]:
                assert client.next_logprobs("", prefix) == model.next_logprobs("", prefix)
        finally:
            client.close()

    def test_decode_over_wire_bit_identical(self, served_tiny3, inp):
        model, (host, port) = served_tiny3
        client = RemoteScorer(model.vocabulary, host, port)
        try:
            cfg = DecodeConfig(beam_width=2, max_len=3, strategy="beam", mode="practical")
            remote = beam_decode(client, inp, cfg)
            local = beam_decode(model, inp, cfg)
            assert remote.best == local.best
            assert remote.final_beam == local.final_beam
            assert remote.scorer_calls == local.scorer_calls
        finally:
            client.close()

    def test_connect_failure_is_transport_error(self):
        model = make_tiny3()
        with pytest.raises(ScorerTransportError):
            RemoteScorer(model.vocabulary, "127.0.0.1", 1, timeout=0.2)


def _one_shot_server(reply_fn):
    """Accept one connection, answer each request line with reply_fn(request)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)

    def run():
        conn, _ = sock.accept()
        f = conn.makefile("rwb")
        for line in f:
            request = json.loads(line)
            f.write(json.dumps(reply_fn(request)).encode() + b"\n")
            f.flush()
        conn.close()

    threading.Thread(target=run, daemon=True).start()
    return sock.getsockname()


class TestProtocolValidation:
    def setup_method(self):
        self.model = make_tiny3()

    def test_missing_token_rejected(self):
        def reply(req):
            return {"id": req["id"], "logprobs": {"a": -1.0, "</s>": -1.0}}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="missing token"):
            client.next_logprobs("", (0,))
        client.close()

    def test_unnormalized_row_rejected(self):
        import math

        def reply(req):
            lp = math.log(0.8 / 3)
            return {"id": req["id"], "logprobs": {"a": lp, "b": lp, "</s>": lp}}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="sums to"):
            client.next_logprobs("", (0,))
        client.close()

    def test_mismatched_id_rejected(self):
        import math

        def reply(req):
            lp = math.log(1 / 3)
            return {"id": req["id"] + 7, "logprobs": {"a": lp, "b": lp, "</s>": lp}}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="id"):
            client.next_logprobs("", (0,))
        client.close()

    def test_peer_close_is_transport_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)

        def run():
            conn, _ = sock.accept()
            conn.close()

        threading.Thread(target=run, daemon=True).start()
        host, port = sock.getsockname()
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError):
            client.next_logprobs("", (0,))
        client.close()

    def test_ids_echoed_in_order(self):
        seen = []

        def reply(req):
            seen.append(req["id"])
            row = self.model.next_logprobs("", tuple(
                self.model.vocabulary.tokens.index(t) for t in req["prefix"]))
            return {"id": req["id"],
                    "logprobs": {self.model.vocabulary.tokens[tid]: lp
                                 for tid, lp in row.items()}}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        for _ in range(4):
            client.next_logprobs("", (0,))
        client.close()
        assert seen == [0, 1, 2, 3]

    @pytest.mark.parametrize("reply,message", [
        (lambda req: {"id": req["id"], "logprobs": {
            "a": float("nan"), "b": 0.0, "</s>": float("-inf")}}, "sums to nan"),
        (lambda req: {"id": req["id"], "logprobs": {"a": "low", "b": 0.0, "</s>": None}},
         "malformed log-probability"),
        (lambda req: [req["id"]], "not a JSON object"),
    ])
    def test_malformed_row_rejected(self, reply, message):
        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match=message):
            client.next_logprobs("", (0,))
        client.close()


class TestServerErrorReplies:
    """A request the server cannot answer gets an error reply, and the
    connection keeps serving."""

    def exchange(self, address, lines):
        with socket.create_connection(address, timeout=5.0) as sock:
            f = sock.makefile("rwb")
            replies = []
            for line in lines:
                f.write(line + b"\n")
                f.flush()
                replies.append(json.loads(f.readline()))
            return replies

    def good(self, req_id):
        return json.dumps({"id": req_id, "context": "", "prefix": ["<s>"]}).encode()

    @pytest.mark.parametrize("line,req_id,message", [
        (b"{not json", None, "JSONDecodeError"),
        (b'{"id": 4, "context": "", "prefix": ["<s>", "zz"]}', 4, "unknown token 'zz'"),
        (b'{"id": 5, "context": "", "prefix": ["a"]}', 5, "must begin with BOS"),
        (b'{"id": 6, "context": ""}', 6, "prefix"),
    ])
    def test_error_reply_then_keeps_serving(self, served_tiny3, line, req_id, message):
        model, address = served_tiny3
        bad, good = self.exchange(address, [line, self.good(7)])
        assert bad["id"] == req_id and "logprobs" not in bad
        assert message in bad["error"]
        assert good["id"] == 7
        assert good["logprobs"] == {model.vocabulary.tokens[tid]: lp
                                    for tid, lp in model.next_logprobs("", (0,)).items()}

    def test_client_raises_the_server_message(self, served_tiny3):
        model, (host, port) = served_tiny3
        client = RemoteScorer(model.vocabulary, host, port)
        try:
            with pytest.raises(ScorerTransportError, match="server error: .*must begin with BOS"):
                client.next_logprobs("", (1,))
            assert client.next_logprobs("", (0,)) == model.next_logprobs("", (0,))
        finally:
            client.close()


def _strict_loads(data):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(data, parse_constant=reject)


@pytest.fixture
def serve():
    """Starts a ScorerServer for a scorer; every one stops at teardown."""
    servers = []

    def start(scorer):
        servers.append(ScorerServer(scorer).start())
        return servers[-1]

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _exchange(address, line):
    with socket.create_connection(address, timeout=5.0) as sock:
        f = sock.makefile("rwb")
        f.write(line + b"\n")
        f.flush()
        return f.readline()


class TestStrictJson:
    """Every message the server writes is strict JSON: a zero-probability
    token is null, never -Infinity."""

    VOCAB = Vocabulary.from_tokens(["<s>", "a", "b", "</s>"])

    def test_zero_probability_is_null(self, serve):
        model = TableModel(self.VOCAB, {}, {"a": 0.75, "b": 0.0, "</s>": 0.25})
        reply = _exchange(serve(model).address, b'{"id": 3, "context": "", "prefix": ["<s>"]}')
        assert b"Infinity" not in reply
        assert _strict_loads(reply) == {
            "id": 3, "logprobs": {"a": math.log(0.75), "b": None, "</s>": math.log(0.25)}}

    def test_client_reads_null_as_minus_infinity(self):
        def reply(req):
            return {"id": req["id"], "logprobs": {"a": math.log(0.75), "b": None,
                                                  "</s>": math.log(0.25)}}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.VOCAB, host, port)
        try:
            assert client.next_logprobs("", (0,)) == {1: math.log(0.75), 2: NEG_INF,
                                                      3: math.log(0.25)}
        finally:
            client.close()

    @pytest.mark.parametrize("line", [
        b'{"id": NaN, "context": "", "prefix": ["<s>"]}',
        b'{"id": 1e400, "context": "", "prefix": ["<s>"]}',
        b'{"id": 1, "context": "", "prefix": ["<s>"], "x": -Infinity}',
    ])
    def test_request_with_a_non_finite_number_gets_an_error(self, serve, line):
        reply = _strict_loads(_exchange(serve(make_tiny3()).address, line))
        assert reply["id"] is None and "logprobs" not in reply
        assert reply["error"].startswith("ValueError")

    def test_non_finite_row_gets_an_error_not_nan(self, serve):
        class NanScorer:
            vocabulary = self.VOCAB

            def next_logprobs(self, context, prefix):
                return {1: math.nan, 2: 0.0, 3: NEG_INF}

        reply = _strict_loads(_exchange(serve(NanScorer()).address,
                                        b'{"id": 2, "context": "", "prefix": ["<s>"]}'))
        assert reply["id"] == 2 and reply["error"].startswith("ValueError")

    def test_zero_probability_rows_decode_bit_identically(self, serve, inp):
        configs = (DecodeConfig(beam_width=2, max_len=3, strategy="beam", mode="raw"),
                   DecodeConfig(beam_width=3, lookahead_depth=2, max_len=4,
                                strategy="lbs", mode="practical"))
        server = serve(make_tiny3())
        zero_rows = 0
        for seed in range(12):
            model = random_table_model(seed, 4, 3, allow_zero=True)
            zero_rows += sum(0.0 in row.values() for row in model.rows.values())
            server.scorer = model  # read by each new connection
            client = RemoteScorer(model.vocabulary, *server.address)
            try:
                for config in configs:
                    remote, local = decode(client, inp, config), decode(model, inp, config)
                    assert (remote.best, remote.finished, remote.final_beam,
                            remote.scorer_calls) == (local.best, local.finished,
                                                     local.final_beam, local.scorer_calls)
            finally:
                client.close()
        assert zero_rows > 0
