import json
import math
import itertools
import socket
import sys
import threading
import time

import pytest

from seqdec import remote
from seqdec.core import NEG_INF, DecodeConfig, DecodeInput, ScorerTransportError, Vocabulary
from seqdec.decode import decode
from seqdec.remote import (MAX_REQUEST_BYTES, MAX_REQUEST_PREFIXES, RemoteScorer, ScorerServer,
                           _respond)
from seqdec.scorers import CountingScorer, TableModel

from conftest import BatchRecorder, make_tiny3, random_table_model


@pytest.fixture
def served_tiny3():
    model = make_tiny3()
    server = ScorerServer(model)
    server.start()
    yield model, server.address
    server.shutdown()
    server.server_close()


def test_shutdown_returns_at_once():
    server = ScorerServer(make_tiny3()).start()
    t0 = time.monotonic()
    server.shutdown()
    elapsed = time.monotonic() - t0
    server.server_close()
    assert elapsed < 0.2


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
            remote = decode(client, inp, cfg)
            local = decode(model, inp, cfg)
            assert remote.best == local.best
            assert remote.final_beam == local.final_beam
            assert remote.scorer_calls == local.scorer_calls
        finally:
            client.close()

    def test_connect_failure_is_transport_error(self):
        model = make_tiny3()
        with pytest.raises(ScorerTransportError):
            RemoteScorer(model.vocabulary, "127.0.0.1", 1)


def _serve_once(handle):
    """Listen on a loopback port and return its address; a thread accepts
    one connection, closes the listener, and runs handle(conn), closing
    the connection after it."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)

    def run():
        with sock:
            conn, _ = sock.accept()
        with conn:
            handle(conn)

    threading.Thread(target=run, daemon=True).start()
    return sock.getsockname()


def _one_shot_server(reply_fn):
    """Accept one connection, answer each request line with reply_fn(request)."""
    def handle(conn):
        with conn.makefile("rwb") as f:
            for line in f:
                request = json.loads(line)
                f.write(json.dumps(reply_fn(request)).encode() + b"\n")
                f.flush()

    return _serve_once(handle)


def _rows(model, request):
    """The rows of ``request`` as lists, as a server sends rows new to
    the connection."""
    tokens = model.vocabulary.tokens
    rows = []
    for prefix in request["prefixes"]:
        row = model.next_logprobs(request["context"], tuple(map(tokens.index, prefix)))
        rows.append([None if row[tid] == NEG_INF else row[tid]
                     for tid in model.vocabulary.extension_ids])
    return rows


class TestProtocolValidation:
    def setup_method(self):
        self.model = make_tiny3()

    def test_missing_token_rejected(self):
        """A short row, one value missing, is rejected."""
        def reply(req):
            return {"id": req["id"], "rows": [[-1.0, -1.0]]}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="list of 3 values"):
            client.next_logprobs("", (0,))
        client.close()

    def test_unnormalized_row_rejected(self):
        import math

        def reply(req):
            lp = math.log(0.8 / 3)
            return {"id": req["id"], "rows": [[lp, lp, lp]]}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="sums to"):
            client.next_logprobs("", (0,))
        client.close()

    def test_mismatched_id_rejected(self):
        import math

        def reply(req):
            lp = math.log(1 / 3)
            return {"id": req["id"] + 7, "rows": [[lp, lp, lp]]}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="id"):
            client.next_logprobs("", (0,))
        client.close()

    @pytest.mark.parametrize("fake", [False, True, 1.0], ids=["false", "true", "float"])
    def test_an_id_equal_to_but_not_the_integer_sent_rejected(self, fake):
        # false == 0 and true == 1.0 == 1: each answers the request of that id
        def reply(req):
            return {"id": fake if req["id"] == fake else req["id"],
                    "rows": _rows(self.model, req)}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        if fake:
            client.next_logprobs("", (0,))  # request 0, answered with its own id
        with pytest.raises(ScorerTransportError, match="does not match request"):
            client.next_logprobs("", (0,))
        client.close()

    def test_overflowing_value_rejected(self):
        host, port = _one_shot_server(lambda req: {"id": req["id"], "rows": [[1000.0, None, None]]})
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="sums to inf"):
            client.next_logprobs("", (0,))
        client.close()

    @pytest.mark.parametrize("value", ["-0.10536051565782628", True],
                             ids=["string", "boolean"])
    def test_non_number_value_rejected(self, value):
        def reply(req):
            return {"id": req["id"], "rows": [[value, math.log(0.1), None]]}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="malformed log-probability"):
            client.next_logprobs("", (0,))
        client.close()

    @pytest.mark.parametrize("rows", [[], [[0.0, None, None]] * 2, {"0": [0.0, None, None]}],
                             ids=["none", "two", "object"])
    def test_one_row_per_prefix_required(self, rows):
        host, port = _one_shot_server(lambda req: {"id": req["id"], "rows": rows})
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="list of 1 rows"):
            client.next_logprobs("", (0,))
        client.close()

    def test_server_without_v2_is_a_transport_error(self):
        # a server from before v2 reads request["prefix"] and answers with
        # its error reply
        def reply(req):
            try:
                return {"id": req["id"], "prefix": req["prefix"]}
            except KeyError as exc:
                return {"id": req["id"], "error": f"KeyError: {exc}"}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="server error: KeyError: 'prefix'"):
            client.next_logprobs("", (0,))
        client.close()

    def test_peer_close_is_transport_error(self):
        host, port = _serve_once(lambda conn: None)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError):
            client.next_logprobs("", (0,))
        client.close()

    def test_peer_closing_after_the_request_is_transport_error(self):
        def handle(conn):
            with conn.makefile("rb") as f:
                f.readline()

        client = RemoteScorer(self.model.vocabulary, *_serve_once(handle))
        with pytest.raises(ScorerTransportError, match="peer closed the connection"):
            client.next_logprobs("", (0,))
        client.close()

    def test_response_that_is_not_utf8_is_transport_error(self):
        def handle(conn):
            with conn.makefile("rb") as f:
                f.readline()
            conn.sendall(b'{"id": 0, "rows": [["\xff"]]}\n')

        client = RemoteScorer(self.model.vocabulary, *_serve_once(handle))
        with pytest.raises(ScorerTransportError, match="malformed response"):
            client.next_logprobs("", (0,))
        client.close()

    def test_reply_nested_too_deeply_is_transport_error(self):
        # the parser's RecursionError left the connection open
        def handle(conn):
            with conn.makefile("rb") as f:
                f.readline()
            conn.sendall(b'{"id": 0, "rows": ' + b"[" * 100_000 + b"]" * 100_000 + b"}\n")

        client = RemoteScorer(self.model.vocabulary, *_serve_once(handle))
        with pytest.raises(ScorerTransportError):
            # 4,000 prefixes, so the reply-line limit admits the line
            client.next_logprobs_batch("", [(0,)] * 4000)
        with pytest.raises(ScorerTransportError, match="the connection is closed"):
            client.next_logprobs("", (0,))
        client.close()

    def test_ids_echoed_in_order(self):
        seen = []

        def reply(req):
            seen.append(req["id"])
            return {"id": req["id"], "rows": _rows(self.model, req)}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        for _ in range(4):
            client.next_logprobs("", (0,))
        client.close()
        assert seen == [0, 1, 2, 3]

    @pytest.mark.parametrize("reply,message", [
        (lambda req: {"id": req["id"], "rows": [[float("nan"), 0.0, float("-inf")]]},
         "sums to nan"),
        (lambda req: {"id": req["id"], "rows": [["low", 0.0, None]]},
         "malformed log-probability"),
        (lambda req: [req["id"]], "not a JSON object"),
    ])
    def test_malformed_row_rejected(self, reply, message):
        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match=message):
            client.next_logprobs("", (0,))
        client.close()


    def test_positive_value_rejected(self):
        # exp(1e-12) is 1 within the mass tolerance, so only the row check
        # catches it; a NaN fails the mass check (test_malformed_row_rejected)
        host, port = _one_shot_server(lambda req: {"id": req["id"], "rows": [[1e-12, None, None]]})
        client = RemoteScorer(self.model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="must be <= 0 and not NaN"):
            client.next_logprobs("", (0,))
        client.close()

    def test_integer_value_read_as_float(self):
        host, port = _one_shot_server(lambda req: {"id": req["id"], "rows": [[0, None, None]]})
        client = RemoteScorer(self.model.vocabulary, host, port)
        row = client.next_logprobs("", (0,))
        client.close()
        assert self.model.vocabulary.extension_values(row) == (0.0, NEG_INF, NEG_INF)
        assert type(row[1]) is float


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

    GOOD = {"context": "", "prefixes": [["<s>"]]}

    def good(self, req_id):
        return json.dumps({"id": req_id, **self.GOOD}).encode()

    @pytest.mark.parametrize("line,req_id,message", [
        (b"{not json", None, "JSONDecodeError"),
        (b'{"id": 4, "context": "", "prefixes": [["<s>", "zz"]]}', 4, "unknown token 'zz'"),
        (b'{"id": 5, "context": "", "prefixes": [["a"]]}', 5, "must begin with BOS"),
        (b'{"id": 6, "context": ""}', 6, "KeyError: 'prefixes'"),
        # a prefix that is not a list is refused whole, not read one key at a time
        (b'{"id": 8, "context": "", "prefixes": ["<s>"]}', 8,
         "TypeError: a prefix must be a list of token strings"),
        (b'{"id": 9, "context": "", "prefixes": [["<s>"], "a"]}', 9,
         "TypeError: a prefix must be a list of token strings"),
        (b'{"id": 10, "context": "", "prefixes": [["<s>"], {"<s>": 1}]}', 10,
         "TypeError: a prefix must be a list of token strings"),
        (b'{"id": 11, "context": "", "prefixes": [3]}', 11,
         "TypeError: a prefix must be a list of token strings"),
        (b'{"id": 12, "context": "", "prefixes": [["<s>", 5]]}', 12,
         "ValueError: unknown token 5"),
        (b'{"id": 13, "context": "", "prefixes": [["<s>", "zz", ["a"]]]}', 13,
         "TypeError: unhashable type: 'list'"),
        # the parser gives up with a RecursionError
        pytest.param(b"[" * 100000 + b"]" * 100000, None, "RecursionError", id="nested-json"),
    ])
    def test_error_reply_then_keeps_serving(self, served_tiny3, line, req_id, message):
        model, address = served_tiny3
        bad, good = self.exchange(address, [line, self.good(7)])
        assert bad["id"] == req_id and "rows" not in bad
        assert message in bad["error"]
        assert good == {"id": 7, "rows": _rows(model, self.GOOD)}

    def test_client_raises_the_server_message(self, served_tiny3):
        model, (host, port) = served_tiny3
        client = RemoteScorer(model.vocabulary, host, port)
        try:
            with pytest.raises(ScorerTransportError, match="server error: .*must begin with BOS"):
                client.next_logprobs("", (1,))
            assert client.next_logprobs("", (0,)) == model.next_logprobs("", (0,))
        finally:
            client.close()


def test_an_id_at_every_depth_near_the_parser_limit_gets_one_reply(served_tiny3):
    # an id nested just shallow enough to parse but too deep to write back
    # killed the connection unanswered; the depth the parser refuses differs
    # between Python versions, so it is found first, nesting a key the
    # server ignores. Replies are read as bytes: the test's own parser runs
    # deeper in the stack than the server's.
    model, address = served_tiny3

    def nested(depth):
        return b"[" * depth + b"]" * depth

    with socket.create_connection(address, timeout=10.0) as sock, sock.makefile("rwb") as f:
        def ask(line):
            f.write(line + b"\n")
            f.flush()
            return f.readline()

        def parsed(depth):
            reply = ask(b'{"id": 0, "x": %s, "prefixes": 5}' % nested(depth))
            return reply.startswith(b'{"id": 0, "error": "TypeError')

        accepted, refused = 1, 2
        while parsed(refused):
            assert refused < 2**20, "the parser accepts a million levels"
            accepted, refused = refused, 2 * refused
        while refused - accepted > 1:
            mid = (accepted + refused) // 2
            accepted, refused = (mid, refused) if parsed(mid) else (accepted, mid)
        for depth in range(max(1, refused - 64), refused + 4):
            reply = ask(b'{"id": %s, "context": "", "prefixes": 5}' % nested(depth))
            echoed = (b'{"id": %s, "error": "TypeError: prefixes must be a list of prefixes"}\n'
                      % nested(depth))
            assert reply == echoed or reply.startswith(
                b'{"id": null, "error": "RecursionError: '), depth
        good = {"context": "", "prefixes": [["<s>"]]}
        assert json.loads(ask(json.dumps({"id": 1, **good}).encode())) == {
            "id": 1, "rows": _rows(model, good)}


def test_overlong_request_line_gets_one_error_and_the_connection_closes(served_tiny3):
    # 40 MB without a newline: the server stops reading at its limit
    # instead of buffering the whole line
    _, address = served_tiny3
    with socket.create_connection(address, timeout=10.0) as sock:
        def send():
            try:
                sock.sendall(b'{"id": 1, "context": "' + b"x" * 40_000_000)
            except OSError:  # the server closed the connection first
                pass
        sender = threading.Thread(target=send)
        sender.start()
        with sock.makefile("rb") as f:
            reply = json.loads(f.readline())
            try:
                rest = f.readline()
            except ConnectionResetError:
                rest = b""
        sender.join(timeout=10.0)
    assert not sender.is_alive()
    assert reply == {"id": None, "error": f"ValueError: request line longer than "
                                          f"{MAX_REQUEST_BYTES} bytes"}
    assert rest == b""


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

    VOCAB = Vocabulary(["<s>", "a", "b", "</s>"])

    def test_zero_probability_is_null(self, serve):
        model = TableModel(self.VOCAB, {}, {"a": 0.75, "b": 0.0, "</s>": 0.25})
        reply = _exchange(serve(model).address,
                          b'{"id": 3, "context": "", "prefixes": [["<s>"]]}')
        assert b"Infinity" not in reply
        assert _strict_loads(reply) == {
            "id": 3, "rows": [[math.log(0.75), None, math.log(0.25)]]}

    def test_client_reads_null_as_minus_infinity(self):
        def reply(req):
            return {"id": req["id"], "rows": [[math.log(0.75), None, math.log(0.25)]]}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(self.VOCAB, host, port)
        try:
            row = client.next_logprobs("", (0,))
            assert self.VOCAB.extension_values(row) == (math.log(0.75), NEG_INF, math.log(0.25))
            assert row[0] == NEG_INF  # the BOS slot
        finally:
            client.close()

    @pytest.mark.parametrize("line", [
        b'{"id": NaN, "context": "", "prefixes": [["<s>"]]}',
        b'{"id": 1e400, "context": "", "prefixes": [["<s>"]]}',
        b'{"id": 1, "context": "", "prefixes": [["<s>"]], "x": -Infinity}',
    ])
    def test_request_with_a_non_finite_number_gets_an_error(self, serve, line):
        reply = _strict_loads(_exchange(serve(make_tiny3()).address, line))
        assert reply["id"] is None and "rows" not in reply
        assert reply["error"].startswith("ValueError")

    def test_non_finite_row_gets_an_error_not_nan(self, serve):
        class NanScorer:
            vocabulary = self.VOCAB

            def next_logprobs(self, context, prefix):
                return {1: math.nan, 2: 0.0, 3: NEG_INF}

        reply = _strict_loads(_exchange(serve(NanScorer()).address,
                                        b'{"id": 2, "context": "", "prefixes": [["<s>"]]}'))
        assert reply["id"] == 2 and reply["error"].startswith("ValueError")

    def test_zero_probability_rows_decode_bit_identically(self, serve, inp):
        configs = [DecodeConfig(beam_width=k, lookahead_depth=d, max_len=4,
                                strategy=strategy, mode=mode)
                   for strategy, k, d in (("beam", 3, 0), ("lbs", 2, 1), ("lbs", 3, 2),
                                          ("lhbs", 3, 0))
                   for mode in ("raw", "practical")]
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


class TestBatchedWire:
    """One request per batch of prefixes."""

    def test_one_round_trip_per_beam_step_with_an_incomplete_parent(self, serve, inp):
        # tiny3, raw beam k=2 over 5 steps: the beams before the steps are
        # [<s>], [a, b], [a </s>, b a] and then [a </s>, b a </s>] twice,
        # so 3 steps send a request and 1+2+2+2+2 calls count
        model = make_tiny3()
        client = RemoteScorer(model.vocabulary, *serve(model).address)
        try:
            r = decode(client, inp, DecodeConfig(beam_width=2, max_len=5,
                                                 strategy="beam", mode="raw"))
            assert (client.round_trips, r.scorer_calls) == (3, 9)
        finally:
            client.close()

    @pytest.mark.parametrize("config", [
        DecodeConfig(beam_width=8, max_len=6, strategy="beam", mode="practical"),
        DecodeConfig(beam_width=3, max_len=5, strategy="beam", mode="raw"),
        DecodeConfig(beam_width=3, max_len=5, strategy="lbs", mode="raw"),
        DecodeConfig(beam_width=3, lookahead_depth=1, max_len=5, strategy="lbs", mode="raw"),
        DecodeConfig(beam_width=3, lookahead_depth=1, max_len=5, strategy="lbs",
                     mode="practical"),
        DecodeConfig(beam_width=3, lookahead_depth=2, max_len=5, strategy="lbs", mode="raw"),
        DecodeConfig(beam_width=3, lookahead_depth=2, max_len=5, strategy="lbs",
                     mode="practical"),
        DecodeConfig(beam_width=3, max_len=5, strategy="lhbs", mode="raw"),
        DecodeConfig(beam_width=4, max_len=6, strategy="lhbs", mode="practical"),
    ], ids=["beam-practical", "beam-raw", "lbs-d0-raw", "lbs-d1-raw", "lbs-d1-practical",
            "lbs-d2-raw", "lbs-d2-practical", "lhbs-raw", "lhbs-practical"])
    def test_round_trips_and_logical_calls(self, serve, inp, config):
        server = serve(make_tiny3())
        for seed in range(6):
            model = random_table_model(seed, 5, 4, allow_zero=True)
            server.scorer = model
            client = RemoteScorer(model.vocabulary, *server.address)
            try:
                remote = decode(client, inp, config)
            finally:
                client.close()
            batched = BatchRecorder(model)
            local = decode(batched, inp, config)
            assert remote.scorer_calls == local.scorer_calls == decode(model, inp, config).scorer_calls
            # one batch per step, the step's incomplete parents in token order
            assert [len(b[0]) for b in batched.batches] == list(range(1, len(batched.batches) + 1))
            assert all(b == sorted(b) for b in batched.batches)
            # single calls are lookahead calls only
            assert (batched.singles > 0) == (config.lookahead_depth > 0)
            assert client.round_trips == len(batched.batches) + batched.singles
            # a raw step sends nothing only once every slot is complete
            assert (len(batched.batches) == config.max_len or config.mode == "practical"
                    or all(h.complete for h in local.final_beam))

    def test_rows_in_extension_id_order_with_null(self, serve):
        vocab = Vocabulary(["<s>", "a", "b", "</s>"])
        model = TableModel(vocab, {"a": {"a": 0.5, "b": 0.5, "</s>": 0.0}},
                           {"a": 0.75, "b": 0.0, "</s>": 0.25})
        line = b'{"id": 9, "context": "", "prefixes": [["<s>"], ["<s>", "a"]]}'
        reply = _exchange(serve(model).address, line)
        assert b"Infinity" not in reply
        assert _strict_loads(reply) == {
            "id": 9, "rows": [[math.log(0.75), None, math.log(0.25)],
                              [math.log(0.5), math.log(0.5), None]]}

    @pytest.mark.parametrize("prefixes,message", [
        ([["<s>"], ["<s>", "zz"], ["<s>", "a"]], "ValueError: unknown token 'zz'"),
        ([["<s>"], ["a"]], "must begin with BOS"),
        ("<s>", "TypeError: prefixes must be a list"),
        ([["<s>"], "<s>"], "TypeError: a prefix must be a list"),
    ])
    def test_bad_batch_gets_one_error_then_requests_are_served(self, served_tiny3,
                                                                prefixes, message):
        model, address = served_tiny3
        goods = [{"id": 2, "context": "", "prefixes": [["<s>"], ["<s>", "b"]]},
                 {"id": 3, "context": "", "prefixes": [["<s>", "a"]]}]
        bad = json.dumps({"id": 1, "context": "", "prefixes": prefixes}).encode()
        with socket.create_connection(address, timeout=5.0) as sock:
            f = sock.makefile("rwb")
            replies = []
            for line in [bad] + [json.dumps(good).encode() for good in goods]:
                f.write(line + b"\n")
                f.flush()
                replies.append(json.loads(f.readline()))
        error, *served = replies
        assert error["id"] == 1 and message in error["error"] and "rows" not in error
        assert served == [{"id": good["id"], "rows": _rows(model, good)} for good in goods]


class TestVocabularyCheck:
    """Rows are positional, so the server refuses a client whose extension
    tokens differ from its own, in set or in order."""

    @pytest.mark.parametrize("tokens", [["<s>", "b", "a", "</s>"], ["<s>", "a", "c", "</s>"]],
                             ids=["permuted", "other-token"])
    def test_mismatched_vocabulary_is_a_transport_error(self, served_tiny3, inp, tokens):
        _, address = served_tiny3
        client = RemoteScorer(Vocabulary(tokens), *address)
        try:
            with pytest.raises(ScorerTransportError, match="extension tokens differ"):
                client.next_logprobs("", (0,))
            # nothing was accepted, so the next request is checked again
            with pytest.raises(ScorerTransportError, match="extension tokens differ"):
                decode(client, inp, DecodeConfig(beam_width=2, max_len=3, strategy="beam"))
        finally:
            client.close()

    def test_client_sends_its_extension_tokens_until_a_row_arrives(self):
        model = make_tiny3()
        sent = []

        def reply(req):
            sent.append(req.get("extension_tokens"))
            if len(sent) == 1:
                return {"id": req["id"], "error": "ValueError: not ready"}
            return {"id": req["id"], "rows": _rows(model, req)}

        host, port = _one_shot_server(reply)
        client = RemoteScorer(model.vocabulary, host, port)
        with pytest.raises(ScorerTransportError, match="not ready"):
            client.next_logprobs("", (0,))
        client.next_logprobs("", (0,))
        client.next_logprobs_batch("", [(0, 1), (0, 2)])
        client.close()
        assert sent == [["a", "b", "</s>"], ["a", "b", "</s>"], None]

    def test_server_refuses_other_extension_tokens_and_stays_open(self, served_tiny3):
        model, address = served_tiny3
        requests = [{"id": 1, "context": "", "prefixes": [["<s>"]],
                     "extension_tokens": ["b", "a", "</s>"]},
                    {"id": 2, "context": "", "prefixes": [["<s>"]],
                     "extension_tokens": ["a", "b", "</s>"]}]
        with socket.create_connection(address, timeout=5.0) as sock:
            f = sock.makefile("rwb")
            replies = []
            for request in requests:
                f.write(json.dumps(request).encode() + b"\n")
                f.flush()
                replies.append(json.loads(f.readline()))
        assert replies == [
            {"id": 1, "error": "ValueError: extension tokens differ from the server's"},
            {"id": 2, "rows": _rows(model, requests[1])}]


class TestReplyLimit:
    """The client reads at most 32 bytes per value the request asks for,
    8 per request byte and 1024 more of a reply line."""

    def test_overlong_reply_raises_at_once_naming_the_limit(self):
        requests = []
        release = threading.Event()

        def handle(conn):
            with conn.makefile("rb") as f:
                requests.append(f.readline())
            try:  # far past the limit, and no newline
                conn.sendall(b'{"id": 0, "rows": [[' + b"0" * 4_000_000)
            except OSError:  # the client closed first
                pass
            release.wait(10.0)  # hold the connection open

        model = make_tiny3()
        client = RemoteScorer(model.vocabulary, *_serve_once(handle))
        try:
            t0 = time.monotonic()
            with pytest.raises(ScorerTransportError) as info:
                client.next_logprobs("", (0,))
            elapsed = time.monotonic() - t0
            limit = 32 * 1 * 3 + 8 * len(requests[0]) + 1024
            assert str(info.value) == (f"reply line longer than {limit} bytes; "
                                       f"the connection is closed")
            assert elapsed < 1.0  # not the socket timeout
            with pytest.raises(ScorerTransportError, match="the connection is closed"):
                client.next_logprobs("", (0,))
        finally:
            release.set()
            client.close()

    def test_longest_valid_rows_fit(self):
        # every value as long as a float's repr gets, and the shortest prefixes
        longest = -1.7976931348623157e+308

        def reply(req):
            return {"id": req["id"], "rows": [[longest, 0.0, longest]] * len(req["prefixes"])}

        model = make_tiny3()
        client = RemoteScorer(model.vocabulary, *_one_shot_server(reply))
        try:
            rows = client.next_logprobs_batch("", [(0,)] * 200)
            values = [model.vocabulary.extension_values(row) for row in rows]
            assert values == [(longest, 0.0, longest)] * 200
        finally:
            client.close()


def _reference_reply(req_id, items) -> bytes:
    """The reply as the whole object dumped at once; each item is a row
    or a row number."""
    return json.dumps({"id": req_id, "rows": [
        item if isinstance(item, int) else
        [None if lp == NEG_INF else lp for lp in item.vocabulary.extension_values(item)]
        for item in items]}, allow_nan=False).encode() + b"\n"


class TestReplyBytes:
    """A reply joins each row's text or number; its bytes equal the whole
    reply dumped at once."""

    VOCAB = Vocabulary(["<s>", "a", "b", "</s>"])
    # the "a" row holds null and 0.0
    TABLE = TableModel(VOCAB, {"a": {"</s>": 1.0}}, {"a": 0.75, "b": 0.0, "</s>": 0.25})

    class Mappings:
        """Returns a fresh mapping per call, so each call gets a fresh Row."""

        def __init__(self, model):
            self.model = model
            self.vocabulary = model.vocabulary

        def next_logprobs(self, context, prefix):
            row = self.model.next_logprobs(context, prefix)
            return dict(zip(self.vocabulary.extension_ids, self.vocabulary.extension_values(row)))

    @pytest.mark.parametrize("prefixes", [[["<s>"], ["<s>", "a"], ["<s>"]], [["<s>", "a"]], []])
    @pytest.mark.parametrize("req_id", [7, "s\u00e9", None, 2.5], ids=["int", "str", "null", "float"])
    @pytest.mark.parametrize("scorer", ["kept", "mappings"])
    def test_reply_equals_the_whole_reply_dumped(self, scorer, req_id, prefixes):
        counted = CountingScorer(self.TABLE if scorer == "kept" else self.Mappings(self.TABLE))
        numbers = {}  # one connection's numbered rows
        line = json.dumps({"id": req_id, "context": "", "prefixes": prefixes}).encode() + b"\n"
        rows = [self.TABLE.next_logprobs("", tuple(map(self.VOCAB.token_ids.__getitem__, p)))
                for p in prefixes]
        numbered = []  # the rows the connection has numbered, each as its object
        for _ in range(2):  # the second reply numbers the kept rows
            objects = rows if scorer == "kept" else [object() for _ in rows]
            items = []
            for obj, row in zip(objects, rows):
                known = [n for n, seen in enumerate(numbered) if seen is obj]
                items.append(known[0] if known else row)
                numbered += [] if known else [obj]
            assert _respond(counted, numbers, line) == _reference_reply(req_id, items)


class TestRequestBytes:
    """Each request line the client writes is the request object as
    json.dumps writes it."""

    VOCAB = Vocabulary(["<s>", "caf\u00e9", "\u65e5\u672c", "\U0001f600", 'a"b',
                                    "c\\d", "</s>"])
    MODEL = TableModel(VOCAB, {}, {"caf\u00e9": 0.5, "a\"b": 0.25, "</s>": 0.25})

    @pytest.mark.parametrize("context", [
        "", 'say "hi" \\ \t\x01 \U0001f600 caf\u00e9 \u65e5\u672c'], ids=["empty", "escaped"])
    def test_request_line_is_the_request_dumped(self, context):
        lines = []

        def handle(conn):
            counted, numbers = CountingScorer(self.MODEL), {}
            with conn.makefile("rb") as f:
                for line in f:
                    lines.append(line)
                    conn.sendall(_respond(counted, numbers, line))

        client = RemoteScorer(self.VOCAB, *_serve_once(handle))
        every = [(0, *tail) for n in range(3)
                 for tail in itertools.product(self.VOCAB.core_ids, repeat=n)]
        split = [every[i % len(every)] for i in range(MAX_REQUEST_PREFIXES + 1)]
        calls = [(context, [(0,)]), (context, every), ("other", []), (context, split)]
        try:
            for ctx, prefixes in calls:
                client.next_logprobs_batch(ctx, prefixes)
        finally:
            client.close()
        # the split batch goes as two requests
        requests = calls[:3] + [(context, split[:MAX_REQUEST_PREFIXES]),
                                (context, split[MAX_REQUEST_PREFIXES:])]
        expected = []
        for req_id, (ctx, prefixes) in enumerate(requests):
            request = {"id": req_id, "context": ctx,
                       "prefixes": [self.VOCAB.to_strings(p) for p in prefixes]}
            if req_id == 0:  # until a reply with rows arrives
                request["extension_tokens"] = self.VOCAB.to_strings(self.VOCAB.extension_ids)
            expected.append(json.dumps(request).encode() + b"\n")
        assert lines == expected


def _conversation(address, requests):
    """The replies to ``requests``, sent one at a time over one connection."""
    with socket.create_connection(address, timeout=10.0) as sock, sock.makefile("rwb") as f:
        replies = []
        for request in requests:
            f.write(json.dumps(request).encode() + b"\n")
            f.flush()
            replies.append(json.loads(f.readline()))
        return replies


class TestNumberedRows:
    """Protocol v3: a row goes as its values the first time a connection
    sees it, and as its number after that."""

    VOCAB, TABLE = TestReplyBytes.VOCAB, TestReplyBytes.TABLE
    DEFAULT = [math.log(0.75), None, math.log(0.25)]  # the row of <s> and of <s> b
    A_ROW = [None, None, 0.0]

    @staticmethod
    def requests(*batches):
        return [{"id": i, "context": "", "prefixes": batch} for i, batch in enumerate(batches)]

    def test_a_repeated_row_is_sent_as_its_number(self, serve):
        replies = _conversation(serve(self.TABLE).address, self.requests(
            [["<s>"], ["<s>", "a"], ["<s>", "b"]], [["<s>", "a"], ["<s>"]]))
        assert [reply["rows"] for reply in replies] == [[self.DEFAULT, self.A_ROW, 0], [1, 0]]

    def test_a_new_connection_numbers_from_0(self, serve):
        server = serve(self.TABLE)
        _conversation(server.address, self.requests([["<s>"]]))
        replies = _conversation(server.address, self.requests([["<s>", "a"]], [["<s>"], ["<s>", "a"]]))
        assert [reply["rows"] for reply in replies] == [[self.A_ROW], [self.DEFAULT, 0]]

    def test_past_the_bound_rows_go_as_lists(self, serve, monkeypatch, inp):
        monkeypatch.setattr(remote, "MAX_NUMBERED_VALUES", 3)  # one row of 3 values
        replies = _conversation(serve(self.TABLE).address, self.requests(
            [["<s>"], ["<s>", "a"], ["<s>", "a"], ["<s>"]]))
        assert replies[0]["rows"] == [self.DEFAULT, self.A_ROW, self.A_ROW, 0]
        # the client counts the bound as the server does
        model = random_table_model(5, 5, 4, allow_zero=True)
        n_ext = len(model.vocabulary.extension_ids)
        server = serve(model)
        config = DecodeConfig(beam_width=3, lookahead_depth=2, max_len=5, strategy="lbs")
        numbered = []
        for bound in (0, 3 * n_ext - 1, 2**20):
            monkeypatch.setattr(remote, "MAX_NUMBERED_VALUES", bound)
            client = RemoteScorer(model.vocabulary, *server.address)
            try:
                assert decode(client, inp, config) == decode(model, inp, config)
                numbered.append(len(client._numbered))
            finally:
                client.close()
        assert numbered[:2] == [0, 2] and numbered[2] > 2

    def test_an_error_reply_numbers_nothing(self):
        table = self.TABLE

        class BadB:  # refuses the row of <s> b, after the row of <s>
            vocabulary = self.VOCAB

            def next_logprobs(self, context, prefix):
                bad = {1: 0.5, 2: NEG_INF, 3: NEG_INF}
                return bad if prefix[-1] == 2 else table.next_logprobs(context, prefix)

        counted, numbers = CountingScorer(BadB()), {}
        bad, good = (json.dumps(r).encode() for r in self.requests(
            [["<s>"], ["<s>", "b"]], [["<s>"], ["<s>"]]))
        assert json.loads(_respond(counted, numbers, bad))["error"].startswith("ValueError")
        assert numbers == {}
        assert json.loads(_respond(counted, numbers, good))["rows"] == [self.DEFAULT, 0]

    def test_a_number_reads_back_the_same_row(self):
        model = make_tiny3()
        replies = iter([None, 0, 0])

        def reply(req):
            number = next(replies)
            return {"id": req["id"], "rows": _rows(model, req) if number is None else [number]}

        client = RemoteScorer(model.vocabulary, *_one_shot_server(reply))
        try:
            first = client.next_logprobs("", (0,))
            assert first == model.next_logprobs("", (0,))
            assert client.next_logprobs("", (0, 1)) is first is client.next_logprobs("", (0,))
        finally:
            client.close()

    @pytest.mark.parametrize("item,message", [
        (1, "unknown row number 1"),
        (-1, "unknown row number -1"),
        (True, "must be a list of 3 values"),
        (0.0, "must be a list of 3 values"),
        ([10**400, None, None], "log-probability 10{400} is out of range"),
        ([-10**400, None, 0], "log-probability -10{400} is out of range"),
    ], ids=["unknown", "negative", "boolean", "float", "huge", "huge-negative"])
    def test_a_refused_reply_closes_the_connection(self, item, message):
        model = make_tiny3()
        replies = []

        def reply(req):
            replies.append(req["id"])
            return {"id": req["id"], "rows": _rows(model, req) if len(replies) == 1 else [item]}

        client = RemoteScorer(model.vocabulary, *_one_shot_server(reply))
        try:
            client.next_logprobs("", (0,))  # numbers row 0
            with pytest.raises(ScorerTransportError, match=message):
                client.next_logprobs("", (0,))
            with pytest.raises(ScorerTransportError, match="the connection is closed"):
                client.next_logprobs("", (0,))
        finally:
            client.close()
        assert replies == [0, 1]


class TestPrefixLimit:
    """A request holds at most MAX_REQUEST_PREFIXES prefixes."""

    def test_a_request_over_the_limit_gets_an_error_and_the_connection_stays_open(
            self, served_tiny3):
        model, address = served_tiny3
        over = {"id": 1, "context": "", "prefixes": [["<s>"]] * (MAX_REQUEST_PREFIXES + 1)}
        good = {"id": 2, "context": "", "prefixes": [["<s>"]] * MAX_REQUEST_PREFIXES}
        error, served = _conversation(address, [over, good])
        assert error == {"id": 1, "error": f"ValueError: more than {MAX_REQUEST_PREFIXES} "
                                           f"prefixes in one request"}
        assert served == {"id": 2, "rows": _rows(model, {**good, "prefixes": [["<s>"]]})
                          + [0] * (MAX_REQUEST_PREFIXES - 1)}

    def test_a_larger_batch_is_split_in_order(self, served_tiny3):
        model, address = served_tiny3
        kinds = [(0,), (0, 1), (0, 2), (0, 1, 1), (0, 2, 2)]
        prefixes = [kinds[i * 7 % 5] for i in range(MAX_REQUEST_PREFIXES + 1)]
        client = RemoteScorer(model.vocabulary, *address)
        try:
            rows = client.next_logprobs_batch("", prefixes)
            assert client.round_trips == 2
        finally:
            client.close()
        assert rows == [model.next_logprobs("", p) for p in prefixes]


def _race(target, n_threads=6):
    """Runs ``target`` in ``n_threads`` threads at once, switching threads
    as often as the interpreter allows; returns the threads still alive."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    return [thread for thread in threads if thread.is_alive()]


def _all_prefixes(vocab, max_len=3):
    return [(vocab.bos_id, *tail) for n in range(max_len + 1)
            for tail in itertools.product(vocab.core_ids, repeat=n)]


def test_clients_racing_for_new_rows_read_exact_rows(serve):
    # each connection's handler thread numbers rows without a lock; the
    # rows themselves are shared between the connections
    model = random_table_model(3, 5, 4, allow_zero=True)
    server = serve(model)
    vocab = model.vocabulary
    prefixes = _all_prefixes(vocab)
    wrong, done = [], []

    def client_run():
        client = RemoteScorer(vocab, *server.address)
        try:
            for prefix in prefixes:
                if client.next_logprobs("", prefix) != model.next_logprobs("", prefix):
                    wrong.append(prefix)
            done.append(True)
        finally:
            client.close()

    assert _race(client_run) == []
    assert len(done) == 6 and wrong == [] and len(prefixes) == 85


def test_threads_sharing_one_client_read_exact_rows(serve):
    # the client reads numbers and numbers new rows under its lock
    model = random_table_model(4, 5, 4, allow_zero=True)
    vocab = model.vocabulary
    prefixes = _all_prefixes(vocab)
    client = RemoteScorer(vocab, *serve(model).address)
    wrong, done = [], []
    sizes = iter(range(1, 7))

    def client_run():
        size = next(sizes)  # each thread its own batch size
        for i in range(0, len(prefixes), size):
            batch = prefixes[i:i + size]
            if client.next_logprobs_batch("", batch) != [model.next_logprobs("", p) for p in batch]:
                wrong.append(batch)
        done.append(True)

    try:
        assert _race(client_run) == []
    finally:
        client.close()
    assert len(done) == 6 and wrong == []
    assert client.round_trips == sum(-(-85 // size) for size in range(1, 7))
