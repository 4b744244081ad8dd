"""Remote scorer client and loopback server, speaking wire protocol v3.

Newline-delimited JSON over a reliable byte stream (the README's "Wire
protocol" section is the full specification), one request per batch of
at most ``MAX_REQUEST_PREFIXES`` prefixes, so a beam step costs one
round trip:
Request:  {"id": uint, "context": str, "prefixes": [[token string, ...], ...]}
Response: {"id": uint, "rows": [[float or null, ...] or uint, ...]}
One row per prefix, in request order. A row sent as a list holds one
value per extension token in extension-id order (vocabulary order
without BOS), null for -inf, so every message is strict JSON. Until it
has read a reply with rows, the client adds "extension_tokens" (its
extension tokens in extension-id order) to each request, and the server
refuses a list that differs from its own.

``RemoteScorer`` writes each request line exactly as ``json.dumps``
writes the request object, joined from each token's JSON text (made
once) and the context's (made once per context); the server writes
each reply as ``json.dumps`` writes the reply object.

Rows are numbered per connection. The server sends a row's values the
first time it sends that row object on the connection, and after that
its number: 0, 1, 2, ... in the order rows were first sent. It keys rows
by identity, not value (tuple equality reads -0.0 as 0.0), and numbers a
reply's new rows only once the scorer has answered the whole request, so
an error reply numbers nothing. Each end numbers rows only while they
hold at most ``MAX_NUMBERED_VALUES`` values (rows x extension tokens);
past that, rows go as lists. The client checks each list once (one JSON
number or null per extension token, mass 1 within 1e-6, none positive)
into a ``Row``, and reads a number back as the same ``Row``.

A request the server cannot answer gets {"id": uint or null, "error":
str}, and the connection stays open; a request line longer than
``MAX_REQUEST_BYTES`` gets that reply and the connection closes. The
client reads at most 32 bytes per value asked, 8 per request byte and
1024 more of a reply line. When it refuses a reply it raises
ScorerTransportError and closes the connection, as it can no longer find
the next reply or trust that both ends number rows alike.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from typing import Sequence

from seqdec.core import NEG_INF, Row, ScorerTransportError, Vocabulary
from seqdec.scorers import CountingScorer, Scorer


#: The longest request line, newline included, that the server reads.
MAX_REQUEST_BYTES = 8 * 2**20

#: The most prefixes one request may hold.
MAX_REQUEST_PREFIXES = 2**16

#: The most values (rows x extension tokens) the rows numbered on one
#: connection may hold, at each end.
MAX_NUMBERED_VALUES = 2**20

#: The client's reply-line limit, as the module docstring gives it: bytes
#: per value asked (a float's repr is at most 24), per request byte, and more.
_REPLY_BYTES_PER_VALUE = 32
_REPLY_BYTES_PER_REQUEST_BYTE = 8
_REPLY_SLACK_BYTES = 1024

#: Seconds the client waits to connect, for each send and for each socket read (not per reply).
_TIMEOUT_S = 10.0


class RemoteScorer:
    """Client over a connected byte stream speaking the wire protocol.

    ``round_trips`` counts the requests sent, one per batch of at most
    ``MAX_REQUEST_PREFIXES`` prefixes.
    """

    def __init__(self, vocabulary: Vocabulary, host: str, port: int):
        self.vocabulary = vocabulary
        try:
            self._sock = socket.create_connection((host, port), timeout=_TIMEOUT_S)
        except OSError as exc:
            raise ScorerTransportError(f"connect to {host}:{port} failed: {exc}") from exc
        self._file = self._sock.makefile("rb")
        self._next_id = 0
        self._lock = threading.Lock()
        self.round_trips = 0
        #: Each token's JSON text, by token id.
        self._token_texts = [json.dumps(t) for t in vocabulary.tokens]
        #: The last context sent, and its JSON text.
        self._context, self._context_text = "", '""'
        #: Sent with each request until the server has answered one with rows.
        self._extension_text = ', "extension_tokens": [' + ", ".join(
            self._token_texts[i] for i in vocabulary.extension_ids) + "]"
        #: The rows the server has numbered on this connection, by number.
        self._numbered: list[Row] = []

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> Row:
        """The row; a null log-probability reads as -inf."""
        return self.next_logprobs_batch(context, [prefix])[0]

    def next_logprobs_batch(self, context: str,
                            prefixes: Sequence[Sequence[int]]) -> list[Row]:
        """One row per prefix, from one round trip per ``MAX_REQUEST_PREFIXES``."""
        if len(prefixes) > MAX_REQUEST_PREFIXES:
            return [row for i in range(0, len(prefixes), MAX_REQUEST_PREFIXES)
                    for row in self.next_logprobs_batch(
                        context, prefixes[i:i + MAX_REQUEST_PREFIXES])]
        texts = self._token_texts
        with self._lock:
            if self._file.closed:
                raise ScorerTransportError("the connection is closed")
            req_id = self._next_id
            self._next_id += 1
            self.round_trips += 1
            if context is not self._context:
                self._context, self._context_text = context, json.dumps(context)
            # the bytes json.dumps(request) writes, joined from kept texts
            data = ('{"id": %d, "context": %s, "prefixes": [%s]%s}\n' % (
                req_id, self._context_text,
                ", ".join(["[" + ", ".join([texts[i] for i in p]) + "]" for p in prefixes]),
                self._extension_text or "")).encode()
            limit = (_REPLY_BYTES_PER_VALUE * len(prefixes) * len(self.vocabulary.extension_ids)
                     + _REPLY_BYTES_PER_REQUEST_BYTE * len(data) + _REPLY_SLACK_BYTES)
            try:
                response = self._exchange(data, limit)
                if "error" not in response:
                    return self._rows(response, req_id, len(prefixes))
            except ScorerTransportError:
                # the next reply cannot be found, or the two ends' numbered
                # rows may differ
                self.close()
                raise
        # the server refused the request, and the connection stays in step
        raise ScorerTransportError(f"server error: {response['error']}")

    def _exchange(self, data: bytes, limit: int) -> dict:
        """Sends one request line and reads its reply as a JSON object."""
        try:
            self._sock.sendall(data)
            line = self._file.readline(limit + 1)
        except OSError as exc:
            raise ScorerTransportError(f"request failed: {exc}") from exc
        if len(line) > limit:  # the rest of the line is unread
            raise ScorerTransportError(
                f"reply line longer than {limit} bytes; the connection is closed")
        if not line:
            raise ScorerTransportError("peer closed the connection")
        try:
            response = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deeply
            raise ScorerTransportError(f"malformed response: {exc}") from exc
        if not isinstance(response, dict):
            raise ScorerTransportError("malformed response: not a JSON object")
        return response

    def _rows(self, response: dict, req_id: int, n_prefixes: int) -> list[Row]:
        """The reply's rows: each number read from the numbered rows, and
        each list checked and numbered while the bound allows."""
        resp_id = response.get("id")
        if type(resp_id) is not int or resp_id != req_id:  # true and 1.0 equal 1
            raise ScorerTransportError(f"response id {resp_id!r} does not match request {req_id}")
        rows = response.get("rows")
        if not isinstance(rows, list) or len(rows) != n_prefixes:
            raise ScorerTransportError(
                f"response must hold a list of {n_prefixes} rows, one per prefix")
        numbered = self._numbered
        n_ext = len(self.vocabulary.extension_ids)
        out = []
        for item in rows:
            if type(item) is int:  # not a bool
                if not 0 <= item < len(numbered):
                    raise ScorerTransportError(f"unknown row number {item}")
                out.append(numbered[item])
                continue
            row = _row(self.vocabulary, item)
            if (len(numbered) + 1) * n_ext <= MAX_NUMBERED_VALUES:  # as the server
                numbered.append(row)
            out.append(row)
        self._extension_text = None  # the server has checked them
        return out


def _log_probability(value) -> float:
    """A row value as read from JSON: null is -inf, an integer a float."""
    if value is None:
        return NEG_INF
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ScorerTransportError(f"log-probability {value} is out of range") from None
    raise ScorerTransportError(f"malformed log-probability {value!r}")


def _row(vocabulary: Vocabulary, values) -> Row:
    """The checked ``Row`` of a row the server sent as a list."""
    n_ext = len(vocabulary.extension_ids)
    if not isinstance(values, list) or len(values) != n_ext:
        raise ScorerTransportError(f"response row must be a list of {n_ext} values, one per "
                                   f"extension token, or a row number")
    lps = [v if type(v) is float else _log_probability(v) for v in values]
    try:
        mass = sum(map(math.exp, lps))
    except OverflowError:  # a log-probability above about 709
        mass = math.inf
    if not abs(mass - 1.0) <= 1e-6:  # also rejects NaN
        raise ScorerTransportError(f"response row sums to {mass}, not 1")
    try:
        return Row.of(vocabulary, lps)
    except ValueError as exc:  # a positive value within the mass tolerance
        raise ScorerTransportError(f"response row: {exc}") from exc


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is out of range")
    return value


def _prefix(token_ids: dict[str, int], prefix) -> tuple[int, ...]:
    if type(prefix) is not list:
        raise TypeError("a prefix must be a list of token strings")
    try:
        return tuple(map(token_ids.__getitem__, prefix))
    except KeyError:
        # the whole scan, so an unhashable token after the unknown one
        # still raises its TypeError
        unknown = [t for t in prefix if t not in token_ids]
        raise ValueError(f"unknown token {unknown[0]!r}") from None


#: Reads a request line, refusing NaN, Infinity and out-of-range numbers.
_read_request = json.JSONDecoder(parse_constant=_reject_constant,
                                 parse_float=_finite_float).decode


def _error_reply(id_text: str, message: str) -> bytes:
    """The bytes json.dumps({"id": ..., "error": message}) writes, given the id's JSON text."""
    return ('{"id": %s, "error": %s}\n' % (id_text, json.dumps(message))).encode()


def _respond(counted: CountingScorer, numbers: dict[int, tuple[str, Row]],
             line: bytes) -> bytes:
    """The encoded response to one request line: its rows, or an error
    naming what was wrong with the request. ``numbers`` maps ``id(row)``
    to the number, as text, and the row (held, so the id is not reused)
    of each row numbered on the connection. Nothing after the scorer has
    answered can raise, so rows are numbered only then, and an error
    reply numbers nothing."""
    id_text = "null"
    try:
        request = _read_request(line.decode(json.detect_encoding(line), "surrogatepass"))
        req_id = request.get("id")
        # inside the try, as an id may nest too deeply to write; the parser refused NaN
        id_text = str(req_id) if type(req_id) is int else json.dumps(req_id)
        context = request.get("context", "")
        vocabulary = counted.vocabulary
        if "extension_tokens" in request:
            if request["extension_tokens"] != vocabulary.to_strings(vocabulary.extension_ids):
                raise ValueError("extension tokens differ from the server's")
        items = request["prefixes"]
        if not isinstance(items, list):
            raise TypeError("prefixes must be a list of prefixes")
        if len(items) > MAX_REQUEST_PREFIXES:
            raise ValueError(f"more than {MAX_REQUEST_PREFIXES} prefixes in one request")
        rows = counted.next_logprobs_batch(
            context, [_prefix(vocabulary.token_ids, p) for p in items])
    # RecursionError: a line nested too deeply to parse, or an id to write
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as exc:
        return _error_reply(id_text, f"{type(exc).__name__}: {exc}")
    n_ext, texts = len(vocabulary.extension_ids), []
    for row in rows:
        known = numbers.get(id(row))
        if known is not None:
            texts.append(known[0])
            continue
        values = vocabulary.extension_values(row)
        texts.append(json.dumps([None if lp == NEG_INF else lp for lp in values],
                                allow_nan=False))
        if (len(numbers) + 1) * n_ext <= MAX_NUMBERED_VALUES:  # as the client
            numbers[id(row)] = (str(len(numbers)), row)
    # the bytes json.dumps({"id": req_id, "rows": ...}) writes
    return ('{"id": %s, "rows": [%s]}\n' % (id_text, ", ".join(texts))).encode()


class _ScorerRequestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        counted = CountingScorer(self.server.scorer)  # type: ignore[attr-defined]
        numbers: dict[int, tuple[str, Row]] = {}
        send = self.connection.sendall
        while line := self.rfile.readline(MAX_REQUEST_BYTES + 1):
            if len(line) > MAX_REQUEST_BYTES:
                send(_error_reply(
                    "null", f"ValueError: request line longer than {MAX_REQUEST_BYTES} bytes"))
                return  # the connection closes
            if line.strip():
                send(_respond(counted, numbers, line))


class ScorerServer(socketserver.ThreadingTCPServer):
    """Loopback server exposing any in-process scorer over the protocol."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, scorer: Scorer, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _ScorerRequestHandler)
        self.scorer = scorer

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def start(self) -> "ScorerServer":
        # serve_forever sees shutdown() only between polls: poll every 20 ms, not 0.5 s
        thread = threading.Thread(target=self.serve_forever, args=(0.02,), daemon=True)
        thread.start()
        return self
