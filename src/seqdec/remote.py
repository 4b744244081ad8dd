"""Remote scorer client and loopback server.

Wire protocol v2: newline-delimited JSON over a reliable byte stream,
one request per batch of prefixes, so a beam step costs one round trip.
Request:  {"id": uint, "context": str, "prefixes": [[token string, ...], ...]}
Response: {"id": uint, "rows": [[float or null, ...], ...]}
with one row per prefix, in request order, each holding a value for
every extension token in extension-id order (vocabulary order without
BOS). null is a zero-probability token (log-probability -inf), so every
message is strict JSON, without NaN or Infinity. Ids are echoed; the
peer answers requests in order. There is no version field: a server from
before v2 answers a v2 request with the error "KeyError: 'prefix'", which
the client raises as ScorerTransportError.

Rows are positional, so both ends must list the same extension tokens
in the same order. Until it has read a reply with rows, the client adds
"extension_tokens": [token string, ...] (its extension tokens in
extension-id order) to each request; the server answers a request whose
list differs from its own with an error reply, so a vocabulary that is
permuted, or of the same size with other tokens, is a
ScorerTransportError and not a silently wrong decode.

The client checks every row on receipt and returns it as a ``Row``: one
JSON number or null per extension token, normalization within 1e-6
(looser than the in-process 1e-9 to tolerate text round-trip rounding;
a NaN fails it) and no positive value. A request the server cannot
answer (bad JSON, a NaN or Infinity in it, no "prefixes" list, an
unknown token or a prefix without BOS anywhere in the batch, a scorer
row that ``CountingScorer`` refuses) gets one reply, {"id": uint or
null, "error": str}, and the connection stays open. A request line
longer than ``MAX_REQUEST_BYTES`` (newline included) gets the error
reply with id null, and the server closes the connection: it reads no
more of the line, so it cannot find where the next request begins.

The client reads at most 32 bytes per value the request asks for
(prefixes x extension tokens), plus 8 bytes per request byte (room for
an error reply that quotes the request), plus 1024 bytes, of a reply
line, newline included. A longer reply raises ScorerTransportError at
once, and the client closes the connection, as it cannot find where the
next reply begins.

The server writes each ``Row``'s JSON text on the row's first reply and
keeps it with the row, as ``Row.ranked()`` keeps its ranking; a row is
immutable, so a shared row (every row the shipped models return) is
printed once, and a scorer that returns mappings pays one print per call.
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


#: Reads a response line with every JSON number as a float.
_read_response = json.JSONDecoder(parse_int=float).decode

#: The longest request line, newline included, that the server reads.
MAX_REQUEST_BYTES = 8 * 2**20

#: The client's reply-line limit, as the module docstring gives it: bytes
#: per value asked (a float's repr is at most 24), per request byte, and more.
_REPLY_BYTES_PER_VALUE = 32
_REPLY_BYTES_PER_REQUEST_BYTE = 8
_REPLY_SLACK_BYTES = 1024


class RemoteScorer:
    """Client over a connected byte stream speaking the wire protocol.

    ``round_trips`` counts the requests sent, one per batch.
    """

    def __init__(self, vocabulary: Vocabulary, host: str, port: int,
                 timeout: float = 10.0):
        self.vocabulary = vocabulary
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ScorerTransportError(f"connect to {host}:{port} failed: {exc}") from exc
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._lock = threading.Lock()
        self.round_trips = 0
        #: Sent with each request until the server has answered one with rows.
        self._extension_tokens = vocabulary.to_strings(vocabulary.extension_ids)

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
        """One row per prefix, from one round trip."""
        vocabulary = self.vocabulary
        tokens = vocabulary.tokens
        with self._lock:
            if self._file.closed:
                raise ScorerTransportError("the connection is closed")
            req_id = self._next_id
            self._next_id += 1
            self.round_trips += 1
            request = {"id": req_id, "context": context,
                       "prefixes": [[tokens[i] for i in p] for p in prefixes]}
            if self._extension_tokens is not None:
                request["extension_tokens"] = self._extension_tokens
            data = json.dumps(request).encode("utf-8") + b"\n"
            limit = (_REPLY_BYTES_PER_VALUE * len(prefixes) * len(vocabulary.extension_ids)
                     + _REPLY_BYTES_PER_REQUEST_BYTE * len(data) + _REPLY_SLACK_BYTES)
            try:
                self._file.write(data)
                self._file.flush()
                line = self._file.readline(limit + 1)
            except OSError as exc:
                raise ScorerTransportError(f"request failed: {exc}") from exc
            if len(line) > limit:
                # the rest of the line is unread, so no later reply can be found
                self.close()
                raise ScorerTransportError(
                    f"reply line longer than {limit} bytes; the connection is closed")
        if not line:
            raise ScorerTransportError("peer closed the connection")
        try:
            response = _read_response(line.decode("utf-8"))
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ScorerTransportError(f"malformed response: {exc}") from exc
        if not isinstance(response, dict):
            raise ScorerTransportError("malformed response: not a JSON object")
        if "error" in response:
            raise ScorerTransportError(f"server error: {response['error']}")
        if response.get("id") != req_id:
            raise ScorerTransportError(
                f"response id {response.get('id')} does not match request {req_id}")
        rows = response.get("rows")
        if not isinstance(rows, list) or len(rows) != len(prefixes):
            raise ScorerTransportError(
                f"response must hold a list of {len(prefixes)} rows, one per prefix")
        self._extension_tokens = None  # the server has checked them
        return [self._row(values) for values in rows]

    def _row(self, values) -> Row:
        n_ext = len(self.vocabulary.extension_ids)
        if not isinstance(values, list) or len(values) != n_ext:
            raise ScorerTransportError(
                f"response row must be a list of {n_ext} values, one per extension token")
        lps = [NEG_INF if v is None else v for v in values]
        malformed = [v for v in lps if type(v) is not float]  # not a JSON number
        if malformed:
            raise ScorerTransportError(f"malformed log-probability {malformed[0]!r}")
        try:
            mass = sum(map(math.exp, lps))
        except OverflowError:  # a log-probability above about 709
            mass = math.inf
        if not abs(mass - 1.0) <= 1e-6:  # also rejects NaN
            raise ScorerTransportError(f"response row sums to {mass}, not 1")
        try:
            return Row.of(self.vocabulary, lps)
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
    if not isinstance(prefix, list):
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


def _row_text(row: Row) -> str:
    """The row's JSON text in a reply, written on its first reply and kept
    with the row: a ``Row`` is immutable, so its text never changes."""
    text = row._wire
    if text is None:
        text = row._wire = json.dumps([None if lp == NEG_INF else lp for lp in row.values()],
                                      allow_nan=False)
    return text


def _error_reply(req_id, message: str) -> bytes:
    return json.dumps({"id": req_id, "error": message}, allow_nan=False).encode("utf-8") + b"\n"


def _respond(counted: CountingScorer, line: bytes) -> bytes:
    """The encoded response to one request line: its rows, or an error
    naming what was wrong with the request."""
    req_id = None
    try:
        request = _read_request(line.decode(json.detect_encoding(line), "surrogatepass"))
        req_id = request.get("id")
        context = request.get("context", "")
        if "extension_tokens" in request:
            vocabulary = counted.vocabulary
            if request["extension_tokens"] != vocabulary.to_strings(vocabulary.extension_ids):
                raise ValueError("extension tokens differ from the server's")
        if not isinstance(request["prefixes"], list):
            raise TypeError("prefixes must be a list of prefixes")
        prefixes = [_prefix(counted.vocabulary.token_ids, p) for p in request["prefixes"]]
        rows = ", ".join(map(_row_text, counted.next_logprobs_batch(context, prefixes)))
        # the bytes json.dumps({"id": req_id, "rows": ...}) writes
        response = '{"id": ' + json.dumps(req_id, allow_nan=False) + ', "rows": [' + rows + ']}'
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        return _error_reply(req_id, f"{type(exc).__name__}: {exc}")
    return response.encode("utf-8") + b"\n"


class _ScorerRequestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        counted = CountingScorer(self.server.scorer)  # type: ignore[attr-defined]
        while line := self.rfile.readline(MAX_REQUEST_BYTES + 1):
            if len(line) > MAX_REQUEST_BYTES:
                self.wfile.write(_error_reply(
                    None, f"ValueError: request line longer than {MAX_REQUEST_BYTES} bytes"))
                return  # the connection closes
            if line.strip():
                self.wfile.write(_respond(counted, line))
                self.wfile.flush()


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
