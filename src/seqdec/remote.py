"""Remote scorer client and loopback server.

Wire protocol: newline-delimited JSON over a reliable byte stream.
Request:  {"id": uint, "context": str, "prefix": [token string, ...]}
Response: {"id": uint, "logprobs": {token string: float or null, ...}}
covering every extension token; null is a zero-probability token
(log-probability -inf), so every message is strict JSON, without
NaN or Infinity. A client that predates null rejects it as malformed,
and the protocol carries no version, so clients are upgraded before
or with their servers. Ids are echoed; the peer answers requests in order.
Rows are validated for vocabulary coverage and normalization within
1e-6 (looser than the in-process 1e-9 to tolerate text round-trip
rounding); a NaN fails the normalization test. A request the server
cannot answer (bad JSON, a NaN or Infinity in it, an unknown token, a
prefix without BOS, a row that is not finite or -inf) gets
{"id": uint or null, "error": str}, and the connection stays open.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from typing import Sequence

from seqdec.core import NEG_INF, ScorerTransportError, Vocabulary
from seqdec.scorers import Scorer


class RemoteScorer:
    """Client over a connected byte stream speaking the wire protocol."""

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

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    def next_logprobs(self, context: str, prefix: Sequence[int]) -> dict[int, float]:
        """The row as a new dict; a null log-probability reads as -inf."""
        vocab = self.vocabulary
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            request = {"id": req_id, "context": context,
                       "prefix": [vocab.tokens[i] for i in prefix]}
            try:
                self._file.write(json.dumps(request).encode("utf-8") + b"\n")
                self._file.flush()
                line = self._file.readline()
            except OSError as exc:
                raise ScorerTransportError(f"request failed: {exc}") from exc
        if not line:
            raise ScorerTransportError("peer closed the connection")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ScorerTransportError(f"malformed response: {exc}") from exc
        if not isinstance(response, dict):
            raise ScorerTransportError("malformed response: not a JSON object")
        if "error" in response:
            raise ScorerTransportError(f"server error: {response['error']}")
        if response.get("id") != req_id:
            raise ScorerTransportError(
                f"response id {response.get('id')} does not match request {req_id}")
        logprobs = response.get("logprobs")
        if not isinstance(logprobs, dict):
            raise ScorerTransportError("response missing logprobs object")
        try:
            values = [logprobs[vocab.tokens[tid]] for tid in vocab.extension_ids]
            row = {tid: NEG_INF if v is None else float(v)
                   for tid, v in zip(vocab.extension_ids, values)}
        except KeyError as exc:
            raise ScorerTransportError(f"response missing token {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ScorerTransportError(f"malformed log-probability: {exc}") from exc
        mass = sum(math.exp(lp) for lp in row.values() if lp != NEG_INF)
        if not abs(mass - 1.0) <= 1e-6:  # also rejects NaN
            raise ScorerTransportError(f"response row sums to {mass}, not 1")
        return row


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is out of range")
    return value


def _respond(scorer: Scorer, str_to_id: dict[str, int], line: bytes) -> bytes:
    """The encoded response to one request line: its row, or an error
    naming what was wrong with the request."""
    req_id = None
    try:
        request = json.loads(line, parse_constant=_reject_constant,
                             parse_float=_finite_float)
        req_id = request.get("id")
        unknown = [t for t in request["prefix"] if t not in str_to_id]
        if unknown:
            raise ValueError(f"unknown token {unknown[0]!r}")
        prefix = tuple(str_to_id[t] for t in request["prefix"])
        row = scorer.next_logprobs(request.get("context", ""), prefix)
        tokens = scorer.vocabulary.tokens
        logprobs = {tokens[tid]: None if lp == NEG_INF else lp for tid, lp in row.items()}
        response = json.dumps({"id": req_id, "logprobs": logprobs}, allow_nan=False)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        response = json.dumps({"id": req_id, "error": f"{type(exc).__name__}: {exc}"},
                              allow_nan=False)
    return response.encode("utf-8") + b"\n"


class _ScorerRequestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        scorer: Scorer = self.server.scorer  # type: ignore[attr-defined]
        str_to_id = {tok: i for i, tok in enumerate(scorer.vocabulary.tokens)}
        for line in self.rfile:
            if not line.strip():
                continue
            self.wfile.write(_respond(scorer, str_to_id, line))
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
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return self
