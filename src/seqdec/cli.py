"""Command-line interface: decode, compare, train, oracle.

Exit codes: 0 success, 2 bad input/configuration (an unreadable or
unwritable file too), 3 scorer transport failure, 4 budget refusal.
Output files are written via a temp file and renamed, so a failed run
leaves no partial output behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from contextlib import closing, nullcontext
from typing import Sequence

from seqdec.core import (
    DEFAULT_BUDGET,
    VALID_MODES,
    VALID_STRATEGIES,
    BudgetExceededError,
    DecodeConfig,
    DecodeInput,
    ScorerTransportError,
)
from seqdec.decode import decode
from seqdec.metrics import compare_strategies, perplexity, rows_to_csv, step_uid_error
from seqdec.oracle import brute_force_map, enumerate_all
from seqdec.remote import RemoteScorer
from seqdec.scorers import load_model, load_vocabulary, train_ngram

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRANSPORT = 3
EXIT_BUDGET = 4


def _atomic_write(path: str, text: str) -> None:
    """Writes ``text`` to a temp file beside ``path`` and renames it over
    ``path``; an ``OSError`` names ``path``, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".seqdec-")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        umask = os.umask(0o022)  # os.umask reads the mask only by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp made it 0600; open(path, "w") gives this
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _read_corpus(path: str) -> list[DecodeInput]:
    inputs = []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: record is not a JSON object")
            if "id" not in obj:
                raise ValueError(f"{path}:{lineno}: record missing 'id'")
            # exact types: a JSON boolean is not a number
            if type(obj["id"]) not in (str, int, float):
                raise ValueError(f"{path}:{lineno}: 'id' must be a string or a number")
            context = obj.get("context", "")
            if not isinstance(context, str):
                raise ValueError(f"{path}:{lineno}: 'context' must be a string")
            rid = str(obj["id"])  # the id as it is written
            if rid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate id {rid!r}")
            seen.add(rid)
            inputs.append(DecodeInput(id=rid, context=context))
    return inputs


def _open_scorer(args):
    """The remote scorer at --endpoint, with --model as its vocabulary
    file, or without --endpoint the model saved at --model; as a context
    manager that closes a remote one on exit."""
    remote = args.endpoint is not None
    if not args.model:
        raise ValueError("--model (vocabulary file) required for remote scorer" if remote
                         else "--model required")
    try:
        loaded = load_vocabulary(args.model) if remote else load_model(args.model)
    except (OSError, KeyError, ValueError) as exc:
        what = "vocabulary from" if remote else "model"
        raise ValueError(f"cannot load {what} {args.model}: {exc}") from exc
    if not remote:
        return nullcontext(loaded)
    host, _, port = args.endpoint.rpartition(":")
    if host.startswith("[") and host.endswith("]"):  # an IPv6 address, as [::1]:9000
        host = host[1:-1]
    try:
        number = int(port)
    except ValueError:
        number = 0
    if not 1 <= number <= 65535:  # the resolver would wrap it modulo 65536
        raise ValueError(f"--endpoint {args.endpoint}: the port must be 1 to 65535")
    return closing(RemoteScorer(loaded, host, number))


def _json_float(x: float):
    return None if math.isinf(x) else x


def cmd_decode(scorer, corpus, args) -> str:
    config = DecodeConfig(beam_width=args.k, lookahead_depth=args.d,
                          max_len=args.max_len, strategy=args.strategy,
                          mode=args.mode, budget=args.budget)
    lines = []
    for inp in corpus:
        t0 = time.perf_counter()
        result = decode(scorer, inp, config)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        best = result.best
        record = {
            "id": inp.id,
            "tokens": scorer.vocabulary.to_strings(best.tokens[1:]),
            "score": _json_float(best.cum_logprob),
            "nll": _json_float(-best.cum_logprob),
            "ppl": _json_float(perplexity(best)),
            "uid_error": _json_float(step_uid_error(best)),
            "length": best.length,
            "scorer_calls": result.scorer_calls,
            "wall_time_ms": wall_ms,
            "strategy": args.strategy,
            "k": args.k,
            "d": args.d,
        }
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


def _parse_runs(spec: str) -> list[tuple[str, int]]:
    """'beam,lbs:1,lhbs' -> [('beam', 0), ('lbs', 1), ('lhbs', 0)]."""
    runs = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, _, d = part.partition(":")
            runs.append((name, int(d)))
        else:
            runs.append((part, 0))
    if not runs:
        raise ValueError("empty --runs specification")
    return runs


def cmd_compare(scorer, corpus, args) -> str:
    runs = _parse_runs(args.runs)
    ks = [int(k) for k in args.ks.split(",")]
    configs = []
    for k in ks:
        for strategy, d in runs:
            configs.append(DecodeConfig(beam_width=k, lookahead_depth=d,
                                        max_len=args.max_len, strategy=strategy,
                                        mode=args.mode, budget=args.budget))
    return rows_to_csv(compare_strategies(scorer, corpus, configs))


def cmd_train(args) -> str:
    with open(args.input, encoding="utf-8") as f:
        model = train_ngram(f, args.order, args.alpha)
    return json.dumps(model.to_json(), sort_keys=True) + "\n"


def cmd_oracle(scorer, corpus, args) -> str:
    lines = []
    for inp in corpus:
        if args.enumerate:
            for tokens, score in enumerate_all(scorer, inp, args.max_len, budget=args.budget):
                lines.append(json.dumps({
                    "id": inp.id,
                    "tokens": scorer.vocabulary.to_strings(tokens[1:]),
                    "score": _json_float(score),
                }) + "\n")
        else:
            best = brute_force_map(scorer, inp, args.max_len, budget=args.budget)
            lines.append(json.dumps({
                "id": inp.id,
                "tokens": scorer.vocabulary.to_strings(best.tokens[1:]),
                "score": _json_float(best.cum_logprob),
                "p": math.exp(best.cum_logprob),
            }) + "\n")
    return "".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqdec", description="Sequence decoding toolkit",
                                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", help="model JSON path (vocabulary file with --endpoint)")
        p.add_argument("--endpoint", help="host:port of a remote scorer to use")
        p.add_argument("--input", required=True, help="JSONL corpus path")
        p.add_argument("--output", required=True, help="output path")
        p.add_argument("--max-len", dest="max_len", type=int, default=32)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_decode = sub.add_parser("decode", help="decode a JSONL corpus", allow_abbrev=False)
    add_common(p_decode)
    p_decode.add_argument("--mode", choices=VALID_MODES, default="practical")
    p_decode.add_argument("--strategy", required=True, choices=VALID_STRATEGIES)
    p_decode.add_argument("--k", type=int, default=1)
    p_decode.add_argument("--d", type=int, default=0)
    p_decode.set_defaults(func=cmd_decode)

    p_compare = sub.add_parser("compare", help="sweep strategies and emit a CSV report",
                               allow_abbrev=False)
    add_common(p_compare)
    p_compare.add_argument("--mode", choices=VALID_MODES, default="practical")
    p_compare.add_argument("--runs", required=True,
                           help="comma list of strategy[:d], e.g. beam,lbs:1,lhbs")
    p_compare.add_argument("--ks", required=True, help="comma list of beam widths")
    p_compare.set_defaults(func=cmd_compare)

    p_train = sub.add_parser("train", help="train an n-gram model from text",
                             allow_abbrev=False)
    p_train.add_argument("--input", required=True, help="text corpus path")
    p_train.add_argument("--output", required=True, help="model JSON path")
    p_train.add_argument("--order", type=int, default=2)
    p_train.add_argument("--alpha", type=float, default=1.0)

    p_oracle = sub.add_parser("oracle", help="brute-force MAP / full enumeration",
                              allow_abbrev=False)
    add_common(p_oracle)
    p_oracle.add_argument("--enumerate", action="store_true",
                          help="emit every complete sequence instead of the argmax")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "train":
            text = cmd_train(args)
        else:
            with _open_scorer(args) as scorer:
                text = args.func(scorer, _read_corpus(args.input), args)
        _atomic_write(args.output, text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScorerTransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
