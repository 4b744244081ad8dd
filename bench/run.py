"""seqdec benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload raw-lookahead-trigram --seed 1 --seconds 45 --trace 0

A single client decodes the workload's seeded inputs back to back (a
closed loop with one caller) for ``--seconds`` seconds, checks every
output, and prints a report line and, last, one JSON result line.

With ``--trace 0`` the timed run calls ``decode()`` on the plain scorer
and patches nothing; the result carries the end-to-end metrics. With
``--trace 1`` untraced and traced blocks alternate, and the result
carries the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import KeyLog, TracedScorer, Tracer, patched
from workloads import CANARY_SEED, WORKLOADS, inputs, result_digest

from seqdec.core import ScorerTransportError
from seqdec.remote import RemoteScorer

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="ascii"))

#: At this seed the digest of the first NLL_N timed outputs is checked
#: against ``expected.json``.
DEFAULT_SEED = 1
#: A run is SEGMENTS segments of equal timed length. Each segment sets
#: up afresh (model, server, canary warm-up) and then decodes, so the
#: set-ups sample the machine's speed over the whole run, like the
#: decodes, instead of all falling into one second of it. Set-up
#: metrics are medians over the segments.
SEGMENTS = 10
#: Canary decodes per set-up. They are the warm-up, and their digest is
#: checked against ``expected.json`` on every run, whatever the seed.
CANARY_N = 30
#: mean_nll and the default-seed digest cover the first NLL_N timed
#: decodes, so both are exact per seed.
NLL_N = 2000
#: Length of one untraced or traced block in a --trace 1 run.
BLOCK_S = 1.0
#: sentence_ms_tail is this percentile of all the run's latencies, on
#: every workload. p99 read from one run moved with the few slowest
#: inputs a seed happens to draw (raw-lookahead-trigram) and with
#: sub-second stalls of the machine (remote-bigram); p95 did not.
TAIL_PERCENTILE = 95.0
#: Bytes of each remote output's digest kept for the in-process comparison.
DIGEST_BYTES = 16
NO_DIGEST = bytes(DIGEST_BYTES)
NOISE_NOTE = ("noise is controlled only by repeats and medians; the machine's "
              "settings (frequency scaling, other tenants, affinity) were not changed")


def _decode_fn():
    # ``seqdec.decode`` as an attribute is the re-exported function; the
    # module is only reachable through sys.modules.
    return sys.modules["seqdec.decode"].decode


# ---------------------------------------------------------------- set-up


def start_child(kind: str, trace: bool):
    """Start a ScorerServer process; returns (process, port)."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "server_child.py"), kind, "1" if trace else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    line = proc.stdout.readline() if ready else ""
    if not line:
        stop_child(proc)
        raise RuntimeError("scorer server process did not report a port")
    return proc, json.loads(line)["port"]


def stop_child(proc) -> dict:
    """Close the child's stdin, wait for it, and return its totals."""
    try:
        out, _ = proc.communicate(input="", timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    lines = (out or "").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {}
    return json.loads(lines[-1])


@dataclass
class Remote:
    proc: subprocess.Popen
    client: RemoteScorer
    totals: dict = field(default_factory=dict)

    def close(self) -> None:
        self.client.close()
        self.totals = stop_child(self.proc)


def connect(kind: str, vocabulary, trace: bool) -> Remote:
    proc, port = start_child(kind, trace)
    try:
        return Remote(proc, RemoteScorer(vocabulary, "127.0.0.1", port))
    except BaseException:
        stop_child(proc)
        raise


def canary(workload, scorer) -> bool:
    """Decode the fixed canary inputs; True if their digest is the recorded one."""
    chain = _new_chain()
    stream = inputs(workload, CANARY_SEED, scorer.vocabulary)
    decode = _decode_fn()
    try:
        for i in range(CANARY_N):
            config = workload.configs[i % len(workload.configs)]
            chain.update(result_digest(decode(scorer, next(stream), config)))
    except Exception:
        traceback.print_exc()
        return False
    return chain.hexdigest() == EXPECTED["canary"][workload.name]


@dataclass
class Setup:
    model: object
    scorer: object
    remote: Remote | None
    canary_ok: bool
    times: dict

    def close(self) -> None:
        if self.remote is not None:
            self.remote.close()
            self.remote = None


def set_up(workload, wrap=None) -> Setup:
    """Build the model, start the server (remote), and warm up with the
    canary. ``wrap``, if given, wraps the scorer that decodes see."""
    t0 = time.perf_counter()
    model = workloads.build_model(workload.model)
    t1 = time.perf_counter()
    remote = connect(workload.model, model.vocabulary, False) if workload.remote else None
    t2 = time.perf_counter()
    try:
        scorer = remote.client if remote else model
        if wrap is not None:
            scorer = wrap(scorer)
        ok = canary(workload, scorer)
    except BaseException:
        if remote:
            remote.close()
        raise
    t3 = time.perf_counter()
    return Setup(model, scorer, remote, ok, {
        "model_build_s": t1 - t0, "server_start_s": t2 - t1,
        "warmup_s": t3 - t2, "setup_s": t3 - t0})


# ---------------------------------------------------------------- phases


def _new_chain():
    return hashlib.sha256()


@dataclass
class Tally:
    """What one kind of block (untraced or traced) did."""

    attempted: int = 0
    failed: int = 0
    transport_errors: int = 0
    busy_ns: int = 0
    latencies_ns: array.array = field(default_factory=lambda: array.array("q"))
    logical_calls: int = 0
    length_sum: int = 0


@dataclass
class Run:
    workload: object
    attempted: int = 0
    nll: list = field(default_factory=list)
    chain: object = field(default_factory=_new_chain)
    #: digest of the outputs whose NLL is in ``nll``
    prefix_chain: object = field(default_factory=_new_chain)
    #: DIGEST_BYTES of each output's digest, in decode order
    remote_digests: bytearray = field(default_factory=bytearray)
    first_error: str = ""
    stopped: bool = False


def run_block(run: Run, tally: Tally, stream, scorer, call, deadline: float) -> None:
    """Decode back to back until ``deadline`` (perf_counter seconds).

    Only the loop and the ``decode()`` calls count towards ``busy_ns``;
    the per-decode checks below are timed and left out.
    """
    configs = run.workload.configs
    decode = _decode_fn()
    start = time.perf_counter_ns()
    checks_ns = 0
    while not run.stopped and time.perf_counter() < deadline:
        inp = next(stream)
        config = configs[run.attempted % len(configs)]
        run.attempted += 1
        tally.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            result = call(decode, scorer, inp, config)
        except ScorerTransportError as exc:
            # the connection is gone: every later decode would fail the same way
            if run.workload.remote:
                run.remote_digests += NO_DIGEST
            tally.failed += 1
            tally.transport_errors += 1
            run.first_error = run.first_error or repr(exc)
            run.stopped = True
            break
        except Exception:
            if run.workload.remote:
                run.remote_digests += NO_DIGEST
            tally.failed += 1
            run.first_error = run.first_error or traceback.format_exc()
            continue
        t1 = time.perf_counter_ns()
        tally.latencies_ns.append(t1 - t0)
        best = result.best
        total = 0.0
        for lp in best.step_logprobs:
            total += lp
        valid = total == best.cum_logprob and best.length <= config.max_len
        tally.failed += not valid
        digest = result_digest(result)
        run.chain.update(digest)
        if run.workload.remote:
            # an invalid output is already failed; do not count it twice
            run.remote_digests += digest[:DIGEST_BYTES] if valid else NO_DIGEST
        if len(run.nll) < NLL_N:
            run.nll.append(-best.cum_logprob)
            run.prefix_chain.update(digest)
        tally.logical_calls += result.scorer_calls
        tally.length_sum += best.length
        checks_ns += time.perf_counter_ns() - t1
    tally.busy_ns += time.perf_counter_ns() - start - checks_ns


def check_remote_outputs(run: Run, model, seed) -> int:
    """Decode every remote input again in process; returns the mismatch count.

    Decodes that raised or failed a check hold NO_DIGEST; they are
    already counted as failed.
    """
    decode = _decode_fn()
    configs = run.workload.configs
    stream = inputs(run.workload, seed, model.vocabulary)
    mismatches = 0
    for i in range(len(run.remote_digests) // DIGEST_BYTES):
        inp = next(stream)
        remote = run.remote_digests[i * DIGEST_BYTES:(i + 1) * DIGEST_BYTES]
        if remote == NO_DIGEST:
            continue
        try:
            local = result_digest(decode(model, inp, configs[i % len(configs)]))
        except Exception:
            local = NO_DIGEST
        mismatches += local[:DIGEST_BYTES] != remote
    return mismatches


def _plain_call(decode, scorer, inp, config):
    return decode(scorer, inp, config)


# ---------------------------------------------------------------- metrics


def nearest_rank(ordered, p: float) -> int:
    """Index of the p-th percentile of the sorted ``ordered``, by nearest rank."""
    return max(1, -(-int(p * len(ordered)) // 100)) - 1


def _median(setup_times, key) -> float:
    return statistics.median(t[key] for t in setup_times)


def _m(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _rate(tally: Tally) -> float:
    """Decodes completed per second of the tally's blocks."""
    return len(tally.latencies_ns) / (tally.busy_ns / 1e9) if tally.busy_ns else 0.0


def end_to_end(tally: Tally, run: Run, setups, failed: int) -> tuple[dict, dict]:
    ordered = sorted(tally.latencies_ns)
    n = len(ordered)
    tail = nearest_rank(ordered, TAIL_PERCENTILE)
    ok = tally.attempted - failed
    metrics = {
        "sentences_per_s": _m(_rate(tally), "1/s"),
        "sentence_ms_iqm": _m(statistics.fmean(ordered[n // 4:n - n // 4]) / 1e6, "ms"),
        "sentence_ms_tail": _m(ordered[tail] / 1e6, "ms"),
        "setup_s": _m(_median(setups, "setup_s"), "s"),
        "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_share": _m(ok / tally.attempted, "ratio"),
        "mean_nll": _m(statistics.fmean(run.nll), "nats"),
    }
    extra = {"segments": len(setups), "p50_ms": statistics.median(ordered) / 1e6,
             "tail_percentile": TAIL_PERCENTILE, "tail_samples": n,
             "tail_samples_beyond": n - 1 - tail,
             "failed_share": failed / tally.attempted, "failed_share_base": tally.attempted,
             "mean_nll_base": len(run.nll)}
    return metrics, extra


def per_layer(untraced: Tally, traced: Tally, s: dict, keys: KeyLog,
              server: dict, setups, transport_errors: int, remote: bool) -> dict:
    """Per-layer metrics from the span summary ``s`` (see Tracer.summary)."""
    n = max(s["decodes"], 1)
    ms = lambda ns: ns / 1e6 / n  # noqa: E731
    if remote:
        model_calls, busy_ns = server.get("calls", 0), server.get("scorer_ns", 0)
        trips, client_ns = s["scorer_calls"], s["scorer_ns"]
    else:
        model_calls, busy_ns = s["scorer_calls"], s["scorer_ns"]
        trips, client_ns = 0, 0
    wire_ns = client_ns - busy_ns if remote else 0
    untraced_rate = _rate(untraced)
    return {
        "scorers.model_calls_per_sentence": _m(model_calls / n, "count"),
        "scorers.duplicate_call_share": _m(keys.within / max(keys.calls, 1), "ratio"),
        "scorers.busy_ms_per_sentence": _m(ms(busy_ns), "ms"),
        "scorers.us_per_call": _m(busy_ns / 1e3 / max(model_calls, 1), "us"),
        "scorers.cross_decode_repeat_share": _m(keys.across / max(keys.calls, 1), "ratio"),
        "decode.logical_calls_per_sentence": _m(traced.logical_calls / n, "count"),
        "decode.self_ms_per_sentence": _m(ms(s["decode_self_ns"]), "ms"),
        "decode.lookahead_ms_per_sentence": _m(ms(s["lookahead_ns"]), "ms"),
        "decode.lookahead_self_ms_per_sentence": _m(ms(s["lookahead_self_ns"]), "ms"),
        "decode.lookahead_calls_per_sentence": _m(s["lookahead_calls"] / n, "count"),
        "decode.lookahead_nodes_per_sentence": _m(s["lookahead_nodes"] / n, "count"),
        "core.extend_calls_per_sentence": _m(s["extend_calls"] / n, "count"),
        "remote.round_trips_per_sentence": _m(trips / n, "count"),
        "remote.client_ms_per_sentence": _m(ms(client_ns), "ms"),
        "remote.server_scorer_ms_per_sentence": _m(ms(busy_ns) if remote else 0.0, "ms"),
        "remote.wire_ms_per_sentence": _m(ms(wire_ns), "ms"),
        "remote.us_per_round_trip": _m(client_ns / 1e3 / trips if trips else 0.0, "us"),
        "remote.failed_round_trips": _m(transport_errors, "count"),
        "setup.model_build_s": _m(_median(setups, "model_build_s"), "s"),
        "setup.server_start_s": _m(_median(setups, "server_start_s"), "s"),
        "setup.warmup_s": _m(_median(setups, "warmup_s"), "s"),
        "trace.overhead_share": _m(1.0 - _rate(traced) / untraced_rate if untraced_rate else 0.0,
                                   "ratio"),
    }


# ---------------------------------------------------------------- entry points


def measure(workload_name: str, seed: int, seconds: float, trace: bool, wrap=None,
            on_timed_start=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, report).

    ``wrap`` wraps the scorer that decodes see and ``on_timed_start`` is
    called with the first live Setup just before timing starts; both
    exist for the benchmark's own tests.
    """
    workload = WORKLOADS[workload_name]
    report = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "loadavg_start": os.getloadavg(), "note": NOISE_NOTE}
    run = Run(workload)
    untraced, traced = Tally(), Tally()
    tracer, keys = Tracer(), KeyLog()
    traced_call = lambda decode, *a: tracer.call_decode(decode, *a)  # noqa: E731
    segment_s = seconds / SEGMENTS
    block_s = min(BLOCK_S, segment_s / 2)
    # only the live set-up's model is kept, so the set-ups do not add up in peak_rss_mb
    setups, canary_ok, live, traced_remote = [], True, None, None
    try:
        for _ in range(SEGMENTS):
            if live is not None:
                live.close()
            live = set_up(workload, wrap)  # closes what it opened if it raises
            setups.append(live.times)
            canary_ok &= live.canary_ok
            if len(setups) == 1:
                vocab = live.model.vocabulary
                stream = inputs(workload, seed, vocab)
                if trace and workload.remote:
                    traced_remote = connect(workload.model, vocab, True)
            gc.collect()
            if on_timed_start is not None and len(setups) == 1:
                on_timed_start(live)
            end = time.perf_counter() + segment_s
            if not trace:
                run_block(run, untraced, stream, live.scorer, _plain_call, end)
            else:
                traced_scorer = TracedScorer(
                    traced_remote.client if traced_remote else live.scorer, tracer, keys)
                while not run.stopped and time.perf_counter() < end:
                    run_block(run, untraced, stream, live.scorer, _plain_call,
                              min(end, time.perf_counter() + block_s))
                    with patched(tracer):
                        run_block(run, traced, stream, traced_scorer, traced_call,
                                  min(end, time.perf_counter() + block_s))
            if run.stopped:
                break
    finally:
        if live is not None:
            live.close()
        if traced_remote is not None:
            traced_remote.close()

    remote_mismatches = check_remote_outputs(run, live.model, seed) if workload.remote else 0
    # the default-seed digest can be checked once NLL_N decodes are done
    prefix_checked = seed == DEFAULT_SEED and len(run.nll) == NLL_N
    prefix_ok = (not prefix_checked
                 or run.prefix_chain.hexdigest() == EXPECTED["first_decodes"][workload_name])
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed + remote_mismatches
    if not (canary_ok and prefix_ok):
        failed = attempted
    transport_errors = untraced.transport_errors + traced.transport_errors
    correct = canary_ok and prefix_ok and failed == 0 and attempted > 0
    done = len(untraced.latencies_ns) + len(traced.latencies_ns)
    report.update({
        "canary_ok": canary_ok, "remote_mismatches": remote_mismatches,
        "first_decodes_digest": run.prefix_chain.hexdigest(), "first_decodes": len(run.nll),
        "first_decodes_checked": prefix_checked, "first_decodes_ok": prefix_ok,
        "transport_errors": transport_errors, "digest": run.chain.hexdigest(),
        "properties": {
            "ext_tokens_per_row": len(vocab.extension_ids),
            "mean_output_len": (untraced.length_sum + traced.length_sum) / max(done, 1),
            "mean_output_len_base": done,
        },
        "first_error": run.first_error,
    })
    if not trace:
        if not untraced.latencies_ns or not run.nll:
            metrics = {}
        else:
            metrics, extra = end_to_end(untraced, run, setups, failed)
            report.update(extra)
    else:
        server = traced_remote.totals if traced_remote else {}
        summary = tracer.summary()
        metrics = per_layer(untraced, traced, summary, keys, server, setups,
                            transport_errors, workload.remote)
        report["properties"].update({
            "duplicate_call_share": metrics["scorers.duplicate_call_share"]["value"],
            "cross_decode_repeat_share": metrics["scorers.cross_decode_repeat_share"]["value"],
            "share_base_scorer_calls": keys.calls,
            "round_trips_per_sentence": metrics["remote.round_trips_per_sentence"]["value"],
            "traced_decodes": summary["decodes"],
        })
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload_name}.tsv"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(workloads.ROOT))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
