"""The benchmark's own tests. Run from the root of a checkout with

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_reports_every_declared_metric(workload, trace):
    result, report = run.measure(workload, seed=3, seconds=0.3, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["canary_ok"] and report["remote_mismatches"] == 0


def test_default_seed_first_decodes_match_the_recorded_digest():
    result, report = run.measure("remote-bigram", seed=run.DEFAULT_SEED, seconds=12.0,
                                 trace=False)
    assert report["first_decodes_checked"] and report["first_decodes_ok"]
    assert result["correct"] and result["failed"] == 0


def test_bench_json_workloads_match_the_runner():
    assert sorted(NAMES) == sorted(run.WORKLOADS)


class _Perturbed:
    """Scorer proxy that shifts the EOS log-probability of every row."""

    def __init__(self, inner):
        self.inner = inner
        self.vocabulary = inner.vocabulary

    def next_logprobs(self, context, prefix):
        row = dict(self.inner.next_logprobs(context, prefix))
        row[self.vocabulary.eos_id] -= 1e-9
        return row


def test_perturbed_logprob_fails_decodes_without_crashing():
    result, report = run.measure("raw-lookahead-trigram", seed=3, seconds=0.3,
                                 trace=False, wrap=_Perturbed)
    assert not report["canary_ok"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_share"]["value"] == 0.0


@pytest.mark.parametrize("trace", [False, True])
def test_killed_server_ends_run_with_transport_error(trace):
    def kill_soon(setup):
        threading.Timer(0.3, setup.remote.proc.kill).start()

    t0 = time.monotonic()
    result, report = run.measure("remote-bigram", seed=3, seconds=10.0, trace=trace,
                                 on_timed_start=kill_soon)
    assert time.monotonic() - t0 < 8.0
    assert not result["correct"] and result["failed"] >= 1
    assert report["transport_errors"] == 1
    assert "ScorerTransportError" in report["first_error"]
    if trace:
        assert result["metrics"]["remote.failed_round_trips"]["value"] == 1
    else:
        assert result["metrics"]["success_share"]["value"] < 1.0


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
