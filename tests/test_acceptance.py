"""Acceptance suite: one test per release criterion, each printing a
single pass line (run with -s or -rA to see them). Tolerances are fixed
here, not configurable."""

import math
import os
import random
import statistics
import time

import pytest

from seqdec.core import DecodeConfig, DecodeInput, Hypothesis, extend
from seqdec.decode import decode
from seqdec.metrics import (
    perplexity,
    step_uid_error,
    surprisal_series,
    uid_error,
)
from seqdec.oracle import (
    breadth_first_lookahead,
    brute_force_map,
    enumerate_all,
    sum_left_to_right,
)
from seqdec.remote import RemoteScorer, ScorerServer
from seqdec.scorers import train_ngram

from conftest import (
    assert_lhbs_steps_match_reference,
    lbs_reference_decode,
    lookahead,
    make_tiny3,
    random_table_model,
)

INP = DecodeInput("acc", "")


def case_params(seed):
    return 3 + seed % 3, 3 + (seed // 3) % 3  # (|ext tokens|, n_max)


def raw_cfg(strategy, k, d=0, n_max=4):
    return DecodeConfig(beam_width=k, lookahead_depth=d, max_len=n_max,
                        strategy=strategy, mode="raw")


def test_criterion_1_proposition_1_equivalences():
    start = time.perf_counter()
    for seed in range(100):
        nv, n_max = case_params(seed)
        model = random_table_model(seed, nv, n_max)
        for k in (1, 2, 4):
            beam = decode(model, INP, raw_cfg("beam", k, n_max=n_max))
            lbs0 = decode(model, INP, raw_cfg("lbs", k, d=0, n_max=n_max))
            assert lbs0.best.tokens == beam.best.tokens, f"seed {seed} k {k}"
        deep = decode(model, INP, raw_cfg("lbs", 1, d=n_max, n_max=n_max))
        oracle = brute_force_map(model, INP, n_max)
        assert abs(deep.best.cum_logprob - oracle.cum_logprob) <= 1e-12, f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: Proposition-1 equivalences, 100/100 models ({elapsed:.1f}s)")


def test_criterion_2_lookahead_branch_and_bound_exactness():
    start = time.perf_counter()
    rng = random.Random(2024)
    for case in range(500):
        nv = 3 + case % 3
        model = random_table_model(case, nv, 5)
        vocab = model.vocabulary
        h = Hypothesis.initial(vocab)
        for _ in range(rng.randint(0, 3)):
            row = model.next_logprobs("", h.tokens)
            tid = rng.choice(vocab.core_ids)
            h = extend(h, tid, row[tid], vocab.eos_id)
        d = rng.randint(0, 4)
        f_max = float("-inf") if rng.random() < 0.5 else -rng.uniform(0.0, 8.0)
        truth = max(f_max, h.cum_logprob + breadth_first_lookahead(model, INP, h, d))
        got = lookahead(model, INP.context, h, d, f_max)
        assert abs(got - truth) <= 1e-12 or got == truth, f"case {case}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: branch-and-bound lookahead exact, 500/500 cases ({elapsed:.1f}s)")


def test_criterion_3_proposition_2_lhbs():
    start = time.perf_counter()
    for seed in range(100):
        nv, n_max = case_params(seed)
        k = (1, 2, 4)[seed % 3]
        model = random_table_model(seed, nv, n_max)
        for step in assert_lhbs_steps_match_reference(model, INP, k, n_max, "raw"):
            prev_sorted = step["prev"]
            for record in step["slots"]:
                i, pool = record["slot"], record["pool"]
                popped = record["popped"][0]
                assert popped.sort_key() == min(h.sort_key() for h in pool)
                rank = next(j for j, h in enumerate(prev_sorted)
                            if h.tokens in (popped.tokens[:-1], popped.tokens))
                assert rank <= i, f"seed {seed} slot {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 3: Proposition-2 clauses hold, 100/100 models ({elapsed:.1f}s)")


def test_criterion_4_call_parity_and_lookahead_call_bounds():
    start = time.perf_counter()
    for seed in range(100):
        nv, n_max = case_params(seed)
        k = (1, 2, 4)[seed % 3]
        model = random_table_model(seed, nv, n_max)
        beam = decode(model, INP, raw_cfg("beam", k, n_max=n_max))
        lhbs = decode(model, INP, raw_cfg("lhbs", k, n_max=n_max))
        assert lhbs.scorer_calls == beam.scorer_calls, f"seed {seed}"
        d = seed % 3
        lbs = decode(model, INP, raw_cfg("lbs", k, d=d, n_max=n_max))
        n_ext = len(model.vocabulary.extension_ids)
        # lookahead work <= k*|ext|^d per step, plus the k per-slot expansions
        assert lbs.scorer_calls <= n_max * k * (n_ext ** d + 1), f"seed {seed}"
        _, reference_calls = lbs_reference_decode(model, "", d, k, n_max)
        assert lbs.scorer_calls <= reference_calls, f"seed {seed}"
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 4: beam/LHBS call parity + LBS call bounds, 100/100 ({elapsed:.1f}s)")


def test_criterion_5_pruned_exhaustive_soundness():
    start = time.perf_counter()
    for seed in range(200):
        nv = 3 + seed % 3
        n_max = 3 + (seed // 5) % 3
        model = random_table_model(seed, nv, n_max, allow_zero=(seed % 4 == 0))
        pruned = decode(model, INP, DecodeConfig(
            beam_width=1, max_len=n_max, strategy="exhaustive"))
        enum = enumerate_all(model, INP, n_max)
        tokens, score = min(enum, key=lambda ts: (-ts[1], ts[0]))
        assert pruned.best.tokens == tokens, f"seed {seed}"
        assert pruned.best.cum_logprob == score, f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 5: pruned exhaustive = enumeration argmax, 200/200 ({elapsed:.1f}s)")


def test_criterion_6_metric_identities():
    start = time.perf_counter()
    checked = 0
    for seed in range(40):
        nv, n_max = case_params(seed)
        model = random_table_model(seed, nv, n_max)
        for strategy in ("greedy", "beam", "lbs", "lhbs"):
            for mode in ("raw", "practical"):
                if strategy == "greedy" and mode == "raw":
                    continue
                cfg = DecodeConfig(beam_width=2, lookahead_depth=1, max_len=n_max,
                                   strategy=strategy, mode=mode)
                r = decode(model, INP, cfg)
                nll = -r.best.cum_logprob
                assert nll == sum_left_to_right(-lp for lp in r.best.step_logprobs)
                assert perplexity(r.best) == math.exp(nll / r.best.length)
                series = surprisal_series(model, INP, r.best.tokens)
                assert sum_left_to_right(series) == nll
                checked += 1
    assert uid_error((0.7, 0.7, 0.7, 0.7)) == 0.0
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 6: metric identities exact on {checked} decodes ({elapsed:.1f}s)")


def test_criterion_7_directional_depth_trend():
    start = time.perf_counter()
    corpus_path = os.path.join(os.path.dirname(__file__), "data", "corpus.txt")
    with open(corpus_path) as f:
        lines = [line.strip() for line in f if line.strip()]
    assert len(lines) <= 50
    model = train_ngram(lines, order=2, alpha=0.2)

    rng = random.Random(0)
    contexts = []
    for _ in range(200):
        line = rng.choice(lines).split()
        start_idx = rng.randrange(len(line))
        contexts.append(" ".join(line[start_idx:start_idx + 2]))
    inputs = [DecodeInput(f"c{i}", ctx) for i, ctx in enumerate(contexts)]

    n_max = 6
    report = []
    for k in (2, 4):
        nlls = {}
        uids = {}
        for d in (0, 1, 2):
            strategy = "beam" if d == 0 else "lbs"
            cfg = raw_cfg(strategy, k, d=d, n_max=n_max)
            results = [decode(model, inp, cfg) for inp in inputs]
            nlls[d] = [-r.best.cum_logprob for r in results]
            uids[d] = [step_uid_error(r.best) for r in results]
        for lo, hi in ((0, 1), (1, 2)):
            diffs = [b - a for a, b in zip(nlls[lo], nlls[hi])]
            mean_diff = statistics.mean(diffs)
            sem = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 else 0.0
            assert mean_diff <= sem, (
                f"k={k}: mean NLL rose from d={lo} to d={hi} beyond one SEM "
                f"({mean_diff:.4f} > {sem:.4f})")
        report.append(
            f"  k={k}: mean NLL d0/d1/d2 = "
            f"{statistics.mean(nlls[0]):.4f}/{statistics.mean(nlls[1]):.4f}/"
            f"{statistics.mean(nlls[2]):.4f}; "
            f"mean UID error = {statistics.mean(uids[0]):.4f}/"
            f"{statistics.mean(uids[1]):.4f}/{statistics.mean(uids[2]):.4f} (informational)")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 7: mean NLL non-increasing in lookahead depth ({elapsed:.1f}s)")
    for line in report:
        print(line)


def test_criterion_8_fixture_golden_values():
    tiny3 = make_tiny3()
    vocab = tiny3.vocabulary
    inp = DecodeInput("tiny3", "")
    tol = 1e-4

    # extend: ln 0.5 + ln 0.7 = ln 0.35
    h = extend(Hypothesis.initial(vocab), 1, math.log(0.5), vocab.eos_id)
    done = extend(h, vocab.eos_id, math.log(0.7), vocab.eos_id)
    assert done.cum_logprob == pytest.approx(-1.0498, abs=tol)

    # greedy
    g = decode(tiny3, inp, raw_cfg("greedy", 1, n_max=3))
    assert g.best.tokens == (0, 1, 3)
    assert g.best.cum_logprob == pytest.approx(-1.0498, abs=tol)

    # beam practical k=2: best + step-2 surviving beam
    b = decode(tiny3, inp, DecodeConfig(beam_width=2, max_len=3,
                                        strategy="beam", mode="practical"))
    assert b.best.tokens == (0, 1, 3)
    assert b.best.cum_logprob == pytest.approx(math.log(0.35), abs=tol)
    survivors = sorted(h.cum_logprob for h in b.final_beam)
    assert survivors[1] == pytest.approx(math.log(0.28), abs=tol)
    assert survivors[0] == pytest.approx(math.log(0.10), abs=tol)

    # beam k=1 coincides with greedy
    b1 = decode(tiny3, inp, DecodeConfig(beam_width=1, max_len=3,
                                         strategy="beam", mode="practical"))
    assert b1.best.tokens == (0, 1, 3)

    # exhaustive / oracle enumeration
    e = decode(tiny3, inp, DecodeConfig(beam_width=1, max_len=3,
                                        strategy="exhaustive"))
    assert math.exp(e.best.cum_logprob) == pytest.approx(0.35, abs=tol)
    enum = enumerate_all(tiny3, inp, 2)
    masses = {t: math.exp(s) for t, s in enum}
    assert masses == {
        (0, 3): pytest.approx(0.1, abs=tol),
        (0, 1, 3): pytest.approx(0.35, abs=tol),
        (0, 2, 3): pytest.approx(0.04, abs=tol),
    }

    # lookahead values
    hb = extend(Hypothesis.initial(vocab), 2, math.log(0.4), vocab.eos_id)
    assert lookahead(tiny3, "", hb, 1) == pytest.approx(-1.2730, abs=tol)
    assert breadth_first_lookahead(tiny3, inp, hb, 1) == pytest.approx(math.log(0.7), abs=tol)

    # LBS d=1 k=1 selects token a at step 1
    l = decode(tiny3, inp, raw_cfg("lbs", 1, d=1, n_max=3))
    assert l.best.tokens[1] == 1

    # LHBS practical k=2 steps, read off the reference the decoder equals
    lh = decode(tiny3, inp, DecodeConfig(beam_width=2, max_len=3,
                                         strategy="lhbs", mode="practical"))
    assert lh.best.tokens == (0, 1, 3)
    step2 = assert_lhbs_steps_match_reference(tiny3, inp, 2, 3, "practical")[1]
    assert [h.tokens for h in step2["slots"][0]["popped"]] == [(0, 1, 3), (0, 1, 2)]
    assert [h.tokens for h in step2["slots"][1]["popped"]] == [(0, 2, 1), (0, 2, 2)]

    # surprisal series and UID error
    series = surprisal_series(tiny3, inp, (0, 1, 3))
    assert series[0] == pytest.approx(0.6931, abs=tol)
    assert series[1] == pytest.approx(0.3567, abs=tol)
    assert uid_error(series) == pytest.approx(0.1682, abs=tol)

    # n-gram hand count: p(a|a) = (1+1)/(2+3)
    ng = train_ngram(["a a", "b"], order=2, alpha=1.0)
    ids = {t: i for i, t in enumerate(ng.vocabulary.tokens)}
    row = ng.next_logprobs("", (0, ids["a"]))
    assert math.exp(row[ids["a"]]) == pytest.approx(0.4, abs=tol)

    print("PASS criterion 8: tiny3 fixture golden values within 1e-4")


def test_criterion_9_wire_protocol_conformance():
    model = make_tiny3()
    server = ScorerServer(model)
    server.start()
    try:
        host, port = server.address
        client = RemoteScorer(model.vocabulary, host, port)
        try:
            corpus = [DecodeInput(f"s{i}", "") for i in range(3)]
            for inp in corpus:
                for strategy, d in (("beam", 0), ("lbs", 1), ("lbs", 2), ("lhbs", 0)):
                    for mode in ("raw", "practical"):
                        cfg = DecodeConfig(beam_width=2, lookahead_depth=d, max_len=3,
                                           strategy=strategy, mode=mode)
                        local = decode(model, inp, cfg)
                        remote = decode(client, inp, cfg)
                        assert remote.best == local.best
                        assert remote.final_beam == local.final_beam
                        assert remote.finished == local.finished
                        assert remote.scorer_calls == local.scorer_calls
        finally:
            client.close()
    finally:
        server.shutdown()
        server.server_close()
    print("PASS criterion 9: loopback wire protocol decode bit-identical")
