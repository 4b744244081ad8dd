"""Decoding strategies: greedy, beam search, exhaustive MAP search,
lookahead beam search (LBS-d), and lookbehind heuristic beam search (LHBS).

Two execution modes are supported:

* ``raw`` -- the literal fixed-iteration beam recursion. Complete
  hypotheses are carried forward unchanged (their own sole child with
  extension log-probability 0) so the recursion is well-defined past EOS.
  Every beam slot costs one scorer call per step, so call counts compare
  across strategies; a finished slot's call is counted, but the model is
  not asked for the row, which would be discarded. A beam of complete
  slots is a fixed point: decoding stops there, charging the steps left.
  Used for exact equivalence checks between strategies.
* ``practical`` -- per step the top-2k candidates are popped; candidates
  ending in EOS are routed to a finished pool (best k kept) and the beam
  is refilled with the top-k incomplete popped candidates. Decoding stops
  early once the best active score cannot beat the best finished score
  (sound because scores never increase under extension).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heapify, heappop, heappush, heapreplace
from operator import is_, itemgetter
from typing import Callable, Iterator, Optional, Sequence

from seqdec.core import (
    NEG_INF,
    DecodeConfig,
    DecodeInput,
    DecodeResult,
    Hypothesis,
    Row,
    check_budget,
    extend,
)
from seqdec.scorers import CountingScorer, Scorer


def _greedy(counted: CountingScorer, context: str, config: DecodeConfig) -> DecodeResult:
    """Pick the single most probable token at every step."""
    vocab = counted.vocabulary
    h = Hypothesis.initial(vocab)
    for _ in range(config.max_len):
        row = counted.next_logprobs(context, h.tokens)
        best_tid = row.ranked()[0]
        h = extend(h, best_tid, row[best_tid], vocab.eos_id)
        if h.complete:
            break
    return DecodeResult(h, (h,) if h.complete else (), (h,), counted.calls)


# A node is (-score, tokens, step_logprobs), a hypothesis as the search
# carries it; tuple order is the canonical order, as tokens differ
# within a step.
_Node = tuple[float, tuple[int, ...], tuple[float, ...]]


def _search(counted: CountingScorer, context: str, config: DecodeConfig,
            pick: Callable[[list, int], list[_Node]]) -> DecodeResult:
    """The search loop beam, LBS and LHBS share, in both modes.

    Each step builds the beam's cursor heap in one ``_cursors`` call (one
    batch), and ``pick(cursors, n)`` reads nodes off it with ``_popped``
    as far as it needs and returns the ones the strategy keeps, in its
    own order: the next beam in raw mode (n = k), which runs ``max_len``
    fixed steps or stops at a beam that steps to itself, charging the
    steps left; the popped candidates in practical mode (n = 2k), which
    routes the complete ones to the finished pool. Only the result's
    nodes become ``Hypothesis`` objects. A node keeps no link to its
    parent, so memory holds the beam, not the tree of its ancestors.
    """
    k = config.beam_width
    eos = counted.vocabulary.eos_id
    beam = [(-0.0, (counted.vocabulary.bos_id,), ())]
    if config.mode == "raw":
        for steps_left in range(config.max_len - 1, -1, -1):
            prev, beam = beam, pick(_cursors(counted, context, beam), k)
            # children outgrow prev: a beam that steps to itself is all complete
            if len(beam) == len(prev) and all(map(is_, beam, prev)):
                counted.charge(len(beam) * steps_left)
                break
        finished = sorted(h for h in beam if h[1][-1] == eos)
    else:
        finished = []
        for _ in range(config.max_len):
            popped = pick(_cursors(counted, context, beam), 2 * k)
            beam = [h for h in popped if h[1][-1] != eos][:k]
            finished = sorted(finished + [h for h in popped if h[1][-1] == eos])[:k]
            if not beam or finished and min(h[0] for h in beam) >= finished[0][0]:
                break

    def hypothesis(node: _Node) -> Hypothesis:
        return Hypothesis(node[1], -node[0], node[2], node[1][-1] == eos)

    return DecodeResult(hypothesis(min(finished or beam)), tuple(map(hypothesis, finished)),
                        tuple(map(hypothesis, beam)), counted.calls)


def _cursors(counted: CountingScorer, context: str, beam: Sequence[_Node]) -> list:
    """The cursor heap of one beam step: one cursor per beam slot, holding
    the slot's next child from ``_children``, keyed by (-score, parent
    tokens, token id), then the iterator, the parent node and its row. A
    complete beam slot (raw mode only) is its own only child.

    The key is the canonical order of the children: each parent's come by
    score descending, then id, and no beam member's tokens are a proper
    prefix of another's, because a complete raw slot ends in EOS and
    every other slot has the same length, so two parents first differ at
    a position that both of their children keep.

    The incomplete slots' rows come from one batch call, so a remote
    scorer answers the step in one round trip. A complete slot costs one
    logical call, but the model is not asked: its row would be discarded.
    Rows are read as they are, unchecked: every ``Row`` was validated
    where it was made.
    """
    eos = counted.vocabulary.eos_id
    beam = sorted(beam, key=itemgetter(1))
    prefixes = [h[1] for h in beam if h[1][-1] != eos]
    rows = iter(counted.next_logprobs_batch(context, prefixes) if prefixes else ())
    counted.charge(len(beam) - len(prefixes))
    heap = []
    for h in beam:
        neg, tokens, _ = h
        if tokens[-1] == eos:
            heap.append((neg, tokens, eos, None, h, None))
            continue
        row = next(rows)
        children = _children(-neg, row)
        score, tid = next(children)  # EOS is always an extension
        heap.append((-score, tokens, tid, children, h, row))
    heapify(heap)
    return heap


def _popped(heap: list) -> Iterator[_Node]:
    """Nodes popped off a live cursor heap, in canonical order. A pop
    costs O(log k) and moves the cursor on before its child is yielded,
    so a caller that reads r nodes pays for those r, not for k x |V|,
    and may push more cursors between reads."""
    while heap:
        neg, tokens, tid, children, parent, row = heap[0]
        child = None if children is None else next(children, None)
        if child is None:
            heappop(heap)
        else:
            heapreplace(heap, (-child[0], tokens, child[1], children, parent, row))
        yield parent if children is None else (neg, tokens + (tid,), parent[2] + (row[tid],))


def _take(n: int, nodes: Iterator[_Node]) -> list[_Node]:
    """The first n nodes, or all there are; unlike ``islice``'s stop, n
    may pass ``sys.maxsize``."""
    return [node for _, node in zip(range(n), nodes)]


def _beam(counted: CountingScorer, context: str, config: DecodeConfig) -> DecodeResult:
    """Top-k beam search."""
    return _search(counted, context, config, lambda cursors, n: _take(n, _popped(cursors)))


def _lookahead(counted: CountingScorer, context: str, tokens: tuple[int, ...], cum: float,
               d: int, f_max: float) -> float:
    """Best-first branch-and-bound lookahead from the prefix ``tokens``
    scored ``cum``: max(f_max, cum + the best d-step continuation
    increment), on floats and validated rows read as they are.

    EOS is absorbing: a complete prefix contributes nothing further.
    Children are visited by score descending, then token id ascending;
    branches whose running score already falls below f_max are pruned,
    which is sound because scores never increase under extension. The
    walk is depth-first on an explicit stack: each open level is an
    iterator over its node's children, and the path is held once, so
    memory is linear in ``d``.
    """
    eos = counted.vocabulary.eos_id
    if d == 0 or tokens[-1] == eos:
        return max(cum, f_max)

    # A node whose children are leaves needs no level: each child would
    # only raise f_max to its own score, and the best child's score is
    # cum + the row's first-ranked log-probability, since addition is
    # monotone.
    row = counted.next_logprobs(context, tokens)
    if d == 1:
        return max(f_max, cum + row[row.ranked()[0]])
    path, stack = list(tokens), [_children(cum, row)]
    while stack:
        child = next(stack[-1], None)
        if child is None or child[0] < f_max:  # done, or the rest scores lower still
            del stack[-1], path[-1]
            continue
        score, tid = child
        if tid == eos:
            f_max = max(f_max, score)
            continue
        row = counted.next_logprobs(context, (*path, tid))
        if len(stack) == d - 1:
            f_max = max(f_max, score + row[row.ranked()[0]])
        else:
            path.append(tid)
            stack.append(_children(score, row))
    return f_max


def _children(cum: float, row: Row) -> Iterator[tuple[float, int]]:
    """(score, token id) of each child of a node scored ``cum``, by score
    descending, then token id, read lazily off the row's kept ranking.
    Addition is monotone, so scores come in order, but two distinct
    log-probabilities may round to one score: each run of equal scores
    is sorted by id."""
    order = row.ranked()
    n, i = len(order), 0
    while i < n:
        tid = order[i]
        score = cum + row[tid]
        j = i + 1
        if j < n and cum + row[order[j]] == score:  # a run of equal scores
            j = bisect_right(order, -score, j + 1, key=lambda t: -(cum + row[t]))
        if j == i + 1:
            yield score, tid
        elif row[order[j - 1]] == row[tid]:  # one log-probability: the ranking keeps id order
            for m in range(i, j):
                yield cum + row[order[m]], order[m]
        else:
            for tid in sorted(order[i:j]):
                yield cum + row[tid], tid
        i = j


def _lbs(counted: CountingScorer, context: str, config: DecodeConfig) -> DecodeResult:
    """Lookahead beam search: rank candidates by current score plus the
    best score achievable within ``lookahead_depth`` future steps. The
    lookahead only steers per-step selection; returned hypotheses are
    ranked by their plain cumulative score.

    Refuses when the extension-token count raised to the lookahead depth
    exceeds the budget.
    """
    d = config.lookahead_depth
    check_budget(len(counted.vocabulary.extension_ids), d, config.budget)

    def pick(cursors, n):
        """The n nodes maximizing current score + lookahead bonus, by
        total descending with canonical tie-break. Nodes come by current
        score descending, so the scan stops at the first whose current
        score already falls below the running n-th best total."""
        best: list[tuple[float, _Node]] = []  # the n best (total, node) so far
        bar = NEG_INF  # the n-th best total so far
        for node in _popped(cursors):
            if -node[0] < bar:
                break
            f = _lookahead(counted, context, node[1], -node[0], d, bar)
            if f > bar or len(best) < n:
                # after equal totals, so they keep the canonical order of the scan
                insort(best, (f, node), key=lambda fe: -fe[0])
                del best[n:]
                bar = best[-1][0] if len(best) == n else NEG_INF
        return [node for _, node in best]

    return _search(counted, context, config, pick)


def _lhbs(counted: CountingScorer, context: str, config: DecodeConfig) -> DecodeResult:
    """Lookbehind heuristic beam search.

    Beam slots are processed sequentially in descending previous-step
    score. Slot i pops from the leftover pool of slot i-1 plus the
    children of the i-th previous hypothesis, so previous-step rank
    influences which candidates survive: it pushes that hypothesis's
    cursor onto the step's heap, which holds the leftover pool, and pops.
    Raw mode pops one candidate per slot; practical mode pops two (the
    kernel's n over k). When the previous beam holds fewer hypotheses
    than there are slots, the extra slots pop on from the same heap, so
    they cost the candidates read, not k.
    """
    k = config.beam_width

    def pick(cursors, n):
        heap, popped, per = [], [], n // k
        for cursor in sorted(cursors, key=itemgetter(4)):  # by parent: previous rank order
            heappush(heap, cursor)
            popped += _take(per, _popped(heap))
        popped += _take((k - len(cursors)) * per, _popped(heap))
        return popped if config.mode == "raw" else sorted(popped)

    return _search(counted, context, config, pick)


def _exhaustive(counted: CountingScorer, context: str, config: DecodeConfig) -> DecodeResult:
    """Exact MAP search by depth-first enumeration with score pruning.

    Children are visited in token-id order from an explicit stack, so
    ``max_len`` is not limited by Python's recursion depth, and the path
    is kept once, so memory grows linearly with it. Any prefix whose
    score is already strictly below the best complete score found so far
    is discarded; the result is identical to full enumeration. Intended
    for desk-scale instances only: refuses when the extension-token
    count raised to max_len exceeds the budget.
    """
    vocab = counted.vocabulary
    check_budget(len(vocab.extension_ids), config.max_len, config.budget)
    tokens, steps, cums = [vocab.bos_id], [], [0.0]

    def children() -> Iterator[tuple[int, float]]:
        row = counted.next_logprobs(context, tuple(tokens))
        return zip(vocab.extension_ids, vocab.extension_values(row))

    best: Optional[Hypothesis] = None
    stack = [children()]
    while stack:
        child = next(stack[-1], None)
        if child is None:  # leave the level; the root level has no step
            del stack[-1], tokens[-1], cums[-1], steps[-1:]
            continue
        tid, lp = child
        cum = cums[-1] + lp
        if tid == vocab.eos_id:
            if best is None or (-cum, (*tokens, tid)) < best.sort_key():
                best = Hypothesis((*tokens, tid), cum, (*steps, lp), True)
        elif len(tokens) < config.max_len and (best is None or not cum < best.cum_logprob):
            tokens.append(tid)
            steps.append(lp)
            cums.append(cum)
            stack.append(children())
    assert best is not None  # [BOS, EOS] is always reachable
    return DecodeResult(best, (best,), (best,), counted.calls)


_STRATEGIES = {"greedy": _greedy, "beam": _beam, "lbs": _lbs, "lhbs": _lhbs,
               "exhaustive": _exhaustive}


def decode(scorer: Scorer, inp: DecodeInput, config: DecodeConfig) -> DecodeResult:
    """Decode ``inp`` by the strategy ``config.strategy`` names, counting its own calls."""
    return _STRATEGIES[config.strategy](CountingScorer(scorer), inp.context, config)
