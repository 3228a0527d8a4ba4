"""Equivalence and refinement of processes under chosen model parameters.

Two processes are compared by mutual closure-aware membership of their
canonical trace cores.  A disagreement is reported with a minimal witness
(shortest, then alphabet order) found among the in-universe traces covered
by the disagreeing canonical members; covering is transitive and
down-closed, so every separating trace lies under some disagreeing member.
The search goes shortest first: it tries the covered traces of one length
at a time and stops at the first length that separates.  Each search keeps
one table, from an offer run to its re-samplings grouped by length, that
every length and every disagreeing member shares: a run is re-sampled once
a call, and only as far as the longest length tried needs.
"""
from __future__ import annotations

import itertools

from .healthiness import TraceSet, _resample_layers, _subsets, _uncovered
from .kernel import Alphabet, Bounds, ModelParams, Record, compose, decompose, show_trace
from .operational import avail_traces
from .process import SpecEnv

EQUAL = "equal"
DISTINGUISHED = "distinguished"
REFINED = "refined"


class CompareResult(Record):
    __slots__ = ("verdict", "params", "witness", "witness_side")

    def __init__(self, verdict: str, params: ModelParams, witness: tuple | None = None,
                 witness_side: str | None = None):
        self.verdict = verdict
        self.params = params
        self.witness = witness
        self.witness_side = witness_side

    def describe(self, alphabet: Alphabet | None = None) -> str:
        head = f"[{self.params.show()}] {self.verdict}"
        if self.witness is None:
            return head
        return f"{head}: {show_trace(self.witness, alphabet)} only in {self.witness_side}"

    def json_obj(self, alphabet: Alphabet | None = None) -> dict:
        obj = {"verdict": self.verdict}
        obj.update(self.params.json_obj())
        if self.witness is not None:
            obj["witness"] = show_trace(self.witness, alphabet)
            obj["witness_side"] = self.witness_side
        return obj


def _verdict(env, params, tp: TraceSet, tq: TraceSet, only_p, holds):
    """The holding verdict when neither side has members the other lacks
    (``only_p`` on the left, computed here on the right), else a minimal
    witness."""
    only_q = list(_uncovered(tq, tp))
    if not only_p and not only_q:
        return CompareResult(holds, params)
    witness, side = _minimal_witness(env.alphabet, tp, tq, only_p, only_q)
    return CompareResult(DISTINGUISHED, params, witness, side)


def equal_in(p, q, env: SpecEnv, params: ModelParams, bounds: Bounds,
             engine=avail_traces) -> CompareResult:
    """Do the two processes have the same trace set in this model?  The
    sets come from ``engine``, ``avail_traces`` or any function of its
    signature, such as ``denote_traces``."""
    tp, tq = (engine(t, env, params, bounds) for t in (p, q))
    return _verdict(env, params, tp, tq, list(_uncovered(tp, tq)), EQUAL)


def refine_in(p, q, env: SpecEnv, params: ModelParams, bounds: Bounds,
              engine=avail_traces) -> CompareResult:
    """Does the second process refine the first: every trace it can show,
    the first can show too?"""
    tp, tq = (engine(t, env, params, bounds) for t in (p, q))
    return _verdict(env, params, tp, tq, [], REFINED)


def _covered_variants(trace, params: ModelParams, length: int, resamples: dict):
    """Every in-universe trace of exactly ``length`` covered by a canonical
    trace: per run, the monotone re-samplings into nonempty subsets, with
    run lengths that add up to what the events leave over.  ``resamples``
    is the caller's table from a run to its re-samplings grouped by
    length, shortest first, and the generator of the longer ones; a run's
    entry is made on first use and grown only as far as a length needs."""
    runs, events = decompose(trace)
    free = length - len(events)
    if free < 0:
        return
    by_len = []
    for r in runs:
        entry = resamples.get(r)
        if entry is None:
            entry = resamples[r] = ([], _resample_layers(
                [_subsets(o, 1, params.set_bound) for o in r], params.run_bound))
        layers, rest = entry
        layers.extend(itertools.islice(rest, max(0, free + 1 - len(layers))))
        by_len.append(layers[:free + 1])
    for sizes in itertools.product(*(range(len(g)) for g in by_len)):
        if sum(sizes) == free:
            for combo in itertools.product(*(g[n] for g, n in zip(by_len, sizes))):
                yield compose(combo, events)


def _minimal_witness(alphabet: Alphabet, tp: TraceSet, tq: TraceSet,
                     only_p, only_q):
    """The least separating trace by ``Alphabet.trace_key`` and its side.
    The key orders by length first, so lengths are tried in turn and the
    first one with a separating variant holds the witness.  Disagreeing
    members share variants, so each side asks about each variant once, and
    runs, so each run is re-sampled once a call, one step per length."""
    sides = ((only_p, tp, tq, "left"), (only_q, tq, tp, "right"))
    resamples = {}
    for length in range(tp.len_bound + 1):
        found = [
            (var, side)
            for disagreeing, mine, other, side in sides
            for var in dict.fromkeys(
                v for c in disagreeing
                for v in _covered_variants(c, mine.params, length, resamples))
            if mine._member_normalized(var) and not other._member_normalized(var)
        ]
        if found:
            return min(found, key=lambda hit: alphabet.trace_key(hit[0]))
    return None, None


def distinguish(p, q, env: SpecEnv, grid, bounds: Bounds, engine=avail_traces) -> list:
    """Compare two processes across a grid of model parameters."""
    return [equal_in(p, q, env, params, bounds, engine) for params in grid]
