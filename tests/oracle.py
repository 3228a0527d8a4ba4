"""Brute-force reference implementations the fast paths are checked against.

Everything here materialises full sets: by literal rule application, by
exploring every subset offer, or by enumerating the whole bounded universe,
with no canonical representation.  Costs are exponential, so callers keep
alphabets at two or three events and traces short.

The last section keeps the analyses that only the tests ask for, over the
transition system: stable failures, divergence and strong simulation.
"""
from __future__ import annotations

import itertools
from unittest import mock

from availcsp import (
    Alphabet, Bounds, InputPrefix, ModelParams, OutOfUniverseError, SpecEnv,
)
from availcsp.denotational import MAX_ROUNDS
from availcsp.errors import BudgetError
from availcsp.healthiness import (
    ConditionReport, HealthReport, TraceSet, _conditions, _prefixes, _resample_layers,
    covers_equal, finalize, max_offers,
)
from availcsp.kernel import (
    TAU, Record, compose, decompose, in_obs, is_event, is_offer, normalize_trace, show_trace,
)
from availcsp.operational import StepEngine, build_lts, std_traces
from availcsp.simulation import decode_traces
from availcsp.trace_algebra import merge_offer


def _proper_subsets(offer):
    items = sorted(offer)
    for size in range(len(items)):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


def closure_oracle(seed, params: ModelParams, len_bound: int) -> frozenset:
    """Least fixpoint of the literal closure rules inside the bounded
    universe: prefixes; offer removal and (guarded) duplication; a final
    offer may instead perform any of its events; an event may be preceded
    by the (guarded) offer of itself; offers shrink to arbitrary subsets;
    the empty offer inserts (guarded) anywhere."""

    def within(tr) -> bool:
        return len(tr) <= len_bound and in_obs(tr, params.run_bound)

    current = {tuple(t) for t in seed}
    current.add(())
    work = list(current)

    def add(tr):
        if tr not in current:
            current.add(tr)
            work.append(tr)

    empty = frozenset()
    while work:
        tr = work.pop()
        for i in range(len(tr)):
            add(tr[:i])
        for i, act in enumerate(tr):
            if is_offer(act):
                add(tr[:i] + tr[i + 1:])
                dup = tr[:i] + (act,) + tr[i:]
                if within(dup):
                    add(dup)
                for sub in _proper_subsets(act):
                    add(tr[:i] + (sub,) + tr[i + 1:])
            else:
                ins = tr[:i] + (frozenset([act]),) + tr[i:]
                if within(ins):
                    add(ins)
        if tr and is_offer(tr[-1]):
            for event in tr[-1]:
                add(tr[:-1] + (event,))
        for i in range(len(tr) + 1):
            ins = tr[:i] + (empty,) + tr[i:]
            if within(ins):
                add(ins)
    return frozenset(current)


def shuffle_oracle(t1, t2) -> frozenset:
    """All interleavings by brute-force position choice: pick which input
    supplies each output slot, preserving both input orders."""
    n1, n2 = len(t1), len(t2)
    out = set()
    for mask in itertools.combinations(range(n1 + n2), n1):
        first = set(mask)
        r1, r2 = iter(t1), iter(t2)
        out.add(tuple(
            next(r1) if i in first else next(r2) for i in range(n1 + n2)
        ))
    return frozenset(out)


def merge_oracle(t1, t2, sync: frozenset) -> frozenset:
    """All complete synchronised merges of two traces, by recursion over
    a position in each: one set of suffix merges per position pair, each
    built whole, then normalised."""
    len1, len2 = len(t1), len(t2)
    memo: dict = {}

    def rec(i, j):
        key = (i, j)
        cached = memo.get(key)
        if cached is not None:
            return cached
        out = set()
        if i == len1 and j == len2:
            out.add(())
        a1 = t1[i] if i < len1 else None
        a2 = t2[j] if j < len2 else None
        if a1 is not None and is_event(a1):
            if a1 not in sync:
                out.update((a1,) + suf for suf in rec(i + 1, j))
            elif a2 is not None and a2 == a1:
                out.update((a1,) + suf for suf in rec(i + 1, j + 1))
        if a2 is not None and is_event(a2):
            if a2 not in sync:
                out.update((a2,) + suf for suf in rec(i, j + 1))
        if a1 is not None and is_offer(a1):
            out.update(rec(i + 1, j))
            alone = a1 - sync
            if alone:
                out.update((alone,) + suf for suf in rec(i + 1, j))
        if a2 is not None and is_offer(a2):
            out.update(rec(i, j + 1))
            alone = a2 - sync
            if alone:
                out.update((alone,) + suf for suf in rec(i, j + 1))
        if a1 is not None and is_offer(a1) and a2 is not None and is_offer(a2):
            joint = merge_offer(a1, a2, sync)
            if joint:
                conts = rec(i + 1, j) | rec(i, j + 1) | rec(i + 1, j + 1)
                out.update((joint,) + suf for suf in conts)
        result = frozenset(out)
        memo[key] = result
        return result

    return frozenset(normalize_trace(tr) for tr in rec(0, 0))


def avail_traces_full(term, env: SpecEnv, params: ModelParams, bounds: Bounds,
                      len_bound: int | None = None) -> frozenset:
    """Oracle-mode extraction: the fully materialised closed set within the
    bounded universe, with every subset offer (including the empty one) and
    no duplicate suppression.  Exponential; for cross-checking only."""
    engine = StepEngine(env)
    length = bounds.trace_len if len_bound is None else len_bound
    memo: dict = {}

    def all_offers(enabled):
        for size in range(len(enabled) + 1):
            if params.set_bound is not None and size > params.set_bound:
                break
            for c in itertools.combinations(enabled, size):
                yield frozenset(c)

    def suffixes(state, len_left, run_left):
        key = (state, len_left, run_left)
        cached = memo.get(key)
        if cached is not None:
            return cached
        out = {()}
        for t in engine.tau_closure(state):
            if len_left == 0:
                continue
            for lab, succ in engine.steps(t):
                if lab is TAU:
                    continue
                for suf in suffixes(succ, len_left - 1, params.run_bound):
                    out.add((lab,) + suf)
            if run_left is None or run_left > 0:
                nxt_run = None if run_left is None else run_left - 1
                for offer in all_offers(engine.initials(t)):
                    for suf in suffixes(t, len_left - 1, nxt_run):
                        out.add((offer,) + suf)
        result = frozenset(out)
        memo[key] = result
        return result

    return suffixes(term, length, params.run_bound)


def enumerate_universe(alphabet: Alphabet, params: ModelParams, len_bound: int, cap: int = 2_000_000):
    """Every trace in the bounded universe, including empty offers.  Only
    intended for small alphabets and short bounds."""
    events = list(alphabet.events)
    max_size = len(events) if params.set_bound is None else min(params.set_bound, len(events))
    offers = [
        frozenset(c)
        for size in range(0, max_size + 1)
        for c in itertools.combinations(events, size)
    ]
    count = 0

    def rec(prefix, run):
        nonlocal count
        count += 1
        if count > cap:
            raise OutOfUniverseError("universe enumeration exceeded its cap")
        yield tuple(prefix)
        if len(prefix) == len_bound:
            return
        for e in events:
            prefix.append(e)
            yield from rec(prefix, 0)
            prefix.pop()
        if params.run_bound is None or run < params.run_bound:
            for o in offers:
                prefix.append(o)
                yield from rec(prefix, run + 1)
                prefix.pop()

    yield from rec([], 0)


def expand_cover(ts: TraceSet, alphabet: Alphabet, cap: int = 2_000_000):
    """Materialise the full closed set within the bounded universe."""
    return frozenset(
        tr
        for tr in enumerate_universe(alphabet, ts.params, ts.len_bound, cap)
        if ts._member_normalized(normalize_trace(tr))
    )


def minimal_witness_oracle(alphabet: Alphabet, tp: TraceSet, tq: TraceSet):
    """The least trace by ``Alphabet.trace_key`` among the normalised
    universe traces that are members of exactly one side, with that side
    ("left" for ``tp``), or (None, None) when the sets agree."""
    universe = {normalize_trace(tr) for tr in enumerate_universe(alphabet, tp.params, tp.len_bound)}
    for tr in sorted(universe, key=alphabet.trace_key):
        in_p, in_q = tp._member_normalized(tr), tq._member_normalized(tr)
        if in_p != in_q:
            return tr, "left" if in_p else "right"
    return None, None


def resample_run(choices, run_bound: int | None, len_bound: int) -> set:
    """The runs of ``healthiness._resample_layers`` of at most the length
    bound's steps, as one set."""
    out = set()
    for layer in itertools.islice(_resample_layers(choices, run_bound), len_bound + 1):
        out.update(layer)
    return out


def resample_oracle(choices, run_bound, len_bound: int) -> set:
    """Every offer run of at most min(run bound, length bound) steps read
    at non-decreasing positions of ``choices``, adjacent repeats merged, by
    trying every position map and every pick along it."""
    max_run = len_bound if run_bound is None else min(run_bound, len_bound)
    out = {()}
    for length in range(1, max_run + 1):
        for jmap in itertools.combinations_with_replacement(range(len(choices)), length):
            for pick in itertools.product(*[choices[j] for j in jmap]):
                out.add(tuple(o for i, o in enumerate(pick) if i == 0 or pick[i - 1] != o))
    return out


def round_trip_oracle(sim, reference: TraceSet) -> bool:
    """``simulate --check``'s verdict by the full decode: every standard
    trace of the simulation as built, every subset offer included, decoded
    and compared with the reference core by ``covers_equal``."""
    decoded = decode_traces(std_traces(sim.root_term(), sim.env, reference.len_bound))
    return covers_equal(TraceSet(decoded, reference.params, reference.len_bound), reference)


def solve_rounds_oracle(engine, term) -> frozenset:
    """``DenotationalEngine.solve`` by plain rounds: re-denote the term and
    every instantiation found so far, in place, until a round finds no new
    instantiation and changes no value up to canonical equality."""
    for _ in range(MAX_ROUNDS):
        before = dict(engine.vector)
        result = engine.denote(term)
        for key in list(engine.vector):
            engine.vector[key] = engine.denote(engine.env.instantiate(*key))
        if set(before) == set(engine.vector) and all(
            covers_equal(TraceSet(before[k], engine.params, engine.eval_len),
                         TraceSet(engine.vector[k], engine.params, engine.eval_len))
            for k in before
        ):
            return result
    raise BudgetError("recursion failed to stabilise within the round limit")


def clause_whole_oracle(engine, term, operands, build, bilinear=False, step=0) -> frozenset:
    """``DenotationalEngine._clause`` with no per-node record: every call
    builds the clause on its whole operands and finalizes all of it."""
    return finalize(build(*operands), engine.params, engine.eval_len)


def _one_offer_deletions(tr):
    return (normalize_trace(tr[:i] + tr[i + 1:]) for i, a in enumerate(tr) if is_offer(a))


def close_prefixes_and_deletions(traces) -> set:
    """Least superset of a trace set closed under prefixes and under
    deleting one offer (then normalising)."""
    out = set()
    work = list(traces)
    while work:
        tr = work.pop()
        if tr not in out:
            out.add(tr)
            work.append(tr[:-1])
            work.extend(_one_offer_deletions(tr))
    return out


def closure_gaps(traces) -> set:
    """The traces that ``close_prefixes_and_deletions`` would add first:
    empty exactly when the set is closed."""
    members = set(traces)
    gaps = set()
    for tr in members:
        gaps.update(t for t in itertools.chain([tr[:-1]], _one_offer_deletions(tr))
                    if t not in members)
    return gaps


def finalize_oracle(traces, params: ModelParams, len_bound: int) -> frozenset:
    """``finalize`` as three passes over the whole set, each decomposing
    the traces it changes: cap every offer at the set bound (a run holding
    an oversized offer is resampled from its capped subsets), then clip
    every run longer than the run bound to each selection of that many
    positions, then bound the length by ``trim_length_oracle``."""
    n, k = params.run_bound, params.set_bound
    capped = set()
    for tr in map(normalize_trace, traces):
        if k is None or all(not is_offer(a) or len(a) <= k for a in tr):
            capped.add(tr)
            continue
        runs, events = decompose(tr)
        options = [
            [r] if all(len(o) <= k for o in r)
            else resample_run([max_offers(o, k) for o in r], n, len_bound)
            for r in runs
        ]
        capped.update(compose(combo, events) for combo in itertools.product(*options))
    clipped = set()
    for tr in capped:
        if n is None or in_obs(tr, n):
            clipped.add(tr)
            continue
        runs, events = decompose(tr)
        options = [[r] if len(r) <= n else set(itertools.combinations(r, n)) for r in runs]
        clipped.update(normalize_trace(compose(combo, events))
                       for combo in itertools.product(*options))
    return frozenset(trim_length_oracle(clipped, len_bound))


def prefix_clause_oracle(params: ModelParams, len_bound: int):
    """The prefix entry of ``denotational.CLAUSES`` with the model's bounds
    applied in the clause: the runs observable at the stable state are
    built directly, as sequences of at most min(run bound, length bound)
    maximal capped offers without adjacent repeats, before ``finalize``
    fits the whole clause."""
    n = params.run_bound

    def clause(node, fit, *conts) -> set:
        events = sorted(node.events) if isinstance(node, InputPrefix) else (node.event,)
        choices = max_offers(events, params.set_bound)
        runs = {()}
        frontier = [()]
        for _ in range(len_bound if n is None else min(n, len_bound)):
            frontier = [r + (o,) for r in frontier for o in choices if not r or r[-1] != o]
            runs.update(frontier)
        out = set(runs)
        for a, cont in zip(events, conts):
            out.update(run + (a,) + t for run in runs for t in cont)
        return out

    return clause


def restrict_params(ts: TraceSet, params: ModelParams, len_bound: int | None = None) -> TraceSet:
    """Project a trace set into a smaller universe (tighter run bound, set
    bound, or length bound)."""
    lb = ts.len_bound if len_bound is None else min(len_bound, ts.len_bound)
    canon = finalize(ts.canon, params, lb)
    return TraceSet(canon, params, lb, ts.engine)


def trim_length_oracle(traces, len_bound: int) -> set:
    """Canonical cover of the restriction of a set of normalised traces to
    traces of bounded length: an overlong trace is replaced by, for each
    count w of kept events, every normalised trace made of its first w
    events and as many of the offers before them as the bound leaves,
    each rebuilt from an explicit list of offer positions.  What one count
    adds depends only on the runs and events it keeps, so each of those is
    worked out once a call."""
    out = set()
    done = set()
    for tr in traces:
        if len(tr) <= len_bound:
            out.add(tr)
            continue
        runs, events = decompose(tr)
        for w in range(min(len(events), len_bound) + 1):
            budget = len_bound - w
            kept_runs = runs[: w + 1]
            if (kept_runs, events[:w]) in done:
                continue
            done.add((kept_runs, events[:w]))
            positions = [(i, j) for i, r in enumerate(kept_runs) for j in range(len(r))]
            for chosen in itertools.combinations(positions, min(budget, len(positions))):
                new_runs = [[] for _ in kept_runs]
                for i, j in chosen:
                    new_runs[i].append(kept_runs[i][j])
                out.add(normalize_trace(compose([tuple(r) for r in new_runs], events[:w])))
    return out


def check_healthy_oracle(subject, params: ModelParams, len_bound: int) -> HealthReport:
    """``check_healthy`` by enumeration: every condition asks every trace
    each member requires, whatever the subject, and members are scanned
    shortest first, then by their text."""
    if isinstance(subject, TraceSet):
        canon = subject.canon
        member = subject._member_normalized
        contains = lambda tr: len(tr) <= len_bound and member(normalize_trace(tr))
    else:
        canon = frozenset(tuple(t) for t in subject)
        contains = canon.__contains__
    members = sorted(canon, key=lambda t: (len(t), show_trace(t)))

    def within(tr) -> bool:
        return len(tr) <= len_bound and in_obs(tr, params.run_bound)

    report = HealthReport()
    for name, required, _ in _conditions(params):
        # nonemptiness and <> itself are required by no member: an empty
        # set fails without a witness, a set lacking <> with witness <>
        if required is _prefixes and not (members and contains(())):
            report.conditions.append(ConditionReport(name, False, () if members else None))
            continue
        witness = next(
            (tr for tr in members if not all(map(contains, required(tr, within)))), None
        )
        report.conditions.append(ConditionReport(name, witness is None, witness))
    return report


def _recursive_record_repr(self) -> str:
    shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
    return f"{type(self).__qualname__}({shown})"


def record_repr_oracle(value) -> str:
    """``repr(value)`` with every record written by a recursive
    ``Record.__repr__``: each field by its own ``repr``, one Python frame
    per level."""
    with mock.patch.object(Record, "__repr__", _recursive_record_repr):
        return repr(value)


# --- analyses only the tests use ---------------------------------------------


def stable_failures(term, env: SpecEnv, max_len: int) -> dict:
    """Maximal stable refusals per event trace: maps each trace to the
    antichain of refusal sets observed at stable states reached by it."""
    engine = StepEngine(env)
    sigma = frozenset(env.alphabet.events)
    found: dict = {}
    seen = set()

    def visit(state, trace):
        key = (state, trace)
        if key in seen:
            return
        seen.add(key)
        for t in engine.tau_closure(state):
            steps = engine.steps(t)
            if all(lab is not TAU for lab, _ in steps):
                refusal = sigma - frozenset(engine.initials(t))
                found.setdefault(trace, set()).add(refusal)
            if len(trace) < max_len:
                for lab, succ in steps:
                    if lab is not TAU:
                        visit(succ, trace + (lab,))

    visit(term, ())
    out = {}
    for trace, refusals in found.items():
        maximal = {r for r in refusals if not any(r < other for other in refusals)}
        out[trace] = frozenset(maximal)
    return out



def is_divergent(term, env: SpecEnv) -> bool:
    """Whether any reachable state starts an infinite internal run.  A
    transition system above MAX_STATES is conservatively reported as
    divergent."""
    try:
        states, transitions = build_lts(term, env)
    except BudgetError:
        return True
    tau_succ: dict = {}
    for i, lab, j in transitions:
        if lab is TAU:
            tau_succ.setdefault(i, []).append(j)
    # depth-first search with an explicit stack: 1 marks a state on the
    # current path, 2 one whose internal runs are all finite
    color = {}
    for root in range(len(states)):
        if root in color:
            continue
        color[root] = 1
        stack = [(root, iter(tau_succ.get(root, ())))]
        while stack:
            i, succs = stack[-1]
            for j in succs:
                if color.get(j) == 1:
                    return True
                if j not in color:
                    color[j] = 1
                    stack.append((j, iter(tau_succ.get(j, ()))))
                    break
            else:
                color[i] = 2
                stack.pop()
    return False


SIMILAR = "similar"
NOT_SIMILAR = "not-similar"
INDETERMINATE = "indeterminate"


def sim_preorder(p, q, env: SpecEnv) -> str:
    """Strong simulation of the first process by the second, internal
    steps treated as ordinary labels.  Indeterminate when either
    transition system exceeds MAX_STATES."""
    try:
        pstates, ptrans = build_lts(p, env)
        qstates, qtrans = build_lts(q, env)
    except BudgetError:
        return INDETERMINATE

    def succ_map(trans):
        succ = {}
        for i, lab, j in trans:
            succ.setdefault(i, {}).setdefault(lab, set()).add(j)
        return succ

    psucc = succ_map(ptrans)
    qsucc = succ_map(qtrans)
    related = {
        (i, j) for i in range(len(pstates)) for j in range(len(qstates))
    }
    changed = True
    while changed:
        changed = False
        for (i, j) in list(related):
            ok = True
            for lab, targets in psucc.get(i, {}).items():
                qtargets = qsucc.get(j, {}).get(lab, ())
                for i2 in targets:
                    if not any((i2, j2) in related for j2 in qtargets):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                related.discard((i, j))
                changed = True
    return SIMILAR if (0, 0) in related else NOT_SIMILAR


def mutually_similar(p, q, env: SpecEnv) -> str:
    a = sim_preorder(p, q, env)
    b = sim_preorder(q, p, env)
    if INDETERMINATE in (a, b):
        return INDETERMINATE
    return SIMILAR if a == b == SIMILAR else NOT_SIMILAR
