"""Canonical trace sets, closure-aware membership, and healthiness checking.

A closed availability-trace set is represented by a finite canonical core:
normalised traces (no empty offers, no adjacent duplicate offers) holding
maximal offered sets.  Everything the closure properties imply is recovered
at query time by one routine, ``TraceSet._member_normalized``, which every
membership answer (``member``, equality, refinement, the minimal witness,
the condition checks) goes through.  It takes a normalised query and

* probes the core for it, and otherwise deletes, in one pass, each
  singleton offer directly before its own event: such offers are
  insertable in every model;
* probes the core for the result, and otherwise decomposes it once and
  scans the core members with its events, indexed as their offer runs:
  it is a member when each of its runs embeds order-preservingly into the
  stored run, pointwise by subset (``covered``), which absorbs offer
  removal and duplication, subset closure, and empty-offer insertion.

The canonical core itself is kept explicitly closed under prefixes and
under replacing a final offer by one of its events, because those rules
change the event skeleton that covering keys on.

So ``check_healthy`` asks only what a core can violate.  The other four
conditions keep or shrink a member's offers: by the covering lemma, each
trace they require of a member is covered by it.  That makes it a member
whenever every core member fits the length bound; only a core that does
not fit, or an explicit set, has those four enumerated.  Of the two it
does enumerate, a member passes at once when each trace it asks is
literally in the core and within the bound, which a computed core, closed
under both rules, gives every member; only the rest are walked, with that
routine behind each literal probe.  Prefixes are asked longest first, down
to the first core member: its own prefixes are asked when it is visited,
and any prefix missing below it fails it too, as a shorter member, so the
verdict and the least witness stay the same.

``finalize`` fits a closed set of clause traces to the (n, k, len)
bounds in one loop: it drops a trace that is overlong, not normal or has
an overlong run, keeps one that fits, and replaces one with offers wider
than k by its capped variants that fit the length bound.
"""
from __future__ import annotations

import itertools
from functools import cached_property

from .kernel import (
    Alphabet, Bounds, ModelParams, Record, check_universe, decompose, in_obs,
    is_event, is_offer, normalize_trace, show_action, show_trace, trace_to_json,
)


def cond4_reduce(trace):
    """Delete singleton offers that immediately precede their own event.

    Such offers are freely insertable in every model, so deleting them
    from a query preserves membership in any closed set.  On a normalised
    trace one pass suffices and the result stays normalised: the action
    before a deleted offer differs from it and now precedes an event, so
    a deletion neither exposes another nor makes two offers adjacent.
    """
    last = len(trace) - 1
    return tuple(
        a for i, a in enumerate(trace)
        if not (is_offer(a) and len(a) == 1 and i < last and trace[i + 1] in a)
    )


def covered(qruns, cruns) -> bool:
    """Is a query derivable, by offer removal/duplication, subset closure
    and empty-offer insertion, from a candidate with the same events?
    Both are given as offer runs: each query run must embed
    order-preservingly into the candidate's run, pointwise by subset."""
    for qrun, crun in zip(qruns, cruns):
        j = 0
        for b in qrun:
            while j < len(crun) and not b <= crun[j]:
                j += 1
            if j == len(crun):
                return False
    return True


def saturate(traces, params: ModelParams, len_bound: int) -> frozenset:
    """The canonical core of the closure of some normalised traces, to
    the (n, k, len) bounds.  The closure is the trace set of the process
    ``realize`` builds from them (no junk), which op reads exactly, so
    what follows only through a trace longer than the bound is kept."""
    from .operational import avail_traces
    from .process import SpecEnv
    from .testing import realize

    term = realize(set(traces) | {()})
    return avail_traces(term, SpecEnv(Alphabet(())), params, Bounds(len_bound)).canon


class TraceSet:
    """A closed trace set under given model parameters and length bound,
    with the name of the engine that computed it (empty when none did)."""

    def __init__(self, canon, params: ModelParams, len_bound: int, engine: str = ""):
        self.canon = frozenset(canon)
        self.params = params
        self.len_bound = len_bound
        self.engine = engine

    def __len__(self) -> int:
        return len(self.canon)

    def __iter__(self):
        return iter(self.canon)

    @cached_property
    def _skeleton_index(self) -> dict:
        """Core members by event sequence, each kept as its offer runs."""
        idx = {}
        for tr in self.canon:
            runs, events = decompose(tr)
            idx.setdefault(events, []).append(runs)
        return idx

    def member(self, trace, alphabet: Alphabet | None = None) -> bool:
        """Closure-aware membership.  Raises OutOfUniverseError for queries
        outside the bounded universe rather than answering False."""
        check_universe(trace, self.params, self.len_bound, alphabet)
        return self._member_normalized(normalize_trace(trace))

    def _member_normalized(self, trace) -> bool:
        """Closure-aware membership of a normalised trace: the one routine
        every membership answer goes through.  A core member is answered
        before the reduction, which costs more than the probe."""
        if trace in self.canon or (reduced := cond4_reduce(trace)) in self.canon:
            return True
        runs, events = decompose(reduced)
        return any(covered(runs, cand) for cand in self._skeleton_index.get(events, ()))

    def members_sorted(self, alphabet: Alphabet):
        """The core in ``Alphabet.trace_key`` order, with each distinct
        action's key worked out once, as its rank among the actions."""
        actions = sorted(_actions(self.canon), key=alphabet.action_key)
        rank = {a: i for i, a in enumerate(actions)}
        return sorted(self.canon, key=lambda tr: (len(tr), tuple(map(rank.__getitem__, tr))))

    def json_lines(self, alphabet: Alphabet):
        import json

        head = {
            "count": len(self.canon),
            "engine": self.engine,
            "len_bound": self.len_bound,
            "params": self.params.json_obj(),
        }
        # an action's text is what trace_to_json writes between the brackets
        shown = {a: trace_to_json((a,))[1:-1] for a in _actions(self.canon)}
        lines = [json.dumps(head, sort_keys=True)]
        lines.extend("[" + ", ".join(map(shown.__getitem__, tr)) + "]"
                     for tr in self.members_sorted(alphabet))
        return lines

    def text_lines(self, alphabet: Alphabet):
        """``show_trace`` of each member, in ``members_sorted`` order."""
        shown = {a: show_action(a, alphabet) for a in _actions(self.canon)}
        return ["<" + ", ".join(map(shown.__getitem__, tr)) + ">"
                for tr in self.members_sorted(alphabet)]


def _actions(traces) -> set:
    """The distinct actions of some traces, each rendered or ranked once
    for output rather than once per trace it occurs in."""
    return {a for tr in traces for a in tr}


def close_healthy(raw, params: ModelParams, len_bound: int, alphabet: Alphabet | None = None) -> TraceSet:
    """The closure of ``raw`` within the bounded universe: the truncation
    of its unbounded closure, see ``saturate``."""
    normalized = set()
    for tr in raw:
        check_universe(tr, params, len_bound, alphabet)
        normalized.add(normalize_trace(tr))
    return TraceSet(saturate(normalized, params, len_bound), params, len_bound)


def _uncovered(a: TraceSet, b: TraceSet):
    """The members of ``a``'s core that ``b`` does not cover, lazily; ``a``
    is a subset of ``b`` exactly when there are none.  A member of both
    cores is covered, so only the set difference of the cores, taken at
    once, is walked; two equal cores walk nothing."""
    if a.params != b.params or a.len_bound != b.len_bound:
        raise ValueError("trace sets compared at different parameters")
    member = b._member_normalized
    return (tr for tr in a.canon - b.canon if not member(tr))


def covers_equal(a: TraceSet, b: TraceSet) -> bool:
    return next(_uncovered(a, b), None) is None and next(_uncovered(b, a), None) is None


# --- fitting into a bounded universe ---------------------------------------


def _subsets(events, smallest: int, largest: int | None) -> list:
    """The subsets of an event collection whose sizes lie in
    [smallest, largest] (None: no upper limit), by size, then in order of
    their sorted members."""
    items = sorted(events)
    top = len(items) if largest is None else min(largest, len(items))
    return [frozenset(c) for size in range(smallest, top + 1)
            for c in itertools.combinations(items, size)]


def max_offers(events, set_bound: int | None):
    """Maximal nonempty offers over an enabled-event collection: the whole
    collection when it fits the set bound, otherwise every bound-sized
    subset.  Smaller offers are recovered by covering at query time."""
    if not events:
        return []
    if set_bound is None or len(events) <= set_bound:
        return [frozenset(events)]
    return _subsets(events, set_bound, set_bound)


def _resample_run(choices, run_bound: int | None, len_bound: int) -> set:
    """Every offer run read order-preservingly off a run of positions,
    taking one of ``choices[j]`` at each step from the current position j
    on, with adjacent repeats merged and at most min(run bound, length
    bound) steps.  The empty run is included."""
    out = set()
    for layer in itertools.islice(_resample_layers(choices, run_bound), len_bound + 1):
        out.update(layer)
    return out


def _resample_layers(choices, run_bound: int | None):
    """The runs ``_resample_run`` reads, one layer per number of steps:
    the runs of exactly i steps for i = 0, 1, ..., at most the run bound,
    up to the first empty layer.  Each layer is worked out only when it is
    asked for, so a caller can take as many as its length budget needs."""
    frontier = {(): 0}          # run -> least position it can end at
    steps = 0
    while frontier:
        yield frontier
        if steps == run_bound:
            return
        nxt = {}
        for run, start in frontier.items():
            last = run[-1] if run else None
            for j in range(start, len(choices)):
                for o in choices[j]:
                    if o != last:
                        nxt.setdefault(run + (o,), j)
        frontier = nxt
        steps += 1


def finalize(traces, params: ModelParams, len_bound: int):
    """The one place a trace set is fitted to the model: each trace is
    kept, dropped or capped.  The input must be closed: it holds each
    member's prefixes and each trace made from a member by deleting one
    offer, then normalising.  Clauses may hand it runs of any length and
    offers of any size; the result is a saturated canonical core provided
    the input was one.

    A trace is dropped when it is longer than the bound, holds an empty
    offer or two equal adjacent offers, or has a run of more than n
    offers; the parallel and interleaving clauses hand it none of these,
    since their merges are normalised and stop at both bounds.  A trace
    that fits is kept.  One whose offers are wider than k is capped: it is
    replaced by the product of its runs' options, each variant kept while
    it fits the length bound.  A run holding an oversized offer has every
    run of capped subsets resampled from it (a member of the restricted
    universe may map several capped offers onto one oversized offer, so a
    capped run may take more steps than it has offers); any other run is
    its own only option.  Each run's options are worked out once a call,
    shortest first, so a variant stops growing at the first that
    overruns.

    One lemma makes dropping enough for a closed input: each image of a
    dropped trace in the bounded universe is also an image of a shorter
    trace, within the bound, made from it by taking a prefix and deleting
    offers, so the input holds it.  For an overlong trace, that is the
    prefix the image was read from, with the offers it did not read
    deleted; for one that is not normal, its normal form; for one with an
    overlong run, the trace with the offers the image did not read
    deleted.  By induction on length, each image is one of a member that
    is kept or capped."""
    n, k = params.run_bound, params.set_bound
    out = set()
    capped = {}             # run -> its options, shortest first
    for tr in traces:
        if len(tr) > len_bound:
            continue
        last = None             # the last offer in the current run
        run = 0
        drop = wide = False
        for a in tr:
            if isinstance(a, frozenset):    # is_offer, inlined
                run += 1
                if not a or a == last or (n is not None and run > n):
                    drop = True
                    break
                last = a
                if k is not None and len(a) > k:
                    wide = True
            else:
                last = None
                run = 0
        if drop:
            continue
        if not wide:
            out.add(tr)
            continue
        runs, events = decompose(tr)
        variants = [()]
        for i, r in enumerate(runs):
            options = capped.get(r)
            if options is None:
                if any(len(o) > k for o in r):
                    options = _resample_run([max_offers(o, k) for o in r], n, len_bound)
                else:
                    options = (r,)
                options = capped[r] = sorted(options, key=len)
            head = (events[i - 1],) if i else ()
            grown = []
            for v in variants:
                v += head
                for x in options:
                    if len(v) + len(x) > len_bound:
                        break
                    grown.append(v + x)
            variants = grown
        out.update(variants)
    return frozenset(out)


# --- healthiness verification ----------------------------------------------


class ConditionReport(Record):
    __slots__ = ("condition", "ok", "witness")

    def __init__(self, condition: str, ok: bool, witness: tuple | None = None):
        self.condition = condition
        self.ok = ok
        self.witness = witness

    def json_obj(self, alphabet: Alphabet | None = None) -> dict:
        obj = {"condition": self.condition, "verdict": "pass" if self.ok else "fail"}
        if not self.ok and self.witness is not None:
            obj["witness"] = show_trace(self.witness, alphabet)
        return obj


class HealthReport(Record):
    __slots__ = ("conditions",)

    def __init__(self, conditions: list | None = None):
        self.conditions = [] if conditions is None else conditions

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def json_objs(self, alphabet: Alphabet | None = None):
        return [c.json_obj(alphabet) for c in self.conditions]


def _prefixes(tr, within):
    return (tr[:i] for i in range(len(tr)))


def _offer_removals_and_duplicates(tr, within):
    for i, a in enumerate(tr):
        if is_offer(a):
            yield tr[:i] + tr[i + 1:]
            dup = tr[:i] + (a,) + tr[i:]
            if within(dup):
                yield dup


def _final_offer_events(tr, within):
    if tr and is_offer(tr[-1]):
        for a in tr[-1]:
            yield tr[:-1] + (a,)


def _offers_before_events(tr, within):
    for i, a in enumerate(tr):
        if is_event(a):
            ins = tr[:i] + (frozenset([a]),) + tr[i:]
            if within(ins):
                yield ins


def _offer_subsets(tr, within):
    for i, a in enumerate(tr):
        if is_offer(a):
            for sub in _subsets(a, 0, len(a) - 1):
                yield tr[:i] + (sub,) + tr[i + 1:]


def _empty_offers(tr, within):
    for i in range(len(tr) + 1):
        ins = tr[:i] + (frozenset(),) + tr[i:]
        if within(ins):
            yield ins


# Each condition with the traces a member requires, and whether it is one
# of the four that covering absorbs (see check_healthy); the last two only
# apply above the singleton-offer model.
_CONDITIONS = (
    ("nonempty-prefix-closed", _prefixes, False),
    ("offer-remove-duplicate", _offer_removals_and_duplicates, True),
    ("offer-implies-event", _final_offer_events, False),
    ("event-implies-offer", _offers_before_events, True),
    ("offer-subset-closed", _offer_subsets, True),
    ("empty-offer-free", _empty_offers, True),
)


def _conditions(params: ModelParams):
    return _CONDITIONS if params.set_bound != 1 else _CONDITIONS[:4]


def _not_literal(required, canon, inside) -> list:
    """The members of ``canon`` that the literal probe leaves to the walk
    for one of the two enumerated conditions: those that ask a trace
    ``inside`` (the core within the bound) lacks.  A prefix member asks
    its longest proper prefix first, and stops there when it is a core
    member; a final-offer member asks each of its final offer's events."""
    if required is _prefixes:
        return [tr for tr in canon if tr and tr[:-1] not in inside]
    rest = []
    for tr in canon:
        if tr and type(tr[-1]) is frozenset:
            head = tr[:-1]
            for a in tr[-1]:
                if head + (a,) not in inside:
                    rest.append(tr)
                    break
    return rest


def check_healthy(subject, params: ModelParams, len_bound: int) -> HealthReport:
    """Verify the healthiness conditions.

    ``subject`` may be a TraceSet, whose membership is closure-aware, or a
    plain collection of traces checked literally as an explicit set.  A
    failing condition's witness is its least failing member, shortest first
    and then by its text.

    The covering lemma: what the four absorbed conditions require of a
    member keeps or shrinks its offers, so normalised and reduced it has
    the member's events, is covered by its runs, and is no longer than the
    member unless a guard keeps it within the bound.  So when every core
    member fits the bound those four hold unasked; a core that does not,
    and an explicit set, is enumerated in full.
    """
    if isinstance(subject, TraceSet):
        if subject.params != params or subject.len_bound != len_bound:
            raise ValueError("trace set checked at different parameters")
        canon = subject.canon
        member = subject._member_normalized
        contains = lambda tr: len(tr) <= len_bound and (tr in canon or member(normalize_trace(tr)))
        fits = max(map(len, canon), default=0) <= len_bound
    else:
        canon = frozenset(tuple(t) for t in subject)
        contains = canon.__contains__
        fits = False
    inside = canon if fits else frozenset(tr for tr in canon if len(tr) <= len_bound)

    def within(tr) -> bool:
        return len(tr) <= len_bound and in_obs(tr, params.run_bound)

    # longest first, down to the first core member (see the module docstring)
    def prefix_walk(tr, within):
        for i in range(len(tr) - 1, -1, -1):
            yield tr[:i]
            if tr[:i] in canon:
                return

    report = HealthReport()
    for name, required, absorbed in _conditions(params):
        # nonemptiness and <> itself are required by no member: an empty
        # set fails without a witness, a set lacking <> with witness <>
        if required is _prefixes and not (canon and contains(())):
            report.conditions.append(ConditionReport(name, False, () if canon else None))
            continue
        if absorbed:
            rest = () if fits else canon
        else:
            rest = _not_literal(required, canon, inside)
        asked = prefix_walk if required is _prefixes else required
        failing = (tr for tr in rest if not all(map(contains, asked(tr, within))))
        witness = min(failing, key=lambda t: (len(t), show_trace(t)), default=None)
        report.conditions.append(ConditionReport(name, witness is None, witness))
    return report
