"""Offer runs fitted to the model and trimmed to the length bound in one
pass, for the traces that ``healthiness.finalize`` finds too wide for the
model: ``fit_and_trim``.  ``finalize`` imports this module the first time
it meets such a trace.
"""
from __future__ import annotations

import itertools

from .healthiness import max_offers
from .kernel import ModelParams, decompose, normalize_trace


def _run_table(choices, cap: int, most: int) -> list:
    """What trimming can read off one offer run: for each count c of picks
    up to ``most``, every normalised selection of c picks from some option
    of the run, mapped to whether an option longer than c holds it.  The
    options are the normalised runs of at most ``cap`` steps read off
    ``choices`` as ``_resample_run`` reads them: one list of offers per
    position, taken from the current position on.

    Picks are added one at a time, so each level of c is built from the
    one before.  A pick equal to the one before it merges into it, and the
    option needs an unselected offer between them: an option holding a
    selection x of c picks is at least c + (c - len(x)) long, and when
    c == len(x) it is longer than c only with one more unselected offer.
    For each (x, c) the search keeps the leftmost position the last pick
    can take in an option of that least length and, when c == len(x), in
    one with that one more offer.  Dropping an unselected offer whose
    neighbours differ moves no pick to the right, so any option holding x
    reduces to one of those two.  An unselected offer is inserted only
    directly before a pick, or at the end to flag x, so the search costs
    what it returns."""
    end = len(choices)
    # reach[p]: each offer readable from position p on, at its least
    # position, in order of that position
    reach = [{} for _ in range(end + 1)]
    for p in range(end - 1, -1, -1):
        here = reach[p] = dict.fromkeys(choices[p], p)
        for o, q in reach[p + 1].items():
            here.setdefault(o, q)
    spreads = {}

    def spread(p, last):
        """From position p on: the first offer other than ``last``, its
        position, and the least position of an offer other than both."""
        got = spreads.get((p, last))
        if got is None:
            got = [None, None, None]
            for u, q in reach[p].items():
                if u == last:
                    continue
                if got[0] is not None:
                    got[2] = q
                    break
                got[0], got[1] = u, q
            spreads[(p, last)] = got
        return got

    table = []
    # selection -> (tight, loose): the last pick's leftmost position in an
    # option of least length, and in one with an unselected offer more
    # when c == len(x) (None: there is no such option)
    level = {(): (0, None)}
    c = 0
    while True:
        longer = c < cap
        more = longer and c < most
        row = {}
        grown = {}
        for x, (tight, loose) in level.items():
            last = x[-1] if x else None
            if tight is None:       # c > len(x): every option is longer
                row[x] = True
                if not more:
                    continue
                sep = spread(loose, last)[1]
                after = {} if sep is None else reach[sep]
                steps = [(x, None, after.get(y)) if y == last else (x + (y,), None, q)
                         for y, q in reach[loose].items()]
            else:
                u1, p1, p2 = spread(tight, last)
                row[x] = loose is not None or (longer and p1 is not None)
                if not more:
                    continue
                nl = {} if loose is None else reach[loose]
                steps = []
                for y, q in reach[tight].items():
                    if y == last:       # merged into x: a separator first
                        steps.append((x, None, None if p1 is None else reach[p1].get(y)))
                        continue
                    # loose: from one, or from x with an offer inserted before y
                    l2 = nl.get(y)
                    p = p2 if y == u1 else p1
                    if p is not None:
                        q2 = reach[p].get(y)
                        if q2 is not None and (l2 is None or q2 < l2):
                            l2 = q2
                    steps.append((x + (y,), q, l2))
            for x2, t2, l2 in steps:
                if l2 is not None and c + 1 + max(1, c + 1 - len(x2)) > cap:
                    l2 = None
                if t2 is None and l2 is None:
                    continue
                old = grown.get(x2)
                if old is not None:
                    if t2 is None or (old[0] is not None and old[0] < t2):
                        t2 = old[0]
                    if l2 is None or (old[1] is not None and old[1] < l2):
                        l2 = old[1]
                grown[x2] = (t2, l2)
        table.append(row)
        if not grown:
            return table
        level = grown
        c += 1


def fit_and_trim(traces, params: ModelParams, len_bound: int, out: set):
    """Add the images of normalised traces that overflow the set or run
    bound, fitted to the model and trimmed to the length bound, to ``out``.

    Fitting replaces each offer run by a set of options, and a trace by
    the product of their choices, its variants.  A run holding an
    oversized offer has every run of capped subsets resampled from it (a
    member of the restricted universe may map several capped offers onto
    one oversized offer); a run longer than the run bound has every
    selection of that many of its offers, with repeats that become
    adjacent merged; any other run is its own only option.  Trimming then
    keeps what ``trim_length`` keeps of each variant, without building a
    variant longer than the bound.  Of t = R0 e1 R1 ... em Rm that is:

    * each variant that fits the bound, and each variant prefix through
      run w that fits it while its longest completion does not;
    * for each w, every x0 e1 ... ew xw where each xi is a selection of ci
      picks from an option of run i, the ci add up to len_bound - w, and
      some run i has an option longer than ci that holds xi: the
      selections from a prefix longer than the bound.  They are built run
      by run from each run's ``_run_table``, keyed by picks so far and
      split by whether some run was extendable.

    Both parts of the image through run w depend only on the trace up to
    run w, so the traces go into one trie of runs and events (a node is
    its children, keyed by event and run, the longest completion of a
    trace that goes on past it, and whether a trace ends there), walked
    depth first with an explicit stack: each node extends its parent's
    variant prefixes by its run's options, shortest first, and its
    parent's selections by its run's table.  A run with no offers only
    adds its event, so the events are held back until a run that has
    some.  A run's options and table depend only on the run and the length
    left, so each is worked out once."""
    n, k = params.run_bound, params.set_bound
    resampled_cap = len_bound if n is None else min(n, len_bound)

    def resampled(r) -> bool:
        return k is not None and any(len(o) > k for o in r)

    def longest(r) -> int:
        return resampled_cap if resampled(r) else n if n is not None and len(r) > n else len(r)

    root = [{}, -1, False]
    for tr in traces:
        runs, events = decompose(tr)
        after = [0] * len(runs)     # the longest completion after each run
        for i in range(len(runs) - 1, 0, -1):
            after[i - 1] = after[i] + 1 + longest(runs[i])
        node = root
        for i in range(min(len(events), len_bound) + 1):
            key = (events[i - 1] if i else None, runs[i])
            node = node[0].setdefault(key, [{}, -1, False])
            if i == len(events):
                node[2] = True
            else:
                node[1] = max(node[1], after[i])
    seen = {}               # (run, length left) -> (options by length, rows)
    # node, its depth and key, its parent's variant prefixes and
    # selections (picks so far -> those some run was extendable for, and
    # the rest), and the events held back
    stack = [(node, 0, key, [()], {0: ((), ((),))}, ()) for key, node in root[0].items()]
    while stack:
        (children, rest, ends), depth, (event, r), prefixes, layer, pending = stack.pop()
        budget = len_bound - depth
        got = seen.get((r, budget))
        if got is None:
            if resampled(r):
                table = _run_table([max_offers(o, k) for o in r], resampled_cap, budget)
                options = [x for c, row in enumerate(table) for x in row if len(x) == c]
            else:
                table = _run_table([(o,) for o in r], longest(r), budget)
                options = [r] if n is None or len(r) <= n else sorted(
                    {normalize_trace(c) for c in itertools.combinations(r, n)}, key=len)
            rows = []
            for row in table:
                yes = [x for x, g in row.items() if g]
                no = [x for x, g in row.items() if not g]
                rows.append((yes, no, yes + no))
            got = seen[(r, budget)] = (options, rows)
        options, rows = got
        head = (event,) if depth else ()
        grown = []
        for q in prefixes:
            q += head
            for x in options:
                p = q + x
                if len(p) > len_bound:
                    break
                if ends or len(p) + rest > len_bound:
                    out.add(p)
                if len(p) < len_bound:
                    grown.append(p)
        prefixes = grown
        pending += head
        if len(rows) == 1 and not rows[0][0]:   # nothing to pick
            done = layer.get(budget)
            if done is not None:
                out.update([p + pending for p in done[0]])
        else:
            grown = {}
            for c, (ext, flat) in layer.items():
                if pending:
                    ext = [p + pending for p in ext]
                    flat = [p + pending for p in flat]
                for c2 in range(min(budget - c + 1, len(rows))):
                    yes, no, both = rows[c2]
                    into = grown.get(c + c2)
                    if into is None:
                        into = grown[c + c2] = (set(), set())
                    if ext:
                        into[0].update([p + x for p in ext for x in both])
                    if flat:
                        into[0].update([p + x for p in flat for x in yes])
                        into[1].update([p + x for p in flat for x in no])
            pending = ()
            done = grown.pop(budget, None)
            if done is not None:
                out.update(done[0])
            for ext, flat in grown.values():
                flat -= ext
            layer = grown
        for key, child in children.items():
            stack.append((child, depth + 1, key, prefixes, layer, pending))
