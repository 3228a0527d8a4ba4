"""Trace-level operators used by the denotational semantics.

All functions work on canonical traces (see healthiness).  Only
``merge_sets`` takes model bounds: it stops a merge once it is longer than
the length bound or its last run longer than the run bound, where
``finalize`` would drop it.  Outputs may leave the canonical universe
(oversized offers from merging, joined runs from concatenation, shortened
traces from hiding); ``finalize`` alone fits them to the model.
"""
from __future__ import annotations

import math

from .kernel import is_event, is_offer, normalize_trace


def merge_offer(o1: frozenset, o2: frozenset, sync: frozenset) -> frozenset:
    """Joint offer of two components synchronising on ``sync``: an event is
    jointly offered when both sides offer it (if synchronised) or either
    side offers it (if free)."""
    return (o1 & o2 & sync) | (o1 - sync) | (o2 - sync)


def _trie(traces):
    """The prefix trie of some traces, its nodes numbered from the root, 0:
    ``edges[u]`` lists node u's (action, child) pairs, ``label[c]`` is the
    action into node c, and ``member[u]`` says whether the path to u is one
    of the traces."""
    edges, label, member = [[]], [None], [False]
    child = {}
    for tr in traces:
        u = 0
        for a in tr:
            c = child.get((u, a))
            if c is None:
                c = child[u, a] = len(edges)
                edges.append([])
                label.append(a)
                member.append(False)
                edges[u].append((a, c))
            u = c
        member[u] = True
    return edges, label, member


def _alone(a, sync: frozenset) -> tuple:
    """What the merge shows when one side takes its action ``a`` alone:
    a free event, or an offer skipped (None) or shown without its
    synchronised events; a synchronised event never moves alone."""
    if type(a) is str:
        return () if a in sync else (a,)
    rest = a - sync
    return (None, rest) if rest else (None,)


def merge_sets(left, right, sync: frozenset, len_bound=None, run_bound=None) -> set:
    """Every synchronised merge of a trace of ``left`` with one of
    ``right`` that is at most ``len_bound`` long and has no run of more
    than ``run_bound`` offers (None: no bound).

    An observation point of the composite samples one position in each
    component, moving monotonically through both; the same component offer
    may be sampled repeatedly, sampled once, or skipped.  Synchronised
    events must pair up exactly; free events interleave.  Results are
    normalised but may hold offers of any size.

    One forward walk over the product of the two sets' prefix tries: a
    state is a position on each side and the merge so far, normalised as
    it grows, and each is expanded once, so a prefix pair that many trace
    pairs share is merged once.  A position is a node, or an offer edge
    (``~child``) that was joined while only the other side moved on: the
    walk must take it next, or it would switch to a sibling branch the
    joint offer did not come from.  A move keeps the merge or makes it one
    longer, so the states are grouped by merge, one length at a time, and
    a position pair's moves are worked out once.  A merge is emitted where
    both positions are members, and dropped once past a bound: normalising
    only appends, so no extension brings it back, and ``finalize`` would
    drop it."""
    ledges, llabel, lmember = _trie(left)
    redges, rlabel, rmember = _trie(right)
    longest = math.inf if len_bound is None else len_bound
    widest = math.inf if run_bound is None else run_bound
    table = {}              # position pair -> its (action or None, position pair) moves
    ends = set()            # position pairs where both positions are members

    def moves(pos) -> list:
        p, q = pos
        if p >= 0 and q >= 0 and lmember[p] and rmember[q]:
            ends.add(pos)
        lmoves = ledges[p] if p >= 0 else ((llabel[~p], ~p),)
        rmoves = redges[q] if q >= 0 else ((rlabel[~q], ~q),)
        out = []
        for a1, c1 in lmoves:
            out += ((x, (c1, q)) for x in _alone(a1, sync))
            for a2, c2 in rmoves:
                if type(a1) is str:
                    if a1 == a2 and a1 in sync:
                        out.append((a1, (c1, c2)))
                elif type(a2) is not str and (joint := merge_offer(a1, a2, sync)):
                    out += ((joint, (c1, ~c2)), (joint, (~c1, c2)), (joint, (c1, c2)))
        for a2, c2 in rmoves:
            out += ((x, (p, c2)) for x in _alone(a2, sync))
        table[pos] = out
        return out

    out = set()
    level = {(): {(0, 0): None}}        # merge -> its positions, for one length
    while level:
        longer = {}
        for m, seen in level.items():
            run = 0
            while run < len(m) and type(m[-1 - run]) is not str:
                run += 1
            into = {None: seen}         # action -> the positions of m followed by it
            if run:
                into[m[-1]] = seen
            todo = list(seen)
            for pos in todo:
                listed = table.get(pos)
                if listed is None:
                    listed = moves(pos)
                if pos in ends:
                    out.add(m)
                for x, nxt in listed:
                    target = into.get(x, False)
                    if target is False:
                        past = len(m) == longest or (type(x) is not str and run == widest)
                        target = into[x] = None if past else longer.setdefault(m + (x,), {})
                    if target is not None and nxt not in target:
                        target[nxt] = None
                        if target is seen:
                            todo.append(nxt)
        level = longer
    return out


def merge_traces(t1, t2, sync: frozenset) -> frozenset:
    """All complete synchronised merges of two traces: ``merge_sets`` of
    the two one-trace sets, with no bound."""
    return frozenset(merge_sets((t1,), (t2,), sync))


def restrict_trace(trace, allowed: frozenset):
    """Restriction to an event set: drops the trace when it performs an
    event outside the set, and narrows its offers into the set."""
    out = []
    for a in trace:
        if is_event(a):
            if a not in allowed:
                return None
            out.append(a)
        else:
            out.append(a & allowed)
    return normalize_trace(tuple(out))


def restrict_set(canon, allowed: frozenset) -> set:
    out = set()
    for tr in canon:
        r = restrict_trace(tr, allowed)
        if r is not None:
            out.add(r)
    return out


def hide_trace(trace, hidden: frozenset):
    """Hiding: performed hidden events disappear and offers lose their
    hidden part.  Runs separated only by hidden events join up; the caller
    re-clips them."""
    out = []
    for a in trace:
        if is_event(a):
            if a not in hidden:
                out.append(a)
        else:
            out.append(a - hidden)
    return normalize_trace(tuple(out))


def hide_set(canon, hidden: frozenset) -> set:
    return {hide_trace(tr, hidden) for tr in canon}


def rename_trace(trace, pairs) -> set:
    """Relational renaming: each performed event branches over its images
    (a trace with an imageless event is lost) and each offer becomes the
    image of its members (possibly empty, then dropped by normalisation).
    The offer image is kept whole, which is the canonical (maximal)
    representative; capping it to the set bound is left to ``finalize``."""
    images: dict = {}
    for frm, to in pairs:
        images.setdefault(frm, set()).add(to)
    results = {()}
    for a in trace:
        if is_event(a):
            targets = images.get(a)
            if not targets:
                return set()
            results = {base + (b,) for base in results for b in sorted(targets)}
        else:
            img = frozenset(b for x in a for b in images.get(x, ()))
            results = {base + (img,) for base in results}
    return {normalize_trace(tr) for tr in results}


def rename_set(canon, pairs) -> set:
    out = set()
    for tr in canon:
        out.update(rename_trace(tr, pairs))
    return out


def concat_traces(t1, t2):
    """Concatenation with normalisation at the junction (adjacent runs
    join; the caller re-clips run lengths)."""
    return normalize_trace(t1 + t2)


def offers_only(canon) -> list:
    """Members consisting purely of offers (the empty trace included)."""
    return [tr for tr in canon if all(is_offer(a) for a in tr)]


def split_first_event(trace):
    """Split a canonical trace at its first event into (leading offers,
    event, remainder); None when the trace has no event."""
    for i, a in enumerate(trace):
        if is_event(a):
            return trace[:i], a, trace[i + 1:]
    return None
