"""Trace-level operators used by the denotational semantics.

All functions work on canonical traces (see healthiness) and apply no
model bound.  Outputs may leave the canonical universe (oversized offers
from merging, joined runs from concatenation, shortened traces from
hiding); ``finalize`` alone fits them to the model.
"""
from __future__ import annotations

from .kernel import is_event, is_offer, normalize_trace


def merge_offer(o1: frozenset, o2: frozenset, sync: frozenset) -> frozenset:
    """Joint offer of two components synchronising on ``sync``: an event is
    jointly offered when both sides offer it (if synchronised) or either
    side offers it (if free)."""
    return (o1 & o2 & sync) | (o1 - sync) | (o2 - sync)


def merge_traces(t1, t2, sync: frozenset) -> frozenset:
    """All complete synchronised merges of two canonical traces.

    An observation point of the composite samples one position in each
    component, moving monotonically through both; the same component offer
    may be sampled repeatedly, sampled once, or skipped.  Synchronised
    events must pair up exactly; free events interleave.  Results are
    normalised but may exceed run, offer-size, or length bounds.
    """
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


def merge_sets(canon1, canon2, sync: frozenset) -> set:
    """Union of all pairwise merges of two canonical cores."""
    out = set()
    for t1 in canon1:
        for t2 in canon2:
            out.update(merge_traces(t1, t2, sync))
    return out


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
