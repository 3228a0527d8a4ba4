"""Each denotational clause checked against the operational engine, one
operator at a time.

PAPER.md's compositional semantics is congruent to the operational one
operator by operator: the clause of an operator, applied to the
operational cores of its operands, gives the operational core of the
composite.  Each check builds a composite of corpus processes, applies the
operator's entry of ``denotational.CLAUSES`` to op's operand cores and
fits the result with ``finalize``, as den does.  So a mismatch names the
operator, and depends neither on den's recursion solver nor on its
evaluation length.  The same loop checks that each unfitted clause output
is closed under prefixes and under deleting one offer: ``finalize`` takes
closed sets only, and den hands it these outputs (``denotational``'s
docstring).
"""
from __future__ import annotations

import typing

import pytest

from conftest import PARAM_POINTS, group_processes
from oracle import closure_gaps

from availcsp import Bounds, process
from availcsp.denotational import CLAUSES
from availcsp.healthiness import TraceSet, covers_equal, finalize
from availcsp.operational import avail_traces
from availcsp.process import (
    Call, Div, ExtChoice, Hide, InputPrefix, IntChoice, Interleave, Parallel,
    Prefix, Rename, Stop, Timeout, _children, pretty, subst_events,
)

A, B, AB = frozenset("a"), frozenset("b"), frozenset("ab")
LENGTHS = (1, 2, 3)

# The operands: a dozen group_ab processes, from deadlock and divergence
# through every choice to recursions, each composed with the next.
OPERANDS = ("DEADLOCK", "CHURN", "DOA", "MAYBE", "EXT", "INT", "SWAYA", "SWAYPAIR",
            "TWINOFFER", "SEQ", "PUMPCHOICE", "EVEN")

# Composites of one operand P, or of P and the one after it, Q.
COMPOSITES = {
    "Prefix": lambda p, q: Prefix("a", p),
    "InputPrefix": lambda p, q: InputPrefix("x", AB, ExtChoice((Prefix("x", p), q))),
    "ExtChoice": lambda p, q: ExtChoice((p, q)),
    "IntChoice": lambda p, q: IntChoice((p, q)),
    "Timeout": lambda p, q: Timeout((p, q)),
    "Parallel": lambda p, q: Parallel(p, AB, AB, q),
    "Parallel-partial": lambda p, q: Parallel(p, AB, B, q),
    "Interleave": lambda p, q: Interleave(p, q),
    "Hide": lambda p, q: Hide(p, A),
    "Rename": lambda p, q: Rename(p, frozenset({("a", "a"), ("a", "b"), ("b", "b")})),
}


def operands_of(node) -> tuple:
    """The terms whose cores a node's clause takes, in order."""
    if isinstance(node, InputPrefix):
        return tuple(subst_events(node.body, {node.binder: a}) for a in sorted(node.events))
    return _children(node)


def clause_raws(node, cores, params, length) -> list:
    """The node's clause over the given operand cores, unfitted: one set
    for a linear clause, one per fold for a bilinear chain, which folds the
    clause left to right and fits each fold with ``finalize`` as den
    does.  Each clause is given the bounds its output is fitted at."""
    clause, bilinear = CLAUSES[type(node)]
    fit = (length, params.run_bound)
    if not bilinear:
        return [clause(node, fit, *cores)]
    raws = []
    acc = cores[0]
    for core in cores[1:]:
        raws.append(clause(node, fit, acc, core))
        acc = finalize(raws[-1], params, length)
    return raws


@pytest.fixture(scope="module")
def operand_pairs(envs):
    env = envs["group_ab"]
    names = dict(group_processes(env))
    terms = [names[n] for n in OPERANDS]
    return env, list(zip(terms, terms[1:] + terms[:1]))


@pytest.mark.parametrize("operator", COMPOSITES)
def test_clause_over_operational_operands_matches_operational(operand_pairs, operator):
    env, pairs = operand_pairs
    mismatches = []
    unclosed = []
    for params in PARAM_POINTS:
        cores = {}      # (operand, length) -> its operational core

        def core(term, length):
            if (term, length) not in cores:
                cores[term, length] = avail_traces(
                    term, env, params, Bounds(trace_len=length)).canon
            return cores[term, length]

        for length in LENGTHS:
            # hiding consumes events, so its operand is taken at den's
            # internal length
            inner = Bounds(trace_len=length).internal_len if operator == "Hide" else length
            for p, q in pairs:
                node = COMPOSITES[operator](p, q)
                raws = clause_raws(
                    node, [core(t, inner) for t in operands_of(node)], params, length)
                got = TraceSet(finalize(raws[-1], params, length), params, length)
                want = avail_traces(node, env, params, Bounds(trace_len=length))
                if not covers_equal(got, want):
                    mismatches.append((pretty(node), params.show(), length))
                if any(closure_gaps(raw) for raw in raws):
                    unclosed.append((pretty(node), params.show(), length))
    assert mismatches == []
    assert unclosed == []


def test_every_operator_has_a_clause():
    # Stop and Div denote the least set and Call a vector entry
    constructors = set(typing.get_args(process.Process))
    assert set(CLAUSES) == constructors - {Stop, Div, Call}
