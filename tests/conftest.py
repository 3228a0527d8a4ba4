"""Shared fixtures: the process corpus and the model-parameter points."""
from __future__ import annotations

import os

import pytest

from availcsp import Call, ModelParams, parse_spec

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GROUP_NAMES = ("group_ab", "group_abc", "group_xyz", "group_abcd")

# The six points every congruence run is checked at: the singleton model
# with and without run bounds, the two-sized sets model likewise, and the
# fully unbounded sets model (offers are capped by the alphabet anyway).
PARAM_POINTS = (
    ModelParams(run_bound=None, set_bound=1),
    ModelParams(run_bound=1, set_bound=1),
    ModelParams(run_bound=2, set_bound=1),
    ModelParams(run_bound=None, set_bound=2),
    ModelParams(run_bound=2, set_bound=2),
    ModelParams(run_bound=None, set_bound=None),
)

# Recursion through every operator, one definition each, named after it:
# every clause then meets operands that grow from round to round.
# TOGGLE changes its arguments as it recurses, and ILV keeps them.
RECURSION_SPEC = """
alphabet {a, b, c}
ILV(x) = x -> (ILV(x) ||| c -> STOP)
INTERLEAVELOOP = ILV(a)
PARALLELLOOP = (a -> PARALLELLOOP [] b -> STOP) [{a, b} || {b, c}] (b -> c -> STOP)
TIMEOUTLOOP = (a -> STOP) [> b -> TIMEOUTLOOP
HIDELOOP = a -> ((b -> HIDELOOP) \\ {b})
RENAMELOOP = a -> (RENAMELOOP [[a <- b, b <- a]])
CHOICELOOP = (a -> CHOICELOOP [] b -> STOP) |~| c -> STOP
INPUTLOOP = ? x : {a, b} -> x -> INPUTLOOP
TOGGLE(x, y) = x -> TOGGLE(y, x)
PARAMLOOP = TOGGLE(a, c)
"""


def load_group(name: str):
    with open(os.path.join(DATA_DIR, name + ".csp"), encoding="utf-8") as fh:
        return parse_spec(fh.read())


def group_processes(env):
    """The corpus members of a spec: every zero-parameter definition."""
    return [
        (name, Call(name, ()))
        for name, d in sorted(env.definitions.items())
        if not d.params
    ]


@pytest.fixture(scope="session")
def envs():
    return {name: load_group(name) for name in GROUP_NAMES}


@pytest.fixture(scope="session")
def corpus(envs):
    """Every corpus process as (group, name, term, env)."""
    out = []
    for group in GROUP_NAMES:
        env = envs[group]
        for name, term in group_processes(env):
            out.append((group, name, term, env))
    return out


@pytest.fixture(scope="session")
def ab(envs):
    return envs["group_ab"]


@pytest.fixture(scope="session")
def abc(envs):
    return envs["group_abc"]


@pytest.fixture(scope="session")
def xyz(envs):
    return envs["group_xyz"]


@pytest.fixture(scope="session")
def abcd(envs):
    return envs["group_abcd"]
