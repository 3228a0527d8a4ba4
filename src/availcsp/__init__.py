"""Availability-trace semantics for CSP processes.

Processes are interpreted in a family of trace models indexed by two
parameters: how many consecutive offers an observation may record and how
large each offered set may be.  The package provides an operational and a
denotational semantics over that family, closure validation and
realization of trace sets, may-testing, equivalence and refinement
checking with minimal witnesses, and a transform that simulates offer
observation with ordinary events.

Importing the package loads none of its modules: each name below, and each
module, is imported the first time it is asked for (PEP 562), so a command
line call pays only for the modules it uses.
"""

import importlib

# module -> the names the package re-exports from it
_EXPORTS = {
    "errors": "AvailCspError BudgetError OutOfUniverseError ParseError SpecError",
    "kernel": "TAU Alphabet Bounds ModelParams is_event is_offer normalize_trace "
              "parse_trace show_trace trace_from_json trace_to_json",
    "process": "Call Definition Div ExtChoice Hide InputPrefix IntChoice Interleave "
               "Parallel Prefix Rename SpecEnv Stop Timeout pretty pretty_env",
    "parser": "parse_process parse_spec",
    "healthiness": "HealthReport TraceSet check_healthy close_healthy covers_equal",
    "operational": "StepEngine avail_traces build_lts std_traces",
    "trace_algebra": "merge_traces",
    "denotational": "denote_traces",
    "testing": "MayVerdict may_pass parse_test process_from_trace realize",
    "equivalence": "CompareResult distinguish equal_in refine_in",
    "simulation": "Simulation decode_trace emit_script offer_event_name to_simulation",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_OWNER, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
