"""Availability-trace semantics for CSP processes.

Processes are interpreted in a family of trace models indexed by two
parameters: how many consecutive offers an observation may record and how
large each offered set may be.  The package provides an operational and a
denotational semantics over that family, closure validation and
realization of trace sets, may-testing, equivalence and refinement
checking with minimal witnesses, and a transform that simulates offer
observation with ordinary events.
"""

from .errors import (
    AvailCspError, BudgetError, OutOfUniverseError, ParseError, SpecError,
)
from .kernel import (
    TAU, Alphabet, Bounds, ModelParams, is_event, is_offer, normalize_trace,
    parse_trace, show_trace, trace_from_json, trace_to_json,
)
from .process import (
    Call, Definition, Div, ExtChoice, Hide, InputPrefix, IntChoice,
    Interleave, Parallel, Prefix, Rename, SpecEnv, Stop, Timeout, pretty,
    pretty_env,
)
from .parser import parse_process, parse_spec
from .healthiness import HealthReport, TraceSet, check_healthy, close_healthy, covers_equal
from .operational import StepEngine, avail_traces, build_lts, std_traces
from .trace_algebra import merge_traces
from .denotational import denote_traces
from .testing import (
    MayVerdict, may_pass, parse_test, process_from_trace, realize,
    test_from_trace,
)
from .equivalence import CompareResult, distinguish, equal_in, refine_in
from .simulation import (
    Simulation, decode_trace, emit_script, offer_event_name, to_simulation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
