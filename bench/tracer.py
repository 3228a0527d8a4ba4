"""Spans and counters for the traced run, installed from outside ``src/``.

``install`` replaces each layer function in TARGETS with a wrapper at every
place the name is bound: the defining module and every module that imported
it by name (``from .healthiness import finalize`` binds a second name that
patching ``healthiness.finalize`` alone would miss).  Methods are patched on
their class.  Wrappers exist only in a process that calls ``install``.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of its direct children, which on one thread
are disjoint intervals inside it.  Calls of layer entry points are also
kept as span records (name, start, end, parent span, job id, self time) and
written out at the end; hot inner functions are only aggregated, because a
closure job makes millions of such calls.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

SPAN, FRAME, GEN, TICK = "span", "frame", "gen", "tick"

# (layer, module, attribute, kind).  An attribute "Class.method" is patched
# on the class.  Work in ``process`` (instantiate, subst_events, unfold) is
# not wrapped, so it counts toward the engine frame that called it.
TARGETS = (
    ("parser", "parser", "parse_spec", SPAN),
    ("parser", "parser", "parse_process", SPAN),
    ("operational", "operational", "avail_traces", SPAN),
    ("operational", "operational", "std_traces", SPAN),
    ("operational", "operational", "build_lts", SPAN),
    ("operational", "operational", "StepEngine.steps", FRAME),
    ("operational", "operational", "StepEngine.tau_closure", FRAME),
    ("operational", "operational", "StepEngine._compute", TICK),
    ("denotational", "denotational", "denote_traces", SPAN),
    ("denotational", "denotational", "DenotationalEngine.solve", FRAME),
    ("denotational", "denotational", "DenotationalEngine.denote", FRAME),
    ("trace_algebra", "trace_algebra", "merge_sets", FRAME),
    ("trace_algebra", "trace_algebra", "merge_traces", FRAME),
    ("trace_algebra", "trace_algebra", "hide_set", FRAME),
    ("trace_algebra", "trace_algebra", "rename_set", FRAME),
    ("healthiness", "healthiness", "finalize", FRAME),
    ("healthiness", "healthiness", "TraceSet._member_normalized", FRAME),
    ("healthiness", "healthiness", "covered", FRAME),
    ("healthiness", "healthiness", "covers_equal", FRAME),
    ("healthiness", "healthiness", "check_healthy", SPAN),
    ("healthiness", "healthiness", "close_healthy", SPAN),
    ("healthiness", "healthiness", "saturate", FRAME),
    ("kernel", "kernel", "decompose", FRAME),
    ("kernel", "kernel", "normalize_trace", TICK),
    ("equivalence", "equivalence", "equal_in", SPAN),
    ("equivalence", "equivalence", "refine_in", SPAN),
    ("equivalence", "equivalence", "_minimal_witness", SPAN),
    ("equivalence", "equivalence", "_covered_variants", GEN),
    ("testing", "testing", "may_pass", SPAN),
    ("testing", "testing", "realize", SPAN),
    ("simulation", "simulation", "to_simulation", SPAN),
    ("simulation", "simulation", "emit_script", FRAME),
)

LAYERS = ("parser", "cli", "operational", "denotational", "trace_algebra",
          "healthiness", "kernel", "equivalence", "testing", "simulation")

CONSTRUCTORS = ("Prefix", "InputPrefix", "ExtChoice", "IntChoice", "IntChoiceMany",
                "Timeout", "Parallel", "Interleave", "Hide", "Rename", "Mu", "Call")

ROOT = "main"          # the CLI entry point, layer "cli"
MEMBERSHIP = ("_member_normalized", "covered")
CHECK = ("check_healthy", "close_healthy", "saturate")
WITNESS = ("_minimal_witness", "_covered_variants")


def short(attr: str) -> str:
    return attr.rpartition(".")[2]


_LAYER_BY_NAME = {short(attr): layer for layer, _, attr, _ in TARGETS}


def layer_of(name: str) -> str:
    if name == ROOT:
        return "cli"
    if name.startswith("denote."):
        return "denotational"
    return _LAYER_BY_NAME[name]


class Tracer:
    """Frame stack, per-name aggregates and kept span records."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)   # outermost calls only
        self.active = Counter()
        self.counts = Counter()             # work counters
        self.site_hits = Counter()
        self.spans = []
        self.job = None
        self._patched = []

    # -- frames ---------------------------------------------------------

    def enter(self, name: str, keep: bool = False, arg=None) -> list:
        parent_span = self.stack[-1][3] if self.stack else -1
        span = parent_span
        if keep:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent_span, self.job, 0.0])
        self.active[name] += 1
        frame = [name, 0.0, 0.0, span, keep, arg, None]   # last: hook state
        self.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        name, start, child, span, keep = frame[:5]
        self.stack.pop()
        duration = end - start
        own = duration - child
        self.calls[name] += 1
        self.self_s[name] += own
        self.active[name] -= 1
        if not self.active[name]:
            self.total_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if keep:
            rec = self.spans[span]
            rec[1], rec[2], rec[5] = start, end, own

    def parent(self):
        return self.stack[-1] if self.stack else None

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn, name, site: str, keep: bool = False, after=None):
        """A wrapper that runs ``fn`` inside a frame.  ``name`` may be a
        function of the call's arguments; ``after(args, result)`` runs
        once the frame has closed, with the caller's frame on top."""
        enter, leave, hits = self.enter, self.exit, self.site_hits
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            hits[site] += 1
            frame = enter(name if fixed else name(args), keep, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def wrap_generator(self, fn, name: str, site: str):
        """Time a generator while it is consumed: one frame per item."""
        enter, leave, hits, counts = self.enter, self.exit, self.site_hits, self.counts

        def consume(inner):
            while True:
                frame = enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                counts[name + ".items"] += 1
                yield item

        def wrapper(*args, **kwargs):
            hits[site] += 1
            return consume(fn(*args, **kwargs))

        return functools.update_wrapper(wrapper, fn)

    def wrap_tick(self, fn, name: str, site: str):
        """Count calls without a frame, for the hottest helpers."""
        hits, calls = self.site_hits, self.calls

        def wrapper(*args, **kwargs):
            hits[site] += 1
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- hooks: work counters read off arguments and results --------------

    def _after(self, name: str):
        counts = self.counts
        if name == "avail_traces":
            def after(args, result):
                counts["core_traces"] += len(result)
        elif name == "finalize":
            def after(args, result):
                counts["finalize_in"] += len(args[0])
                counts["finalize_out"] += len(result)
        elif name == "covered":
            def after(args, result):
                counts["covered_true"] += bool(result)
        elif name == "solve":
            def after(args, result):
                counts["eval_len_max"] = max(counts["eval_len_max"], args[0].eval_len)
        elif name == "denote":
            after = self._count_round
        elif name == "_member_normalized":
            after = self._count_witness_hit
        elif name == "to_simulation":
            def after(args, result):
                counts["sim_states"] += result.state_count
        else:
            after = None
        return after

    def _count_round(self, args, result):
        """A fixpoint round is one evaluation of the body being iterated:
        the root term under ``solve``, or a ``Mu``'s body under that Mu."""
        parent = self.parent()
        if parent is None:
            return
        term = args[1]
        if parent[0] == "solve" and term is parent[5][1]:
            self.counts["fixpoint_rounds"] += 1
        elif parent[0] == "denote.Mu" and term is parent[5][1].body:
            self.counts["fixpoint_rounds"] += 1

    def _count_witness_hit(self, args, result):
        """Inside the witness search each variant is tested against its own
        side and, when it is a member there, against the other side; a
        variant separates when the second test fails."""
        parent = self.parent()
        if parent is None or parent[0] != "_minimal_witness":
            return
        if parent[6] is None:
            if result:
                parent[6] = args[0]
        else:
            if not result:
                self.counts["witness_hits"] += 1
            parent[6] = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every site that binds it."""
        importlib.import_module("availcsp.cli")
        for layer, module, attr, kind in TARGETS:
            name = short(attr)
            owner = importlib.import_module("availcsp." + module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                site = f"availcsp.{module}.{attr}"
                self._patch(cls, meth, self._make(getattr(cls, meth), name, kind, site))
                continue
            fn = getattr(owner, attr)
            for modname, mod in list(sys.modules.items()):
                if modname != "availcsp" and not modname.startswith("availcsp."):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        site = f"{modname}.{bound}"
                        self._patch(mod, bound, self._make(fn, name, kind, site))

    def _make(self, fn, name, kind, site):
        if kind == TICK:
            return self.wrap_tick(fn, name, site)
        if kind == GEN:
            return self.wrap_generator(fn, name, site)
        label = name
        if name == "denote":
            label = lambda args: "denote." + type(args[1]).__name__
        return self.wrap(fn, label, site, keep=kind == SPAN, after=self._after(name))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def run_root(self, fn, *args):
        """Run the CLI entry point as the root frame of one job."""
        frame = self.enter(ROOT, True)
        try:
            return fn(*args)
        finally:
            self.exit(frame)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "job", "self_s"), rec))) + "\n")

    # -- per-layer metrics ----------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, every name always present."""
        calls, self_s, total, counts = self.calls, self.self_s, self.total_s, self.counts
        layer_self = defaultdict(float)
        for name, value in self_s.items():
            layer_self[layer_of(name)] += value

        def ratio(num, den):
            return num / den if den else 0.0

        def group(names):
            return sum(self_s.get(n, 0.0) for n in names)

        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "parser.parse_spec_s": total["parse_spec"],
            "parser.parse_process_s": total["parse_process"],
            "operational.avail_traces_s": total["avail_traces"],
            "operational.avail_traces_calls": calls["avail_traces"],
            "operational.core_traces": counts["core_traces"],
            "operational.steps_calls": calls["steps"],
            "operational.step_cache_hit_ratio":
                ratio(calls["steps"] - calls["_compute"], calls["steps"]),
            "operational.tau_closure_calls": calls["tau_closure"],
            "operational.std_traces_s": total["std_traces"],
            "operational.build_lts_s": total["build_lts"],
            "denotational.denote_traces_s": total["denote_traces"],
            "denotational.denote_calls":
                sum(v for k, v in calls.items() if k.startswith("denote.")),
            "denotational.fixpoint_rounds": counts["fixpoint_rounds"],
            "denotational.eval_len_max": counts["eval_len_max"],
            "trace_algebra.merge_traces_calls": calls["merge_traces"],
            "trace_algebra.merge_traces_s": total["merge_traces"],
            "trace_algebra.hide_set_s": total["hide_set"],
            "trace_algebra.rename_set_s": total["rename_set"],
            "healthiness.finalize_calls": calls["finalize"],
            "healthiness.finalize_s": total["finalize"],
            "healthiness.finalize_self_s": self_s["finalize"],
            "healthiness.finalize_in_traces": counts["finalize_in"],
            "healthiness.finalize_out_traces": counts["finalize_out"],
            "healthiness.member_queries": calls["_member_normalized"],
            "healthiness.covered_calls": calls["covered"],
            "healthiness.covered_true_ratio":
                ratio(counts["covered_true"], calls["covered"]),
            "healthiness.covered_s": total["covered"],
            "healthiness.check_healthy_s": total["check_healthy"],
            "healthiness.saturate_s": total["saturate"],
            "healthiness.membership_self_s": group(MEMBERSHIP),
            "healthiness.check_self_s": group(CHECK),
            "kernel.decompose_calls": calls["decompose"],
            "kernel.decompose_s": total["decompose"],
            "kernel.normalize_trace_calls": calls["normalize_trace"],
            "equivalence.compare_s": total["equal_in"] + total["refine_in"],
            "equivalence.witness_s": total["_minimal_witness"],
            "equivalence.witness_self_s": group(WITNESS),
            "equivalence.witness_variants": counts["_covered_variants.items"],
            "equivalence.witness_hit_ratio":
                ratio(counts["witness_hits"], counts["_covered_variants.items"]),
            "testing.may_pass_s": total["may_pass"],
            "testing.may_pass_calls": calls["may_pass"],
            "testing.realize_s": total["realize"],
            "simulation.to_simulation_s": total["to_simulation"],
            "simulation.states": counts["sim_states"],
            "trace.job_s": total[ROOT],
            "trace.spans": len(self.spans),
        })
        for ctor in CONSTRUCTORS:
            out[f"denotational.self_s.{ctor}"] = self_s[f"denote.{ctor}"]
        return out
