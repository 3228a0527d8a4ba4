"""Job lists and their known answers.

A job is one CLI command line run through ``availcsp.cli.main``.  Its known
answer is the exit code plus, where the answer names a witness or a verdict
row, patterns that must each match a whole line of its standard output.
Every answer is derived by hand from the paper or from the law named in
``LAWS``; none is read off the engine under test.

The corpus under ``data/corpus`` is a frozen copy of the test corpus, so
the job lists do not change when the test corpus grows.  The seed orders
each job list and draws the events of the generated instances; every
generated slot has a fixed shape, so the cost of a list does not depend on
the seed.
"""
from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass

WORKLOADS = ("congruence", "closure", "verify")

DATA = os.path.join("bench", "data")
CORPUS = os.path.join(DATA, "corpus")
GROUPS = ("group_ab", "group_abc", "group_xyz", "group_abcd")
FAMILY = os.path.join(DATA, "family.csp")
EVENTS = ("a", "b", "c", "d", "e")

# The six model points Tier-1's engine cross-check uses (tests/conftest.py).
PARAM_POINTS = ("n=F,k=1", "n=1,k=1", "n=2,k=1", "n=F,k=2", "n=2,k=2", "n=F,k=F")
GRID = "n=0..2,k=1,2,F"
GRID_POINTS = tuple(f"n={n},k={k}" for n in (0, 1, 2) for k in (1, 2, "F"))

# The law or paper example behind each known answer.  PAPER.md is the
# paper's summary in this repository; "acceptance NN" is the Tier-1
# acceptance test that states the same example.
LAWS = {
    "engines-agree": "PAPER.md: the operational and denotational engines "
                     "compute the same trace set in every (n, k) model",
    "computed-healthy": "PAPER.md: every trace set a process denotes satisfies "
                        "the closure conditions",
    "explicit-healthy": "closure conditions checked by hand on a complete "
                        "explicit set (data/mutants/*_len*.tr)",
    "mutant": "a set missing one consequence of a closure condition violates "
              "that condition (acceptance 07)",
    "realize": "PAPER.md: realization builds a process whose trace set is exactly "
               "the given healthy set; each seed trace is shorter than the bound",
    "ext-int": "paper: external and internal choice have the same finite traces "
               "but a one-event offer separates them, witness <offer{a}, b> "
               "(acceptance 02, 03)",
    "int-refines-ext": "traces(P |~| Q) = traces(P) u traces(Q), and each branch "
                       "of INT is observed only offering the event it performs, "
                       "an offer EXT also makes",
    "n0-standard": "PAPER.md: at n=0 the model collapses to ordinary finite traces",
    "sway": "paper: sliding choice offers a then switches to b, INT cannot "
            "(acceptance 03)",
    "doa-maybe": "paper: DOA and MAYBE differ in stable failures but not in "
                 "availability traces (acceptance 03)",
    "ladder": "paper: the sliding ladder separates at run bound two, witness "
              "<offer{a}, offer{b}, a> (acceptance 04)",
    "joint-offer": "paper: a joint offer {a,b} separates EXT from the one-at-a-time "
                   "CYCLE at k=2 only (acceptance 05)",
    "fullset": "paper: FULLSET and PARTSET separate at n=1 only once k=2 "
               "(acceptance 06); other rows derived in bench/README.md",
    "fork-funnel": "paper: no availability model sees branching time, so FORK "
                   "and FUNNEL are equal everywhere (acceptance 11)",
    "input-vs-choice": "? x : S -> P_x offers all of S at once, |~| x : S @ x -> P_x "
                       "one event at a time: equal at n=0, separated at n>=1 "
                       "for |S|>=2",
    "ext-comm": "P [] Q = Q [] P",
    "ext-assoc": "(P [] Q) [] R = P [] (Q [] R)",
    "int-comm": "P |~| Q = Q |~| P",
    "int-assoc": "(P |~| Q) |~| R = P |~| (Q |~| R)",
    "int-idem": "P |~| P = P",
    "interleave-unit": "P ||| STOP = P",
    "testing": "PAPER.md: a trace is a member exactly when the test derived "
               "from it may pass; the trace is read off the term by hand",
    "simulation": "PAPER.md: the simulation script's standard traces decode to "
                  "exactly the availability traces of the source",
    "traces": "extraction of a closed term succeeds (exit 0, JSON header)",
}


@dataclass(frozen=True)
class Job:
    argv: tuple
    code: int
    law: str
    lines: tuple = ()   # regexes, each must match a whole stdout line

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def mismatch(self, code: int, out: str) -> str | None:
        """Why the result differs from the known answer, or None."""
        if code != self.code:
            return f"exit {code}, expected {self.code}"
        got = out.splitlines()
        for pattern in self.lines:
            if not any(re.fullmatch(pattern, line) for line in got):
                return f"no output line matches {pattern!r}"
        return None


def _line(text: str) -> str:
    return re.escape(text)


def _failed(condition: str) -> str:
    return re.escape(f"{condition}: fail") + r"(  witness .*)?"


def _spec(group: str) -> str:
    return os.path.join(CORPUS, group + ".csp")


def corpus_processes():
    """(spec path, name) of every zero-parameter corpus definition."""
    from availcsp.parser import parse_spec

    out = []
    for group in GROUPS:
        path = _spec(group)
        with open(path, encoding="utf-8") as fh:
            env = parse_spec(fh.read())
        out.extend((path, name) for name, d in sorted(env.definitions.items())
                   if not d.params)
    return out


# --- congruence --------------------------------------------------------------


def _congruence(spec, name, model, length):
    return Job(("congruence", spec, name, "--model", model, "--len", str(length)), 0,
               "engines-agree", (_line(f"engines agree at {model} len={length}"),))


# The corpus processes whose denotational cost grows fastest with length:
# recursion through a choice (a fixpoint over growing sets) and parallel
# composition (trace merging).  At len 5 they make the engines' own work
# outweigh the fixed cost of a CLI call (argument and spec parsing), which
# most corpus jobs at len 4 spend as much time on as on the engines.  No
# job may take much more than a second: the machine's speed is measured
# around each job (worker.reference), and a long job outlasts that measure.
# So QUAD, whose n=F,k=2 cell takes over a second at len 5 and five at len 6,
# stays at len 4.
DEEP = (("group_ab", "PUMPCHOICE"), ("group_abc", "WEAVE"), ("group_abc", "MIXPAR"))
DEEP_LEN = 5


def congruence_jobs(rng: random.Random) -> list:
    jobs = [_congruence(spec, name, model, 4)
            for spec, name in corpus_processes() for model in PARAM_POINTS]
    jobs += [_congruence(_spec(group), name, model, DEEP_LEN)
             for group, name in DEEP for model in PARAM_POINTS]
    return jobs


# --- closure -----------------------------------------------------------------

# (file, model, len, condition it lacks or None for a complete set)
MUTANTS = (
    ("doa_n1k1_len2", "n=1,k=1", 2, None),
    ("doa_n2k1_len2", "n=2,k=1", 2, None),
    ("ext_n1k1_len2", "n=1,k=1", 2, None),
    ("twin_n1k2_len1", "n=1,k=2", 1, None),
    ("cut_prefix", "n=1,k=1", 2, "nonempty-prefix-closed"),
    ("cut_offer_event", "n=1,k=1", 1, "offer-implies-event"),
    ("cut_event_offer", "n=1,k=1", 2, "event-implies-offer"),
    ("cut_duplicate", "n=2,k=1", 2, "offer-remove-duplicate"),
    ("cut_subset", "n=1,k=2", 1, "offer-subset-closed"),
    ("cut_empty", "n=1,k=2", 1, "empty-offer-free"),
    ("cut_ext_prefix", "n=1,k=1", 2, "nonempty-prefix-closed"),
    ("cut_ext_event_offer", "n=1,k=1", 2, "event-implies-offer"),
)

# (spec group, seed file, model, len); every seed trace is shorter than len
REALIZE_SEEDS = (
    ("group_ab", "switch", "n=F,k=1", 3),
    ("group_ab", "sequence", "n=F,k=1", 3),
    ("group_ab", "split", "n=F,k=1", 2),
    ("group_ab", "empty", "n=F,k=1", 2),
    ("group_ab", "ladder", "n=2,k=1", 4),
    ("group_ab", "ladder", "n=F,k=1", 4),
    ("group_abc", "joint", "n=F,k=2", 4),
    ("group_abc", "joint", "n=2,k=2", 4),
)


# At len 4 one corpus job, QUAD at n=F,k=2 (5.6 s), is half of a pass and
# outlasts the measure of the machine's speed taken around it
# (worker.reference).  At len 3 a pass takes about 4 s and no job much
# more than 0.4 s.
CORPUS_HEALTH_LEN = 3


def _fan_cells():
    """FAN and FANLOOP cells.  k=2 cells with m + len >= 8 are left out:
    their cores explode (FAN4 at n=F, len 4 takes 4-6 s, FAN5 at len 3
    about 3 s), and one such job would be most of a pass."""
    for proc in ("FAN", "FANLOOP"):
        for m in (3, 4, 5):
            for n in ("2", "F"):
                for k in ("1", "2", "F"):
                    for length in (3, 4):
                        if k == "2" and m + length >= 8:
                            continue
                        yield f"{proc}{m}", f"n={n},k={k}", length


def closure_jobs(rng: random.Random) -> list:
    jobs = [
        Job(("health", FAMILY, name, "--model", model, "--len", str(length)), 0,
            "computed-healthy")
        for name, model, length in _fan_cells()
    ]
    jobs += [
        Job(("health", spec, name, "--model", model, "--len", str(CORPUS_HEALTH_LEN)), 0,
            "computed-healthy")
        for spec, name in corpus_processes()
        for model in PARAM_POINTS
    ]
    for fname, model, length, lacks in MUTANTS:
        path = os.path.join(DATA, "mutants", fname + ".tr")
        argv = ("health", _spec("group_ab"), "--traces-file", path,
                "--model", model, "--len", str(length))
        if lacks is None:
            jobs.append(Job(argv, 0, "explicit-healthy"))
        else:
            jobs.append(Job(argv, 1, "mutant", (_failed(lacks),)))
    for group, fname, model, length in REALIZE_SEEDS:
        path = os.path.join(DATA, "seeds", fname + ".tr")
        jobs.append(Job(
            ("realize", _spec(group), path, "--model", model, "--len", str(length),
             "--check"),
            0, "realize", (_line("# round trip: exact"),)))
    return jobs


# --- verify ------------------------------------------------------------------


def _compare(cmd, spec, left, right, model, length, code, law, witness=None, side=None):
    if witness is None:
        verdict = {"equiv": "equal", "refine": "refined"}[cmd]
    else:
        verdict = f"distinguished: {witness} only in {side}"
    return Job((cmd, spec, left, right, "--model", model, "--len", str(length)),
               code, law, (_line(f"[{model}] {verdict}"),))


def _grid(spec, left, right, length, rows: dict, law):
    """``rows`` maps each grid point to its verdict text."""
    code = 1 if any(v != "equal" for v in rows.values()) else 0
    return Job(("distinguish", spec, left, right, "--grid", GRID, "--len", str(length)),
               code, law, tuple(_line(f"[{p}] {rows[p]}") for p in GRID_POINTS))


def paper_jobs() -> list:
    ab, xyz, abcd = _spec("group_ab"), _spec("group_xyz"), _spec("group_abcd")
    fullset_rows = {
        "n=0,k=1": "equal", "n=0,k=2": "equal", "n=0,k=F": "equal",
        "n=1,k=1": "equal",
        "n=1,k=2": "distinguished: <offer{x,y}, z> only in left",
        "n=1,k=F": "distinguished: <offer{x,y,z}> only in left",
        "n=2,k=1": "distinguished: <offer{x}, offer{y}, z> only in left",
        "n=2,k=2": "distinguished: <offer{x}, offer{y,z}> only in left",
        "n=2,k=F": "distinguished: <offer{x,y,z}> only in left",
    }
    return [
        _compare("equiv", ab, "EXT", "INT", "n=F,k=1", 4, 1, "ext-int",
                 "<offer{a}, b>", "left"),
        _compare("equiv", ab, "EXT", "INT", "n=0,k=1", 4, 0, "n0-standard"),
        _compare("refine", ab, "EXT", "INT", "n=F,k=1", 4, 0, "int-refines-ext"),
        _compare("refine", ab, "INT", "EXT", "n=F,k=1", 4, 1, "ext-int",
                 "<offer{a}, b>", "right"),
        _compare("equiv", ab, "SWAYPAIR", "INT", "n=F,k=1", 5, 1, "sway",
                 "<offer{a}, b>", "left"),
        _compare("equiv", ab, "DOA", "MAYBE", "n=F,k=1", 5, 0, "doa-maybe"),
        _compare("equiv", ab, "STAIR2", "STAIR3", "n=2,k=1", 4, 1, "ladder",
                 "<offer{a}, offer{b}, a>", "right"),
        _compare("equiv", ab, "STAIR2", "STAIR3", "n=1,k=1", 4, 0, "ladder"),
        _compare("equiv", ab, "EXT", "CYCLE", "n=F,k=2", 4, 1, "joint-offer",
                 "<offer{a,b}>", "left"),
        _compare("equiv", ab, "EXT", "CYCLE", "n=F,k=1", 4, 0, "joint-offer"),
        _compare("equiv", xyz, "FULLSET", "PARTSET", "n=1,k=2", 3, 1, "fullset",
                 "<offer{x,y}, z>", "left"),
        _compare("equiv", xyz, "FULLSET", "PARTSET", "n=1,k=1", 3, 0, "fullset"),
        _grid(xyz, "FULLSET", "PARTSET", 3, fullset_rows, "fullset"),
        _grid(abcd, "FORK", "FUNNEL", 4, {p: "equal" for p in GRID_POINTS},
              "fork-funnel"),
        Job(("test", ab, "EXT", "--from-trace", "<offer{a}, b>"), 0, "ext-int"),
        Job(("test", ab, "INT", "--from-trace", "<offer{a}, b>"), 1, "ext-int",
            (_line("cannot pass: search exhausted"),)),
    ]


def _offer(events) -> str:
    return "offer{" + ",".join(sorted(events)) + "}"


def _set(events) -> str:
    return "{" + ", ".join(sorted(events)) + "}"


def _input_pair(events, echo: bool):
    body = "x -> STOP" if echo else "STOP"
    s = _set(events)
    return f"? x : {s} -> {body}", f"|~| x : {s} @ x -> {body}"


# (command, |S|, echo, model or None for the grid, len).  Each slot takes
# 0.1-0.4 s on a 2-core machine: the witness search's cliff lies just beyond
# (|S|=3 at n=F,k=2 takes 0.13 s at len 3 and 2.4 s at len 4, |S|=4 at len 4
# 114 s), and a job much longer than a second outlasts the measure of the
# machine's speed taken around it (worker.reference).
INPUT_SLOTS = (
    ("equiv", 3, False, "n=F,k=2", 3),
    ("equiv", 3, True, "n=F,k=2", 3),
    ("refine-int-ext", 3, False, "n=F,k=2", 3),
    ("refine-ext-int", 3, False, "n=F,k=2", 3),
    ("equiv", 5, False, "n=F,k=2", 2),
    ("equiv", 4, False, "n=2,k=2", 3),
    ("equiv", 4, False, "n=F,k=1", 4),
    ("equiv", 3, False, "n=F,k=F", 4),
    ("equiv", 4, False, "n=F,k=F", 3),
    ("grid", 3, True, None, 3),
    ("grid", 4, False, None, 4),
)


def _input_witness(events, model: str) -> str:
    """Minimal witness separating the input prefix from the internal
    choice, by hand: an offer of the two smallest events at k >= 2, else
    an offer of the smallest followed by the second smallest."""
    s0, s1 = sorted(events)[:2]
    if model.endswith("k=1"):
        return f"<{_offer([s0])}, {s1}>"
    return f"<{_offer([s0, s1])}>"


def input_jobs(rng: random.Random) -> list:
    jobs = []
    for cmd, size, echo, model, length in INPUT_SLOTS:
        events = rng.sample(EVENTS, size)
        ext, intc = _input_pair(events, echo)
        if cmd == "grid":
            rows = {p: "equal" if p.startswith("n=0") else
                    f"distinguished: {_input_witness(events, p)} only in left"
                    for p in GRID_POINTS}
            jobs.append(_grid(FAMILY, ext, intc, length, rows, "input-vs-choice"))
        elif cmd == "refine-ext-int":
            jobs.append(_compare("refine", FAMILY, ext, intc, model, length, 0,
                                 "int-refines-ext"))
        elif cmd == "refine-int-ext":
            jobs.append(_compare("refine", FAMILY, intc, ext, model, length, 1,
                                 "input-vs-choice", _input_witness(events, model),
                                 "right"))
        else:
            jobs.append(_compare(cmd, FAMILY, ext, intc, model, length, 1,
                                 "input-vs-choice", _input_witness(events, model),
                                 "left"))
    return jobs


def _law_terms(rng: random.Random):
    """P, Q and R: fixed shapes over a seed-drawn renaming of the alphabet,
    so every seed's instances cost the same."""
    p = rng.sample(EVENTS, len(EVENTS))
    return (
        f"{p[0]} -> ({p[1]} -> STOP [] {p[2]} -> STOP)",
        f"({p[3]} -> STOP) |~| (? x : {_set([p[1], p[4]])} -> x -> STOP)",
        f"({p[2]} -> {p[0]} -> STOP) [] ({p[4]} -> STOP)",
    )


LAW_MODELS = ("n=F,k=1", "n=F,k=2", "n=2,k=F")


def law_jobs(rng: random.Random, instances: int = 3) -> list:
    jobs = []
    for i in range(instances):
        model = LAW_MODELS[i % len(LAW_MODELS)]
        p, q, r = _law_terms(rng)
        pairs = {
            "ext-comm": (f"({p}) [] ({q})", f"({q}) [] ({p})"),
            "ext-assoc": (f"(({p}) [] ({q})) [] ({r})", f"({p}) [] (({q}) [] ({r}))"),
            "int-comm": (f"({p}) |~| ({q})", f"({q}) |~| ({p})"),
            "int-assoc": (f"(({p}) |~| ({q})) |~| ({r})", f"({p}) |~| (({q}) |~| ({r}))"),
            "int-idem": (f"({p}) |~| ({p})", p),
            "interleave-unit": (f"({p}) ||| STOP", p),
        }
        for law, (left, right) in pairs.items():
            jobs.append(_compare("equiv", FAMILY, left, right, model, 4, 0, law))
    return jobs


def testing_jobs(rng: random.Random) -> list:
    jobs = []
    for _ in range(2):
        s = rng.sample(EVENTS, 3)
        one, two = rng.sample(EVENTS, 2)
        cases = (
            (f"? x : {_set(s)} -> x -> STOP",
             f"<{_offer(s)}, {s[1]}, {_offer([s[1]])}, {s[1]}>"),
            (f"({one} -> STOP) [> ({two} -> STOP)", f"<{_offer([one])}, {two}>"),
            (f"({one} -> STOP) ||| ({two} -> STOP)",
             f"<{_offer([one, two])}, {one}, {_offer([two])}, {two}>"),
        )
        for term, trace in cases:
            jobs.append(Job(("test", FAMILY, term, "--from-trace", trace), 0,
                            "testing", (r"may pass: .*",)))
    return jobs


def simulate_jobs(rng: random.Random) -> list:
    exact = (_line("# round trip: exact"),)
    s = rng.sample(EVENTS, 3)
    one, two = rng.sample(EVENTS, 2)
    cases = (
        (FAMILY, f"? x : {_set(s)} -> x -> STOP", "n=F,k=2", 4),
        (FAMILY, f"({one} -> STOP) ||| ({two} -> STOP)", "n=F,k=2", 4),
        (_spec("group_ab"), "CYCLE", "n=F,k=2", 5),
        (_spec("group_ab"), "EXT", "n=F,k=1", 4),
    )
    return [
        Job(("simulate", spec, term, "--model", model, "--len", str(length), "--check"),
            0, "simulation", exact)
        for spec, term, model, length in cases
    ]


def traces_jobs() -> list:
    header = (r'\{"count": \d+, "engine": "operational", .*',)
    cases = (
        (_spec("group_abcd"), "QUAD", "n=F,k=2", 4),
        (_spec("group_ab"), "PUMPCHOICE", "n=F,k=1", 7),
        (FAMILY, "FAN5", "n=F,k=2", 3),
    )
    return [
        Job(("traces", spec, name, "--model", model, "--len", str(length), "--json"),
            0, "traces", header)
        for spec, name, model, length in cases
    ]


def verify_jobs(rng: random.Random) -> list:
    return (paper_jobs() + input_jobs(rng) + law_jobs(rng) + testing_jobs(rng)
            + simulate_jobs(rng) + traces_jobs())


BUILDERS = {
    "congruence": congruence_jobs,
    "closure": closure_jobs,
    "verify": verify_jobs,
}

# Spec files every job of a workload reads; set-up time parses all of them.
SPECS = {
    "congruence": tuple(_spec(g) for g in GROUPS),
    "closure": tuple(_spec(g) for g in GROUPS) + (FAMILY,),
    "verify": tuple(_spec(g) for g in GROUPS) + (FAMILY,),
}


def jobs_for(workload: str, seed: int) -> list:
    """The workload's job list: generated from the seed, then put in a
    seed-drawn order."""
    rng = random.Random(seed)
    jobs = BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs
