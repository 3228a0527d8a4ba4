"""Self-tests for the benchmark itself (not part of the Tier-1 suite).

    python3 bench/selftest.py

Checks that a reduced job list of each workload matches its known answers,
that self-time arithmetic is right on a synthetic span tree, that
generators are timed while consumed, and that wrappers at name-bound import
sites are hit.
"""
from __future__ import annotations

import os
import random
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
os.chdir(ROOT)

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_job  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def reduced_jobs(workload: str) -> list:
    """A fast slice of each job list, built by the same builders."""
    rng = random.Random(7)
    if workload == "congruence":
        return [j for j in wl.congruence_jobs(rng)
                if "group_ab" in j.argv[1] and j.argv[-1] == "4"][:40]
    if workload == "closure":
        return [j for j in wl.closure_jobs(rng)
                if j.argv[0] == "realize" or "--traces-file" in j.argv
                or j.argv[2] == "FAN3"]
    return (wl.paper_jobs() + wl.law_jobs(rng, instances=1) + wl.testing_jobs(rng)
            + [j for j in wl.input_jobs(rng) if "n=F,k=2" not in j.argv])


class KnownAnswers(unittest.TestCase):
    def test_reduced_lists_match_known_answers(self):
        from availcsp import cli

        for workload in wl.WORKLOADS:
            jobs = reduced_jobs(workload)
            self.assertGreater(len(jobs), 10, workload)
            for job in jobs:
                code, out, _, crash = run_job(cli.main, job)
                self.assertIsNone(crash, job.key)
                self.assertIsNone(job.mismatch(code, out), job.key)
                self.assertIn(job.law, wl.LAWS, job.key)

    def test_mismatch_is_reported(self):
        job = wl.Job(("equiv",), 1, "ext-int", (wl._line("[n=F,k=1] equal"),))
        self.assertIsNotNone(job.mismatch(0, "[n=F,k=1] equal\n"))
        self.assertIsNotNone(job.mismatch(1, "[n=F,k=1] equal-within-bounds\n"))
        self.assertIsNone(job.mismatch(1, "x\n[n=F,k=1] equal\n"))

    def test_seed_orders_and_draws_but_keeps_sizes(self):
        a, b = wl.jobs_for("verify", 1), wl.jobs_for("verify", 2)
        self.assertEqual(len(a), len(b))
        self.assertNotEqual([j.key for j in a], [j.key for j in b])
        self.assertEqual([j.key for j in a], [j.key for j in wl.jobs_for("verify", 1)])
        self.assertEqual(len(wl.jobs_for("congruence", 1)), 276 + 18)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        clock = FakeClock()
        tr = Tracer(clock)
        tr.job = 3
        # root [0,10] holds A [1,4] (which holds A1 [2,3]) and B [5,9]
        root = tr.enter("main", keep=True)
        clock.now = 1
        a = tr.enter("avail_traces", keep=True)
        clock.now = 2
        a1 = tr.enter("steps")
        clock.now = 3
        tr.exit(a1)
        clock.now = 4
        tr.exit(a)
        clock.now = 5
        b = tr.enter("check_healthy", keep=True)
        clock.now = 9
        tr.exit(b)
        clock.now = 10
        tr.exit(root)
        self.assertEqual(tr.self_s["main"], 3)
        self.assertEqual(tr.self_s["avail_traces"], 2)
        self.assertEqual(tr.self_s["steps"], 1)
        self.assertEqual(tr.self_s["check_healthy"], 4)
        self.assertEqual(tr.total_s["main"], 10)
        names = [s[0] for s in tr.spans]
        self.assertEqual(names, ["main", "avail_traces", "check_healthy"])
        self.assertEqual([s[3] for s in tr.spans], [-1, 0, 0])
        self.assertEqual(tr.spans[1][1:3], [1, 4])
        self.assertTrue(all(s[4] == 3 for s in tr.spans))
        m = tr.metrics()
        self.assertEqual(m["cli.self_s"], 3)
        self.assertEqual(m["operational.self_s"], 3)
        self.assertEqual(m["healthiness.self_s"], 4)

    def test_recursion_counts_outermost_total_once(self):
        clock = FakeClock()
        tr = Tracer(clock)
        outer = tr.enter("steps")
        clock.now = 1
        inner = tr.enter("steps")
        clock.now = 3
        tr.exit(inner)
        clock.now = 5
        tr.exit(outer)
        self.assertEqual(tr.total_s["steps"], 5)
        self.assertEqual(tr.self_s["steps"], 5)
        self.assertEqual(tr.calls["steps"], 2)

    def test_generator_timed_while_consumed(self):
        clock = FakeClock()
        tr = Tracer(clock)

        def produce():
            for i in range(3):
                clock.now += 1
                yield i
            clock.now += 1

        wrapped = tr.wrap_generator(produce, "_covered_variants", "site")
        root = tr.enter("_minimal_witness")
        gen = wrapped()
        clock.now += 100          # creating the generator does no work
        for _ in gen:
            clock.now += 10       # the consumer's own work
        tr.exit(root)
        self.assertEqual(tr.self_s["_covered_variants"], 4)
        self.assertEqual(tr.self_s["_minimal_witness"], 130)
        self.assertEqual(tr.counts["_covered_variants.items"], 3)


class Wrappers(unittest.TestCase):
    def test_name_bound_sites_are_hit(self):
        from availcsp import cli, denotational, healthiness

        original = denotational.finalize
        tr = Tracer()
        tr.install()
        try:
            self.assertIsNot(denotational.finalize, original)
            job = wl._congruence(wl._spec("group_ab"), "PUMPCHOICE", "n=F,k=1", 3)
            code, out, _, crash = run_job(lambda argv: tr.run_root(cli.main, argv), job)
            self.assertIsNone(crash)
            self.assertIsNone(job.mismatch(code, out))
            job = wl._compare("equiv", wl._spec("group_ab"), "EXT", "INT", "n=F,k=1", 3,
                              1, "ext-int", "<offer{a}, b>", "left")
            code, out, _, crash = run_job(lambda argv: tr.run_root(cli.main, argv), job)
            self.assertIsNone(job.mismatch(code, out))
        finally:
            tr.uninstall()
        self.assertIs(denotational.finalize, original)
        self.assertIs(healthiness.finalize, original)
        for site in ("availcsp.denotational.finalize", "availcsp.cli.avail_traces",
                     "availcsp.cli.denote_traces", "availcsp.cli.covers_equal",
                     "availcsp.denotational.merge_traces",
                     "availcsp.healthiness.decompose", "availcsp.equivalence.decompose",
                     "availcsp.equivalence._covered_variants",
                     "availcsp.healthiness.TraceSet._member_normalized"):
            self.assertGreater(tr.site_hits[site], 0, site)
        m = tr.metrics()
        self.assertGreater(m["denotational.fixpoint_rounds"], 0)
        self.assertGreater(m["equivalence.witness_variants"], 0)
        self.assertGreater(m["equivalence.witness_hit_ratio"], 0)
        self.assertEqual(tr.calls["main"], 2)


class ReferenceUnits(unittest.TestCase):
    def test_each_pass_is_divided_by_the_reference_around_the_job(self):
        # two passes over three jobs; the second pass ran at half speed
        res = {"latencies": [[1.0, 2.0], [4.0, 8.0], [0.5, 1.0]],
               "refs": [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]}
        self.assertEqual(run.relative_latencies(res), [1.0, 4.0, 0.5])

    def test_local_reference_is_the_median_of_the_window(self):
        self.assertEqual(run.REF_WINDOW, 1)
        # job 1's window is refs 0..2, job 3's is refs 2..3
        res = {"latencies": [[6.0]] * 4, "refs": [[1.0, 3.0, 2.0, 6.0]]}
        self.assertEqual(run.relative_latencies(res), [3.0, 3.0, 2.0, 1.5])

    def test_median_over_passes(self):
        res = {"latencies": [[1.0, 9.0, 2.0]], "refs": [[1.0], [1.0], [1.0]]}
        self.assertEqual(run.relative_latencies(res), [2.0])


class Tail(unittest.TestCase):
    def test_tail_keeps_ten_jobs_beyond(self):
        pct, value = run.tail([float(i) for i in range(276)])
        self.assertEqual(pct, 96)
        self.assertEqual(sum(1 for i in range(276) if i > value), 11)
        pct, _ = run.tail([float(i) for i in range(55)])
        self.assertEqual(pct, 81)


if __name__ == "__main__":
    unittest.main()
