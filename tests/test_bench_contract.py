"""The benchmark's own self-tests, run as part of the suite.

The benchmark's tracer binds layer functions by name at every module that
imports them, with no fallback, so a rename in ``src/`` can break the
benchmark without breaking anything else.  Running its self-tests here
makes such a rename fail the suite too.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
