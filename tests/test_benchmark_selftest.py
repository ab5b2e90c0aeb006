"""The benchmark's planted-fault self-test still passes against this package.

perfbench builds scripted worlds from the package's own classes (shared
ScriptedNode DAGs) and wraps the package's module-level functions, so a
change to either can silently blind it.  Its self-test plants one fault per
correctness check and expects each to be caught.  Slow: about 20 s.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_test_exits_zero():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
