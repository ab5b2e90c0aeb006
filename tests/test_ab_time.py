"""scripts/ab_time.py counts calls exactly.

The script's self-test loads this tree and a copy whose scripted backend
passes every request through one more Python function into one process, and
expects their call counts per smoke pass to differ by exactly the number of
requests.  It times nothing.  About 2 s.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_time_self_test_counts_one_planted_call_per_request():
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", "ab_time.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test: passed" in proc.stdout
