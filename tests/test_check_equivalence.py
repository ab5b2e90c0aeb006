"""scripts/check_equivalence.py still reports a planted fault.

The script compares every search of a grid, request for request, between two
trees; its self-test plants a cache fault in a copy of src/ and expects a
small grid to show it.  About 3 s.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_check_equivalence_self_test_reports_the_planted_fault():
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", "check_equivalence.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test: passed" in proc.stdout
