#!/usr/bin/env python3
"""Run Tier-1 and the smoke demo under every installed Python >= 3.10.

Interpreters are found under pyenv's versions directory and on PATH, and
told apart by the real path of their executable.  The test dependencies are
pure Python, so each interpreter borrows the running interpreter's
installed copies: a scratch directory of symlinks to the top-level modules
of pytest, hypothesis, requests and everything they require (read with
importlib.metadata) goes on PYTHONPATH after src/.

For each interpreter the script reports
  * tier1: the pytest summary line, or "skipped" with the reason when pytest
    cannot start there (a dependency the running interpreter lacks, such as
    exceptiongroup for 3.10); a skipped suite never counts as passed;
  * normalization: the summary line of scripts/check_normalization.py, which
    needs only the standard library and so runs where tier1 is skipped;
  * demo: whether scripts/run_scripted_demo.py wrote the same files, byte
    for byte, as it does under the running interpreter.

Exits 1 when a suite fails, a normalization literal mismatches, or a demo
differs or fails, else 0.

Usage:
    python scripts/check_interpreters.py
"""
from __future__ import annotations

import glob
import importlib.metadata as metadata
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEMO = os.path.join(ROOT, "scripts", "run_scripted_demo.py")
NORMALIZATION = os.path.join(ROOT, "scripts", "check_normalization.py")
# The test extras and the runtime dependency in pyproject.toml.
ROOT_DISTRIBUTIONS = ("pytest", "hypothesis", "requests")
MIN_VERSION = (3, 10)
PROBE = "import os, sys; print(*sys.version_info[:3]); print(os.path.realpath(sys.executable))"


def candidate_executables() -> list[str]:
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    found = sorted(glob.glob(os.path.join(pyenv, "versions", "*", "bin", "python3")))
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isdir(folder):
            found += sorted(
                os.path.join(folder, name) for name in os.listdir(folder)
                if re.fullmatch(r"python3(\.\d+)?", name)
            )
    return found


def interpreters() -> list[tuple[tuple[int, ...], str]]:
    """(version, real executable) of each distinct interpreter >= 3.10,
    the running one first."""
    seen = {os.path.realpath(sys.executable)}
    out = [(tuple(sys.version_info[:3]), os.path.realpath(sys.executable))]
    for exe in candidate_executables():
        try:
            probe = subprocess.run(
                [exe, "-c", PROBE], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        lines = probe.stdout.split("\n")
        if probe.returncode != 0 or len(lines) < 2:
            continue  # e.g. a pyenv shim for a version that is not selected
        version, real = tuple(map(int, lines[0].split())), lines[1]
        if version >= MIN_VERSION and real not in seen:
            seen.add(real)
            out.append((version, real))
    return out


def requirement_closure() -> tuple[list[metadata.Distribution], list[str]]:
    """Installed distributions the root ones need, and the names needed but
    not installed here.  Requirements behind an extra are left out; other
    markers are not evaluated, since the target interpreter is not this one."""
    todo, done, dists, missing = list(ROOT_DISTRIBUTIONS), set(), [], []
    while todo:
        name = re.sub(r"[-_.]+", "-", todo.pop()).lower()
        if name in done:
            continue
        done.add(name)
        try:
            dist = metadata.distribution(name)
        except metadata.PackageNotFoundError:
            missing.append(name)
            continue
        dists.append(dist)
        for req in dist.requires or []:
            if not re.search(r"\bextra\s*==", req):
                todo.append(re.match(r"[A-Za-z0-9._-]+", req).group(0))
    return dists, sorted(missing)


def link_distributions(dists: list[metadata.Distribution], into: str) -> None:
    """Symlink every top-level module or package of dists into a directory."""
    for dist in dists:
        for path in dist.files or []:
            top = path.parts[0]
            if top in ("..", "__pycache__") or top.endswith((".dist-info", ".pth")):
                continue
            target = os.path.join(into, top)
            if not os.path.lexists(target):
                os.symlink(str(dist.locate_file(top)), target)


def run_tier1(exe: str, env: dict) -> tuple[str, str]:
    """("passed" | "failed" | "skipped", detail)."""
    start = subprocess.run([exe, "-c", "import pytest, hypothesis"], cwd=ROOT, env=env,
                           capture_output=True, text=True)
    if start.returncode != 0:
        lines = start.stderr.strip().splitlines() or ["pytest cannot start"]
        return "skipped", lines[-1]
    proc = subprocess.run(
        [exe, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    return ("passed" if proc.returncode == 0 else "failed"), lines[-1]


def run_normalization(exe: str, env: dict) -> tuple[bool, str]:
    """(passed, summary line) of the normalization check."""
    proc = subprocess.run([exe, NORMALIZATION], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    return proc.returncode == 0, lines[-1]


def run_demo(exe: str, env: dict, results_dir: str) -> str | None:
    """None when the demo ran, else the error text."""
    proc = subprocess.run([exe, DEMO, "--results-dir", results_dir], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return lines[-1]
    return None


def read_tree(root: str) -> dict[str, bytes]:
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def compare(reference: dict[str, bytes], got: dict[str, bytes]) -> str:
    differing = sorted(
        name for name in set(reference) | set(got) if reference.get(name) != got.get(name)
    )
    if not differing:
        return f"identical ({len(got)} files)"
    return f"DIFFERS in {len(differing)} files, first {differing[0]}"


def main() -> int:
    found = interpreters()
    dists, missing = requirement_closure()
    scratch = tempfile.mkdtemp(prefix="check-interpreters-")
    try:
        links = os.path.join(scratch, "site")
        os.mkdir(links)
        link_distributions(dists, links)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), links])
        env.pop("PYTHONHOME", None)
        print(f"borrowed from {sys.executable}: "
              + ", ".join(sorted(f"{d.metadata['Name']} {d.version}" for d in dists)))
        if missing:
            print("required but not installed here: " + ", ".join(missing))
        failures = 0
        reference: dict[str, bytes] = {}
        for i, (version, exe) in enumerate(found):
            label = ".".join(map(str, version))
            status, detail = run_tier1(exe, env)
            normalized, summary = run_normalization(exe, env)
            out = os.path.join(scratch, f"demo-{i}")
            error = run_demo(exe, env, out)
            if error is not None:
                demo = f"FAILED: {error}"
            elif i == 0:
                reference = read_tree(out)
                demo = f"reference ({len(reference)} files)"
            else:
                demo = compare(reference, read_tree(out))
            failures += (status == "failed" or not normalized
                         or demo.startswith(("FAILED", "DIFFERS")))
            print(f"{label:>8}  {exe}\n          tier1: {status}: {detail}"
                  f"\n          normalization: {summary}\n          demo:  {demo}")
        return 1 if failures else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
