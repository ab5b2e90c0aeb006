#!/usr/bin/env python3
"""Time this tree's searches against another revision's, in one process.

Extracts REV with `git archive REV | tar -x` into a temporary directory and
loads both trees' stepsearch packages into this process under distinct names
(the package imports itself relatively).  Each tree gets the same inputs, read
only from the smoke fixtures and perfbench/worlds.py, and one in-process
ScriptedBackend of its own:
  * smoke: the 20-question suite under the benchmark's six methods, search
    seeds 2*SEED and 2*SEED+1, n=4, m=2, max_steps=8 (240 searches);
  * deep: the benchmark's deep worlds of SEED under srca, beam+cca and dvts,
    n=8, m=2 (12 searches).
A pass runs every search once through run_search, one request at a time
(OVERLAP_WAIT_S is set past any wait in both trees).  After one warm pass per
tree the script measures, per tree:
  * calls: the Python and builtin function calls of one pass, summed over
    cProfile's per-code-object entries; exact run to run;
  * requests: the backend requests of that pass;
  * the tracemalloc peak of one pass;
and then times ROUNDS rounds.  In a round each tree runs PASSES_PER_ROUND
passes, the two trees alternating and taking turns to go first from round to
round, and keeps its fastest wall time and process CPU time: the machine's
other load only ever slows a pass.  It prints the median and quartiles of the
per-round ratios of this tree's times to REV's.  It is a measuring aid, not a
gate: timings on a shared machine move with its load.

Usage:
    python scripts/ab_time.py REV [--workload smoke|deep] [--rounds N]
    python scripts/ab_time.py --self-test

--self-test compares this tree with a copy whose scripted backend passes
every request through one more Python function, and checks that the call
counts differ by exactly the number of requests (counts only, no timing).
Exits 0 on success, else 1.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import worlds  # noqa: E402  (perfbench/worlds.py, read only)

SMOKE_METHODS = ("greedy", "independent", "beam", "beam+cca", "dvts", "srca")
DEEP_METHODS = ("srca", "beam+cca", "dvts")
REQUEST_METHODS = ("sample_continuations", "force_checkpoint_answer", "score_steps")
PASSES_PER_ROUND = 5
# The workload seed of every run.
SEED = 1

# The self-test's plant, appended to a copy of backends.py: each request
# method of ScriptedBackend gains one Python frame.
PLANT = '''

def _planted(inner):
    def planted(self, *args):
        return inner(self, *args)
    return planted


for _name in ("sample_continuations", "force_checkpoint_answer", "score_steps"):
    setattr(ScriptedBackend, _name, _planted(getattr(ScriptedBackend, _name)))
'''


def load_tree(src: str, name: str):
    """Import the stepsearch package under src as a package called name."""
    path = os.path.join(src, "stepsearch")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def searches(pkg, workload: str):
    """(backend, [(question, cfg), ...]) of one workload for one tree."""
    if workload == "deep":
        records, deep_worlds = worlds.make_deep(SEED)
        backend = pkg.ScriptedBackend({
            r["question"]: worlds.to_scripted(
                deep_worlds[r["id"]], pkg.backends.ScriptedNode, pkg.ScriptedWorld)
            for r in records
        })
        questions = [pkg.Question(r["id"], r["question"], r["answer"]) for r in records]
        base = pkg.SearchConfig(n=8, m=2, max_steps=max(worlds.DEEP_DEPTHS), seed=SEED)
        cfgs = [pkg.parse_method_label(m, base) for m in DEEP_METHODS]
    else:
        records, specs = worlds.load_smoke(ROOT)
        backend = pkg.ScriptedBackend({r["question"]: pkg.parse_world(specs[r["id"]])
                                       for r in records})
        questions = [pkg.Question(r["id"], r["question"], r["answer"]) for r in records]
        cfgs = [
            pkg.parse_method_label(m, pkg.SearchConfig(n=4, m=2, max_steps=8, seed=s))
            for s in (2 * SEED, 2 * SEED + 1) for m in SMOKE_METHODS
        ]
    return backend, [(q, cfg) for cfg in cfgs for q in questions]


class Tree:
    """One loaded tree with its backend and searches."""

    def __init__(self, label: str, src: str, name: str, workload: str):
        self.label = label
        self.pkg = load_tree(src, name)
        # Past any wait, so no search overlaps its requests: a request that
        # waits for a CPU reads as I/O, and requests sent from a pool's
        # threads escape the profiler, which follows one thread.
        self.pkg.strategies.OVERLAP_WAIT_S = float("inf")
        self.backend, self.searches = searches(self.pkg, workload)

    def one_pass(self) -> None:
        run_search, backend = self.pkg.run_search, self.backend
        for question, cfg in self.searches:
            run_search(question, cfg, backend, backend)

    def counts(self) -> tuple[int, int]:
        """(Python calls, backend requests) of one pass.  Calls are summed over
        the profiler's entries, one per code object: pstats keys entries by
        (file, line, name) and merges those that share one, such as every
        dataclass's generated __init__."""
        profile = cProfile.Profile()
        profile.runcall(self.one_pass)
        entries = profile.getstats()
        backends_py = os.path.join(os.path.dirname(self.pkg.__file__), "backends.py")
        requests = sum(
            e.callcount for e in entries
            if not isinstance(e.code, str) and e.code.co_filename == backends_py
            and e.code.co_name in REQUEST_METHODS
        )
        return sum(e.callcount for e in entries), requests

    def peak_mb(self) -> float:
        gc.collect()
        tracemalloc.start()
        try:
            self.one_pass()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def timed(self) -> tuple[float, float]:
        gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        self.one_pass()
        return time.perf_counter() - wall, time.process_time() - cpu


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def measure(base: Tree, other: Tree, rounds: int) -> dict:
    """Counts, peaks and timed rounds of two trees; base first in round 0."""
    out: dict = {"trees": {}}
    for tree in (base, other):
        tree.one_pass()  # warm: caches, interned strings, the backend's generations
        calls, requests = tree.counts()
        out["trees"][tree.label] = {"calls": calls, "requests": requests,
                                    "tracemalloc_peak_mb": round(tree.peak_mb(), 3)}
    walls, cpus = [], []
    for r in range(rounds):
        order = (base, other) if r % 2 == 0 else (other, base)
        times = {tree.label: [] for tree in order}
        for _ in range(PASSES_PER_ROUND):
            for tree in order:
                times[tree.label].append(tree.timed())
        # The fastest wall time and the least CPU time of each tree's passes.
        (bw, bc), (ow, oc) = (map(min, zip(*times[t.label])) for t in (base, other))
        walls.append(ow / bw)
        cpus.append(oc / bc)
        out["trees"][base.label].setdefault("wall_s", []).append(round(bw, 5))
        out["trees"][other.label].setdefault("wall_s", []).append(round(ow, 5))
    if rounds:
        out["time_ratio"] = [round(v, 4) for v in quartiles(walls)]
        out["cpu_ratio"] = [round(v, 4) for v in quartiles(cpus)]
    return out


def summary(result: dict, base: str, other: str, workload: str, rounds: int) -> str:
    a, b = result["trees"][base], result["trees"][other]
    lines = [
        f"{workload}: calls per pass {a['calls']} ({base}) -> {b['calls']} ({other}), "
        f"{b['calls'] - a['calls']:+d} for {b['requests']} requests "
        f"({a['requests']} at {base})",
        f"tracemalloc peak {a['tracemalloc_peak_mb']:.2f} -> {b['tracemalloc_peak_mb']:.2f} MB",
    ]
    if rounds:
        m, q1, q3 = result["time_ratio"]
        cm, cq1, cq3 = result["cpu_ratio"]
        lines.append(f"time ratio {other}/{base}: median {m:.4f} (quartiles {q1:.4f}-{q3:.4f}); "
                     f"CPU ratio median {cm:.4f} ({cq1:.4f}-{cq3:.4f}); {rounds} rounds")
    return "\n".join(lines)


def extract(rev: str, workdir: str) -> str:
    tree = os.path.join(workdir, "rev")
    os.makedirs(tree)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return os.path.join(tree, "src")


def compare_revision(rev: str, workload: str, rounds: int) -> int:
    with tempfile.TemporaryDirectory(prefix="ab-time-") as workdir:
        base = Tree(rev, extract(rev, workdir), "_ab_rev", workload)
        other = Tree("tree", os.path.join(ROOT, "src"), "_ab_tree", workload)
        result = measure(base, other, rounds)
    result.update(rev=rev, workload=workload, rounds=rounds)
    print(summary(result, rev, "tree", workload, rounds))
    print(json.dumps(result, sort_keys=True))
    return 0


def self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="ab-time-") as workdir:
        planted = os.path.join(workdir, "src")
        shutil.copytree(os.path.join(ROOT, "src"), planted,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(planted, "stepsearch", "backends.py"), "a",
                  encoding="utf-8") as fh:
            fh.write(PLANT)
        base = Tree("tree", os.path.join(ROOT, "src"), "_ab_tree", "smoke")
        other = Tree("planted", planted, "_ab_planted", "smoke")
        base.one_pass()
        other.one_pass()
        (calls, requests), (planted_calls, planted_requests) = base.counts(), other.counts()
    print(f"self-test: {calls} calls for {requests} requests; planted "
          f"{planted_calls} calls for {planted_requests} requests")
    if requests == 0 or planted_requests != requests:
        print("self-test: the two trees sent different requests")
        return 1
    if planted_calls - calls != requests:
        print(f"self-test: expected {requests} more calls, got {planted_calls - calls}")
        return 1
    print("self-test: passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="the revision to compare this tree with")
    parser.add_argument("--workload", choices=("smoke", "deep"), default="smoke")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds (default 20)")
    parser.add_argument("--self-test", action="store_true",
                        help="check that a planted extra call per request is counted exactly")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.rev is None:
        parser.error("give a revision or --self-test")
    return compare_revision(args.rev, args.workload, args.rounds)


if __name__ == "__main__":
    sys.exit(main())
