#!/usr/bin/env python3
"""stepsearch benchmark: end-to-end and per-layer figures of the search engine.

Runs one workload closed loop (one search at a time, one process) through the
package's public API for about --seconds seconds, in whole passes.  A pass is
a cold run_benchmark + write_report into an empty results dir, then warm
resume passes over the same dir, then the checks in checks.py.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the run alternates untraced and traced passes and reports the
per-layer ones, its tracing overhead included.

Usage:
    python3 perfbench/run.py --workload smoke|deep|http --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
"""
from __future__ import annotations

import argparse
import http.client
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from boundary import Boundary
from checks import WorldIndex, check_identical, check_runs, search_key, tree_bytes
from spans import Recorder, layer_figures, write_spans
from worlds import (
    CANONICAL_ANSWER, DEEP_DEPTHS, SMOKE_DATASET, SMOKE_WORLDS, answers_in, load_smoke,
    make_deep, to_scripted,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("smoke", "deep", "http")
SMOKE_METHODS = ("greedy", "independent", "beam", "beam+cca", "dvts", "srca")
DEEP_METHODS = ("srca", "beam+cca", "dvts")
SETUPS = 9          # set-ups per run; setup_s is their median
WARM_REPEATS = 9    # warm resume passes per pass; resume_s is their median
STUB_DELAY_MS = 1.0
# Search seeds per smoke and http pass.  How much work one search seed
# brings varies from seed to seed; two of them halve that variance.
SMOKE_SEEDS = 2
STUB_START_S = 30.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def require_checkout() -> None:
    needed = (os.path.join("src", "stepsearch", "__init__.py"), SMOKE_DATASET, SMOKE_WORLDS)
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise SystemExit(f"perfbench: not a stepsearch checkout, missing {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_package():
    """Import stepsearch from this checkout, executing its modules afresh."""
    for name in [n for n in sys.modules if n == "stepsearch" or n.startswith("stepsearch.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("stepsearch")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported stepsearch from {pkg.__file__}, not {SRC}")
    return pkg


def start_stub(delay_ms: float, nagle: bool = False):
    """Start stub.py over the smoke worlds; returns (process, url) once it answers."""
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "stub.py"),
        "--dataset", os.path.join(ROOT, SMOKE_DATASET),
        "--worlds", os.path.join(ROOT, SMOKE_WORLDS),
        "--delay-ms", repr(delay_ms),
    ] + (["--nagle"] if nagle else [])
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError(f"stub did not start (exit code {proc.poll()})")
        port = int(line.split()[1])
        deadline = time.monotonic() + STUB_START_S
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
            finally:
                conn.close()
    except BaseException:
        stop_stub(proc)
        raise
    return proc, f"http://127.0.0.1:{port}"


def stop_stub(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def handling_session():
    """A requests.Session that keeps the stub's reported handling time of
    the last response."""
    import requests

    class Session(requests.Session):
        last_handling_ms = 0.0
        posts = 0

        def post(self, *args, **kwargs):
            resp = super().post(*args, **kwargs)
            self.posts += 1
            self.last_handling_ms = float(resp.headers.get("X-Handling-Ms", "nan"))
            return resp

    return Session()


@dataclass
class Setup:
    pkg: object
    dataset: object
    cells: list
    generator: object
    reward: object
    worlds: dict | None = None  # world dicts by question id, where set-up made them
    stub: object = None
    session: object = None

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self.stub is not None:
            stop_stub(self.stub)


def set_up(workload: str, seed: int) -> Setup:
    """Import the package, load the dataset, make or parse the worlds, build
    the backends and, for http, start the stub and wait until it answers."""
    pkg = import_package()
    if workload == "deep":
        records, worlds = make_deep(seed)
        node_cls, world_cls = pkg.backends.ScriptedNode, pkg.ScriptedWorld
        backend = pkg.ScriptedBackend({
            r["question"]: to_scripted(worlds[r["id"]], node_cls, world_cls) for r in records
        })
        dataset = pkg.Dataset("deep", tuple(
            pkg.Question(r["id"], r["question"], r["answer"]) for r in records
        ))
        base = pkg.SearchConfig(n=8, m=2, max_steps=max(DEEP_DEPTHS), seed=seed)
        cells = pkg.build_cells(base, list(DEEP_METHODS))
        return Setup(pkg, dataset, cells, backend, backend, worlds)
    dataset = pkg.load_dataset(os.path.join(ROOT, SMOKE_DATASET))
    cells = []
    for search_seed in range(SMOKE_SEEDS * seed, SMOKE_SEEDS * (seed + 1)):
        base = pkg.SearchConfig(n=4, m=2, max_steps=8, seed=search_seed)
        cells += pkg.build_cells(base, list(SMOKE_METHODS))
    if workload == "smoke":
        backend, worlds = scripted_smoke(pkg, dataset)
        return Setup(pkg, dataset, cells, backend, backend, worlds)
    stub, url = start_stub(STUB_DELAY_MS)
    session = handling_session()
    return Setup(
        pkg, dataset, cells,
        pkg.HttpGenerator(url, session=session), pkg.HttpReward(url, session=session),
        stub=stub, session=session,
    )


def scripted_smoke(pkg, dataset):
    """(in-process backend, world dicts by id) over the smoke worlds."""
    with open(os.path.join(ROOT, SMOKE_WORLDS), encoding="utf-8") as fh:
        specs = json.load(fh)["worlds"]
    backend = pkg.ScriptedBackend({q.text: pkg.parse_world(specs[q.id]) for q in dataset.questions})
    return backend, {q.id: specs[q.id] for q in dataset.questions}


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def time_searches(pkg, boundary: Boundary, durations: list[float]) -> None:
    """Replace harness.run_search with a wrapper that tells the boundary
    which search is running and records the search's wall time.  The wrapper
    looks strategies.run_search up on every call, so tracing can wrap it."""
    harness, strategies = pkg.harness, pkg.strategies

    def run_search(question, cfg, generator, reward):
        key = search_key(cfg.to_json_dict(), question.id)
        boundary.begin(key)
        if boundary.recorder is not None:
            # The run file's path below the results dir, without the method.
            boundary.recorder.search = f"{harness.config_hash(cfg)}/{question.id}"
        start = time.perf_counter()
        try:
            return strategies.run_search(question, cfg, generator, reward)
        finally:
            durations.append(time.perf_counter() - start)
            if boundary.recorder is not None:
                boundary.recorder.search = None

    harness.run_search = run_search


def traced_functions(pkg) -> list[tuple[str, object]]:
    """(span name, function) for each public function the traced run wraps."""
    core, decision, harness = pkg.core, pkg.decision, pkg.harness
    return [
        ("strategies.run_search", pkg.strategies.run_search),
        ("core.normalize", core.normalize_answer),
        ("core.split", core.split_into_steps),
        ("decision.select", decision.select_bon),
        ("decision.select", decision.select_weighted_bon),
        ("decision.select", decision.select_majority),
        ("harness.run_benchmark", harness.run_benchmark),
        ("harness.metrics", harness.compute_metrics),
        ("harness.report", harness.write_report),
    ]


def instrument(pkg, recorder: Recorder):
    """Wrap every traced function under each name any package module binds
    it to; returns a function that undoes it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "stepsearch" or name.startswith("stepsearch."))]
    undo = []
    for span_name, fn in traced_functions(pkg):
        wrapped = recorder.wrap(span_name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, fn))

    def restore():
        for module, attr, fn in undo:
            setattr(module, attr, fn)

    return restore


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, f)) for base, _, files in os.walk(root) for f in files
    )


def reports(results_dir: str) -> dict[str, bytes]:
    out = {}
    for name in ("report.csv", "report.md"):
        with open(os.path.join(results_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Bench:
    """One workload's runner: set-up state, the boundary and the passes."""

    def __init__(self, setup: Setup, worlds: dict, run_dir: str, reference: dict | None):
        self.setup = setup
        self.pkg = setup.pkg
        self.indexes = {qid: WorldIndex(w) for qid, w in worlds.items()}
        self.run_dir = run_dir
        self.reference = reference
        handling = None
        if setup.session is not None:
            handling = lambda: setup.session.last_handling_ms  # noqa: E731
        self.boundary = Boundary(setup.generator, setup.reward, handling)
        self.durations: list[float] = []
        time_searches(self.pkg, self.boundary, self.durations)
        self.errors: list[tuple[str, str]] = []
        self.attempted = 0
        self.failed = 0
        self.last_spans: list[list] = []  # the last traced pass's, cold then warm
        self.passes = 0

    def benchmark(self, results_dir: str):
        harness = self.pkg.harness
        report = harness.run_benchmark(
            self.setup.cells, self.setup.dataset, self.boundary, self.boundary, results_dir
        )
        harness.write_report(report, results_dir)
        return report

    def one_pass(self, recorder: Recorder | None) -> dict:
        """A cold pass, WARM_REPEATS warm resume passes and the checks."""
        # A fresh dir per pass, all deleted when the run ends, so that no
        # file deletion (which online discard can make slow) runs between
        # the timed parts.
        results_dir = os.path.join(self.run_dir, f"pass-{self.passes}")
        self.passes += 1
        os.makedirs(results_dir)
        boundary = self.boundary
        boundary.reset()
        boundary.recorder = recorder
        self.durations.clear()
        posts_before = self.setup.session.posts if self.setup.session is not None else 0
        restore = instrument(self.pkg, recorder) if recorder is not None else None
        try:
            start = time.perf_counter()
            report = self.benchmark(results_dir)
            cold_s = time.perf_counter() - start
            cold_spans = recorder.spans if recorder is not None else []
            figures = {
                "cold_s": cold_s,
                "searches": len(self.durations),
                "search_s": list(self.durations),
                "backend_requests": boundary.requests(),
                "critical_round_trips": boundary.critical_round_trips(),
            }
            layers = {
                "backends.score.steps": boundary.score_steps_sent,
                "backends.request_bytes": boundary.request_bytes,
                "backends.repeat_requests": sum(boundary.repeats.values()),
                "backends.http.overhead_ms_p50": (
                    statistics.median(boundary.overheads_ms) if boundary.overheads_ms else None
                ),
            }
            seen = boundary.counts()
            posts = (self.setup.session.posts - posts_before) if self.setup.session is not None else None
            self.attempted += figures["searches"]
            self.failed += sum(row["failed"] for row in report.rows)
            figures["results_bytes"] = dir_bytes(results_dir)
            cold_reports = reports(results_dir)
            warm = []
            boundary.reset()
            for _ in range(WARM_REPEATS):
                if recorder is not None:
                    recorder.clear()
                start = time.perf_counter()
                self.benchmark(results_dir)
                warm.append(time.perf_counter() - start)
            figures["resume_s"] = statistics.median(warm)
            # Read before the checks run, so the figure is the program's.
            figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            warm_spans = recorder.spans if recorder is not None else []
        finally:
            if restore is not None:
                restore()
            boundary.recorder = None
        errors, totals = check_runs(results_dir, self.indexes, seen)
        if posts is not None and posts != figures["backend_requests"]:
            errors.append(("counters", f"{posts} HTTP posts for {figures['backend_requests']} backend calls"))
        if boundary.requests():
            errors.append(("resume", f"warm passes made {boundary.requests()} backend calls"))
        errors += check_identical(reports(results_dir), cold_reports, "resume", "warm pass reports")
        if self.reference is not None:
            errors += check_identical(tree_bytes(results_dir), self.reference, "identity",
                                      "http results against the in-process run")
        if totals["runs"] != figures["searches"]:
            errors.append(("counters", f"{totals['runs']} run files for {figures['searches']} searches"))
        self.errors += errors
        if recorder is not None:
            layers.update(layer_figures(cold_spans, warm_spans))
            layers["strategies.rounds"] = totals["rounds"]
            layers["strategies.candidates"] = totals["candidates"]
            figures["layers"] = layers
            self.last_spans = cold_spans + warm_spans
            recorder.clear()
        return figures


def reference_tree(pkg, setup: Setup, run_dir: str) -> dict[str, bytes]:
    """Files of an in-process scripted run of the http cells."""
    backend, _ = scripted_smoke(pkg, setup.dataset)
    ref_dir = os.path.join(run_dir, "reference")
    report = pkg.harness.run_benchmark(setup.cells, setup.dataset, backend, backend, ref_dir)
    pkg.harness.write_report(report, ref_dir)
    return tree_bytes(ref_dir)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(passes: list[dict], setup_times: list[float]) -> dict[str, float]:
    median = statistics.median
    return {
        "setup_s": median(setup_times),
        "runs_per_s": median(p["searches"] / p["cold_s"] for p in passes),
        "run_ms_p50": median(s for p in passes for s in p["search_s"]) * 1000.0,
        "resume_s": median(p["resume_s"] for p in passes),
        "backend_requests": median(p["backend_requests"] for p in passes),
        "critical_round_trips": median(p["critical_round_trips"] for p in passes),
        "results_bytes": median(p["results_bytes"] for p in passes),
        # Later passes add allocator fragmentation and the checks' own
        # allocations; the first pass gives the program's peak.
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    median = statistics.median
    rows = [p["layers"] for p in traced]
    out = {name: median(row[name] for row in rows) for name in rows[0]}
    cold_traced = median(p["cold_s"] for p in traced)
    cold_plain = median(p["cold_s"] for p in untraced)
    out["trace.overhead_pct"] = (cold_traced / cold_plain - 1.0) * 100.0
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_worlds(worlds: dict) -> list[tuple[str, str]]:
    """The answer check compares answers as text; that holds only for worlds
    whose answers are already canonical."""
    return [
        ("answer", f"world {qid}: answer {a!r} is not in canonical form")
        for qid, world in worlds.items()
        for a in sorted(answers_in(world))
        if not CANONICAL_ANSWER.fullmatch(a)
    ]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    run_dir = os.path.join(OUT, f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setup = None
    try:
        setup_times = []
        for _ in range(SETUPS):
            if setup is not None:
                setup.close()
            start = time.perf_counter()
            setup = set_up(workload, seed)
            setup_times.append(time.perf_counter() - start)
        worlds = setup.worlds if setup.worlds is not None else load_smoke(ROOT)[1]
        reference = reference_tree(setup.pkg, setup, run_dir) if workload == "http" else None
        bench = Bench(setup, worlds, run_dir, reference)
        bench.errors += check_worlds(worlds)
        recorder = Recorder() if trace else None
        plain, traced = [], []
        started = time.monotonic()
        while True:
            pass_start = time.monotonic()
            use = recorder if trace and len(plain) > len(traced) else None
            (traced if use is not None else plain).append(bench.one_pass(use))
            last = time.monotonic() - pass_start
            enough = not trace or (plain and traced)
            if enough and time.monotonic() - started + last > seconds:
                break
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace:
        metrics = per_layer(traced, plain)
        write_spans(os.path.join(OUT, f"spans-{workload}.jsonl"), bench.last_spans)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(plain, setup_times)
        wanted = spec["end_to_end"]
    for check, message in bench.errors[:20]:
        print(f"CHECK FAILED [{check}] {message}", file=sys.stderr)
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant a fault for each check and confirm the check fails")
    args = parser.parse_args(argv)
    require_checkout()
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
