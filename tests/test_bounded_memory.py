"""What a benchmark run keeps loaded: about one finished search per worker,
and the HTTP stack only once an HTTP client is built."""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import weakref

import pytest

from stepsearch import Dataset, SearchConfig, build_cells, harness, run_benchmark, strategies

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUESTIONS = 12


def _alive_at_search_start(smoke_suite, tmp_path, monkeypatch, workers, slow_first=False):
    """For each search of a 12-question srca cell, the number of results that
    earlier searches returned and that are still alive when it starts.

    With slow_first, the first question's search waits until every other
    search has finished, so its result is the last to complete."""
    dataset, backend = smoke_suite
    small = Dataset(dataset.name, dataset.questions[:QUESTIONS])
    first = small.questions[0].id
    returned: list[weakref.ref] = []
    counts: list[int] = []
    others_left = [QUESTIONS - 1]
    others_done = threading.Event()
    lock = threading.Lock()

    def run_search(question, cfg, generator, reward):
        with lock:
            counts.append(sum(ref() is not None for ref in returned))
        if slow_first and question.id == first:
            assert others_done.wait(timeout=60), "the other searches did not finish"
        result = strategies.run_search(question, cfg, generator, reward)
        with lock:
            returned.append(weakref.ref(result))
            if question.id != first:
                others_left[0] -= 1
                if not others_left[0]:
                    others_done.set()
        return result

    monkeypatch.setattr(harness, "run_search", run_search)
    cells = build_cells(SearchConfig(n=4, m=2, max_steps=8, seed=0), ["srca"])
    report = run_benchmark(cells, small, backend, backend, str(tmp_path), workers=workers)
    assert report.rows[0]["questions"] == QUESTIONS
    assert len(counts) == QUESTIONS
    return counts


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_holds_about_one_finished_search_per_worker(
    smoke_suite, tmp_path, monkeypatch, workers
):
    counts = _alive_at_search_start(smoke_suite, tmp_path, monkeypatch, workers)
    assert max(counts) <= workers + 1, counts


def test_a_slow_first_search_does_not_hold_back_the_others(smoke_suite, tmp_path, monkeypatch):
    counts = _alive_at_search_start(smoke_suite, tmp_path, monkeypatch, 2, slow_first=True)
    assert max(counts) <= 3, counts


# Runs a scripted benchmark, writes its reports and inspects one run file,
# then prints whether requests was imported; with a client name as its
# argument it then builds that client and prints the same again.
_IN_PROCESS_RUN = textwrap.dedent("""
    import contextlib, io, json, os, sys, tempfile
    from stepsearch import (
        Dataset, ScriptedBackend, SearchConfig, build_cells, load_dataset, parse_world,
        run_benchmark, write_report,
    )
    from stepsearch import backends, cli

    fixtures = os.path.join(sys.argv[1], "fixtures")
    dataset = load_dataset(os.path.join(fixtures, "smoke.jsonl"))
    dataset = Dataset(dataset.name, dataset.questions[:3])
    with open(os.path.join(fixtures, "smoke_worlds.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["worlds"]
    backend = ScriptedBackend({q.text: parse_world(specs[q.id]) for q in dataset.questions})
    cells = build_cells(SearchConfig(n=4, m=2, max_steps=8, seed=0), ["srca", "beam"])
    with tempfile.TemporaryDirectory() as results:
        write_report(run_benchmark(cells, dataset, backend, backend, results), results)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["inspect", "--results-dir", results, "--dataset", dataset.name,
                             "--method", "srca", "--question", dataset.questions[0].id])
        assert code == 0
    print("requests" in sys.modules)
    if len(sys.argv) > 2:
        getattr(backends, sys.argv[2])("http://127.0.0.1:9")
        print("requests" in sys.modules)
""")


def _run_in_process(*client: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _IN_PROCESS_RUN, ROOT, *client],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_in_process_runs_do_not_load_requests():
    assert _run_in_process() == ["False"]


@pytest.mark.parametrize("client", ["HttpGenerator", "HttpReward"])
def test_building_an_http_client_loads_requests(client):
    assert _run_in_process(client) == ["False", "True"]
