"""Overlapped backend calls: a search whose first call waits on I/O runs each
wave of independent calls on its own thread pool, and its run files, token
counters and requests equal those of a one-call-at-a-time search."""
from __future__ import annotations

import hashlib
import json
import random
import threading
import time

import pytest
import requests
from conftest import scripted_http_responder

from stepsearch import (
    Dataset,
    HttpGenerator,
    HttpReward,
    SearchConfig,
    TransportError,
    build_cells,
    parse_method_label,
    run_benchmark,
    run_search,
)
from stepsearch.strategies import MAX_IN_FLIGHT, _Waves

# The method labels the golden run-file digests pin (tests/test_strategies.py).
_LABELS = [
    "greedy", "independent", "independent+cca", "beam", "beam+cca", "dvts",
    "dvts+cca", "srca", "srca-cca", "srca@weighted_bon", "beam+cca@majority",
]


class Instrumented:
    """A thread-safe wrapper around a scripted backend that counts the calls
    in flight and the threads that make them and, with delay, sleeps a
    seeded-random time in [1, 3] ms per call so that overlapped calls finish
    out of order.  fail_at makes the call that starts in that position
    (1-based) raise TransportError at once."""

    def __init__(self, inner, delay: bool = False, seed: int = 0, fail_at: int | None = None):
        self.inner = inner
        self.delay = delay
        self.fail_at = fail_at
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.started = 0
        self.finished = 0
        self.in_flight = 0
        self.peak = 0
        self.threads: set[int] = set()

    def _call(self, fn, *args):
        with self._lock:
            self.threads.add(threading.get_ident())
            self.started += 1
            number = self.started
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            pause = self._rng.uniform(0.001, 0.003) if self.delay else 0.0
        try:
            if number == self.fail_at:
                raise TransportError("planted failure", attempts=1)
            if pause:
                time.sleep(pause)
            return fn(*args)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.finished += 1

    def sample_continuations(self, prefix, n, cfg):
        return self._call(self.inner.sample_continuations, prefix, n, cfg)

    def force_checkpoint_answer(self, prefix, cfg):
        return self._call(self.inner.force_checkpoint_answer, prefix, cfg)

    def score_steps(self, question, steps):
        return self._call(self.inner.score_steps, question, steps)


def _dump(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("label", _LABELS)
def test_overlapped_runs_equal_sequential_runs(smoke_suite, label):
    dataset, backend = smoke_suite
    slow = Instrumented(backend, delay=True, seed=len(label))
    for n, m in [(4, 2), (6, 3)]:
        cfg = parse_method_label(label, SearchConfig(n=n, m=m, max_steps=8, seed=0))
        for question in dataset.questions[:5]:
            direct = run_search(question, cfg, backend, backend)
            overlapped = run_search(question, cfg, slow, slow)
            assert _dump(overlapped) == _dump(direct)
            assert overlapped.tokens == direct.tokens
    assert slow.in_flight == 0
    if label == "greedy":
        # One call per round: nothing to overlap.
        assert slow.peak == 1
    else:
        assert 1 < slow.peak <= MAX_IN_FLIGHT


def test_in_process_backend_runs_one_call_at_a_time(smoke_suite):
    dataset, backend = smoke_suite
    counted = Instrumented(backend)
    threads = threading.active_count()
    for label in ("srca", "beam+cca", "independent"):
        cfg = parse_method_label(label, SearchConfig(n=6, m=3, max_steps=8, seed=0))
        for question in dataset.questions[:5]:
            run_search(question, cfg, counted, counted)
    assert counted.started > 100
    assert counted.peak == 1
    assert counted.threads == {threading.get_ident()}
    assert threading.active_count() == threads


def test_failure_mid_wave_waits_for_the_wave(smoke_suite, tmp_path):
    dataset, backend = smoke_suite
    question = dataset.questions[0]
    cfg = parse_method_label("srca", SearchConfig(n=4, m=2, max_steps=8, seed=0))
    threads = threading.active_count()
    # Call 1 is round 0's expansion; call 3 is in the wave that scores and
    # injects its candidates.
    failing = Instrumented(backend, delay=True, fail_at=3)
    with pytest.raises(TransportError, match="planted"):
        run_search(question, cfg, failing, failing)
    assert failing.peak > 1
    assert failing.in_flight == 0
    assert failing.finished == failing.started
    assert threading.active_count() == threads

    failing = Instrumented(backend, delay=True, fail_at=3)
    cells = build_cells(cfg, ["srca"])
    report = run_benchmark(
        cells, Dataset("one", (question,)), failing, failing, str(tmp_path)
    )
    assert report.rows[0]["failed"] == 1
    assert report.rows[0]["questions"] == 0
    assert failing.finished == failing.started
    assert threading.active_count() == threads


class _CountingSession(requests.Session):
    """Counts its posts, from whichever thread makes them."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self.posts = 0

    def post(self, *args, **kwargs):
        resp = super().post(*args, **kwargs)
        with self._lock:
            self.posts += 1
        return resp


def test_http_overlapped_runs_equal_in_process_runs(stub_server, smoke_suite):
    url, state = stub_server
    dataset, backend = smoke_suite
    completions, score = scripted_http_responder(backend)
    lock = threading.Lock()
    serving = [0, 0]  # in flight, peak

    def delayed(route):
        def respond(payload):
            with lock:
                serving[0] += 1
                serving[1] = max(serving)
            try:
                time.sleep(0.002)
                return route(payload)
            finally:
                with lock:
                    serving[0] -= 1

        return respond

    state.responses["/v1/completions"] = delayed(completions)
    state.responses["/v1/score"] = delayed(score)
    session = _CountingSession()
    generator = HttpGenerator(url, session=session)
    reward = HttpReward(url, session=session)
    for label in ("srca", "beam+cca", "dvts", "independent", "greedy"):
        cfg = parse_method_label(label, SearchConfig(n=4, m=2, max_steps=8, seed=1))
        for question in dataset.questions[:3]:
            direct = run_search(question, cfg, backend, backend)
            assert _dump(run_search(question, cfg, generator, reward)) == _dump(direct)
    session.close()
    # Every request went through the one session the caller passed.
    assert session.posts == len(state.requests)
    assert serving[1] > 1


def _expected_waves(result, label: str) -> list[int]:
    """The wave sizes a search's run file implies: each round an expansion
    wave, one call per parent, then (except greedy) a wave that scores the
    candidates (only the finished ones for independent paths) and injects
    each active one when the round clusters; at the step cap, survivors are
    completed in one more wave, along with their scores for independent
    paths."""
    cfg = parse_method_label(label, SearchConfig())
    independent = cfg.strategy == "independent"
    waves, parents = [], 1
    for r in result.rounds:
        waves.append(parents)
        if cfg.strategy != "greedy":
            injected = 0 if r.cluster_count is None else r.candidate_count - r.pooled_natural
            waves.append((r.pooled_natural if independent else r.candidate_count) + injected)
        parents = len(r.selected)
    pooled_each_round = cfg.cca_enabled and not independent
    if len(result.rounds) == result.config["max_steps"] and parents and not pooled_each_round:
        waves.append(parents * (2 if independent else 1))
    return waves


# SHA-256 over json.dumps of each search's wave sizes, for every smoke
# question at step caps 8 and 3 in order (n=4, m=2, seed 0).
_WAVE_DIGESTS = {
    "greedy": "b7d1df9e6ea25ef5f82d9aad796bbb9873e19cf123a018639b2459ae67eed753",
    "independent": "90cc0c801df38b1d31ef3affa1093fa337216b6a936b65333fb73a5f9a91dcea",
    "independent+cca": "90cc0c801df38b1d31ef3affa1093fa337216b6a936b65333fb73a5f9a91dcea",
    "beam": "38314037515a066cb4ad376124641292b266efb8de4ba0562e054d0d816a97fc",
    "beam+cca": "16388df8ef8bba736160ef777109de1fb8261f124564bcc1748a34bdca17350b",
    "dvts": "32da2c146e18d6069568dd9fbd2aa804b6b1999c9f2de6a70730633527b27ec5",
    "dvts+cca": "cf9f7d5a38f32e99516e396ed52f6c411c88b558c945e942bb0ab351cbf97979",
    "srca": "5d3a58c615dcd60e0c24e18de4ecf206a01956e427ebacdb7c0d7cf300c63e6f",
    "srca-cca": "623210cc7b38d129192b22c47fbd4f3557836dda44e3a2e93e736973700fa128",
    "srca@weighted_bon": "5d3a58c615dcd60e0c24e18de4ecf206a01956e427ebacdb7c0d7cf300c63e6f",
    "beam+cca@majority": "16388df8ef8bba736160ef777109de1fb8261f124564bcc1748a34bdca17350b",
}


@pytest.mark.parametrize("label", _LABELS)
def test_each_round_sends_one_expansion_and_one_scoring_wave(smoke_suite, monkeypatch, label):
    """critical_round_trips on the http benchmark counts these waves."""
    dataset, backend = smoke_suite
    sizes: list[int] = []
    depth = 0
    run = _Waves.run

    def recording(self, calls):
        # run recurses once after timing the search's first call; count
        # only the wave the engine handed it.
        nonlocal depth
        if not depth:
            sizes.append(len(calls))
        depth += 1
        try:
            return run(self, calls)
        finally:
            depth -= 1

    monkeypatch.setattr(_Waves, "run", recording)
    digest = hashlib.sha256()
    for max_steps in (8, 3):
        cfg = parse_method_label(label, SearchConfig(n=4, m=2, max_steps=max_steps, seed=0))
        for question in dataset.questions:
            sizes.clear()
            result = run_search(question, cfg, backend, backend)
            assert sizes == _expected_waves(result, label)
            digest.update(json.dumps(sizes).encode())
    assert digest.hexdigest() == _WAVE_DIGESTS[label]
