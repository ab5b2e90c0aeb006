"""The request seam: every backend request a search makes is a plain value,
(kind, *the arguments of the backend method the kind names), handed to
strategies._Waves.send, the one point that reaches a backend.  These tests
compare what reaches a recording backend with what the engine handed that
point, with calls inline and overlapped, and check that a checkpoint chain's
score request follows its answer request on the same thread."""
from __future__ import annotations

import random
import threading
import time
from collections import Counter

import pytest
from test_engine import DAG_QUESTION, _dag_world

from stepsearch import ScriptedBackend, SearchConfig, parse_method_label, run_search, strategies
from stepsearch.strategies import CHAIN, CHECKPOINT, SAMPLE, SCORE, _Waves

LABELS = [
    "greedy", "independent", "independent+cca", "beam", "beam+cca", "dvts",
    "dvts+cca", "srca", "srca-cca", "srca@weighted_bon", "beam+cca@majority",
]


class Recording:
    """Generator and reward that answer from inner and keep every request
    as it arrives: [thread id, (kind, *arguments), reply], in arrival order.
    With delay, each request first sleeps a seeded-random 1-3 ms, so that
    overlapped requests finish out of order.  wave() tags each request with
    the wave it arrived in."""

    def __init__(self, inner, delay: bool = False, seed: int = 0):
        self.inner = inner
        self.delay = delay
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.received: list[list] = []
        self.waves: list[int] = []
        self.wave = 0
        self.in_flight = 0
        self.peak = 0

    def _call(self, kind, *args):
        with self._lock:
            entry = [threading.get_ident(), (kind, *args), None]
            self.received.append(entry)
            self.waves.append(self.wave)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            pause = self._rng.uniform(0.001, 0.003) if self.delay else 0.0
        try:
            if pause:
                time.sleep(pause)
            entry[2] = getattr(self.inner, kind)(*args)
            return entry[2]
        finally:
            with self._lock:
                self.in_flight -= 1

    def sample_continuations(self, prefix, n, cfg):
        return self._call(SAMPLE, prefix, n, cfg)

    def force_checkpoint_answer(self, prefix, cfg):
        return self._call(CHECKPOINT, prefix, cfg)

    def score_steps(self, question, steps):
        return self._call(SCORE, question, steps)


def _cases(smoke_suite):
    dataset, backend = smoke_suite
    dag = ScriptedBackend.for_question(DAG_QUESTION.text, _dag_world())
    return [(q, backend) for q in dataset.questions] + [(DAG_QUESTION, dag)]


def _configs(label):
    for max_steps in (8, 3):
        yield parse_method_label(label, SearchConfig(n=4, m=2, max_steps=max_steps, seed=0))


@pytest.mark.parametrize("label", LABELS)
def test_requests_reach_the_backend_as_handed_to_the_dispatch_point(
    smoke_suite, monkeypatch, label
):
    """With overlap off, the backend receives exactly the requests handed
    to _Waves.send, in order and by value, score steps as lists."""
    monkeypatch.setattr(strategies, "OVERLAP_WAIT_S", float("inf"))
    handed: list[tuple] = []
    send = _Waves.send

    def recording_send(self, call):
        if call[0] != CHAIN:
            handed.append(call)
        return send(self, call)

    monkeypatch.setattr(_Waves, "send", recording_send)
    kinds = Counter()
    for cfg in _configs(label):
        for question, backend in _cases(smoke_suite):
            handed.clear()
            spy = Recording(backend)
            run_search(question, cfg, spy, spy)
            received = [request for _, request, _ in spy.received]
            assert received == handed, (question.id, cfg.max_steps)
            assert all(type(r[2]) is list for r in received if r[0] == SCORE)
            assert {thread for thread, _, _ in spy.received} == {threading.get_ident()}
            kinds.update(request[0] for request in received)
    assert kinds[SAMPLE] > 0
    assert (kinds[SCORE] > 0) == (label != "greedy")
    assert kinds[CHECKPOINT] > 0


def _key(request: tuple) -> tuple:
    return tuple(tuple(a) if type(a) is list else a for a in request)


def _waves_received(label, question, cfg, backend, monkeypatch, delay):
    """Per wave handed to _Waves.run, the multiset of requests the backend
    received in it; and the recording backend."""
    spy = Recording(backend, delay=delay, seed=len(label))
    run = _Waves.run
    depth = 0

    def recording_run(self, calls):
        # run recurses once after timing the search's first request; count
        # only the wave the engine handed it.
        nonlocal depth
        if not depth:
            spy.wave += 1
        depth += 1
        try:
            return run(self, calls)
        finally:
            depth -= 1

    with monkeypatch.context() as patch:
        patch.setattr(_Waves, "run", recording_run)
        if not delay:
            patch.setattr(strategies, "OVERLAP_WAIT_S", float("inf"))
        run_search(question, cfg, spy, spy)
    waves = [Counter() for _ in range(spy.wave)]
    for wave, (_, request, _) in zip(spy.waves, spy.received):
        waves[wave - 1][_key(request)] += 1
    return waves, spy


@pytest.mark.parametrize("label", LABELS)
def test_overlapped_waves_reach_the_backend_as_the_same_multisets(
    smoke_suite, monkeypatch, label
):
    """With overlap forced by a delaying wrapper, each wave's requests reach
    the backend in another order, but as the same multiset as inline."""
    dataset, backend = smoke_suite
    peak = 0
    cfg = parse_method_label(label, SearchConfig(n=4, m=2, max_steps=8, seed=0))
    for question in dataset.questions[:4]:
        inline, _ = _waves_received(label, question, cfg, backend, monkeypatch, delay=False)
        overlapped, spy = _waves_received(label, question, cfg, backend, monkeypatch, delay=True)
        assert overlapped == inline, question.id
        peak = max(peak, spy.peak)
    assert peak == 1 if label == "greedy" else peak > 1


@pytest.mark.parametrize("label", ["srca", "beam+cca", "dvts+cca", "beam"])
@pytest.mark.parametrize("delay", [False, True])
def test_a_chained_score_request_follows_its_answer_on_the_same_thread(
    smoke_suite, monkeypatch, label, delay
):
    """The score request of a checkpoint candidate is the next request the
    thread that sent its answer request sends, and it scores the path's
    text followed by the template and that answer."""
    dataset, backend = smoke_suite
    chains = 0
    threads = set()
    for max_steps in (8, 3):
        cfg = parse_method_label(label, SearchConfig(n=4, m=2, max_steps=max_steps, seed=0))
        for question in dataset.questions[:6]:
            _, spy = _waves_received(label, question, cfg, backend, monkeypatch, delay)
            by_thread: dict[int, list] = {}
            for thread, request, reply in spy.received:
                by_thread.setdefault(thread, []).append((request, reply))
            for thread, sent in by_thread.items():
                for (request, raw), (follow, _) in zip(sent, sent[1:] + [((None,), None)]):
                    if request[0] != CHECKPOINT:
                        continue
                    assert follow[0] == SCORE, (question.id, request[1][-80:])
                    path_text = request[1][len(question.text):]
                    assert "".join(follow[2]) == path_text + cfg.injection_template + raw
                    chains += 1
                    threads.add(thread)
    assert chains > 0
    if delay:
        assert threads - {threading.get_ident()}


def test_a_backend_needs_only_the_methods_its_requests_use(smoke_suite):
    """Methods are bound once per search from what the backends have: a
    generator without force_checkpoint_answer serves beam search, greedy
    runs without a reward, and a request to a missing method raises the
    AttributeError naming the backend's type and the method."""
    dataset, backend = smoke_suite
    question = dataset.questions[0]

    class SampleOnly:
        def sample_continuations(self, prefix, n, cfg):
            return backend.sample_continuations(prefix, n, cfg)

    base = SearchConfig(n=4, m=2, max_steps=8, seed=0)
    beam = run_search(question, parse_method_label("beam", base), SampleOnly(), backend)
    assert beam == run_search(question, parse_method_label("beam", base), backend, backend)
    run_search(question, parse_method_label("greedy", base), SampleOnly(), None)
    missing = f"'SampleOnly' object has no attribute '{CHECKPOINT}'"
    with pytest.raises(AttributeError, match=missing):
        run_search(question, parse_method_label("srca", base), SampleOnly(), backend)
    with pytest.raises(AttributeError, match=f"'NoneType' object has no attribute '{SCORE}'"):
        run_search(question, parse_method_label("beam", base), backend, None)
