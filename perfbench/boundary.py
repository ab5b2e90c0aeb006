"""The backend boundary: one object that stands in for the generator and the
reward model, forwards each call and counts it for the search it belongs to.

Untraced, it records only each call's kind, start and end.  With a span
recorder attached it also records a span per call, the text bytes each
request carries, the requests identical to an earlier one of the same
search, and the part of each call's time the backend did not report as its
own handling.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter

from spans import END, START

KINDS = ("sample", "checkpoint", "score")


class Boundary:
    def __init__(self, generator, reward, handling_ms=None):
        """handling_ms, when given, returns the handling time in ms the
        server reported for the last request; without it the time spent
        inside the wrapped call counts as handling."""
        self.generator = generator
        self.reward = reward
        self.handling_ms = handling_ms
        self.recorder = None
        self.reset()

    def reset(self) -> None:
        self.search = None
        self.calls: dict[str, list[tuple[str, float, float]]] = {}
        self.repeats: Counter = Counter()
        self.request_bytes = 0
        self.score_steps_sent = 0
        self.overheads_ms: list[float] = []
        self._keys: set[int] = set()

    def begin(self, search: str) -> None:
        self.search = search
        self.calls.setdefault(search, [])
        self._keys = set()

    # -- the generator and reward interfaces ---------------------------------

    def sample_continuations(self, prefix, n, cfg):
        return self._call("sample", self.generator.sample_continuations, (prefix, n, cfg), (prefix,))

    def force_checkpoint_answer(self, prefix, cfg):
        return self._call("checkpoint", self.generator.force_checkpoint_answer, (prefix, cfg), (prefix,))

    def score_steps(self, question, steps):
        self.score_steps_sent += len(steps)
        return self._call("score", self.reward.score_steps, (question, tuple(steps)), (question, *steps))

    def _call(self, kind, fn, args, texts):
        calls = self.calls.setdefault(self.search, [])
        if self.recorder is None:
            start = time.perf_counter()
            out = fn(*args)
            calls.append((kind, start, time.perf_counter()))
            return out
        key = hash((kind,) + args)
        if key in self._keys:
            self.repeats[self.search] += 1
        self._keys.add(key)
        self.request_bytes += sum(len(t.encode("utf-8")) for t in texts)
        index = self.recorder.open("backends." + kind)
        try:
            inner = time.perf_counter()
            out = fn(*args)
            handled = (time.perf_counter() - inner) * 1000.0
        finally:
            self.recorder.close(index)
        span = self.recorder.spans[index]
        if self.handling_ms is not None:
            handled = self.handling_ms()
        self.overheads_ms.append((span[END] - span[START]) * 1000.0 - handled)
        calls.append((kind, span[START], span[END]))
        return out

    # -- figures --------------------------------------------------------------

    def counts(self) -> dict[str, dict[str, int]]:
        """Calls per kind, per search."""
        out = {}
        for search, calls in self.calls.items():
            seen = Counter(kind for kind, _, _ in calls)
            out[search] = {kind: seen.get(kind, 0) for kind in KINDS}
        return out

    def requests(self) -> int:
        return sum(len(calls) for calls in self.calls.values())

    def critical_round_trips(self) -> float:
        """Mean over searches of the backend waits on the search's critical
        path: calls that overlap in time count as one wait."""
        per_search = []
        for calls in self.calls.values():
            waits, reach = 0, None
            for _, start, end in sorted(calls, key=lambda c: c[1]):
                if reach is None or start >= reach:
                    waits += 1
                    reach = end
                else:
                    reach = max(reach, end)
            per_search.append(waits)
        return statistics.fmean(per_search)
