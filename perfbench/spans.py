"""In-memory span recorder and the per-layer figures computed from its spans.

A span is one call into a layer: [name, start, end, parent, search], with
times from time.perf_counter(), parent the index of the enclosing span (-1 at
the top) and search the identifier of the search the call belongs to (None
outside a search).  Spans stay in a list until the caller writes them out.
"""
from __future__ import annotations

import json
import statistics
import threading
import time
from functools import wraps

NAME, START, END, PARENT, SEARCH = range(5)


class Recorder:
    """Records nested spans; one open-span stack per thread.

    A span opened on a thread with no open span of its own takes as parent
    the innermost span still open on any thread, so a search that
    run_benchmark hands to its worker thread nests under run_benchmark.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.search = None
        self._local = threading.local()
        self._open: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.search])
            self._open.append(index)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans[index][END] = end
            self._open.remove(index)

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""

        @wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self._open = []


def write_spans(path: str, spans: list[list]) -> None:
    """One JSON array per line: name, start, end, parent, search."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        inner = [
            (max(s, span[START]), min(e, span[END]))
            for s, e in children.get(i, ())
            if e > span[START] and s < span[END]
        ]
        out.append(span[END] - span[START] - _covered(inner))
    return out


def layer_figures(cold: list[list], warm: list[list]) -> dict[str, float]:
    """Per-layer busy and self times of one traced pass.

    cold holds the spans of the cold pass, warm those of the warm resume
    pass that followed it.
    """
    cold_self = self_times(cold)
    warm_self = self_times(warm)

    def busy(spans, name):
        return sum(s[END] - s[START] for s in spans if s[NAME] == name)

    def calls(spans, name):
        return sum(1 for s in spans if s[NAME] == name)

    def own(spans, selfs, name):
        return sum(t for s, t in zip(spans, selfs) if s[NAME] == name)

    waits = [
        (s[END] - s[START]) * 1000.0 for s in cold if s[NAME].startswith("backends.")
    ]
    return {
        "backends.sample.calls": calls(cold, "backends.sample"),
        "backends.sample.busy_s": busy(cold, "backends.sample"),
        "backends.checkpoint.calls": calls(cold, "backends.checkpoint"),
        "backends.checkpoint.busy_s": busy(cold, "backends.checkpoint"),
        "backends.score.calls": calls(cold, "backends.score"),
        "backends.score.busy_s": busy(cold, "backends.score"),
        "backends.wait_ms_p50": statistics.median(waits),
        "strategies.self_s": own(cold, cold_self, "strategies.run_search"),
        "core.normalize.calls": calls(cold, "core.normalize"),
        "core.normalize.busy_s": busy(cold, "core.normalize"),
        "core.split.calls": calls(cold, "core.split"),
        "core.split.busy_s": busy(cold, "core.split"),
        "decision.select.calls": calls(cold, "decision.select"),
        "decision.select.busy_s": busy(cold, "decision.select"),
        "harness.cold.self_s": own(cold, cold_self, "harness.run_benchmark"),
        "harness.resume.self_s": own(warm, warm_self, "harness.run_benchmark"),
        "harness.metrics.busy_s": busy(warm, "harness.metrics"),
        "harness.report.busy_s": busy(warm, "harness.report"),
    }
