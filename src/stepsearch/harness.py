"""Benchmark harness: datasets, persisted runs, metrics, and reports.

Runs are persisted one JSON file per (dataset, method, config-hash, question)
so an interrupted benchmark resumes by skipping completed questions; a run
file that does not read back, or that belongs to another question or config,
is searched again and rewritten.  Each cell's metrics fold its results as
they finish, so a run holds about one finished search per worker.  Reports
are pure aggregations of those files and contain no timestamps, making
repeated runs byte-identical.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
from collections.abc import Iterable
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from itertools import islice

from .backends import ProtocolError, TransportError, WorldError
from .core import (
    STRATEGIES,
    ConfigError,
    Question,
    RunResult,
    SearchConfig,
    TokenStats,
    normalize_answer,
    write_json_atomic,
)
from .strategies import run_search

log = logging.getLogger(__name__)

DEFAULT_KS = (1, 4, 16)

@dataclass(frozen=True)
class Dataset:
    name: str
    questions: tuple[Question, ...]

    def gold_map(self) -> dict[str, str]:
        return {q.id: q.gold_answer for q in self.questions}


def load_dataset(path: str, name: str | None = None) -> Dataset:
    """Read a JSONL dataset of {id, question, answer} records."""
    questions: list[Question] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            for fld in ("id", "question", "answer"):
                if fld not in record:
                    raise ValueError(f"{path}:{lineno}: missing field {fld!r}")
            qid = str(record["id"])
            if qid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate question id {qid!r}")
            seen.add(qid)
            gold = str(record["answer"])
            if normalize_answer(gold) == "":
                raise ValueError(
                    f"{path}:{lineno}: gold answer normalizes to the empty form"
                )
            questions.append(Question(qid, str(record["question"]), gold))
    if not questions:
        raise ValueError(f"{path}: dataset is empty")
    base = name or os.path.splitext(os.path.basename(path))[0]
    return Dataset(base, tuple(questions))


@dataclass(frozen=True)
class BenchmarkCell:
    """One (method label, concrete config) grid point."""

    method: str
    config: SearchConfig


def parse_method_label(label: str, base: SearchConfig) -> SearchConfig:
    """Turn a method label into a concrete config.

    Labels look like "<strategy>[+cca|-cca][@<selector>]", e.g. "beam+cca"
    or "independent@majority".  CCA defaults on for srca and off elsewhere.
    """
    selector = base.selector
    body = label
    if "@" in body:
        body, selector = body.split("@", 1)
    cca: bool | None = None
    if body.endswith("+cca"):
        body, cca = body[: -len("+cca")], True
    elif body.endswith("-cca"):
        body, cca = body[: -len("-cca")], False
    if body not in STRATEGIES:
        raise ConfigError("methods", f"unknown strategy in method label {label!r}")
    if cca is None:
        cca = body == "srca"
    return replace(base, strategy=body, cca_enabled=cca, selector=selector)


def build_cells(
    base: SearchConfig,
    methods: list[str],
    n_values: list[int] | None = None,
    tau_values: list[float] | None = None,
) -> list[BenchmarkCell]:
    """Cross methods with n and tau axes into concrete grid cells."""
    if not methods:
        raise ConfigError("methods", "must list at least one method")
    ns = list(n_values) if n_values else [base.n]
    taus = list(tau_values) if tau_values else [base.tau]
    cells = []
    for method in methods:
        cfg = parse_method_label(method, base)
        for n in ns:
            for tau in taus:
                cells.append(BenchmarkCell(method, replace(cfg, n=n, tau=tau)))
    return cells


def config_hash(cfg: SearchConfig) -> str:
    canonical = json.dumps(cfg.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _first_hit(hits: list[bool]) -> int | None:
    """Index of the first True in hits, or None."""
    return next((i for i, hit in enumerate(hits) if hit), None)


def compute_metrics(
    results: Iterable[RunResult], gold: dict[str, str], ks: list[int]
) -> dict:
    """Aggregate one cell's completed runs into metric values.

    results may be any iterable; it is folded one result at a time into
    integer counts, so the row does not depend on the order of the results
    and no result is kept once folded.  pass@k clamps k to the pool size;
    the natural-only variant considers only naturally finished candidates
    and counts an empty natural pool as a miss.  Each distinct answer string
    is normalized once per call and each gold answer once per result; pass@k
    for every k reads one list of hits per pool, as oracle.pass_at_k over the
    first k candidates would.
    """
    canonical: dict[str, str] = {}
    n = 0
    correct = 0
    car_hits = 0
    depth_total = 0
    budget = dict.fromkeys(TokenStats._json_fields, 0)
    pass_full = {k: 0 for k in ks}
    pass_natural = {k: 0 for k in ks}
    for result in results:
        if not n and min(ks, default=1) < 1:
            raise ValueError(f"every k must be >= 1, got {sorted(ks)}")
        n += 1
        try:
            answer = gold[result.question_id]
        except KeyError:
            raise ValueError(f"no gold answer for question {result.question_id!r}")
        gold_key = normalize_answer(answer)
        hits = []
        for candidate in result.pool:
            key = canonical.get(candidate.answer)
            if key is None:
                key = canonical[candidate.answer] = normalize_answer(candidate.answer)
            hits.append(key == gold_key)
        if hits[result.selected_index]:
            correct += 1
        if result.selected.from_checkpoint:
            car_hits += 1
        depth_total += result.depth
        for name in budget:
            budget[name] += getattr(result.tokens, name)
        first = _first_hit(hits)
        first_natural = _first_hit(
            [hit for c, hit in zip(result.pool, hits) if c.origin == "natural"]
        )
        for k in ks:
            if first is not None and first < k:
                pass_full[k] += 1
            if first_natural is not None and first_natural < k:
                pass_natural[k] += 1
        # Asking results for the next one may run its search: hold no result
        # meanwhile.
        del result
    if not n:
        return {"questions": 0}
    row = {
        "questions": n,
        "accuracy": correct / n,
        "car": car_hits / n,
        "mean_depth": depth_total / n,
        "mean_generated_tokens": budget["generated_tokens"] / n,
        **budget,
    }
    for k in ks:
        row[f"pass@{k}"] = pass_full[k] / n
        row[f"pass@{k}_natural"] = pass_natural[k] / n
    return row


@dataclass
class Report:
    rows: list[dict]


class _InlineExecutor(Executor):
    """Runs each submitted call at once on the calling thread: with one
    worker, a pool would only add a thread hand-off per question."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def run_benchmark(
    cells: list[BenchmarkCell],
    dataset: Dataset,
    generator,
    reward,
    results_dir: str,
    ks: list[int] | None = None,
    workers: int = 1,
    flops_params: dict | None = None,
) -> Report:
    """Execute every cell over every question, resuming from persisted runs."""
    rows = []
    for cell in cells:
        cfg = cell.config
        cell_ks = sorted(set(ks) | {cfg.n}) if ks else sorted(set(DEFAULT_KS) | {cfg.n})
        config = cfg.to_json_dict()
        digest = config_hash(cfg)
        cell_dir = os.path.join(results_dir, dataset.name, cell.method, digest)
        os.makedirs(cell_dir, exist_ok=True)

        def run_one(question: Question) -> RunResult:
            out_path = os.path.join(cell_dir, f"{question.id}.json")
            if os.path.exists(out_path):
                try:
                    with open(out_path, encoding="utf-8") as fh:
                        result = RunResult.from_json_dict(json.load(fh))
                except ValueError as exc:
                    log.warning("re-running the search of unreadable run file %s: %s",
                                out_path, exc)
                else:
                    if result.question_id != question.id:
                        log.warning("re-running the search of run file %s, which holds "
                                    "question %r", out_path, result.question_id)
                    elif result.config != config:
                        log.warning("re-running the search of run file %s, which holds "
                                    "another config", out_path)
                    else:
                        return result
            result = run_search(question, cfg, generator, reward)
            write_json_atomic(out_path, result.to_json_dict())
            return result

        failures: list[str] = []
        width = max(1, workers)
        pool = ThreadPoolExecutor(max_workers=width) if width > 1 else _InlineExecutor()

        def finished():
            """Each question's result as its search finishes; a failed search
            is logged and recorded instead.  The next question is submitted
            only once a result has been folded and dropped, so at most width
            searches are under way or finished and not yet folded: a pool
            that ran ahead of the fold would keep every result it finished
            early."""
            questions = iter(dataset.questions)
            running: dict[Future, Question] = {}
            while True:
                for question in islice(questions, width - len(running)):
                    running[pool.submit(run_one, question)] = question
                if not running:
                    return
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                future = done.pop()
                question = running.pop(future)
                try:
                    result = future.result()
                except (TransportError, ProtocolError, WorldError) as exc:
                    log.error("cell %s question %s failed: %s", cell.method, question.id, exc)
                    failures.append(question.id)
                    continue
                # Hold the result only while it is folded: the next submission
                # runs a search, on this thread when width is 1.
                del future
                yield result
                del result

        with pool:
            metrics = compute_metrics(finished(), dataset.gold_map(), cell_ks)
        row = {
            "dataset": dataset.name,
            "method": cell.method,
            "strategy": cfg.strategy,
            "n": cfg.n,
            "m": cfg.m,
            "tau": cfg.tau,
            "reduction": cfg.reduction,
            "selector": cfg.selector,
            "cca": cfg.cca_enabled,
            "seed": cfg.seed,
            "config_hash": digest,
            "failed": len(failures),
            **metrics,
        }
        if not cfg.cca_enabled:
            row["car"] = None
        if flops_params:
            gen_params = flops_params.get("generator_params")
            rew_params = flops_params.get("reward_params")
            if gen_params:
                row["generator_flops_estimate"] = 2 * gen_params * row.get("generated_tokens", 0)
            if rew_params:
                row["reward_flops_estimate"] = 2 * rew_params * row.get("reward_tokens", 0)
        rows.append(row)
    return Report(rows=rows)


_LEADING_COLUMNS = (
    "dataset", "method", "strategy", "n", "m", "tau", "reduction", "selector",
    "cca", "seed", "config_hash", "failed", "questions", "accuracy", "car",
)
_TRAILING_COLUMNS = (
    "mean_depth", "mean_generated_tokens", "generated_tokens", "generator_calls",
    "reward_calls", "reward_tokens", "generator_flops_estimate",
    "reward_flops_estimate",
)
_FRACTION_DIGITS = 4


def report_columns(rows: list[dict]) -> list[str]:
    present = set()
    for row in rows:
        present.update(row)
    pass_cols = sorted(
        (c for c in present if c.startswith("pass@")),
        key=lambda c: (c.endswith("_natural"), int(c.split("@")[1].split("_")[0])),
    )
    cols = [c for c in _LEADING_COLUMNS if c in present]
    cols += pass_cols
    cols += [c for c in _TRAILING_COLUMNS if c in present]
    return cols


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.{_FRACTION_DIGITS}f}"
    return str(value)


def emit_report(report: Report, fmt: str = "csv") -> str:
    """Render the report as CSV or markdown text.

    CSV holds every metric with four fractional digits.  Markdown is an
    accuracy pivot: one row per method cell, one column per dataset.
    """
    if fmt == "csv":
        cols = report_columns(report.rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in report.rows:
            writer.writerow([_format_cell(row.get(c)) for c in cols])
        return buf.getvalue()
    if fmt == "markdown":
        datasets = sorted({row["dataset"] for row in report.rows})
        lines = ["| method | " + " | ".join(datasets) + " |"]
        lines.append("|" + " --- |" * (len(datasets) + 1))
        seen: dict[str, dict[str, float]] = {}
        order: list[str] = []
        for row in report.rows:
            label = f"{row['method']} (n={row['n']}, tau={_format_cell(row['tau'])})"
            if label not in seen:
                seen[label] = {}
                order.append(label)
            seen[label][row["dataset"]] = row.get("accuracy")
        for label in order:
            cells = [_format_cell(seen[label].get(d)) for d in datasets]
            lines.append("| " + label + " | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: Report, results_dir: str) -> tuple[str, str]:
    """Write report.csv and report.md under results_dir; returns their paths."""
    csv_path = os.path.join(results_dir, "report.csv")
    md_path = os.path.join(results_dir, "report.md")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(emit_report(report, "csv"))
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(emit_report(report, "markdown"))
    return csv_path, md_path
