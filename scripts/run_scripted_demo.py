#!/usr/bin/env python3
"""Run the bundled 20-question scripted benchmark across six method labels.

Writes per-run JSON files, report.csv, and report.md under --results-dir,
then prints the markdown accuracy pivot.  Everything is deterministic, so
re-running resumes from (and agrees with) the persisted runs.

Usage:
    python scripts/run_scripted_demo.py [--results-dir DIR] [--n N] [--tau TAU]
"""
from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from stepsearch import (  # noqa: E402
    ScriptedBackend,
    SearchConfig,
    build_cells,
    emit_report,
    load_dataset,
    parse_world,
    run_benchmark,
    write_report,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
METHODS = ["greedy", "independent", "beam", "beam+cca", "dvts", "srca"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", default="results/demo")
    parser.add_argument("--n", type=int, default=4, help="samples per round")
    parser.add_argument("--m", type=int, default=2, help="surviving paths per round")
    parser.add_argument("--tau", type=float, default=1.0, help="early-stop threshold")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    dataset = load_dataset(os.path.join(FIXTURES, "smoke.jsonl"))
    with open(os.path.join(FIXTURES, "smoke_worlds.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["worlds"]
    backend = ScriptedBackend(
        {q.text: parse_world(specs[q.id]) for q in dataset.questions}
    )

    base = SearchConfig(n=args.n, m=args.m, max_steps=8, tau=args.tau, seed=args.seed)
    cells = build_cells(base, METHODS)
    report = run_benchmark(cells, dataset, backend, backend, args.results_dir)
    csv_path, md_path = write_report(report, args.results_dir)

    print(emit_report(report, "markdown"))
    print(f"wrote {csv_path} and {md_path}")
    failed = sum(row.get("failed", 0) for row in report.rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
