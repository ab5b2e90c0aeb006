"""Command-line interface: run benchmarks, sweep an axis, inspect runs.

Exit codes: 0 success, 1 finished with failed cells or questions, 2 for
usage or configuration errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .backends import (
    HttpGenerator,
    HttpReward,
    MissingEnvError,
    RequestCache,
    ScriptedBackend,
    WorldError,
    parse_world,
)
from .core import ConfigError, RunResult, SearchConfig
from .harness import (
    Dataset,
    build_cells,
    config_hash,
    load_dataset,
    run_benchmark,
    write_report,
)


def _parse_override(raw: str) -> tuple[str, object]:
    if "=" not in raw:
        raise ConfigError("override", f"{raw!r} is not of the form key=value")
    key, text = raw.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return key, value


def _load_json_object(path: str, fld: str) -> dict:
    """The JSON object in the file at path; ConfigError(fld) otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(fld, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(fld, f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(fld, f"{path} must hold a JSON object")
    return data


def _load_worlds(path: str, dataset: Dataset) -> ScriptedBackend:
    specs = _load_json_object(path, "worlds").get("worlds")
    if not isinstance(specs, dict):
        raise ConfigError("worlds", f"{path} must hold a 'worlds' object keyed by id")
    by_text = {}
    for question in dataset.questions:
        if question.id not in specs:
            raise ConfigError("worlds", f"{path} has no world for question {question.id!r}")
        try:
            by_text[question.text] = parse_world(specs[question.id])
        except WorldError as exc:
            raise ConfigError("worlds", f"question {question.id!r}: {exc}") from exc
    return ScriptedBackend(by_text)


def _build_backends(config: dict, dataset: Dataset):
    """(generator, reward, cache to save after the run or None).  A replay
    cache is only read, so it is never returned for saving."""
    backend = config.get("backend", "scripted")
    if backend == "scripted":
        worlds_path = config.get("worlds")
        if not worlds_path:
            raise ConfigError("worlds", "scripted backend needs a 'worlds' file path")
        scripted = _load_worlds(worlds_path, dataset)
        return scripted, scripted, None
    if backend == "http":
        cache = None
        offline = False
        if config.get("replay"):
            cache = RequestCache(config["replay"])
            offline = True
        elif config.get("record"):
            cache = RequestCache(config["record"])
        generator = HttpGenerator.from_env(
            model=config.get("model", "default"), cache=cache, offline=offline
        )
        reward = HttpReward.from_env(cache=cache, offline=offline)
        return generator, reward, None if offline else cache
    raise ConfigError("backend", f"unknown backend {backend!r}")


def _effective_search_config(config: dict, args) -> SearchConfig:
    search = config.get("search", {})
    if not isinstance(search, dict):
        raise ConfigError("search", "must be a JSON object")
    search = dict(search)
    for raw in args.override or []:
        key, value = _parse_override(raw)
        search[key] = value
    if args.seed is not None:
        search["seed"] = args.seed
    return SearchConfig.from_json_dict(search)


def _run_cells(args, axis: str | None = None, values: list | None = None) -> int:
    config = _load_json_object(args.config, "config")
    dataset_path = config.get("dataset")
    if not dataset_path:
        raise ConfigError("dataset", "config must name a dataset JSONL file")
    dataset = load_dataset(dataset_path, name=config.get("dataset_name"))
    base = _effective_search_config(config, args)
    methods = config.get("methods", ["srca"])
    if not isinstance(methods, list) or any(type(m) is not str for m in methods):
        raise ConfigError("methods", "must be a list of method labels")
    n_values = values if axis == "n" else None
    tau_values = values if axis == "tau" else None
    cells = build_cells(base, methods, n_values=n_values, tau_values=tau_values)
    generator, reward, recording = _build_backends(config, dataset)

    os.makedirs(args.results_dir, exist_ok=True)
    effective = {
        "dataset": dataset_path,
        "dataset_name": dataset.name,
        "backend": config.get("backend", "scripted"),
        "methods": methods,
        "search": base.to_json_dict(),
        "cells": [
            {"method": c.method, "config": c.config.to_json_dict(),
             "config_hash": config_hash(c.config)}
            for c in cells
        ],
    }
    if axis:
        effective["axis"] = {"name": axis, "values": values}
    with open(os.path.join(args.results_dir, "effective_config.json"), "w",
              encoding="utf-8") as fh:
        json.dump(effective, fh, indent=1, sort_keys=True)
        fh.write("\n")

    started = time.time()
    report = run_benchmark(
        cells,
        dataset,
        generator,
        reward,
        args.results_dir,
        ks=config.get("ks"),
        workers=args.workers if args.workers is not None else config.get("workers", 1),
        flops_params=config.get("flops"),
    )
    if recording is not None:
        recording.save()
    meta = {
        "started_at": started,
        "finished_at": time.time(),
        "argv": sys.argv[1:],
    }
    with open(os.path.join(args.results_dir, "run_meta.json"), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    csv_path, md_path = write_report(report, args.results_dir)
    failed = sum(row.get("failed", 0) for row in report.rows)
    for row in report.rows:
        print(
            f"{row['dataset']} {row['method']} n={row['n']} tau={row['tau']}"
            f" accuracy={row.get('accuracy', float('nan')):.4f}"
            f" failed={row.get('failed', 0)}"
        )
    print(f"wrote {csv_path} and {md_path}")
    return 1 if failed else 0


def _cmd_sweep(args) -> int:
    values: list = []
    for chunk in args.values.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        values.append(int(chunk) if args.axis == "n" else float(chunk))
    if not values:
        raise ConfigError("values", "sweep needs at least one value")
    return _run_cells(args, axis=args.axis, values=values)


def _resolve_run_file(args) -> str:
    method_dir = os.path.join(args.results_dir, args.dataset, args.method)
    if not os.path.isdir(method_dir):
        raise ConfigError("inspect", f"no results under {method_dir}")
    if args.config_hash:
        digest = args.config_hash
    else:
        hashes = sorted(
            d for d in os.listdir(method_dir)
            if os.path.isdir(os.path.join(method_dir, d))
        )
        if len(hashes) != 1:
            raise ConfigError(
                "inspect",
                f"{method_dir} holds {len(hashes)} configs"
                f" ({', '.join(hashes) or 'none'}); pass --config-hash",
            )
        digest = hashes[0]
    path = os.path.join(method_dir, digest, f"{args.question}.json")
    if not os.path.exists(path):
        raise ConfigError("inspect", f"no run file at {path}")
    return path


def _cmd_inspect(args) -> int:
    result = RunResult.from_json_dict(_load_json_object(_resolve_run_file(args), "inspect"))
    selected = result.selected
    print(f"question:  {result.question_id}")
    print(f"strategy:  {result.strategy}  (selector={result.selection_method})")
    print(f"answer:    {selected.answer!r}"
          f"  score={selected.final_score}"
          f"  origin={selected.origin}")
    print(f"depth:     {result.depth} rounds"
          f"  stopped_early={result.stopped_early}")
    print()
    print("selected path steps:")
    print(f"{'step':>4}  {'score':>7}  {'endpoint':>8}  checkpoint answer")
    for row in result.selected_trace:
        score = "" if row.get("step_score") is None else f"{row['step_score']:.4f}"
        endpoint = "" if row.get("endpoint_score") is None else f"{row['endpoint_score']:.4f}"
        answer = row.get("checkpoint_answer") or ""
        print(f"{row['index']:>4}  {score:>7}  {endpoint:>8}  {answer}")
        text = row.get("text", "").strip().replace("\n", " ")
        print(f"      {text[:100]}")
    print()
    print("pool:")
    for i, cand in enumerate(result.pool):
        marker = "*" if i == result.selected_index else " "
        origin = "checkpoint" if cand.from_checkpoint else "natural"
        shown = "" if cand.final_score is None else f"{cand.final_score:.4f}"
        print(f" {marker} [{i:>2}] {origin:<10} score={shown:<7}"
              f" answer={cand.answer!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepsearch",
        description="Stepwise search over reasoning paths with scripted or HTTP backends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--results-dir", required=True, help="output directory")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="override a search config field (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel questions per cell")

    run_p = sub.add_parser("run", help="run every configured method over a dataset")
    add_run_flags(run_p)
    run_p.set_defaults(func=_run_cells)

    sweep_p = sub.add_parser("sweep", help="run methods across an n or tau axis")
    add_run_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=("n", "tau"))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 2,4,8")
    sweep_p.set_defaults(func=_cmd_sweep)

    inspect_p = sub.add_parser("inspect", help="pretty-print one persisted run")
    inspect_p.add_argument("--results-dir", required=True)
    inspect_p.add_argument("--dataset", required=True)
    inspect_p.add_argument("--method", required=True)
    inspect_p.add_argument("--question", required=True)
    inspect_p.add_argument("--config-hash", default=None)
    inspect_p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MissingEnvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
