"""Correctness checks on persisted runs, written apart from the program.

Nothing here calls into stepsearch.  Each check reads the run files as JSON
and compares them with the benchmark's own walk over the world dicts, its
own reading of the selection and budget rules, and the request counts taken
at the backend boundary.  A check returns a list of (check, message) errors;
an empty list means it passed.
"""
from __future__ import annotations

import json
import os

CHECKS = ("path", "score", "answer", "selection", "budget", "counters", "resume", "identity")


class WorldIndex:
    """Child lookup by step text for each node of a world dict."""

    def __init__(self, world: dict):
        self.root = world["root"]
        self._children: dict[int, dict[str, dict]] = {}

    def children(self, node: dict) -> dict[str, dict]:
        key = id(node)
        found = self._children.get(key)
        if found is None:
            found = self._children[key] = {c["step"]: c for c in node.get("children", [])}
        return found


def _segments(text: str, delimiter: str) -> list[str] | None:
    head, *rest = text.split(delimiter)
    if head or not rest:
        return None
    return [delimiter + part for part in rest]


def check_candidate(cand: dict, index: WorldIndex, delimiter: str, template: str) -> list[tuple[str, str]]:
    """Walk one pooled candidate through its world.

    A natural candidate's steps are a root-to-leaf path; its score is the
    leaf's step reward and its answer the leaf's final answer.  A checkpoint
    candidate's last segment is a node's step, the template and that node's
    checkpoint answer; its score is the node's endpoint reward.
    """
    where = f"candidate {cand.get('lineage')} ({cand['origin']})"
    segs = _segments(cand["full_text"], delimiter)
    if segs is None:
        return [("path", f"{where}: text does not start with {delimiter!r}")]
    node = index.root
    for depth, seg in enumerate(segs[:-1]):
        node = index.children(node).get(seg)
        if node is None:
            return [("path", f"{where}: step {depth} is not a child in the world: {seg[:60]!r}")]
    last = segs[-1]
    kids = index.children(node)
    if cand["origin"] == "natural":
        end = kids.get(last)
        if end is None or not end["terminal"]:
            return [("path", f"{where}: does not end at a leaf of the world")]
        want_score, want_answer = end["reward"], end["final_answer"]
    else:
        end = next(
            (c for c in kids.values()
             if last.startswith(c["step"]) and last[len(c["step"]):].startswith(template)),
            None,
        )
        if end is None:
            return [("path", f"{where}: last step is no world step followed by the template")]
        raw = last[len(end["step"]) + len(template):]
        if raw != end["checkpoint_answer"]:
            return [("answer", f"{where}: checkpoint text answers {raw!r}, world says {end['checkpoint_answer']!r}")]
        if cand.get("origin_step") != len(segs) - 1:
            return [("path", f"{where}: origin_step {cand.get('origin_step')} for {len(segs)} steps")]
        reward = end.get("checkpoint_reward")
        want_score = end["reward"] if reward is None else reward
        want_answer = end["checkpoint_answer"]
    errors = []
    if cand["answer"] != want_answer:
        errors.append(("answer", f"{where}: answer {cand['answer']!r}, world says {want_answer!r}"))
    if cand["final_score"] is not None and cand["final_score"] != float(want_score):
        errors.append(("score", f"{where}: score {cand['final_score']!r}, world says {want_score!r}"))
    return errors


def _bon_key(cand: dict) -> tuple:
    natural_first = 0 if cand["origin"] == "natural" else 1
    step = cand["origin_step"] if cand["origin_step"] is not None else -1
    return (-cand["final_score"], natural_first, tuple(cand["lineage"]), step)


def check_selection(run: dict) -> list[tuple[str, str]]:
    """The selected candidate is the best-of-n winner: highest score, ties to
    natural endings, then lineage order.  Greedy keeps its single path."""
    pool, chosen = run["pool"], run["selected_index"]
    if run["strategy"] == "greedy":
        if len(pool) == 1 and chosen == 0:
            return []
        return [("selection", f"greedy pool of {len(pool)} selects {chosen}")]
    if run["config"]["selector"] != "bon":
        return [("selection", f"no reference for selector {run['config']['selector']!r}")]
    if any(c["final_score"] is None for c in pool):
        return [("score", "unscored candidate in a scored pool")]
    best = min(range(len(pool)), key=lambda i: _bon_key(pool[i]))
    if best != chosen:
        return [("selection", f"selected {chosen}, best-of-n is {best}")]
    return []


def check_budget(run: dict) -> list[tuple[str, str]]:
    """srca, beam and dvts sample n candidates in round 0 and n/m per
    surviving beam after it."""
    if run["strategy"] not in ("srca", "beam", "dvts"):
        return []
    n, m = run["config"]["n"], run["config"]["m"]
    errors = []
    for r in run["rounds"]:
        want = n if r["step_index"] == 0 else r["beams"] * (n // m)
        if r["candidate_count"] != want or not 1 <= r["beams"] <= m:
            errors.append((
                "budget",
                f"round {r['step_index']}: {r['candidate_count']} candidates from "
                f"{r['beams']} beams, budget is {want}",
            ))
    return errors


def implied_calls(run: dict) -> dict[str, int]:
    """Backend calls the round records and the pool imply, by kind."""
    cfg, rounds, pool = run["config"], run["rounds"], run["pool"]
    strategy, cca = run["strategy"], cfg["cca_enabled"]
    candidates = sum(r["candidate_count"] for r in rounds)
    naturals = sum(1 for c in pool if c["origin"] == "natural")
    checkpoints = len(pool) - naturals
    if strategy == "greedy":
        return {"sample": len(rounds), "checkpoint": checkpoints, "score": 0}
    if strategy in ("dvts", "independent"):
        # The first round draws every root child in one call.
        sample = 1 + sum(r["beams"] for r in rounds[1:])
    else:
        sample = sum(r["beams"] for r in rounds)
    if strategy == "independent":
        # Naturals are scored once; each capped path is scored, injected
        # and its checkpoint candidate scored.
        return {"sample": sample, "checkpoint": checkpoints, "score": naturals + 2 * checkpoints}
    if strategy in ("srca", "beam") and cca:
        actives = sum(r["candidate_count"] - r["pooled_natural"] for r in rounds)
        return {"sample": sample, "checkpoint": actives, "score": candidates + checkpoints}
    if strategy in ("beam", "dvts") and not cca:
        # Capped survivors are injected and scored once more at the end.
        return {"sample": sample, "checkpoint": checkpoints, "score": candidates + checkpoints}
    raise ValueError(f"no call model for {strategy} with cca={cca}")


def check_counters(run: dict, seen: dict[str, int]) -> list[tuple[str, str]]:
    """Calls counted at the backend boundary equal the implied calls, and
    equal the token counters the run file reports."""
    want = implied_calls(run)
    errors = []
    if seen != want:
        errors.append(("counters", f"backend saw {seen}, rounds imply {want}"))
    tokens = run["tokens"]
    reported = {
        "generator": tokens["generator_calls"],
        "reward": tokens["reward_calls"],
    }
    implied = {"generator": want["sample"] + want["checkpoint"], "reward": want["score"]}
    if reported != implied:
        errors.append(("counters", f"run file reports {reported}, rounds imply {implied}"))
    return errors


def run_files(results_dir: str) -> list[str]:
    out = []
    for base, _, files in os.walk(results_dir):
        out.extend(
            os.path.join(base, f) for f in files
            if f.endswith(".json") and base != results_dir
        )
    return sorted(out)


def check_runs(results_dir: str, worlds: dict[str, WorldIndex], calls: dict) -> tuple[list, dict]:
    """Check every run file of a cold pass.

    calls maps search_key(config, question id) to the per-kind counts seen
    at the backend boundary.  Returns (errors, totals), totals counting the
    run files, their rounds and their round candidates.
    """
    errors: list[tuple[str, str]] = []
    totals = {"runs": 0, "rounds": 0, "candidates": 0}
    for path in run_files(results_dir):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        totals["runs"] += 1
        totals["rounds"] += len(run["rounds"])
        totals["candidates"] += sum(r["candidate_count"] for r in run["rounds"])
        cfg = run["config"]
        where = os.path.relpath(path, results_dir)
        found = []
        if cfg["reduction"] != "last":
            found.append(("score", "the score check needs reduction 'last'"))
        index = worlds[run["question_id"]]
        for cand in run["pool"]:
            found += check_candidate(cand, index, cfg["delimiters"][0], cfg["injection_template"])
        found += check_selection(run)
        found += check_budget(run)
        found += check_counters(run, calls.get(search_key(cfg, run["question_id"]), {}))
        errors += [(check, f"{where}: {msg}") for check, msg in found]
    return errors, totals


def search_key(config: dict, question_id: str) -> str:
    return json.dumps([config, question_id], sort_keys=True)


def tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            path = os.path.join(base, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def check_identical(got: dict[str, bytes], want: dict[str, bytes], check: str, what: str) -> list[tuple[str, str]]:
    """Every file of want is present in got with the same bytes, and got has
    no others."""
    errors = []
    for name in sorted(set(got) | set(want)):
        if got.get(name) != want.get(name):
            state = "missing" if name not in got else "extra" if name not in want else "differs"
            errors.append((check, f"{what}: {name} {state}"))
    return errors
