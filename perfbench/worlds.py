"""Workload inputs: the smoke fixtures and the seeded deep worlds.

Worlds are plain dicts in the scripted-world schema (step, weight, reward,
checkpoint_answer, checkpoint_reward, terminal, final_answer, children).  A
deep world shares its nodes between parents: every node of one layer has the
whole next layer as its children, so a world of depth d holds 3 * d nodes
but 3 ** d distinct paths.  Such a world is a DAG, which parse_world would
expand into a tree, so the benchmark converts it to scripted nodes itself.
"""
from __future__ import annotations

import json
import os
import random
import re

# Every answer in the benchmark's worlds is already in the canonical form
# normalize_answer produces, so the checks can compare answers as text.
CANONICAL_ANSWER = re.compile(r"0|-?[1-9][0-9]*|[a-z][a-z0-9+]*")

SMOKE_DATASET = os.path.join("fixtures", "smoke.jsonl")
SMOKE_WORLDS = os.path.join("fixtures", "smoke_worlds.json")

DEEP_DEPTHS = (40, 80, 120, 160)
DEEP_WIDTH = 3

_VERBS = (
    "combine", "carry", "total", "split", "expand", "reduce", "check",
    "substitute", "compare", "align", "scale", "simplify",
)


def load_smoke(root: str) -> tuple[list[dict], dict[str, dict]]:
    """(question records, worlds by question id) of the smoke fixtures."""
    with open(os.path.join(root, SMOKE_DATASET), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(os.path.join(root, SMOKE_WORLDS), encoding="utf-8") as fh:
        worlds = json.load(fh)["worlds"]
    return records, {r["id"]: worlds[r["id"]] for r in records}


def _deep_world(rng: random.Random, depth: int, gold: str, decoys: tuple[str, ...]) -> dict:
    layer: list[dict] = []
    for level in range(depth, 0, -1):
        nodes = []
        for j in range(DEEP_WIDTH):
            # Deeper steps lean toward the gold answer, so clusters shift
            # from round to round.
            if rng.random() < 0.3 + 0.6 * level / depth:
                answer = gold
            else:
                answer = rng.choice(decoys)
            verb, noun = rng.choice(_VERBS), rng.choice(_VERBS)
            node = {
                "weight": rng.choice([1, 2, 3]),
                "reward": round(0.05 + 0.9 * rng.random(), 6),
                "checkpoint_answer": answer,
            }
            if level == depth:
                node["step"] = (
                    f"### Step {level}: {verb} and finish (v{level}.{j}). "
                    f"So, the answer is {answer}."
                )
                node["terminal"] = True
                node["final_answer"] = answer
            else:
                node["step"] = f"### Step {level}: {verb} the {noun} terms (v{level}.{j}).\n"
                node["terminal"] = False
                node["checkpoint_reward"] = round(0.05 + 0.9 * rng.random(), 6)
                node["children"] = layer
            nodes.append(node)
        layer = nodes
    root = {
        "step": "", "weight": 1, "reward": 1.0, "checkpoint_answer": "",
        "terminal": False, "children": layer,
    }
    return {"gold_answer": gold, "root": root}


def make_deep(seed: int) -> tuple[list[dict], dict[str, dict]]:
    """(question records, worlds by question id): one world per depth in
    DEEP_DEPTHS, with texts, weights, rewards and answers drawn from seed."""
    rng = random.Random(seed)
    records, worlds = [], {}
    for i, depth in enumerate(DEEP_DEPTHS):
        gold, *decoys = (str(v) for v in rng.sample(range(10, 1000), 3))
        qid = f"d{i:02d}"
        records.append({
            "id": qid,
            "question": f"Deep problem {i} at depth {depth}: reduce the expression.\n",
            "answer": gold,
        })
        worlds[qid] = _deep_world(rng, depth, gold, tuple(decoys))
    return records, worlds


def to_scripted(world: dict, node_cls, world_cls):
    """Build scripted nodes from a world dict, sharing what the dict shares."""
    built: dict[int, object] = {}
    lists: dict[int, list] = {}

    def build(node: dict):
        key = id(node)
        if key not in built:
            kids = node.get("children")
            if kids is None:
                children = []
            elif id(kids) in lists:
                children = lists[id(kids)]
            else:
                children = lists[id(kids)] = [build(c) for c in kids]
            built[key] = node_cls(
                step=node["step"],
                weight=float(node["weight"]),
                reward=float(node["reward"]),
                checkpoint_answer=node["checkpoint_answer"],
                terminal=node["terminal"],
                final_answer=node.get("final_answer"),
                checkpoint_reward=node.get("checkpoint_reward"),
                children=children,
            )
        return built[key]

    return world_cls(gold_answer=world["gold_answer"], root=build(world["root"]))


def answers_in(world: dict) -> set[str]:
    """Every checkpoint and final answer a world can produce.  The root's
    checkpoint answer is left out: no checkpoint is taken before a step."""
    seen: set[int] = set()
    found: set[str] = set()
    stack = list(world["root"]["children"])
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        found.add(node["checkpoint_answer"])
        if node.get("final_answer") is not None:
            found.add(node["final_answer"])
        stack.extend(node.get("children", []))
    return found
