"""The world generators still build the committed fixtures made from them
(scripts/make_fixtures.py), compared in memory."""
from __future__ import annotations

import json

from conftest import fixture_path

from stepsearch.worldgen import make_single_cluster_world, make_suite


def _canonical(data) -> str:
    # Dumped rather than compared with ==, which takes 1 for 1.0.
    return json.dumps(data, sort_keys=True)


def test_make_suite_reproduces_the_smoke_fixtures():
    pairs = make_suite(count=20, seed=11, depth=6, branching=2)
    with open(fixture_path("smoke.jsonl"), encoding="utf-8") as fh:
        questions = [json.loads(line) for line in fh if line.strip()]
    with open(fixture_path("smoke_worlds.json"), encoding="utf-8") as fh:
        worlds = json.load(fh)["worlds"]
    assert _canonical([q for q, _ in pairs]) == _canonical(questions)
    assert _canonical({q["id"]: w for q, w in pairs}) == _canonical(worlds)


def test_make_single_cluster_world_reproduces_its_fixture():
    world = make_single_cluster_world(seed=0, depth=3, branching=3, answer="42")
    with open(fixture_path("single_cluster.json"), encoding="utf-8") as fh:
        assert _canonical(json.load(fh)["world"]) == _canonical(world)
