"""Deterministic synthetic scripted-world generation.

Worlds produced here follow the scripted-world JSON schema: a weighted tree
whose nodes carry step text, a per-step reward, and a checkpoint answer, with
terminal leaves holding the natural final answer inside their step text.
Used to build test fixtures and runnable demos without any model server.
"""
from __future__ import annotations

import itertools
import random

from .core import DEFAULT_INJECTION_TEMPLATE

_WORDS = (
    "combine", "carry", "total", "split", "expand", "reduce", "check",
    "substitute", "compare", "align", "scale", "simplify",
)
_DELIMITER = "### Step"
_WEIGHTS = (1, 2, 3)
_DECOYS = ("9", "14", "x+1")


def _step_text(depth: int, tag: int, rng: random.Random) -> str:
    verb = rng.choice(_WORDS)
    noun = rng.choice(_WORDS)
    return f"{_DELIMITER} {depth}: {verb} the {noun} terms (v{tag})."


def _leaf_text(depth: int, tag: int, answer: str, rng: random.Random) -> str:
    verb = rng.choice(_WORDS)
    return f"{_DELIMITER} {depth}: {verb} and finish (v{tag}). {DEFAULT_INJECTION_TEMPLATE}{answer}."


def _node(step: str, weight: int, reward: float, answer: str,
          children: list[dict] | None = None, final: str | None = None,
          checkpoint_reward: float | None = None) -> dict:
    """A terminal leaf when `final` is given, otherwise an inner node over
    `children`; `checkpoint_reward` is left out when None."""
    node: dict = {"step": step, "weight": weight, "reward": reward,
                  "checkpoint_answer": answer, "terminal": final is not None}
    if final is not None:
        node["final_answer"] = final
    else:
        node["children"] = children
    if checkpoint_reward is not None:
        node["checkpoint_reward"] = checkpoint_reward
    return node


def _world(gold: str, root_answer: str, children: list[dict]) -> dict:
    return {"gold_answer": gold, "root": _node("", 1, 1.0, root_answer, children)}


def make_chain_world(answers: list[str], rewards: list[float], gold: str,
                     checkpoint_rewards: list[float | None] | None = None) -> dict:
    """Single chain: one node per step, leaf carries the natural answer.

    answers[i] is the checkpoint answer at step i+1; rewards[i] its step
    reward.  The leaf's final answer is its checkpoint answer, answers[-1].
    """
    if len(answers) != len(rewards) or not answers:
        raise ValueError("answers and rewards must be equal-length and non-empty")
    ckpt = checkpoint_rewards or [None] * len(answers)
    rng = random.Random(0)
    node = _node(
        _leaf_text(len(answers), 0, answers[-1], rng), 1, rewards[-1], answers[-1],
        final=answers[-1], checkpoint_reward=ckpt[-1],
    )
    for i in range(len(answers) - 2, -1, -1):
        node = _node(
            _step_text(i + 1, 0, rng), 1, rewards[i], answers[i], [node],
            checkpoint_reward=ckpt[i],
        )
    return _world(gold, "", [node])


def make_single_cluster_world(
    seed: int = 0, depth: int = 3, branching: int = 3, answer: str = "42"
) -> dict:
    """Every node answers the same checkpoint answer, so clustering always
    yields exactly one cluster.  Rewards are distinct to keep ordering
    tie-free."""
    rng = random.Random(seed)
    tags = itertools.count(1)

    def build(level: int) -> dict:
        tag = next(tags)
        reward = round(0.05 + 0.9 * rng.random(), 6)
        if level == depth:
            return _node(
                _leaf_text(level, tag, answer, rng), rng.choice(_WEIGHTS), reward, answer,
                final=answer,
            )
        return _node(
            _step_text(level, tag, rng), rng.choice(_WEIGHTS), reward, answer,
            [build(level + 1) for _ in range(branching)],
        )

    return _world(answer, answer, [build(1) for _ in range(branching)])


def make_random_world(seed: int, depth: int = 4, branching: int = 2, gold: str = "27",
                      ramp_checkpoint_rewards: bool = False) -> dict:
    """Branching world with mixed right/wrong checkpoint answers.

    With ramp_checkpoint_rewards, endpoint scores grow with depth, which makes
    early-stopping thresholds bite at different depths.
    """
    rng = random.Random(seed)
    answers = (gold,) + _DECOYS
    tags = itertools.count(1)

    def pick_answer(level: int) -> str:
        # Deeper steps are likelier to have settled on the gold answer.
        if rng.random() < 0.35 + 0.1 * level:
            return gold
        return rng.choice(answers)

    def ramp(level: int) -> float:
        base = 0.35 + 0.6 * level / depth
        return round(min(1.0, base + 0.05 * rng.random()), 6)

    def build(level: int) -> dict:
        tag = next(tags)
        reward = round(0.1 + 0.8 * rng.random(), 6)
        if level >= depth or (level > 1 and rng.random() < 0.15):
            final = gold if rng.random() < 0.6 else rng.choice(_DECOYS)
            return _node(
                _leaf_text(level, tag, final, rng), rng.choice(_WEIGHTS), reward, final,
                final=final,
            )
        # Arguments are evaluated in order, so the ramped checkpoint reward
        # is drawn after the whole subtree.
        return _node(
            _step_text(level, tag, rng), rng.choice(_WEIGHTS), reward, pick_answer(level),
            [build(level + 1) for _ in range(branching)],
            checkpoint_reward=ramp(level) if ramp_checkpoint_rewards else None,
        )

    return _world(gold, "", [build(1) for _ in range(branching)])


def make_suite(
    count: int = 20, seed: int = 11, depth: int = 6, branching: int = 2
) -> list[tuple[dict, dict]]:
    """(question, world) pairs with depth-ramped endpoint scores, suitable for
    early-stopping sweeps.  Question texts are distinct prompts."""
    out = []
    for i in range(count):
        gold = str(10 + 3 * i)
        world = make_random_world(
            seed=derive(seed, i),
            depth=depth,
            branching=branching,
            gold=gold,
            ramp_checkpoint_rewards=True,
        )
        question = {
            "id": f"q{i:03d}",
            "question": f"Problem {i}: reduce the expression and report the value.\n",
            "answer": gold,
        }
        out.append((question, world))
    return out


def derive(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index * 7919) % (2**31)
