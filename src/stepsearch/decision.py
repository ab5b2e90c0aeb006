"""Final-answer selection over a candidate pool.

Selectors implement three standard rules: best-of-n (argmax score),
weighted best-of-n (answer clusters ranked by summed score), and majority
vote.  All are deterministic: ties break toward natural candidates, then
earlier lineage.  The answer clustering that weighted best-of-n ranks is the
one the search's clustered survivor rule uses.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Candidate, Cluster, normalize_answer


@dataclass(frozen=True)
class Selection:
    answer: str
    winner: Candidate
    method: str
    from_checkpoint: bool


def _require_scored(pool: list[Candidate]) -> None:
    if not pool:
        raise ValueError("cannot select from an empty candidate pool")
    for i, c in enumerate(pool):
        if c.final_score is None:
            raise ValueError(f"candidate {i} is unscored")


def select_bon(pool: list[Candidate]) -> Selection:
    """Argmax of final_score; ties prefer natural endings, then lineage order."""
    _require_scored(pool)
    winner = min(pool, key=lambda c: (-c.final_score, c.order_key()))
    return Selection(winner.answer, winner, "bon", winner.from_checkpoint)


def _groups(keys: list[str]) -> dict[str, list[int]]:
    """Indices by key, keys in order of first appearance."""
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def rank_clusters(keys: list[str], scores: list[float]) -> list[Cluster]:
    """Group indices by answer key, the keys already normalized.

    Clusters are sorted by aggregate score (exact sum, no re-normalization)
    descending; ties break on the highest single member score, then on the
    lowest member index.
    """
    if len(keys) != len(scores):
        raise ValueError("answers and scores must be the same length")
    clusters = [
        Cluster(key, tuple(members), sum(scores[i] for i in members))
        for key, members in _groups(keys).items()
    ]
    clusters.sort(
        key=lambda c: (-c.aggregate, -max(scores[i] for i in c.members), c.members[0])
    )
    return clusters


def cluster_by_answer(answers: list[str], scores: list[float]) -> list[Cluster]:
    """rank_clusters over the normalized answers."""
    if not answers:
        raise ValueError("cannot cluster an empty candidate list")
    return rank_clusters([normalize_answer(a) for a in answers], scores)


def select_weighted_bon(pool: list[Candidate]) -> Selection:
    """Rank answers by summed candidate score; the winner is the top-scoring
    member of the winning answer group."""
    _require_scored(pool)
    scores = [c.final_score for c in pool]
    top = cluster_by_answer([c.answer for c in pool], scores)[0]
    winner = pool[min(top.members, key=lambda i: (-scores[i], i))]
    return Selection(top.answer_key, winner, "weighted_bon", winner.from_checkpoint)


def select_majority(pool: list[Candidate]) -> Selection:
    """Modal answer; ties go to the answer holding the earliest candidate.

    Scores are ignored for ranking answers, so unscored pools are accepted;
    the representative candidate is the best-scored member when scores exist,
    else the earliest member.
    """
    if not pool:
        raise ValueError("cannot select from an empty candidate pool")
    groups = _groups([normalize_answer(c.answer) for c in pool])
    ranked = sorted(
        groups.items(),
        key=lambda kv: (
            -len(kv[1]),
            min(pool[i].order_key() for i in kv[1]),
        ),
    )
    answer, members = ranked[0]
    winner = pool[
        min(
            members,
            key=lambda i: (
                -(pool[i].final_score if pool[i].final_score is not None else float("-inf")),
                pool[i].order_key(),
            ),
        )
    ]
    return Selection(answer, winner, "majority", winner.from_checkpoint)
