"""Final-answer selection rules over hand-built candidate pools."""
from __future__ import annotations

import pytest

from stepsearch import (
    ORIGIN_CHECKPOINT,
    ORIGIN_NATURAL,
    Candidate,
    select_bon,
    select_majority,
    select_weighted_bon,
)


def cand(answer, score, *, natural=True, lineage=(0,), step=None):
    return Candidate(
        full_text=f"... the answer is {answer}",
        answer=answer,
        origin=ORIGIN_NATURAL if natural else ORIGIN_CHECKPOINT,
        origin_step=step,
        final_score=score,
        lineage=lineage,
    )


# ---------------------------------------------------------------------------
# Best-of-n
# ---------------------------------------------------------------------------


def test_bon_picks_max_score():
    pool = [cand("1", 0.2), cand("2", 0.9), cand("3", 0.5)]
    sel = select_bon(pool)
    assert sel.answer == "2"
    assert sel.method == "bon"
    assert not sel.from_checkpoint


def test_bon_tie_prefers_natural_then_lineage():
    pool = [
        cand("chk", 0.7, natural=False, lineage=(0,), step=1),
        cand("nat", 0.7, natural=True, lineage=(5,)),
        cand("late", 0.7, natural=True, lineage=(6,)),
    ]
    assert select_bon(pool).answer == "nat"
    nat_only = [cand("b", 0.7, lineage=(2,)), cand("a", 0.7, lineage=(1,))]
    assert select_bon(nat_only).answer == "a"


def test_bon_rejects_bad_pools():
    with pytest.raises(ValueError, match="empty"):
        select_bon([])
    with pytest.raises(ValueError, match="unscored"):
        select_bon([cand("1", None)])


# ---------------------------------------------------------------------------
# Weighted best-of-n
# ---------------------------------------------------------------------------


def test_weighted_bon_ranks_answer_groups_by_sum():
    pool = [
        cand("9", 0.4, lineage=(0,)),
        cand("9", 0.4, lineage=(1,)),
        cand("27", 0.7, lineage=(2,)),
    ]
    sel = select_weighted_bon(pool)
    assert sel.answer == "9"  # 0.8 beats 0.7
    assert sel.winner.lineage == (0,)  # best member, earliest on ties
    assert sel.method == "weighted_bon"


def test_weighted_bon_groups_equivalent_forms():
    pool = [
        cand("1/2", 0.3, lineage=(0,)),
        cand("0.5", 0.3, lineage=(1,)),
        cand("7", 0.5, lineage=(2,)),
    ]
    sel = select_weighted_bon(pool)
    assert sel.answer == "1/2"
    assert sel.winner.answer == "1/2"


def test_weighted_bon_group_tie_breaks():
    # Equal sums: the group with the higher best member wins.
    pool = [
        cand("a", 0.3, lineage=(0,)),
        cand("a", 0.3, lineage=(1,)),
        cand("b", 0.6, lineage=(2,)),
    ]
    assert select_weighted_bon(pool).answer == "b"
    # Equal sums and equal best member: earliest pool index wins.
    pool = [cand("x", 0.4, lineage=(0,)), cand("y", 0.4, lineage=(1,))]
    assert select_weighted_bon(pool).answer == "x"


def test_weighted_bon_matches_bon_on_singleton_groups():
    pool = [
        cand("1", 0.2, lineage=(0,)),
        cand("2", 0.9, lineage=(1,)),
        cand("3", 0.5, lineage=(2,)),
    ]
    assert select_weighted_bon(pool).answer == select_bon(pool).answer


# ---------------------------------------------------------------------------
# Majority vote
# ---------------------------------------------------------------------------


def test_majority_picks_modal_answer():
    pool = [
        cand("9", 0.1, lineage=(0,)),
        cand("9", 0.1, lineage=(1,)),
        cand("27", 0.9, lineage=(2,)),
    ]
    sel = select_majority(pool)
    assert sel.answer == "9"
    assert sel.method == "majority"


def test_majority_tie_goes_to_earliest_candidate():
    pool = [
        cand("b", 0.1, lineage=(0,)),
        cand("a", 0.9, lineage=(1,)),
    ]
    assert select_majority(pool).answer == "b"


def test_majority_representative_is_best_scored_member():
    pool = [
        cand("9", 0.1, lineage=(0,)),
        cand("9", 0.8, lineage=(1,)),
        cand("27", 0.9, lineage=(2,)),
    ]
    sel = select_majority(pool)
    assert sel.winner.lineage == (1,)


def test_majority_accepts_unscored_pools():
    pool = [cand("5", None, lineage=(0,)), cand("5", None, lineage=(1,))]
    sel = select_majority(pool)
    assert sel.answer == "5"
    assert sel.winner.lineage == (0,)
    with pytest.raises(ValueError, match="empty"):
        select_majority([])
