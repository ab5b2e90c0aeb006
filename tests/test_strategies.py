"""Behavioral tests for the five search strategies on scripted worlds."""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace

import pytest

from stepsearch import (
    Cluster,
    Question,
    RunResult,
    ScriptedBackend,
    SearchConfig,
    cluster_by_answer,
    parse_method_label,
    parse_world,
    round_robin_select,
    run_search,
)
from stepsearch.strategies import (
    run_beam_search,
    run_dvts,
    run_greedy,
    run_independent,
    run_srca,
)
from stepsearch.worldgen import make_chain_world

# ---------------------------------------------------------------------------
# Clustering and round-robin selection
# ---------------------------------------------------------------------------


def test_cluster_by_answer_orders_by_aggregate():
    answers = ["6", "6", "6", "4", "4", "9"]
    scores = [0.5, 0.4, 0.3, 0.9, 0.2, 0.1]
    clusters = cluster_by_answer(answers, scores)
    assert [c.answer_key for c in clusters] == ["6", "4", "9"]
    assert clusters[0].members == (0, 1, 2)
    assert clusters[0].aggregate == pytest.approx(1.2)


def test_cluster_groups_equivalent_answer_forms():
    clusters = cluster_by_answer(["1/2", "0.5", "9"], [0.1, 0.1, 0.3])
    assert [c.answer_key for c in clusters] == ["9", "1/2"]
    assert clusters[1].members == (0, 1)


def test_cluster_tie_breaks():
    # Equal aggregate: higher best member wins.
    clusters = cluster_by_answer(["a", "a", "b"], [0.3, 0.3, 0.6])
    assert [c.answer_key for c in clusters] == ["b", "a"]
    # Equal aggregate and best member: earliest member index wins.
    clusters = cluster_by_answer(["a", "b"], [0.4, 0.4])
    assert [c.answer_key for c in clusters] == ["a", "b"]


def test_cluster_input_validation():
    with pytest.raises(ValueError):
        cluster_by_answer(["a"], [])
    with pytest.raises(ValueError):
        cluster_by_answer([], [])


def test_round_robin_cycles_and_skips_exhausted():
    scores = [0.5, 0.4, 0.3, 0.9, 0.2, 0.1]
    clusters = cluster_by_answer(["6", "6", "6", "4", "4", "9"], scores)
    assert round_robin_select(clusters, scores, 2) == [0, 3]
    assert round_robin_select(clusters, scores, 3) == [0, 3, 5]
    # Second lap takes each cluster's next-best member.
    assert round_robin_select(clusters, scores, 5) == [0, 3, 5, 1, 4]
    assert round_robin_select(clusters, scores, 6) == [0, 3, 5, 1, 4, 2]


def test_round_robin_tie_prefers_lowest_index():
    clusters = [Cluster("a", (0, 1), 0.8)]
    assert round_robin_select(clusters, [0.4, 0.4], 2) == [0, 1]


def test_round_robin_validation():
    clusters = [Cluster("a", (0,), 0.4)]
    with pytest.raises(ValueError):
        round_robin_select(clusters, [0.4], 2)
    with pytest.raises(ValueError):
        round_robin_select(clusters, [0.4], 0)


# ---------------------------------------------------------------------------
# Strategy runs on the deceptive fixture (hand-derived expectations)
# ---------------------------------------------------------------------------


def test_srca_rescues_via_checkpoint(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, strategy="srca", seed=0)
    result = run_srca(question, cfg, backend, backend)
    assert result.selected.answer == "27"
    assert result.selected.from_checkpoint
    assert result.selected.final_score == 0.7192
    naturals = [c for c in result.pool if not c.from_checkpoint]
    assert {(c.answer, c.final_score) for c in naturals} == {("9", 0.0212), ("27", 0.01)}
    # Clustered selection kept both answer routes through round 0.
    assert result.rounds[0].cluster_count == 2
    assert result.rounds[0].candidate_count == cfg.n
    for record in result.rounds[1:]:
        assert record.candidate_count == record.beams * cfg.branch_factor


def test_beam_collapses_onto_high_scoring_route(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, strategy="beam", cca_enabled=False, seed=0)
    result = run_beam_search(question, cfg, backend, backend)
    assert result.selected.answer == "9"
    assert result.selected.final_score == 0.0212
    assert all(not c.from_checkpoint for c in result.pool)
    assert {c.answer for c in result.pool} == {"9"}


def test_dvts_subtrees_also_collapse(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, strategy="dvts", cca_enabled=False, seed=0)
    result = run_dvts(question, cfg, backend, backend)
    assert result.selected.answer == "9"
    assert {c.answer for c in result.pool} == {"9"}
    assert result.rounds[0].beams == 2  # both subtrees live at round 0


def test_independent_keeps_every_route(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, strategy="independent",
                       cca_enabled=False, seed=0)
    result = run_independent(question, cfg, backend, backend)
    assert len(result.pool) == 4
    assert {c.answer for c in result.pool} == {"9", "27"}
    assert result.selected.answer == "9"  # best-of-n on the last-step score
    assert result.tokens.reward_calls == 4  # each path scored exactly once
    assert all(not c.from_checkpoint for c in result.pool)


def test_greedy_follows_max_weight_chain(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, strategy="greedy", cca_enabled=False, seed=0)
    result = run_greedy(question, cfg, backend, backend)
    assert result.selected.answer == "9"
    assert result.selected.final_score is None
    assert len(result.pool) == 1
    assert result.tokens.reward_calls == 0
    assert result.tokens.generator_calls == 6  # one per chain step
    repeat = run_greedy(question, cfg, backend, backend)
    assert json.dumps(repeat.transcript_dict()) == json.dumps(result.transcript_dict())


def test_runs_are_reproducible(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, seed=7)
    first = run_search(question, cfg, backend, backend)
    second = run_search(question, cfg, backend, backend)
    assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())


# ---------------------------------------------------------------------------
# Degeneracy identities
# ---------------------------------------------------------------------------


def test_single_cluster_srca_equals_beam(single_cluster):
    question, backend = single_cluster
    base = SearchConfig(n=6, m=2, max_steps=8, seed=1, cca_enabled=True)
    srca = run_srca(question, replace(base, strategy="srca"), backend, backend)
    beam = run_beam_search(question, replace(base, strategy="beam"), backend, backend)
    assert json.dumps(srca.transcript_dict(), sort_keys=True) == json.dumps(
        beam.transcript_dict(), sort_keys=True
    )


@pytest.mark.parametrize("cca", [False, True])
def test_dvts_with_one_subtree_equals_beam(single_cluster, cca):
    question, backend = single_cluster
    base = SearchConfig(n=4, m=1, max_steps=8, seed=2, cca_enabled=cca)
    dvts = run_dvts(question, replace(base, strategy="dvts"), backend, backend)
    beam = run_beam_search(question, replace(base, strategy="beam"), backend, backend)
    assert json.dumps(dvts.transcript_dict(), sort_keys=True) == json.dumps(
        beam.transcript_dict(), sort_keys=True
    )


# ---------------------------------------------------------------------------
# Checkpoint pooling, early stopping, forced completion
# ---------------------------------------------------------------------------


def _ramp_backend():
    """Single chain with endpoint scores rising by depth."""
    world = make_chain_world(
        answers=["5", "5", "5", "5", "5"],
        rewards=[0.3, 0.4, 0.5, 0.6, 0.7],
        gold="5",
        checkpoint_rewards=[0.3, 0.55, 0.75, 0.95, None],
    )
    question = Question("ramp", "Ramp question\n", "5")
    return question, ScriptedBackend.for_question(question.text, parse_world(world))


def test_early_stopping_cuts_depth_and_sets_flag():
    question, backend = _ramp_backend()
    full = run_search(
        question, SearchConfig(n=2, m=1, max_steps=10, tau=1.0, seed=0), backend, backend
    )
    stopped = run_search(
        question, SearchConfig(n=2, m=1, max_steps=10, tau=0.7, seed=0), backend, backend
    )
    assert not full.stopped_early
    assert stopped.stopped_early
    assert stopped.depth < full.depth
    assert stopped.rounds[-1].selected == []
    # The stopping round's pool already holds the over-threshold candidate.
    assert max(c.final_score for c in stopped.pool) > 0.7


def test_early_stopping_prefix_consistent():
    """Runs at two thresholds agree on every round before the earlier stop."""
    question, backend = _ramp_backend()
    lo = run_search(
        question, SearchConfig(n=2, m=1, max_steps=10, tau=0.5, seed=0), backend, backend
    )
    hi = run_search(
        question, SearchConfig(n=2, m=1, max_steps=10, tau=0.9, seed=0), backend, backend
    )
    assert lo.depth <= hi.depth
    for mine, theirs in zip(lo.rounds[:-1], hi.rounds[: lo.depth - 1]):
        assert mine.to_json_dict() == theirs.to_json_dict()


def test_step_cap_forces_checkpoint_completion():
    question, backend = _ramp_backend()
    cfg = SearchConfig(n=2, m=1, max_steps=2, strategy="beam", cca_enabled=False, seed=0)
    result = run_search(question, cfg, backend, backend)
    assert result.depth == 2
    assert len(result.pool) == 1
    assert result.pool[0].from_checkpoint
    assert result.pool[0].answer == "5"
    assert result.pool[0].final_score is not None


def test_pool_orders_naturals_before_checkpoints(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, seed=0)
    result = run_search(question, cfg, backend, backend)
    origins = [c.origin for c in result.pool]
    first_checkpoint = origins.index("checkpoint")
    assert all(o == "natural" for o in origins[:first_checkpoint])
    assert all(o == "checkpoint" for o in origins[first_checkpoint:])
    rounds = [c.round_index for c in result.pool if c.from_checkpoint]
    assert rounds == sorted(rounds)


def test_srca_without_cca_keeps_diverse_selection(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, strategy="srca", cca_enabled=False, seed=0)
    result = run_search(question, cfg, backend, backend)
    # Clustered selection still protects route b, so its natural ending stays.
    assert {c.answer for c in result.pool} == {"9", "27"}
    assert all(not c.from_checkpoint for c in result.pool)
    assert result.rounds[0].pooled_checkpoint == 0
    assert result.rounds[0].cluster_count == 2


def test_selected_trace_joins_endpoint_scores(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(n=4, m=2, max_steps=8, seed=0)
    result = run_search(question, cfg, backend, backend)
    trace = result.selected_trace
    assert trace[-1]["index"] == 4
    assert trace[-1]["endpoint_score"] == 0.7192
    assert trace[-1]["checkpoint_answer"] == "27"
    assert trace[0]["step_score"] == 0.62


def test_strategy_runner_rejects_mismatched_config(deceptive):
    question, backend = deceptive
    cfg = SearchConfig(strategy="beam")
    with pytest.raises(ValueError, match="expected 'srca'"):
        run_srca(question, cfg, backend, backend)
    with pytest.raises(ValueError, match="expected 'dvts'"):
        run_dvts(question, cfg, backend, backend)
    with pytest.raises(ValueError, match="expected 'independent'"):
        run_independent(question, cfg, backend, backend)
    with pytest.raises(ValueError, match="expected 'greedy'"):
        run_greedy(question, SearchConfig(strategy="srca"), backend, backend)


# ---------------------------------------------------------------------------
# Golden run files
# ---------------------------------------------------------------------------

# SHA-256 over json.dumps(result.to_json_dict(), sort_keys=True) of every
# smoke question, for each (n, m) shape and search seed in order.  A change
# to the engine that moves one byte of one run file, or one backend reply it
# asks for, moves the digest of its method.
_GOLDEN_SHAPES = [(4, 2), (6, 3), (4, 1), (4, 4)]
_GOLDEN_DIGESTS = {
    "greedy": "e129d014c9a33b4e34ce137e1ae75c5ef69e4e4e68143f08af5b5d8afe1f1664",
    "independent": "c93b032d9aac2961edfb106ed7898f70cec68f94013f0c0e248eaa6c57e672d9",
    "independent+cca": "571dfb2e97b278174424513e2cf1c0d41977b1c6ce71c8bc86eba3f73272be0a",
    "beam": "4b9f03993e7a2999dd37a04ce6f93f4c472f9d6052a08203c0480db705bfc6ce",
    "beam+cca": "d847da8a2d4a56c30b9e72b26b3202a91c9505570c6e44ba099b22b7e77e75bc",
    "dvts": "13cff10e9a48c98536fc297a371846a6d5afb9f6428760b07e0a7c1c63510b2a",
    "dvts+cca": "d2f893249d39e7abdd431b555a9a519f663627e359721f85384e324894666619",
    "srca": "89a6a2becc8b8c397c55b8be506bf1b2c23f3a02f15c4705ad4c7ad65d331f0e",
    "srca-cca": "a766b766aa80899411b2c6c7c9caad1cae7da488e4ff90d81f90863a9e631867",
    "srca@weighted_bon": "8c586ff22e573aa3da3e3c2cb9e29d63f5362665f2e1a37dcbcd651e712d81c1",
    "beam+cca@majority": "8e34611e2c9937fe27f8e8f07817676b8aad2872ae98ce5cf87c1c5d460dac7e",
}


@pytest.mark.parametrize("label", sorted(_GOLDEN_DIGESTS))
def test_run_files_match_golden_digests(smoke_suite, label):
    dataset, backend = smoke_suite
    digest = hashlib.sha256()
    for n, m in _GOLDEN_SHAPES:
        for seed in (0, 1):
            cfg = parse_method_label(label, SearchConfig(n=n, m=m, max_steps=8, seed=seed))
            for question in dataset.questions:
                result = run_search(question, cfg, backend, backend)
                digest.update(json.dumps(result.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == _GOLDEN_DIGESTS[label]


def test_golden_run_files_round_trip_through_run_result(smoke_suite):
    """Every golden method's run files load back into equal results, among
    them unscored greedy candidates, trace rows and, under a step cap of 2,
    forced completions."""
    dataset, backend = smoke_suite
    seen = set()
    for label in sorted(_GOLDEN_DIGESTS):
        for (n, m), max_steps in itertools.product(_GOLDEN_SHAPES, (2, 8)):
            cfg = parse_method_label(label, SearchConfig(n=n, m=m, max_steps=max_steps))
            for question in dataset.questions:
                result = run_search(question, cfg, backend, backend)
                data = json.loads(json.dumps(result.to_json_dict()))
                again = RunResult.from_json_dict(data)
                assert again == result
                assert again.to_json_dict() == data
                if any(c.final_score is None for c in again.pool):
                    seen.add("unscored")
                if not cfg.cca_enabled and any(c.from_checkpoint for c in again.pool):
                    seen.add("forced")
                if again.selected_trace:
                    seen.add("trace")
    assert seen == {"unscored", "forced", "trace"}
