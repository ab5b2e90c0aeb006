"""Unit tests for domain types and pure text/score operations."""
from __future__ import annotations

import json
import math
import os
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stepsearch.core import (
    DEFAULT_DELIMITERS,
    DEFAULT_INJECTION_TEMPLATE,
    Candidate,
    CheckpointAnswer,
    ConfigError,
    Question,
    ReasoningPath,
    RoundRecord,
    RunResult,
    SearchConfig,
    Step,
    TokenStats,
    answers_equal,
    build_checkpoint_candidate,
    extract_final_answer,
    normalize_answer,
    reduce_scores,
    split_into_steps,
    write_json_atomic,
)

# ---------------------------------------------------------------------------
# normalize_answer / answers_equal
# ---------------------------------------------------------------------------


def test_normalize_spot_checks():
    assert normalize_answer(" 27. ") == "27"
    assert normalize_answer("\\boxed{3/6}") == "1/2"
    assert normalize_answer("Yes!") == "yes"
    assert normalize_answer("1,234") == "1234"
    assert normalize_answer("0.5") == normalize_answer("1/2")
    assert normalize_answer("") == ""


def test_empty_answers_equal_only_each_other():
    assert answers_equal("", "   ")
    assert answers_equal("...", "?!")
    assert not answers_equal("", "0")
    assert not answers_equal(" ", "a")


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@given(st.text(max_size=40), st.text(max_size=40))
def test_answers_equal_symmetric(a, b):
    assert answers_equal(a, b) == answers_equal(b, a)
    assert answers_equal(a, a)


@pytest.mark.parametrize("raw", ["\u0661\u0662", "\uff11\uff12"])
def test_normalize_non_ascii_digits_stay_text(raw):
    # Arabic-Indic and fullwidth "12": Fraction(str) reads both as 12.
    assert normalize_answer(raw) == raw


def test_normalize_underscores_are_not_digit_separators():
    assert normalize_answer("1_000") == "1_000"
    assert normalize_answer("1_000/4") == "1_000/4"


@pytest.mark.parametrize("raw", ["1e5000", "1e-5000"])
def test_normalize_huge_exponent_falls_back_to_text(raw):
    start = time.perf_counter()
    assert normalize_answer(raw) == raw
    assert time.perf_counter() - start < 1.0


def test_normalize_ignores_int_str_digit_limit():
    raws = ["1e599", "1e-599", "9" * 600, "1e600", "0." + "0" * 700 + "5"]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        strict = [normalize_answer(raw) for raw in raws]
        sys.set_int_max_str_digits(0)
        unlimited = [normalize_answer(raw) for raw in raws]
    finally:
        sys.set_int_max_str_digits(limit)
    assert strict == unlimited
    assert strict[0] == "1" + "0" * 599
    assert strict[3:] == raws[3:]


def test_normalize_signed_and_decimal_denominators():
    assert normalize_answer("1.5/2") == "3/4"
    assert normalize_answer("10/-4") == "-5/2"


@given(st.integers(-10**6, 10**6), st.integers(1, 999))
def test_equivalent_rationals_collapse(num, den):
    g = math.gcd(abs(num), den)
    scaled = f"{num * 3}/{den * 3}"
    assert answers_equal(f"{num}/{den}", scaled)
    canonical = normalize_answer(f"{num}/{den}")
    if den // g == 1:
        assert canonical == str(num // g if num >= 0 else -((-num) // g))
    else:
        assert "/" in canonical


@given(st.lists(st.text(max_size=12), max_size=40))
def test_normalize_cache_matches_the_uncached_function(raws):
    for raw in raws:
        assert normalize_answer(raw) == normalize_answer.__wrapped__(raw)


def test_uncached_normalize_ignores_int_str_digit_limit():
    # The cache would answer the second setting from the first.
    raws = ["1e599", "1e-599", "9" * 600, "1e600", "0." + "0" * 700 + "5"]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        strict = [normalize_answer.__wrapped__(raw) for raw in raws]
        sys.set_int_max_str_digits(0)
        unlimited = [normalize_answer.__wrapped__(raw) for raw in raws]
    finally:
        sys.set_int_max_str_digits(limit)
    assert strict == unlimited == [normalize_answer(raw) for raw in raws]


# ---------------------------------------------------------------------------
# extract_final_answer
# ---------------------------------------------------------------------------


def test_extract_after_template():
    text = "### Step 1: work.\n### Step 2: done. So, the answer is 27.\n"
    assert extract_final_answer(text) == "27."


def test_extract_uses_last_template_occurrence():
    text = "So, the answer is 1.\nmore\nSo, the answer is 2.\n"
    assert extract_final_answer(text) == "2."


def test_extract_boxed_fallback():
    assert extract_final_answer("steps... \\boxed{42} end") == "42"


def test_extract_last_line_fallback():
    assert extract_final_answer("first\n\nlast line") == "last line"
    assert extract_final_answer("") == ""


def test_extract_respects_custom_template():
    text = "Answer: 9\n"
    assert extract_final_answer(text, template="Answer: ") == "9"


# ---------------------------------------------------------------------------
# reduce_scores
# ---------------------------------------------------------------------------


def test_reduce_modes():
    scores = [0.2, 0.8, 0.5]
    assert reduce_scores(scores, "last") == 0.5
    assert reduce_scores(scores, "mean") == pytest.approx(0.5)
    assert reduce_scores(scores, "min") == 0.2
    assert reduce_scores(scores, "sum") == pytest.approx(1.5)
    assert reduce_scores(scores, "prod") == pytest.approx(0.08)


def test_reduce_rejects_empty_and_unknown():
    with pytest.raises(ValueError, match="empty"):
        reduce_scores([], "last")
    with pytest.raises(ValueError, match="unknown"):
        reduce_scores([0.5], "median")


@given(st.lists(st.floats(0, 1), min_size=1, max_size=10))
@example([0.7638756340333985] * 3)
def test_reduce_bounds(scores):
    assert reduce_scores(scores, "last") == scores[-1]
    assert min(scores) <= reduce_scores(scores, "mean") <= max(scores) + 1e-12
    assert reduce_scores(scores, "min") == min(scores)
    assert 0 <= reduce_scores(scores, "prod") <= 1


# ---------------------------------------------------------------------------
# split_into_steps
# ---------------------------------------------------------------------------


def test_split_basic():
    text = "### Step 1: a\n### Step 2: b\n"
    steps = split_into_steps(text, DEFAULT_DELIMITERS)
    assert [s.text for s in steps] == ["### Step 1: a\n", "### Step 2: b\n"]
    assert [s.index for s in steps] == [0, 1]


def test_split_preamble_and_no_delimiter():
    steps = split_into_steps("intro ### Step 1: x", DEFAULT_DELIMITERS)
    assert [s.text for s in steps] == ["intro ", "### Step 1: x"]
    assert split_into_steps("no markers here", DEFAULT_DELIMITERS)[0].text == "no markers here"
    assert split_into_steps("", DEFAULT_DELIMITERS) == []


def test_split_multiple_delimiters():
    steps = split_into_steps("A: x B: y A: z", ("A:", "B:"))
    assert [s.text for s in steps] == ["A: x ", "B: y ", "A: z"]


def test_split_rejects_empty_delimiters():
    with pytest.raises(ValueError):
        split_into_steps("text", ())


@given(
    st.lists(st.text(alphabet="ab \n", max_size=8), min_size=0, max_size=6),
    st.booleans(),
)
def test_split_lossless(chunks, leading):
    text = ("pre " if leading else "") + "".join(
        DEFAULT_DELIMITERS[0] + c for c in chunks
    )
    steps = split_into_steps(text, DEFAULT_DELIMITERS)
    assert "".join(s.text for s in steps) == text


# ---------------------------------------------------------------------------
# ReasoningPath
# ---------------------------------------------------------------------------


def _path() -> ReasoningPath:
    return ReasoningPath(
        question_id="q",
        steps=[Step(0, "### Step 1: a\n"), Step(1, "### Step 2: b\n")],
        lineage=[(0, 3), (1, 1)],
    )


def test_path_text_and_lineage():
    path = _path()
    assert path.text() == "### Step 1: a\n### Step 2: b\n"
    assert path.lineage_key() == (3, 1)


def test_path_status_transitions():
    path = _path()
    path.finish()
    with pytest.raises(ValueError):
        path.finish()


def test_path_checkpoint_recording():
    path = _path()
    answer = CheckpointAnswer.from_raw(1, "27.")
    assert answer.normalized == "27"
    path.record_checkpoint(answer)
    with pytest.raises(ValueError, match="already recorded"):
        path.record_checkpoint(CheckpointAnswer.from_raw(1, "9"))


def test_path_reduced_score_requires_scores():
    path = _path()
    with pytest.raises(ValueError):
        path.reduced_score("last")
    path.score_sequence = [0.3, 0.9]
    assert path.reduced_score("last") == 0.9


# ---------------------------------------------------------------------------
# Candidate and checkpoint completion
# ---------------------------------------------------------------------------


def test_build_checkpoint_candidate_composition():
    path = _path()
    answer = CheckpointAnswer.from_raw(0, "27")
    candidate = build_checkpoint_candidate(path, DEFAULT_INJECTION_TEMPLATE, answer)
    assert candidate.full_text == "### Step 1: a\nSo, the answer is 27"
    assert candidate.answer == "27"
    assert candidate.origin_step == 0
    assert candidate.lineage == (3,)
    assert candidate.from_checkpoint


def test_build_checkpoint_candidate_range_checks():
    path = _path()
    with pytest.raises(ValueError):
        build_checkpoint_candidate(
            path, DEFAULT_INJECTION_TEMPLATE, CheckpointAnswer.from_raw(2, "x")
        )
    with pytest.raises(ValueError):
        build_checkpoint_candidate(
            ReasoningPath(question_id="q"),
            DEFAULT_INJECTION_TEMPLATE,
            CheckpointAnswer.from_raw(0, "x"),
        )


def test_candidate_order_key_prefers_natural_then_lineage():
    natural = Candidate("t", "1", "natural", lineage=(2,), final_score=0.5)
    checkpoint = Candidate("t", "1", "checkpoint", origin_step=0, lineage=(1,), final_score=0.5)
    assert natural.order_key() < checkpoint.order_key()
    earlier = Candidate("t", "1", "natural", lineage=(1,), final_score=0.5)
    assert earlier.order_key() < natural.order_key()


def test_candidate_json_round_trip():
    candidate = Candidate(
        "text", "27", "checkpoint", origin_step=3, final_score=0.25,
        lineage=(1, 2), round_index=3, question_id="q",
    )
    again = Candidate.from_json_dict(candidate.to_json_dict())
    assert again == candidate


# ---------------------------------------------------------------------------
# SearchConfig
# ---------------------------------------------------------------------------


def test_config_defaults_are_valid():
    cfg = SearchConfig()
    assert cfg.branch_factor == 2
    assert cfg.delimiters == DEFAULT_DELIMITERS


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"n": 0}, "n"),
        ({"n": 3, "m": 2}, "n"),
        ({"n": 2, "m": 4}, "n"),
        ({"m": 0}, "m"),
        ({"max_steps": 0}, "max_steps"),
        ({"temperature": -0.1}, "temperature"),
        ({"top_p": 0.0}, "top_p"),
        ({"top_p": 1.5}, "top_p"),
        ({"tau": 1.2}, "tau"),
        ({"tau": -0.1}, "tau"),
        ({"reduction": "median"}, "reduction"),
        ({"strategy": "mcts"}, "strategy"),
        ({"selector": "argmax"}, "selector"),
        ({"delimiters": ()}, "delimiters"),
        ({"delimiters": ("",)}, "delimiters"),
        ({"injection_template": ""}, "injection_template"),
        ({"max_step_tokens": 0}, "max_step_tokens"),
    ],
)
def test_config_validation(kwargs, field):
    with pytest.raises(ConfigError) as err:
        SearchConfig(**kwargs)
    assert err.value.field == field


def test_config_divisibility_message_names_the_rule():
    with pytest.raises(ConfigError, match="N mod M = 0"):
        SearchConfig(n=6, m=4)


def test_config_json_round_trip_and_unknown_key():
    cfg = SearchConfig(n=8, m=4, tau=0.7, selector="majority")
    assert SearchConfig.from_json_dict(cfg.to_json_dict()) == cfg
    with pytest.raises(ConfigError, match="unknown"):
        SearchConfig.from_json_dict({"n": 4, "beam_width": 2})


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"temperature": "hot"}, "temperature"),
        ({"top_p": "0.5"}, "top_p"),
        ({"tau": True}, "tau"),
        ({"n": True, "m": 1}, "n"),
        ({"max_steps": 8.0}, "max_steps"),
        ({"seed": "1"}, "seed"),
        ({"cca_enabled": "false"}, "cca_enabled"),
        ({"cca_enabled": 0}, "cca_enabled"),
        ({"delimiters": "### Step"}, "delimiters"),
        ({"delimiters": ["### Step", 1]}, "delimiters"),
        ({"injection_template": 5}, "injection_template"),
    ],
)
def test_config_rejects_values_of_the_wrong_json_type(kwargs, field):
    with pytest.raises(ConfigError) as err:
        SearchConfig.from_json_dict(kwargs)
    assert err.value.field == field


# ---------------------------------------------------------------------------
# RunResult
# ---------------------------------------------------------------------------


def _result() -> RunResult:
    pool = [
        Candidate("a", "1", "natural", final_score=0.4, lineage=(0,)),
        Candidate("b", "2", "checkpoint", origin_step=0, final_score=0.9, lineage=(1,)),
    ]
    return RunResult(
        question_id="q",
        strategy="srca",
        pool=pool,
        selected_index=1,
        selection_method="bon",
        rounds=[RoundRecord(0, 1, 4, 2, [0, 1], 1, 3)],
        tokens=TokenStats(10, 2, 3, 12),
        config=SearchConfig().to_json_dict(),
        stopped_early=True,
        selected_trace=[{"index": 0, "text": "b"}],
    )


def test_run_result_selected_and_depth():
    result = _result()
    assert result.selected.answer == "2"
    assert result.selected.from_checkpoint
    assert result.depth == 1


def test_transcript_excludes_strategy_labels():
    data = _result().transcript_dict()
    assert "strategy" not in data
    assert "config" not in data
    assert "selection_method" not in data
    assert data["stopped_early"] is True


def test_run_result_json_round_trip():
    result = _result()
    again = RunResult.from_json_dict(result.to_json_dict())
    assert again.to_json_dict() == result.to_json_dict()
    assert again.selected.answer == "2"
    assert again.rounds[0].cluster_count == 2


def test_run_result_loader_rejects_unknown_and_missing_keys():
    data = _result().to_json_dict()
    with pytest.raises(ValueError, match="RunResult"):
        RunResult.from_json_dict({**data, "depth": 1})
    with pytest.raises(ValueError, match="RunResult"):
        RunResult.from_json_dict({k: v for k, v in data.items() if k != "stopped_early"})
    pool = [{k: v for k, v in data["pool"][0].items() if k != "lineage"}]
    with pytest.raises(ValueError, match="Candidate"):
        RunResult.from_json_dict({**data, "pool": pool, "selected_index": 0})
    rounds = [dict(data["rounds"][0], beam_width=2)]
    with pytest.raises(ValueError, match="RoundRecord"):
        RunResult.from_json_dict({**data, "rounds": rounds})


def test_question_and_step_are_frozen():
    with pytest.raises(AttributeError):
        Question("a", "b", "c").id = "x"
    with pytest.raises(AttributeError):
        Step(0, "t").text = "u"


# ---------------------------------------------------------------------------
# write_json_atomic
# ---------------------------------------------------------------------------

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False)
    | st.text()
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(), _json_values, max_size=6))
def test_write_json_atomic_writes_compact_sorted_json(tmp_path_factory, obj):
    path = str(tmp_path_factory.mktemp("json") / "out.json")
    write_json_atomic(path, obj)
    with open(path, "rb") as fh:
        written = fh.read()
    expected = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert written == expected.encode("utf-8")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == obj
    assert not os.path.exists(path + ".tmp")


def test_write_json_atomic_covers_edge_values(tmp_path):
    obj = {"é": ["ünï", [], {}], "": {}, "big": -(10**30), "f": [0.1, -0.0, 1e300]}
    path = str(tmp_path / "out.json")
    for data in (obj, {}):
        write_json_atomic(path, data)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == json.dumps(data, sort_keys=True, separators=(",", ":"))


def test_write_json_atomic_holds_one_record_at_a_time(tmp_path):
    data = _result().to_json_dict()
    candidate = data["pool"][0]
    data["pool"] = [dict(candidate, full_text=f"{i:06d}" + "x" * 10_000) for i in range(500)]
    text_size = sum(len(c["full_text"]) for c in data["pool"])
    assert text_size > 5_000_000
    path = str(tmp_path / "run.json")
    tracemalloc.start()
    try:
        write_json_atomic(path, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < text_size / 50
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == data
