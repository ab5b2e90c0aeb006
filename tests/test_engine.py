"""The search engine's bookkeeping against what crosses the backend boundary.

The engine keeps a running reward-token total per path and takes a checkpoint
candidate's step texts from its path instead of re-splitting its text.  These
tests recount the token counters from the requests and replies a wrapper
sees, and compare every checkpoint payload with a split of the candidate's
full text.
"""
from __future__ import annotations

import random
from collections import Counter
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stepsearch import (
    Candidate,
    CheckpointAnswer,
    Continuation,
    Question,
    ReasoningPath,
    ScriptedBackend,
    ScriptedWorld,
    SearchConfig,
    Step,
    TokenStats,
    run_search,
    split_into_steps,
    strategies,
)
from stepsearch.backends import ScriptedNode
from stepsearch.core import build_checkpoint_candidate, delimiter_pattern
from stepsearch.harness import parse_method_label

METHODS = ("greedy", "independent", "beam", "beam+cca", "dvts", "srca")
DAG_QUESTION = Question("dag", "Shared-node problem: reduce the expression.\n", "7")


def _dag_world(depth: int = 6, width: int = 3, seed: int = 0) -> ScriptedWorld:
    """A layered world whose nodes share one child list per layer: every node
    of a layer has the whole next layer as its children."""
    rng = random.Random(seed)
    layer: list[ScriptedNode] = []
    for level in range(depth, 0, -1):
        nodes = []
        for j in range(width):
            answer = rng.choice(["7", "8", "9"])
            terminal = level == depth
            tail = f" So, the answer is {answer}.\n" if terminal else "\n"
            nodes.append(ScriptedNode(
                step=f"### Step {level}: move {j} of {rng.choice(['a', 'bb', 'ccc'])}.{tail}",
                weight=float(rng.choice([1, 2, 3])),
                reward=round(0.05 + 0.9 * rng.random(), 4),
                checkpoint_answer=answer,
                terminal=terminal,
                final_answer=answer if terminal else None,
                checkpoint_reward=None if terminal else round(0.05 + 0.9 * rng.random(), 4),
                children=[] if terminal else layer,
            ))
        layer = nodes
    root = ScriptedNode(step="", weight=1.0, reward=1.0, checkpoint_answer="",
                        terminal=False, children=layer)
    return ScriptedWorld("7", root)


class _Recount:
    """Generator and reward that pass every call through and recount the
    token counters from the requests and replies they see."""

    def __init__(self, inner):
        self.inner = inner
        self.stats = TokenStats()

    def sample_continuations(self, prefix, n, cfg):
        out = self.inner.sample_continuations(prefix, n, cfg)
        self.stats.generator_calls += 1
        self.stats.generated_tokens += sum(len(c.text.split()) for c in out)
        return out

    def force_checkpoint_answer(self, prefix, cfg):
        raw = self.inner.force_checkpoint_answer(prefix, cfg)
        self.stats.generator_calls += 1
        self.stats.generated_tokens += len(raw.split())
        return raw

    def score_steps(self, question, steps):
        self.stats.reward_calls += 1
        self.stats.reward_tokens += sum(len(s.split()) for s in steps)
        return self.inner.score_steps(question, steps)


@pytest.mark.parametrize("method", METHODS)
def test_token_counters_equal_a_recount_at_the_boundary(method, smoke_suite):
    dataset, smoke_backend = smoke_suite
    cases = [(q, smoke_backend) for q in dataset.questions]
    cases.append((DAG_QUESTION, ScriptedBackend.for_question(DAG_QUESTION.text, _dag_world())))
    for max_steps in (3, 8):
        for seed in (0, 1):
            base = SearchConfig(n=4, m=2, max_steps=max_steps, seed=seed)
            cfg = parse_method_label(method, base)
            for question, backend in cases:
                spy = _Recount(backend)
                result = run_search(question, cfg, spy, spy)
                assert result.tokens == spy.stats, (question.id, max_steps, seed)


def test_checkpoint_steps_come_from_the_path_on_clean_worlds(smoke_suite, monkeypatch):
    """Where no delimiter hides inside a step, the template or an answer,
    checkpoint candidates are never re-split."""
    dataset, backend = smoke_suite
    splits = []

    def counting_split(text, delimiters):
        splits.append(text)
        return split_into_steps(text, delimiters)

    monkeypatch.setattr(strategies, "split_into_steps", counting_split)
    dag = ScriptedBackend.for_question(DAG_QUESTION.text, _dag_world())
    for method in ("srca", "beam+cca", "beam", "dvts"):
        cfg = parse_method_label(method, SearchConfig(n=4, m=2, max_steps=4, seed=0))
        run_search(DAG_QUESTION, cfg, dag, dag)
        for question in dataset.questions:
            run_search(question, cfg, backend, backend)
    assert splits == []


# Marks every checkpoint answer; nothing else the engine sends contains it.
_ANSWER_MARK = "¤"


class _Freeform:
    """Generator and reward over no world.  Continuations cycle through the
    given texts and checkpoint answers through the given answers; every
    step list sent for scoring is kept."""

    def __init__(self, texts: list[str], answers: list[str]):
        self.texts = texts
        self.answers = answers
        self.draws = 0
        self.sent: list[list[str]] = []

    def sample_continuations(self, prefix, n, cfg):
        out = []
        for _ in range(n):
            text = self.texts[self.draws % len(self.texts)]
            out.append(Continuation(text=text, finished=False))
            self.draws += 1
        return out

    def force_checkpoint_answer(self, prefix, cfg):
        self.draws += 1
        return self.answers[self.draws % len(self.answers)]

    def score_steps(self, question, steps):
        self.sent.append(list(steps))
        return [(len(s) * 37 % 101) / 100 for s in steps]


_ALPHABET = "#|ab\n S"
_DELIMITERS = st.one_of(
    st.sampled_from([("### Step",), ("#", "##"), ("##", "#"), ("a", "ab"), ("\n\n", "|")]),
    st.lists(st.text(_ALPHABET, min_size=1, max_size=3), min_size=1, max_size=3, unique=True)
    .map(tuple),
)


@given(
    delimiters=_DELIMITERS,
    template=st.text(_ALPHABET, min_size=1, max_size=6),
    texts=st.lists(st.text(_ALPHABET, max_size=8), min_size=1, max_size=5),
    answers=st.lists(st.text(_ALPHABET, max_size=4), min_size=1, max_size=3),
    method=st.sampled_from(["srca", "srca-cca", "beam", "beam+cca", "dvts", "dvts+cca",
                            "independent"]),
)
def test_checkpoint_payload_equals_a_split_of_the_full_text(
    delimiters, template, texts, answers, method
):
    backend = _Freeform(texts, [a + _ANSWER_MARK for a in answers])
    base = SearchConfig(n=4, m=2, max_steps=3, delimiters=delimiters,
                        injection_template=template, seed=0)
    cfg = parse_method_label(method, base)
    result = run_search(Question("q", "Q:", "1"), cfg, backend, backend)

    sent = [steps for steps in backend.sent if _ANSWER_MARK in "".join(steps)]
    for steps in sent:
        assert steps == [s.text for s in split_into_steps("".join(steps), delimiters)]
    scored = [c.full_text for c in result.pool if c.from_checkpoint]
    assert Counter("".join(steps) for steps in sent) == Counter(scored)


def test_trace_joins_the_first_matching_checkpoint_candidate():
    """Of two pooled checkpoint candidates built at the same step of the same
    path, the trace shows the endpoint score of the first in pool order."""
    path = ReasoningPath(
        question_id="q",
        steps=[Step(0, "### Step 1: a.\n"), Step(1, "### Step 2: b.\n")],
        score_sequence=[0.4, 0.5],
        lineage=[(0, 1), (1, 0)],
    )
    for i in range(2):
        path.record_checkpoint(CheckpointAnswer.from_raw(i, str(i)))
    first, second = (
        build_checkpoint_candidate(path, "So ", path.checkpoint_answers[1]) for _ in range(2)
    )
    first.final_score, second.final_score = 0.9, 0.1
    natural = Candidate(full_text=path.text(), answer="1", origin="natural",
                        final_score=0.2, lineage=path.lineage_key(), source=path)
    trace = strategies._build_trace(natural, [natural, first, second])
    assert [row["endpoint_score"] for row in trace] == [None, 0.9]
    trace = strategies._build_trace(natural, [second, natural, first])
    assert [row["endpoint_score"] for row in trace] == [None, 0.1]


# Delimiter sets where one delimiter starts another, or is longer than most
# steps; step texts, templates and answers built from delimiter pieces.
_PIECES = ("### Step", "### St", "###", "#", "a", " ", "\n")
_OVERLAPPING_DELIMITERS = st.sampled_from([
    ("### Step",),
    ("### Step", "###"),
    ("### Step", "### St"),
    ("###", "### Step"),
    # A match of the second can start a step early and run across a
    # one-character step.
    ("#", "a a##"),
    ("#", "a a# "),
    ("a", " aa"),
])
_piece_texts = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)


def _splits_at_steps(path: ReasoningPath, delimiters) -> bool:
    """The whole-text scan the engine's alignment flag stands for."""
    starts = [m.start() for m in delimiter_pattern(delimiters).finditer(path.text())]
    return starts == list(accumulate((len(s.text) for s in path.steps[:-1]), initial=0))


@given(
    delimiters=_OVERLAPPING_DELIMITERS,
    template=_piece_texts.filter(bool),
    texts=st.lists(_piece_texts, min_size=1, max_size=5),
    answers=st.lists(_piece_texts, min_size=1, max_size=3),
    method=st.sampled_from(["srca", "srca-cca", "beam", "beam+cca", "dvts", "dvts+cca",
                            "independent"]),
)
def test_alignment_flags_and_checkpoint_payloads_equal_whole_text_scans(
    delimiters, template, texts, answers, method
):
    """Every path the engine builds gets the flag a whole-text scan gives,
    whenever it is worked out, and every checkpoint candidate is sent and
    counted as a split of its full text."""
    built = []
    expand = strategies._Engine.expand

    def recording_expand(engine, *args):
        children = expand(engine, *args)
        built.extend((engine, child) for child in children)
        return children

    backend = _Freeform(texts, [a + _ANSWER_MARK for a in answers])
    spy = _Recount(backend)
    base = SearchConfig(n=4, m=2, max_steps=4, delimiters=delimiters,
                        injection_template=template, seed=0)
    with mock.patch.object(strategies._Engine, "expand", recording_expand):
        result = run_search(Question("q", "Q:", "1"), parse_method_label(method, base), spy, spy)

    for steps in backend.sent:
        if _ANSWER_MARK in "".join(steps):
            assert steps == [s.text for s in split_into_steps("".join(steps), delimiters)]
    assert result.tokens == spy.stats
    for engine, path in built:
        assert engine._splits_at_steps(path) == _splits_at_steps(path, delimiters)


@given(
    delimiters=_OVERLAPPING_DELIMITERS,
    template=_piece_texts.filter(bool),
    texts=st.lists(_piece_texts, min_size=1, max_size=8),
    raw=_piece_texts,
    known=st.lists(st.booleans(), min_size=8, max_size=8),
)
# A match across the one-character last step into the template, and one
# across the step before it into the last.
@example(("#", "a a# "), " ", ["a a", ""], "", [True] * 8)
@example(("#", "a a##"), "x", ["a a", "", "", "a"], "", [True] * 8)
def test_candidate_steps_equal_a_split_of_the_full_text(delimiters, template, texts, raw, known):
    """A chain of paths built as the engine builds them, each parent's flag
    passed on or, where known is false, not; each path's checkpoint
    candidate splits as its full text does."""
    cfg = SearchConfig(delimiters=delimiters, injection_template=template)
    engine = strategies._Engine(Question("q", "Q:", "1"), cfg, None, None)
    steps, parent_flag = [], True
    for k, text in enumerate(texts):
        steps = steps + [Step(k, delimiters[0] + text)]
        path = ReasoningPath("q", steps=steps)
        path._step_tokens = sum(len(s.text.split()) for s in steps)
        path._parent_aligned = parent_flag
        candidate = build_checkpoint_candidate(path, template, CheckpointAnswer.from_raw(k, raw))
        sent, tokens = engine._candidate_steps(candidate, raw)
        expected = [s.text for s in split_into_steps(candidate.full_text, delimiters)]
        assert sent == expected
        assert tokens == sum(len(t.split()) for t in expected)
        assert path._aligned == _splits_at_steps(path, delimiters)
        parent_flag = path._aligned if known[k] else None
