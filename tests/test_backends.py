"""Tests for scripted worlds, the HTTP clients, and record/replay."""
from __future__ import annotations

import importlib.util
import json
import os
import random
import sys
import threading
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsearch import (
    Question,
    RequestCache,
    ScriptedBackend,
    ScriptedWorld,
    SearchConfig,
    parse_world,
    run_search,
)
from stepsearch.backends import (
    ENV_GENERATOR_URL,
    ENV_REWARD_URL,
    PREFIX_CACHE_ENTRIES,
    GeneratorRequest,
    HttpGenerator,
    HttpReward,
    MissingEnvError,
    ProtocolError,
    TransportError,
    ScriptedNode,
    WorldError,
    derive_seed,
    load_scripted_world,
)
from stepsearch.core import DEFAULT_INJECTION_TEMPLATE
from stepsearch.harness import parse_method_label

from conftest import load_world_fixture, scripted_http_responder

# ---------------------------------------------------------------------------
# derive_seed / GeneratorRequest
# ---------------------------------------------------------------------------


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(0, "prefix", 1) == derive_seed(0, "prefix", 1)
    assert derive_seed(0, "prefix", 1) != derive_seed(0, "prefix", 2)
    assert derive_seed(0, "prefix", 1) != derive_seed(1, "prefix", 1)
    assert 0 <= derive_seed("anything") < 2**64


def test_generator_request_payload_order_and_optional_seed():
    request = GeneratorRequest(
        prompt="p", n=2, max_tokens=64, temperature=0.5, top_p=0.9,
        stop=("### Step",), seed=7,
    )
    payload = request.to_payload("mymodel")
    assert list(payload) == [
        "model", "prompt", "n", "max_tokens", "temperature", "top_p", "stop", "seed",
    ]
    assert payload["model"] == "mymodel"
    assert payload["stop"] == ["### Step"]
    no_seed = GeneratorRequest(prompt="p").to_payload("m")
    assert "seed" not in no_seed


# ---------------------------------------------------------------------------
# World parsing
# ---------------------------------------------------------------------------


def _leaf(step="### Step 2: done. So, the answer is 1.\n", **kw):
    node = {
        "step": step,
        "weight": 1,
        "reward": 0.5,
        "checkpoint_answer": "1",
        "terminal": True,
        "final_answer": "1",
    }
    node.update(kw)
    return node


def _world(**root_kw):
    root = {
        "step": "",
        "weight": 1,
        "reward": 1.0,
        "checkpoint_answer": "",
        "terminal": False,
        "children": [
            {
                "step": "### Step 1: go.\n",
                "weight": 1,
                "reward": 0.5,
                "checkpoint_answer": "1",
                "terminal": False,
                "children": [_leaf()],
            }
        ],
    }
    root.update(root_kw)
    return {"gold_answer": "1", "root": root}


def test_parse_world_happy_path():
    world = parse_world(_world())
    assert world.gold_answer == "1"
    assert world.root.children[0].children[0].terminal


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda w: w.update(extra=1), "unknown world keys"),
        (lambda w: w.update(gold_answer=""), "gold_answer"),
        (lambda w: w.pop("root"), "root"),
        (lambda w: w["root"].update(step="x"), "root step must be the empty string"),
        (lambda w: w["root"].update(weight=0), "weight"),
        (lambda w: w["root"].update(reward=1.5), "reward"),
        (lambda w: w["root"]["children"][0].update(step=""), "non-empty"),
        (lambda w: w["root"]["children"][0].update(checkpoint_reward=-0.2), "checkpoint_reward"),
        (lambda w: w["root"]["children"][0].update(unknown_key=1), "unknown node keys"),
        (lambda w: w["root"]["children"][0]["children"][0].update(final_answer=""), "final_answer"),
        (lambda w: w["root"]["children"][0]["children"][0].update(children=[_leaf()]), "children"),
        (lambda w: w["root"]["children"][0].update(final_answer="1"), "only valid on terminal"),
        (lambda w: w["root"]["children"][0].update(terminal=True, children=[]),
         "terminal node needs"),
        (lambda w: w["root"].update(terminal=True, children=[], final_answer="1"),
         "must not be terminal"),
    ],
)
def test_parse_world_validation(mutate, message):
    spec = _world()
    mutate(spec)
    with pytest.raises(WorldError, match=message):
        parse_world(spec)


def test_parse_world_rejects_duplicate_siblings():
    spec = _world()
    child = spec["root"]["children"][0]
    spec["root"]["children"].append(json.loads(json.dumps(child)))
    with pytest.raises(WorldError, match="duplicate sibling"):
        parse_world(spec)


def test_load_scripted_world_reports_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(WorldError, match="bad.json"):
        load_scripted_world(str(path))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_world()), encoding="utf-8")
    assert load_scripted_world(str(good)).gold_answer == "1"


# ---------------------------------------------------------------------------
# ScriptedBackend
# ---------------------------------------------------------------------------


@pytest.fixture()
def backend():
    question, world = load_world_fixture("deceptive.json")
    return question, ScriptedBackend.for_question(question.text, world)


def test_sampling_is_deterministic(backend):
    question, scripted = backend
    cfg = SearchConfig(seed=5)
    first = scripted.sample_continuations(question.text, 4, cfg)
    second = scripted.sample_continuations(question.text, 4, cfg)
    assert first == second
    shifted = scripted.sample_continuations(question.text, 4, SearchConfig(seed=6))
    assert isinstance(shifted, list)


def test_temperature_zero_takes_max_weight(backend):
    question, scripted = backend
    cfg = SearchConfig(temperature=0.0)
    out = scripted.sample_continuations(question.text, 3, cfg)
    # Route a carries weight 2 vs route b's 1.
    assert all("route a" in c.text for c in out)


def test_continuations_strip_primary_delimiter(backend):
    question, scripted = backend
    out = scripted.sample_continuations(question.text, 2, SearchConfig())
    for cont in out:
        assert not cont.text.startswith("### Step")
        assert cont.text.startswith(" 1:")


def test_sampling_multinomial_frequencies():
    """Weighted draws land within 3 percentage points of (1/4, 1/4, 1/2)."""
    spec = {
        "gold_answer": "1",
        "root": {
            "step": "", "weight": 1, "reward": 1.0, "checkpoint_answer": "",
            "terminal": False,
            "children": [
                _leaf(step=f"### Step 1: option {tag}. So, the answer is 1.\n", weight=w)
                for tag, w in (("a", 1), ("b", 1), ("c", 2))
            ],
        },
    }
    scripted = ScriptedBackend.for_question("Q\n", parse_world(spec))
    out = scripted.sample_continuations("Q\n", 4000, SearchConfig(seed=13))
    counts = Counter(c.text.split("option ")[1][0] for c in out)
    assert abs(counts["a"] / 4000 - 0.25) < 0.03
    assert abs(counts["b"] / 4000 - 0.25) < 0.03
    assert abs(counts["c"] / 4000 - 0.50) < 0.03


def test_sampling_from_terminal_is_protocol_error(backend):
    question, scripted = backend
    prefix = (
        question.text
        + "### Step 1: Rearrange directly: 3x - x = 54 (route b).\n"
        + "### Step 2: Divide both sides by 2. So, the answer is 27.\n"
    )
    with pytest.raises(ProtocolError, match="finished"):
        scripted.sample_continuations(prefix, 1, SearchConfig())


def test_sampling_requires_known_question(backend):
    _, scripted = backend
    with pytest.raises(ProtocolError, match="question"):
        scripted.sample_continuations("unknown question\n", 1, SearchConfig())


def test_scripted_step_must_carry_delimiter():
    spec = _world()
    spec["root"]["children"][0]["step"] = "Step without marker\n"
    spec["root"]["children"][0]["children"][0]["step"] = "Step without marker\nmore"
    scripted = ScriptedBackend.for_question("Q\n", parse_world(spec))
    with pytest.raises(WorldError, match="primary"):
        scripted.sample_continuations("Q\n", 1, SearchConfig())


def test_force_checkpoint_answer(backend):
    question, scripted = backend
    prefix = question.text + "### Step 1: Rearrange directly: 3x - x = 54 (route b).\n"
    assert scripted.force_checkpoint_answer(prefix, SearchConfig()) == "27"
    with pytest.raises(ValueError):
        scripted.force_checkpoint_answer("", SearchConfig())


def test_score_steps_walk_and_endpoint(backend):
    question, scripted = backend
    step1 = "### Step 1: Write the relation as 3x - 54 = x and collect the x terms (route a).\n"
    step2 = "### Step 2: Move 54 across to get 2x = 54 but misread it as 2x = 18 (route a).\n"
    assert scripted.score_steps(question.text, [step1, step2]) == [0.62, 0.55]
    # Checkpoint completion on the last step falls back to the endpoint score.
    completed = step2 + DEFAULT_INJECTION_TEMPLATE + "9"
    assert scripted.score_steps(question.text, [step1, completed]) == [0.62, 0.55]
    with pytest.raises(ValueError):
        scripted.score_steps(question.text, [])
    with pytest.raises(ProtocolError, match="align"):
        scripted.score_steps(question.text, ["### Step 1: nonsense.\n"])


def test_score_steps_checkpoint_reward_override(backend):
    question, scripted = backend
    steps = [
        "### Step 1: Write the relation as 3x - 54 = x and collect the x terms (route a).\n",
        "### Step 2: Move 54 across to get 2x = 54 but misread it as 2x = 18 (route a).\n",
        "### Step 3: Halve the right side, keeping the misread constant (route a).\n",
        "### Step 4: Substitute the trial value back into 3x - 54 (route a).\n",
        "### Step 5: The check fails, so restore the constant: 2x = 54 gives x = 27 (route a).\n",
    ]
    completed = steps[:-1] + [steps[-1] + DEFAULT_INJECTION_TEMPLATE + "27"]
    scores = scripted.score_steps(question.text, completed)
    assert scores[-1] == 0.7192  # endpoint override, not the step reward 0.64


def test_longest_question_prefix_wins():
    world_a = parse_world(_world())
    spec_b = _world()
    spec_b["gold_answer"] = "2"
    world_b = parse_world(spec_b)
    scripted = ScriptedBackend({"Q\n": world_a, "Q\nQ2\n": world_b})
    assert scripted._split_prefix("Q\nQ2\n### Step 1")[0].gold_answer == "2"
    assert scripted._split_prefix("Q\n### Step 1")[0].gold_answer == "1"


@pytest.mark.parametrize("short_first", [True, False])
def test_longest_sibling_step_wins(short_first):
    """One sibling's step is a prefix of the other's: a prefix or a step
    resolves to the longer one whenever it matches."""
    short = _leaf(step="### Step 1: go", reward=0.2, checkpoint_reward=0.3,
                  checkpoint_answer="2", final_answer="2")
    long = _leaf(step="### Step 1: go on", reward=0.7, checkpoint_reward=0.8,
                 checkpoint_answer="7", final_answer="7")
    spec = _world(children=[short, long] if short_first else [long, short])
    scripted = ScriptedBackend.for_question("Q\n", parse_world(spec))
    cfg = SearchConfig()
    assert scripted.force_checkpoint_answer("Q\n### Step 1: go on", cfg) == "7"
    assert scripted.force_checkpoint_answer("Q\n### Step 1: go", cfg) == "2"
    assert scripted.score_steps("Q\n", ["### Step 1: go on"]) == [0.7]
    assert scripted.score_steps("Q\n", ["### Step 1: go"]) == [0.2]
    template = DEFAULT_INJECTION_TEMPLATE
    assert scripted.score_steps("Q\n", ["### Step 1: go on" + template + "7"]) == [0.8]
    assert scripted.score_steps("Q\n", ["### Step 1: go" + template + "2"]) == [0.3]


def _shared_world():
    """Two parents over one shared child list, and a third parent holding the
    same nodes in the other order."""

    def node(step, answer, reward, children=()):
        return ScriptedNode(
            step=step, weight=1.0, reward=reward, checkpoint_answer=answer,
            terminal=not children, final_answer=None if children else answer,
            children=children if isinstance(children, list) else list(children),
        )

    leaf_a = node("### Step 2: end a.\n", "5", 0.9)
    leaf_b = node("### Step 2: end b.\n", "6", 0.4)
    shared = [leaf_a, leaf_b]
    parents = [
        node("### Step 1: left.\n", "1", 0.3, shared),
        node("### Step 1: right.\n", "2", 0.6, shared),
        node("### Step 1: swapped.\n", "3", 0.5, [leaf_b, leaf_a]),
    ]
    root = ScriptedNode(step="", weight=1.0, reward=1.0, checkpoint_answer="",
                        terminal=False, children=parents)
    return ScriptedWorld("5", root), parents, shared


def test_shared_children_resolve_under_every_parent():
    world, parents, leaves = _shared_world()
    scripted = ScriptedBackend.for_question("Q\n", world)
    cfg = SearchConfig(seed=3)
    for parent in parents:
        for leaf in leaves:
            prefix = "Q\n" + parent.step + leaf.step
            assert scripted._resolve(prefix)[1] is leaf
            assert scripted.force_checkpoint_answer(prefix, cfg) == leaf.checkpoint_answer
            assert scripted.score_steps("Q\n", [parent.step, leaf.step]) == [
                parent.reward, leaf.reward,
            ]
        drawn = scripted.sample_continuations("Q\n" + parent.step, 8, cfg)
        assert {"### Step" + c.text for c in drawn} <= {leaf.step for leaf in leaves}
        assert all(c.finished for c in drawn)
    assert parents[0].children_by_step() == {leaf.step: leaf for leaf in leaves}


def test_duplicate_sibling_steps_resolve_to_the_first():
    """Worlds built from nodes directly are not checked for duplicate
    sibling steps; the first such sibling wins, as a scan would find it."""
    world, parents, leaves = _shared_world()
    twin = ScriptedNode(step=parents[0].step, weight=1.0, reward=0.99,
                        checkpoint_answer="9", terminal=False, children=leaves)
    world.root.children.append(twin)
    scripted = ScriptedBackend.for_question("Q\n", world)
    assert scripted._resolve("Q\n" + twin.step)[1] is parents[0]
    assert scripted.score_steps("Q\n", [twin.step]) == [parents[0].reward]


def test_misaligned_prefix_raises_align_error():
    world, parents, _ = _shared_world()
    scripted = ScriptedBackend.for_question("Q\n", world)
    cfg = SearchConfig()
    for prefix in [
        "Q\n### Step 1: lef",
        "Q\n### Step 1: left.\n### Step 2: nowhere.\n",
        "Q\n### Step 1: left.\n### Step 2: end a.\n### Step 3: past the leaf.\n",
    ]:
        with pytest.raises(ProtocolError, match="align"):
            scripted.force_checkpoint_answer(prefix, cfg)
        with pytest.raises(ProtocolError, match="align"):
            scripted.sample_continuations(prefix, 1, cfg)
    with pytest.raises(ProtocolError, match="align"):
        scripted.score_steps("Q\n", [parents[0].step, "### Step 2: nowhere.\n", "x"])


# ---------------------------------------------------------------------------
# ScriptedBackend's prefix cache
# ---------------------------------------------------------------------------


def _load(*parts: str):
    """A module of this repository outside the package, loaded by path."""
    path = os.path.join(os.path.dirname(__file__), "..", *parts)
    spec = importlib.util.spec_from_file_location(os.path.splitext(parts[-1])[0], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_equivalence = _load("scripts", "check_equivalence.py")
perfbench_worlds = _load("perfbench", "worlds.py")


def _node(step, answer, reward, children=()):
    return ScriptedNode(step=step, weight=1.0, reward=reward, checkpoint_answer=answer,
                        terminal=not children, final_answer=None if children else answer,
                        children=list(children))


def _outcome(call):
    """A call's reply, or the type and text of what it raised."""
    try:
        return call()
    except (ProtocolError, WorldError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("root_first", [False, True])
def test_a_cached_prefix_does_not_extend_past_a_longer_sibling(root_first):
    """A2's step is A's followed by that of A's child B, so the walk from the
    root takes A2 for A + B.  A memo of what sampling from A drew would
    answer B's checkpoint.  Asking at the root first caches A's prefix as an
    extension of the root's instead of a walk."""
    b = _node("### Step 2: b", "B", 0.2)
    a = _node("### Step 1: a", "A", 0.3, [b])
    a2 = _node("### Step 1: a### Step 2: b", "A2", 0.9)
    scripted = ScriptedBackend.for_question("Q\n", ScriptedWorld("A2", _node("", "", 1.0, [a, a2])))
    cfg = SearchConfig()
    if root_first:
        scripted.sample_continuations("Q\n", 2, cfg)
    [drawn] = scripted.sample_continuations("Q\n" + a.step, 1, cfg)
    assert cfg.delimiters[0] + drawn.text == b.step
    for _ in range(2):
        assert scripted.force_checkpoint_answer("Q\n" + a.step + b.step, cfg) == "A2"
        assert scripted._resolve("Q\n" + a.step + b.step, cfg.delimiters[0])[1] is a2
    assert scripted.score_steps("Q\n", [a.step]) == [0.3]
    assert scripted.score_steps("Q\n", [a.step, b.step]) == [0.3, 0.2]


def test_equal_twins_resolve_to_the_first_from_a_cached_parent():
    world, parents, leaves = _shared_world()
    twin = _node(parents[0].step, "9", 0.99, [leaves[1]])
    world.root.children.append(twin)
    scripted = ScriptedBackend.for_question("Q\n", world)
    cfg = SearchConfig()
    for _ in range(2):  # cold, then from what the first pass cached
        scripted.sample_continuations("Q\n", 4, cfg)
        assert scripted.force_checkpoint_answer("Q\n" + twin.step, cfg) == "1"
        prefix = "Q\n" + twin.step + leaves[0].step
        assert scripted._resolve(prefix, cfg.delimiters[0])[1] is leaves[0]
        assert scripted.score_steps("Q\n", [twin.step]) == [parents[0].reward]
        assert scripted.score_steps("Q\n", [twin.step, leaves[0].step]) == [
            parents[0].reward, leaves[0].reward,
        ]


def test_misaligned_requests_raise_the_same_error_once_their_ancestors_are_cached():
    world, parents, leaves = _shared_world()
    cfg = SearchConfig()
    warm = ScriptedBackend.for_question("Q\n", world)
    warm.sample_continuations("Q\n", 2, cfg)
    for parent in parents:
        warm.force_checkpoint_answer("Q\n" + parent.step, cfg)
        for leaf in parent.children:
            warm.force_checkpoint_answer("Q\n" + parent.step + leaf.step, cfg)
            warm.score_steps("Q\n", [parent.step, leaf.step])
    left, end_a = parents[0].step, leaves[0].step
    prefixes = [
        "Q\n### Step 1: lef",
        "Q\n" + left + "### Step 2: nowhere.\n",
        "Q\n" + left + end_a[:-2],
        "Q\n" + left + end_a + "### Step 3: past the leaf.\n",
    ]
    step_lists = [
        ["### Step 1: lef"],
        [left, "### Step 2: nowhere.\n"],
        [left, "### Step 2: nowhere.\n", "x"],
        [left, end_a, "### Step 3: past the leaf.\n"],
    ]
    calls = [
        call
        for prefix in prefixes
        for call in (partial(ScriptedBackend.force_checkpoint_answer, prefix=prefix, cfg=cfg),
                     partial(ScriptedBackend.sample_continuations, prefix=prefix, n=1, cfg=cfg))
    ]
    calls += [partial(ScriptedBackend.score_steps, question="Q\n", steps=s) for s in step_lists]
    for call in calls:
        fresh = _outcome(lambda: call(ScriptedBackend.for_question("Q\n", world)))
        assert fresh[0] is ProtocolError and "align" in fresh[1]
        assert _outcome(lambda: call(warm)) == fresh


def _tangled_worlds(seed: int) -> dict:
    """Two tangled worlds, under questions one of which is the other
    followed by a step of the other's world."""
    return {
        text: perfbench_worlds.to_scripted(spec, ScriptedNode, ScriptedWorld)
        for text, spec in check_equivalence.tangled_questions(2, seed)
    }


def _random_walk(worlds: dict, question: str, rng: random.Random) -> tuple[str, list[str]]:
    """(question, steps) of a random walk down question's world."""
    node, steps = worlds[question].root, []
    while node.children and len(steps) < 5:
        node = rng.choice(node.children)
        steps.append(node.step)
    return question, steps


def _random_request(walks: list, depths: list, rng: random.Random):
    """A request over the next prefix of one of walks, as a search asks for
    each prefix one step longer than the last; its last step is now and
    then cut short, overrun, or completed through a checkpoint answer."""
    i = rng.randrange(len(walks))
    question, steps = walks[i]
    kind = rng.choice(("sample", "checkpoint", "score"))
    # Prefixes start at the question itself, which starts the other one.
    steps = steps[: max(depths[i], kind == "score")]
    depths[i] = (depths[i] + 1) % (len(walks[i][1]) + 1)
    if steps and rng.random() < 0.15:
        steps[-1] = steps[-1][: rng.randint(1, len(steps[-1]))]
    if rng.random() < 0.1:
        steps.append("### Step x")
    cfg = SearchConfig(seed=rng.randint(0, 2))
    if kind == "score":
        if rng.random() < 0.3:
            steps[-1] += cfg.injection_template + "a1"
        return partial(ScriptedBackend.score_steps, question=question, steps=steps)
    prefix = question + "".join(steps)
    if kind == "sample":
        return partial(ScriptedBackend.sample_continuations, prefix=prefix,
                       n=rng.randint(1, 3), cfg=cfg)
    return partial(ScriptedBackend.force_checkpoint_answer, prefix=prefix, cfg=cfg)


@settings(max_examples=300)
@given(seed=st.integers(0, 10**6), stream=st.lists(st.integers(0, 2**32), min_size=1, max_size=80))
def test_a_backend_that_served_a_stream_answers_as_a_fresh_one(seed, stream):
    worlds = _tangled_worlds(seed)
    rng = random.Random(seed)
    questions = sorted(worlds)
    walks = [_random_walk(worlds, q, rng) for q in questions + [rng.choice(questions)]]
    depths = [0] * len(walks)
    warm = ScriptedBackend(worlds)
    for request_seed in stream:
        call = _random_request(walks, depths, random.Random(request_seed))
        assert _outcome(lambda: call(warm)) == _outcome(lambda: call(ScriptedBackend(worlds)))


def _entries(scripted: ScriptedBackend) -> int:
    return len(scripted._young) + len(scripted._old)


def _deep_stream():
    """(backend worlds, every request of srca and beam+cca searches over the
    benchmark's depth-40 deep world, each with a fresh backend's reply)."""
    records, specs = perfbench_worlds.make_deep(0)
    record = records[0]
    worlds = {record["question"]: perfbench_worlds.to_scripted(
        specs[record["id"]], ScriptedNode, ScriptedWorld)}
    question = Question(record["id"], record["question"], record["answer"])
    requests = []

    class Recording:
        def __init__(self, inner):
            self.inner = inner

        def sample_continuations(self, prefix, n, cfg):
            requests.append(partial(ScriptedBackend.sample_continuations, prefix=prefix, n=n, cfg=cfg))
            return self.inner.sample_continuations(prefix, n, cfg)

        def force_checkpoint_answer(self, prefix, cfg):
            requests.append(partial(ScriptedBackend.force_checkpoint_answer, prefix=prefix, cfg=cfg))
            return self.inner.force_checkpoint_answer(prefix, cfg)

        def score_steps(self, question, steps):
            requests.append(partial(ScriptedBackend.score_steps, question=question, steps=list(steps)))
            return self.inner.score_steps(question, steps)

    spy = Recording(ScriptedBackend(worlds))
    for label in ("srca", "beam+cca"):
        cfg = parse_method_label(label, SearchConfig(n=8, m=2, max_steps=40, seed=0))
        run_search(question, cfg, spy, spy)
    return worlds, [(call, call(ScriptedBackend(worlds))) for call in requests]


def test_the_cache_holds_at_most_two_generations():
    worlds, stream = _deep_stream()
    scripted = ScriptedBackend(worlds)
    sizes = []
    for call, _ in stream:
        call(scripted)
        sizes.append(_entries(scripted))
    assert max(sizes) == 2 * PREFIX_CACHE_ENTRIES


def test_threads_sharing_a_backend_get_a_fresh_backends_replies():
    """Eight threads replay the deep stream through one backend, each from
    another offset, switching threads as often as the interpreter allows."""
    worlds, stream = _deep_stream()
    scripted = ScriptedBackend(worlds)
    threads_n = 8
    wrong, sizes = [], []

    def replay(offset: int) -> None:
        for call, expected in stream[offset:] + stream[:offset]:
            if call(scripted) != expected:
                wrong.append(call)
            sizes.append(_entries(scripted))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=replay, args=(i * len(stream) // threads_n,))
            for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(sizes) == threads_n * len(stream)
    assert wrong == []
    # Each generation can gain one entry per thread storing at the moment
    # it fills.
    assert max(sizes) <= 2 * (PREFIX_CACHE_ENTRIES + threads_n)


# ---------------------------------------------------------------------------
# RequestCache
# ---------------------------------------------------------------------------


def test_request_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = RequestCache(path)
    key = RequestCache.key("completion", {"prompt": "p"})
    assert cache.get(key) is None
    cache.put(key, {"choices": []})
    cache.save()
    reloaded = RequestCache(path)
    assert reloaded.get(key) == {"choices": []}
    assert len(reloaded) == 1
    assert RequestCache.key("completion", {"prompt": "p"}) == key
    assert RequestCache.key("score", {"prompt": "p"}) != key



def test_request_cache_reads_indented_files_and_saves_compact_json(tmp_path):
    path = tmp_path / "cache.json"
    key = RequestCache.key("score", {"question": "q", "steps": ["s"]})
    entries = {key: {"scores": [0.5]}}
    path.write_text(json.dumps(entries, sort_keys=True, indent=1), encoding="utf-8")
    cache = RequestCache(str(path))
    assert cache.get(key) == {"scores": [0.5]}
    cache.save()
    assert path.read_text(encoding="utf-8") == json.dumps(
        entries, sort_keys=True, separators=(",", ":")
    )


@pytest.mark.parametrize("text", ["[1]", '{"k": [1]}', '"entries"', "null", '{"k": {}, "j": 2}'])
def test_request_cache_rejects_a_file_that_is_not_an_object_of_objects(tmp_path, text):
    path = tmp_path / "cache.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="must hold a JSON object of objects") as info:
        RequestCache(str(path))
    assert str(path) in str(info.value)


def test_request_cache_names_the_path_of_invalid_json(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text('{"k": ', encoding="utf-8")
    with pytest.raises(ValueError, match="is not valid JSON") as info:
        RequestCache(str(path))
    assert str(path) in str(info.value)

# ---------------------------------------------------------------------------
# HTTP clients against the threaded stub server (conftest.stub_server)
# ---------------------------------------------------------------------------


def test_http_generator_round_trip(stub_server):
    url, state = stub_server
    state.responses["/v1/completions"] = {
        "choices": [
            {"text": " 1: a.\n", "finish_reason": "stop"},
            {"text": " 1: b. So, the answer is 1.\n", "finish_reason": "eos"},
        ]
    }
    gen = HttpGenerator(url)
    out = gen.sample_continuations("Q\n", 2, SearchConfig(n=2, m=1, seed=3))
    assert [c.finished for c in out] == [False, True]
    path, payload = state.requests[0]
    assert path == "/v1/completions"
    assert payload["prompt"] == "Q\n### Step"
    assert payload["stop"] == ["### Step"]
    assert payload["seed"] == 3


def test_http_generator_checkpoint_prompt(stub_server):
    url, state = stub_server
    state.responses["/v1/completions"] = {
        "choices": [{"text": "27", "finish_reason": "stop"}]
    }
    gen = HttpGenerator(url)
    answer = gen.force_checkpoint_answer("Q\n### Step 1: x.\n", SearchConfig())
    assert answer == "27"
    _, payload = state.requests[0]
    assert payload["prompt"].endswith(DEFAULT_INJECTION_TEMPLATE)
    assert payload["n"] == 1
    assert payload["max_tokens"] == 32
    assert payload["stop"][0] == "\n"


def test_http_generator_choice_count_mismatch(stub_server):
    url, state = stub_server
    state.responses["/v1/completions"] = {"choices": [{"text": "x", "finish_reason": "stop"}]}
    with pytest.raises(ProtocolError, match="choices"):
        HttpGenerator(url).sample_continuations("Q\n", 2, SearchConfig())


def test_http_generator_bad_finish_reason(stub_server):
    url, state = stub_server
    state.responses["/v1/completions"] = {"choices": [{"text": "x", "finish_reason": "broke"}]}
    with pytest.raises(ProtocolError, match="finish_reason"):
        HttpGenerator(url).sample_continuations("Q\n", 1, SearchConfig())


def test_http_non_200_is_protocol_error(stub_server):
    url, state = stub_server
    state.status = 500
    state.responses["/v1/completions"] = {"oops": True}
    with pytest.raises(ProtocolError, match="500"):
        HttpGenerator(url).sample_continuations("Q\n", 1, SearchConfig())


def test_http_non_json_is_protocol_error(stub_server):
    url, state = stub_server
    state.raw_body = b"<html>not json</html>"
    with pytest.raises(ProtocolError, match="non-JSON"):
        HttpGenerator(url).sample_continuations("Q\n", 1, SearchConfig())


def test_http_retries_then_transport_error():
    gen = HttpGenerator("http://127.0.0.1:9", backoff_s=0.0)
    with pytest.raises(TransportError) as err:
        gen.sample_continuations("Q\n", 1, SearchConfig())
    assert err.value.attempts == 3


def test_http_retries_recover(stub_server):
    url, state = stub_server
    state.fail_next = 2
    state.responses["/v1/completions"] = {"choices": [{"text": "x", "finish_reason": "stop"}]}
    gen = HttpGenerator(url, backoff_s=0.0)
    out = gen.sample_continuations("Q\n", 1, SearchConfig())
    assert out[0].text == "x"
    assert len(state.requests) == 3


def test_http_reward_scores_and_clamping(stub_server):
    url, state = stub_server
    state.responses["/v1/score"] = {"scores": [0.5, 1.7, -0.2]}
    reward = HttpReward(url)
    scores = reward.score_steps("Q\n", ["a", "b", "c"])
    assert scores == [0.5, 1.0, 0.0]
    assert reward.clamp_warnings == 2


def test_http_reward_counts_clamps_from_many_threads(stub_server):
    url, state = stub_server
    state.responses["/v1/score"] = {"scores": [1.5, -0.5, 0.5, 2.0]}
    reward = HttpReward(url)
    workers, calls = 8, 10
    errors: list[Exception] = []

    def work():
        try:
            for _ in range(calls):
                assert reward.score_steps("Q\n", ["a", "b", "c", "d"]) == [1.0, 0.0, 0.5, 1.0]
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert reward.clamp_warnings == 3 * workers * calls


def test_http_reward_length_mismatch(stub_server):
    url, state = stub_server
    state.responses["/v1/score"] = {"scores": [0.5]}
    with pytest.raises(ProtocolError, match="mismatch"):
        HttpReward(url).score_steps("Q\n", ["a", "b"])


def test_http_reward_non_numeric(stub_server):
    url, state = stub_server
    state.responses["/v1/score"] = {"scores": ["high"]}
    with pytest.raises(ProtocolError, match="non-numeric"):
        HttpReward(url).score_steps("Q\n", ["a"])


def test_from_env(monkeypatch, stub_server):
    url, state = stub_server
    monkeypatch.delenv(ENV_GENERATOR_URL, raising=False)
    monkeypatch.delenv(ENV_REWARD_URL, raising=False)
    with pytest.raises(MissingEnvError):
        HttpGenerator.from_env()
    with pytest.raises(MissingEnvError):
        HttpReward.from_env()
    monkeypatch.setenv(ENV_GENERATOR_URL, url)
    monkeypatch.setenv(ENV_REWARD_URL, url)
    assert HttpGenerator.from_env().base_url == url
    assert HttpReward.from_env().base_url == url


def test_record_then_offline_replay(stub_server, tmp_path):
    url, state = stub_server
    state.responses["/v1/completions"] = {"choices": [{"text": "x", "finish_reason": "stop"}]}
    cache_path = str(tmp_path / "cache.json")
    recording = HttpGenerator(url, cache=RequestCache(cache_path))
    first = recording.sample_continuations("Q\n", 1, SearchConfig())
    recording.cache.save()
    hits_before = len(state.requests)

    offline = HttpGenerator("http://127.0.0.1:9", cache=RequestCache(cache_path), offline=True)
    replayed = offline.sample_continuations("Q\n", 1, SearchConfig())
    assert replayed == first
    assert len(state.requests) == hits_before  # nothing hit the wire
    with pytest.raises(ProtocolError, match="replay"):
        offline.sample_continuations("different\n", 1, SearchConfig())


# ---------------------------------------------------------------------------
# Full search over HTTP equals the scripted run, byte for byte
# ---------------------------------------------------------------------------


def test_http_run_matches_scripted_run(stub_server):
    url, state = stub_server
    question, world = load_world_fixture("deceptive.json")
    scripted = ScriptedBackend.for_question(question.text, world)
    completions, score = scripted_http_responder(scripted)
    state.responses["/v1/completions"] = completions
    state.responses["/v1/score"] = score

    cfg = SearchConfig(n=4, m=2, max_steps=8, seed=0)
    direct = run_search(question, cfg, scripted, scripted)
    over_http = run_search(question, cfg, HttpGenerator(url), HttpReward(url))
    assert json.dumps(over_http.transcript_dict(), sort_keys=True) == json.dumps(
        direct.transcript_dict(), sort_keys=True
    )
