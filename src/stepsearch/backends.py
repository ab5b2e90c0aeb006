"""Generation and reward providers.

Two interchangeable families:

* ScriptedBackend: a finite weighted tree standing in for both the policy
  model and the reward model.  Fully deterministic given (seed, request),
  regardless of call concurrency, because every sample derives its own RNG
  from (seed, prefix, sample index).
* HttpGenerator / HttpReward: JSON-over-HTTP clients for external servers,
  with bounded retries and an optional record/replay cache keyed by request
  hash.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import SearchConfig, write_json_atomic

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

ENV_GENERATOR_URL = "GENERATOR_URL"
ENV_REWARD_URL = "REWARD_URL"
ENV_TIMEOUT_MS = "REQUEST_TIMEOUT_MS"

CHECKPOINT_MAX_TOKENS = 32

FINISH_EOS = "eos"
FINISH_STOP = "stop"
FINISH_LENGTH = "length"
_FINISH_REASONS = (FINISH_EOS, FINISH_STOP, FINISH_LENGTH)


class TransportError(RuntimeError):
    """The backend could not be reached after the configured retries."""

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


class ProtocolError(RuntimeError):
    """The backend answered, but not in the documented shape."""


class WorldError(ValueError):
    """A scripted world file violates its schema."""


class MissingEnvError(RuntimeError):
    """A required environment variable is not set."""

    def __init__(self, name: str):
        super().__init__(f"environment variable {name} is not set")
        self.name = name


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from arbitrary labelled parts."""
    joined = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(joined.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class GeneratorRequest:
    """One completion request in wire order."""

    prompt: str
    n: int = 1
    max_tokens: int = 512
    temperature: float = 0.8
    top_p: float = 0.9
    stop: tuple[str, ...] = ()
    seed: int | None = None

    def to_payload(self, model: str) -> dict:
        payload = {
            "model": model,
            "prompt": self.prompt,
            "n": self.n,
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
            "top_p": self.top_p,
            "stop": list(self.stop),
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload


@dataclass(frozen=True)
class Continuation:
    """One sampled step: text without delimiters; finished marks end-of-sequence."""

    text: str
    finished: bool


# ---------------------------------------------------------------------------
# Scripted worlds
# ---------------------------------------------------------------------------

_NODE_KEYS = {
    "step",
    "weight",
    "reward",
    "checkpoint_answer",
    "checkpoint_reward",
    "terminal",
    "final_answer",
    "children",
}


@dataclass
class ScriptedNode:
    step: str
    weight: float
    reward: float
    checkpoint_answer: str
    terminal: bool
    final_answer: str | None = None
    checkpoint_reward: float | None = None
    children: list["ScriptedNode"] = field(default_factory=list)
    # Children by step text, and children longest step first, built on first
    # lookup.  They live on the node, so a node shared by several parents (a
    # DAG world) builds them once.
    _by_step: dict | None = field(default=None, init=False, repr=False, compare=False)
    _longest_first: tuple = field(default=(), init=False, repr=False, compare=False)

    @property
    def endpoint_reward(self) -> float:
        """Score of this step when a checkpoint answer terminates the path here."""
        return self.reward if self.checkpoint_reward is None else self.checkpoint_reward

    def children_by_step(self) -> dict[str, "ScriptedNode"]:
        """Children keyed by step text.  Of two siblings with the same step
        the first wins, as in a scan of children."""
        if self._by_step is None:
            self._index_children()
        return self._by_step

    def longest_first(self) -> tuple["ScriptedNode", ...]:
        """Children by step length, longest first, siblings of equal length in
        order: the first whose step a text starts with is its longest match."""
        if self._by_step is None:
            self._index_children()
        return self._longest_first

    def _index_children(self) -> None:
        by_step: dict[str, ScriptedNode] = {}
        for child in self.children:
            by_step.setdefault(child.step, child)
        self._longest_first = tuple(sorted(self.children, key=lambda c: -len(c.step)))
        self._by_step = by_step


@dataclass
class ScriptedWorld:
    gold_answer: str
    root: ScriptedNode


def _parse_node(data: dict, where: str, is_root: bool) -> ScriptedNode:
    if not isinstance(data, dict):
        raise WorldError(f"{where}: node must be an object")
    unknown = set(data) - _NODE_KEYS
    if unknown:
        raise WorldError(f"{where}: unknown node keys {sorted(unknown)}")
    step = data.get("step")
    if not isinstance(step, str):
        raise WorldError(f"{where}: step must be a string")
    if is_root and step != "":
        raise WorldError(f"{where}: root step must be the empty string")
    if not is_root and step == "":
        raise WorldError(f"{where}: non-root step text must be non-empty")
    weight = data.get("weight", 1)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool) or weight <= 0:
        raise WorldError(f"{where}: weight must be a positive number")
    reward = data.get("reward")
    if not isinstance(reward, (int, float)) or isinstance(reward, bool) or not 0 <= reward <= 1:
        raise WorldError(f"{where}: reward must be a number in [0, 1]")
    ckpt_reward = data.get("checkpoint_reward")
    if ckpt_reward is not None and (
        not isinstance(ckpt_reward, (int, float))
        or isinstance(ckpt_reward, bool)
        or not 0 <= ckpt_reward <= 1
    ):
        raise WorldError(f"{where}: checkpoint_reward must be a number in [0, 1]")
    answer = data.get("checkpoint_answer")
    if not isinstance(answer, str):
        raise WorldError(f"{where}: checkpoint_answer must be a string")
    terminal = data.get("terminal", False)
    if not isinstance(terminal, bool):
        raise WorldError(f"{where}: terminal must be a boolean")
    raw_children = data.get("children", [])
    if not isinstance(raw_children, list):
        raise WorldError(f"{where}: children must be a list")
    if terminal:
        final = data.get("final_answer")
        if not isinstance(final, str) or not final:
            raise WorldError(f"{where}: terminal node needs a non-empty final_answer")
        if raw_children:
            raise WorldError(f"{where}: terminal node cannot have children")
    else:
        final = data.get("final_answer")
        if final is not None:
            raise WorldError(f"{where}: final_answer is only valid on terminal nodes")
        if not raw_children:
            raise WorldError(f"{where}: non-terminal node needs children")
    children = [
        _parse_node(child, f"{where}/{i}", is_root=False)
        for i, child in enumerate(raw_children)
    ]
    seen_steps = set()
    for i, child in enumerate(children):
        if child.step in seen_steps:
            raise WorldError(f"{where}/{i}: duplicate sibling step text")
        seen_steps.add(child.step)
    return ScriptedNode(
        step=step,
        weight=float(weight),
        reward=float(reward),
        checkpoint_answer=answer,
        terminal=terminal,
        final_answer=final if terminal else None,
        checkpoint_reward=None if ckpt_reward is None else float(ckpt_reward),
        children=children,
    )


def parse_world(data: dict) -> ScriptedWorld:
    if not isinstance(data, dict):
        raise WorldError("world must be a JSON object")
    unknown = set(data) - {"gold_answer", "root"}
    if unknown:
        raise WorldError(f"unknown world keys {sorted(unknown)}")
    gold = data.get("gold_answer")
    if not isinstance(gold, str) or not gold:
        raise WorldError("gold_answer must be a non-empty string")
    if "root" not in data:
        raise WorldError("world needs a root node")
    root = _parse_node(data["root"], "root", is_root=True)
    if root.terminal:
        raise WorldError("root: must not be terminal")
    return ScriptedWorld(gold_answer=gold, root=root)


def load_scripted_world(path: str) -> ScriptedWorld:
    """Load and validate a scripted world JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorldError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return parse_world(data)
    except WorldError as exc:
        raise WorldError(f"{path}: {exc}") from exc


class ScriptedBackend:
    """Deterministic generator plus reward model over scripted worlds.

    Holds one world per question text.  A prefix resolves by walking the
    world from the root along an offset into the prefix, without slicing
    it: at each node the child whose step is the longest prefix of the
    remaining text is taken, from the node's children sorted longest step
    first.  score_steps looks each step up in the node's step -> child dict.
    Both are built once per node on first use and kept on the node, so a
    world whose nodes are shared between parents (a DAG) builds them once
    per shared node.  Nothing is cached per prefix, so memory stays at the
    size of the worlds.  Resolution only sees prefixes the backend itself
    produced earlier in the run.
    """

    def __init__(self, worlds: dict[str, ScriptedWorld]):
        if not worlds:
            raise WorldError("ScriptedBackend needs at least one world")
        self._worlds = dict(worlds)
        # Longest question text first so one question being a prefix of
        # another cannot shadow it.
        self._ordered_questions = sorted(self._worlds, key=len, reverse=True)

    @classmethod
    def for_question(cls, question_text: str, world: ScriptedWorld) -> "ScriptedBackend":
        return cls({question_text: world})

    def world_for(self, question_text: str) -> ScriptedWorld:
        try:
            return self._worlds[question_text]
        except KeyError:
            raise ProtocolError(f"no scripted world for question {question_text!r}")

    def _split_prefix(self, prefix: str) -> tuple[ScriptedWorld, int]:
        """(world, offset of the first step) for the question prefix starts with."""
        for question in self._ordered_questions:
            if prefix.startswith(question):
                return self._worlds[question], len(question)
        raise ProtocolError("prefix does not start with any known question text")

    def _resolve(self, prefix: str) -> tuple[ScriptedWorld, ScriptedNode]:
        world, pos = self._split_prefix(prefix)
        node = world.root
        end = len(prefix)
        while pos < end:
            # The cached tuple is read directly: this loop runs once per step
            # of every prefix, and a method call per level costs as much as
            # the scan.
            for child in node._longest_first or node.longest_first():
                if prefix.startswith(child.step, pos):
                    break
            else:
                raise ProtocolError(
                    f"prefix does not align with the scripted world near {prefix[pos : pos + 40]!r}"
                )
            node = child
            pos += len(child.step)
        return world, node

    @staticmethod
    def _draw_child(node: ScriptedNode, cfg: SearchConfig, prefix: str, index: int) -> ScriptedNode:
        if cfg.temperature == 0:
            return max(node.children, key=lambda c: c.weight)
        rng = random.Random(derive_seed(cfg.seed, prefix, index))
        total = sum(c.weight for c in node.children)
        pick = rng.random() * total
        acc = 0.0
        for child in node.children:
            acc += child.weight
            if pick < acc:
                return child
        return node.children[-1]

    def sample_continuations(self, prefix: str, n: int, cfg: SearchConfig) -> list[Continuation]:
        if n < 1:
            raise ValueError("n must be >= 1")
        _, node = self._resolve(prefix)
        if node.terminal:
            raise ProtocolError("cannot sample continuations from a finished path")
        primary = cfg.delimiters[0]
        out = []
        for i in range(n):
            child = self._draw_child(node, cfg, prefix, i)
            if not child.step.startswith(primary):
                raise WorldError(
                    f"scripted step {child.step!r} does not start with the primary "
                    f"delimiter {primary!r}"
                )
            out.append(Continuation(text=child.step[len(primary):], finished=child.terminal))
        return out

    def force_checkpoint_answer(self, prefix: str, cfg: SearchConfig) -> str:
        if not prefix:
            raise ValueError("prefix must be non-empty")
        _, node = self._resolve(prefix)
        return node.checkpoint_answer

    def score_steps(self, question: str, steps: list[str]) -> list[float]:
        if not steps:
            raise ValueError("steps must be non-empty")
        world = self.world_for(question)
        node = world.root
        scores: list[float] = []
        for step_text in steps:
            exact = (node._by_step or node.children_by_step()).get(step_text)
            if exact is None:
                break
            scores.append(exact.reward)
            node = exact
        else:
            return scores
        i = len(scores)
        if i == len(steps) - 1:
            # A checkpoint-completed path ends with "<step><template><answer>";
            # score it as that step's endpoint.
            stub = next((c for c in node.longest_first() if steps[i].startswith(c.step)), None)
            if stub is not None:
                scores.append(stub.endpoint_reward)
                return scores
        raise ProtocolError(
            f"step {i} does not align with the scripted world: {steps[i][:40]!r}"
        )


# ---------------------------------------------------------------------------
# Record/replay cache
# ---------------------------------------------------------------------------


class RequestCache:
    """JSON file of request-hash -> response payload, for record/replay."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self._entries = json.load(fh)

    @staticmethod
    def key(kind: str, payload: dict) -> str:
        canonical = json.dumps({"kind": kind, "payload": payload}, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, key: str) -> dict | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, response: dict) -> None:
        with self._lock:
            self._entries[key] = response

    def save(self) -> None:
        with self._lock:
            write_json_atomic(self.path, self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------------
# HTTP clients
# ---------------------------------------------------------------------------


# Tries per request before a transport failure becomes a TransportError.
HTTP_ATTEMPTS = 3


class _HttpClient:
    """Posts JSON requests through one requests.Session, the caller's when
    given.  A search that overlaps its calls posts from several threads
    through that same session, whose connection pool is thread-safe.
    requests is imported when the first client is built, so runs over
    in-process backends never load the HTTP stack."""

    def __init__(
        self,
        base_url: str,
        timeout_ms: int = 30000,
        backoff_s: float = 0.25,
        session: requests.Session | None = None,
        cache: RequestCache | None = None,
        offline: bool = False,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_ms / 1000.0
        self.backoff_s = backoff_s
        self.cache = cache
        self.offline = offline
        import requests

        self._session = session or requests.Session()
        self._transport_errors = requests.RequestException

    @classmethod
    def from_env(cls, **kwargs):
        """A client for the URL in the environment variable cls.url_env."""
        url = os.environ.get(cls.url_env)
        if not url:
            raise MissingEnvError(cls.url_env)
        timeout = int(os.environ.get(ENV_TIMEOUT_MS, "30000"))
        return cls(url, timeout_ms=timeout, **kwargs)

    def _post(self, route: str, kind: str, payload: dict) -> dict:
        cache_key = None
        if self.cache is not None:
            cache_key = RequestCache.key(kind, payload)
            hit = self.cache.get(cache_key)
            if hit is not None:
                return hit
            if self.offline:
                raise ProtocolError(
                    f"no recorded response for {kind} request in replay mode"
                )
        if self.offline:
            raise ProtocolError("offline mode requires a request cache")
        url = self.base_url + route
        for attempt in range(1, HTTP_ATTEMPTS + 1):
            try:
                resp = self._session.post(url, json=payload, timeout=self.timeout_s)
            except self._transport_errors as exc:
                if attempt == HTTP_ATTEMPTS:
                    raise TransportError(f"cannot reach {url}: {exc}", attempts=attempt) from exc
                time.sleep(self.backoff_s * 2 ** (attempt - 1))
                continue
            if resp.status_code != 200:
                raise ProtocolError(f"{url} answered HTTP {resp.status_code}")
            try:
                data = resp.json()
            except ValueError as exc:
                raise ProtocolError(f"{url} answered non-JSON body") from exc
            if not isinstance(data, dict):
                raise ProtocolError(f"{url} answered a non-object body")
            if self.cache is not None and cache_key is not None:
                self.cache.put(cache_key, data)
            return data


class HttpGenerator(_HttpClient):
    """Completion client for POST {base_url}/v1/completions."""

    url_env = ENV_GENERATOR_URL

    def __init__(self, base_url: str, model: str = "default", **kwargs):
        super().__init__(base_url, **kwargs)
        self.model = model

    def complete(self, request: GeneratorRequest) -> list[Continuation]:
        payload = request.to_payload(self.model)
        data = self._post("/v1/completions", "completion", payload)
        choices = data.get("choices")
        if not isinstance(choices, list) or len(choices) != request.n:
            raise ProtocolError(
                f"expected {request.n} choices, got "
                f"{len(choices) if isinstance(choices, list) else type(choices).__name__}"
            )
        out = []
        for i, choice in enumerate(choices):
            if not isinstance(choice, dict) or "text" not in choice:
                raise ProtocolError(f"choice {i} has no text field")
            reason = choice.get("finish_reason")
            if reason not in _FINISH_REASONS:
                raise ProtocolError(f"choice {i} has unknown finish_reason {reason!r}")
            out.append(Continuation(text=choice["text"], finished=reason == FINISH_EOS))
        return out

    def sample_continuations(self, prefix: str, n: int, cfg: SearchConfig) -> list[Continuation]:
        request = GeneratorRequest(
            prompt=prefix + cfg.delimiters[0],
            n=n,
            max_tokens=cfg.max_step_tokens,
            temperature=cfg.temperature,
            top_p=cfg.top_p,
            stop=cfg.delimiters,
            seed=cfg.seed,
        )
        return self.complete(request)

    def force_checkpoint_answer(self, prefix: str, cfg: SearchConfig) -> str:
        if not prefix:
            raise ValueError("prefix must be non-empty")
        request = GeneratorRequest(
            prompt=prefix + cfg.injection_template,
            n=1,
            max_tokens=CHECKPOINT_MAX_TOKENS,
            temperature=cfg.temperature,
            top_p=cfg.top_p,
            stop=("\n",) + cfg.delimiters,
            seed=cfg.seed,
        )
        return self.complete(request)[0].text


class HttpReward(_HttpClient):
    """Step scoring client for POST {base_url}/v1/score."""

    url_env = ENV_REWARD_URL

    def __init__(self, base_url: str, **kwargs):
        super().__init__(base_url, **kwargs)
        # Searches that overlap their calls score from several threads.
        self._clamp_lock = threading.Lock()
        self.clamp_warnings = 0

    def score_steps(self, question: str, steps: list[str]) -> list[float]:
        if not steps:
            raise ValueError("steps must be non-empty")
        payload = {"question": question, "steps": list(steps)}
        data = self._post("/v1/score", "score", payload)
        scores = data.get("scores")
        if not isinstance(scores, list):
            raise ProtocolError("score response has no scores list")
        if len(scores) != len(steps):
            raise ProtocolError(
                f"score count mismatch: {len(steps)} steps, {len(scores)} scores"
            )
        out = []
        for s in scores:
            if not isinstance(s, (int, float)) or isinstance(s, bool):
                raise ProtocolError(f"non-numeric score {s!r}")
            val = float(s)
            if not 0 <= val <= 1:
                with self._clamp_lock:
                    self.clamp_warnings += 1
                log.warning("clamping out-of-range reward score %s into [0, 1]", val)
                val = min(1.0, max(0.0, val))
            out.append(val)
        return out

