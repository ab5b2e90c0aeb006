"""Shared fixtures: fixture paths, scripted backends, a loopback HTTP stub,
acceptance summary."""
from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

from stepsearch import Question, ScriptedBackend, SearchConfig, parse_world
from stepsearch.core import DEFAULT_INJECTION_TEMPLATE

settings.register_profile("repo", deadline=None, max_examples=60)
settings.load_profile("repo")

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_world_fixture(name: str):
    """Load a {id, question, answer, world} fixture into (Question, world)."""
    with open(fixture_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    question = Question(data["id"], data["question"], data["answer"])
    return question, parse_world(data["world"])


@pytest.fixture(scope="session")
def deceptive():
    question, world = load_world_fixture("deceptive.json")
    return question, ScriptedBackend.for_question(question.text, world)


@pytest.fixture(scope="session")
def single_cluster():
    question, world = load_world_fixture("single_cluster.json")
    return question, ScriptedBackend.for_question(question.text, world)


@pytest.fixture(scope="session")
def smoke_suite():
    """The 20-question dataset with one backend over all of its worlds."""
    from stepsearch import load_dataset

    dataset = load_dataset(fixture_path("smoke.jsonl"))
    with open(fixture_path("smoke_worlds.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["worlds"]
    by_text = {
        q.text: parse_world(specs[q.id]) for q in dataset.questions
    }
    return dataset, ScriptedBackend(by_text)


class StubState:
    def __init__(self):
        self.requests: list[tuple[str, dict]] = []
        self.responses: dict[str, object] = {}
        self.fail_next = 0
        self.status = 200
        self.raw_body: bytes | None = None


def _make_stub_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            state.requests.append((self.path, payload))
            if state.fail_next > 0:
                state.fail_next -= 1
                self.close_connection = True
                self.connection.close()
                return
            body = state.raw_body
            if body is None:
                responder = state.responses.get(self.path)
                data = responder(payload) if callable(responder) else responder
                body = json.dumps(data).encode("utf-8")
            self.send_response(state.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


@pytest.fixture()
def stub_server():
    """(base URL, StubState) of a threaded loopback server whose replies
    come from state.responses, keyed by route."""
    state = StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_stub_handler(state))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}"
    yield url, state
    server.shutdown()
    server.server_close()


def scripted_http_responder(scripted: ScriptedBackend):
    """Adapt a scripted world to the two wire routes."""

    def completions(payload: dict) -> dict:
        cfg = SearchConfig(
            temperature=payload["temperature"],
            top_p=payload["top_p"],
            seed=payload.get("seed", 0),
        )
        prompt = payload["prompt"]
        if prompt.endswith(DEFAULT_INJECTION_TEMPLATE):
            prefix = prompt[: -len(DEFAULT_INJECTION_TEMPLATE)]
            raw = scripted.force_checkpoint_answer(prefix, cfg)
            return {"choices": [{"text": raw, "finish_reason": "stop"}]}
        assert prompt.endswith("### Step")
        prefix = prompt[: -len("### Step")]
        conts = scripted.sample_continuations(prefix, payload["n"], cfg)
        return {
            "choices": [
                {"text": c.text, "finish_reason": "eos" if c.finished else "stop"}
                for c in conts
            ]
        }

    def score(payload: dict) -> dict:
        return {"scores": scripted.score_steps(payload["question"], payload["steps"])}

    return completions, score


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion."""
    passed = terminalreporter.stats.get("passed", [])
    failed = terminalreporter.stats.get("failed", [])
    rows = []
    for report, status in [(r, "PASS") for r in passed] + [(r, "FAIL") for r in failed]:
        if "test_acceptance" in report.nodeid:
            rows.append((report.nodeid.split("::")[-1], status))
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(rows):
            terminalreporter.write_line(f"{status}: {name}")
