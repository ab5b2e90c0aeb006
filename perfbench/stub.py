"""Loopback model server over scripted worlds, run in its own process.

Serves /v1/completions and /v1/score from the same scripted worlds the
in-process backend uses, after a fixed injected delay per request, and
reports each request's handling time (from the call into the handler to the
reply, the delay included) in the X-Handling-Ms header.  Prompts are framed
with the default step delimiter and injection template.  GET /healthz
answers once the worlds are loaded.  Prints "port <n>" on stdout when
listening, and exits when its parent process does.

Usage:
    python3 perfbench/stub.py --dataset D.jsonl --worlds W.json --delay-ms 2 [--nagle]
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from stepsearch import ScriptedBackend, SearchConfig, load_dataset, parse_world  # noqa: E402
from stepsearch.core import DEFAULT_DELIMITERS, DEFAULT_INJECTION_TEMPLATE  # noqa: E402

HANDLING_HEADER = "X-Handling-Ms"


def make_handler(backend: ScriptedBackend, delay_s: float, nagle: bool):
    def completions(payload: dict) -> dict:
        cfg = SearchConfig(
            temperature=payload["temperature"],
            top_p=payload["top_p"],
            seed=payload.get("seed", 0),
        )
        prompt = payload["prompt"]
        if prompt.endswith(DEFAULT_INJECTION_TEMPLATE):
            prefix = prompt[: -len(DEFAULT_INJECTION_TEMPLATE)]
            answer = backend.force_checkpoint_answer(prefix, cfg)
            return {"choices": [{"text": answer, "finish_reason": "stop"}]}
        delimiter = DEFAULT_DELIMITERS[0]
        if not prompt.endswith(delimiter):
            raise ValueError("prompt ends with neither the step delimiter nor the template")
        conts = backend.sample_continuations(prompt[: -len(delimiter)], payload["n"], cfg)
        return {"choices": [
            {"text": c.text, "finish_reason": "eos" if c.finished else "stop"}
            for c in conts
        ]}

    def score(payload: dict) -> dict:
        return {"scores": backend.score_steps(payload["question"], payload["steps"])}

    routes = {"/v1/completions": completions, "/v1/score": score}

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in two writes; with Nagle's algorithm on,
        # the second waits for the client's delayed ACK of the first.
        disable_nagle_algorithm = not nagle

        def _reply(self, status: int, body: bytes, started: float) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header(HANDLING_HEADER, repr((time.perf_counter() - started) * 1000.0))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            self._reply(200 if self.path == "/healthz" else 404, b"{}", time.perf_counter())

        def do_POST(self):
            started = time.perf_counter()
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            route = routes.get(self.path)
            if route is None:
                self._reply(404, b"{}", started)
                return
            try:
                data = route(payload)
            except (ValueError, RuntimeError) as exc:
                self._reply(500, json.dumps({"error": str(exc)}).encode(), started)
                return
            body = json.dumps(data).encode("utf-8")
            time.sleep(delay_s)
            self._reply(200, body, started)

        def log_message(self, *args):
            pass

    return Handler


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        # A client that closes its kept-alive connection is not an error.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--worlds", required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--nagle", action="store_true", help="leave Nagle's algorithm on")
    args = parser.parse_args(argv)

    dataset = load_dataset(args.dataset)
    with open(args.worlds, encoding="utf-8") as fh:
        specs = json.load(fh)["worlds"]
    backend = ScriptedBackend({q.text: parse_world(specs[q.id]) for q in dataset.questions})
    server = _Server(("127.0.0.1", 0), make_handler(backend, args.delay_ms / 1000.0, args.nagle))
    server.timeout = 0.2
    parent = os.getppid()
    print(f"port {server.server_port}", flush=True)
    try:
        while os.getppid() == parent:
            server.handle_request()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
