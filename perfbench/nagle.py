"""Per-request cost of the loopback stub with Nagle's algorithm on and off.

Starts stub.py at zero injected delay, sends the same score request through
HttpReward on one kept-alive connection, and prints the median round trip
and the median of the round trip minus the stub's reported handling time.

Usage:
    python3 perfbench/nagle.py [--requests N]
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time

import run
from worlds import load_smoke


def probe(pkg, nagle: bool, requests: int) -> tuple[float, float]:
    records, worlds = load_smoke(run.ROOT)
    question = records[0]["question"]
    steps = [worlds[records[0]["id"]]["root"]["children"][0]["step"]]
    stub, url = run.start_stub(0.0, nagle=nagle)
    session = run.handling_session()
    try:
        reward = pkg.HttpReward(url, session=session)
        trips, overheads = [], []
        for _ in range(requests):
            start = time.perf_counter()
            reward.score_steps(question, steps)
            trip = (time.perf_counter() - start) * 1000.0
            trips.append(trip)
            overheads.append(trip - session.last_handling_ms)
    finally:
        session.close()
        run.stop_stub(stub)
    return statistics.median(trips), statistics.median(overheads)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    args = parser.parse_args(argv)
    run.require_checkout()
    pkg = run.import_package()
    for nagle in (True, False):
        trip, overhead = probe(pkg, nagle, args.requests)
        print(f"nagle {'on ' if nagle else 'off'}: round trip p50 {trip:.3f} ms, "
              f"client and transport p50 {overhead:.3f} ms ({args.requests} requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
