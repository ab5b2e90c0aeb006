"""Planted-fault self-test: shows that each check in checks.py can fail.

Runs a clean smoke pass, which must pass every check, then one pass per
planted fault, which must fail the check the fault targets.  Run it with
`python3 perfbench/run.py --self-test`; it exits 0 when every fault is
caught.
"""
from __future__ import annotations

import os
import shutil
import sys
from dataclasses import replace

import run
from checks import CHECKS

SEED = 0


class _Perturb:
    """Forwards to a backend, letting fault() rewrite the first matching
    result of one kind."""

    def __init__(self, backend, kind: str, fault):
        self.backend, self.kind, self.fault = backend, kind, fault
        self.done = False

    def __getattr__(self, name):
        method = getattr(self.backend, name)
        if name != self.kind:
            return method

        def call(*args):
            out = method(*args)
            if not self.done:
                changed = self.fault(out)
                if changed is not None:
                    self.done = True
                    return changed
            return out

        return call


def _nudge_score(scores):
    return scores[:-1] + [scores[-1] + 1e-9]


def _wrong_answer(answer):
    return "999"


def _leaf_text(conts):
    for i, c in enumerate(conts):
        if c.finished:
            return conts[:i] + [replace(c, text=c.text + " (sic)")] + conts[i + 1:]
    return None


def _plant(bench, fault: str):
    """Install one fault; returns a function that removes it."""
    boundary, pkg = bench.boundary, bench.pkg
    generator, reward = boundary.generator, boundary.reward

    def reset():
        boundary.generator, boundary.reward = generator, reward
        vars(boundary).pop("sample_continuations", None)

    if fault == "score":
        boundary.reward = _Perturb(reward, "score_steps", _nudge_score)
    elif fault == "answer":
        boundary.generator = _Perturb(generator, "force_checkpoint_answer", _wrong_answer)
    elif fault == "path":
        boundary.generator = _Perturb(generator, "sample_continuations", _leaf_text)
    elif fault == "counters":
        # One request per search that the engine does not account for.
        sample = boundary.sample_continuations
        searches = set()

        def chatty(prefix, n, cfg):
            if boundary.search not in searches:
                searches.add(boundary.search)
                sample(prefix, n, cfg)
            return sample(prefix, n, cfg)

        boundary.sample_continuations = chatty
    elif fault == "selection":
        decision, select = pkg.decision, pkg.decision.select_bon

        def worst(pool):
            chosen = select(pool)
            loser = min(pool, key=lambda c: (c.final_score, c.order_key()))
            return replace(chosen, winner=loser, answer=loser.answer)

        decision.select_bon = worst
        return lambda: setattr(decision, "select_bon", select)
    elif fault == "budget":
        strategies, record = pkg.strategies, pkg.strategies.RoundRecord

        def overspent(step_index, beams, candidate_count, *rest):
            return record(step_index, beams, candidate_count + (step_index == 1), *rest)

        strategies.RoundRecord = overspent
        return lambda: setattr(strategies, "RoundRecord", record)
    elif fault == "resume":
        result_cls = pkg.core.RunResult
        original = vars(result_cls)["from_json_dict"]
        load = result_cls.from_json_dict

        def miscounted(data):
            result = load(data)
            result.tokens.generator_calls += 1
            return result

        result_cls.from_json_dict = staticmethod(miscounted)
        return lambda: setattr(result_cls, "from_json_dict", original)
    elif fault == "identity":
        name = sorted(n for n in bench.reference if n.endswith(".json"))[0]
        clean = bench.reference[name]
        bench.reference[name] = clean.replace(b"0.", b"1.", 1)
        return lambda: bench.reference.__setitem__(name, clean)
    return reset


def main() -> int:
    run_dir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    setup = run.set_up("smoke", SEED)
    failures = 0
    try:
        reference = run.reference_tree(setup.pkg, setup, run_dir)
        bench = run.Bench(setup, setup.worlds, run_dir, reference)
        bench.one_pass(None)
        if bench.errors:
            failures += 1
            print(f"FAIL clean pass: {bench.errors[:3]}")
        else:
            print("ok   clean pass passes every check")
        for fault in CHECKS:
            bench.errors = []
            undo = _plant(bench, fault)
            try:
                bench.one_pass(None)
            finally:
                undo()
            caught = sorted({check for check, _ in bench.errors})
            if fault in caught:
                print(f"ok   {fault} fault fails the {fault} check ({len(bench.errors)} errors)")
            else:
                failures += 1
                print(f"FAIL {fault} fault not caught; checks failed: {caught}")
    finally:
        setup.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
