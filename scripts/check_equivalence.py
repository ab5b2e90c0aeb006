#!/usr/bin/env python3
"""Check that this tree's searches equal another revision's, request for request.

Extracts REV with `git archive REV | tar -x` into a temporary directory and
runs the same grid of searches over each tree, each grid in its own
subprocess that imports that tree's stepsearch:
  * the smoke suite (fixtures/) under every method label, two shapes and two
    search seeds;
  * the benchmark's deep worlds (perfbench/worlds.py), seeds 0 and 1, under
    its three methods;
  * tangled worlds: generated trees whose steps hide delimiter fragments, in
    which one sibling's step can be another's followed by that one's child's,
    and siblings can be equal twins, searched under every method label and
    four delimiter sets.  Their questions come in pairs, one extending the
    other by a step of the other's world;
  * random worlds from the package's worldgen.make_random_world, of depths 4
    to 6 and branching 2 or 3, half with depth-ramped checkpoint rewards,
    under every method label, two search seeds and two taus, the lower of
    which makes srca stop early;
  * the smoke demo (scripts/run_scripted_demo.py) as run_benchmark and
    write_report run it, compared by the bytes of every file it writes.
For every search it compares the run JSON and the digest of each request and
reply, in order, at the backend boundary, and prints the first divergence.  A
search that raises compares by its error.  Calls never overlap in the grid's
subprocess: a search overlaps its calls only when its first call waited, which
CPU contention can fake, and overlapped calls reach the boundary in another
order (run files do not change).

Usage:
    python scripts/check_equivalence.py REV
    python scripts/check_equivalence.py --self-test

REV is any revision git knows.  --self-test plants one-line faults, one at a
time, in copies of this tree's src/ and checks that a small grid reports
each: one in the scripted backend's cache and one on the engine's side of the
request seam.  Exits 0 when every search matches (for --self-test: when every
planted fault is reported), else 1.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import runpy
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SMOKE_DATASET = os.path.join(ROOT, "fixtures", "smoke.jsonl")
SMOKE_WORLDS = os.path.join(ROOT, "fixtures", "smoke_worlds.json")
DEMO = os.path.join(ROOT, "scripts", "run_scripted_demo.py")

LABELS = ("greedy", "independent", "beam", "beam+cca", "dvts", "dvts+cca", "srca", "srca-cca")
SMOKE_SHAPES = ((4, 2), (6, 3))
DEEP_SEEDS = (0, 1)
DEEP_METHODS = ("srca", "beam+cca", "dvts")
# The primary delimiter first; the others prefix it, are prefixed by it, or
# hide inside the tangled worlds' steps.
DELIMITER_SETS = (("### Step",), ("### Step", "###"), ("### Step", "### St"), ("### Step", "#"))
TANGLED_WORLDS = 300
RANDOM_WORLDS = 24
# Pooled scores reach about 0.9 in the ramped random worlds, so srca stops
# early at the lower tau and never at 1.0.
TAUS = (1.0, 0.7)
# The self-test's grid: a few tangled and random worlds, the smoke suite
# under one label, and the demo.
QUICK_TANGLED_WORLDS = 12
QUICK_RANDOM_WORLDS = 2

# Text a tangled world builds its steps from: pieces of the delimiters and of
# the answer template, so matches hide in, cross and follow steps.
_FRAGMENTS = ("### Step", "### St", "###", "#", " a", " b", "\n", "So, the answer is ", "1")

# The planted faults of --self-test, (file, line, its replacement, what it
# does), each planted alone.
PLANTS = (
    (os.path.join("src", "stepsearch", "backends.py"),
     "        self._prefix_free = not any(b.startswith(a) for a, b in zip(steps, steps[1:]))\n",
     "        self._prefix_free = True\n",
     "every node claims prefix-free children, so a cached prefix extends where "
     "the walk from the root would take a longer sibling"),
    (os.path.join("src", "stepsearch", "strategies.py"),
     "             self._checkpoint_candidate, p, round_index, complete)\n",
     "             self._checkpoint_candidate, checkpoints[0], round_index, complete)\n",
     "every checkpoint chain of a wave builds its candidate and score request "
     "from the wave's first path, not from the path its answer belongs to"),
)


# ---------------------------------------------------------------------------
# Worlds
# ---------------------------------------------------------------------------


def tangled_world(seed: int, depth: int = 4) -> dict:
    """A world dict in the scripted-world schema whose sibling steps overlap.

    Every step starts with "### Step" and goes on with zero to three
    fragments.  A node with children gets, with some chance, a sibling whose
    step is its own followed by one of its children's, and a child list now
    and then gains an equal twin of one of its members, so the walk from the
    root and a lookup from a cached parent can disagree.  Answers are unique
    per node, and some hold delimiter text.
    """
    rng = random.Random(seed)
    ids = itertools.count(1)

    def node(step: str, level: int) -> dict:
        i = next(ids)
        spec = {
            "step": step,
            "weight": rng.choice((1, 2, 3)),
            "reward": round(0.05 + 0.9 * rng.random(), 6),
            "checkpoint_answer": rng.choice((f"a{i}", f"a{i} ###", f"### Step {i}")),
        }
        if level >= depth or (level > 1 and rng.random() < 0.2):
            spec.update(terminal=True, final_answer=f"f{i}")
        else:
            spec.update(terminal=False, children=children(level + 1))
            if rng.random() < 0.5:
                spec["checkpoint_reward"] = round(0.05 + 0.9 * rng.random(), 6)
        return spec

    def children(level: int) -> list[dict]:
        kids = [
            node("### Step" + "".join(rng.choices(_FRAGMENTS, k=rng.randint(0, 3))), level)
            for _ in range(rng.randint(1, 3))
        ]
        for kid in list(kids):
            if kid.get("children") and rng.random() < 0.4:
                grandchild = rng.choice(kid["children"])
                kids.append(node(kid["step"] + grandchild["step"], level))
        if rng.random() < 0.2:
            kids.append(node(rng.choice(kids)["step"], level))
        rng.shuffle(kids)
        return kids

    root = {"step": "", "weight": 1, "reward": 1.0, "checkpoint_answer": "",
            "terminal": False, "children": children(1)}
    return {"gold_answer": "f1", "root": root}


def tangled_questions(count: int, seed: int = 0) -> list[tuple[str, dict]]:
    """(question text, world dict) pairs, the worlds drawn from seed, seed +
    1, ...; each odd question is the one before it followed by the step of
    that one's world's first root child."""
    out = []
    for i in range(count):
        if i % 2 == 0:
            text = f"Tangled problem {i}.\n"
        else:
            before, world = out[-1]
            text = before + world["root"]["children"][0]["step"]
        out.append((text, tangled_world(seed + i)))
    return out


# ---------------------------------------------------------------------------
# The grid, run inside one tree
# ---------------------------------------------------------------------------


class Recorder:
    """Generator and reward that forward each call and keep, in order, a
    digest of every request with its reply or error, and a short note on it."""

    def __init__(self, backend):
        self.backend = backend
        self.digests: list[str] = []
        self.notes: list[str] = []

    def _call(self, fn, args: tuple, request: list, note: str):
        try:
            reply = fn(*args)
            outcome = reply
        except Exception as exc:  # the search raises it; the digest keeps it
            reply, outcome = exc, f"{type(exc).__name__}: {exc}"
        text = json.dumps([request, outcome], default=_plain, sort_keys=True)
        self.digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest()[:24])
        self.notes.append(f"{note} -> {_brief(json.dumps(outcome, default=_plain))}")
        if isinstance(reply, Exception):
            raise reply
        return reply

    def sample_continuations(self, prefix, n, cfg):
        return self._call(self.backend.sample_continuations, (prefix, n, cfg),
                          ["sample", prefix, n, cfg.to_json_dict()],
                          f"sample n={n} prefix ending {_brief(prefix[-60:])}")

    def force_checkpoint_answer(self, prefix, cfg):
        return self._call(self.backend.force_checkpoint_answer, (prefix, cfg),
                          ["checkpoint", prefix, cfg.to_json_dict()],
                          f"checkpoint prefix ending {_brief(prefix[-60:])}")

    def score_steps(self, question, steps):
        return self._call(self.backend.score_steps, (question, steps),
                          ["score", question, list(steps)],
                          f"score {len(steps)} steps, the last {_brief(steps[-1][-60:])}")


def _plain(value):
    if hasattr(value, "text") and hasattr(value, "finished"):
        return [value.text, value.finished]
    raise TypeError(f"cannot digest {type(value).__name__}")


def _brief(text: str) -> str:
    return repr(text) if len(text) <= 120 else repr(text[:120]) + "..."


def grid(pkg, quick: bool):
    """(search key, question, config, backend) of every search in the grid.
    Worlds are built from dicts by the benchmark's to_scripted, which, unlike
    parse_world, takes the tangled worlds' equal twins."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import worlds

    with open(SMOKE_DATASET, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(SMOKE_WORLDS, encoding="utf-8") as fh:
        specs = json.load(fh)["worlds"]
    smoke = pkg.ScriptedBackend({r["question"]: pkg.parse_world(specs[r["id"]]) for r in records})
    questions = [pkg.Question(r["id"], r["question"], r["answer"]) for r in records]
    shapes = SMOKE_SHAPES[:1] if quick else SMOKE_SHAPES
    for (n, m), seed, label in itertools.product(shapes, (0, 1), LABELS[-1:] if quick else LABELS):
        cfg = pkg.parse_method_label(label, pkg.SearchConfig(n=n, m=m, max_steps=8, seed=seed))
        for q in questions:
            yield f"smoke n={n} m={m} seed={seed} {label} {q.id}", q, cfg, smoke
    if not quick:
        for seed in DEEP_SEEDS:
            records, deep_worlds = worlds.make_deep(seed)
            backend = pkg.ScriptedBackend({
                r["question"]: worlds.to_scripted(
                    deep_worlds[r["id"]], pkg.backends.ScriptedNode, pkg.ScriptedWorld)
                for r in records
            })
            base = pkg.SearchConfig(n=8, m=2, max_steps=max(worlds.DEEP_DEPTHS), seed=seed)
            for label in DEEP_METHODS:
                cfg = pkg.parse_method_label(label, base)
                for r in records:
                    q = pkg.Question(r["id"], r["question"], r["answer"])
                    yield f"deep seed={seed} {label} {q.id}", q, cfg, backend
    questions, backend = random_worlds(pkg, QUICK_RANDOM_WORLDS if quick else RANDOM_WORLDS)
    for tau, seed, label in itertools.product(TAUS, (0, 1), LABELS):
        base = pkg.SearchConfig(n=4, m=2, max_steps=5, seed=seed, tau=tau)
        cfg = pkg.parse_method_label(label, base)
        for q in questions:
            yield f"random tau={tau} seed={seed} {label} {q.id}", q, cfg, backend
    pairs = tangled_questions(QUICK_TANGLED_WORLDS if quick else TANGLED_WORLDS)
    for d, delimiters in enumerate(DELIMITER_SETS):
        # A fresh backend per delimiter set: what one set's searches leave
        # cached must not decide another's.
        backend = pkg.ScriptedBackend({
            text: worlds.to_scripted(spec, pkg.backends.ScriptedNode, pkg.ScriptedWorld)
            for text, spec in pairs
        })
        for seed, label in itertools.product((0, 1), LABELS):
            base = pkg.SearchConfig(n=4, m=2, max_steps=5, seed=seed, delimiters=delimiters)
            cfg = pkg.parse_method_label(label, base)
            for i, (text, _) in enumerate(pairs):
                q = pkg.Question(f"t{i:02d}", text, "f1")
                yield f"tangled delimiters={d} seed={seed} {label} t{i:02d}", q, cfg, backend


def random_worlds(pkg, count: int):
    """(questions, backend) over count worlds of the tree's worldgen."""
    worldgen = importlib.import_module(pkg.__name__ + ".worldgen")
    questions, worlds_by_text = [], {}
    for i in range(count):
        world = worldgen.make_random_world(
            seed=i, depth=4 + i % 3, branching=2 + i // 3 % 2, gold=str(20 + i),
            ramp_checkpoint_rewards=i % 2 == 0,
        )
        q = pkg.Question(f"r{i:02d}", f"Random problem {i}: reduce it.\n", str(20 + i))
        questions.append(q)
        worlds_by_text[q.text] = pkg.parse_world(world)
    return questions, pkg.ScriptedBackend(worlds_by_text)


def demo_files() -> dict:
    """The digest of every file the smoke demo writes, by its path below the
    results dir."""
    demo = runpy.run_path(DEMO, run_name="demo")
    with tempfile.TemporaryDirectory(prefix="check-equivalence-demo-") as out:
        with contextlib.redirect_stdout(io.StringIO()):
            demo["main"](["--results-dir", out])
        files = {}
        for base, _, names in os.walk(out):
            for name in names:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()[:24]
    return dict(sorted(files.items()))


def run_grid(src: str, out: str, quick: bool) -> None:
    sys.path.insert(0, src)
    import stepsearch as pkg

    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported stepsearch from {pkg.__file__}, not {src}")
    # Past any wait, so no search overlaps its calls.
    pkg.strategies.OVERLAP_WAIT_S = float("inf")
    with open(out, "w", encoding="utf-8") as fh:
        for key, question, cfg, backend in grid(pkg, quick):
            spy = Recorder(backend)
            early = False
            try:
                result = pkg.run_search(question, cfg, spy, spy).to_json_dict()
                run = {name: _digest(value) for name, value in result.items()}
                early = result["stopped_early"]
            except Exception as exc:  # compared, not hidden: see the docstring
                run = {"error": f"{type(exc).__name__}: {exc}"}
            fh.write(json.dumps({"key": key, "run": run, "calls": spy.digests,
                                 "notes": spy.notes, "early": early}) + "\n")
        fh.write(json.dumps({"key": "demo files", "run": demo_files(), "calls": [],
                             "notes": [], "early": False}) + "\n")


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


# ---------------------------------------------------------------------------
# Comparing two trees
# ---------------------------------------------------------------------------


def grid_of(tree: str, workdir: str, name: str, quick: bool) -> list[dict]:
    out = os.path.join(workdir, name + ".jsonl")
    argv = [sys.executable, os.path.abspath(__file__), "--run-grid",
            os.path.join(tree, "src"), out] + (["--quick"] if quick else [])
    subprocess.run(argv, check=True)
    with open(out, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def compare(base: list[dict], other: list[dict]) -> list[str]:
    """One line per search that differs, the first divergence first."""
    if [r["key"] for r in base] != [r["key"] for r in other]:
        return ["the two grids ran different searches"]
    differences = []
    for a, b in zip(base, other):
        if a["calls"] != b["calls"]:
            i = next(
                (i for i, (x, y) in enumerate(zip(a["calls"], b["calls"])) if x != y),
                min(len(a["calls"]), len(b["calls"])),
            )
            note_a = a["notes"][i] if i < len(a["notes"]) else "(no call)"
            note_b = b["notes"][i] if i < len(b["notes"]) else "(no call)"
            differences.append(f"{a['key']}: call {i} differs\n  base:  {note_a}\n  other: {note_b}")
        elif a["run"] != b["run"]:
            fields = sorted(k for k in a["run"].keys() | b["run"].keys()
                            if a["run"].get(k) != b["run"].get(k))
            what = "files differ:" if a["key"] == "demo files" else "run JSON differs in"
            differences.append(f"{a['key']}: {what} {', '.join(fields)}")
    return differences


def report(base: list[dict], other: list[dict], base_name: str, other_name: str) -> int:
    differences = compare(base, other)
    calls = sum(len(r["calls"]) for r in base)
    errors = sum("error" in r["run"] for r in base)
    early = sum(r["early"] for r in base)
    files = sum(len(r["run"]) for r in base if r["key"] == "demo files")
    print(f"{len(base) - 1} searches ({errors} ending in an error, {early} stopping early), "
          f"{calls} backend calls and {files} demo files: "
          f"{len(differences)} differ between {base_name} and {other_name}")
    if differences:
        print("first divergence:", differences[0], sep="\n")
    return len(differences)


def check_revision(rev: str) -> int:
    with tempfile.TemporaryDirectory(prefix="check-equivalence-") as workdir:
        tree = os.path.join(workdir, "rev")
        os.makedirs(tree)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        base = grid_of(tree, workdir, "rev", quick=False)
        other = grid_of(ROOT, workdir, "tree", quick=False)
        return 1 if report(base, other, rev, "this tree") else 0


def self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="check-equivalence-") as workdir:
        base = grid_of(ROOT, workdir, "tree", quick=True)
        same = grid_of(ROOT, workdir, "again", quick=True)
        if report(base, same, "this tree", "itself"):
            print("self-test: two runs of one tree differ")
            return 1
        for i, (name, line, planted_line, what) in enumerate(PLANTS):
            planted = os.path.join(workdir, f"planted{i}")
            shutil.copytree(os.path.join(ROOT, "src"), os.path.join(planted, "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            path = os.path.join(planted, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            if source.count(line) != 1:
                print(f"self-test: the line to plant a fault in is not in {name} once")
                return 1
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source.replace(line, planted_line))
            other = grid_of(planted, workdir, f"planted{i}", quick=True)
            if not report(base, other, "this tree", f"planted fault {i + 1} ({what})"):
                print(f"self-test: planted fault {i + 1} was not reported")
                return 1
        print("self-test: passed")
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="the revision to compare this tree with")
    parser.add_argument("--self-test", action="store_true",
                        help="plant faults in copies of src/ and check each is reported")
    parser.add_argument("--run-grid", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_grid:
        run_grid(*args.run_grid, quick=args.quick)
        return 0
    if args.self_test:
        return self_test()
    if args.rev is None:
        parser.error("give a revision or --self-test")
    return check_revision(args.rev)


if __name__ == "__main__":
    sys.exit(main())
