"""Search strategies over stepwise reasoning.

Every scored strategy runs one round loop, ``_run_round_based``: expand the
surviving paths, score the candidates, pool the naturally finished ones,
optionally force a checkpoint answer out of each active candidate (pooling it
as a scored candidate when CCA is on), and keep survivors.  Strategies differ
only in the survivor rule, a function ``(actives, reduced, clusters, cfg)``
returning survivor indices in survivor order:

* run_srca          round-robin over the answer clusters, ranked by summed
                    score, so every answer cluster keeps a representative;
                    stops early once a pooled score beats tau.
* run_beam_search   the top M candidates by reduced score.
* run_dvts          the best candidate of each subtree.  The M subtrees split
                    the shared root sample, and each later round, into runs of
                    N/M consecutive candidates.
* run_independent   every active path.  N unpruned paths each grow one step
                    per round from their own derived seed, are never injected,
                    and are scored only once finished or at the step cap.

run_greedy is apart: it follows one temperature-0 path and scores and
selects nothing.

A round sends its backend calls in two waves of calls that do not depend on
each other: wave 1 expands every parent; wave 2 scores every candidate and
injects each active one, its checkpoint-candidate score chained after the
injection.  Completing capped-out paths is one more wave.  The search's
first call runs inline and is timed: if it waited on I/O for at least
OVERLAP_WAIT_S beyond its own CPU time, later waves run their calls on a
thread pool the search owns, at most MAX_IN_FLIGHT at once; otherwise every
call runs inline, one at a time.  Either way the search's own thread applies
the replies in candidate order, so run files, counters and the requests
sent are the same in both modes.
"""
from __future__ import annotations

import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from itertools import accumulate

from . import decision
from .backends import derive_seed
from .core import (
    ORIGIN_CHECKPOINT,
    ORIGIN_NATURAL,
    PATH_ACTIVE,
    PATH_FINISHED,
    Candidate,
    CheckpointAnswer,
    Cluster,
    Question,
    ReasoningPath,
    RoundRecord,
    RunResult,
    SearchConfig,
    Step,
    TokenStats,
    approx_token_count,
    build_checkpoint_candidate,
    delimiter_pattern,
    extract_final_answer,
    normalize_answer,
    reduce_scores,
    split_into_steps,
    step_text,
)


def round_robin_select(clusters: list[Cluster], scores: list[float], m: int) -> list[int]:
    """Pick m indices by cycling clusters in rank order, taking each cluster's
    best remaining member (ties to the lowest index), skipping exhausted
    clusters."""
    if m < 1:
        raise ValueError("m must be >= 1")
    total = sum(len(c.members) for c in clusters)
    if total < m:
        raise ValueError(
            f"cannot select {m} paths from {total} cluster members; shrink M"
        )
    remaining = [list(c.members) for c in clusters]
    picked: list[int] = []
    while len(picked) < m:
        for members in remaining:
            if not members:
                continue
            best = max(members, key=lambda i: (scores[i], -i))
            picked.append(best)
            members.remove(best)
            if len(picked) == m:
                break
    return picked


# At most this many backend calls of one search are in flight at once: the
# connections a requests.Session keeps open per host by default, so overlapped
# HTTP calls reuse kept-alive connections instead of opening and dropping more.
MAX_IN_FLIGHT = 10
# A search overlaps its calls only when its first call waited at least this
# long (wall time minus the thread's CPU time).  An in-process backend waits
# on nothing, and handing its calls between threads under the GIL costs more
# than it overlaps; a network round trip waits far longer than this.
OVERLAP_WAIT_S = 0.0005


class _Waves:
    """Runs one search's waves of independent backend calls, each a list of
    argument-less callables, and returns their replies in call order.

    The first call of the search runs inline and is timed; it decides
    whether later waves of two or more calls run on the search's own thread
    pool.  A pooled wave raises the first error in call order.  close()
    waits for every call still running and shuts the pool down, so an error
    leaves the search only once the other calls of its wave have finished,
    and no thread outlives the search.
    """

    def __init__(self):
        self._overlap: bool | None = None  # None until the first call is timed
        self._pool: ThreadPoolExecutor | None = None

    def run(self, calls: list) -> list:
        if self._overlap is None and calls:
            wall, cpu = time.perf_counter(), time.thread_time()
            first = calls[0]()
            waited = (time.perf_counter() - wall) - (time.thread_time() - cpu)
            self._overlap = waited >= OVERLAP_WAIT_S
            return [first] + self.run(calls[1:])
        if not self._overlap or len(calls) < 2:
            return [call() for call in calls]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(MAX_IN_FLIGHT, thread_name_prefix="stepsearch")
        futures = [self._pool.submit(call) for call in calls]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


class _Engine:
    """Shared per-run bookkeeping: pools, token accounting, diagnostics.

    Backend calls go out in waves (see _Waves).  A call touches nothing the
    engine keeps: it reads its request, computed before the wave, and
    returns its reply.  The search's thread then applies every reply in
    call order, so counters, paths and pools change in the same order
    whether or not the calls overlapped.  Use the engine as a context
    manager, which closes its waves.

    No Python loop runs over a whole prefix per call: a child's
    reward-token count is its parent's plus the new step's, and a
    checkpoint candidate's step texts come from its path instead of a
    re-split of its text.  The payloads sent and the counters kept are the
    same as re-splitting and recounting the whole prefix would give.
    """

    def __init__(self, question: Question, cfg: SearchConfig, generator, reward):
        self.question = question
        self.cfg = cfg
        self.generator = generator
        self.reward = reward
        self.naturals: list[Candidate] = []
        # Pooled checkpoint candidates with CCA on, or completed capped-out
        # survivors with it off; never both.
        self.checkpoints: list[Candidate] = []
        self.rounds: list[RoundRecord] = []
        self.tokens = TokenStats()
        self.stopped_early = False
        # Whether a pooled natural or checkpoint candidate scores above tau.
        self.pool_over_tau = False
        self._delimiter_re = delimiter_pattern(cfg.delimiters)
        self._waves = _Waves()

    def __enter__(self) -> "_Engine":
        return self

    def __exit__(self, *exc) -> None:
        self._waves.close()

    # -- expansion ---------------------------------------------------------

    def expand(
        self,
        parents: list[ReasoningPath | None],
        n: int,
        step_index: int,
        cfgs: list[SearchConfig],
    ) -> list[ReasoningPath]:
        """One wave: sample n children of every parent (None is the root),
        parent i with cfgs[i]; children are indexed in parent order."""
        sample = self.generator.sample_continuations
        question = self.question.text
        replies = self._waves.run([
            partial(sample, question + (parent.text() if parent else ""), n, cfg)
            for parent, cfg in zip(parents, cfgs)
        ])
        children: list[ReasoningPath] = []
        for parent, continuations in zip(parents, replies):
            self.tokens.generator_calls += 1
            self.tokens.generated_tokens += sum(
                approx_token_count(c.text) for c in continuations
            )
            parent_tokens = parent.step_tokens() if parent else 0
            for cont in continuations:
                step = Step(index=step_index, text=self.cfg.delimiters[0] + cont.text)
                child = ReasoningPath(
                    question_id=self.question.id,
                    steps=(parent.steps if parent else []) + [step],
                    lineage=(parent.lineage if parent else []) + [(step_index, len(children))],
                    checkpoint_answers=dict(parent.checkpoint_answers) if parent else {},
                )
                child._step_tokens = parent_tokens + approx_token_count(step.text)
                if cont.finished:
                    child.finish()
                children.append(child)
        return children

    # -- scoring and injection ---------------------------------------------

    def wave(
        self,
        scored: list[ReasoningPath],
        checkpoints: list[ReasoningPath],
        round_index: int,
        complete: bool,
    ) -> None:
        """One wave: score every path of scored; for each path of
        checkpoints, force an answer out of its last step unless one is
        recorded there and, with complete, score and pool the checkpoint
        candidate completing the path through that answer."""
        question = self.question.text
        calls = [
            partial(self.reward.score_steps, question, list(map(step_text, p.steps)))
            for p in scored
        ]
        calls += [self._checkpoint_call(p, round_index, complete) for p in checkpoints]
        replies = self._waves.run(calls)
        for path, seq in zip(scored, replies):
            path.score_sequence = list(map(float, seq))
            self.tokens.reward_calls += 1
            self.tokens.reward_tokens += path.step_tokens()
        for path, (answer, candidate, tokens) in zip(checkpoints, replies[len(scored) :]):
            if answer.step_index not in path.checkpoint_answers:
                self.tokens.generator_calls += 1
                self.tokens.generated_tokens += approx_token_count(answer.raw_text)
                path.record_checkpoint(answer)
            if candidate is not None:
                self.tokens.reward_calls += 1
                self.tokens.reward_tokens += tokens
                self.checkpoints.append(candidate)
                self._note_pooled(candidate)

    def _checkpoint_call(self, path: ReasoningPath, round_index: int, complete: bool):
        """The call for one path of wave's checkpoints; it returns (answer,
        scored candidate or None, the candidate's reward tokens)."""
        answer = path.checkpoint_answers.get(len(path.steps) - 1)
        prefix = self.question.text + path.text() if answer is None else None

        def call():
            found = answer
            if found is None:
                raw = self.generator.force_checkpoint_answer(prefix, self.cfg)
                found = CheckpointAnswer.from_raw(len(path.steps) - 1, raw)
            if not complete:
                return found, None, 0
            candidate = build_checkpoint_candidate(path, self.cfg.injection_template, found)
            candidate.round_index = round_index
            texts, tokens = self._candidate_steps(candidate)
            seq = self.reward.score_steps(self.question.text, texts)
            candidate.final_score = reduce_scores(list(map(float, seq)), self.cfg.reduction)
            return found, candidate, tokens

        return call

    def _candidate_steps(self, candidate: Candidate) -> tuple[list[str], int]:
        """(step texts, their token count) of a checkpoint candidate, equal to
        splitting its full text at the delimiters.

        The texts are its path's steps through the checkpoint step, the last
        one followed by the template and the answer.  That equals the split
        when the delimiter matches in the full text start exactly at the
        steps' offsets; a delimiter inside a step, the template or the answer
        moves or adds a match, and the text is split instead.
        """
        path, last = candidate.source, candidate.origin_step
        full = candidate.full_text
        if path is not None and last == len(path.steps) - 1:
            texts = list(map(step_text, path.steps))
            offsets = list(accumulate(map(len, texts[:-1]), initial=0))
            starts = list(map(re.Match.start, self._delimiter_re.finditer(full)))
            if starts == offsets:
                tail = full[offsets[-1] :]
                tokens = (
                    path.step_tokens()
                    - approx_token_count(texts[-1])
                    + approx_token_count(tail)
                )
                texts[-1] = tail
                return texts, tokens
        texts = [s.text for s in split_into_steps(full, self.cfg.delimiters)]
        return texts, sum(approx_token_count(t) for t in texts)

    # -- pooling -----------------------------------------------------------

    def natural_candidate(
        self, path: ReasoningPath, final_score: float | None = None
    ) -> Candidate:
        full = path.text()
        raw = extract_final_answer(full, self.cfg.injection_template)
        return Candidate(
            full_text=full,
            answer=normalize_answer(raw),
            origin=ORIGIN_NATURAL,
            final_score=final_score,
            lineage=path.lineage_key(),
            round_index=len(path.steps) - 1,
            question_id=path.question_id,
            source=path,
        )

    def pool_natural(self, path: ReasoningPath) -> None:
        candidate = self.natural_candidate(path, path.reduced_score(self.cfg.reduction))
        self.naturals.append(candidate)
        self._note_pooled(candidate)

    def _note_pooled(self, candidate: Candidate) -> None:
        if candidate.final_score is not None and candidate.final_score > self.cfg.tau:
            self.pool_over_tau = True

    # -- finishing ---------------------------------------------------------

    def assemble(self) -> list[Candidate]:
        pool = sorted(self.naturals, key=lambda c: c.lineage)
        pool += sorted(self.checkpoints, key=lambda c: (c.round_index, c.lineage))
        if not pool:
            raise RuntimeError("search ended with an empty candidate pool")
        return pool

    def finalize(self, pool: list[Candidate], selection: decision.Selection) -> RunResult:
        index = next(i for i, c in enumerate(pool) if c is selection.winner)
        return RunResult(
            question_id=self.question.id,
            strategy=self.cfg.strategy,
            pool=pool,
            selected_index=index,
            selection_method=selection.method,
            rounds=self.rounds,
            tokens=self.tokens,
            config=self.cfg.to_json_dict(),
            stopped_early=self.stopped_early,
            selected_trace=_build_trace(selection.winner, pool),
        )


def _build_trace(winner: Candidate, pool: list[Candidate]) -> list[dict]:
    """Step rows for the winning candidate, joining in the endpoint score of
    any pooled checkpoint candidate built at the same step of the same path
    (the first such candidate in pool order)."""
    source = winner.source
    if source is None:
        return []
    upto = (winner.origin_step + 1) if winner.from_checkpoint else len(source.steps)
    prefix_key = source.lineage_key()
    endpoints: dict[tuple, float | None] = {}
    for c in pool:
        if c.origin == ORIGIN_CHECKPOINT:
            endpoints.setdefault((c.origin_step, c.lineage), c.final_score)
    rows = []
    for i in range(upto):
        answer = source.checkpoint_answers.get(i)
        rows.append(
            {
                "index": i,
                "text": source.steps[i].text,
                "step_score": source.score_sequence[i]
                if i < len(source.score_sequence)
                else None,
                "checkpoint_answer": answer.raw_text if answer else None,
                "endpoint_score": endpoints.get((i, prefix_key[: i + 1])),
            }
        )
    return rows


def _select(pool: list[Candidate], cfg: SearchConfig) -> decision.Selection:
    if cfg.selector == "bon":
        return decision.select_bon(pool)
    if cfg.selector == "weighted_bon":
        return decision.select_weighted_bon(pool)
    return decision.select_majority(pool)


def _keep_round_robin(actives, reduced, clusters, cfg):
    return round_robin_select(clusters, reduced, min(cfg.m, len(actives)))


def _keep_top_m(actives, reduced, clusters, cfg):
    return sorted(range(len(actives)), key=lambda i: (-reduced[i], i))[: cfg.m]


def _keep_subtree_best(actives, reduced, clusters, cfg):
    """The best candidate of each subtree, in subtree order, ties to the
    earliest; a subtree is a run of branch_factor consecutive candidates."""
    best: dict[int, int] = {}
    for i, path in enumerate(actives):
        subtree = path.lineage[-1][1] // cfg.branch_factor
        if subtree not in best or reduced[i] > reduced[best[subtree]]:
            best[subtree] = i
    return list(best.values())


def _keep_all(actives, reduced, clusters, cfg):
    return list(range(len(actives)))


_SURVIVOR_RULES = {
    "srca": _keep_round_robin,
    "beam": _keep_top_m,
    "dvts": _keep_subtree_best,
    "independent": _keep_all,
}


def _run_round_based(
    question: Question,
    cfg: SearchConfig,
    generator,
    reward,
    clustered: bool,
    early_stop: bool,
) -> RunResult:
    """The round loop of every scored strategy; cfg.strategy picks the
    survivor rule.  clustered forces a checkpoint answer out of every active
    candidate and clusters by it even with CCA off; early_stop ends the
    search once a pooled candidate scores above tau."""
    keep = _SURVIVOR_RULES[cfg.strategy]
    # Independent paths grow one child each, are scored only once finished or
    # capped, and never inject.  Each samples with a seed derived from its
    # root index, so paths that share a prefix do not collapse into one
    # sampling stream.
    independent = cfg.strategy == "independent"
    path_cfgs = [
        replace(cfg, seed=derive_seed(cfg.seed, "independent-path", j))
        for j in range(cfg.n if independent else 0)
    ]
    cca = cfg.cca_enabled and not independent
    inject = clustered or cca
    width = 1 if independent else cfg.branch_factor
    with _Engine(question, cfg, generator, reward) as engine:
        active: list[ReasoningPath] = []
        for t in range(cfg.max_steps):
            parents: list[ReasoningPath | None] = active if t else [None]
            per_parent = width if t else cfg.n
            sample_cfgs = [
                path_cfgs[parent.lineage[0][1]] if independent and parent else cfg
                for parent in parents
            ]
            candidates = engine.expand(parents, per_parent, t, sample_cfgs)
            # Budget conservation: every parent expands into per_parent children.
            assert len(candidates) == len(parents) * per_parent
            finished = [p for p in candidates if p.status == PATH_FINISHED]
            actives = [p for p in candidates if p.status == PATH_ACTIVE]
            engine.wave(
                finished if independent else candidates,
                actives if inject else [],
                t,
                cca,
            )
            for path in finished:
                engine.pool_natural(path)
            reduced = [] if independent else [p.reduced_score(cfg.reduction) for p in actives]
            clusters: list[Cluster] = []
            if inject:
                keys = [p.checkpoint_answers[t].normalized for p in actives]
                clusters = decision.rank_clusters(keys, reduced)
            selected: list[int] = []
            if early_stop and engine.pool_over_tau:
                engine.stopped_early = True
            elif actives:
                selected = keep(actives, reduced, clusters, cfg)
            # All M subtrees of dvts are live in round 0.
            beams = cfg.m if t == 0 and cfg.strategy == "dvts" else len(parents)
            engine.rounds.append(
                RoundRecord(
                    t,
                    beams,
                    len(candidates),
                    len(clusters) if inject else None,
                    [actives[i].lineage[-1][1] for i in selected],
                    len(finished),
                    len(actives) if cca else 0,
                )
            )
            if not selected:
                break
            active = [actives[i] for i in selected]
        else:
            # Hit the step cap with survivors; complete each, in lineage order,
            # through the answer recorded at its last step (injecting one where
            # none was) so the pool is never empty.  With CCA on they are
            # already pooled.
            if not cca:
                survivors = sorted(active, key=ReasoningPath.lineage_key)
                engine.wave(active if independent else [], survivors, cfg.max_steps - 1, True)
        pool = engine.assemble()
        return engine.finalize(pool, _select(pool, cfg))


def _expect(cfg: SearchConfig, strategy: str) -> None:
    if cfg.strategy != strategy:
        raise ValueError(f"config strategy is {cfg.strategy!r}, expected {strategy!r}")


def run_srca(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """Answer-clustered search with checkpoint candidate pooling."""
    _expect(cfg, "srca")
    return _run_round_based(question, cfg, generator, reward, clustered=True, early_stop=True)


def run_beam_search(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """Plain score-ranked beam search; checkpoints only when cca_enabled."""
    _expect(cfg, "beam")
    return _run_round_based(question, cfg, generator, reward, clustered=False, early_stop=False)


def run_dvts(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """M isolated subtrees, each greedily keeping its own best child."""
    _expect(cfg, "dvts")
    return _run_round_based(question, cfg, generator, reward, clustered=False, early_stop=False)


def run_independent(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """N unpruned paths sampled to completion, scored once complete."""
    _expect(cfg, "independent")
    return _run_round_based(question, cfg, generator, reward, clustered=False, early_stop=False)


def run_greedy(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """One temperature-0 path; no reward calls."""
    _expect(cfg, "greedy")
    # One call per round: there is nothing to overlap.
    with _Engine(question, replace(cfg, temperature=0.0), generator, reward) as engine:
        path: ReasoningPath | None = None
        for t in range(cfg.max_steps):
            path = engine.expand([path], 1, t, [engine.cfg])[0]
            finished = path.status == PATH_FINISHED
            engine.rounds.append(
                RoundRecord(t, 1, 1, None, [] if finished else [0], int(finished), 0)
            )
            if finished:
                candidate = engine.natural_candidate(path)
                break
        else:
            engine.wave([], [path], t, complete=False)
            answer = path.checkpoint_answers[t]
            candidate = build_checkpoint_candidate(path, cfg.injection_template, answer)
            candidate.round_index = t
    pool = [candidate]
    return RunResult(
        question_id=question.id,
        strategy=cfg.strategy,
        pool=pool,
        selected_index=0,
        selection_method="greedy",
        rounds=engine.rounds,
        tokens=engine.tokens,
        config=cfg.to_json_dict(),
        selected_trace=_build_trace(candidate, pool),
    )


_RUNNERS = {
    "srca": run_srca,
    "beam": run_beam_search,
    "dvts": run_dvts,
    "independent": run_independent,
    "greedy": run_greedy,
}


def run_search(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """Dispatch to the strategy named by cfg.strategy."""
    return _RUNNERS[cfg.strategy](question, cfg, generator, reward)
