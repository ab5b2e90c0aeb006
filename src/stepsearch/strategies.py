"""Search strategies over stepwise reasoning.

All round-based strategies share one mechanical skeleton: expand surviving
paths, score every candidate, pool naturally finished ones, optionally force
a checkpoint answer out of each active candidate, and select survivors.  They
differ only in the selection rule:

* run_beam_search   keeps the top-M candidates by reduced score.
* run_srca          clusters candidates by checkpoint answer, ranks clusters
                    by summed score, and picks members round-robin so every
                    answer cluster keeps a representative (answer-diverse
                    selection), optionally pooling every checkpoint-completed
                    candidate and stopping early once a pooled score beats tau.
* run_dvts          runs M isolated single-path subtrees, each keeping its own
                    argmax child.
* run_independent   runs N unpruned paths to completion.
* run_greedy        runs a single temperature-0 path.
"""
from __future__ import annotations

import re
from dataclasses import replace
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


def cluster_by_answer(answers: list[str], scores: list[float]) -> list[Cluster]:
    """Group candidate indices by normalized answer equality.

    Clusters are sorted by aggregate score (exact sum, no re-normalization)
    descending; ties break on the highest single member score, then on the
    lowest member index.
    """
    if len(answers) != len(scores):
        raise ValueError("answers and scores must be the same length")
    if not answers:
        raise ValueError("cannot cluster an empty candidate list")
    groups: dict[str, list[int]] = {}
    for i, answer in enumerate(answers):
        groups.setdefault(normalize_answer(answer), []).append(i)
    clusters = [
        Cluster(key, tuple(members), sum(scores[i] for i in members))
        for key, members in groups.items()
    ]
    clusters.sort(
        key=lambda c: (
            -c.aggregate,
            -max(scores[i] for i in c.members),
            min(c.members),
        )
    )
    return clusters


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


class _Engine:
    """Shared per-run bookkeeping: pools, token accounting, diagnostics.

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
        self.checkpoint_pool: list[Candidate] = []
        self.forced: list[Candidate] = []
        self.rounds: list[RoundRecord] = []
        self.tokens = TokenStats()
        self.stopped_early = False
        # Whether a pooled natural or checkpoint candidate scores above tau.
        self._over_tau = False
        self._delimiter_re = delimiter_pattern(cfg.delimiters)

    # -- expansion ---------------------------------------------------------

    def sample_children(
        self,
        parent: ReasoningPath | None,
        n: int,
        step_index: int,
        first_global_index: int,
        cfg: SearchConfig | None = None,
    ) -> list[ReasoningPath]:
        cfg = cfg or self.cfg
        prefix = self.question.text + (parent.text() if parent else "")
        continuations = self.generator.sample_continuations(prefix, n, cfg)
        self.tokens.generator_calls += 1
        self.tokens.generated_tokens += sum(
            approx_token_count(c.text) for c in continuations
        )
        parent_tokens = parent.step_tokens() if parent else 0
        children = []
        for offset, cont in enumerate(continuations):
            g = first_global_index + offset
            step = Step(index=step_index, text=self.cfg.delimiters[0] + cont.text)
            child = ReasoningPath(
                question_id=self.question.id,
                steps=(parent.steps if parent else []) + [step],
                lineage=(parent.lineage if parent else []) + [(step_index, g)],
                checkpoint_answers=dict(parent.checkpoint_answers) if parent else {},
            )
            child._step_tokens = parent_tokens + approx_token_count(step.text)
            if cont.finished:
                child.finish()
            children.append(child)
        return children

    # -- scoring -----------------------------------------------------------

    def score_path(self, path: ReasoningPath) -> None:
        texts = list(map(step_text, path.steps))
        path.score_sequence = list(map(float, self.reward.score_steps(self.question.text, texts)))
        self.tokens.reward_calls += 1
        self.tokens.reward_tokens += path.step_tokens()

    def score_candidate(self, candidate: Candidate) -> None:
        texts, tokens = self._candidate_steps(candidate)
        seq = self.reward.score_steps(self.question.text, texts)
        candidate.final_score = reduce_scores(list(map(float, seq)), self.cfg.reduction)
        self.tokens.reward_calls += 1
        self.tokens.reward_tokens += tokens

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
            if starts == offsets or starts == offsets[1:]:
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

    def pool_natural(self, path: ReasoningPath) -> Candidate:
        full = path.text()
        raw = extract_final_answer(full, self.cfg.injection_template)
        candidate = Candidate(
            full_text=full,
            answer=normalize_answer(raw),
            origin=ORIGIN_NATURAL,
            final_score=path.reduced_score(self.cfg.reduction),
            lineage=path.lineage_key(),
            round_index=len(path.steps) - 1,
            question_id=path.question_id,
            source=path,
        )
        self.naturals.append(candidate)
        self._note_pooled(candidate)
        return candidate

    def inject_checkpoint(self, path: ReasoningPath) -> CheckpointAnswer:
        """Force an intermediate answer; the path itself is left untouched."""
        raw = self.generator.force_checkpoint_answer(
            self.question.text + path.text(), self.cfg
        )
        self.tokens.generator_calls += 1
        self.tokens.generated_tokens += approx_token_count(raw)
        answer = CheckpointAnswer.from_raw(len(path.steps) - 1, raw)
        path.record_checkpoint(answer)
        return answer

    def pool_checkpoint_candidate(self, path: ReasoningPath, round_index: int) -> Candidate:
        answer = path.checkpoint_answers[len(path.steps) - 1]
        candidate = build_checkpoint_candidate(
            path, self.cfg.injection_template, answer
        )
        candidate.round_index = round_index
        self.score_candidate(candidate)
        self.checkpoint_pool.append(candidate)
        self._note_pooled(candidate)
        return candidate

    def force_complete(self, survivors: list[ReasoningPath], round_index: int) -> None:
        """Complete capped-out paths through their last checkpoint answer so
        the pool is never empty.  Reuses an already-recorded answer when the
        round loop injected one; otherwise issues the one final injection."""
        for path in sorted(survivors, key=lambda p: p.lineage_key()):
            last = len(path.steps) - 1
            answer = path.checkpoint_answers.get(last)
            if answer is None:
                answer = self.inject_checkpoint(path)
            candidate = build_checkpoint_candidate(
                path, self.cfg.injection_template, answer
            )
            candidate.round_index = round_index
            self.score_candidate(candidate)
            self.forced.append(candidate)

    def _note_pooled(self, candidate: Candidate) -> None:
        if candidate.final_score is not None and candidate.final_score > self.cfg.tau:
            self._over_tau = True

    def pool_over_tau(self) -> bool:
        """Whether a pooled natural or checkpoint candidate scores above tau."""
        return self._over_tau

    # -- finishing ---------------------------------------------------------

    def assemble(self) -> list[Candidate]:
        naturals = sorted(self.naturals, key=lambda c: c.lineage)
        checkpoints = sorted(
            self.checkpoint_pool, key=lambda c: (c.round_index, c.lineage)
        )
        if naturals or checkpoints:
            pool = decision.assemble_pool(naturals, checkpoints, self.cfg.cca_enabled)
        else:
            pool = []
        pool.extend(sorted(self.forced, key=lambda c: (c.round_index, c.lineage)))
        if not pool:
            raise RuntimeError("search ended with an empty candidate pool")
        return pool

    def finalize(self, pool: list[Candidate], selection: decision.Selection) -> RunResult:
        index = next(i for i, c in enumerate(pool) if c is selection.winner)
        result = RunResult(
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
        return result


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


def _run_round_based(
    question: Question,
    cfg: SearchConfig,
    generator,
    reward,
    clustered: bool,
    early_stop: bool,
) -> RunResult:
    engine = _Engine(question, cfg, generator, reward)
    branch = cfg.branch_factor
    active: list[ReasoningPath] = []
    for t in range(cfg.max_steps):
        if t == 0:
            parent_list: list[ReasoningPath | None] = [None]
            per_parent = cfg.n
        else:
            parent_list = list(active)
            per_parent = branch
        candidates: list[ReasoningPath] = []
        for parent in parent_list:
            candidates.extend(
                engine.sample_children(parent, per_parent, t, len(candidates))
            )
        # Budget conservation: m surviving beams always expand into m * (N/M).
        assert len(candidates) == len(parent_list) * per_parent
        for path in candidates:
            engine.score_path(path)
        finished = [p for p in candidates if p.status == PATH_FINISHED]
        actives = [p for p in candidates if p.status == PATH_ACTIVE]
        for path in finished:
            engine.pool_natural(path)
        do_inject = clustered or cfg.cca_enabled
        if do_inject:
            for path in actives:
                engine.inject_checkpoint(path)
        pooled_checkpoint = 0
        if cfg.cca_enabled:
            for path in actives:
                engine.pool_checkpoint_candidate(path, t)
                pooled_checkpoint += 1
        cluster_count = None
        clusters: list[Cluster] = []
        reduced = [p.reduced_score(cfg.reduction) for p in actives]
        if do_inject and actives:
            answers = [p.checkpoint_answers[len(p.steps) - 1].normalized for p in actives]
            clusters = cluster_by_answer(answers, reduced)
            cluster_count = len(clusters)
        elif do_inject:
            cluster_count = 0
        if early_stop and engine.pool_over_tau():
            engine.stopped_early = True
            engine.rounds.append(
                RoundRecord(t, len(parent_list), len(candidates), cluster_count,
                            [], len(finished), pooled_checkpoint)
            )
            break
        if not actives:
            engine.rounds.append(
                RoundRecord(t, len(parent_list), len(candidates), cluster_count,
                            [], len(finished), pooled_checkpoint)
            )
            active = []
            break
        m_sel = min(cfg.m, len(actives))
        if clustered:
            selected = round_robin_select(clusters, reduced, m_sel)
        else:
            selected = sorted(range(len(actives)), key=lambda i: (-reduced[i], i))[:m_sel]
        # Map back to within-round candidate indices for the transcript.
        candidate_ids = {id(p): i for i, p in enumerate(candidates)}
        engine.rounds.append(
            RoundRecord(
                t,
                len(parent_list),
                len(candidates),
                cluster_count,
                [candidate_ids[id(actives[i])] for i in selected],
                len(finished),
                pooled_checkpoint,
            )
        )
        chosen = {id(actives[i]) for i in selected}
        for path in actives:
            if id(path) not in chosen:
                path.prune()
        active = [actives[i] for i in selected]
    else:
        # Hit the step cap with survivors; checkpoint-complete them so the
        # pool is never empty.  With CCA on they are already pooled.
        if active and not cfg.cca_enabled:
            engine.force_complete(active, cfg.max_steps - 1)
    pool = engine.assemble()
    selection = _select(pool, cfg)
    return engine.finalize(pool, selection)


def run_srca(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """Answer-clustered search with checkpoint candidate pooling."""
    if cfg.strategy != "srca":
        raise ValueError(f"config strategy is {cfg.strategy!r}, expected 'srca'")
    return _run_round_based(question, cfg, generator, reward, clustered=True, early_stop=True)


def run_beam_search(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """Plain score-ranked beam search; checkpoints only when cca_enabled."""
    if cfg.strategy != "beam":
        raise ValueError(f"config strategy is {cfg.strategy!r}, expected 'beam'")
    return _run_round_based(question, cfg, generator, reward, clustered=False, early_stop=False)


def run_dvts(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """M isolated subtrees, each greedily keeping its own best child."""
    if cfg.strategy != "dvts":
        raise ValueError(f"config strategy is {cfg.strategy!r}, expected 'dvts'")
    engine = _Engine(question, cfg, generator, reward)
    branch = cfg.branch_factor
    # One surviving path per subtree; None marks a retired subtree.
    subtrees: list[ReasoningPath | None] = [None] * cfg.m
    started = False
    for t in range(cfg.max_steps):
        if started:
            live = [k for k in range(cfg.m) if subtrees[k] is not None]
        else:
            live = list(range(cfg.m))
        if not live:
            break
        candidates: list[ReasoningPath] = []
        chunk_of: dict[int, list[ReasoningPath]] = {}
        if not started:
            # All subtrees draw from the shared root sample, chunked in order.
            root_children = engine.sample_children(None, cfg.n, t, 0)
            assert len(root_children) == cfg.n
            for k in live:
                chunk_of[k] = root_children[k * branch : (k + 1) * branch]
            candidates = root_children
            started = True
        else:
            for k in live:
                chunk = engine.sample_children(
                    subtrees[k], branch, t, len(candidates)
                )
                chunk_of[k] = chunk
                candidates.extend(chunk)
            assert len(candidates) == len(live) * branch
        for path in candidates:
            engine.score_path(path)
        finished_count = 0
        actives_all: list[ReasoningPath] = []
        for k in live:
            for path in chunk_of[k]:
                if path.status == PATH_FINISHED:
                    engine.pool_natural(path)
                    finished_count += 1
                else:
                    actives_all.append(path)
        if cfg.cca_enabled:
            for path in actives_all:
                engine.inject_checkpoint(path)
        pooled_checkpoint = 0
        if cfg.cca_enabled:
            for path in actives_all:
                engine.pool_checkpoint_candidate(path, t)
                pooled_checkpoint += 1
        cluster_count = None
        if cfg.cca_enabled and actives_all:
            answers = [
                p.checkpoint_answers[len(p.steps) - 1].normalized for p in actives_all
            ]
            reduced_all = [p.reduced_score(cfg.reduction) for p in actives_all]
            cluster_count = len(cluster_by_answer(answers, reduced_all))
        elif cfg.cca_enabled:
            cluster_count = 0
        candidate_ids = {id(p): i for i, p in enumerate(candidates)}
        selected_ids: list[int] = []
        for k in live:
            chunk_active = [p for p in chunk_of[k] if p.status == PATH_ACTIVE]
            if not chunk_active:
                subtrees[k] = None
                continue
            reduced = [p.reduced_score(cfg.reduction) for p in chunk_active]
            best = min(
                range(len(chunk_active)),
                key=lambda i: (-reduced[i], candidate_ids[id(chunk_active[i])]),
            )
            for i, path in enumerate(chunk_active):
                if i != best:
                    path.prune()
            subtrees[k] = chunk_active[best]
            selected_ids.append(candidate_ids[id(chunk_active[best])])
        engine.rounds.append(
            RoundRecord(
                t,
                len(live),
                len(candidates),
                cluster_count,
                selected_ids,
                finished_count,
                pooled_checkpoint,
            )
        )
    survivors = [p for p in subtrees if p is not None]
    if survivors and not cfg.cca_enabled:
        engine.force_complete(survivors, cfg.max_steps - 1)
    pool = engine.assemble()
    selection = _select(pool, cfg)
    return engine.finalize(pool, selection)


def run_independent(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """N unpruned paths sampled to completion, scored once complete."""
    if cfg.strategy != "independent":
        raise ValueError(f"config strategy is {cfg.strategy!r}, expected 'independent'")
    engine = _Engine(question, cfg, generator, reward)
    paths = engine.sample_children(None, cfg.n, 0, 0)
    # Distinct derived seeds keep paths that share a prefix from collapsing
    # into one sampling stream.
    seeds = {
        id(p): replace(cfg, seed=derive_seed(cfg.seed, "independent-path", j))
        for j, p in enumerate(paths)
    }
    engine.rounds.append(
        RoundRecord(
            0, 1, len(paths), None,
            [i for i, p in enumerate(paths) if p.status == PATH_ACTIVE],
            sum(1 for p in paths if p.status == PATH_FINISHED), 0,
        )
    )
    for path in paths:
        if path.status == PATH_FINISHED:
            engine.score_path(path)
            engine.pool_natural(path)
    active = [p for p in paths if p.status == PATH_ACTIVE]
    for t in range(1, cfg.max_steps):
        if not active:
            break
        extended: list[ReasoningPath] = []
        finished_count = 0
        for path in active:
            child = engine.sample_children(
                path, 1, t, len(extended), cfg=seeds[id(path)]
            )[0]
            seeds[id(child)] = seeds[id(path)]
            extended.append(child)
        selected = []
        for i, child in enumerate(extended):
            if child.status == PATH_FINISHED:
                engine.score_path(child)
                engine.pool_natural(child)
                finished_count += 1
            else:
                selected.append(i)
        engine.rounds.append(
            RoundRecord(t, len(active), len(extended), None, selected, finished_count, 0)
        )
        active = [extended[i] for i in selected]
    if active:
        for path in active:
            engine.score_path(path)
        engine.force_complete(active, cfg.max_steps - 1)
    pool = engine.assemble()
    selection = _select(pool, cfg)
    return engine.finalize(pool, selection)


def run_greedy(question: Question, cfg: SearchConfig, generator, reward) -> RunResult:
    """One temperature-0 path; no reward calls."""
    if cfg.strategy != "greedy":
        raise ValueError(f"config strategy is {cfg.strategy!r}, expected 'greedy'")
    greedy_cfg = replace(cfg, temperature=0.0)
    engine = _Engine(question, greedy_cfg, generator, reward)
    path: ReasoningPath | None = None
    finished = False
    for t in range(cfg.max_steps):
        child = engine.sample_children(path, 1, t, 0)[0]
        finished = child.status == PATH_FINISHED
        engine.rounds.append(
            RoundRecord(t, 1, 1, None, [] if finished else [0], int(finished), 0)
        )
        path = child
        if finished:
            break
    assert path is not None
    if finished:
        full = path.text()
        raw = extract_final_answer(full, cfg.injection_template)
        candidate = Candidate(
            full_text=full,
            answer=normalize_answer(raw),
            origin=ORIGIN_NATURAL,
            lineage=path.lineage_key(),
            round_index=len(path.steps) - 1,
            question_id=path.question_id,
            source=path,
        )
    else:
        answer = engine.inject_checkpoint(path)
        candidate = build_checkpoint_candidate(path, cfg.injection_template, answer)
        candidate.round_index = len(engine.rounds) - 1
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
    try:
        runner = _RUNNERS[cfg.strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {cfg.strategy!r}")
    return runner(question, cfg, generator, reward)
