"""Dataset loading, grid construction, metrics, and report emission."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import threading
from collections import Counter
from dataclasses import replace

import pytest
from conftest import fixture_path, load_world_fixture
from hypothesis import given
from hypothesis import strategies as st

from stepsearch import (
    ORIGIN_CHECKPOINT,
    ORIGIN_NATURAL,
    BenchmarkCell,
    Candidate,
    ConfigError,
    Dataset,
    Question,
    RoundRecord,
    RunResult,
    ScriptedBackend,
    SearchConfig,
    TokenStats,
    TransportError,
    answers_equal,
    build_cells,
    compute_metrics,
    config_hash,
    emit_report,
    load_dataset,
    parse_method_label,
    pass_at_k,
    run_benchmark,
    write_report,
)

# ---------------------------------------------------------------------------
# Dataset loading
# ---------------------------------------------------------------------------


def test_load_dataset_happy_path():
    dataset = load_dataset(fixture_path("smoke.jsonl"))
    assert dataset.name == "smoke"
    assert len(dataset.questions) == 20
    assert dataset.questions[0].id == "q000"
    assert dataset.gold_map()["q000"] == dataset.questions[0].gold_answer


def _write_lines(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_dataset_skips_blank_lines(tmp_path):
    path = _write_lines(
        tmp_path,
        ['{"id": "a", "question": "Q\\n", "answer": "1"}', "", "   "],
    )
    assert len(load_dataset(path).questions) == 1


@pytest.mark.parametrize(
    "lines, message",
    [
        (["not json"], ":1: invalid JSON"),
        (['{"id": "a", "question": "Q"}'], ":1: missing field 'answer'"),
        (
            [
                '{"id": "a", "question": "Q", "answer": "1"}',
                '{"id": "a", "question": "R", "answer": "2"}',
            ],
            ":2: duplicate question id 'a'",
        ),
        (['{"id": "a", "question": "Q", "answer": "?!"}'], ":1: gold answer"),
    ],
)
def test_load_dataset_reports_line_numbers(tmp_path, lines, message):
    path = _write_lines(tmp_path, lines)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert message in str(err.value)


def test_load_dataset_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="dataset is empty"):
        load_dataset(str(path))


@pytest.mark.parametrize("line", ["5", "null", '"id question answer"', '["id", "question", "answer"]'])
def test_load_dataset_rejects_a_line_that_is_not_an_object(tmp_path, line):
    path = _write_lines(tmp_path, ['{"id": "a", "question": "Q", "answer": "1"}', line])
    with pytest.raises(ValueError, match=":2: not a JSON object"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# Method labels and grid cells
# ---------------------------------------------------------------------------


def test_parse_method_label_defaults():
    base = SearchConfig()
    assert parse_method_label("srca", base).cca_enabled is True
    assert parse_method_label("beam", base).cca_enabled is False
    assert parse_method_label("beam+cca", base).cca_enabled is True
    assert parse_method_label("srca-cca", base).cca_enabled is False
    cfg = parse_method_label("independent@majority", base)
    assert cfg.strategy == "independent"
    assert cfg.selector == "majority"
    cfg = parse_method_label("beam+cca@weighted_bon", base)
    assert (cfg.strategy, cfg.cca_enabled, cfg.selector) == ("beam", True, "weighted_bon")


def test_parse_method_label_rejects_unknown():
    with pytest.raises(ConfigError):
        parse_method_label("magic", SearchConfig())
    with pytest.raises(ConfigError):
        parse_method_label("srca@coinflip", SearchConfig())


def test_build_cells_crosses_axes():
    cells = build_cells(
        SearchConfig(), ["srca", "beam"], n_values=[4, 8], tau_values=[0.9, 1.0]
    )
    assert len(cells) == 8
    assert {c.method for c in cells} == {"srca", "beam"}
    assert {(c.config.n, c.config.tau) for c in cells} == {
        (4, 0.9), (4, 1.0), (8, 0.9), (8, 1.0)
    }
    solo = build_cells(SearchConfig(n=6, m=2), ["greedy"])
    assert len(solo) == 1 and solo[0].config.n == 6
    with pytest.raises(ConfigError):
        build_cells(SearchConfig(), [])


def test_config_hash_stable_and_sensitive():
    a = SearchConfig(seed=0)
    b = SearchConfig(seed=0)
    c = SearchConfig(seed=1)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12
    int(config_hash(a), 16)  # hex digest prefix


def test_config_keeps_an_int_given_for_a_float_field():
    cfg = SearchConfig(temperature=1, top_p=1, tau=1)
    assert type(cfg.temperature) is int and type(cfg.tau) is int
    # Recorded before field types were checked.
    assert config_hash(cfg) == "9dd3dfdea2cd"


# ---------------------------------------------------------------------------
# Metrics over hand-built results
# ---------------------------------------------------------------------------


def _cand(answer, score, origin=ORIGIN_NATURAL, lineage=(0,)):
    return Candidate(full_text=answer, answer=answer, origin=origin,
                     final_score=score, lineage=lineage,
                     origin_step=0 if origin == ORIGIN_CHECKPOINT else None)


def _result(qid, pool, selected_index, depth=2, tokens=None):
    rounds = [RoundRecord(i, 1, 2, None, [0], 0, 0) for i in range(depth)]
    return RunResult(
        question_id=qid,
        strategy="beam",
        pool=pool,
        selected_index=selected_index,
        selection_method="bon",
        rounds=rounds,
        tokens=tokens or TokenStats(),
        config=SearchConfig().to_json_dict(),
    )


def test_compute_metrics_hand_worked():
    gold = {"q1": "5", "q2": "7"}
    r1 = _result(
        "q1",
        [
            _cand("3", 0.9, lineage=(0,)),
            _cand("5", 0.8, lineage=(1,)),
            _cand("5", 0.7, ORIGIN_CHECKPOINT, lineage=(1, 0)),
        ],
        selected_index=2,
        depth=3,
        tokens=TokenStats(generated_tokens=30, generator_calls=4,
                          reward_calls=3, reward_tokens=12),
    )
    r2 = _result(
        "q2",
        [_cand("9", 0.4, lineage=(0,))],
        selected_index=0,
        depth=1,
        tokens=TokenStats(generated_tokens=10, generator_calls=2,
                          reward_calls=1, reward_tokens=5),
    )
    row = compute_metrics([r1, r2], gold, ks=[1, 2, 16])
    assert row["questions"] == 2
    assert row["accuracy"] == 0.5  # q1 selected "5" (gold), q2 selected "9" (wrong)
    assert row["car"] == 0.5  # only q1's winner came from a checkpoint
    assert row["mean_depth"] == 2.0
    assert row["mean_generated_tokens"] == 20.0
    assert row["generator_calls"] == 6
    assert row["reward_calls"] == 4
    assert row["reward_tokens"] == 17
    assert row["pass@1"] == 0.0  # q1 pool[0] is "3"; q2 pool[0] is "9"
    assert row["pass@2"] == 0.5  # q1 pool[:2] now includes "5"
    assert row["pass@16"] == 0.5  # clamped to each pool's size
    assert row["pass@2_natural"] == 0.5


def test_compute_metrics_counts_empty_natural_pool_as_miss():
    pool = [_cand("5", 0.9, ORIGIN_CHECKPOINT, lineage=(0, 0))]
    row = compute_metrics([_result("q1", pool, 0)], {"q1": "5"}, ks=[1])
    assert row["pass@1"] == 1.0
    assert row["pass@1_natural"] == 0.0


def test_compute_metrics_requires_gold():
    pool = [_cand("5", 0.9)]
    with pytest.raises(ValueError, match="no gold answer"):
        compute_metrics([_result("mystery", pool, 0)], {}, ks=[1])
    assert compute_metrics([], {}, ks=[1]) == {"questions": 0}


# Several spellings of a few canonical answers, and answers that are not
# numbers at all.
_ANSWER_FORMS = [
    "5", "5.0", "10/2", " 5. ", "\\boxed{5}", "1/2", "0.5", "2/4", "1,000",
    "1000", "Seven", "seven ", "",
]


@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.sampled_from(_ANSWER_FORMS), st.booleans()),
                     min_size=1, max_size=8),
            st.sampled_from(_ANSWER_FORMS),
            st.integers(0, 7),
        ),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.integers(1, 10), min_size=1, max_size=4, unique=True),
)
def test_compute_metrics_matches_per_k_pass_at_k(runs, ks):
    results, gold = [], {}
    for i, (spec, gold_answer, pick) in enumerate(runs):
        pool = [
            _cand(answer, 0.5, ORIGIN_NATURAL if natural else ORIGIN_CHECKPOINT, lineage=(j,))
            for j, (answer, natural) in enumerate(spec)
        ]
        gold[f"q{i}"] = gold_answer
        results.append(_result(f"q{i}", pool, pick % len(pool)))
    row = compute_metrics(results, gold, ks)
    n = len(results)
    correct = sum(answers_equal(r.selected.answer, gold[r.question_id]) for r in results)
    assert row["accuracy"] == correct / n
    for k in ks:
        full = natural = 0
        for r in results:
            answer = gold[r.question_id]
            full += pass_at_k(r.pool, answer, min(k, len(r.pool)))
            naturals = [c for c in r.pool if c.origin == ORIGIN_NATURAL]
            natural += bool(naturals) and pass_at_k(naturals, answer, min(k, len(naturals)))
        assert row[f"pass@{k}"] == full / n
        assert row[f"pass@{k}_natural"] == natural / n


# ---------------------------------------------------------------------------
# Benchmark execution: persistence, resume, failures
# ---------------------------------------------------------------------------


def _mini_setup():
    question, world = load_world_fixture("deceptive.json")
    dataset = Dataset("mini", (question,))
    backend = ScriptedBackend.for_question(question.text, world)
    cells = build_cells(SearchConfig(n=4, m=2, max_steps=8, seed=0), ["srca", "beam"])
    return dataset, backend, cells


def test_run_benchmark_writes_tree_and_rows(tmp_path):
    dataset, backend, cells = _mini_setup()
    report = run_benchmark(cells, dataset, backend, backend, str(tmp_path), ks=[1, 2])
    assert [row["method"] for row in report.rows] == ["srca", "beam"]
    srca_row, beam_row = report.rows
    assert srca_row["accuracy"] == 1.0 and srca_row["car"] == 1.0
    assert beam_row["accuracy"] == 0.0 and beam_row["car"] is None
    assert srca_row["failed"] == 0
    # ks always include the cell's own n.
    assert "pass@4" in srca_row
    for cell in cells:
        run_file = os.path.join(
            str(tmp_path), "mini", cell.method, config_hash(cell.config),
            f"{dataset.questions[0].id}.json",
        )
        assert os.path.exists(run_file)
        with open(run_file, encoding="utf-8") as fh:
            persisted = RunResult.from_json_dict(json.load(fh))
        assert persisted.question_id == dataset.questions[0].id


def test_run_benchmark_resumes_from_persisted_runs(tmp_path):
    dataset, backend, cells = _mini_setup()
    first = run_benchmark(cells, dataset, backend, backend, str(tmp_path), ks=[1])

    class Exploding:
        def sample_continuations(self, *a, **k):
            raise AssertionError("resume must not re-run the generator")

        def force_checkpoint_answer(self, *a, **k):
            raise AssertionError("resume must not re-run the generator")

    second = run_benchmark(cells, dataset, Exploding(), backend, str(tmp_path), ks=[1])
    assert json.dumps(first.rows, sort_keys=True) == json.dumps(second.rows, sort_keys=True)

    # Deleting one persisted run recomputes just that run, same bytes after.
    target = os.path.join(
        str(tmp_path), "mini", "srca", config_hash(cells[0].config),
        f"{dataset.questions[0].id}.json",
    )
    before = open(target, encoding="utf-8").read()
    os.remove(target)
    third = run_benchmark(cells, dataset, backend, backend, str(tmp_path), ks=[1])
    assert json.dumps(first.rows, sort_keys=True) == json.dumps(third.rows, sort_keys=True)
    assert open(target, encoding="utf-8").read() == before


def test_run_benchmark_records_failures(tmp_path):
    dataset, backend, cells = _mini_setup()

    class Flaky:
        def sample_continuations(self, *a, **k):
            raise TransportError("generator endpoint unreachable", attempts=3)

        def force_checkpoint_answer(self, *a, **k):
            raise TransportError("generator endpoint unreachable", attempts=3)

    report = run_benchmark(cells[:1], dataset, Flaky(), backend, str(tmp_path))
    row = report.rows[0]
    assert row["failed"] == 1
    assert row["questions"] == 0


def test_run_benchmark_parallel_matches_serial(tmp_path, smoke_suite):
    dataset, backend = smoke_suite
    small = Dataset(dataset.name, dataset.questions[:4])
    cells = build_cells(SearchConfig(n=4, m=2, max_steps=8, seed=3), ["srca"])
    serial = run_benchmark(cells, small, backend, backend,
                           str(tmp_path / "serial"), ks=[1], workers=1)
    parallel = run_benchmark(cells, small, backend, backend,
                             str(tmp_path / "parallel"), ks=[1], workers=4)
    assert json.dumps(serial.rows, sort_keys=True) == json.dumps(
        parallel.rows, sort_keys=True
    )


class _CountingBackend:
    """Passes every call to the smoke suite's backend and counts the calls
    per question text."""

    def __init__(self, smoke_suite):
        dataset, self.backend = smoke_suite
        self.texts = sorted((q.text for q in dataset.questions), key=len, reverse=True)
        self.calls: Counter = Counter()
        self._lock = threading.Lock()

    def _count(self, prompt):
        text = next(t for t in self.texts if prompt.startswith(t))
        with self._lock:
            self.calls[text] += 1

    def sample_continuations(self, prefix, n, cfg):
        self._count(prefix)
        return self.backend.sample_continuations(prefix, n, cfg)

    def force_checkpoint_answer(self, prefix, cfg):
        self._count(prefix)
        return self.backend.force_checkpoint_answer(prefix, cfg)

    def score_steps(self, question, steps):
        self._count(question)
        return self.backend.score_steps(question, steps)


class _NoBackend:
    def __getattr__(self, name):
        raise AssertionError(f"resume called the backend ({name})")


def _finished_dir(smoke_suite, root, backend=None):
    """(dataset, cells, report bytes) of a finished four-question srca run
    under root."""
    dataset, scripted = smoke_suite
    small = Dataset(dataset.name, dataset.questions[:4])
    cells = build_cells(SearchConfig(n=4, m=2, max_steps=8, seed=0), ["srca"])
    backend = backend or scripted
    write_report(run_benchmark(cells, small, backend, backend, str(root)), str(root))
    reports = {name: (root / name).read_bytes() for name in ("report.csv", "report.md")}
    return small, cells, reports


def test_resume_reruns_just_the_search_of_a_truncated_run_file(smoke_suite, tmp_path, caplog):
    clean = _CountingBackend(smoke_suite)
    dataset, cells, reports = _finished_dir(smoke_suite, tmp_path, clean)
    target = dataset.questions[1]
    path = tmp_path / dataset.name / "srca" / config_hash(cells[0].config) / f"{target.id}.json"
    written = path.read_bytes()
    path.write_bytes(written[: len(written) // 2])

    resumed = _CountingBackend(smoke_suite)
    with caplog.at_level(logging.WARNING, logger="stepsearch.harness"):
        report = run_benchmark(cells, dataset, resumed, resumed, str(tmp_path))
    write_report(report, str(tmp_path))
    assert str(path) in caplog.text
    assert dict(resumed.calls) == {target.text: clean.calls[target.text]}
    assert path.read_bytes() == written
    for name, data in reports.items():
        assert (tmp_path / name).read_bytes() == data


def test_resume_reads_indented_run_files_without_searching(smoke_suite, tmp_path):
    dataset, cells, reports = _finished_dir(smoke_suite, tmp_path)
    run_files = sorted((tmp_path / dataset.name).rglob("*.json"))
    assert len(run_files) == len(dataset.questions)
    for path in run_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(data, sort_keys=True, indent=1), encoding="utf-8")

    report = run_benchmark(cells, dataset, _NoBackend(), _NoBackend(), str(tmp_path))
    write_report(report, str(tmp_path))
    for name, data in reports.items():
        assert (tmp_path / name).read_bytes() == data


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _tiny_report(tmp_path):
    dataset, backend, cells = _mini_setup()
    return run_benchmark(cells, dataset, backend, backend, str(tmp_path), ks=[1, 2])


def test_emit_report_csv_shape(tmp_path):
    report = _tiny_report(tmp_path)
    text = emit_report(report, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    assert len(body) == 2
    assert header.index("dataset") == 0
    # pass@ columns sorted numerically, naturals after the full-pool ones.
    pass_cols = [c for c in header if c.startswith("pass@")]
    assert pass_cols == ["pass@1", "pass@2", "pass@4",
                        "pass@1_natural", "pass@2_natural", "pass@4_natural"]
    # car renders empty for methods without checkpoint candidates.
    beam_row = dict(zip(header, body[1]))
    assert beam_row["car"] == ""
    assert beam_row["accuracy"] == "0.0000"
    assert beam_row["cca"] == "false"
    assert emit_report(report, "csv") == text  # deterministic


def test_emit_report_markdown_pivot(tmp_path):
    report = _tiny_report(tmp_path)
    text = emit_report(report, "markdown")
    lines = text.strip().splitlines()
    assert len(lines) == 2 + 2  # header + separator + one row per method cell
    assert lines[0] == "| method | mini |"
    assert lines[2].startswith("| srca (n=4, tau=1.0000) |")
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(report, "yaml")


def test_write_report_outputs_both_files(tmp_path):
    report = _tiny_report(tmp_path)
    csv_path, md_path = write_report(report, str(tmp_path))
    assert csv_path.endswith("report.csv") and md_path.endswith("report.md")
    assert open(csv_path, encoding="utf-8").read() == emit_report(report, "csv")
    assert open(md_path, encoding="utf-8").read() == emit_report(report, "markdown")


def test_flops_estimates_scale_with_tokens(tmp_path):
    dataset, backend, cells = _mini_setup()
    report = run_benchmark(
        cells[:1], dataset, backend, backend, str(tmp_path),
        flops_params={"generator_params": 1_000_000, "reward_params": 500_000},
    )
    row = report.rows[0]
    assert row["generator_flops_estimate"] == 2 * 1_000_000 * row["generated_tokens"]
    assert row["reward_flops_estimate"] == 2 * 500_000 * row["reward_tokens"]
    header = emit_report(report, "csv").splitlines()[0]
    assert "generator_flops_estimate" in header


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------

# SHA-256 of the files run_benchmark and write_report write for the six demo
# methods on the smoke suite (scripts/run_scripted_demo.py's defaults): each
# report, and the run files as one digest over "<path> <sha256>" lines in
# path order.  "run files" hashes each run file re-encoded with indent=1, the
# form run files were written in before they were compact; "run files as
# written" hashes the bytes on disk.  The golden digests in
# test_strategies.py hash to_json_dict(); these pin the bytes written.
_DEMO_METHODS = ["greedy", "independent", "beam", "beam+cca", "dvts", "srca"]
_DEMO_DIGESTS = {
    "report.csv": "a839ba75d2e9b858e538155bda6d30b83264c0443495c9832ad7849aa13195e2",
    "report.md": "a4019d3f139ec782e8cc5c4be5aba37321027abe00d9bcb2edc2d652b03585a7",
    "run files": "063d2abc509b9ae4bac50be7b47ed80683e282abde90dd55cb112e5bf42bc839",
    "run files as written": "6b9316b1ad74a1b0c644f794fbcffaf2eac13b991b8c11673c27fb582e367d77",
}


def _listing_digest(named: dict[str, bytes]) -> str:
    listing = "".join(
        f"{name} {hashlib.sha256(data).hexdigest()}\n" for name, data in sorted(named.items())
    )
    return hashlib.sha256(listing.encode()).hexdigest()


def test_demo_files_match_pinned_digests(smoke_suite, tmp_path):
    dataset, backend = smoke_suite
    cells = build_cells(SearchConfig(n=4, m=2, max_steps=8, seed=0), _DEMO_METHODS)
    write_report(run_benchmark(cells, dataset, backend, backend, str(tmp_path)), str(tmp_path))
    files = {
        path.relative_to(tmp_path).as_posix(): path.read_bytes()
        for path in tmp_path.rglob("*") if path.is_file()
    }
    run_files = {name: data for name, data in files.items() if name.endswith(".json")}
    assert len(run_files) == len(_DEMO_METHODS) * len(dataset.questions)
    indented = {
        name: json.dumps(json.loads(data), sort_keys=True, indent=1).encode()
        for name, data in run_files.items()
    }
    digests = {
        "report.csv": hashlib.sha256(files["report.csv"]).hexdigest(),
        "report.md": hashlib.sha256(files["report.md"]).hexdigest(),
        "run files": _listing_digest(indented),
        "run files as written": _listing_digest(run_files),
    }
    assert digests == _DEMO_DIGESTS
