"""End-to-end command-line runs against scripted worlds in temp directories."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from conftest import fixture_path, scripted_http_responder

from stepsearch import RequestCache, ScriptedBackend, load_dataset, parse_world
from stepsearch.backends import ENV_GENERATOR_URL, ENV_REWARD_URL
from stepsearch.cli import main


def _setup_project(tmp_path, *, methods=None, search=None, question_count=2,
                   break_world_for=None, extra=None):
    """Write a dataset, worlds file, and config under tmp_path."""
    with open(fixture_path("smoke.jsonl"), encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()][:question_count]
    dataset_path = tmp_path / "mini.jsonl"
    dataset_path.write_text("".join(lines), encoding="utf-8")

    with open(fixture_path("smoke_worlds.json"), encoding="utf-8") as fh:
        all_worlds = json.load(fh)["worlds"]
    ids = [json.loads(line)["id"] for line in lines]
    worlds = {qid: all_worlds[qid] for qid in ids}
    if break_world_for:
        # Strip the step delimiter so sampling (not parsing) fails.
        spec = json.loads(json.dumps(worlds[break_world_for]))
        for child in spec["root"]["children"]:
            child["step"] = child["step"].replace("### Step", "###", 1)
        worlds[break_world_for] = spec
    worlds_path = tmp_path / "worlds.json"
    worlds_path.write_text(json.dumps({"worlds": worlds}), encoding="utf-8")

    config = {
        "dataset": str(dataset_path),
        "dataset_name": "mini",
        "backend": "scripted",
        "worlds": str(worlds_path),
        "methods": methods or ["srca", "beam"],
        "search": search or {"n": 4, "m": 2, "max_steps": 8, "seed": 0},
        "ks": [1, 4],
    }
    if extra:
        config.update(extra)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


def test_run_writes_results_tree(tmp_path, capsys):
    config_path = _setup_project(tmp_path)
    results = tmp_path / "results"
    code = main(["run", "--config", str(config_path), "--results-dir", str(results)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mini srca n=4" in out
    assert "wrote" in out and "report.csv" in out

    assert (results / "report.csv").exists()
    assert (results / "report.md").exists()
    assert (results / "run_meta.json").exists()
    effective = json.loads((results / "effective_config.json").read_text())
    assert effective["methods"] == ["srca", "beam"]
    assert effective["search"]["n"] == 4
    assert len(effective["cells"]) == 2
    for cell in effective["cells"]:
        cell_dir = results / "mini" / cell["method"] / cell["config_hash"]
        assert (cell_dir / "q000.json").exists()
        assert (cell_dir / "q001.json").exists()


def test_run_overrides_reach_the_effective_config(tmp_path):
    config_path = _setup_project(tmp_path)
    results = tmp_path / "results"
    code = main([
        "run", "--config", str(config_path), "--results-dir", str(results),
        "--override", "n=8", "--override", "m=4", "--override", "tau=0.9",
        "--seed", "5",
    ])
    assert code == 0
    effective = json.loads((results / "effective_config.json").read_text())
    assert effective["search"]["n"] == 8
    assert effective["search"]["m"] == 4
    assert effective["search"]["tau"] == 0.9
    assert effective["search"]["seed"] == 5


def test_run_rejects_invalid_override(tmp_path, capsys):
    config_path = _setup_project(tmp_path)
    code = main([
        "run", "--config", str(config_path),
        "--results-dir", str(tmp_path / "results"),
        "--override", "n=6",  # 6 % 2 == 0 but 6 % m with m=4 below fails
        "--override", "m=4",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_reports_runtime_failures_with_exit_one(tmp_path, capsys):
    config_path = _setup_project(
        tmp_path, methods=["beam"], break_world_for="q001"
    )
    results = tmp_path / "results"
    code = main(["run", "--config", str(config_path), "--results-dir", str(results)])
    assert code == 1
    assert "failed=1" in capsys.readouterr().out


def test_run_missing_config_file(tmp_path, capsys):
    code = main([
        "run", "--config", str(tmp_path / "nope.json"),
        "--results-dir", str(tmp_path / "results"),
    ])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_rejects_a_worlds_file_that_is_not_an_object(tmp_path, capsys):
    config_path = _setup_project(tmp_path)
    (tmp_path / "worlds.json").write_text("[1]", encoding="utf-8")
    code = main(["run", "--config", str(config_path),
                 "--results-dir", str(tmp_path / "results")])
    assert code == 2
    assert "worlds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, field",
    [
        ({"search": [1]}, "search"),
        ({"methods": "srca"}, "methods"),
        ({"methods": ["srca", 1]}, "methods"),
        ({"search": {"seed": "1"}}, "seed"),
        ({"search": {"cca_enabled": "false"}}, "cca_enabled"),
        ({"search": {"delimiters": "### Step"}}, "delimiters"),
    ],
)
def test_run_rejects_config_values_of_the_wrong_json_type(tmp_path, capsys, change, field):
    config_path = _setup_project(tmp_path, extra=change)
    code = main(["run", "--config", str(config_path),
                 "--results-dir", str(tmp_path / "results")])
    assert code == 2
    assert f"error: {field}: must be" in capsys.readouterr().err


def test_run_rejects_an_override_of_the_wrong_json_type(tmp_path, capsys):
    config_path = _setup_project(tmp_path)
    code = main(["run", "--config", str(config_path),
                 "--results-dir", str(tmp_path / "results"),
                 "--override", "temperature=hot"])
    assert code == 2
    assert "error: temperature: must be" in capsys.readouterr().err


def test_sweep_crosses_axis_values(tmp_path, capsys):
    config_path = _setup_project(tmp_path, methods=["srca"])
    results = tmp_path / "results"
    code = main([
        "sweep", "--config", str(config_path), "--results-dir", str(results),
        "--axis", "n", "--values", "2,4",
    ])
    assert code == 0
    effective = json.loads((results / "effective_config.json").read_text())
    assert effective["axis"] == {"name": "n", "values": [2, 4]}
    assert len(effective["cells"]) == 2
    header, *rows = (results / "report.csv").read_text().splitlines()
    n_col = header.split(",").index("n")
    assert {row.split(",")[n_col] for row in rows} == {"2", "4"}


def test_sweep_rejects_empty_values(tmp_path, capsys):
    config_path = _setup_project(tmp_path)
    code = main([
        "sweep", "--config", str(config_path),
        "--results-dir", str(tmp_path / "results"),
        "--axis", "tau", "--values", " , ",
    ])
    assert code == 2


def test_inspect_prints_run_details(tmp_path, capsys):
    config_path = _setup_project(tmp_path, methods=["srca"])
    results = tmp_path / "results"
    assert main(["run", "--config", str(config_path),
                 "--results-dir", str(results)]) == 0
    capsys.readouterr()
    code = main([
        "inspect", "--results-dir", str(results), "--dataset", "mini",
        "--method", "srca", "--question", "q000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "question:  q000" in out
    assert "strategy:  srca" in out
    assert "pool:" in out
    assert " * [" in out  # selected-candidate marker


def test_inspect_requires_hash_when_ambiguous(tmp_path, capsys):
    config_path = _setup_project(tmp_path, methods=["srca"])
    results = tmp_path / "results"
    main(["run", "--config", str(config_path), "--results-dir", str(results)])
    main(["run", "--config", str(config_path), "--results-dir", str(results),
          "--seed", "9"])
    capsys.readouterr()
    code = main([
        "inspect", "--results-dir", str(results), "--dataset", "mini",
        "--method", "srca", "--question", "q000",
    ])
    assert code == 2
    assert "pass --config-hash" in capsys.readouterr().err

    hashes = sorted(os.listdir(results / "mini" / "srca"))
    code = main([
        "inspect", "--results-dir", str(results), "--dataset", "mini",
        "--method", "srca", "--question", "q000", "--config-hash", hashes[0],
    ])
    assert code == 0


def test_inspect_missing_run_file(tmp_path, capsys):
    config_path = _setup_project(tmp_path, methods=["srca"])
    results = tmp_path / "results"
    main(["run", "--config", str(config_path), "--results-dir", str(results)])
    capsys.readouterr()
    code = main([
        "inspect", "--results-dir", str(results), "--dataset", "mini",
        "--method", "srca", "--question", "q999",
    ])
    assert code == 2
    assert "no run file" in capsys.readouterr().err


def test_inspect_rejects_a_run_file_with_an_unknown_key(tmp_path, capsys):
    config_path = _setup_project(tmp_path, methods=["srca"])
    results = tmp_path / "results"
    main(["run", "--config", str(config_path), "--results-dir", str(results)])
    capsys.readouterr()
    (run_file,) = (results / "mini" / "srca").glob("*/q000.json")
    data = json.loads(run_file.read_text(encoding="utf-8"))
    data["pool"][0]["score"] = data["pool"][0].pop("final_score")
    run_file.write_text(json.dumps(data), encoding="utf-8")
    code = main([
        "inspect", "--results-dir", str(results), "--dataset", "mini",
        "--method", "srca", "--question", "q000",
    ])
    assert code == 2
    assert "Candidate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, record",
    [("pool", [1], "Candidate"), ("tokens", [1, 2, 3, 4], "TokenStats"),
     ("rounds", ["x"], "RoundRecord")],
    ids=["pool", "tokens", "rounds"],
)
def test_inspect_rejects_a_record_that_is_not_an_object(tmp_path, capsys, key, value, record):
    config_path = _setup_project(tmp_path, methods=["srca"])
    results = tmp_path / "results"
    main(["run", "--config", str(config_path), "--results-dir", str(results)])
    capsys.readouterr()
    (run_file,) = (results / "mini" / "srca").glob("*/q000.json")
    data = json.loads(run_file.read_text(encoding="utf-8"))
    data[key] = value
    run_file.write_text(json.dumps(data), encoding="utf-8")
    code = main([
        "inspect", "--results-dir", str(results), "--dataset", "mini",
        "--method", "srca", "--question", "q000",
    ])
    assert code == 2
    assert f"{record} record is not a JSON object" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    config_path = _setup_project(tmp_path, methods=["greedy"], question_count=1)
    results = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, "-m", "stepsearch.cli", "run",
         "--config", str(config_path), "--results-dir", str(results)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (results / "report.csv").exists()


def test_reruns_are_byte_identical(tmp_path):
    config_path = _setup_project(tmp_path)
    first_dir, second_dir = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(config_path),
                 "--results-dir", str(first_dir)]) == 0
    assert main(["run", "--config", str(config_path),
                 "--results-dir", str(second_dir)]) == 0
    assert (first_dir / "report.csv").read_bytes() == (second_dir / "report.csv").read_bytes()
    assert (first_dir / "report.md").read_bytes() == (second_dir / "report.md").read_bytes()


def test_replay_run_leaves_the_replay_file_untouched(tmp_path, monkeypatch, stub_server):
    """Record a run against the loopback stub, then replay it offline: the
    replay file keeps its bytes, and no save of it is attempted."""
    url, state = stub_server
    config_path = _setup_project(tmp_path, methods=["srca"])
    config = json.loads(config_path.read_text())
    dataset = load_dataset(config["dataset"])
    with open(config["worlds"], encoding="utf-8") as fh:
        specs = json.load(fh)["worlds"]
    scripted = ScriptedBackend({q.text: parse_world(specs[q.id]) for q in dataset.questions})
    completions, score = scripted_http_responder(scripted)
    state.responses["/v1/completions"] = completions
    state.responses["/v1/score"] = score
    monkeypatch.setenv(ENV_GENERATOR_URL, url)
    monkeypatch.setenv(ENV_REWARD_URL, url)

    cache_path = tmp_path / "requests.json"
    config.update(backend="http", record=str(cache_path))
    config_path.write_text(json.dumps(config), encoding="utf-8")
    recorded_dir = tmp_path / "recorded"
    assert main(["run", "--config", str(config_path), "--results-dir", str(recorded_dir)]) == 0
    recorded = cache_path.read_bytes()
    requests_seen = len(state.requests)
    assert requests_seen > 0

    def refuse_save(cache):
        raise AssertionError(f"replay cache {cache.path} must not be saved")

    monkeypatch.setattr(RequestCache, "save", refuse_save)
    del config["record"]
    config["replay"] = str(cache_path)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    replayed_dir = tmp_path / "replayed"
    assert main(["run", "--config", str(config_path), "--results-dir", str(replayed_dir)]) == 0
    assert cache_path.read_bytes() == recorded
    assert len(state.requests) == requests_seen
    assert (replayed_dir / "report.csv").read_bytes() == (recorded_dir / "report.csv").read_bytes()
