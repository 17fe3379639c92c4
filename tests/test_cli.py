import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from motifclust import RunConfig, read_report
from motifclust.cli import cluster, main
from motifclust.testing import synthetic_contact_edges, write_arb_dataset


def write_toy(path):
    path.write_text("a b v\nv c d\n")


def test_cluster_command_ok(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    out = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "cluster",
            "--input", str(data),
            "--motif", "3",
            "--seed-edge", "nodes:a,b,v",
            "--beta", "20",
            "--rng-seed", "5",
            "--output", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["cluster"] == ["a", "b", "v"]
    assert report["phi"] == 0.5


def test_cluster_command_stdout(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["cluster", "--input", str(data), "--motif", "III", "--seed-edge", "index:0",
         "--beta", "5", "--output", "-"],
    )
    assert result.exit_code == 0, result.output
    # stdout holds the report alone; the summary line goes to stderr
    assert json.loads(result.stdout)["status"] == "ok"
    assert "toy [bfs/III] phi=0.5" in result.stderr


def test_cluster_command_input_error_exit_2(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["cluster", "--input", str(data), "--motif", "3", "--seed-edge", "nodes:a,c",
         "--output", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 2


def test_cluster_command_missing_output_directory_exit_2_before_the_run(tmp_path, monkeypatch):
    data = tmp_path / "toy.txt"
    write_toy(data)

    def load_input(config):
        raise AssertionError("the input was loaded")

    monkeypatch.setattr("motifclust.pipeline.load_input", load_input)
    out = tmp_path / "missing" / "r.json"
    result = CliRunner().invoke(
        main,
        ["cluster", "--input", str(data), "--motif", "3", "--seed-edge", "index:0",
         "--output", str(out)],
    )
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [f"Error: report directory does not exist: {out}"]


def test_cluster_command_bad_random_count_exit_2(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["cluster", "--input", str(data), "--motif", "3", "--seed-edge", "random:x",
         "--output", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 2
    assert "cannot parse random seed count in 'random:x'" in result.output


def test_cluster_option_defaults_are_the_run_config_defaults():
    # every cluster option is a RunConfig field, and every optional one
    # defaults to the field's default
    defaults = {f.name: f.default for f in fields(RunConfig)}
    options = {p.name: p for p in cluster.params}
    assert options.keys() == defaults.keys()
    optional = {name: p.default for name, p in options.items() if not p.required}
    assert set(optional) == {"format", "method", "alpha", "beta", "min_ball", "eps_min",
                             "eps_max", "rng_seed", "dataset"}
    for name, default in optional.items():
        assert default == defaults[name] and type(default) is type(defaults[name]), name


def run_cli(*args):
    """The installed entry point in a subprocess, as a user runs it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "motifclust", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cluster_command_seed_over_block_bound_exit_2(tmp_path):
    # the whole graph is the 5-node seed, too large for one block of its ball
    data = tmp_path / "f.txt"
    data.write_text("a b c d e\na b c\n")
    result = run_cli(
        "cluster", "--input", str(data), "--motif", "III", "--seed-edge", "index:0",
        "--output", "-",
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "5-node seed hyperedge" in result.stderr
    # an input error is one line, without click's usage text
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error:")


def test_cluster_command_seed_of_one_label_exit_2(tmp_path):
    # a seed hyperedge needs two distinct nodes; the error names the labels
    # typed, not the internal node ids
    data = tmp_path / "toy.txt"
    write_toy(data)
    for seed in ("nodes:a", "nodes:a,a", "a,a"):
        result = run_cli(
            "cluster", "--input", str(data), "--motif", "III", "--seed-edge", seed,
            "--output", "-",
        )
        assert result.returncode == 2, (seed, result.stderr)
        assert len(result.stderr.splitlines()) == 1, (seed, result.stderr)
        assert result.stderr.startswith("Error:")
        assert "'a'" in result.stderr and "(0,)" not in result.stderr


def test_cluster_command_no_motifs_exit_3(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["cluster", "--input", str(data), "--motif", "6", "--seed-edge", "index:0",
         "--output", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 3
    assert json.loads((tmp_path / "r.json").read_text())["status"] == "no-motifs"


def write_contact_arb(tmp_path):
    prefix = tmp_path / "c"
    write_arb_dataset(
        synthetic_contact_edges(n_nodes=30, n_edges=200),
        f"{prefix}-nverts.txt",
        f"{prefix}-simplices.txt",
    )
    return prefix


def cluster_arb(tmp_path, given, out):
    return CliRunner().invoke(
        main,
        ["cluster", "--format", "arb", "--input", given, "--motif", "III",
         "--seed-edge", "index:3", "--beta", "2", "--min-ball", "10",
         "--output", str(tmp_path / out)],
    )


def test_cluster_command_takes_either_arb_file_as_its_prefix(tmp_path):
    # "c-nverts.txt" and "c-simplices.txt" name the pair that "c" names, and
    # the dataset is "c" for all three spellings
    prefix = write_contact_arb(tmp_path)
    reports = []
    for i, given in enumerate((str(prefix), f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")):
        result = cluster_arb(tmp_path, given, f"r{i}.json")
        assert result.exit_code == 0, result.output
        reports.append(read_report(str(tmp_path / f"r{i}.json")))
    assert reports[0].status == "ok" and reports[0].dataset == "c"
    assert {r.canonical_json() for r in reports} == {reports[0].canonical_json()}


@pytest.mark.parametrize("given,missing", [("nverts", "simplices"), ("simplices", "nverts")])
def test_cluster_command_names_the_missing_partner_arb_file_exit_2(tmp_path, given, missing):
    prefix = write_contact_arb(tmp_path)
    os.remove(f"{prefix}-{missing}.txt")
    result = cluster_arb(tmp_path, f"{prefix}-{given}.txt", "r.json")
    assert result.exit_code == 2
    assert f"ARB input file not found: {prefix}-{missing}.txt\n" in result.output


def test_env_var_override(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    out = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["cluster", "--input", str(data), "--motif", "3", "--seed-edge", "index:0",
         "--output", str(out)],
        env={"MOTIFCLUST_CLUSTER_BETA": "7"},
    )
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["params"]["beta"] == 7


def test_env_vars_for_input_and_format_are_named_after_their_flags(tmp_path):
    prefix = write_contact_arb(tmp_path)
    out = tmp_path / "report.json"
    result = CliRunner().invoke(
        main,
        ["cluster", "--motif", "III", "--seed-edge", "index:3", "--beta", "2",
         "--min-ball", "10", "--output", str(out)],
        env={"MOTIFCLUST_CLUSTER_INPUT": str(prefix), "MOTIFCLUST_CLUSTER_FORMAT": "arb"},
    )
    assert result.exit_code == 0, result.output
    assert read_report(str(out)).dataset == "c"


def test_bench_command(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    config = {
        "csv": "bench.csv",
        "output_dir": "reports",
        "runs": [
            {"input": str(data), "motif": "3", "seed_edge": "index:0",
             "method": "core", "beta": 10, "dataset": "toy"},
            {"input": str(data), "motif": "3", "seed_edge": "random:2",
             "method": "bfs", "beta": 10, "dataset": "toy"},
        ],
    }
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps(config))
    runner = CliRunner()
    result = runner.invoke(main, ["bench", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[0] == "graph,method,phi,cluster_size,time_s"
    assert len([l for l in lines[1:] if l.startswith("toy,")]) == 3  # 1 core + 2 bfs
    assert any(l.startswith("Overall,") for l in lines)
    reports = list((tmp_path / "reports").glob("*.json"))
    assert len(reports) == 3


def test_bench_command_fails_the_row_whose_report_cannot_be_written(tmp_path):
    # "sub/dir" names a report in a directory that does not exist: that run
    # becomes a failed row and the runs after it still run
    data = tmp_path / "toy.txt"
    write_toy(data)
    run = {"input": str(data), "motif": "3", "seed_edge": "index:0", "beta": 5}
    runs = [
        dict(run, method="core", dataset="toy"),
        dict(run, method="core", dataset="sub/dir"),
        dict(run, method="bfs", dataset="toy"),
    ]
    result = _invoke_bench(tmp_path, runs, csv="bench.csv", output_dir="reports")
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    assert lines[2] == "sub/dir,core,,,"
    assert lines[1].startswith("toy,core,0.500,") and lines[3].startswith("toy,bfs,0.500,")
    failed = tmp_path / "reports" / "sub" / "dir__core__III__seed0.json"
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("FAILED sub/dir [core]: cannot write report")
    assert str(failed) in result.stderr
    assert sorted(p.name for p in (tmp_path / "reports").glob("*.json")) == [
        "toy__bfs__III__seed0.json",
        "toy__core__III__seed0.json",
    ]


def test_bench_command_bad_config(tmp_path):
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps({"runs": []}))
    runner = CliRunner()
    result = runner.invoke(main, ["bench", "--config", str(config_path)])
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error:")


def test_bench_command_rejects_the_removed_scope_field(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps({"runs": [
        {"input": str(data), "motif": "3", "seed_edge": "index:0", "scope": "paper"},
    ]}))
    result = CliRunner().invoke(main, ["bench", "--config", str(config_path)])
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error:") and "scope" in result.stderr


@pytest.mark.parametrize(
    "change",
    [
        {"runs": [{"input": 5, "motif": "3", "seed_edge": "index:0"}]},
        {"csv": 7},
        {"output_dir": ["x"]},
    ],
)
def test_bench_command_rejects_a_path_that_is_not_a_string(tmp_path, change):
    data = tmp_path / "toy.txt"
    write_toy(data)
    config = {"runs": [{"input": str(data), "motif": "3", "seed_edge": "index:0"}]}
    config.update(change)
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps(config))
    result = CliRunner().invoke(main, ["bench", "--config", str(config_path)])
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error:") and "must be a path string" in result.stderr


def _invoke_bench(tmp_path, runs, **top):
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps(dict(top, runs=runs)))
    return CliRunner().invoke(main, ["bench", "--config", str(config_path)])


@pytest.mark.parametrize(
    "field, value",
    [("beta", "x"), ("eps_min", "0.1"), ("alpha", True), ("rng_seed", 1.5), ("eps_max", None)],
)
def test_bench_command_rejects_a_wrongly_typed_number(tmp_path, field, value):
    # every entry is checked before the first run: no report directory appears
    data = tmp_path / "toy.txt"
    write_toy(data)
    good = {"input": str(data), "motif": "3", "seed_edge": "index:0"}
    result = _invoke_bench(
        tmp_path, [good, dict(good, **{field: value})], output_dir="reports"
    )
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error:") and field in result.stderr
    assert not (tmp_path / "reports").exists()


def test_bench_command_rejects_output_in_a_run(tmp_path):
    data = tmp_path / "toy.txt"
    write_toy(data)
    run = {"input": str(data), "motif": "3", "seed_edge": "random:2", "output": "one.json"}
    result = _invoke_bench(tmp_path, [run])
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error:") and "'output_dir'" in result.stderr
    assert not (tmp_path / "one.json").exists()


@pytest.mark.parametrize(
    "paths",
    [
        {"csv": "missing/bench.csv", "output_dir": "reports"},
        {"csv": "taken"},  # a directory: caught when the CSV is written
        {"output_dir": "toy.txt", "csv": "bench.csv"},  # names an existing file
    ],
)
def test_bench_command_bad_output_path(tmp_path, paths):
    data = tmp_path / "toy.txt"
    write_toy(data)
    (tmp_path / "taken").mkdir()
    run = {"input": str(data), "motif": "3", "seed_edge": "index:0", "beta": 2}
    result = _invoke_bench(tmp_path, [run], **paths)
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error:")
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert not (tmp_path / "bench.csv").exists()
    assert not (tmp_path / "reports").exists()  # a missing CSV directory stops every run


def test_bench_command_rejects_an_unknown_motif_before_any_run(tmp_path, monkeypatch):
    # the motif is checked with the other fields of each entry, before the
    # first input is read: exit 2, one line, no CSV and no report directory
    data = tmp_path / "toy.txt"
    write_toy(data)

    def load_input(config):
        raise AssertionError("the input was loaded")

    monkeypatch.setattr("motifclust.pipeline.load_input", load_input)
    good = {"input": str(data), "motif": "3", "seed_edge": "index:0", "beta": 2}
    result = _invoke_bench(
        tmp_path, [good, dict(good, motif="VII")], csv="bench.csv", output_dir="reports"
    )
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("Error: bad run entry")
    assert "unknown motif pattern 'VII'" in result.stderr
    assert not (tmp_path / "bench.csv").exists()
    assert not (tmp_path / "reports").exists()

    result = CliRunner().invoke(
        main,
        ["cluster", "--input", str(data), "--motif", "VII", "--seed-edge", "index:0",
         "--output", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "Error: unknown motif pattern 'VII' (expected 1..6 or I..VI)"
    ]
