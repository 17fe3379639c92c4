import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from motifclust.cli import main


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
    assert '"status": "ok"' in result.output


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
