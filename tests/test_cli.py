"""End-to-end CLI checks through real subprocesses."""

import csv
import json
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import consensuslab


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "consensuslab", *map(str, args)],
        capture_output=True,
        text=True,
        **kw,
    )


def test_analyze_emits_full_json(tmp_path):
    out = tmp_path / "a.json"
    r = run_cli("analyze", "--family", "ring", "--n", "8", "--sigma2", "1", "--out", out)
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["version"] and doc["seed"] == 0
    assert doc["config"]["family"] == "ring"
    assert len(doc["pi"]) == 8
    m = doc["methods"]
    # symmetric chain: all four formulas plus the oracle, mutually consistent
    vals = [m["theorem1"], m["kemeny"], m["spectral"], m["resistance"], m["oracle"]]
    assert all(isinstance(v, float) for v in vals)
    assert max(vals) - min(vals) < 1e-6 * max(vals)
    # ring has uniform pi, so the sandwich is tight: allow oracle roundoff
    slack = 1e-8 * (1 + m["oracle_delta_uni"])
    assert doc["delta_uni_lower"] - slack <= m["oracle_delta_uni"]
    assert m["oracle_delta_uni"] <= doc["delta_uni_upper"] + slack
    assert doc["kemeny_p2"] > 0
    assert set(doc["method_selection"]) == {"theorem1", "kemeny", "spectral",
                                            "resistance", "oracle"}


def test_analyze_single_node_has_zero_disagreement():
    r = run_cli("analyze", "--family", "complete", "--n", "1")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["delta_ss"] == pytest.approx(0.0, abs=1e-15)
    assert doc["pi"] == [1.0]


def test_analyze_irregular_graph_limits_method_selection():
    r = run_cli("analyze", "--family", "star", "--n", "6")
    doc = json.loads(r.stdout)
    assert doc["chain_flags"]["symmetric"] is False
    assert doc["chain_flags"]["reversible"] is True
    assert "spectral" not in doc["method_selection"]
    assert "theorem1" in doc["method_selection"] and "oracle" in doc["method_selection"]
    # uniform-weight chain restores symmetry on the same graph
    r2 = run_cli("analyze", "--family", "star", "--n", "6", "--chain", "uniform")
    doc2 = json.loads(r2.stdout)
    assert doc2["chain_flags"]["symmetric"] is True
    assert "spectral" in doc2["method_selection"]


def test_analyze_noise_overrides():
    r = run_cli("analyze", "--family", "star", "--n", "6", "--sigma2", "0",
                "--sigma2-node", "0=1")
    doc = json.loads(r.stdout)
    assert doc["methods"]["theorem1"] > 0
    assert doc["config"]["sigma2_node"] == {"0": 1.0}


def test_cli_exit_code_2_on_config_errors(tmp_path):
    assert run_cli("analyze", "--family", "nosuch", "--n", "4").returncode == 2
    assert run_cli("analyze", "--family", "ring", "--n", "2").returncode == 2
    assert run_cli("analyze", "--family", "ring", "--n", "8",
                   "--sigma2=-1").returncode == 2
    assert run_cli("analyze", "--family", "custom",
                   "--edges", tmp_path / "missing.txt").returncode == 2
    disconnected = tmp_path / "disc.txt"
    disconnected.write_text("4\n0 1\n2 3\n")
    assert run_cli("analyze", "--family", "custom",
                   "--edges", disconnected).returncode == 2
    assert run_cli("analyze", "--family", "ring", "--n", "8",
                   "--sigma2-node", "zero=1").returncode == 2


def test_cli_exit_code_3_on_numerical_failures():
    # bipartite simple walk: the squared chain is reducible
    r = run_cli("analyze", "--family", "ring", "--n", "8", "--chain", "simple")
    assert r.returncode == 3
    assert "error" in r.stderr
    # impossible random graph
    r2 = run_cli("analyze", "--family", "erdos-renyi", "--n", "6", "--p", "0.01")
    assert r2.returncode == 3


def test_sweep_csv_schema_and_error_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    r = run_cli("sweep", "--family", "starry-line", "--n-list", "9,10,18",
                "--sigma2", "1", "--out", out)
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().split("\n")
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any("version=" in ln for ln in meta)
    assert any("config=" in ln for ln in meta)
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == ("family,n,delta_ss,delta_uni_lower,delta_uni_upper,"
                      "kemeny_p2,max_resistance,error")
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(body[1:]))  # error text may contain quoted commas
    assert len(rows) == 3
    # n=10 is invalid for starry-line: error recorded, sweep continued
    by_n = {r[1]: r for r in rows}
    assert by_n["10"][2] == "" and "InvalidParam" in by_n["10"][-1]
    assert float(by_n["9"][2]) > 0 and float(by_n["18"][2]) > 0


def test_sweep_parallel_rows_match_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("sweep", "--family", "ring", "--n-list", "4,8,16", "--sigma2", "2")
    assert run_cli(*base, "--out", a).returncode == 0
    assert run_cli(*base, "--jobs", "3", "--out", b).returncode == 0
    assert a.read_text().replace('"jobs": 1', '"jobs": 3') == b.read_text()


def test_simulate_writes_trace_and_summary(tmp_path):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    r = run_cli("simulate", "--family", "ring", "--n", "6", "--sigma2", "1",
                "--horizon", "400", "--trials", "3", "--burn-in", "100",
                "--record-every", "4", "--seed", "5",
                "--out", trace, "--summary", summary)
    assert r.returncode == 0, r.stderr
    doc = json.loads(summary.read_text())
    assert doc["delta_hat"] > 0 and doc["stderr"] > 0
    assert doc["delta_ss_exact"] > 0
    assert abs(doc["delta_hat"] - doc["delta_ss_exact"]) < 0.5 * doc["delta_ss_exact"]
    body = [ln for ln in trace.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "t,delta_hat,delta_uni_hat,stderr"
    data = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    assert data.shape == (101, 4)
    np.testing.assert_array_equal(data[:, 0], np.arange(0, 401, 4))


def test_simulate_records_the_automatic_burn_in():
    from consensuslab.graphs import ring_graph
    from consensuslab.markov import lazy_walk_matrix
    from consensuslab.simulate import auto_burn_in

    r = run_cli("simulate", "--family", "ring", "--n", "6", "--horizon", "400",
                "--trials", "2", "--seed", "5")
    assert r.returncode == 0, r.stderr
    burn = json.loads(r.stdout)["config"]["burn_in"]
    assert burn == auto_burn_in(lazy_walk_matrix(ring_graph(6)))


def test_simulate_reruns_are_identical(tmp_path):
    t1, t2 = tmp_path / "1.csv", tmp_path / "2.csv"
    base = ("simulate", "--family", "star", "--n", "5", "--horizon", "200",
            "--trials", "2", "--burn-in", "50", "--seed", "3")
    run_cli(*base, "--out", t1)
    run_cli(*base, "--out", t2)
    assert t1.read_text() == t2.read_text()


def test_formation_demo_run(tmp_path):
    traj, summary = tmp_path / "traj.csv", tmp_path / "form.json"
    r = run_cli("formation", "--demo", "--horizon", "400", "--trials", "2",
                "--record-every", "10", "--burn-in", "100", "--seed", "2",
                "--out", traj, "--summary", summary)
    assert r.returncode == 0, r.stderr
    doc = json.loads(summary.read_text())
    assert doc["n"] == 4 and doc["dim"] == 2
    assert doc["form_exact"] > 0 and doc["form_simulated"] > 0
    assert doc["kemeny_p2"] == pytest.approx(doc["form_exact"] * 4 / (2 * 4e-4), rel=1e-9)
    body = [ln for ln in traj.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "t,node,x1,x2"
    assert len(body) == 1 + 41 * 4


def test_formation_csv_is_the_metadata_then_the_trajectory(tmp_path):
    traj = tmp_path / "traj.csv"
    r = run_cli("formation", "--demo", "--horizon", "300", "--trials", "2",
                "--record-every", "7", "--seed", "5", "--out", traj,
                "--summary", tmp_path / "form.json")
    assert r.returncode == 0, r.stderr
    trace, _ = consensuslab.simulate_formation(
        consensuslab.ring_demo_spec(4e-4),
        consensuslab.SimConfig(horizon=300, trials=2, seed=5, record_every=7))
    body = tmp_path / "body.csv"
    consensuslab.write_trajectory_csv(body, trace)
    meta = traj.read_bytes().split(b"\n")[:3]
    assert [ln[:1] for ln in meta] == [b"#"] * 3
    assert traj.read_bytes() == b"\n".join(meta) + b"\n" + body.read_bytes()


def test_formation_family_and_spec_file(tmp_path):
    r = run_cli("formation", "--family", "star", "--n", "7",
                "--lambda2", "4e-4", "--skip-sim")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["form_simulated"] is None
    assert doc["form_exact"] > 0

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 2, "dim": 2,
        "edges": [{"i": 0, "j": 1, "r": [1.0, 0.0]}],
        "weights": "default", "lambda2": 1.0,
    }))
    r2 = run_cli("formation", "--spec", spec, "--skip-sim")
    doc2 = json.loads(r2.stdout)
    assert doc2["form_exact"] == pytest.approx(1.0, rel=1e-12)

    # inconsistent offsets in a file are a config error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 3, "dim": 1,
        "edges": [{"i": 0, "j": 1, "r": [1.0]}, {"i": 1, "j": 2, "r": [1.0]},
                  {"i": 0, "j": 2, "r": [1.0]}],
        "weights": "default", "lambda2": 1.0,
    }))
    assert run_cli("formation", "--spec", bad, "--skip-sim").returncode == 2


def test_formation_requires_a_source():
    assert run_cli("formation", "--family", "star", "--n", "7").returncode == 2


def test_selftest_passes():
    r = run_cli("selftest")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "checks passed" in r.stdout
    assert "FAIL" not in r.stdout


def _readme_cli_commands() -> list[list[str]]:
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "consensuslab", line
            commands.append(argv[1:])
    return commands


def test_readme_cli_examples_run(tmp_path):
    commands = _readme_cli_commands()
    assert len(commands) == 6
    pkg_root = os.path.dirname(os.path.dirname(consensuslab.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}
    for argv in commands:
        r = run_cli(*argv, cwd=tmp_path, env=env)
        assert r.returncode == 0, (argv, r.stderr)
    # the formation example resolves its automatic burn-in in the output
    assert json.loads((tmp_path / "form.json").read_text())["config"]["burn_in"] == 7052
