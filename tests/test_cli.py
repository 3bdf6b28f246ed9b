"""End-to-end CLI checks.

Most tests run ``cli.main`` in this process through ``conftest.run_main``,
which returns the exit code, stdout and stderr: ``main`` reuses one parser
per process, so a run costs its work and not an interpreter start.  These
run ``python -m consensuslab`` (or ``python -O``) as real subprocesses, so
the module entry point stays covered:

- ``test_analyze_emits_full_json`` (exit 0);
- ``test_formation_requires_a_source`` (exit 2);
- ``test_cli_exit_code_3_on_numerical_failures`` (exit 3);
- ``test_selftest_fails_under_optimized_python``;
- ``test_parser_reuse_leaks_no_state_between_calls``, whose fresh-process
  runs are the reference for its in-process sequence;
- ``test_readme_cli_examples_run`` and ``test_readme_python_quickstart_runs``;
- ``test_closed_forms_across_blas_thread_counts``, which sets the BLAS
  thread count of each fresh process.
"""

import csv
import json
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from conftest import package_env, run_main

import consensuslab
from consensuslab import cli, tolerances
from consensuslab.graphs import builtin_families


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
    code, out, err = run_main("analyze", "--family", "complete", "--n", "1")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["delta_ss"] == pytest.approx(0.0, abs=1e-15)
    assert doc["pi"] == [1.0]


def test_analyze_irregular_graph_limits_method_selection():
    doc = json.loads(run_main("analyze", "--family", "star", "--n", "6")[1])
    assert doc["chain_flags"]["symmetric"] is False
    assert doc["chain_flags"]["reversible"] is True
    assert "spectral" not in doc["method_selection"]
    assert "theorem1" in doc["method_selection"] and "oracle" in doc["method_selection"]
    # uniform-weight chain restores symmetry on the same graph
    doc2 = json.loads(run_main("analyze", "--family", "star", "--n", "6", "--chain", "uniform")[1])
    assert doc2["chain_flags"]["symmetric"] is True
    assert "spectral" in doc2["method_selection"]


def test_analyze_noise_overrides():
    doc = json.loads(run_main("analyze", "--family", "star", "--n", "6", "--sigma2", "0",
                              "--sigma2-node", "0=1")[1])
    assert doc["methods"]["theorem1"] > 0
    assert doc["config"]["sigma2_node"] == {"0": 1.0}


def test_cli_exit_code_2_on_config_errors(tmp_path):
    assert run_main("analyze", "--family", "nosuch", "--n", "4")[0] == 2
    assert run_main("analyze", "--family", "ring", "--n", "2")[0] == 2
    assert run_main("analyze", "--family", "ring", "--n", "8",
                    "--sigma2=-1")[0] == 2
    assert run_main("analyze", "--family", "custom",
                    "--edges", tmp_path / "missing.txt")[0] == 2
    disconnected = tmp_path / "disc.txt"
    disconnected.write_text("4\n0 1\n2 3\n")
    assert run_main("analyze", "--family", "custom",
                    "--edges", disconnected)[0] == 2
    assert run_main("analyze", "--family", "ring", "--n", "8",
                    "--sigma2-node", "zero=1")[0] == 2
    # malformed input files name the file, and the line where there is one
    words = tmp_path / "words.txt"
    words.write_text("1\none\n")
    for cmd in (("analyze", "--n", "2"), ("sweep", "--n-list", "2")):
        code, _, err = run_main(*cmd, "--family", "complete", "--sigma2-vec", words)
        assert code == 2 and "words.txt" in err, err
    token = tmp_path / "token.txt"
    token.write_text("2\n0 x\n")
    code, _, err = run_main("analyze", "--family", "custom", "--edges", token)
    assert code == 2 and "token.txt:2" in err, err
    # a node label past int64 is out of range like any other, not an overflow
    huge = tmp_path / "huge.txt"
    huge.write_text("4\n1 99999999999999999999999\n")
    code, _, err = run_main("analyze", "--family", "custom", "--edges", huge)
    assert code == 2 and "edge (1,99999999999999999999999) out of range for n=4" in err, err
    # so is a node count past the int32 labels, not an overflow of the edge codes
    many = tmp_path / "many.txt"
    many.write_text(f"{10**30}\n0 1\n")
    code, _, err = run_main("analyze", "--family", "custom", "--edges", many)
    assert code == 2 and "InvalidParam" in err and "n <= 2^31" in err, err
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"n": 2, "dim": 1, "edges": [[0, -10**23, [1.0]]]}))
    code, _, err = run_main("formation", "--spec", spec, "--skip-sim")
    assert code == 2 and "out of range" in err, err
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"2\n0 1\n\xff\xfe\n")
    code, _, err = run_main("analyze", "--family", "custom", "--edges", binary)
    assert code == 2 and "binary.txt" in err, err
    for name, fields in (("no_j", {"edges": [{"i": 0, "r": [1.0]}]}),
                         ("short_weight", {"edges": [[0, 1, [1.0]]], "weights": [[0, 1]]}),
                         ("word_offset", {"edges": [[0, 1, "ab"]]}),
                         ("word_lambda2", {"edges": [[0, 1, [1.0]]], "lambda2": "x"})):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"n": 2, "dim": 1, "lambda2": 1.0, **fields}))
        code, _, err = run_main("formation", "--spec", spec, "--skip-sim")
        assert code == 2 and f"{name}.json" in err, err
    # n, dim, i and j are JSON integers, every other spec number a JSON
    # number, and no field a boolean: nothing is coerced
    square = {"n": 4, "dim": 2, "lambda2": 1e-3,
              "edges": [{"i": i, "j": (i + 1) % 4, "r": r}
                        for i, r in enumerate(([1, 1], [-1, 1], [-1, -1], [1, -1]))],
              "weights": [[i, (i + 1) % 4, 0.1] for i in range(4)]}
    edges, weights = square["edges"], square["weights"]
    for name, fields in (("n_float", {"n": 4.5}), ("n_bool", {"n": True}),
                         ("dim_float", {"dim": 2.5}),
                         ("j_float", {"edges": [{**edges[0], "j": 1.5}, *edges[1:]]}),
                         ("i_bool", {"edges": [edges[0], {**edges[1], "i": True}, *edges[2:]]}),
                         ("r_bool", {"edges": [{**edges[0], "r": [True, 1.0]}, *edges[1:]]}),
                         ("lambda2_bool", {"lambda2": True}),
                         ("lambda2_list_bool", {"lambda2": [True, 1e-3, 1e-3, 1e-3]}),
                         ("weight_bool", {"weights": [*weights[:3], [3, False, 0.1]]}),
                         ("weight_float_node", {"weights": [*weights[:3], [3, 0.0, 0.1]]})):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({**square, **fields}))
        code, out, err = run_main("formation", "--spec", spec, "--skip-sim")
        assert code == 2 and out == "" and "InvalidParam" in err and f"{name}.json" in err, err
    spec = tmp_path / "square.json"
    spec.write_text(json.dumps(square))
    assert run_main("formation", "--spec", spec, "--skip-sim")[0] == 0
    # non-finite or negative noise values, a NaN formation weight or offset,
    # --sigma2 next to the --sigma2-vec file that replaces it, --out with
    # formation --skip-sim, a sweep given --n, --edges or an unknown family
    # (custom included), --eps with a chain other than uniform, a negative
    # --oracle-cap, a malformed or empty --n-list, a missing --family, a
    # formation family run without --lambda2 and a grid of n < 1 end the run
    # before any work; a
    # --sigma2-vec or --sigma2-node that does not fit the graph ends it
    # before any output
    nan_vec = tmp_path / "nan.txt"
    nan_vec.write_text("1\nnan\n")
    nan_specs = []
    for name, fields in (("nan_weight", {"edges": [[0, 1, [1.0]]], "weights": [[0, 1, np.nan]]}),
                         ("nan_offset", {"edges": [[0, 1, [np.nan]]]})):
        nan_specs.append(tmp_path / f"{name}.json")
        nan_specs[-1].write_text(json.dumps({"n": 2, "dim": 1, "lambda2": 1.0, **fields}))
    six_vec = tmp_path / "six.txt"
    six_vec.write_text("1\n2\n3\n1\n2\n3\n")
    for argv in (("sweep", "--family", "ring", "--n-list", "4,8", "--sigma2", "-1"),
                 ("sweep", "--family", "ring", "--n-list", "4,8", "--sigma2", "nan"),
                 ("analyze", "--family", "ring", "--n", "5", "--sigma2", "nan"),
                 ("analyze", "--family", "ring", "--n", "5", "--sigma2-node", "0=inf"),
                 ("analyze", "--family", "complete", "--n", "2", "--sigma2-vec", nan_vec),
                 ("analyze", "--family", "ring", "--n", "6", "--sigma2", "9",
                  "--sigma2-vec", six_vec),
                 ("sweep", "--family", "ring", "--n-list", "6", "--sigma2", "1",
                  "--sigma2-vec", six_vec),
                 ("simulate", "--family", "ring", "--n", "6", "--sigma2-vec", six_vec,
                  "--sigma2", "2", "--horizon", "20", "--trials", "1", "--burn-in", "5"),
                 ("formation", "--demo", "--skip-sim", "--lambda2", "inf"),
                 ("formation", "--demo", "--skip-sim", "--lambda2", "nan"),
                 ("formation", "--demo", "--skip-sim", "--out", tmp_path / "x.csv"),
                 *(("formation", "--spec", spec, "--horizon", "20", "--trials", "1",
                    "--burn-in", "5") for spec in nan_specs),
                 ("sweep", "--family", "ring", "--n", "5", "--n-list", "8"),
                 ("sweep", "--family", "ring", "--n-list", "8",
                  "--edges", tmp_path / "nonexistent"),
                 ("sweep", "--family", "custom", "--n-list", "8"),
                 ("sweep", "--family", "nosuch", "--n-list", "8"),
                 ("analyze", "--family", "ring", "--n", "5", "--chain", "lazy", "--eps", "0.1"),
                 ("sweep", "--family", "ring", "--n-list", "4", "--chain", "simple",
                  "--eps", "0.1"),
                 ("simulate", "--family", "ring", "--n", "5", "--eps", "0.1",
                  "--horizon", "20", "--trials", "1", "--burn-in", "5"),
                 ("simulate", "--family", "ring", "--n", "5", "--horizon", "100",
                  "--burn-in", "10", "--seed", "-1"),
                 ("formation", "--demo", "--seed", "-3"),
                 ("analyze", "--family", "erdos-renyi", "--n", "10", "--p", "0.5",
                  "--seed", "-2"),
                 ("sweep", "--family", "ring", "--n-list", "4", "--seed", "-1"),
                 ("selftest", "--seed", "-1"),
                 ("analyze", "--family", "ring", "--n", "5", "--seed", "1.5"),
                 ("analyze", "--family", "ring", "--n", "5", "--oracle-cap", "-1"),
                 ("sweep", "--family", "ring", "--n-list", "4,x"),
                 ("sweep", "--family", "ring", "--n-list", ","),
                 ("analyze", "--family", "ring", "--n", "5", "--sigma2-vec", six_vec),
                 ("analyze", "--family", "ring", "--n", "5", "--sigma2-node", "9=1"),
                 ("analyze", "--n", "5"),
                 ("formation", "--family", "star", "--n", "7", "--skip-sim"),
                 ("analyze", "--family", "grid", "--n", "-4"),
                 ("formation", "--family", "grid", "--n", "-4", "--lambda2", "1",
                  "--skip-sim")):
        code, out, err = run_main(*argv)
        assert code == 2 and out == "", (argv, err)


def test_each_error_class_keeps_its_exit_code(monkeypatch):
    from consensuslab import cli, errors

    codes = {
        errors.InvalidParam: 2, errors.DimensionMismatch: 2, errors.DisconnectedGraph: 2,
        errors.StepSizeViolation: 2, errors.AsymmetricWeights: 2,
        errors.InconsistentFormation: 2,
        errors.GenerationFailed: 3, errors.NotIrreducible: 3, errors.NotReversible: 3,
        errors.NotSymmetric: 3, errors.RandomTargetViolation: 3,
        errors.EigSolverFailure: 3, errors.SingularSystem: 3, errors.NoConvergence: 3,
        FileNotFoundError: 2, IsADirectoryError: 2, PermissionError: 2,
        json.JSONDecodeError: 2,
    }
    assert set(errors.ConsensusError.__subclasses__()) <= codes.keys()
    for cls, code in codes.items():
        exc = json.JSONDecodeError("bad", "", 0) if cls is json.JSONDecodeError else cls("x")

        def fail(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_selftest", fail)
        assert cli.main(["selftest"]) == code, cls


def test_cli_exit_code_3_on_numerical_failures():
    # bipartite simple walk: the squared chain is reducible, and the error
    # names the periodic chain rather than the squared chain's hitting times
    r = run_cli("analyze", "--family", "ring", "--n", "8", "--chain", "simple")
    assert r.returncode == 3
    assert "error" in r.stderr
    assert "chain is periodic" in r.stderr
    assert "use a lazy walk or the simulator" in r.stderr
    # impossible random graph
    r2 = run_cli("analyze", "--family", "erdos-renyi", "--n", "6", "--p", "0.01")
    assert r2.returncode == 3


def test_sweep_csv_schema_and_error_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, err = run_main("sweep", "--family", "starry-line", "--n-list", "9,10,18",
                            "--sigma2", "1", "--out", out)
    assert code == 0, err
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
    # a grid size below 1 is a row error too, not the end of the table
    code, out, err = run_main("sweep", "--family", "grid", "--n-list=-4,16")
    assert code == 0, err
    rows = list(csv.reader(ln for ln in out.splitlines() if not ln.startswith("#")))
    assert [r[1] for r in rows[1:]] == ["-4", "16"]
    assert rows[1][2] == "" and "InvalidParam: grid needs n >= 1" in rows[1][-1]
    assert float(rows[2][2]) > 0 and rows[2][-1] == ""


def test_sweep_rows_build_no_hitting_matrix(monkeypatch):
    # every sweep number is read off the fundamental matrix of P^2
    import tracemalloc

    from consensuslab import disagreement, markov
    from consensuslab.graphs import build_graph

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep row built a hitting-time matrix")

    for module in (markov, disagreement, cli):
        if hasattr(module, "hitting_times"):
            monkeypatch.setattr(module, "hitting_times", refuse)
    code, out, err = run_main("sweep", "--family", "ring", "--n-list", "4,8,16")
    assert code == 0, err
    rows = list(csv.reader(ln for ln in out.splitlines() if not ln.startswith("#")))
    assert [r[1] for r in rows[1:]] == ["4", "8", "16"]
    assert all(r[-1] == "" and all(r[2:-1]) for r in rows[1:])

    # and holds few n x n arrays at once: P^2, Z and the resistances
    n = 900
    P = markov.uniform_edge_matrix(build_graph("two-star", n))
    noise = disagreement.NoiseCovariance.scalar(n, 1.0)
    row: dict = {}
    tracemalloc.start()
    try:
        cli._fill_row(row, P, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["max_resistance"] > 0
    assert peak <= 4 * n * n * 8  # 3.4 arrays; the hitting-matrix route peaked at 5.2


def test_analyze_and_sweep_agree_bit_for_bit():
    # one closed form serves both commands, so the same chain and noise give
    # the same floats; the sweep's %.16e fields parse back to them exactly
    for n, sigma2 in (("64", "1"), ("65", "1"), ("65", "1.7"), ("200", "0.3")):
        code, out, err = run_main("analyze", "--family", "ring", "--n", n, "--sigma2", sigma2)
        assert code == 0, err
        doc = json.loads(out)
        code, out, err = run_main("sweep", "--family", "ring", "--n-list", n,
                                  "--sigma2", sigma2)
        assert code == 0, err
        row = next(csv.DictReader(ln for ln in out.splitlines() if not ln.startswith("#")))
        for key in ("delta_ss", "delta_uni_lower", "delta_uni_upper"):
            assert float(row[key]) == doc[key], (n, sigma2, key)


def test_simulate_writes_trace_and_summary(tmp_path):
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    code, _, err = run_main("simulate", "--family", "ring", "--n", "6", "--sigma2", "1",
                            "--horizon", "400", "--trials", "3", "--burn-in", "100",
                            "--record-every", "4", "--seed", "5",
                            "--out", trace, "--summary", summary)
    assert code == 0, err
    doc = json.loads(summary.read_text())
    assert doc["delta_hat"] > 0 and doc["stderr"] > 0
    assert doc["delta_ss_exact"] > 0
    assert abs(doc["delta_hat"] - doc["delta_ss_exact"]) < 0.5 * doc["delta_ss_exact"]
    body = [ln for ln in trace.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "t,delta_hat,delta_uni_hat,stderr"
    data = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    assert data.shape == (101, 4)
    np.testing.assert_array_equal(data[:, 0], np.arange(0, 401, 4))
    # the simple walk on an even ring is periodic: the run still simulates,
    # and the summary writes that no closed form exists
    code, out, err = run_main("simulate", "--family", "ring", "--n", "6", "--chain", "simple",
                              "--burn-in", "10", "--horizon", "100", "--trials", "1")
    assert code == 0, err
    assert '"delta_ss_exact": null' in out


def test_simulate_records_the_automatic_burn_in():
    from consensuslab.graphs import ring_graph
    from consensuslab.markov import lazy_walk_matrix
    from consensuslab.simulate import auto_burn_in

    code, out, err = run_main("simulate", "--family", "ring", "--n", "6", "--horizon", "400",
                              "--trials", "2", "--seed", "5")
    assert code == 0, err
    burn = json.loads(out)["config"]["burn_in"]
    assert burn == auto_burn_in(lazy_walk_matrix(ring_graph(6)))


def test_simulate_reruns_are_identical(tmp_path):
    t1, t2 = tmp_path / "1.csv", tmp_path / "2.csv"
    base = ("simulate", "--family", "star", "--n", "5", "--horizon", "200",
            "--trials", "2", "--burn-in", "50", "--seed", "3")
    run_main(*base, "--out", t1)
    run_main(*base, "--out", t2)
    assert t1.read_text() == t2.read_text()


def test_formation_demo_run(tmp_path):
    traj, summary = tmp_path / "traj.csv", tmp_path / "form.json"
    code, _, err = run_main("formation", "--demo", "--horizon", "400", "--trials", "2",
                            "--record-every", "10", "--burn-in", "100", "--seed", "2",
                            "--out", traj, "--summary", summary)
    assert code == 0, err
    doc = json.loads(summary.read_text())
    assert doc["n"] == 4 and doc["dim"] == 2
    assert doc["form_exact"] > 0 and doc["form_simulated"] > 0
    assert doc["kemeny_p2"] == pytest.approx(doc["form_exact"] * 4 / (2 * 4e-4), rel=1e-9)
    body = [ln for ln in traj.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "t,node,x1,x2"
    assert len(body) == 1 + 41 * 4


def test_formation_csv_is_the_metadata_then_the_trajectory(tmp_path):
    traj = tmp_path / "traj.csv"
    code, _, err = run_main("formation", "--demo", "--horizon", "300", "--trials", "2",
                            "--record-every", "7", "--seed", "5", "--out", traj,
                            "--summary", tmp_path / "form.json")
    assert code == 0, err
    trace, _ = consensuslab.simulate_formation(
        consensuslab.ring_demo_spec(4e-4),
        consensuslab.SimConfig(horizon=300, trials=2, seed=5, record_every=7))
    body = tmp_path / "body.csv"
    consensuslab.write_trajectory_csv(body, trace)
    meta = traj.read_bytes().split(b"\n")[:3]
    assert [ln[:1] for ln in meta] == [b"#"] * 3
    assert traj.read_bytes() == b"\n".join(meta) + b"\n" + body.read_bytes()


def test_formation_family_and_spec_file(tmp_path):
    code, out, err = run_main("formation", "--family", "star", "--n", "7",
                              "--lambda2", "4e-4", "--skip-sim")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["form_simulated"] is None
    assert doc["form_exact"] > 0

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 2, "dim": 2,
        "edges": [{"i": 0, "j": 1, "r": [1.0, 0.0]}],
        "weights": "default", "lambda2": 1.0,
    }))
    # the config echoes the spec's lambda2, which the run used; the spec
    # file sets it, so --spec does not read a --lambda2 flag
    doc2 = json.loads(run_main("formation", "--spec", spec, "--skip-sim")[1])
    assert doc2["form_exact"] == pytest.approx(1.0, rel=1e-12)
    assert doc2["config"]["lambda2"] == 1.0
    code, out, err = run_main("formation", "--spec", spec, "--lambda2", "0.5", "--skip-sim")
    assert code == 2 and out == "" and "--spec does not read --lambda2" in err, err

    # inconsistent offsets in a file are a config error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 3, "dim": 1,
        "edges": [{"i": 0, "j": 1, "r": [1.0]}, {"i": 1, "j": 2, "r": [1.0]},
                  {"i": 0, "j": 2, "r": [1.0]}],
        "weights": "default", "lambda2": 1.0,
    }))
    assert run_main("formation", "--spec", bad, "--skip-sim")[0] == 2


def test_formation_skip_sim_rejects_the_simulation_flags():
    # --skip-sim runs no simulation, so a simulation flag with it is exit 2
    # before any work; --seed is still read when it samples the graph
    for flag, value in (("--horizon", "7"), ("--trials", "99"), ("--burn-in", "5"),
                        ("--record-every", "2"), ("--seed", "3")):
        code, out, err = run_main("formation", "--demo", "--skip-sim", flag, value)
        assert code == 2 and out == "" and flag in err, (flag, err)
    code, out, err = run_main("formation", "--family", "erdos-renyi", "--n", "8", "--p", "0.6",
                              "--lambda2", "1e-3", "--skip-sim", "--seed", "3")
    assert code == 0, err
    assert json.loads(out)["seed"] == 3
    # without the flags, the header records the defaults a simulated run uses
    config = json.loads(run_main("formation", "--demo", "--skip-sim")[1])["config"]
    assert [config[k] for k in ("horizon", "trials", "burn_in", "record_every")] == [2000, 4, None, 1]


def test_formation_spec_with_per_node_lambda2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 3, "dim": 2,
        "edges": [{"i": 0, "j": 1, "r": [1.0, 0.0]}, {"i": 1, "j": 2, "r": [0.0, 1.0]}],
        "weights": "default", "lambda2": [1e-3, 2e-3, 3e-3],
    }))
    code, out, err = run_main("formation", "--spec", spec, "--horizon", "300", "--trials", "2")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["lambda2"] == doc["config"]["lambda2"] == [1e-3, 2e-3, 3e-3]
    loaded = consensuslab.load_formation_spec(spec)
    assert doc["form_exact"] == consensuslab.form_via_delta(loaded)
    P2 = consensuslab.square_chain(loaded.chain)
    assert doc["kemeny_p2"] == consensuslab.kemeny_constant_combinatorial(P2)
    assert doc["form_simulated"] > 0


def _usage_flags(command: str) -> set[str]:
    """The long flags a subcommand's usage line lists, as config keys."""
    usage = run_main(command, "--help")[1].split("\n\n", 1)[0]
    return {flag.replace("-", "_") for flag in re.findall(r"--([a-z0-9-]+)", usage)}


def _csv_header(path) -> dict:
    line = next(ln for ln in path.read_text().splitlines() if ln.startswith("# config="))
    return json.loads(line[len("# config="):])


def test_every_output_header_holds_the_parsed_flags(tmp_path):
    runs = {
        "analyze": ("--family", "ring", "--n", "6", "--sigma2-node", "1=2",
                    "--out", tmp_path / "analyze.json"),
        "sweep": ("--family", "ring", "--n-list", "4, 8", "--out", tmp_path / "sweep.csv"),
        "simulate": ("--family", "ring", "--n", "6", "--horizon", "400", "--trials", "2",
                     "--burn-in", "100", "--out", tmp_path / "simulate.csv",
                     "--summary", tmp_path / "simulate.json"),
        "formation": ("--demo", "--horizon", "300", "--trials", "2", "--record-every", "7",
                      "--out", tmp_path / "formation.csv",
                      "--summary", tmp_path / "formation.json"),
    }
    for command, argv in runs.items():
        code, _, err = run_main(command, *argv)
        assert code == 0, (command, err)
    headers = {"analyze": json.loads((tmp_path / "analyze.json").read_text()),
               "sweep": _csv_header(tmp_path / "sweep.csv")}
    # the JSON summary opens with the header that the CSV's config line holds
    for command in ("simulate", "formation"):
        summary = json.loads((tmp_path / f"{command}.json").read_text())
        headers[command] = _csv_header(tmp_path / f"{command}.csv")
        assert list(summary)[:4] == ["version", "command", "seed", "config"]
        assert {k: summary[k] for k in headers[command]} == headers[command]
    for command, doc in headers.items():
        assert doc["command"] == command and doc["seed"] == 0
        assert set(doc["config"]) == _usage_flags(command) - {"seed", "out", "summary"}
    assert headers["analyze"]["config"]["sigma2_node"] == {"1": 2.0}
    assert all(doc["config"]["sigma2"] == 1.0 for c, doc in headers.items() if c != "formation")
    assert headers["sweep"]["config"]["n_list"] == [4, 8]
    assert headers["formation"]["config"]["lambda2"] == 4e-4
    assert headers["formation"]["config"]["burn_in"] == 51


def test_graph_flags_are_checked_against_the_family(tmp_path):
    # a flag the family does not read, or a parameter it needs and lacks,
    # exits 2 before any output, so no header records an ignored value
    edges = tmp_path / "triangle.txt"
    edges.write_text("3\n0 1\n1 2\n0 2\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 2, "dim": 1, "lambda2": 1.0,
                                "edges": [{"i": 0, "j": 1, "r": [1.0]}]}))
    sim = ("--horizon", "20", "--trials", "1", "--burn-in", "5")
    for argv in (
        ("analyze", "--family", "custom", "--edges", edges, "--n", "99"),
        ("analyze", "--family", "ring", "--n", "5", "--edges", tmp_path / "nonexistent"),
        ("analyze", "--family", "ring", "--n", "5", "--p", "0.5"),
        ("analyze", "--family", "ring", "--n", "9", "--grid-dim", "2"),
        ("analyze", "--family", "erdos-renyi", "--n", "6"),
        ("analyze", "--family", "grid", "--n", "9", "--degree", "2"),
        ("simulate", "--family", "custom", "--edges", edges, "--n", "3", *sim),
        ("simulate", "--family", "star", "--n", "5", "--degree", "2", *sim),
        ("simulate", "--family", "random-regular", "--n", "6", *sim),
        ("formation", "--family", "custom", "--edges", edges, "--n", "3",
         "--lambda2", "1e-3", "--skip-sim"),
        ("formation", "--family", "star", "--n", "5", "--edges", edges,
         "--lambda2", "1e-3", "--skip-sim"),
        ("formation", "--demo", "--family", "ring", "--skip-sim"),
        ("formation", "--demo", "--n", "5", "--skip-sim"),
        ("formation", "--spec", spec, "--edges", edges, "--skip-sim"),
        ("formation", "--demo", "--spec", spec, "--skip-sim"),
        ("sweep", "--family", "erdos-renyi", "--n-list", "6,8"),
        ("sweep", "--family", "random-regular", "--n-list", "6,8"),
        ("sweep", "--family", "ring", "--n-list", "5,7", "--grid-dim", "3"),
    ):
        code, out, err = run_main(*argv)
        assert code == 2 and out == "" and err.startswith("error (InvalidParam)"), (argv, err)

    # each built-in family against each family flag, by a map written here
    reads = {"erdos-renyi": {"--p"}, "random-regular": {"--degree"}, "grid": {"--grid-dim"}}
    sizes = {"starry-line": 15, "tree": 15}
    for fam in builtin_families():
        for flag, value in (("--p", "0.5"), ("--degree", "3"), ("--grid-dim", "2")):
            code, out, err = run_main("analyze", "--family", fam, "--n", sizes.get(fam, 16),
                                      flag, value, "--oracle-cap", "0")
            if flag in reads.get(fam, ()):
                assert code == 0, (fam, flag, err)
            else:
                assert code == 2 and out == "", (fam, flag, err)
                assert err.strip().endswith(f"--family {fam} does not read {flag}"), err

    # the values a run reads are the values its header records
    code, out, _ = run_main("analyze", "--family", "grid", "--n", "9", "--oracle-cap", "0")
    assert code == 0 and json.loads(out)["config"]["grid_dim"] == 2
    code, out, _ = run_main("analyze", "--family", "custom", "--edges", edges)
    config = json.loads(out)["config"]
    assert code == 0
    assert config["n"] is config["grid_dim"] is None and config["edges"] == str(edges)
    code, out, _ = run_main("analyze", "--family", "ring", "--n", "5", "--chain", "uniform",
                            "--eps", "0.1")
    assert code == 0 and json.loads(out)["config"]["eps"] == 0.1
    code, out, _ = run_main("sweep", "--family", "erdos-renyi", "--n-list", "6,8", "--p", "0.9")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert [r.split(",")[0] for r in rows[1:]] == ["erdos-renyi"] * 2
    assert all(r.endswith(",") for r in rows[1:])  # no row error


def test_parser_reuse_leaks_no_state_between_calls(monkeypatch):
    # one process runs these in order on one parser; each output equals the
    # same argv run alone in a fresh interpreter
    sequence = (
        ("analyze", "--family", "ring", "--n", "5", "--sigma2-node", "0=2"),
        ("analyze", "--family", "grid", "--n", "9"),
        ("analyze", "--family", "ring", "--n", "5"),
        ("sweep", "--family", "ring", "--n-list", "4,8"),
        ("analyze", "--family", "ring", "--n", "5"),
    )
    fresh = {argv: subprocess.Popen([sys.executable, "-m", "consensuslab", *argv],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for argv in sequence}
    outputs = []
    for argv in sequence:
        code, out, err = run_main(*argv)
        assert code == 0, (argv, err)
        outputs.append(out)
    alone = {}
    for argv, proc in fresh.items():
        alone[argv], stderr = proc.communicate()
        assert proc.returncode == 0, (argv, stderr)
    for argv, out in zip(sequence, outputs):
        assert out == alone[argv], argv
    analyses = [json.loads(out)["config"] for argv, out in zip(sequence, outputs)
                if argv[0] == "analyze"]
    assert [c["sigma2_node"] for c in analyses] == [{"0": 2.0}, {}, {}, {}]
    assert [c["grid_dim"] for c in analyses] == [None, 2, None, None]

    # N calls build the parser at most once; build_parser() is new each call
    build_parser = cli.build_parser
    builds = []

    def counting_build_parser():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for _ in range(3):
        assert run_main("analyze", "--family", "ring", "--n", "4")[0] == 0
    assert run_main("selftest", "--bogus")[0] == 2
    assert len(builds) == 1
    assert build_parser() is not build_parser()


def test_formation_requires_a_source():
    assert run_cli("formation", "--family", "star", "--n", "7").returncode == 2


def test_selftest_passes():
    code, out, err = run_main("selftest")
    assert code == 0, out + err
    assert "checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("name, failing", [("SELFTEST_EXACT_TOL", 2),
                                           ("SELFTEST_AGREEMENT_RTOL", 1),
                                           ("SELFTEST_ORACLE_RTOL", 1),
                                           ("SELFTEST_IDENTITY_TOL", 2)])
def test_selftest_reads_its_tolerances_from_the_tolerances_module(monkeypatch, name, failing):
    monkeypatch.setattr(tolerances, name, -1.0)  # no deviation is below it
    code, out, _ = run_main("selftest")
    assert code == 3
    assert f"{7 - failing}/7 checks passed" in out

def test_selftest_fails_under_optimized_python():
    # python -O strips assert statements; a broken formula must still fail
    code = ("import sys; from consensuslab import cli; "
            "cli.delta_ss_kemeny = lambda P, sigma2: 0.0; "
            "sys.exit(cli.main(['selftest']))")
    r = subprocess.run([sys.executable, "-O", "-c", code],
                       capture_output=True, text=True, env=package_env())
    assert r.returncode == 3, r.stdout + r.stderr
    assert "6/7 checks passed" in r.stdout


def _readme_block(section: str, lang: str) -> str:
    """The first ``lang`` code block of a README section."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split(f"\n## {section}\n", 1)[1]
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_cli_commands() -> list[list[str]]:
    block = _readme_block("CLI", "bash")
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
    env = package_env()
    documents = []
    for argv in commands:
        r = run_cli(*argv, cwd=tmp_path, env=env)
        assert r.returncode == 0, (argv, r.stderr)
        if r.stdout.startswith("{"):
            documents.append(r.stdout)
    documents += [p.read_text() for p in sorted(tmp_path.glob("*.json"))]
    assert len(documents) == 4

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for text in documents:
        json.loads(text, parse_constant=reject)
    # the formation example resolves its automatic burn-in in the output
    assert json.loads((tmp_path / "form.json").read_text())["config"]["burn_in"] == 7052


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def test_closed_forms_across_blas_thread_counts():
    # README, File formats: closed-form outputs are byte-identical across
    # reruns at one BLAS thread count, and across counts every number stays
    # within the relative bound it states.  Each run is a fresh process, one
    # at a time, with at most two BLAS threads
    text = pathlib.Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    section = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    bound = float(re.search(r"within (\S+)\s+relative", section).group(1))
    for argv in (("sweep", "--family", "line", "--n-list", "300,1200", "--chain", "uniform"),
                 ("analyze", "--family", "ring", "--n", "200")):
        one, again, two = (run_cli(*argv, env={**package_env(), "OPENBLAS_NUM_THREADS": t})
                           for t in ("1", "1", "2"))
        assert one.returncode == again.returncode == two.returncode == 0, two.stderr
        assert one.stdout == again.stdout
        assert _NUMBER.sub("#", one.stdout) == _NUMBER.sub("#", two.stdout)
        for a, b in zip(_NUMBER.findall(one.stdout), _NUMBER.findall(two.stdout)):
            x, y = float(a), float(b)
            assert abs(x - y) <= bound * max(abs(x), abs(y)), (argv[0], a, b)


def test_readme_python_quickstart_runs(tmp_path):
    block = _readme_block("Library quickstart", "python")
    r = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                       capture_output=True, text=True, env=package_env())
    assert r.returncode == 0, r.stderr
    assert float(r.stdout) > 0  # the exact formation error it prints
