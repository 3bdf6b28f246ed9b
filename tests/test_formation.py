import importlib
import io
import json
import pathlib

import numpy as np
import pytest

from consensuslab import formation

from consensuslab.errors import (
    AsymmetricWeights,
    DimensionMismatch,
    DisconnectedGraph,
    InconsistentFormation,
    InvalidParam,
    StepSizeViolation,
)
from consensuslab.graphs import build_graph, custom_graph, nearest_valid_size, star_graph
from consensuslab.formation import (
    FormationTrace,
    _write_trajectory,
    build_formation_spec,
    default_weights,
    form_exact,
    form_metric,
    form_via_delta,
    formation_matrix,
    layout_positions,
    load_formation_spec,
    ring_demo_spec,
    simulate_formation,
    spec_from_graph,
    write_trajectory_csv,
)
from consensuslab.simulate import SimConfig


def line2_spec(lambda2=1.0):
    g = custom_graph(2, [(0, 1)], family="line(n=2)")
    return build_formation_spec(g, 2, {(0, 1): [1.0, 0.0]}, "default", lambda2)


def test_default_weights_and_matrix_star4():
    g = star_graph(4)
    w = default_weights(g)
    assert all(v == pytest.approx(1 / 6) for v in w.values())
    spec = build_formation_spec(
        g, 2, {(0, j): [float(j), 0.0] for j in (1, 2, 3)}, "default", 1.0
    )
    P = formation_matrix(spec)
    np.testing.assert_allclose(np.diag(P.entries), [1 / 2, 5 / 6, 5 / 6, 5 / 6], atol=1e-15)
    assert P.symmetric and P.aperiodic


def test_formation_chain_is_built_once_per_spec(monkeypatch):
    from consensuslab.markov import StochasticMatrix

    builds = []
    init = StochasticMatrix.__init__
    monkeypatch.setattr(StochasticMatrix, "__init__",
                        lambda self, *a, **kw: builds.append(1) or init(self, *a, **kw))
    spec = ring_demo_spec()
    P = formation_matrix(spec)
    assert formation_matrix(spec) is P
    form_exact(spec)
    form_via_delta(spec)
    simulate_formation(spec, SimConfig(horizon=200, trials=1, seed=0))
    # P_form and its square, shared by both closed forms and the simulator
    assert len(builds) == 2


def test_formation_chain_rho_and_automatic_burn_in():
    from consensuslab.simulate import auto_burn_in

    specs = (
        (spec_from_graph(build_graph("tree", 127), 4e-4), 7052),
        (spec_from_graph(build_graph("star", 127), 4e-4), 2526),
        (ring_demo_spec(), 51),
    )
    for spec, burn in specs:
        P = formation_matrix(spec)
        M = P.entries - np.outer(np.ones(P.n), P.stationary())
        assert abs(P.rho - np.abs(np.linalg.eigvals(M)).max()) <= 1e-13
        assert auto_burn_in(P) == burn


def test_two_agent_formation_error_is_one():
    spec = line2_spec()
    rep = form_exact(spec)
    assert rep.form_exact == pytest.approx(1.0, abs=1e-12)
    assert rep.kemeny_p2 == pytest.approx(1.0, abs=1e-12)
    assert form_via_delta(spec) == pytest.approx(1.0, abs=1e-10)


def test_form_scales_linearly_in_lambda2_and_dim():
    a = form_exact(line2_spec(1.0)).form_exact
    b = form_exact(line2_spec(0.25)).form_exact
    assert b == pytest.approx(a / 4, rel=1e-12)
    g = custom_graph(2, [(0, 1)], family="line(n=2)")
    three_d = build_formation_spec(g, 3, {(0, 1): [1.0, 0.0, 0.0]}, "default", 1.0)
    assert form_exact(three_d).form_exact == pytest.approx(1.5 * a, rel=1e-12)


def test_ring_demo_spec_is_the_unit_square():
    spec = ring_demo_spec()
    assert spec.n == 4 and spec.dim == 2
    assert spec.consistency_residual < 1e-12
    # all sides of the recovered square have length sqrt(2)
    p = spec.positions
    for i, j in spec.graph.edges:
        assert np.linalg.norm(p[j] - p[i]) == pytest.approx(np.sqrt(2), rel=1e-12)
    assert all(v == pytest.approx(1 / 9) for v in spec.weights.values())


def test_theorem_and_general_route_agree_on_families():
    rng = np.random.default_rng(0)
    for fam in ("line", "ring", "star", "tree"):
        n = nearest_valid_size(fam, 10)
        spec = spec_from_graph(build_graph(fam, n), lambda2=0.3)
        a = form_exact(spec).form_exact
        b = form_via_delta(spec)
        assert abs(a - b) < 1e-10 * (1 + abs(a)), fam
        # per-node noise goes through the general route only
        spec.lambda2 = rng.uniform(0.1, 1.0, n)
        assert form_via_delta(spec) > 0
        with pytest.raises(InvalidParam):
            form_exact(spec)


def test_offset_independence_of_the_exact_error():
    # two different consistent offset sets on the same graph/weights
    g = build_graph("ring", 5)
    a = spec_from_graph(g, lambda2=0.5)
    pos = np.random.default_rng(3).normal(size=(5, 2))
    offsets = {(i, j): pos[j] - pos[i] for i, j in g.edges}
    b = build_formation_spec(g, 2, offsets, "default", 0.5)
    assert form_exact(a).form_exact == pytest.approx(form_exact(b).form_exact, rel=1e-12)


def test_inconsistent_offsets_are_rejected():
    g = build_graph("ring", 3)
    # a cycle whose offsets do not sum to zero cannot be realized
    offsets = {(0, 1): [1.0, 0.0], (1, 2): [1.0, 0.0], (0, 2): [1.0, 0.0]}
    with pytest.raises(InconsistentFormation):
        build_formation_spec(g, 2, offsets, "default", 1.0)


def test_offset_antisymmetry_and_coverage_checks():
    g = build_graph("line", 3)
    with pytest.raises(InvalidParam):
        # both orientations present and contradictory
        build_formation_spec(
            g, 1, {(0, 1): [1.0], (1, 0): [1.0], (1, 2): [1.0]}, "default", 1.0
        )
    with pytest.raises(InvalidParam):
        build_formation_spec(g, 1, {(0, 1): [1.0]}, "default", 1.0)  # edge missing
    with pytest.raises(DimensionMismatch):
        build_formation_spec(g, 2, {(0, 1): [1.0], (1, 2): [1.0]}, "default", 1.0)


def test_lambda2_must_be_finite_and_nonnegative():
    g = build_graph("line", 3)
    offsets = {(0, 1): [1.0], (1, 2): [1.0]}
    for bad in (-1.0, np.nan, np.inf, [1.0, np.nan, 1.0]):
        with pytest.raises(InvalidParam):
            build_formation_spec(g, 1, offsets, "default", bad)


def test_weight_validation():
    g = build_graph("line", 3)
    offsets = {(0, 1): [1.0], (1, 2): [1.0]}
    with pytest.raises(StepSizeViolation):
        build_formation_spec(g, 1, offsets, {(0, 1): 0.5, (1, 2): 0.5}, 1.0)
    with pytest.raises(AsymmetricWeights):
        build_formation_spec(g, 1, offsets, {(0, 1): 0.2, (1, 0): 0.3, (1, 2): 0.2}, 1.0)
    with pytest.raises(InvalidParam):
        build_formation_spec(g, 1, offsets, {(0, 1): -0.1, (1, 2): 0.2}, 1.0)
    with pytest.raises(DisconnectedGraph):
        build_formation_spec(custom_graph(3, [(0, 1)]), 1, {(0, 1): [1.0]}, "default", 1.0)


def test_form_metric_translation_invariance_and_direct_value():
    spec = ring_demo_spec()
    rng = np.random.default_rng(1)
    assert form_metric(spec.positions, spec) == 0.0
    shift = spec.positions + np.array([3.7, -2.2])
    assert form_metric(shift, spec) < 1e-24
    # zero-mean displacement v: metric is exactly mean ||v_i||^2
    v = rng.normal(size=(4, 2))
    v -= v.mean(axis=0)
    got = form_metric(spec.positions + v, spec)
    assert got == pytest.approx(float(np.mean(np.sum(v * v, axis=1))), rel=1e-12)


def test_noiseless_simulation_stays_in_formation():
    spec = ring_demo_spec(lambda2=0.0)
    cfg = SimConfig(horizon=60, trials=1, burn_in=10, seed=0)
    trace, (est, se) = simulate_formation(spec, cfg)
    assert np.abs(trace.form_mean).max() < 1e-24
    assert est < 1e-24 and se == 0.0


def test_noiseless_simulation_converges_from_random_start():
    spec = ring_demo_spec(lambda2=0.0)
    rng = np.random.default_rng(5)
    p0 = rng.normal(size=(4, 2)) * 3.0
    cfg = SimConfig(horizon=400, trials=1, burn_in=10, seed=0)
    trace, _ = simulate_formation(spec, cfg, p0=p0)
    assert trace.form_mean[-1] < 1e-6 * trace.form_mean[0]


def test_simulated_error_is_the_formation_metric_of_the_trajectory():
    # the simulator runs consensus on p - phat; its metric must be
    # form_metric of the recorded positions, started away from the formation
    spec = spec_from_graph(build_graph("tree", 15), lambda2=4e-4)
    p0 = spec.positions + np.random.default_rng(3).normal(size=(15, 2))
    cfg = SimConfig(horizon=300, trials=1, burn_in=50, seed=8, record_every=7)
    trace, _ = simulate_formation(spec, cfg, p0=p0)
    direct = [form_metric(p, spec) for p in trace.positions]
    np.testing.assert_allclose(trace.form_mean, direct, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.positions[0], p0, rtol=0, atol=1e-14)


def test_simulated_error_matches_closed_form():
    spec = ring_demo_spec()  # fast mixer, tiny n
    cfg = SimConfig(horizon=3000, trials=40, burn_in=300, seed=11)
    _, (est, se) = simulate_formation(spec, cfg)
    exact = form_exact(spec).form_exact
    assert abs(est - exact) < 3 * se


def test_spec_json_round_trip(tmp_path):
    doc = {
        "n": 4,
        "dim": 2,
        "edges": [
            {"i": 0, "j": 1, "r": [1.0, 1.0]},
            {"i": 1, "j": 2, "r": [-1.0, 1.0]},
            {"i": 2, "j": 3, "r": [-1.0, -1.0]},
            {"i": 3, "j": 0, "r": [1.0, -1.0]},
        ],
        "weights": [[0, 1, 1 / 9], [1, 2, 1 / 9], [2, 3, 1 / 9], [3, 0, 1 / 9]],
        "lambda2": 4e-4,
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    spec = load_formation_spec(path)
    ref = ring_demo_spec()
    assert spec.n == 4 and spec.dim == 2
    np.testing.assert_allclose(spec.positions, ref.positions, atol=1e-12)
    assert form_exact(spec).form_exact == pytest.approx(
        form_exact(ref).form_exact, rel=1e-12
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "dim": 1}))
    with pytest.raises(InvalidParam):
        load_formation_spec(bad)


def test_trajectory_csv_format(tmp_path):
    spec = ring_demo_spec()
    cfg = SimConfig(horizon=20, trials=1, burn_in=5, seed=0, record_every=5)
    trace, _ = simulate_formation(spec, cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, trace)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,node,x1,x2"
    assert len(lines) == 1 + len(trace.times) * 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    np.testing.assert_allclose(
        [float(first[2]), float(first[3])], spec.positions[0], atol=1e-15
    )


def _hand_trace(n: int, d: int) -> FormationTrace:
    """Recorded steps of n nodes in R^d that hold every awkward float."""
    values = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, np.inf, -np.inf, np.nan,
              1.0 / 3.0, -123456.789]
    steps = len(values)
    pos = np.resize(np.array(values), steps * n * d).reshape(steps, n, d)
    return FormationTrace(times=np.arange(steps) * 99991, positions=pos,
                          form_mean=np.zeros(steps), form_stderr=np.zeros(steps), burn_in=0)


def _per_row_csv(trace: FormationTrace) -> str:
    d = trace.positions.shape[2]
    row = "%d,%d," + ",".join(["%.16e"] * d) + "\n"
    lines = ["t,node," + ",".join(f"x{k + 1}" for k in range(d)) + "\n"]
    for t, step in zip(trace.times.tolist(), trace.positions):
        lines += [row % (t, node, *c) for node, c in enumerate(step.tolist())]
    return "".join(lines)


def test_trajectory_writer_bytes_equal_the_per_row_format(tmp_path, monkeypatch):
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracer = importlib.import_module("tracer").Tracer()
    for n, d in ((1, 1), (1, 2), (1, 3), (4, 1), (5, 2), (3, 3)):
        trace = _hand_trace(n, d)
        expected = _per_row_csv(trace)
        assert "inf" in expected and "nan" in expected and "-0.0000000000000000e+00" in expected
        fh = io.StringIO()
        _write_trajectory(fh, trace)
        assert fh.getvalue() == expected
        path = tmp_path / f"traj_{n}_{d}.csv"
        tracer.install()
        try:
            formation.write_trajectory_csv(path, trace)
        finally:
            tracer.uninstall()
        assert tracer.spans[-1].name == "formation.write_trajectory_csv"
        assert path.read_bytes() == expected.encode()


def test_layouts_have_unit_scale_edges():
    for fam in ("line", "ring", "star", "tree", "grid", "two-star"):
        n = nearest_valid_size(fam, 16)
        g = build_graph(fam, n)
        pos = layout_positions(g)
        lengths = [np.linalg.norm(pos[j] - pos[i]) for i, j in g.edges]
        assert min(lengths) > 0.5, fam  # nodes never collide along an edge
