import dataclasses
import importlib
import io
import json
import pathlib
import re

import numpy as np
import pytest
from conftest import nearest_valid_size, run_main
from hypothesis import given, settings
from hypothesis import strategies as st
from referees import exact_positions, form_metric

from consensuslab import formation, tolerances
from consensuslab._csvrows import BLOCK_FLOATS

from consensuslab.errors import (
    AsymmetricWeights,
    DimensionMismatch,
    DisconnectedGraph,
    InconsistentFormation,
    InvalidParam,
    StepSizeViolation,
)
from consensuslab.graphs import build_graph, custom_graph, star_graph
from consensuslab.markov import uniform_edge_matrix
from consensuslab.formation import (
    FormationTrace,
    _write_trajectory,
    build_formation_spec,
    form_exact,
    form_via_delta,
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
    spec = build_formation_spec(
        g, 2, {(0, j): [float(j), 0.0] for j in (1, 2, 3)}, "default", 1.0
    )
    assert all(v == pytest.approx(1 / 6) for v in spec.weights.values())
    P = spec.chain
    np.testing.assert_allclose(np.diag(P.entries), [1 / 2, 5 / 6, 5 / 6, 5 / 6], atol=1e-15)
    assert P.symmetric and P.aperiodic


@pytest.mark.parametrize("family, n", [
    ("ring", 64), ("line", 50), ("tree", 127), ("grid", 256), ("grid", 1024),
    ("starry-line", 192), ("complete", 64), ("star", 127), ("two-star", 200), ("two-star", 1600),
])
def test_default_formation_chain_is_the_uniform_chain_bitwise(family, n):
    # one chain builder: with default weights, P_form's stored arrays are
    # those of the uniform chain, hub diagonals included
    g = build_graph(family, n)
    form, uniform = spec_from_graph(g, 1e-3).chain._csr, uniform_edge_matrix(g)._csr
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(form, name), getattr(uniform, name)), name


def test_custom_weights_build_the_same_chain_as_the_uniform_builder():
    spec = ring_demo_spec()
    form, uniform = spec.chain._csr, uniform_edge_matrix(spec.graph, 1.0 / 9.0)._csr
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(form, name), getattr(uniform, name)), name


def test_formation_and_analyze_write_the_same_kemeny_bytes():
    def kemeny_text(*argv):
        code, out, err = run_main(*argv)
        assert code == 0, err
        return re.search(r'"kemeny_p2": ([^,\n]+)', out).group(1)

    assert (kemeny_text("formation", "--family", "star", "--n", 127, "--skip-sim",
                        "--lambda2", 1e-3)
            == kemeny_text("analyze", "--family", "star", "--n", 127, "--chain", "uniform"))


def test_formation_chain_is_built_once_per_spec(monkeypatch):
    from consensuslab.disagreement import NoiseCovariance
    from consensuslab.markov import StochasticMatrix

    builds, noises = [], []
    init = StochasticMatrix.__init__
    monkeypatch.setattr(StochasticMatrix, "__init__",
                        lambda self, *a, **kw: builds.append(1) or init(self, *a, **kw))
    diagonal = NoiseCovariance.diagonal
    monkeypatch.setattr(NoiseCovariance, "diagonal",
                        classmethod(lambda cls, v: noises.append(1) or diagonal(v)))
    spec = ring_demo_spec()
    form_exact(spec)
    form_via_delta(spec)
    simulate_formation(spec, SimConfig(horizon=200, trials=1, seed=0))
    # P_form and its square, and Diag(lambda^2), shared by both closed forms
    # and the simulator
    assert len(builds) == 2
    assert len(noises) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.noise = NoiseCovariance.diagonal(np.ones(4))


def test_formation_chain_rho_and_automatic_burn_in():
    from consensuslab.simulate import auto_burn_in

    specs = (
        (spec_from_graph(build_graph("tree", 127), 4e-4), 7052),
        (spec_from_graph(build_graph("star", 127), 4e-4), 2526),
        (ring_demo_spec(), 51),
    )
    for spec, burn in specs:
        P = spec.chain
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
        # per-node noise: form_exact takes the general route
        spec = spec_from_graph(build_graph(fam, n), lambda2=rng.uniform(0.1, 1.0, n))
        assert form_via_delta(spec) > 0
        assert form_exact(spec).form_exact == form_via_delta(spec)


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


def test_step_size_boundary_is_a_row_sum_of_one():
    # node 2's weights sum to exactly 1.0, summed over the edge arrays; the
    # next float below 1.0 is a valid step size
    g = custom_graph(4, [(0, 2), (1, 2), (2, 3)])
    offsets = {e: [1.0] for e in g.edges}
    weights = {(0, 2): 0.25, (1, 2): 0.25, (2, 3): 0.5}
    with pytest.raises(StepSizeViolation, match=r"^node 2 has total weight 1 >= 1$"):
        build_formation_spec(g, 1, offsets, weights, 1.0)
    below = np.nextafter(1.0, 0.0)
    weights[(2, 3)] = below - 0.5
    spec = build_formation_spec(g, 1, offsets, weights, 1.0)
    assert 0.25 + 0.25 + weights[(2, 3)] == below
    assert spec.chain.entries[2, 2] == 1.0 - below


def test_custom_weights_on_a_disconnected_graph_are_rejected():
    # the walk from node 0 reaches nodes 0-1 only; nodes 2-3 are a second component
    g = custom_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        build_formation_spec(g, 1, {e: [1.0] for e in g.edges}, dict.fromkeys(g.edges, 0.25), 1.0)


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


def _block_trace(n: int, d: int, steps: int) -> FormationTrace:
    """Recorded steps t = 0, 1, ... of normal values, with a zero and a NaN
    (formatted by Python) among them."""
    pos = np.random.default_rng(n * d).standard_normal((steps, n, d))
    pos[steps // 2, n // 2, d - 1] = 0.0
    pos[steps // 2 + 1, 0, 0] = np.nan
    return FormationTrace(times=np.arange(steps), positions=pos, form_mean=np.zeros(steps),
                          form_stderr=np.zeros(steps), burn_in=0)


def test_trajectory_writer_bytes_equal_the_per_row_format(tmp_path, monkeypatch):
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracer = importlib.import_module("tracer").Tracer()
    traces = [_hand_trace(n, d) for n, d in ((1, 1), (1, 2), (1, 3), (4, 1), (5, 2), (3, 3))]
    for trace in traces:
        expected = _per_row_csv(trace)
        assert "inf" in expected and "nan" in expected and "-0.0000000000000000e+00" in expected
    # several blocks of recorded steps, the last one partial; t from one to
    # three digits and node numbers from one to three within a block
    for n, d in ((130, 1), (101, 2), (101, 3)):
        step = BLOCK_FLOATS // (n * d)
        assert 10 < step < 125 and 125 % step
        traces.append(_block_trace(n, d, 125))
    for k, trace in enumerate(traces):
        n, d = trace.positions.shape[1:]
        expected = _per_row_csv(trace)
        fh = io.StringIO()
        _write_trajectory(fh, trace)
        assert fh.getvalue() == expected
        path = tmp_path / f"traj_{k}.csv"
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


@pytest.mark.parametrize("family, n", [("star", 127), ("tree", 127), ("grid", 1024),
                                       ("two-star", 400), ("ring", 64)])
def test_positions_match_the_exact_walk(family, n):
    # the spec walks positions out of the layout's float offsets; the
    # referee walks them out of the exact differences, in Fractions
    g = build_graph(family, n)
    spec = spec_from_graph(g, 1e-3)
    exact = np.array([[float(x) for x in row] for row in exact_positions(g, layout_positions(g))])
    extent = np.abs(exact).max()
    assert np.abs(spec.positions - exact).max() <= 4 * np.finfo(float).eps * extent
    assert spec.consistency_residual <= 4 * np.finfo(float).eps * extent


@st.composite
def formations(draw):
    """A connected graph with positions, a bridge, and a cycle edge (None on
    a tree): a ring of 0 or 3-8 nodes with chords, and pendant trees, under
    a random node labelling."""
    ring = draw(st.sampled_from([0, 3, 4, 5, 6, 8]))
    pendants = draw(st.integers(1, 8))
    n = max(ring, 1) + pendants
    edges = [(k, (k + 1) % ring) for k in range(ring)]
    cycle_edge = edges[0] if ring else None
    for a in range(ring):
        for b in range(a + 2, ring):
            if (a, b) != (0, ring - 1) and draw(st.booleans()):
                edges.append((a, b))
    for k in range(max(ring, 1), n):
        edges.append((draw(st.integers(0, k - 1)), k))
    bridge = edges[-1]
    label = draw(st.permutations(range(n)))

    def relabel(edge):
        return tuple(sorted((label[edge[0]], label[edge[1]])))

    pos = np.array(draw(st.lists(st.tuples(*[st.floats(-4, 4)] * 2), min_size=n, max_size=n)))
    return (custom_graph(n, [relabel(e) for e in edges]), pos, relabel(bridge),
            None if cycle_edge is None else relabel(cycle_edge))


@settings(max_examples=60, deadline=None, database=None)
@given(formations())
def test_cycle_closure_decides_consistency(case):
    g, pos, bridge, cycle_edge = case

    def spec_with(edge, delta):
        offsets = {(i, j): pos[j] - pos[i] for i, j in g.edges}
        offsets[edge] = offsets[edge] + delta
        return build_formation_spec(g, 2, offsets, "default", 1.0)

    # a bridge lies on no cycle, so any offset on it is realizable
    assert spec_with(bridge, 1e-3).consistency_residual < 1e-12
    if cycle_edge is not None:
        with pytest.raises(InconsistentFormation):
            spec_with(cycle_edge, 10 * tolerances.CONSISTENCY_TOL)
        spec_with(cycle_edge, tolerances.CONSISTENCY_TOL / 10)
