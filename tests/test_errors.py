"""Bad input fails with a typed error: each case below names the exact class
it raises and the CLI exit code that class carries."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from referees import delta_ss_bounds

from consensuslab import cli
from consensuslab.disagreement import (
    NoiseCovariance,
    delta_oracle,
    delta_ss_kemeny,
    delta_ss_spectral,
    delta_ss_theorem,
    divergence_probe,
)
from consensuslab.errors import DimensionMismatch, InvalidParam, NotIrreducible
from consensuslab.formation import build_formation_spec, simulate_formation
from consensuslab.graphs import (
    build_graph,
    custom_graph,
    erdos_renyi_graph,
    line_graph,
    random_regular_graph,
    ring_graph,
    star_graph,
    two_star_graph,
)
from consensuslab.markov import (
    StochasticMatrix,
    hitting_times,
    lazy_walk_matrix,
    simple_walk_matrix,
)
from consensuslab.simulate import SimConfig, simulate_consensus


def _lazy5():
    return lazy_walk_matrix(ring_graph(5))


def _noise5():
    return NoiseCovariance.scalar(5, 1.0)


def _reducible():
    return StochasticMatrix(np.eye(2))


def _line3_spec(**kw):
    return build_formation_spec(line_graph(3), 1, {(0, 1): [1.0], (1, 2): [1.0]}, **kw)


_PERIODIC = "chain is periodic, so the squared chain is reducible"

CASES = [
    # InvalidParam: a parameter outside its domain
    pytest.param(lambda: NoiseCovariance.full(np.ones((2, 3))), InvalidParam, None,
                 id="full-covariance-not-square"),
    pytest.param(lambda: NoiseCovariance.full([[1.0, 0.0], [0.0, -1.0]]), InvalidParam, None,
                 id="full-covariance-indefinite"),
    pytest.param(lambda: NoiseCovariance.full(-np.eye(2)), InvalidParam, None,
                 id="full-covariance-negative-trace"),
    pytest.param(lambda: NoiseCovariance.scalar(0, 1.0), InvalidParam, None,
                 id="scalar-noise-no-nodes"),
    pytest.param(lambda: SimConfig(horizon=10, trials=0), InvalidParam, None,
                 id="simconfig-no-trials"),
    pytest.param(lambda: SimConfig(horizon=10, seed=-1), InvalidParam, "seed",
                 id="simconfig-negative-seed"),
    pytest.param(lambda: SimConfig(horizon=10, noise=np.array(["gaussian", "x"])), InvalidParam,
                 "noise", id="simconfig-noise-array"),
    pytest.param(lambda: SimConfig(horizon=10, noise=np.array("gaussian")), InvalidParam,
                 "noise", id="simconfig-noise-0d-array"),
    pytest.param(lambda: erdos_renyi_graph(10, 0.5, seed=-2), InvalidParam, "seed",
                 id="erdos-renyi-negative-seed"),
    pytest.param(lambda: random_regular_graph(10, 3, seed=-1), InvalidParam, "seed",
                 id="random-regular-negative-seed"),
    pytest.param(lambda: build_graph("erdos-renyi", 10, p=0.5, seed=np.int64(-5)),
                 InvalidParam, "seed", id="build-graph-negative-numpy-seed"),
    pytest.param(lambda: build_formation_spec(custom_graph(2, [(0, 1)]), 0, {(0, 1): []}),
                 InvalidParam, None, id="formation-dimension-0"),
    pytest.param(lambda: build_graph("grid", 16, dim=0), InvalidParam, None,
                 id="grid-dimension-0"),
    pytest.param(lambda: build_graph("random-regular", 6, degree=1), InvalidParam, None,
                 id="random-regular-degree-1"),
    pytest.param(lambda: StochasticMatrix(np.zeros((0, 0))), InvalidParam, None,
                 id="empty-transition-matrix"),
    pytest.param(lambda: StochasticMatrix([[np.nan, 1.0], [0.5, 0.5]]), InvalidParam,
                 "non-finite", id="nan-transition-matrix-dense"),
    pytest.param(lambda: StochasticMatrix(csr_matrix([[np.nan, 1.0], [0.5, 0.5]])), InvalidParam,
                 "non-finite", id="nan-transition-matrix-csr"),
    pytest.param(lambda: divergence_probe(_lazy5(), _noise5(), 0), InvalidParam, None,
                 id="divergence-probe-horizon-0"),
    pytest.param(lambda: simple_walk_matrix(custom_graph(1, [])), InvalidParam, None,
                 id="simple-walk-one-node"),
    pytest.param(lambda: NoiseCovariance.diagonal(np.ones((2, 2))), InvalidParam, None,
                 id="diagonal-noise-not-a-vector"),
    pytest.param(lambda: NoiseCovariance.scalar(3, 1.0).sampling_factor(), InvalidParam, None,
                 id="scalar-noise-sampling-factor"),
    pytest.param(lambda: star_graph(1), InvalidParam, None, id="star-one-node"),
    pytest.param(lambda: two_star_graph(1), InvalidParam, None, id="two-star-one-node"),
    pytest.param(lambda: erdos_renyi_graph(5, 1.5), InvalidParam, None,
                 id="erdos-renyi-p-above-1"),
    pytest.param(lambda: random_regular_graph(1, 1), InvalidParam, None,
                 id="random-regular-one-node"),
    pytest.param(lambda: custom_graph(0, []), InvalidParam, None, id="custom-graph-no-nodes"),
    pytest.param(lambda: custom_graph(2**31 + 1, [(0, 1)]), InvalidParam, "int32 node labels",
                 id="custom-graph-past-int32-labels"),
    pytest.param(lambda: custom_graph(3, [(1, 2), (0.7, 1.9)]), InvalidParam,
                 r"^edge \(0\.7, 1\.9\) has a non-integer node label$",
                 id="custom-graph-float-label"),
    pytest.param(lambda: custom_graph(3, [("0", "1")]), InvalidParam,
                 r"^edge \('0', '1'\) has a non-integer node label$",
                 id="custom-graph-str-label"),
    pytest.param(lambda: custom_graph(3, [(True, 2)]), InvalidParam,
                 r"^edge \(True, 2\) has a non-integer node label$",
                 id="custom-graph-bool-label"),
    pytest.param(lambda: custom_graph(3, np.array([[0.0, 1.0]])), InvalidParam,
                 "non-integer node label", id="custom-graph-float-array-labels"),
    pytest.param(lambda: custom_graph(3.0, [(0, 1)]), InvalidParam, "integer n",
                 id="custom-graph-float-n"),
    pytest.param(lambda: custom_graph(True, []), InvalidParam, "integer n",
                 id="custom-graph-bool-n"),
    pytest.param(lambda: build_graph("ring", 5.0), InvalidParam, "integer n",
                 id="build-graph-float-n"),
    pytest.param(lambda: SimConfig(horizon=100, burn_in=10.5), InvalidParam,
                 "burn_in must be an integer", id="simconfig-float-burn-in"),
    pytest.param(lambda: SimConfig(horizon=100.0), InvalidParam, "horizon must be an integer",
                 id="simconfig-float-horizon"),
    pytest.param(lambda: SimConfig(horizon=10, trials=2.0), InvalidParam,
                 "trials must be an integer", id="simconfig-float-trials"),
    pytest.param(lambda: SimConfig(horizon=10, trials=True), InvalidParam,
                 "trials must be an integer", id="simconfig-bool-trials"),
    pytest.param(lambda: SimConfig(horizon=10, record_every=1.5), InvalidParam,
                 "record_every must be an integer", id="simconfig-float-record-every"),
    pytest.param(lambda: SimConfig(horizon=10, seed=1.5), InvalidParam,
                 "seed must be an integer", id="simconfig-float-seed"),
    pytest.param(lambda: build_graph("grid", 16, dim=2.0), InvalidParam, "integer dim",
                 id="grid-float-dimension"),
    pytest.param(lambda: build_graph("grid", 16, dim=True), InvalidParam, "integer dim",
                 id="grid-bool-dimension"),
    pytest.param(lambda: build_graph("erdos-renyi", 10, p=0.5, seed=1.5), InvalidParam,
                 "integer seed", id="erdos-renyi-float-seed"),
    pytest.param(lambda: build_graph("random-regular", 10, degree=4, seed=True), InvalidParam,
                 "integer seed", id="random-regular-bool-seed"),
    pytest.param(lambda: build_graph("random-regular", 10, degree=3.0, seed=1), InvalidParam,
                 "integer d", id="random-regular-float-degree"),
    pytest.param(lambda: custom_graph(3, [(0, 1, 2)]), InvalidParam,
                 r"^edge \(0, 1, 2\) is not a pair of node labels$", id="custom-graph-three-labels"),
    pytest.param(lambda: custom_graph(3, [(0, 1), (1,)]), InvalidParam,
                 r"^edge \(1,\) is not a pair of node labels$", id="custom-graph-one-label"),
    pytest.param(lambda: custom_graph(3, [0, 1, 1, 2]), InvalidParam,
                 r"^edge 0 is not a pair of node labels$", id="custom-graph-flat-labels"),
    pytest.param(lambda: custom_graph(3, np.array([0, 1, 1, 2])), InvalidParam,
                 r"^edge 0 is not a pair of node labels$", id="custom-graph-flat-label-array"),
    pytest.param(lambda: custom_graph(3, [()]), InvalidParam,
                 r"^edge \(\) is not a pair of node labels$", id="custom-graph-empty-edge"),
    pytest.param(lambda: build_graph("grid", 0), InvalidParam, "grid needs n >= 1",
                 id="grid-no-nodes"),
    pytest.param(lambda: build_graph("grid", 10**400), InvalidParam, "int32 node labels",
                 id="grid-n-past-float"),
    pytest.param(lambda: build_formation_spec(line_graph(3), 1, {(0, 2): [1.0]}),
                 InvalidParam, None, id="formation-offset-on-a-non-edge"),
    pytest.param(lambda: build_formation_spec(line_graph(3), 1, {(1, 1): [1.0]}),
                 InvalidParam, None, id="formation-self-loop-offset"),
    pytest.param(lambda: _line3_spec(weights="uniform"), InvalidParam, None,
                 id="formation-unknown-weights"),
    pytest.param(lambda: build_formation_spec(custom_graph(1, []), 1, {}), InvalidParam, None,
                 id="formation-edgeless-graph"),
    pytest.param(lambda: cli.cmd_analyze(cli.build_parser().parse_args(
                     ["analyze", "--family", "ring", "--n", "5", "--chain", "lazy", "--eps", "0.1"])),
                 InvalidParam, "does not read --eps", id="cli-eps-without-uniform-chain"),
    # InvalidParam: finite input whose result overflows float64 is refused,
    # never written as Infinity or NaN: the analyze document, a sweep row's
    # numbers (cli._fill_row, whose error becomes the row's) and the
    # simulated estimate
    pytest.param(lambda: cli.cmd_analyze(cli.build_parser().parse_args(
                     ["analyze", "--family", "ring", "--n", "16", "--sigma2", "1e308"])),
                 InvalidParam, "^delta_ss is inf in float64", id="analyze-delta-ss-overflows"),
    pytest.param(lambda: cli._fill_row({}, lazy_walk_matrix(ring_graph(16)),
                                       NoiseCovariance.scalar(16, 1e308)),
                 InvalidParam, "^delta_ss is inf in float64", id="sweep-row-delta-ss-overflows"),
    pytest.param(lambda: simulate_consensus(lazy_walk_matrix(ring_graph(8)),
                                            NoiseCovariance.scalar(8, 1e308), np.zeros(8),
                                            SimConfig(horizon=200, trials=2, burn_in=50, seed=1)),
                 InvalidParam, "squared error overflows float64", id="simulate-estimate-overflows"),
    # DimensionMismatch: shapes that disagree with the chain
    pytest.param(lambda: delta_ss_theorem(_lazy5(), NoiseCovariance.diagonal(np.ones(4))),
                 DimensionMismatch, None, id="theorem-short-diagonal-variances"),
    pytest.param(lambda: delta_ss_bounds(_lazy5(), np.ones(4)), DimensionMismatch, None,
                 id="delta_ss_bounds-short-variances"),
    pytest.param(lambda: delta_ss_theorem(_lazy5(), NoiseCovariance.scalar(4, 1.0)),
                 DimensionMismatch, None, id="theorem-4-node-noise-on-5-states"),
    pytest.param(lambda: simulate_consensus(_lazy5(), _noise5(), np.zeros(4),
                                            SimConfig(horizon=10)),
                 DimensionMismatch, None, id="simulate-x0-shape"),
    pytest.param(lambda: _line3_spec(lambda2=[1.0, 1.0]), DimensionMismatch, None,
                 id="formation-short-lambda2"),
    pytest.param(lambda: simulate_formation(_line3_spec(), SimConfig(horizon=10, burn_in=5),
                                            p0=np.zeros((2, 1))),
                 DimensionMismatch, None, id="simulate-formation-p0-shape"),
    # NotIrreducible: the identity on two states has two closed classes
    pytest.param(lambda: _reducible().stationary(), NotIrreducible, None,
                 id="stationary-reducible-chain"),
    pytest.param(lambda: hitting_times(_reducible()), NotIrreducible, None,
                 id="hitting-times-reducible-chain"),
    pytest.param(lambda: _reducible().nonunit_spectrum, NotIrreducible, None,
                 id="spectrum-reducible-chain"),
    pytest.param(lambda: delta_oracle(_reducible(), NoiseCovariance.scalar(2, 1.0)),
                 NotIrreducible, None, id="oracle-reducible-chain"),
    pytest.param(lambda: delta_ss_theorem(_reducible(), NoiseCovariance.scalar(2, 1.0)),
                 NotIrreducible, None, id="theorem-reducible-chain"),
    # NotIrreducible: the simple walk on an even ring has period 2
    pytest.param(lambda: delta_ss_kemeny(simple_walk_matrix(ring_graph(8)), 1.0),
                 NotIrreducible, _PERIODIC, id="kemeny-periodic-chain"),
    pytest.param(lambda: delta_ss_spectral(simple_walk_matrix(ring_graph(8)), 1.0),
                 NotIrreducible, _PERIODIC, id="spectral-periodic-chain"),
]


@pytest.mark.parametrize("call, cls, message", CASES)
def test_bad_input_raises_its_typed_error(call, cls, message):
    with pytest.raises(cls, match=message) as info:
        call()
    assert type(info.value) is cls
    assert info.value.exit_code == (3 if cls is NotIrreducible else 2)
