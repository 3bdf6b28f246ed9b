import numpy as np
import pytest
from conftest import random_reversible_chain

from consensuslab.disagreement import NoiseCovariance, delta_ss_theorem
from consensuslab.errors import InvalidParam, NoConvergence
from consensuslab.graphs import ring_graph, star_graph
from consensuslab.markov import StochasticMatrix, lazy_walk_matrix, simple_walk_matrix
from consensuslab.simulate import (
    SimConfig,
    auto_burn_in,
    divergence_probe,
    estimate_delta_ss,
    simulate_consensus,
)


def test_config_validation():
    with pytest.raises(InvalidParam):
        SimConfig(horizon=0)
    with pytest.raises(InvalidParam):
        SimConfig(horizon=100, burn_in=100)
    with pytest.raises(InvalidParam):
        SimConfig(horizon=100, noise="cauchy")
    with pytest.raises(InvalidParam):
        SimConfig(horizon=100, record_every=0)
    cfg = SimConfig(horizon=100, burn_in=10, trials=2)
    assert cfg.record_every == 1


def test_noiseless_consensus_start_stays_at_zero_error():
    P = lazy_walk_matrix(ring_graph(6))
    noise = NoiseCovariance.full(np.zeros((6, 6)))
    cfg = SimConfig(horizon=50, trials=2, burn_in=10, seed=0)
    trace = simulate_consensus(P, noise, np.ones(6), cfg)
    assert np.abs(trace.delta_hat).max() < 1e-28  # squared roundoff at worst
    assert np.abs(trace.delta_uni_hat).max() < 1e-28


def test_same_seed_gives_bit_identical_traces():
    rng = np.random.default_rng(0)
    P = random_reversible_chain(rng, 7)
    noise = NoiseCovariance.diagonal(rng.uniform(0.2, 2.0, 7))
    cfg = SimConfig(horizon=300, trials=4, burn_in=50, seed=99)
    a = simulate_consensus(P, noise, np.zeros(7), cfg)
    b = simulate_consensus(P, noise, np.zeros(7), cfg)
    np.testing.assert_array_equal(a.delta_hat, b.delta_hat)
    np.testing.assert_array_equal(a.stderr, b.stderr)


def test_trial_streams_do_not_shift_when_more_trials_are_added():
    # trial k uses the same noise whether the run has 3 trials or 6
    P = lazy_walk_matrix(ring_graph(5))
    noise = NoiseCovariance.scalar(5, 1.0)
    few = SimConfig(horizon=100, trials=3, burn_in=10, seed=7)
    many = SimConfig(horizon=100, trials=6, burn_in=10, seed=7)
    ests = []
    for cfg in (few, many):
        est, _ = estimate_delta_ss(P, noise, cfg)
        ests.append(est)
    # means differ (different trial counts) but are built from shared streams:
    # rebuilding the 3-trial mean from the 6-trial run must match exactly.
    # estimate_delta_ss averages per-trial tails, so check via simulate paths
    from consensuslab.simulate import _run_trials

    _, wsq_few, _, _ = _run_trials(P, noise, np.zeros(5), few)
    _, wsq_many, _, _ = _run_trials(P, noise, np.zeros(5), many)
    np.testing.assert_array_equal(wsq_few, wsq_many[:3])


def test_estimate_is_the_tail_of_the_simulated_trace():
    P = lazy_walk_matrix(star_graph(6))
    noise = NoiseCovariance.diagonal([1.0, 0.5, 2.0, 1.0, 0.3, 1.5])
    cfg = SimConfig(horizon=600, trials=5, seed=4, record_every=3)
    trace = simulate_consensus(P, noise, np.zeros(6), cfg)
    assert trace.burn_in == auto_burn_in(P)
    assert (trace.estimate, trace.estimate_stderr) == estimate_delta_ss(P, noise, cfg)


def test_estimate_matches_closed_form_within_three_stderr():
    P = lazy_walk_matrix(star_graph(6))
    noise = NoiseCovariance.scalar(6, 1.0)
    exact = delta_ss_theorem(P, noise).delta_ss
    cfg = SimConfig(horizon=4000, trials=60, burn_in=200, seed=5)
    est, se = estimate_delta_ss(P, noise, cfg)
    assert se > 0
    assert abs(est - exact) < 3 * se


def test_rademacher_noise_gives_the_same_steady_state():
    P = lazy_walk_matrix(ring_graph(6))
    noise = NoiseCovariance.scalar(6, 1.0)
    exact = delta_ss_theorem(P, noise).delta_ss
    cfg = SimConfig(horizon=4000, trials=60, burn_in=200, seed=6, noise="rademacher")
    est, se = estimate_delta_ss(P, noise, cfg)
    assert abs(est - exact) < 3 * se


def test_stderr_shrinks_like_sqrt_of_trials():
    P = lazy_walk_matrix(ring_graph(6))
    noise = NoiseCovariance.scalar(6, 1.0)
    ses = []
    for trials in (50, 200):
        # fresh seeds per size so the two runs are independent samples
        cfg = SimConfig(horizon=1500, trials=trials, burn_in=150, seed=10 + trials)
        _, se = estimate_delta_ss(P, noise, cfg)
        ses.append(se)
    ratio = ses[0] / ses[1]
    assert 2.0 * 0.70 < ratio < 2.0 * 1.40  # sqrt(4) = 2 within sampling noise


def test_record_every_subsamples_the_trace():
    P = lazy_walk_matrix(ring_graph(5))
    noise = NoiseCovariance.scalar(5, 1.0)
    cfg = SimConfig(horizon=100, trials=1, burn_in=10, seed=0, record_every=10)
    trace = simulate_consensus(P, noise, np.zeros(5), cfg)
    np.testing.assert_array_equal(trace.times, np.arange(0, 101, 10))
    assert trace.stderr.max() == 0.0  # single trial


def test_trace_csv_round_trip(tmp_path):
    P = lazy_walk_matrix(ring_graph(5))
    noise = NoiseCovariance.scalar(5, 1.0)
    cfg = SimConfig(horizon=50, trials=2, burn_in=5, seed=0, record_every=5)
    trace = simulate_consensus(P, noise, np.zeros(5), cfg)
    path = tmp_path / "trace.csv"
    path.write_text(trace.to_csv())
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], trace.times)
    np.testing.assert_array_equal(data[:, 1], trace.delta_hat)


def test_auto_burn_in_grows_with_mixing_time():
    fast = lazy_walk_matrix(ring_graph(4))
    slow = lazy_walk_matrix(ring_graph(24))
    assert auto_burn_in(slow) > auto_burn_in(fast) > 0
    with pytest.raises(NoConvergence):
        auto_burn_in(simple_walk_matrix(ring_graph(6)))  # no spectral gap


def test_burn_in_must_leave_a_tail():
    P = lazy_walk_matrix(ring_graph(5))
    noise = NoiseCovariance.scalar(5, 1.0)
    # times recorded: 0, 30, 60, 90 — nothing survives a burn-in of 95
    cfg = SimConfig(horizon=100, trials=2, burn_in=95, seed=0, record_every=30)
    with pytest.raises(InvalidParam):
        estimate_delta_ss(P, noise, cfg)
    with pytest.raises(InvalidParam):
        simulate_consensus(P, noise, np.zeros(5), cfg)


def test_divergence_probe_grows_linearly_on_bipartite_ring():
    P = simple_walk_matrix(ring_graph(4))
    noise = NoiseCovariance.scalar(4, 1.0)
    tr = divergence_probe(P, noise, 200)
    # alternating mode accumulates one unit of variance per step
    late = np.diff(tr[100:200])
    assert late.min() > 0.4
    # while the lazy chain settles
    tr2 = divergence_probe(lazy_walk_matrix(ring_graph(4)), noise, 200)
    assert abs(tr2[-1] - tr2[-50]) < 1e-6
