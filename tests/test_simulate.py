import itertools
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import package_env, random_reversible_chain

from consensuslab import simulate
from consensuslab.disagreement import NoiseCovariance, delta_ss_theorem, divergence_probe
from consensuslab.errors import InvalidParam, NoConvergence
from consensuslab.formation import ring_demo_spec, simulate_formation
from consensuslab.graphs import ring_graph, star_graph
from consensuslab.markov import StochasticMatrix, lazy_walk_matrix, simple_walk_matrix
from consensuslab.simulate import (
    SimConfig,
    _run_trials,
    _trial_rng,
    auto_burn_in,
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
    _, wsq_few, _, _ = _run_trials(P, noise, np.zeros(5), few)
    _, wsq_many, _, _ = _run_trials(P, noise, np.zeros(5), many)
    np.testing.assert_array_equal(wsq_few, wsq_many[:3])

    # the same holds for one trial against more, for the formation state
    # shape (n, 2), with record_every > 1, and over a horizon that is not a
    # multiple of the noise chunk
    rng = np.random.default_rng(1)
    horizon = 2 * simulate.NOISE_CHUNK + 45
    for x0, every in ((np.zeros(5), 1), (rng.normal(size=(5, 2)), 1),
                      (rng.normal(size=5), 3), (rng.normal(size=(5, 2)), 7)):
        for kind in ("gaussian", "rademacher"):
            for few_n, many_n in ((1, 2), (1, 7), (3, 6)):
                a, b = (
                    _run_trials(P, noise, x0, SimConfig(horizon=horizon, trials=k, seed=7,
                                                        record_every=every, noise=kind))
                    for k in (few_n, many_n)
                )
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1][:few_n])
                np.testing.assert_array_equal(a[2], b[2][:few_n])
                np.testing.assert_array_equal(a[3], b[3])


def _covariances(n: int, rng) -> list:
    A = rng.normal(size=(n, n))
    return [NoiseCovariance.diagonal(rng.uniform(0.2, 2.0, n)), NoiseCovariance.full(A @ A.T / n)]


def _one_draw(rng, kind: str, shape: tuple) -> np.ndarray:
    """A whole block of standard draws, drawn in one call."""
    if kind == "gaussian":
        return rng.standard_normal(shape)
    return 2.0 * rng.integers(0, 2, size=shape) - 1.0


def test_noise_drawn_in_chunks_equals_one_draw():
    # n large enough that a dense product's sums would depend on the chunk;
    # d = 1, 2 and 3 cover the copy of one node's d floats as one item
    n, trials, steps = 20, 3, 300
    for noise in _covariances(n, np.random.default_rng(2)):
        factor = simulate._noise_factor(noise)
        for kind, d in itertools.product(("gaussian", "rademacher"), (1, 2, 3)):
            whole = np.empty((steps, n, trials, d))
            rngs = [_trial_rng(4, k) for k in range(trials)]
            with ThreadPoolExecutor(trials) as pool:
                simulate._draw_noise(rngs, factor, kind, whole, pool, trials)
                rngs = [_trial_rng(4, k) for k in range(trials)]
                pieces = []
                for size in (1, 37, 200, steps - 238):
                    pieces.append(np.empty((size, n, trials, d)))
                    simulate._draw_noise(rngs, factor, kind, pieces[-1], pool, trials)
            np.testing.assert_array_equal(np.concatenate(pieces), whole)
            if noise.is_diagonal:
                scale = np.sqrt(noise.variances())[:, None]
                for k in range(trials):
                    z = _one_draw(_trial_rng(4, k), kind, (steps, n, d))
                    np.testing.assert_array_equal(whole[:, :, k], z * scale)


def test_noise_and_kernel_numbers_do_not_depend_on_the_draw_threads(monkeypatch):
    # 1 and 2 workers, 3 for groups of unequal size, 6 for more than trials;
    # n large enough that a dense product's sums would depend on the layout,
    # and a short switch interval so that the threads interleave often
    n, trials, steps = 20, 4, 150
    rng = np.random.default_rng(6)
    P = random_reversible_chain(rng, n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for noise, kind, d in itertools.product(
                _covariances(n, rng), ("gaussian", "rademacher"), (1, 2, 3)):
            factor = simulate._noise_factor(noise)
            x0 = rng.normal(size=(n, d)) if d > 1 else rng.normal(size=n)
            cfg = SimConfig(horizon=2 * simulate.NOISE_CHUNK + 45, trials=trials, seed=9,
                            record_every=2, noise=kind)
            draws, runs = [], []
            for workers in (1, 2, 3, 6):
                out = np.empty((steps, n, trials, d))
                with ThreadPoolExecutor(workers) as pool:
                    rngs = [_trial_rng(9, k) for k in range(trials)]
                    simulate._draw_noise(rngs, factor, kind, out[:40], pool, workers)
                    simulate._draw_noise(rngs, factor, kind, out[40:], pool, workers)
                draws.append(out)
                monkeypatch.setattr(simulate, "_usable_cores", lambda: workers)
                runs.append(_run_trials(P, noise, x0, cfg))
            for out, run in zip(draws[1:], runs[1:]):
                np.testing.assert_array_equal(out, draws[0])
                for a, b in zip(run, runs[0]):
                    np.testing.assert_array_equal(a, b)
    finally:
        sys.setswitchinterval(interval)


def test_usable_cores_is_the_affinity_set_or_the_cpu_count(monkeypatch):
    assert simulate._usable_cores() >= 1
    if hasattr(os, "sched_getaffinity"):
        assert simulate._usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert simulate._usable_cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._usable_cores() == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_cli_outputs_do_not_depend_on_the_usable_cores(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    runs = {
        "simulate": ["simulate", "--family", "ring", "--n", "16", "--horizon", "700",
                     "--trials", "5", "--burn-in", "100", "--seed", "4"],
        "formation": ["formation", "--family", "tree", "--n", "127", "--lambda2", "0.0004",
                      "--horizon", "300", "--trials", "3", "--burn-in", "100",
                      "--record-every", "3", "--seed", "4"],
    }
    for pinned in (True, False):
        for name, argv in runs.items():
            stem = tmp_path / f"{name}-{pinned}"
            r = subprocess.run(
                [sys.executable, "-m", "consensuslab", *argv,
                 "--out", f"{stem}.csv", "--summary", f"{stem}.json"],
                capture_output=True, env=package_env(), timeout=120,
                preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None)
            assert r.returncode == 0, r.stderr
            (tmp_path / f"{name}-{pinned}.out").write_bytes(r.stdout)
    for name in runs:
        for ext in ("csv", "json", "out"):
            pinned, free = (tmp_path / f"{name}-{flag}.{ext}" for flag in (True, False))
            assert pinned.read_bytes() == free.read_bytes(), (name, ext)


def test_runs_leave_no_draw_thread_behind(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 3)
    P = lazy_walk_matrix(ring_graph(6))
    noise = NoiseCovariance.scalar(6, 1.0)
    cfg = SimConfig(horizon=300, trials=4, burn_in=10, seed=1)
    before = threading.enumerate()
    simulate_consensus(P, noise, np.zeros(6), cfg)
    assert threading.enumerate() == before
    simulate_formation(ring_demo_spec(), cfg)
    assert threading.enumerate() == before

    class Boom(Exception):
        pass

    class Exploding:
        def standard_normal(self, out):
            raise Boom

    trial_rng = simulate._trial_rng
    # trial 0 is drawn by the calling thread, trial 3 by a pool thread
    for bad in (0, 3):
        monkeypatch.setattr(simulate, "_trial_rng",
                            lambda seed, k: Exploding() if k == bad else trial_rng(seed, k))
        with pytest.raises(Boom):
            simulate_consensus(P, noise, np.zeros(6), cfg)
        assert threading.enumerate() == before
        with pytest.raises(Boom):
            simulate_formation(ring_demo_spec(), cfg)
        assert threading.enumerate() == before


def test_kernel_numbers_do_not_depend_on_the_chunk_size(monkeypatch):
    P = lazy_walk_matrix(ring_graph(20))
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(20, 2))
    for noise in _covariances(20, rng):
        cfg = SimConfig(horizon=300, trials=4, seed=2, record_every=2, noise="rademacher")
        ref = _run_trials(P, noise, x0, cfg)
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(simulate, "NOISE_CHUNK", chunk)
            for a, b in zip(ref, _run_trials(P, noise, x0, cfg)):
                np.testing.assert_array_equal(a, b)

    # with NOISE_CHUNK = 1 every record is reduced on its own step; any
    # other chunk reduces several snapshots side by side in one product.
    # n large enough that a dense product's sums would depend on the chunk
    n, horizon = 20, 101  # a multiple of no record_every and no chunk below
    P = random_reversible_chain(rng, n)
    starts = [rng.normal(size=n), rng.normal(size=(n, 2)), rng.normal(size=(n, 3))]
    for noise, kind, x0, every in itertools.product(
            _covariances(n, rng), ("gaussian", "rademacher"), starts, (1, 3, 7)):
        cfg = SimConfig(horizon=horizon, trials=3, seed=5, record_every=every, noise=kind)
        monkeypatch.setattr(simulate, "NOISE_CHUNK", 1)
        ref = _run_trials(P, noise, x0, cfg)
        assert ref[1].shape == ref[2].shape == (3, horizon // every + 1)
        assert ref[3].shape == (horizon // every + 1, *x0.shape)
        for chunk in (5, 7, 1000):
            monkeypatch.setattr(simulate, "NOISE_CHUNK", chunk)
            for a, b in zip(ref, _run_trials(P, noise, x0, cfg)):
                np.testing.assert_array_equal(a, b)


def _reference_trials(P, noise, x0, cfg):
    """One trial at a time, dense products, the whole noise block drawn at once."""
    pi, E = P.stationary(), P.entries
    n = P.n
    x0 = x0.reshape(n, -1)
    times = np.arange(0, cfg.horizon + 1, cfg.record_every)
    wsq = np.zeros((cfg.trials, times.size))
    usq = np.zeros_like(wsq)
    states = np.zeros((times.size, *x0.shape))
    for k in range(cfg.trials):
        z = _one_draw(_trial_rng(cfg.seed, k), cfg.noise, (cfg.horizon, n, x0.shape[1]))
        if noise.is_diagonal:
            W = z * np.sqrt(noise.variances())[:, None]
        else:
            W = np.einsum("ij,tjc->tic", noise.sampling_factor(), z)
        x = x0.copy()
        for t in range(cfg.horizon + 1):
            if t > 0:
                x = E @ x + W[t - 1]
            if t % cfg.record_every == 0:
                e = (x - pi @ x) ** 2
                wsq[k, t // cfg.record_every] = (pi @ e).sum()
                usq[k, t // cfg.record_every] = e.mean(axis=0).sum()
                if k == 0:
                    states[t // cfg.record_every] = x
    return times, wsq, usq, states


def test_kernel_matches_a_per_trial_reference_loop():
    rng = np.random.default_rng(5)
    P = random_reversible_chain(rng, 7)
    for noise in _covariances(7, rng):
        for kind in ("gaussian", "rademacher"):
            for x0, every in itertools.product(
                    (rng.normal(size=7), rng.normal(size=(7, 2))), (2, 3)):
                cfg = SimConfig(horizon=300, trials=3, seed=11, record_every=every, noise=kind)
                times, wsq, usq, states = _run_trials(P, noise, x0, cfg)
                ref_times, ref_wsq, ref_usq, ref_states = _reference_trials(P, noise, x0, cfg)
                np.testing.assert_array_equal(times, ref_times)
                np.testing.assert_allclose(wsq, ref_wsq, rtol=1e-13, atol=0)
                np.testing.assert_allclose(usq, ref_usq, rtol=1e-13, atol=0)
                np.testing.assert_allclose(states, ref_states.reshape(states.shape),
                                           rtol=0, atol=1e-13 * np.abs(ref_states).max())


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
    # each row is formatted as by str.format with 17 significant digits
    rows = [f"{int(t)},{d:.16e},{u:.16e},{s:.16e}" for t, d, u, s in
            zip(trace.times, trace.delta_hat, trace.delta_uni_hat, trace.stderr)]
    assert trace.to_csv() == "\n".join(["t,delta_hat,delta_uni_hat,stderr", *rows]) + "\n"


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
