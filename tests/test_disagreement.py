import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import random_psd_covariance, random_reversible_chain
from referees import exact_lazy_delta, hitting_time_delta, hitting_time_sigma_hat

from consensuslab.disagreement import (
    NoiseCovariance,
    check_j_properties,
    delta_oracle,
    delta_ss_bounds,
    delta_ss_kemeny,
    delta_ss_resistance,
    delta_ss_spectral,
    delta_ss_theorem,
    delta_uni_bounds,
    j_matrix,
    sigma_hat,
)
from consensuslab.errors import (
    InvalidParam,
    NoConvergence,
    NotIrreducible,
    NotReversible,
    NotSymmetric,
)
from consensuslab.formation import form_via_delta, formation_matrix, spec_from_graph
from consensuslab.graphs import line_graph, ring_graph, star_graph
from consensuslab.markov import (
    StochasticMatrix,
    hitting_times,
    lazy_walk_matrix,
    simple_walk_matrix,
    square_chain,
)
from consensuslab.simulate import divergence_probe


def two_node():
    return StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


def delta_ss_theorem_diagonal(P, variances) -> float:
    return delta_ss_theorem(P, NoiseCovariance.diagonal(variances)).delta_ss


# ---------------------------------------------------------------- noise


def test_noise_covariance_kinds():
    s = NoiseCovariance.scalar(3, 2.0)
    assert s.is_diagonal and s.equal_variance() == 2.0
    np.testing.assert_array_equal(s.matrix(), 2.0 * np.eye(3))

    d = NoiseCovariance.diagonal([1.0, 2.0, 3.0])
    assert d.is_diagonal and d.equal_variance() is None
    assert d.trace() == 6.0

    d_eq = NoiseCovariance.diagonal([2.0, 2.0])
    assert d_eq.equal_variance() == 2.0

    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    f = NoiseCovariance.full(M)
    assert not f.is_diagonal
    np.testing.assert_array_equal(f.variances(), [2.0, 2.0])


def test_noise_covariance_rejects_bad_input():
    with pytest.raises(InvalidParam):
        NoiseCovariance.scalar(3, -1.0)
    with pytest.raises(InvalidParam):
        NoiseCovariance.diagonal([1.0, -0.5])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParam):
            NoiseCovariance.diagonal([1.0, bad])
        with pytest.raises(InvalidParam):
            NoiseCovariance.full(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(InvalidParam):
        NoiseCovariance.full(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(InvalidParam):
        NoiseCovariance.full(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    # zero covariance is legal (noiseless runs)
    z = NoiseCovariance.full(np.zeros((2, 2)))
    assert z.trace() == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("fn", [delta_ss_theorem_diagonal, delta_ss_bounds, delta_ss_kemeny,
                                delta_ss_spectral, delta_ss_resistance],
                         ids=lambda fn: fn.__name__)
def test_closed_forms_reject_bad_variances(fn, bad):
    P = lazy_walk_matrix(ring_graph(5))
    per_node = fn in (delta_ss_theorem_diagonal, delta_ss_bounds)
    with pytest.raises(InvalidParam):
        fn(P, [1.0, bad, 1.0, 1.0, 1.0] if per_node else bad)


def test_sampling_factor_reproduces_covariance():
    rng = np.random.default_rng(1)
    S = random_psd_covariance(rng, 5)
    f = NoiseCovariance.full(S)
    L = f.sampling_factor()
    np.testing.assert_allclose(L @ L.T, S, atol=1e-12)


# ------------------------------------------------------- closed forms


def test_two_node_disagreement_is_half_sigma2():
    rep = delta_ss_theorem(two_node(), NoiseCovariance.scalar(2, 1.0))
    assert rep.delta_ss == pytest.approx(0.5, abs=1e-14)
    assert rep.method == "theorem1"
    # all four routes on this symmetric chain
    assert delta_ss_kemeny(two_node(), 1.0) == pytest.approx(0.5, abs=1e-14)
    assert delta_ss_spectral(two_node(), 1.0) == pytest.approx(0.5, abs=1e-14)
    assert delta_ss_resistance(two_node(), 1.0) == pytest.approx(0.5, abs=1e-14)


def test_star_center_only_noise_hand_value():
    # lazy star n=4: pi = (1/2, 1/6, 1/6, 1/6); only the hub is noisy.
    # delta = sigma0^2 pi0^2 sum_j pi_j H2(j -> 0)
    g = star_graph(4)
    P = lazy_walk_matrix(g)
    pi = P.stationary()
    np.testing.assert_allclose(pi, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)
    H2 = hitting_times(square_chain(P), method="per-target")
    expected = 0.25 * float(pi @ H2[:, 0])
    got = delta_ss_theorem_diagonal(P, [1.0, 0.0, 0.0, 0.0])
    assert got == pytest.approx(expected, rel=1e-12)


def test_diagonal_route_matches_general_theorem():
    # the O(n) diag-Z branch against the O(n^2) full-covariance branch
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        P = random_reversible_chain(rng, n)
        v = rng.uniform(0.0, 3.0, n)
        a = delta_ss_theorem_diagonal(P, v)
        b = delta_ss_theorem(P, NoiseCovariance.full(np.diag(v))).delta_ss
        assert abs(a - b) < 1e-12 * (1 + abs(a))


def _noises(rng, n):
    """Diagonal, full and singular PSD (rank 1) noise for an n-state chain."""
    u = rng.normal(size=n)
    return (NoiseCovariance.diagonal(rng.uniform(0.0, 3.0, n)),
            NoiseCovariance.full(random_psd_covariance(rng, n)),
            NoiseCovariance.full(np.outer(u, u)))


def test_theorem_and_sigma_hat_match_the_hitting_time_form():
    # the paper's pi' H D Sigma D 1 - Tr(H D Sigma D), with H(P^2) from the
    # per-target solves, referees the Z-form the package evaluates
    rng = np.random.default_rng(2024)
    chains = [StochasticMatrix([[1.0]]), two_node(),
              StochasticMatrix([[0.9, 0.1], [0.3, 0.7]])]
    chains += [random_reversible_chain(rng, int(rng.integers(3, 16)), log10_range)
               for log10_range in (None, None, (-3.0, 0.0), (-3.0, 0.0))]
    for P in chains:
        for noise in _noises(rng, P.n):
            ref = hitting_time_delta(P, noise)
            scale = 1.0 + abs(ref)
            assert abs(delta_ss_theorem(P, noise).delta_ss - ref) <= 1e-11 * scale
            S_ref = hitting_time_sigma_hat(P, noise)
            scale = 1.0 + np.abs(S_ref).max()
            assert np.abs(sigma_hat(P, noise) - S_ref).max() <= 1e-11 * scale


@pytest.mark.parametrize("graph", [star_graph(16), line_graph(24)], ids=["star16", "line24"])
def test_theorem_matches_exact_rational_arithmetic(graph):
    # exact delta_ss of the lazy walk from a Fraction Gauss-Jordan on
    # I - P^2 + 1 pi'; the measured relative errors were at most 2.0e-15
    # (star16: 1.8e-16 and 1.5e-16; line24: 1.9e-15 and 2.0e-15)
    P = lazy_walk_matrix(graph)
    for v in (np.ones(graph.n), np.arange(1, graph.n + 1) / 4):
        exact = exact_lazy_delta(graph, v)
        got = delta_ss_theorem_diagonal(P, v)
        assert abs(got - float(exact)) <= 1e-13 * float(exact)


def test_closed_forms_build_no_hitting_matrix():
    # delta_ss, Sigma_hat and the formation error are all read off Z(P^2)
    P = lazy_walk_matrix(star_graph(9))
    for noise in _noises(np.random.default_rng(5), 9):
        delta_ss_theorem(P, noise)
        sigma_hat(P, noise)
    spec = spec_from_graph(ring_graph(12), 1e-3)
    form_via_delta(spec)
    for Q in (P, formation_matrix(spec)):
        assert "_hitting" not in vars(square_chain(Q))


def test_diagonal_noise_builds_no_n_by_n_array():
    # with Z(P^2) cached, diagonal noise costs O(n) memory, not an n x n array
    import tracemalloc

    n = 400
    P = lazy_walk_matrix(ring_graph(n))
    noise = NoiseCovariance.scalar(n, 2.0)
    spec = spec_from_graph(ring_graph(n), 1e-3)
    for call in (lambda: delta_ss_theorem(P, noise), lambda: form_via_delta(spec)):
        call()  # builds and caches the squared chain and its Z
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4, peak


def test_common_noise_produces_no_disagreement():
    # w(t) = same scalar on every node: the error dynamics never see it
    rng = np.random.default_rng(2)
    for n in (2, 5, 9):
        P = random_reversible_chain(rng, n)
        common = NoiseCovariance.full(np.ones((n, n)))
        rep = delta_ss_theorem(P, common)
        assert abs(rep.delta_ss) < 1e-12
        _, orep = delta_oracle(P, common)
        assert abs(orep.delta_ss) < 1e-12


def test_closed_form_requires_reversibility_and_aperiodicity():
    nonrev = StochasticMatrix(np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]))
    with pytest.raises(NotReversible):
        delta_ss_theorem(nonrev, NoiseCovariance.scalar(3, 1.0))
    periodic = simple_walk_matrix(ring_graph(8))
    with pytest.raises(NotIrreducible):
        delta_ss_theorem(periodic, NoiseCovariance.scalar(8, 1.0))
    # sigma^2 K/n formula additionally needs symmetry
    lazy_star = lazy_walk_matrix(star_graph(5))
    with pytest.raises(NotSymmetric):
        delta_ss_kemeny(lazy_star, 1.0)


# ------------------------------------------------------------- oracle


def test_oracle_matches_theorem_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        P = random_reversible_chain(rng, n)
        noise = NoiseCovariance.full(random_psd_covariance(rng, n))
        rep = delta_ss_theorem(P, noise)
        _, orep = delta_oracle(P, noise)
        assert abs(rep.delta_ss - orep.delta_ss) <= 1e-8 * (1 + orep.delta_ss)
        assert orep.method == "oracle"
        assert orep.delta_uni_exact is not None


def test_oracle_is_insensitive_to_the_starting_covariance():
    rng = np.random.default_rng(8)
    P = random_reversible_chain(rng, 6)
    noise = NoiseCovariance.diagonal(rng.uniform(0.1, 2.0, 6))
    _, a = delta_oracle(P, noise)
    S0 = random_psd_covariance(rng, 6)
    _, b = delta_oracle(P, noise, sigma0=S0)
    assert abs(a.delta_ss - b.delta_ss) < 1e-8 * (1 + a.delta_ss)


def test_oracle_diagnoses_no_convergence_on_periodic_chain():
    P = simple_walk_matrix(ring_graph(6))
    with pytest.raises(NoConvergence) as ei:
        delta_oracle(P, NoiseCovariance.scalar(6, 1.0), max_iters=400)
    # diagnostics carry the non-settling trace
    assert ei.value.trace_history is not None
    assert len(ei.value.trace_history) > 2


def test_oracle_reports_iterations_and_residual():
    P = lazy_walk_matrix(ring_graph(6))
    cov, rep = delta_oracle(P, NoiseCovariance.scalar(6, 1.0))
    assert cov.iterations > 0
    assert cov.residual <= 1e-12 * (1 + np.abs(cov.matrix).max())
    assert rep.diagnostics["iterations"] == cov.iterations


def test_oracle_matches_solve_discrete_lyapunov():
    rng = np.random.default_rng(64)
    for g in (line_graph(64), ring_graph(64)):
        P = lazy_walk_matrix(g)
        noise = NoiseCovariance.diagonal(rng.uniform(0.25, 4.0, 64))
        cov, _ = delta_oracle(P, noise)
        J = np.outer(np.ones(64), P.stationary())
        IJ = np.eye(64) - J
        ref = scipy.linalg.solve_discrete_lyapunov(P.entries - J, IJ @ noise.matrix() @ IJ.T)
        assert np.abs(cov.matrix - ref).max() <= 1e-10 * np.abs(ref).max()


def test_oracle_matches_theorem_on_slow_mixing_lines():
    for n in (64, 128):
        P = lazy_walk_matrix(line_graph(n))
        noise = NoiseCovariance.scalar(n, 1.0)
        cov, rep = delta_oracle(P, noise)
        exact = delta_ss_theorem(P, noise).delta_ss
        assert abs(rep.delta_ss - exact) <= 1e-11 * exact
        assert cov.iterations <= 24  # squarings: 2^24 steps of the recursion


def test_oracle_stops_without_overflow_on_periodic_chain():
    P = simple_walk_matrix(ring_graph(6))
    noise = NoiseCovariance.scalar(6, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for max_iters in (None, 10_000):
            with pytest.raises(NoConvergence) as ei:
                delta_oracle(P, noise, max_iters=max_iters)
            history = ei.value.trace_history
            assert np.all(np.diff(history) > 0)
    # squaring k reaches step 2^k of the recursion the probe steps through
    steps = divergence_probe(P, noise, 2 ** len(history))
    np.testing.assert_allclose(history, steps[2 ** np.arange(1, len(history) + 1)], rtol=1e-12)
    with pytest.raises(InvalidParam):
        delta_oracle(P, noise, max_iters=0)


# ------------------------------------------------------------- bounds


def test_delta_uni_sandwich_on_random_chains():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        P = random_reversible_chain(rng, n)
        noise = NoiseCovariance.diagonal(rng.uniform(0.1, 2.0, n))
        lo, hi = delta_uni_bounds(P, noise)
        _, orep = delta_oracle(P, noise)
        uni = orep.delta_uni_exact
        slack = 1e-9 * (1 + abs(uni))
        assert lo - slack <= uni <= hi + slack
        pi = P.stationary()
        rep = delta_ss_theorem(P, noise)
        assert hi / max(lo, 1e-300) == pytest.approx(pi.max() / pi.min(), rel=1e-10)
        assert lo == pytest.approx(rep.delta_ss / (n * pi.max()), rel=1e-12)


def test_kemeny_resistance_bounds_bracket_delta():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(3, 15))
        P = random_reversible_chain(rng, n)
        v = rng.uniform(0.5, 1.5, n)
        lo, hi = delta_ss_bounds(P, v)
        d = delta_ss_theorem_diagonal(P, v)
        assert lo <= d * (1 + 1e-12) and d <= hi * (1 + 1e-12)


# ------------------------------------------- projection and Sigma-hat


def test_j_matrix_properties_hold_on_random_chains():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        P = random_reversible_chain(rng, n)
        rep = check_j_properties(P)
        assert rep.ok(), rep.violations
        assert rep.rho < 1.0
        J = j_matrix(P)
        np.testing.assert_allclose(J @ J, J, atol=1e-12)


def test_sigma_hat_identities():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        P = random_reversible_chain(rng, n)
        noise = NoiseCovariance.full(random_psd_covariance(rng, n))
        S = sigma_hat(P, noise)
        rep = delta_ss_theorem(P, noise)
        scale = 1 + np.abs(S).max()
        # trace equals the disagreement
        assert abs(np.trace(S) - rep.delta_ss) < 1e-10 * scale
        # J annihilates it
        J = j_matrix(P)
        assert np.abs(J @ S).max() < 1e-10 * scale
        # and it solves the stationarity equation
        E2 = np.linalg.matrix_power(P.entries, 2)
        pi = P.stationary()
        rhs = (np.eye(n) - J) @ noise.matrix() @ np.diag(pi)
        assert np.abs(S - (E2 @ S + rhs)).max() < 1e-10 * scale


def test_report_json_shape():
    rep = delta_ss_theorem(two_node(), NoiseCovariance.scalar(2, 1.0))
    doc = rep.to_json_dict()
    assert set(doc) >= {"delta_ss", "delta_uni_lower", "delta_uni_upper", "method", "n"}
    assert doc["method"] == "theorem1"
    assert doc["n"] == 2
