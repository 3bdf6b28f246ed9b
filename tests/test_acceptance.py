"""Acceptance gate: twelve numbered end-to-end checks.

Each test prints one PASS/FAIL line (with its measured numbers and elapsed
time) and enforces the stated tolerance and runtime budget.  Check 10 is
known-red: the tree-formation band it demands is ruled out by the exact
closed form — see the failure message, which carries the full analysis.
"""

import time
import warnings

import numpy as np
import pytest
from conftest import random_connected_graph, random_psd_covariance, random_reversible_chain

from consensuslab import (
    NoiseCovariance,
    SimConfig,
    build_graph,
    check_j_properties,
    delta_oracle,
    delta_ss_kemeny,
    delta_ss_resistance,
    delta_ss_spectral,
    delta_ss_theorem,
    delta_uni_bounds,
    divergence_probe,
    effective_resistance,
    estimate_delta_ss,
    form_exact,
    form_via_delta,
    hitting_times,
    j_matrix,
    kemeny_constant_combinatorial,
    lazy_walk_matrix,
    nearest_valid_size,
    ring_graph,
    sigma_hat,
    simple_walk_matrix,
    simulate_formation,
    spec_from_graph,
    square_chain,
    uniform_edge_matrix,
)
from consensuslab.formation import build_formation_spec
from consensuslab.graphs import builtin_families, custom_graph


def report(name: str, ok: bool, t0: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {name}  ({time.time() - t0:.1f}s)  {detail}")


def symmetric_walk_set():
    """Symmetric uniform-weight walks on the five core families, n <= 64.

    On the regular families (complete, ring) these coincide exactly with
    the lazy walk; on the irregular ones they are its symmetric analogue —
    the lazy walk itself has a degree-weighted stationary distribution
    there, which the equal-variance formulas do not cover.
    """
    chains = []
    for fam, sizes in (
        ("complete", (4, 16, 64)),
        ("line", (2, 16, 64)),
        ("ring", (4, 16, 64)),
        ("star", (4, 16, 64)),
        ("tree", (7, 15, 63)),
    ):
        for n in sizes:
            chains.append((f"{fam}{n}", uniform_edge_matrix(build_graph(fam, n))))
    return chains


def test_01_closed_form_matches_iterative_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        P = lazy_walk_matrix(random_connected_graph(rng, n))
        noise = NoiseCovariance.full(random_psd_covariance(rng, n))
        a = delta_ss_theorem(P, noise).delta_ss
        _, orep = delta_oracle(P, noise)
        worst = max(worst, abs(a - orep.delta_ss) / (1.0 + orep.delta_ss))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 60
    report("01 closed form vs iterative oracle, 200 random chains", ok, t0,
           f"worst rel dev {worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 60


def test_02_four_formulas_agree_on_symmetric_walks():
    t0 = time.time()
    worst = 0.0
    for name, P in symmetric_walk_set():
        n = P.n
        vals = np.array([
            delta_ss_theorem(P, NoiseCovariance.scalar(n, 1.0)).delta_ss,
            delta_ss_kemeny(P, 1.0),
            delta_ss_spectral(P, 1.0),
            delta_ss_resistance(P, 1.0),
        ])
        spread = (vals.max() - vals.min()) / vals.max()
        worst = max(worst, spread)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 60
    report("02 hitting/Kemeny/spectral/resistance agreement", ok, t0,
           f"worst rel spread {worst:.2e}")
    assert worst <= 1e-9
    assert elapsed < 60


def test_03_kemeny_sum_is_start_independent():
    # spread measured relative to (1 + K): with K in the thousands, double
    # precision cannot hold an absolute 1e-9 across independent LU solves.
    # The per-target route solves each column on its own; on the
    # fundamental route H pi = tr Z - Z 1 holds by construction.
    t0 = time.time()
    worst = 0.0
    for name, P in symmetric_walk_set():
        for Q in (P, square_chain(P)):
            H = hitting_times(Q, method="per-target")
            Ki = H @ Q.stationary()
            spread = np.ptp(Ki) / (1.0 + Ki.mean())
            worst = max(worst, spread)
    ok = worst <= 1e-9
    report("03 random-target sums constant across starts", ok, t0,
           f"worst rel spread {worst:.2e}")
    assert worst <= 1e-9


def test_04_commute_identity_is_exact():
    t0 = time.time()
    worst_delta = 0.0
    for name, P in symmetric_walk_set():
        H = hitting_times(P)
        R = effective_resistance(P)
        assert np.array_equal(R, H + H.T), name  # identical floats, not approx
        # independent cross-check: the two formulas that consume R and K
        a = delta_ss_resistance(P, 1.0)
        b = delta_ss_kemeny(P, 1.0)
        worst_delta = max(worst_delta, abs(a - b) / max(a, 1e-300))
    ok = worst_delta <= 1e-9
    report("04 commute identity R = H + H'", ok, t0,
           f"resistance-vs-Kemeny rel dev {worst_delta:.2e}")
    assert worst_delta <= 1e-9


def _slope(ns, ds) -> float:
    return float(np.polyfit(np.log(ns), np.log(ds), 1)[0])


def test_05_scaling_laws_across_families():
    t0 = time.time()
    details = []
    failures = []

    def sweep(fam, sizes, variances=None):
        out = []
        for n in sizes:
            P = lazy_walk_matrix(build_graph(fam, n))
            v = np.ones(n) if variances is None else variances(n)
            out.append(delta_ss_theorem(P, NoiseCovariance.diagonal(v)).delta_ss)
        return np.array(out, dtype=float)

    # quadratic growth: the star-capped line concentrates stationary mass
    ns = np.array([192, 384, 768, 1536])
    s = _slope(ns, sweep("starry-line", ns))
    details.append(f"starry-line slope {s:.3f}")
    if not abs(s - 2.0) <= 0.25:
        failures.append(f"starry-line slope {s:.3f} not within 2 +/- 0.25")

    # ring and line stay (sub-)linear: delta_ss / sum(sigma^2) bounded
    for fam in ("ring", "line"):
        ns = np.array([128, 256, 512, 1024])
        s = _slope(ns, sweep(fam, ns))
        details.append(f"{fam} slope {s:.3f}")
        if not s <= 1.25:
            failures.append(f"{fam} slope {s:.3f} exceeds 1.25")

    # complete graph: delta_ss * n / sum(sigma^2) pinned to a constant
    ns = np.array([64, 128, 256, 512])
    q = sweep("complete", ns) * ns / ns  # sum sigma^2 = n
    ratio = q.max() / q.min()
    details.append(f"complete spread {ratio:.3f}")
    if not ratio <= 3.0:
        failures.append(f"complete delta*n spread {ratio:.3f} exceeds 3")

    # 2d grid: delta_ss * n / sum(sigma^2) grows at most like log n.
    # sizes are successive side-doublings (n quadruples), so requiring
    # each step's ratio <= 1.6 is the conservative reading.
    ns = np.array([16, 64, 256, 1024])
    q = sweep("grid", ns) * ns / ns
    ratios = q[1:] / q[:-1]
    details.append("grid ratios " + "/".join(f"{r:.3f}" for r in ratios))
    if not np.all(ratios <= 1.6):
        failures.append(f"grid growth ratios {ratios} exceed 1.6")

    # star: noise at the hub or at the leaves both give Theta(1)
    ns = np.array([64, 128, 256, 512])
    for label, mk in (
        ("center", lambda n: np.eye(1, n, 0).ravel()),
        ("leaf", lambda n: 1.0 - np.eye(1, n, 0).ravel()),
    ):
        s = _slope(ns, sweep("star", ns, mk))
        details.append(f"star-{label} slope {s:.3f}")
        if not abs(s) <= 0.25:
            failures.append(f"star {label}-only slope {s:.3f} not within 0 +/- 0.25")

    # two hubs with noisy centers: linear growth
    def hubs(n):
        v = np.zeros(n)
        v[0] = v[n - 1] = 1.0
        return v

    s = _slope(ns, sweep("two-star", ns, hubs))
    details.append(f"two-star slope {s:.3f}")
    if not abs(s - 1.0) <= 0.25:
        failures.append(f"two-star hub-noise slope {s:.3f} not within 1 +/- 0.25")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 600
    report("05 scaling laws over graph families", ok, t0, "; ".join(details))
    assert not failures, failures
    assert elapsed < 600


def test_06_uniform_disagreement_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst_ratio_dev = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 20))
        P = random_reversible_chain(rng, n)
        noise = NoiseCovariance.diagonal(rng.uniform(0.1, 2.0, n))
        lo, hi = delta_uni_bounds(P, noise)
        _, orep = delta_oracle(P, noise)
        uni = orep.delta_uni_exact
        slack = 1e-9 * (1.0 + abs(uni))
        assert lo - slack <= uni <= hi + slack, (lo, uni, hi)
        pi = P.stationary()
        worst_ratio_dev = max(
            worst_ratio_dev, abs(hi / lo - pi.max() / pi.min()) / (pi.max() / pi.min())
        )
    ok = worst_ratio_dev <= 1e-10
    report("06 uniform-weight sandwich on 100 random chains", ok, t0,
           f"bound-ratio rel dev {worst_ratio_dev:.2e}")
    assert worst_ratio_dev <= 1e-10


def test_07_bipartite_noise_accumulates_linearly():
    t0 = time.time()
    P = simple_walk_matrix(ring_graph(8))
    tr = divergence_probe(P, NoiseCovariance.scalar(8, 1.0), 400)
    # Tr Sigma(2t) - Tr Sigma(2t-2) for t in [100, 200]
    steps = np.arange(100, 201)
    gains = tr[2 * steps] - tr[2 * steps - 2]
    ok = bool(gains.min() >= 0.5)
    report("07 even ring without laziness diverges", ok, t0,
           f"min two-step gain {gains.min():.3f}")
    assert gains.min() >= 0.5


def test_08_monte_carlo_agrees_with_closed_form():
    t0 = time.time()
    worst_z = 0.0
    for fam in ("ring", "star"):
        P = lazy_walk_matrix(build_graph(fam, 8))
        noise = NoiseCovariance.scalar(8, 1.0)
        exact = delta_ss_theorem(P, noise).delta_ss
        for kind in ("gaussian", "rademacher"):
            cfg = SimConfig(horizon=5000, trials=200, burn_in=300, seed=13, noise=kind)
            est, se = estimate_delta_ss(P, noise, cfg)
            z = abs(est - exact) / se
            worst_z = max(worst_z, z)
            assert z <= 3.0, (fam, kind, est, exact, se)
    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and elapsed < 120
    report("08 Monte Carlo within 3 stderr, both noise laws", ok, t0,
           f"worst z {worst_z:.2f}")
    assert elapsed < 120


def test_09_formation_error_routes_agree():
    t0 = time.time()
    worst = 0.0
    rng_seed = 905
    for fam in builtin_families():
        n = nearest_valid_size(fam, 64)
        g = build_graph(fam, n, seed=rng_seed, p=0.15, degree=3)
        spec = spec_from_graph(g, lambda2=0.3)
        a = form_exact(spec).form_exact
        b = form_via_delta(spec)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    # hand value: two agents, one unit offset, lambda^2 = 1, d = 2
    g2 = custom_graph(2, [(0, 1)], family="line(n=2)")
    pair = build_formation_spec(g2, 2, {(0, 1): [1.0, 0.0]}, "default", 1.0)
    pair_err = abs(form_exact(pair).form_exact - 1.0)
    ok = worst <= 1e-10 and pair_err <= 1e-12
    report("09 formation closed form vs disagreement route", ok, t0,
           f"worst rel dev {worst:.2e}; two-agent dev {pair_err:.1e}")
    assert worst <= 1e-10
    assert pair_err <= 1e-12


def test_10_formation_error_magnitudes_star_vs_tree():
    # KNOWN RED.  The exact closed form for the 127-node binary tree at
    # lambda = 1/50, d = 2 is 0.010189, already above the demanded band
    # [0.002, 0.010]; a faithful simulation must land on the closed form,
    # so the band cannot be met without breaking check 09.  The star band
    # and the star/tree ratio both hold.
    t0 = time.time()
    results = {}
    for fam, burn, horizon in (("star", 1500, 4000), ("tree", 4000, 6500)):
        spec = spec_from_graph(build_graph(fam, 127), lambda2=(1.0 / 50.0) ** 2)
        exact = form_exact(spec).form_exact
        cfg = SimConfig(horizon=horizon, trials=24, burn_in=burn, seed=7, record_every=4)
        _, (est, se) = simulate_formation(spec, cfg)
        results[fam] = (exact, est, se)
    star_exact, star_sim, star_se = results["star"]
    tree_exact, tree_sim, tree_se = results["tree"]
    ratio = star_sim / tree_sim
    elapsed = time.time() - t0

    star_ok = 0.02 <= star_sim <= 0.10
    tree_ok = 0.002 <= tree_sim <= 0.010
    ratio_ok = ratio >= 5.0
    ok = star_ok and tree_ok and ratio_ok and elapsed < 300
    detail = (f"star sim {star_sim:.4f} (exact {star_exact:.4f}), "
              f"tree sim {tree_sim:.4f} (exact {tree_exact:.4f}), ratio {ratio:.1f}")
    report("10 star vs tree formation error at n=127", ok, t0, detail)
    assert elapsed < 300
    assert star_ok, f"star tail average {star_sim:.4f} outside [0.02, 0.10]"
    assert ratio_ok, f"star/tree ratio {ratio:.1f} below 5"
    if not tree_ok:
        pytest.fail(
            f"tree tail average {tree_sim:.4f} +/- {tree_se:.4f} outside "
            f"[0.002, 0.010].  This is not a simulation artifact: the exact "
            f"value is d * lambda^2 * K(P_form^2) / n = {tree_exact:.6f} with "
            f"d = 2, lambda^2 = 4e-4, n = 127, i.e. the band's upper edge is "
            f"1.9% below the closed form the rest of the suite certifies "
            f"(checks 01/02/09 pin the simulation to it).  Halving to one "
            f"coordinate (d = 1) would land at {tree_exact / 2:.6f} and pass, "
            f"but the error metric here sums over both coordinates by "
            f"definition.  Left red deliberately rather than bending the "
            f"metric to the band."
        )


def test_11_projection_and_covariance_identities():
    t0 = time.time()
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 15))
        P = random_reversible_chain(rng, n)
        jrep = check_j_properties(P)
        worst = max(worst, jrep.max_violation())
        assert jrep.rho < 1.0

        noise = NoiseCovariance.full(random_psd_covariance(rng, n))
        S = sigma_hat(P, noise)
        rep = delta_ss_theorem(P, noise)
        scale = 1.0 + np.abs(S).max()
        J = j_matrix(P)
        E2 = np.linalg.matrix_power(P.entries, 2)
        rhs = (np.eye(n) - J) @ noise.matrix() @ np.diag(P.stationary())
        worst = max(
            worst,
            abs(np.trace(S) - rep.delta_ss) / scale,
            np.abs(J @ S).max() / scale,
            np.abs(S - (E2 @ S + rhs)).max() / scale,
        )
    ok = worst <= 1e-10
    report("11 projection and steady-covariance identities", ok, t0,
           f"worst violation {worst:.2e}")
    assert worst <= 1e-10


def test_12_squared_chain_hitting_times_stay_comparable():
    # advisory check: entrywise H(P^2) <= 4 H(P); a violation warns, never fails
    t0 = time.time()
    cases = []
    for fam in builtin_families():
        for target in (64, 200):
            n = nearest_valid_size(fam, target)
            if n > 200:
                n = nearest_valid_size(fam, 127)
            cases.append((fam, n))
    worst = 0.0
    worst_case = ""
    seen = set()
    for fam, n in cases:
        if (fam, n) in seen:
            continue
        seen.add((fam, n))
        P = lazy_walk_matrix(build_graph(fam, n, seed=12, p=0.15, degree=3))
        H1 = hitting_times(P)
        H2 = hitting_times(square_chain(P))
        off = ~np.eye(n, dtype=bool)
        ratio = float((H2[off] / H1[off]).max())
        if ratio > worst:
            worst, worst_case = ratio, f"{fam}{n}"
        if ratio > 4.0:
            warnings.warn(
                f"H(P^2) exceeds 4 H(P) on {fam} n={n}: max ratio {ratio:.3f}",
                stacklevel=1,
            )
    ok = True  # advisory by design
    report("12 squared-chain hitting-time ratio (advisory)", ok, t0,
           f"max ratio {worst:.3f} at {worst_case}")
    assert worst > 0.0
