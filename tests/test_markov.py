import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from conftest import (
    BENCH_SIZES,
    adjacency,
    mc_first_passage,
    nearest_valid_size,
    random_reversible_chain,
    run_main,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from referees import degree_stationary, exact_lazy_z, hitting_time_delta, per_target_hitting_times

from consensuslab import tolerances
from consensuslab.disagreement import NoiseCovariance, delta_ss_theorem
from consensuslab.errors import InvalidParam, NotIrreducible, NotReversible, SingularSystem
from consensuslab.graphs import (
    builtin_families,
    build_graph,
    complete_graph,
    line_graph,
    ring_graph,
    star_graph,
)
from consensuslab.markov import (
    StochasticMatrix,
    _max_resistance,
    _row_blocks,
    effective_resistance,
    hitting_times,
    kemeny_constant_combinatorial,
    kemeny_constant_spectral,
    lazy_walk_matrix,
    simple_walk_matrix,
    square_chain,
    uniform_edge_matrix,
)

NONBIPARTITE = ["complete", "ring"]  # odd ring below; complete n>=3


def test_matrix_validation():
    with pytest.raises(InvalidParam):
        StochasticMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(InvalidParam):
        StochasticMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))
    with pytest.raises(InvalidParam):
        StochasticMatrix(np.ones((2, 3)))
    P = StochasticMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    assert P.n == 2
    # entries are a frozen copy
    with pytest.raises(ValueError):
        P.entries[0, 0] = 0.0


def test_flags_on_small_chains():
    P = StochasticMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    assert P.irreducible and P.aperiodic and P.reversible and not P.symmetric

    walk = simple_walk_matrix(ring_graph(8))
    assert walk.irreducible and not walk.aperiodic  # bipartite, period 2

    lazy = lazy_walk_matrix(ring_graph(8))
    assert lazy.aperiodic and lazy.symmetric

    # a chain that is irreducible but not reversible: directed 3-cycle with laziness
    C = StochasticMatrix(np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]))
    assert C.irreducible and C.aperiodic and not C.reversible

    R = StochasticMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert not R.irreducible

    # periods without self-loops
    assert StochasticMatrix([[1.0]]).aperiodic
    flip = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert flip.irreducible and not flip.aperiodic
    assert StochasticMatrix([[0.0, 1.0], [0.5, 0.5]]).aperiodic
    cycle3 = StochasticMatrix(np.roll(np.eye(3), 1, axis=1))  # 0 -> 1 -> 2 -> 0
    assert cycle3.irreducible and not cycle3.aperiodic
    # a 3-cycle and a 4-cycle through state 0: period gcd(3, 4) = 1
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 0)]
    a = np.zeros((6, 6))
    a[tuple(zip(*arcs))] = 1.0
    assert StochasticMatrix(a / a.sum(axis=1, keepdims=True)).aperiodic


@st.composite
def small_chains(draw):
    # sparse patterns, half of them without self-loops and half around a
    # cycle through every state, so that periodic chains come up often
    n = draw(st.integers(1, 8))
    loops = n == 1 or draw(st.booleans())
    cycle = draw(st.booleans())
    a = np.zeros((n, n))
    if cycle:
        order = np.array(draw(st.permutations(range(n))))
        a[order, np.roll(order, -1)] = 1.0
    for i in range(n):
        targets = st.sampled_from([j for j in range(n) if loops or j != i])
        a[i, list(draw(st.sets(targets, min_size=0 if cycle else 1, max_size=2)))] = 1.0
    return StochasticMatrix(a / a.sum(axis=1, keepdims=True))


@settings(max_examples=300, deadline=None, database=None)
@given(small_chains())
def test_chain_flags_agree_with_brute_force(P):
    # and so do the flags of its square, which a primitive P hands down
    for Q in (P, square_chain(P)):
        n = Q.n
        A = (Q.entries > 0).astype(float)
        # irreducible: every state reaches every other in fewer than n steps
        irreducible = bool(np.all(np.linalg.matrix_power(np.eye(n) + A, n - 1) > 0))
        assert Q.irreducible == irreducible
        # the period is the gcd of the return times to state 0.  Those up to
        # 3n suffice: a simple cycle of c <= n steps through a state v, added
        # to a closed walk 0 -> v -> 0 of w <= 2n - 2 steps, gives the returns
        # w and w + c, whose gcd divides c
        returns = [k for k in range(1, 3 * n + 1) if np.linalg.matrix_power(A, k)[0, 0] > 0]
        assert Q.aperiodic == (irreducible and math.gcd(*returns) == 1)


def _lu_referees(P: StochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """pi and Z = (I - P + 1 pi')^-1 by plain LU solves, apart from the package."""
    n = P.n
    A = P.entries.T - np.eye(n)
    A[-1] = 1.0
    pi = np.linalg.solve(A, np.eye(n)[-1])
    return pi, scipy.linalg.solve(np.eye(n) - P.entries + pi, np.eye(n))


def _agrees_with_per_target(P: StochasticMatrix) -> None:
    """Z, H, K and max R of the fundamental route against LU and per-target."""
    Z = P._fundamental[0]
    Z_lu = _lu_referees(P)[1]
    assert np.abs(Z - Z_lu).max() <= 1e-9 * np.abs(Z_lu).max()
    H_ref = per_target_hitting_times(P)
    scale = 1.0 + H_ref.max()
    assert np.abs(hitting_times(P) - H_ref).max() <= 1e-9 * scale
    K_ref = H_ref @ P.stationary()  # the same from every start
    assert np.abs(kemeny_constant_combinatorial(P) - K_ref).max() <= 1e-9 * scale
    if P.reversible:
        assert abs(effective_resistance(P).max() - (H_ref + H_ref.T).max()) <= 2e-9 * scale


def test_hitting_residual_is_read_off_z_exactly():
    # the residual that the fundamental route caches, taken from Z without
    # building H, against H - P H - 1 off the diagonal with H built from Z;
    # Z is perturbed so that the residual is far above rounding
    from consensuslab.markov import _hitting_residual

    rng = np.random.default_rng(7)
    for n in (1, 2, 9, 40):
        P = random_reversible_chain(rng, n)
        pi = P.stationary()
        Z = P._fundamental[0] + 1e-6 * rng.standard_normal((n, n))
        H = (np.diag(Z)[None, :] - Z) / pi[None, :]
        resid = H - P.entries @ H - 1.0
        np.fill_diagonal(resid, 0.0)
        expected = np.abs(resid).max()
        assert abs(_hitting_residual(P, Z, pi) - expected) <= 1e-9 * (1e-12 + expected)
        assert n == 1 or expected > 1e-7


def _dense_walk(g, chain: str) -> np.ndarray:
    """The lazy or uniform walk as the dense array the adjacency formulas give."""
    a = adjacency(g)
    if chain == "lazy":
        p = 0.5 * a / a.sum(axis=1, keepdims=True)
        p[np.diag_indices(g.n)] += 0.5
        return p
    d = g.degrees()
    eps = 1.0 / (2.0 * d.max())
    p = eps * a
    p[np.diag_indices(g.n)] = 1.0 - eps * d
    return p


def _whole_array_cholesky_z(E: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Z of a reversible chain with B_s built from the whole dense array at
    once, then inverted by the package's own inverse of a whole array
    (markov._cholesky_inverse), so that the blocked passes around it are
    what the comparison checks."""
    from consensuslab.markov import _block_threads, _cholesky_inverse, _Threads

    s = np.sqrt(pi)
    A = s[:, None] * E / s
    B = -0.5 * (A + A.T) + np.outer(s, s)
    off = E.copy()
    np.fill_diagonal(off, 0.0)
    B[np.diag_indices(pi.size)] = off.sum(axis=1) + pi
    with _Threads(_block_threads(pi.size)) as threads:
        assert _cholesky_inverse(B, threads)
    Z = np.tril(B) + np.tril(B, -1).T
    return Z * s / s[:, None]


def _z_from_square(P: StochasticMatrix, Z2: np.ndarray) -> np.ndarray:
    """Z(P) = Z2 + P Z2 - 1 pi' for Z2 = Z(P^2), by the three operations the
    package makes: the product P Z2 first (one CSR product for a sparse P,
    the dense row blocks of markov._row_blocks for a dense one), then Z2
    added, then pi taken off."""
    if P._factors is not None:
        Z = P._csr @ Z2
    else:
        Z = np.concatenate([P.entries[b] @ Z2 for b in _row_blocks(P.n)])
    Z += Z2
    Z -= P.stationary()
    return Z


# n above 256 takes more than one row block (see markov._row_blocks); the
# complete graph's chain, and each chain below 32 states, is dense
@pytest.mark.parametrize("family, n", [
    ("ring", 9), ("ring", 300), ("line", 2), ("line", 300), ("grid", 16), ("grid", 289),
    ("tree", 15), ("tree", 511), ("starry-line", 12), ("starry-line", 288),
    ("two-star", 10), ("two-star", 300), ("complete", 300),
])
@pytest.mark.parametrize("chain", ["lazy", "uniform"])
def test_csr_built_chains_equal_the_dense_build(family, n, chain):
    # the builders make CSR straight from the edge list, and every O(n^2)
    # pass reads dense blocks of it; entries, pi and Z must be the bits of
    # the dense build, Z of P^2 the bits of B_s built from the whole dense
    # array, and Z of the aperiodic P the bits read off that Z of P^2
    g = build_graph(family, n)
    P = (lazy_walk_matrix if chain == "lazy" else uniform_edge_matrix)(g)
    D = StochasticMatrix(_dense_walk(g, chain))
    assert np.array_equal(P.entries, D.entries)
    assert np.array_equal(P.stationary(), D.stationary())
    assert np.array_equal(P._fundamental[0], D._fundamental[0])
    assert P.symmetric == D.symmetric and P.reversible and P.aperiodic
    P2 = square_chain(P)
    Z2 = _whole_array_cholesky_z(P2.entries, P2.stationary())
    assert np.array_equal(P2._fundamental[0], Z2)
    assert np.array_equal(P._fundamental[0], _z_from_square(P, Z2))


def test_direct_routes_of_the_fundamental_matrix():
    # a periodic chain has a reducible square, so its Z is inverted
    # directly: the simple walk on an even ring by the Cholesky route, bit
    # for bit.  A non-reversible aperiodic chain reads Z off an LU Z of its
    # square, which is the plain LU solve of I - P^2 + 1 pi'
    walk = simple_walk_matrix(ring_graph(300))
    assert walk.reversible and not walk.aperiodic
    pi = walk.stationary()
    assert np.array_equal(walk._fundamental[0], _whole_array_cholesky_z(walk.entries, pi))

    n = 300
    cycle = StochasticMatrix(0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1))
    assert cycle.aperiodic and not cycle.reversible
    Q, pi = square_chain(cycle), cycle.stationary()
    assert not Q.reversible
    Z2 = scipy.linalg.solve(np.eye(n) - Q.entries + pi, np.eye(n))
    assert np.array_equal(Q._fundamental[0], Z2)
    assert np.array_equal(cycle._fundamental[0], _z_from_square(cycle, Z2))
    # 5.6e-15 off the plain LU Z at one BLAS thread and 7.5e-15 at two,
    # whose entries reach 1; 4x that covers another LAPACK build's rounding
    assert np.abs(cycle._fundamental[0] - _lu_referees(cycle)[1]).max() <= 3e-14


def _spd(n: int, seed: int) -> np.ndarray:
    """A random symmetric positive definite n x n array, condition about 40."""
    X = np.random.default_rng(seed).standard_normal((n, n))
    return X @ X.T / n + 0.1 * np.eye(n)


@pytest.fixture(params=[1, 2], ids=["one-thread", "two-threads"])
def workers(request, monkeypatch):
    """markov's blocked passes on one thread, or on two whatever the cores
    and BLAS threads; a short switch interval, so the threads interleave."""
    from consensuslab import markov

    monkeypatch.setattr(markov, "_workers", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield request.param
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [2, 200, 319, 320, 321, 777])
def test_cholesky_inverse_is_potri_below_the_split_and_as_accurate_above(n, workers):
    # below markov._SPLIT the route is dpotrf + dpotri, bit for bit; from it,
    # the two-way block inverse, whose error against np.linalg.inv was at
    # most 1.3 times potri's on these arrays
    from scipy.linalg import lapack

    from consensuslab.markov import _SPLIT, _block_threads, _cholesky_inverse, _Threads

    assert _SPLIT == 320
    for seed in range(2):
        A = _spd(n, seed)
        c, info = lapack.dpotrf(A, lower=False, clean=False)
        c, info2 = lapack.dpotri(c, lower=False, overwrite_c=True)
        assert info == info2 == 0
        B = A.copy()  # its lower triangle is the upper one of A = B'
        with _Threads(_block_threads(n)) as threads:
            assert _cholesky_inverse(B, threads)
        got, potri = np.tril(B).T, np.triu(c)
        if n < _SPLIT:
            assert np.array_equal(got, potri)
        else:
            ref = np.triu(np.linalg.inv(A))
            scale = np.abs(ref).max()
            assert np.abs(got - ref).max() <= 2 * np.abs(potri - ref).max()
            assert np.abs(got - ref).max() <= 1e-14 * scale


class _Rows:
    """A stand-in for a chain that _fundamental_cholesky reads: its dense
    row blocks."""

    def __init__(self, E: np.ndarray):
        self.E = E

    def _rows(self, blocks=None):
        blocks = _row_blocks(len(self.E)) if blocks is None else blocks
        return ((b, self.E[b].copy()) for b in blocks)


@pytest.mark.parametrize("n", [300, 321, 640])
@pytest.mark.parametrize("half", ["first", "second"])
def test_cholesky_route_refuses_what_is_not_positive_definite(n, half, workers):
    # a failure of either half's potrf (or of the one potrf below the split)
    # gives False, and _fundamental_cholesky returns None, which sends the
    # chain to the LU route
    from consensuslab.markov import (
        _block_threads,
        _cholesky_inverse,
        _fundamental_cholesky,
        _Threads,
    )

    B = _spd(n, 0)
    k = 0 if half == "first" else n - 1
    B[k, k] = -1.0
    with _Threads(_block_threads(n)) as threads:
        assert not _cholesky_inverse(B, threads)
    # steps of -0.5 between four states of one half give those states
    # negative diagonal entries of B_s, which sums 1 - P_ii from the others
    E = np.eye(n)
    four = np.arange(4) if half == "first" else np.arange(n - 4, n)
    E[np.ix_(four, four)] -= 0.5
    assert _fundamental_cholesky(_Rows(E), np.full(n, 1.0 / n)) is None


def test_lapack_bindings_match_the_exported_signatures():
    # markov._call passes each routine's arguments by the kinds of
    # markov._ROUTINES; each must match the C signature scipy exports in the
    # name of its capsule, so that a scipy upgrade that changes one fails
    # here and not inside LAPACK
    from consensuslab.markov import _ROUTINES, _capsule_name

    kind_of = {"char *": "c", "int *": "i"}
    for name, (module, kinds) in _ROUTINES.items():
        signature = _capsule_name(module.__pyx_capi__[name]).decode()
        head, args = signature.split("(", 1)
        assert head.strip() == "void", signature
        got = "".join(kind_of.get(a.strip(), "d" if a.strip().endswith("_d *") else "?")
                      for a in args.rstrip(")").split(","))
        assert got == kinds.replace("a", "d").replace("x", "d"), (name, signature)
    # the scalars are the alpha and beta of the BLAS routines
    assert {name: kinds.count("x") for name, (_, kinds) in _ROUTINES.items()} == {
        "dpotrf": 0, "dpotri": 0, "dtrtri": 0, "dlauum": 0,
        "dtrsm": 1, "dsyrk": 2, "dgemm": 2, "dtrmm": 1}


def test_usable_cores_is_the_affinity_set_or_the_cpu_count(monkeypatch):
    import os

    from consensuslab.markov import _usable_cores

    assert _usable_cores() >= 1
    if hasattr(os, "sched_getaffinity"):
        assert _usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _usable_cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cores() == 1


def test_block_workers_follow_the_cores_and_the_blas_threads(monkeypatch):
    from consensuslab import markov

    for cores, blas, workers in ((1, 1, 1), (2, 1, 2), (8, 1, 2), (2, 2, 1), (1, 2, 1), (4, 2, 2)):
        monkeypatch.setattr(markov, "_usable_cores", lambda: cores)
        monkeypatch.setattr(markov, "_openblas_threads", lambda: blas)
        assert markov._workers() == workers
    monkeypatch.setattr(markov, "_openblas_threads", None)
    assert markov._workers() == 1


@pytest.mark.parametrize("count", [1, 2, 3])
def test_threads_claim_each_item_once_and_leave_no_thread_behind(count):
    # markov._Threads, the thread layer of the blocked passes and of the noise
    # draws: this thread and count - 1 pool threads, under a short switch
    # interval so that they interleave often
    import threading

    from consensuslab.markov import _Threads

    class Boom(Exception):
        pass

    caller = threading.current_thread()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    before = threading.enumerate()
    try:
        with _Threads(count) as threads:
            # every item is claimed exactly once, each claim by one thread
            parts = threads.run(list, range(500))
            assert len(parts) == count
            assert sorted(k for part in parts for k in part) == list(range(500))

            # start returns while the pool threads are already in their work:
            # each holds there until this thread, before finish(), meets it
            gate = threading.Barrier(count, timeout=10)

            def held(claimed):
                if threading.current_thread() is not caller:
                    gate.wait()
                return list(claimed)

            finish = threads.start(held, range(50))
            gate.wait()
            assert sorted(k for part in finish() for k in part) == list(range(50))

            # a pool thread's error comes out of finish() after the caller's
            # share, which claims every item the failed threads left
            raised, done = threading.Event(), []

            def failing(claimed):
                if threading.current_thread() is not caller:
                    raised.set()
                    raise Boom
                assert count == 1 or raised.wait(10)
                done.extend(claimed)

            finish = threads.start(failing, range(50))
            if count > 1:
                with pytest.raises(Boom):
                    finish()
            else:
                finish()
            assert done == list(range(50))
    finally:
        sys.setswitchinterval(interval)
    assert threading.enumerate() == before


@pytest.mark.parametrize("family, n, chain", [
    ("line", 321, "uniform"), ("two-star", 400, "uniform"), ("tree", 511, "lazy"),
    ("complete", 300, "lazy"),
])
def test_blocked_passes_do_not_depend_on_the_threads(family, n, chain, monkeypatch):
    # Z of P^2 (the held square of the two-star, the dense square of the
    # complete graph), its hitting residual, R and max R, on one thread and
    # on two: the same bits
    from consensuslab import markov

    results = []
    for workers in (1, 2):
        monkeypatch.setattr(markov, "_workers", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            P = (lazy_walk_matrix if chain == "lazy" else uniform_edge_matrix)(build_graph(family, n))
            Q = square_chain(P)
            Z, worst = Q._fundamental
            results.append((Z, worst, effective_resistance(Q), _max_resistance(Q)))
        finally:
            sys.setswitchinterval(interval)
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_column_blocked_hitting_residual_equals_the_full_product():
    # a sparse chain takes the residual column block by column block through
    # its sparse factors: its own CSR S, S Z[:, c], or for a squared chain
    # P's CSR F twice, F (F Z[:, c]); it must equal the residual of the full
    # product.  Z is perturbed so that the residual is far above rounding
    from consensuslab.markov import _hitting_residual

    rng = np.random.default_rng(5)
    ring = lazy_walk_matrix(ring_graph(300))
    two_star = uniform_edge_matrix(build_graph("two-star", 400))
    for Q, factors in ((ring, [ring._csr]),
                       (square_chain(ring), [ring._csr] * 2),
                       (square_chain(two_star), [two_star._csr] * 2)):
        assert len(Q._factors) == len(factors)
        assert all(F is G for F, G in zip(Q._factors, factors))
        pi = Q.stationary()
        Z = Q._fundamental[0] + 1e-6 * rng.standard_normal((Q.n, Q.n))
        R, slack = Z, np.ones(Q.n)
        for F in factors:
            R, slack = F @ R, F @ slack
        R -= Z
        R += (1.0 - slack)[:, None] * np.diag(Z)
        R /= pi
        R -= 1.0
        np.fill_diagonal(R, 0.0)
        assert _hitting_residual(Q, Z, pi) == np.abs(R).max() > 1e-6


@pytest.mark.parametrize("n", [300, 600])
@pytest.mark.parametrize("arc, flags", [
    pytest.param(None, False, id="lazy-directed-cycle"),
    pytest.param(1e-15, True, id="one-way-arc-1e-15"),  # inside both tolerances
    pytest.param(1e-9, False, id="one-way-arc-1e-9"),
])
@pytest.mark.parametrize("sparse_input", [False, True])
def test_flags_of_asymmetric_patterns_equal_the_brute_force_checks(n, arc, flags, sparse_input):
    # above 256 states the flags pass reads the columns of the CSR matrix
    # blockwise; symmetric and reversible must equal |E - E'| and the flux
    # check on the dense array, with pi from a plain LU solve.  The tree route
    # misses on all three chains, so reversible comes from the LU pi
    from scipy.sparse import csr_matrix

    if arc is None:  # the lazy directed cycle
        E = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)
    else:  # the uniform ring, with weight arc moved from P[0,0] onto the
        # arc 0 -> n/2, which has no reverse arc
        E = uniform_edge_matrix(ring_graph(n)).entries.copy()
        E[0, n // 2] += arc
        E[0, 0] -= arc
    P = StochasticMatrix(csr_matrix(E) if sparse_input else E)
    flux = _lu_referees(P)[0][:, None] * E
    symmetric = np.abs(E - E.T).max() <= tolerances.SYMMETRY_RTOL * max(1.0, E.max())
    balanced = np.abs(flux - flux.T).max() <= tolerances.REVERSIBILITY_RTOL * flux.max()
    assert P.symmetric == symmetric == flags
    assert P.reversible == balanced == flags


@st.composite
def sparse_chain_inputs(draw):
    """Triplets (rows, cols, values) of a chain, as a caller might pass them:
    unsorted, with duplicates and stored zeros, and a dense array E whose
    entries are exactly their sums.

    Most chains are reversible lazy walks on random symmetric weights around
    a ring; "one-way" moves weight a from P[u, u] onto an arc u -> v with no
    reverse arc, inside (1e-15) or outside (1e-6) REVERSIBILITY_RTOL, and
    "asymmetric" draws a general chain on a random pattern around a
    directed cycle.  Above 256 states a pass takes several row blocks, and
    a dense pattern several blocks of stored entries; a chain with a bad
    row has a row sum off by far more than ROW_SUM_TOL.
    """
    n = draw(st.sampled_from([1, 2, 3, 7, 255, 257, 600]))
    kind = draw(st.sampled_from(["reversible", "one-way", "asymmetric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_row = draw(st.sampled_from([1, 4, 120]))
    ring = np.arange(n), np.roll(np.arange(n), -1)
    extra = rng.integers(0, n, size=(2, n * per_row))
    A = np.zeros((n, n), dtype=bool)
    A[ring] = A[tuple(extra)] = True
    if kind != "asymmetric":
        W = np.where(A | A.T, rng.uniform(0.1, 2.0, (n, n)), 0.0)
        W = np.triu(W, 1) + np.triu(W, 1).T
        E = np.eye(n) if n == 1 else 0.5 * W / W.sum(axis=1, keepdims=True) + 0.5 * np.eye(n)
    else:
        W = np.where(A, rng.uniform(0.1, 2.0, (n, n)), 0.0)
        E = W / W.sum(axis=1, keepdims=True)
    if kind == "one-way" and n > 2:
        u, v = 0, n // 2 + 1
        a = draw(st.sampled_from([1e-15, 1e-6]))
        if E[v, u] == 0.0:
            E[u, v] += a
            E[u, u] -= a
    if draw(st.booleans()):
        E[n - 1, n - 1] += 1e-9  # a row sum off by 1e-9
    rows, cols = np.nonzero(E)
    values = E[rows, cols]
    # split some entries in two and store some zeros; the sums are exact
    split = rng.random(rows.size) < 0.3
    part = values[split] * 0.5
    values = values.copy()
    values[split] -= part
    zeros = rng.integers(0, n, size=(2, n))
    rows = np.concatenate([rows, rows[split], zeros[0]])
    cols = np.concatenate([cols, cols[split], zeros[1]])
    values = np.concatenate([values, part, np.zeros(n)])
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), values)
    order = rng.permutation(rows.size)
    return rows[order], cols[order], values[order], dense


def _dense_tree_stationary(E: np.ndarray) -> np.ndarray | None:
    """pi_j = pi_i E_ij / E_ji along the breadth-first tree of the dense array
    E, normalized; None where an arc has no reverse arc or pi degenerates."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    order, pred = breadth_first_order(csr_matrix(E), 0, directed=True, return_predecessors=True)
    child, parent = order[1:], pred[order[1:]]
    forth, back = E[parent, child], E[child, parent]
    if np.any(back <= 0):
        return None
    pi = [0.0] * E.shape[0]
    pi[0] = 1.0
    for j, i, r in zip(child.tolist(), parent.tolist(), (forth / back).tolist()):
        pi[j] = pi[i] * r
    pi = np.array(pi)
    if not (math.isfinite(pi.sum()) and pi.min() > 0):
        return None
    return pi / pi.sum()


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_chain_inputs(), st.sampled_from(["csr", "coo", "dense"]))
@example((np.array([0, 1]), np.array([1, 0]), np.ones(2), np.array([[0.0, 1.0], [1.0, 0.0]])),
         "csr")  # the flip chain: reversible and periodic
def test_stored_entry_checks_equal_the_dense_formulas(case, form):
    # validation, symmetric, reversible and pi read the stored entries in
    # O(nnz), each paired with its transposed entry, and B_s is built from the
    # stored entries alone; they must give exactly the verdicts, flags, pi
    # and Z of the same formulas on the dense array
    from scipy.sparse import coo_matrix, csr_matrix

    rows, cols, values, E = case
    n = E.shape[0]
    if form == "dense":
        given_input = E
    elif form == "coo":
        given_input = coo_matrix((values, (rows, cols)), shape=(n, n))
    else:  # rows in order, each row's entries unsorted
        by_row = np.argsort(rows, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        given_input = csr_matrix((values[by_row], cols[by_row], indptr), shape=(n, n))
    valid = np.abs(E.sum(axis=1) - 1.0).max() <= tolerances.ROW_SUM_TOL
    if not valid:
        with pytest.raises(InvalidParam, match="rows must sum to 1"):
            StochasticMatrix(given_input)
        return
    P = StochasticMatrix(given_input)
    assert np.array_equal(P.entries, E)
    assert P.symmetric == (np.abs(E - E.T).max() <= tolerances.SYMMETRY_RTOL * max(1.0, E.max()))
    assert P.irreducible

    def balanced(pi):
        flux = pi[:, None] * E
        return np.abs(flux - flux.T).max() <= tolerances.REVERSIBILITY_RTOL * flux.max()

    pi = _dense_tree_stationary(E)
    reversible = pi is not None and balanced(pi)
    if not reversible:  # the LU route, as the package solves it
        A = E.T - np.eye(n)
        A[-1] = 1.0
        pi = scipy.linalg.solve(A, np.eye(n)[-1])
        pi /= pi.sum()
        reversible = balanced(pi)
    assert P.reversible == reversible
    assert np.array_equal(P.stationary(), pi)
    # the Cholesky route builds B_s from the stored entries alone: of P^2,
    # whose Z gives Z of an aperiodic P, or of a periodic P itself
    if reversible and P.aperiodic:
        P2 = square_chain(P)
        Z2 = _whole_array_cholesky_z(P2.entries, pi)
        assert np.array_equal(P2._fundamental[0], Z2)
        assert np.array_equal(P._fundamental[0], _z_from_square(P, Z2))
    elif reversible:
        assert np.array_equal(P._fundamental[0], _whole_array_cholesky_z(E, pi))


def test_sweep_row_keeps_the_chain_and_its_square_sparse():
    from consensuslab.cli import _fill_row

    P = uniform_edge_matrix(build_graph("two-star", 300))
    row = {}
    _fill_row(row, P, NoiseCovariance.scalar(300, 1.0))
    assert row["max_resistance"] > 0
    # no dense entries were built, neither of P nor of P^2, and the dense
    # P^2 is held as P's CSR matrix, with no CSR matrix of its own
    Q = square_chain(P)
    assert P._dense is None and Q._dense is None
    assert Q._held is not None and "_csr" not in vars(Q)


def test_one_and_two_state_chains_from_sparse_and_dense_input():
    from scipy.sparse import coo_matrix, csr_matrix

    one = [StochasticMatrix(csr_matrix([[1.0]])), StochasticMatrix([[1.0]]),
           lazy_walk_matrix(line_graph(1)), uniform_edge_matrix(line_graph(1))]
    for P in one + [square_chain(P) for P in one]:
        assert P.irreducible and P.aperiodic and P.symmetric and P.reversible
        assert P.entries.tolist() == [[1.0]] and P.stationary().tolist() == [1.0]
        assert hitting_times(P).tolist() == [[0.0]]
        assert kemeny_constant_combinatorial(P) == 0.0

    half = np.full((2, 2), 0.5)
    # unsorted, with a duplicate and a stored zero: summed as the dense array
    messy = coo_matrix(([0.5, 0.25, 0.0, 0.5, 0.25, 0.5], ([1, 0, 1, 1, 0, 0], [1, 0, 0, 0, 0, 1])))
    unsorted = csr_matrix(([0.5, 0.5, 0.5, 0.0, 0.5], [1, 0, 1, 0, 0], [0, 2, 5]), shape=(2, 2))
    two = [StochasticMatrix(half), StochasticMatrix(csr_matrix(half)), StochasticMatrix(messy),
           StochasticMatrix(unsorted),
           lazy_walk_matrix(line_graph(2)), uniform_edge_matrix(line_graph(2))]
    for P in two:
        assert np.array_equal(P.entries, half)
        assert np.array_equal(P.stationary(), [0.5, 0.5])
        assert np.array_equal(P._fundamental[0], two[0]._fundamental[0])
        assert np.array_equal(square_chain(P).entries, half)

    for bad in (csr_matrix((1, 1)), csr_matrix([[1.5, -0.5], [0.5, 0.5]]), csr_matrix((2, 3))):
        with pytest.raises(InvalidParam):
            StochasticMatrix(bad)


def _kernel_chains():
    """The CSR matrices the kernel tests run on, by name."""
    from scipy.sparse import csr_array

    lazy = lazy_walk_matrix(build_graph("starry-line", 48))
    cycle = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.0, 0.75]])
    user = StochasticMatrix(csr_array((cycle[cycle > 0], np.nonzero(cycle)[1].astype(np.int64),
                                       np.array([0, 2, 4, 6], dtype=np.int64)), shape=(3, 3)))
    assert user._csr.indices.dtype == np.int64 and not user.symmetric
    chains = {
        "graph": lazy,
        "squared": square_chain(lazy),
        "dense-input": StochasticMatrix(_dense_walk(ring_graph(7), "uniform")),
        "user-int64-asymmetric": user,
        "one-state": StochasticMatrix([[1.0]]),
    }
    return {name: P._csr for name, P in chains.items()}


@pytest.mark.parametrize("name", list(_kernel_chains()))
def test_csr_kernels_equal_the_scipy_operators_they_replace(name):
    from consensuslab.markov import _csr_square, _lookup, _product, _transpose, _transposed_product

    S = _kernel_chains()[name]
    n = S.shape[0]
    rng = np.random.default_rng(n)
    x, X = rng.standard_normal(n), rng.standard_normal((n, 5))
    assert np.array_equal(_product(S, x), S @ x)
    assert np.array_equal(_product(S, X), S @ X)
    assert np.array_equal(_product(S, np.asfortranarray(X)), S @ np.asfortranarray(X))
    assert np.array_equal(_transposed_product(S, x), S.T @ x)
    rows, cols = (k.ravel() for k in np.indices((n, n)))  # stored entries and absent ones
    assert np.array_equal(_lookup(S, rows, cols), np.asarray(S[rows, cols]).ravel())
    assert _lookup(S, rows[:0], cols[:0]).shape == (0,)
    T = S.tocsc()
    for got, want in zip(_transpose(S), (T.indptr, T.indices, T.data)):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    C, want = _csr_square(S), S @ S
    want.sort_indices()
    assert type(C) is type(want)
    for got, ref in ((C.indptr, want.indptr), (C.indices, want.indices), (C.data, want.data)):
        assert np.array_equal(got, ref) and got.dtype == ref.dtype
    # canonical: indices strictly increasing within each row, no stored zero
    key = np.repeat(np.arange(n), np.diff(C.indptr)) * n + C.indices
    assert np.all(np.diff(key) > 0) and np.all(C.data != 0)
    assert C.indices.size == C.data.size == C.indptr[-1]


def _held_and_stored(P: StochasticMatrix) -> tuple[StochasticMatrix, StochasticMatrix]:
    """P^2 twice, as _square builds it: held as P's CSR matrix F, and stored
    as the CSR product of F, each with P's pi to check and F as its factors."""
    from consensuslab.markov import _csr_square

    F = P._csr
    pair = (StochasticMatrix(None, _factor=F), StochasticMatrix(_csr_square(F), _owned=True))
    for Q in pair:
        Q._squared, Q._pi_hint, Q._factors = True, P.stationary(), (F, F)
    return pair


def _assert_strips_are_the_product(P: StochasticMatrix) -> None:
    """The strips of F F by columns and by rows (F = P's CSR matrix), the
    row blocks and row sums of P^2 held as F, and the checks of its pi,
    against the CSR product of F, bit for bit."""
    from consensuslab.markov import _csr_square, _product, _square_strips, _transpose

    F, n = P._csr, P.n
    C = _csr_square(F)
    by_cols, sums = C.tocsc(), _product(C, np.ones(n))
    Ft = _transpose(F)
    seen = 0
    # block by block, against the same slice of the product's entries
    for (c, cols), (r, rows) in zip(_square_strips(F, Ft), _square_strips(Ft, F)):
        assert c == r and cols.flags.c_contiguous and rows.flags.c_contiguous
        assert np.array_equal(cols, by_cols[:, c].toarray())
        assert np.array_equal(rows, C[c].toarray().T)
        # validation sums the rows down the strips, in the order csr_matvec does
        assert np.array_equal(rows.sum(axis=0), sums[c])
        seen += c.stop - c.start
    assert seen == n
    held, stored = _held_and_stored(P)
    # C-ordered row blocks: a row's sum depends on the layout it is read in
    seen = 0
    for b, block in held._rows():
        assert block.flags.c_contiguous and np.array_equal(block, C[b].toarray())
        seen += b.stop - b.start
    assert seen == n
    assert held._stationary[1:] == stored._stationary[1:]


@pytest.mark.parametrize("family", builtin_families())
def test_strips_of_a_square_hold_its_csr_product(family):
    # every graph chain at the benchmark's sizes, lazy and uniform: the
    # strips csr_matvecs reads off P's CSR matrix and its transpose are the
    # entries csr_matmat stores, and the zeros it does not
    for n in BENCH_SIZES[family]:
        g = build_graph(family, n, seed=1, p=0.2, degree=3)
        for chain in (lazy_walk_matrix, uniform_edge_matrix):
            _assert_strips_are_the_product(chain(g))


def _dense_square_chains() -> dict[str, StochasticMatrix]:
    """Sparse, irreducible and aperiodic chains with dense squares, by name:
    two reversible graph chains and two that are not reversible."""
    from scipy.sparse import csr_matrix

    n = 300
    rng = np.random.default_rng(11)
    # a lazy directed cycle whose states also step to state 0, which steps
    # anywhere: an asymmetric pattern
    i = np.arange(1, n)
    tails = np.concatenate([np.zeros(n, int), i, i, i])
    heads = np.concatenate([np.arange(n), i, (i + 1) % n, np.zeros(n - 1, int)])
    values = np.concatenate([np.full(n, 1.0 / n), np.full(n - 1, 0.25), np.full(n - 1, 0.25),
                             np.full(n - 1, 0.5)])
    cycle = csr_matrix((values, (tails, heads)), shape=(n, n))
    # random weights both ways on the star and the ring of its leaves: a
    # symmetric pattern whose cycles break detailed balance
    star = build_graph("star", n)
    ring = np.stack([i, i % (n - 1) + 1], axis=1)
    e = np.concatenate([star.edges, ring])
    W = csr_matrix((rng.uniform(0.5, 2.0, 2 * len(e)), (np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]])),
                   shape=(n, n))
    W = W.multiply(1.0 / W.sum(axis=1)).tocsr() * 0.5
    weighted = W + 0.5 * csr_matrix(np.eye(n))
    return {
        "two-star": uniform_edge_matrix(build_graph("two-star", n)),
        "starry-line": lazy_walk_matrix(build_graph("starry-line", n)),
        "hub-and-directed-cycle": StochasticMatrix(cycle),
        "weighted-star-and-ring": StochasticMatrix(weighted),
    }


@pytest.mark.parametrize("name", list(_dense_square_chains()))
def test_a_dense_square_is_held_as_its_factor(name):
    # a sparse, irreducible and aperiodic chain with a dense square holds it
    # as its own CSR matrix: the square's flags come from P, and its pi
    # checks, Z, K and hitting residual are those of the stored product bit
    # for bit, the Cholesky route's on the graph chains and LU's otherwise
    P = _dense_square_chains()[name]
    assert P._factors is not None and P.irreducible and P.aperiodic
    Q = square_chain(P)
    assert Q._held is not None and Q._held[0] is P._csr and Q._factors == (P._csr,) * 2
    assert Q.irreducible and Q.aperiodic
    assert Q.reversible == P.reversible == (name in ("two-star", "starry-line"))
    held, stored = _held_and_stored(P)
    assert held._stationary[1:] == stored._stationary[1:]
    assert np.array_equal(Q._fundamental[0], stored._fundamental[0])
    assert Q._fundamental[1] == stored._fundamental[1]
    assert np.array_equal(P._fundamental[0], _z_from_square(P, stored._fundamental[0]))
    _assert_strips_are_the_product(P)
    # only the LU route reads the entries, which are then the CSR product's
    assert ("_csr" in vars(Q)) == (not Q.reversible)
    assert np.array_equal(Q.entries, stored.entries)


def test_analyze_and_sweep_build_two_sparse_matrices(monkeypatch):
    """One analyze, and one sweep row, build the chain's CSR matrix and, for
    a sparse square, its square's, and no other compressed sparse matrix:
    every other pass runs scipy's CSR kernels on those two.  A dense square
    is held as the chain's matrix, so a two-star run builds only that."""
    from scipy.sparse import _compressed

    built = []
    init = _compressed._cs_matrix.__init__

    def counted(self, *args, **kw):
        built.append(type(self).__name__)
        init(self, *args, **kw)

    monkeypatch.setattr(_compressed._cs_matrix, "__init__", counted)
    for argv, count in ((["analyze", "--family", "ring", "--n", "16"], 2),
                        (["sweep", "--family", "ring", "--n-list", "256"], 2),
                        (["analyze", "--family", "two-star", "--n", "200", "--chain", "uniform"], 1),
                        (["sweep", "--family", "two-star", "--n-list", "400", "--chain", "uniform"], 1)):
        built.clear()
        code, _, err = run_main(*argv)
        assert code == 0, err
        assert len(built) == count, (argv, built)


@st.composite
def reversible_chains(draw):
    n = draw(st.integers(1, 10))
    # half the draws take conductances from 1e-6 to 1: pi_max/pi_min up to ~1e6
    log10_range = draw(st.sampled_from([None, (-6.0, 0.0)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_reversible_chain(rng, n, log10_range), rng


@settings(max_examples=150, deadline=None, database=None)
@given(reversible_chains())
@example((StochasticMatrix([[1.0]]), np.random.default_rng(0)))
@example((StochasticMatrix([[0.5, 0.5], [1e-6, 1 - 1e-6]]), np.random.default_rng(0)))
def test_reversible_route_agrees_with_the_general_routes(case):
    P, rng = case
    assert P.reversible
    pi = P.stationary()
    pi_lu = _lu_referees(P)[0]
    assert np.abs(pi - pi_lu).max() <= 1e-10 * pi.max()
    P2 = square_chain(P)
    assert P2.reversible and P2.stationary() is pi  # inherited, not solved again
    for Q in (P, P2):
        _agrees_with_per_target(Q)
    noise = NoiseCovariance.diagonal(rng.uniform(0.25, 4.0, P.n))
    # the theorem's hitting-time form with H(P^2) per target.  With
    # conductances spread over 1e-6..1 the referee's LU solves are the less
    # accurate side: on the worst of 5,000 draws they were 6.3e-13 from exact
    # rational arithmetic and the Z-form 5.8e-15, and one draw in 20,000 put
    # the two more than 1e-12 apart, so the bound leaves the referee room
    ref = hitting_time_delta(P, noise)
    assert abs(delta_ss_theorem(P, noise).delta_ss - ref) <= 1e-10 * (1.0 + ref)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(3, 10), st.integers(0, 2**32 - 1))
def test_nonreversible_chain_takes_the_lu_route(n, seed):
    # dense random rows: irreducible and aperiodic, and almost surely not reversible
    a = np.random.default_rng(seed).uniform(0.1, 1.0, (n, n))
    P = StochasticMatrix(a / a.sum(axis=1, keepdims=True))
    assert P.irreducible and not P.reversible
    assert np.abs(P.stationary() - _lu_referees(P)[0]).max() <= 1e-12
    _agrees_with_per_target(P)


def _kemeny_p2_analytic(n: int, theta_step: float) -> tuple[float, float]:
    """sum_k 1/(1 - lambda_k^2) over lambda_k = (1 + cos(k theta_step)) / 2,
    k = 1..n-1, and the smallest 1 - lambda_k^2; each 1 - lambda_k is taken
    as sin^2(k theta_step / 2), without cancellation."""
    gaps = [math.sin(k * theta_step / 2) ** 2 for k in range(1, n)]
    gaps2 = [g * (2.0 - g) for g in gaps]
    return math.fsum(1.0 / g for g in gaps2), min(gaps2)


def test_reversible_route_accuracy_against_exact_values():
    g = build_graph("starry-line", 1152)
    pi = lazy_walk_matrix(g).stationary()
    assert np.abs(pi - degree_stationary(g)).max() <= 1e-14  # LU pi was 5.1e-10 off
    # K(P^2) against the spectra of the lazy ring and the uniform path (both
    # lambda = (1 + cos theta) / 2).  Any dense solve sits at the rounding
    # floor u / (1 - lambda_2^2): 5.8e-12 and 3.2e-11 here.  Measured errors
    # move with the BLAS blocking (1 thread: 2.8e-13 and 1.1e-12, 2 threads:
    # 1.1e-12 and 9.6e-12; the LU route: 4.4e-13 and 9.2e-12, 5.8e-13 and 4.7e-12)
    u = np.finfo(float).eps / 2
    for P, (exact, gap) in (
        (lazy_walk_matrix(ring_graph(1024)), _kemeny_p2_analytic(1024, 2 * math.pi / 1024)),
        (uniform_edge_matrix(line_graph(1200)), _kemeny_p2_analytic(1200, math.pi / 1200)),
    ):
        K = kemeny_constant_combinatorial(square_chain(P))
        assert abs(K - exact) <= u / gap * exact


def _ring_walk(n: int, a: float) -> StochasticMatrix:
    """The walk on a ring of n states with a to each neighbour and 1 - 2a to
    stay, as a dense array: row sums of exactly 1 for a in [1/4, 1/2]."""
    shift = np.roll(np.eye(n), 1, axis=1)
    return StochasticMatrix((1.0 - 2.0 * a) * np.eye(n) + a * (shift + shift.T))


def _versine(x):
    """1 - cos x as 2 sin^2(x / 2), in mpmath."""
    return 2 * mpmath.sin(x / 2) ** 2


# K(P) = sum over k = 1..n-1 of 1 / (1 - lambda_k), from each chain's
# analytic spectrum, against Z(P) read off Z(P^2).  measured: the largest
# relative error at one and at two BLAS threads; each bound is three times it,
# room for other thread counts and LAPACK builds
@pytest.mark.parametrize("chain, gap, measured", [
    pytest.param(lambda: lazy_walk_matrix(ring_graph(200)),
                 lambda k: _versine(2 * mpmath.pi * k / 200) / 2, 6.6e-14, id="lazy-ring200"),
    pytest.param(lambda: uniform_edge_matrix(line_graph(200)),
                 lambda k: _versine(mpmath.pi * k / 200) / 2, 5.4e-14, id="uniform-line200"),
    # aperiodic but close to periodic: lambda_min = -cos(pi / 201)
    pytest.param(lambda: simple_walk_matrix(ring_graph(201)),
                 lambda k: _versine(2 * mpmath.pi * k / 201), 2.6e-14, id="simple-ring201"),
    # 1 - eps on the neighbours of an even ring: 1 - lambda_min^2 is about 4 eps
    *(pytest.param(lambda a=(1 - eps) / 2: _ring_walk(200, a),
                   lambda k, a=(1 - eps) / 2: 2 * mpmath.mpf(a) * _versine(2 * mpmath.pi * k / 200),
                   measured, id=f"eps-lazy-ring200-{eps:g}")
      for eps, measured in ((1e-2, 3.2e-14), (1e-4, 5.4e-14), (1e-6, 4.7e-14))),
])
def test_kemeny_read_off_the_square_matches_the_analytic_spectrum(chain, gap, measured):
    P = chain()
    assert P.aperiodic  # so Z comes from Z(P^2)
    with mpmath.workdps(40):
        exact = mpmath.fsum(1 / gap(k) for k in range(1, P.n))
        err = abs(mpmath.mpf(kemeny_constant_combinatorial(P)) - exact) / exact
    assert err <= 3 * measured, f"{float(err):.2e}"


@pytest.mark.parametrize("family, n, measured", [
    ("ring", 9, 6.2e-16), ("line", 8, 8.7e-16), ("star", 7, 4.8e-16), ("tree", 15, 5.3e-16),
    ("grid", 16, 4.3e-16), ("two-star", 10, 6.9e-16), ("starry-line", 12, 1.8e-15),
])
def test_z_read_off_the_square_matches_the_exact_rational_z(family, n, measured):
    # Z(P) of the lazy walk entry by entry against Gauss-Jordan in Fractions;
    # measured: the largest error over the largest |Z_ij| at one and at two
    # BLAS threads, and the bound is four times it
    g = build_graph(family, n)
    Z = lazy_walk_matrix(g)._fundamental[0]
    exact = [x for row in exact_lazy_z(g)[0] for x in row]
    err = max(abs(Fraction(z) - x) for z, x in zip(Z.ravel().tolist(), exact))
    assert err <= 4 * measured * max(map(abs, exact))


def test_stationary_two_state_hand_value():
    P = StochasticMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]))
    np.testing.assert_allclose(P.stationary(), [2 / 3, 1 / 3], rtol=0, atol=1e-14)


def test_stationary_residual_tolerance_holds_after_caching(monkeypatch):
    # the lazy star's pi = d/2m leaves a rounding residual; the lazy ring's
    # pi = 1/8 is exact, and a zero residual passes even a zero tolerance
    P = lazy_walk_matrix(star_graph(6))
    P.stationary()
    assert P._stationary[1] > 0.0
    monkeypatch.setattr(tolerances, "STATIONARY_RESIDUAL_TOL", 0.0)
    with pytest.raises(SingularSystem):
        P.stationary()


def test_lazy_walk_stationary_is_degree_proportional():
    for fam in ("line", "star", "two-star", "tree"):
        n = nearest_valid_size(fam, 15)
        g = build_graph(fam, n)
        P = lazy_walk_matrix(g)
        np.testing.assert_allclose(
            P.stationary(), degree_stationary(g), rtol=0, atol=1e-12
        )


def test_uniform_edge_matrix_is_symmetric_everywhere():
    for fam in ("line", "star", "tree", "ring", "complete"):
        n = nearest_valid_size(fam, 15)
        P = uniform_edge_matrix(build_graph(fam, n))
        assert P.symmetric
        assert P.aperiodic
    # and it coincides with the lazy walk exactly on regular graphs
    g = ring_graph(9)
    np.testing.assert_array_equal(
        uniform_edge_matrix(g, eps=0.25).entries, lazy_walk_matrix(g).entries
    )
    with pytest.raises(InvalidParam):
        uniform_edge_matrix(star_graph(5), eps=0.3)  # eps >= 1/dmax


def test_two_state_hitting_times_hand_value():
    P = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(hitting_times(P), [[0, 2], [2, 0]], atol=1e-12)


def test_hitting_times_match_monte_carlo():
    rng = np.random.default_rng(42)
    P = lazy_walk_matrix(star_graph(5))
    H = hitting_times(P)
    # leaf -> center and center -> leaf, sampled from scratch
    mc_c = mc_first_passage(P, 1, 0, rng, trials=3000)
    mc_l = mc_first_passage(P, 0, 1, rng, trials=3000)
    assert abs(mc_c - H[1, 0]) < 0.15 * H[1, 0]
    assert abs(mc_l - H[0, 1]) < 0.15 * H[0, 1]


def test_hitting_defining_equation_on_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        P = random_reversible_chain(rng, n)
        H = hitting_times(P)
        E = P.entries
        # H = P H + 11' off the diagonal, and H_ii = 0
        resid = H - (E @ H + np.ones((n, n)))
        resid[np.diag_indices(n)] = 0.0
        assert np.abs(resid).max() < 1e-9 * n
        assert np.abs(np.diag(H)).max() == 0.0


def test_per_target_and_fundamental_routes_agree():
    rng = np.random.default_rng(3)
    chains = [
        random_reversible_chain(rng, 40),
        uniform_edge_matrix(line_graph(200)),
        lazy_walk_matrix(build_graph("starry-line", 192)),
        lazy_walk_matrix(build_graph("tree", 127)),
        uniform_edge_matrix(build_graph("two-star", 200)),
    ]
    for P in chains:
        for Q in (P, square_chain(P)):
            H1 = per_target_hitting_times(Q)
            H2 = hitting_times(Q)
            assert np.abs(H1 - H2).max() <= 1e-10 * H1.max()


def test_squared_chain_and_hitting_matrix_are_computed_once():
    P = lazy_walk_matrix(ring_graph(8))
    assert square_chain(P) is square_chain(P)
    H = hitting_times(P)
    assert hitting_times(P) is H
    assert not H.flags.writeable


def test_hitting_residual_tolerance_holds_after_caching(monkeypatch):
    P = lazy_walk_matrix(ring_graph(8))
    hitting_times(P)
    monkeypatch.setattr(tolerances, "HITTING_RESIDUAL_TOL", 0.0)
    with pytest.raises(SingularSystem):
        hitting_times(P)


def test_lazy_complete3_hitting_and_kemeny_hand_values():
    # lazy walk on K3: off-diagonal hitting times all 4, K = 2*4/3 = 8/3
    P = lazy_walk_matrix(complete_graph(3))
    H = hitting_times(P)
    np.testing.assert_allclose(H, 4 * (1 - np.eye(3)), atol=1e-12)
    K = kemeny_constant_combinatorial(P)
    np.testing.assert_allclose(K, 8 / 3, atol=1e-12)


def test_kemeny_combinatorial_vs_spectral():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        P = random_reversible_chain(rng, n)
        Kc = kemeny_constant_combinatorial(P)
        Ks = kemeny_constant_spectral(P)
        assert abs(Kc - Ks) < 1e-8 * (1 + Kc)


def test_kemeny_spectral_general_route_on_nonreversible():
    # lazy directed 3-cycle: irreducible, aperiodic, not reversible
    P = StochasticMatrix(np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]))
    Kc = kemeny_constant_combinatorial(P)
    Ks = kemeny_constant_spectral(P)
    assert abs(Kc - Ks) < 1e-8 * (1 + Kc)


def _spectrum_test_chains():
    rng = np.random.default_rng(2)
    return [
        lazy_walk_matrix(ring_graph(8)),          # symmetric
        lazy_walk_matrix(star_graph(6)),          # reversible, not symmetric
        random_reversible_chain(rng, 20),
        StochasticMatrix(np.array([               # not reversible
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
        ])),
        StochasticMatrix([[1.0]]),
    ]


def test_rho_is_the_spectral_radius_of_p_minus_j():
    for P in _spectrum_test_chains():
        assert P.nonunit_spectrum.shape == (P.n - 1,)
        M = P.entries - np.outer(np.ones(P.n), P.stationary())
        assert abs(P.rho - np.abs(np.linalg.eigvals(M)).max()) <= 1e-13
    assert kemeny_constant_spectral(StochasticMatrix([[1.0]])) == 0.0


def test_spectrum_is_solved_once_per_chain(monkeypatch):
    from consensuslab.disagreement import (
        NoiseCovariance,
        check_j_properties,
        delta_oracle,
        delta_ss_spectral,
    )
    from consensuslab.simulate import auto_burn_in

    calls = []
    for name in ("eigvals", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _solver=solver: calls.append(1) or _solver(a))
    for P in _spectrum_test_chains():
        calls.clear()
        kemeny_constant_spectral(P)
        delta_oracle(P, NoiseCovariance.scalar(P.n, 1.0))
        auto_burn_in(P)
        check_j_properties(P)
        if P.symmetric:
            delta_ss_spectral(P, 1.0)
        assert len(calls) == 1
        assert P.nonunit_spectrum is P.nonunit_spectrum
        assert not P.nonunit_spectrum.flags.writeable


def test_lazy_halves_the_simple_walk_speed():
    # P = (I + W)/2 doubles every hitting time of the simple walk W
    for fam, n in (("complete", 9), ("ring", 9), ("two-star", 9)):
        g = build_graph(fam, n)
        Hs = hitting_times(simple_walk_matrix(g))
        Hl = hitting_times(lazy_walk_matrix(g))
        off = ~np.eye(n, dtype=bool)
        assert np.abs(Hl[off] / Hs[off] - 2.0).max() < 1e-8


def test_effective_resistance_properties():
    rng = np.random.default_rng(5)
    P = random_reversible_chain(rng, 12)
    R = effective_resistance(P)
    H = hitting_times(P)
    np.testing.assert_array_equal(R, H + H.T)  # exact, by construction
    assert np.abs(np.diag(R)).max() == 0.0
    assert R.min() >= 0.0

    nonrev = StochasticMatrix(np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]))
    with pytest.raises(NotReversible):
        effective_resistance(nonrev)


@pytest.mark.parametrize("family, n", [("line", 300), ("two-star", 400)])
def test_resistance_is_exact_above_one_row_block(family, n):
    # above 256 states both resistance readers take several row blocks, and
    # the maximum reads only the i >= j triangle; R is H + H' bit for bit
    P = square_chain(uniform_edge_matrix(build_graph(family, n)))
    R = effective_resistance(P)
    H = hitting_times(P)
    assert np.array_equal(R, H + H.T)
    assert _max_resistance(P) == R.max() > 0


def test_square_chain_and_periodicity_guard():
    P = simple_walk_matrix(ring_graph(8))
    P2 = square_chain(P)
    assert not P2.irreducible  # bipartite squares split into the two classes
    with pytest.raises(NotIrreducible):
        hitting_times(P2)
    # lazy square is fine
    L2 = square_chain(lazy_walk_matrix(ring_graph(8)))
    assert L2.irreducible and L2.aperiodic


def test_reducible_chain_rejected_by_hitting():
    P = StochasticMatrix(np.eye(3))
    with pytest.raises(NotIrreducible):
        hitting_times(P)


def test_stationary_distribution_weight_on_hubs():
    g = star_graph(9)
    pi = lazy_walk_matrix(g).stationary()
    assert pi[0] == pytest.approx(0.5, abs=1e-12)  # hub carries half the mass
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)

