"""Shared builders for randomized tests, and the in-process CLI runner.

Everything takes an explicit ``numpy.random.Generator`` so each test
controls its own seed; nothing here touches global RNG state.
"""

import contextlib
import io
import os
import tracemalloc

import numpy as np

import consensuslab
from consensuslab import cli
from consensuslab.graphs import Graph, _family_key, custom_graph, erdos_renyi_graph
from consensuslab.markov import StochasticMatrix


# the benchmark's graph sizes per family; "random" there is a custom edge
# list, so the random families take sizes of their own
BENCH_SIZES = {
    "complete": (8, 200),
    "line": (32, 200, 300, 700, 1200),
    "ring": (32, 64, 200, 256, 640, 1024),
    "star": (8, 127),
    "two-star": (40, 200, 400, 900, 1600),
    "starry-line": (48, 192, 288, 576, 1152),
    "grid": (256, 576, 1024),
    "tree": (63, 127, 255, 511, 1023),
    "erdos-renyi": (48, 120, 160),
    "random-regular": (48, 120, 160),
}


def nearest_valid_size(family: str, n: int, *, dim: int = 2) -> int:
    """Snap a target size to the family's nearest structurally valid n.

    Useful for sweeps; the builders themselves never round.
    """
    key = _family_key(family)
    if key == "starry-line":
        return max(3, 3 * round(n / 3))
    if key == "grid":
        side = max(1, round(n ** (1.0 / dim)))
        return side ** dim
    if key == "tree":
        h = max(1, round(np.log2(n + 1)))
        return 2 ** h - 1
    if key == "ring":
        return max(3, n)
    return n


def adjacency(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    """A connected Erdos-Renyi draw with p comfortably above the threshold."""
    if n == 1:
        return custom_graph(1, [])
    if n == 2:
        return custom_graph(2, [(0, 1)])
    p = min(1.0, 2.5 * np.log(n) / n + 0.2)
    return erdos_renyi_graph(n, p, seed=int(rng.integers(2**31)))


def random_reversible_chain(
    rng: np.random.Generator, n: int, log10_range: tuple[float, float] | None = None
) -> StochasticMatrix:
    """Random-conductance lazy walk: reversible, aperiodic, irreducible.

    Positive symmetric weights w_ij on the edges of a random connected
    graph; P_ij = w_ij / (2 W_i) off-diagonal with 1/2 staying put, which
    is reversible for pi_i = W_i / sum(W).  The weights are uniform on
    [0.2, 2], or 10^u with u uniform on ``log10_range`` when it is given.
    """
    g = random_connected_graph(rng, n)
    W = np.zeros((n, n))
    for i, j in g.edges:
        if log10_range is None:
            w = rng.uniform(0.2, 2.0)
        else:
            w = 10.0 ** rng.uniform(*log10_range)
        W[i, j] = W[j, i] = w
    if n == 1:
        return StochasticMatrix(np.array([[1.0]]))
    row = W.sum(axis=1)
    P = W / (2.0 * row[:, None])
    P[np.diag_indices(n)] += 0.5
    return StochasticMatrix(P)


def reversible_pi(P: StochasticMatrix) -> np.ndarray:
    return P.stationary()


def random_psd_covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    """A generic strictly positive-definite covariance with O(1) entries."""
    A = rng.normal(size=(n, n))
    S = A @ A.T / n
    S += 0.05 * np.eye(n)
    return 0.5 * (S + S.T)


def mc_first_passage(
    P: StochasticMatrix,
    start: int,
    target: int,
    rng: np.random.Generator,
    trials: int = 4000,
    cap: int = 100000,
) -> float:
    """Monte Carlo mean first-passage time, a from-scratch hitting oracle.

    Samples full trajectories with searchsorted on the cumulative rows, so
    it shares no code path with the linear-algebra hitting solvers.
    """
    cum = np.cumsum(P.entries, axis=1)
    total = 0
    for _ in range(trials):
        state = start
        steps = 0
        while state != target:
            state = int(np.searchsorted(cum[state], rng.random(), side="right"))
            steps += 1
            if steps >= cap:
                raise RuntimeError("first-passage sample exceeded the step cap")
        total += steps
    return total / trials


def run_main(*argv) -> tuple[int, str, str]:
    """Run ``consensuslab.cli.main`` on ``argv`` in this process.

    Returns (exit code, stdout, stderr).  Arguments are passed as strings,
    as a shell would; argparse's ``SystemExit`` (a bad flag, ``--help``)
    becomes its exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def traced_peak(fn) -> int:
    """The peak of the memory traced by ``tracemalloc`` while ``fn()`` runs,
    in bytes above what was allocated before it.

    numpy and scipy report their array buffers to ``tracemalloc``, so this
    counts the arrays a call holds at once; memory that BLAS or LAPACK
    allocate for themselves is not seen.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def package_env() -> dict:
    """The environment with the tested package's root on PYTHONPATH, for
    subprocesses."""
    pkg_root = os.path.dirname(os.path.dirname(consensuslab.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))}
