"""Finite Markov-chain analytics: stationary laws, hitting times, Kemeny
constants, and effective resistances.

The central object is :class:`StochasticMatrix`, a validated row-stochastic
matrix that computes each per-chain quantity at most once: its structural
flags (irreducible, aperiodic, symmetric, reversible), stationary law,
non-unit spectrum, squared chain and hitting times.  Chains built from
graphs come in three flavors:

* ``simple_walk_matrix``: P[i,j] = 1/d(i) on edges.  On a bipartite graph
  this walk is periodic, so quantities that need aperiodicity will refuse it.
* ``lazy_walk_matrix``: (1/2) I + (1/2) simple walk.  Its stationary law has
  the closed form pi_i = d(i) / (2m).
* ``uniform_edge_matrix``: weight eps on every edge (default 1/(2 max
  degree)) and 1 - eps*d(i) on the diagonal.  Symmetric for every graph, and
  identical to the lazy walk on regular graphs.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.linalg

from . import tolerances as tol
from .errors import (
    DisconnectedGraph,
    EigSolverFailure,
    InvalidParam,
    NotIrreducible,
    NotReversible,
    RandomTargetViolation,
    SingularSystem,
)
from .graphs import Graph, _bfs_levels, is_connected

__all__ = [
    "StochasticMatrix",
    "simple_walk_matrix",
    "lazy_walk_matrix",
    "uniform_edge_matrix",
    "degree_stationary",
    "hitting_times",
    "square_chain",
    "kemeny_constant_combinatorial",
    "kemeny_constant_spectral",
    "effective_resistance",
]


class StochasticMatrix:
    """A validated row-stochastic matrix that owns every per-chain quantity.

    The structural flags, the stationary law, the non-unit spectrum, the
    squared chain and the fundamental-route hitting times are each computed
    at most once per matrix and cached with it.  The stationary law and
    the hitting times keep their residuals, so every call still checks them
    against the constants of ``tolerances``.

    Parameters
    ----------
    entries : array_like, shape (n, n)
        Nonnegative entries with each row summing to 1 within
        ``tolerances.ROW_SUM_TOL``.  The array is copied and frozen.
    """

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParam(f"transition matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidParam("transition matrix must be at least 1x1")
        if np.any(arr < 0):
            raise InvalidParam("transition matrix has negative entries")
        rs = arr.sum(axis=1)
        worst = np.abs(rs - 1.0).max()
        if worst > tol.ROW_SUM_TOL:
            raise InvalidParam(
                f"rows must sum to 1 within {tol.ROW_SUM_TOL:g} (worst deviation {worst:.3e})"
            )
        arr.setflags(write=False)
        self._entries = arr

    # -- basic access -------------------------------------------------

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._entries.astype(dtype)
        return self._entries

    def __repr__(self) -> str:
        return f"StochasticMatrix(n={self.n})"

    # -- structural flags (lazy, cached) ------------------------------

    @cached_property
    def irreducible(self) -> bool:
        # imported on first use: csgraph loads scipy.sparse.linalg, and
        # loading it with the package raised a CLI run's peak RSS by 0.9 MB
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        ncomp, _ = connected_components(
            csr_matrix(self._entries > 0), directed=True, connection="strong"
        )
        return ncomp == 1

    @cached_property
    def aperiodic(self) -> bool:
        """True iff irreducible with period 1 (single-state chains count).

        A self-loop is a cycle of length 1.  Otherwise the period is the gcd
        of level[u] + 1 - level[v] over the arcs u -> v, with the levels of
        one breadth-first search from state 0.
        """
        if not self.irreducible:
            return False
        if np.any(np.diag(self._entries) > 0):
            return True
        arcs = list(zip(*(ix.tolist() for ix in np.nonzero(self._entries > 0))))
        level = _bfs_levels(self.n, arcs)
        return math.gcd(*(level[u] + 1 - level[v] for u, v in arcs)) == 1

    @cached_property
    def symmetric(self) -> bool:
        a = self._entries
        scale = max(1.0, float(np.abs(a).max()))
        return float(np.abs(a - a.T).max()) <= tol.SYMMETRY_RTOL * scale

    @cached_property
    def reversible(self) -> bool:
        """Detailed balance pi_i P_ij = pi_j P_ji within tolerance."""
        if not self.irreducible:
            return False
        pi = self.stationary()
        flux = pi[:, None] * self._entries
        scale = float(flux.max())
        return float(np.abs(flux - flux.T).max()) <= tol.REVERSIBILITY_RTOL * scale

    # -- stationary law ------------------------------------------------

    def stationary(self) -> np.ndarray:
        """Stationary distribution of an irreducible chain.

        Solved once as the linear system (P' - I) pi = 0 with one equation
        replaced by the normalization, and checked for positivity.  The
        residual ``||pi' P - pi'||_inf`` is cached with pi, so every call
        checks it against ``tolerances.STATIONARY_RESIDUAL_TOL``.  Read-only.
        """
        pi, resid = self._stationary
        if resid > tol.STATIONARY_RESIDUAL_TOL:
            raise SingularSystem(
                f"stationary residual {resid:.3e} exceeds {tol.STATIONARY_RESIDUAL_TOL:g}"
            )
        return pi

    @cached_property
    def _stationary(self) -> tuple[np.ndarray, float]:
        """pi and its residual ||pi' P - pi'||_inf (before normalization)."""
        if not self.irreducible:
            raise NotIrreducible("stationary distribution needs an irreducible chain")
        n = self.n
        if n == 1:
            return np.ones(1), 0.0
        # (P' - I) pi = 0 with one row traded for the normalization sum(pi) = 1
        A = self._entries.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi = scipy.linalg.solve(A, b)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystem(f"stationary solve failed: {exc}") from exc
        resid = float(np.abs(pi @ self._entries - pi).max())
        if pi.min() <= 0:
            raise SingularSystem("stationary solve produced non-positive mass")
        pi /= pi.sum()
        pi.setflags(write=False)
        return pi, resid

    # -- spectrum --------------------------------------------------------

    @cached_property
    def nonunit_spectrum(self) -> np.ndarray:
        """The n - 1 eigenvalues of P other than its unit eigenvalue.

        A symmetric P goes to the symmetric eigensolver as it is, a
        reversible one as D^{1/2} P D^{-1/2} with D = diag(pi) (the same
        spectrum, real and stably computed); everything else goes to the
        general solver and may come back complex.  The eigenvalue nearest
        1 is dropped once it is checked to lie within UNIT_EIGENVALUE_TOL
        of 1.  Read-only; empty for a single state.
        """
        if not self.irreducible:
            raise NotIrreducible("the spectrum is taken of irreducible chains only")
        E = self._entries
        try:
            if self.symmetric:
                lam = np.linalg.eigvalsh(E)
            elif self.reversible:
                s = np.sqrt(self.stationary())
                S = (s[:, None] * E) / s[None, :]
                lam = np.linalg.eigvalsh(0.5 * (S + S.T))
            else:
                lam = np.linalg.eigvals(E)
        except np.linalg.LinAlgError as exc:
            raise EigSolverFailure(f"eigenvalue solve failed: {exc}") from exc
        # exactly one unit eigenvalue for an irreducible chain; drop it
        drop = int(np.argmin(np.abs(lam - 1.0)))
        if abs(lam[drop] - 1.0) > tol.UNIT_EIGENVALUE_TOL:
            raise EigSolverFailure(
                f"no eigenvalue close to 1 (nearest {lam[drop]!r}); spectrum unusable"
            )
        rest = np.delete(lam, drop)
        rest.setflags(write=False)
        return rest

    @property
    def rho(self) -> float:
        """Spectral radius of P - 1 pi': the largest |lambda| over the
        non-unit spectrum, or 0 for a single state."""
        lam = self.nonunit_spectrum
        return float(np.abs(lam).max()) if lam.size else 0.0

    # -- squared chain and hitting times ----------------------------------

    @cached_property
    def _square(self) -> StochasticMatrix:
        return StochasticMatrix(self._entries @ self._entries)

    @cached_property
    def _hitting(self) -> tuple[np.ndarray, float]:
        """Fundamental-route H with its residual: H[i,j] = (Z[j,j] - Z[i,j]) / pi[j]
        for Z = (I - P + 1 pi')^-1."""
        pi = self.stationary()
        n = self.n
        try:
            Z = scipy.linalg.solve(np.eye(n) - self._entries + pi, np.eye(n))
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystem(f"fundamental-matrix solve failed: {exc}") from exc
        H = (np.diag(Z)[None, :] - Z) / pi[None, :]
        np.fill_diagonal(H, 0.0)
        return _checked_hitting(self, H)


# =====================================================================
# chains from graphs
# =====================================================================

def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraph(f"graph {g.family} is not connected")


def simple_walk_matrix(g: Graph) -> StochasticMatrix:
    """P[i,j] = 1/d(i) on edges of a connected graph with n >= 2.

    Periodic (hence unusable for steady-state formulas) exactly when the
    graph is bipartite.
    """
    if g.n < 2:
        raise InvalidParam("simple random walk needs n >= 2")
    _require_connected(g)
    a = g.adjacency()
    return StochasticMatrix(a / a.sum(axis=1, keepdims=True))


def lazy_walk_matrix(g: Graph) -> StochasticMatrix:
    """(1/2) I + (1/2) simple walk; stationary law d(i)/(2m).

    The single-node graph gets the trivial chain [[1]].
    """
    if g.n == 1:
        return StochasticMatrix([[1.0]])
    _require_connected(g)
    a = g.adjacency()
    p = 0.5 * a / a.sum(axis=1, keepdims=True)
    p[np.diag_indices(g.n)] += 0.5
    return StochasticMatrix(p)

def uniform_edge_matrix(g: Graph, eps: float | None = None) -> StochasticMatrix:
    """Symmetric walk: weight eps on every edge, 1 - eps*d(i) on the diagonal.

    Defaults to eps = 1/(2 * max degree), which keeps every diagonal entry
    >= 1/2; any eps < 1/max_degree is accepted.  Coincides with the lazy
    walk when the graph is regular.
    """
    if g.n == 1:
        return StochasticMatrix([[1.0]])
    _require_connected(g)
    d = g.degrees()
    dmax = int(d.max())
    if eps is None:
        eps = 1.0 / (2.0 * dmax)
    if not (0.0 < eps < 1.0 / dmax):
        raise InvalidParam(
            f"edge weight must satisfy 0 < eps < 1/max_degree = {1.0 / dmax:g}, got {eps}"
        )
    p = eps * g.adjacency()
    p[np.diag_indices(g.n)] = 1.0 - eps * d
    return StochasticMatrix(p)


def degree_stationary(g: Graph) -> np.ndarray:
    """Closed-form stationary law d(i)/(2m) of the simple and lazy walks."""
    d = g.degrees().astype(float)
    if g.m == 0:
        raise InvalidParam("degree stationary law needs at least one edge")
    return d / (2.0 * g.m)


# =====================================================================
# hitting times
# =====================================================================

def hitting_times(P: StochasticMatrix, *, method: str = "fundamental") -> np.ndarray:
    """Matrix of expected hitting times H[i, j] = E_i[time to reach j].

    Two routes, both verified against the defining equations
    ``H[i,j] = 1 + sum_k P[i,k] H[k,j]`` (i != j, H[j,j] = 0) with residual
    tolerance ``tolerances.HITTING_RESIDUAL_TOL * n``:

    * ``fundamental`` (the default): invert I - P + 1 pi' once and read
      off H[i,j] = (Z[j,j] - Z[i,j]) / pi[j] (Kemeny & Snell).  One
      O(n^3) solve; the result and its residual are cached on ``P``, so
      later calls only check the residual again.
    * ``per-target``: for each target j solve (I - P) h = 1 with row j
      replaced by h_j = 0.  One LU per target, O(n^4) in all, never
      cached: the independent referee for the fundamental route.

    The returned array is read-only.

    Parameters
    ----------
    P : StochasticMatrix
        Must be irreducible.
    method : {"fundamental", "per-target"}
    """
    if not P.irreducible:
        raise NotIrreducible("hitting times need an irreducible chain")
    if method == "fundamental":
        H, worst = P._hitting
    elif method == "per-target":
        H, worst = _checked_hitting(P, _hitting_per_target(P.entries))
    else:
        raise InvalidParam(f"unknown hitting-time method {method!r}")
    allowed = tol.HITTING_RESIDUAL_TOL * P.n
    if worst > allowed:
        raise SingularSystem(f"hitting-time residual {worst:.3e} exceeds {allowed:.3e}")
    return H


def _checked_hitting(P: StochasticMatrix, H: np.ndarray) -> tuple[np.ndarray, float]:
    """H made read-only, with its defining-equation residual."""
    resid = H - P.entries @ H - 1.0
    np.fill_diagonal(resid, 0.0)
    H.setflags(write=False)
    return H, float(np.abs(resid).max())


def _hitting_per_target(E: np.ndarray) -> np.ndarray:
    n = E.shape[0]
    H = np.zeros((n, n))
    eye = np.eye(n)
    ones = np.ones(n)
    for j in range(n):
        A = eye - E
        A[j, :] = 0.0
        A[j, j] = 1.0
        b = ones.copy()
        b[j] = 0.0
        try:
            H[:, j] = scipy.linalg.solve(A, b)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystem(f"hitting-time solve failed for target {j}: {exc}") from exc
    return H


def square_chain(P: StochasticMatrix) -> StochasticMatrix:
    """The two-step chain P @ P, built once and cached on ``P``."""
    return P._square


# =====================================================================
# Kemeny constant and resistance
# =====================================================================

def kemeny_constant_combinatorial(P: StochasticMatrix) -> float:
    """K = sum_j pi_j H(i -> j), verified to be the same from every start i.

    The start-independence check (max deviation <= RANDOM_TARGET_TOL * (1 + K))
    is a residual check on the solve, not an independent referee: on the
    fundamental route sum_j pi_j H_ij = tr Z - (Z 1)_i, so it only tests
    Z 1 = 1.  A violation raises RandomTargetViolation.
    """
    sums = hitting_times(P) @ P.stationary()
    K = float(sums[0])
    dev = float(np.abs(sums - K).max())
    allowed = tol.RANDOM_TARGET_TOL * (1.0 + abs(K))
    if dev > allowed:
        raise RandomTargetViolation(
            f"Kemeny sum varies with the start state by {dev:.3e} (allowed {allowed:.3e})"
        )
    return K


def kemeny_constant_spectral(P: StochasticMatrix) -> float:
    """K = sum over the non-unit eigenvalues of 1/(1 - lambda).

    Reads the spectrum cached on ``P`` (see
    :attr:`StochasticMatrix.nonunit_spectrum`).  A non-reversible chain's
    spectrum may be complex; the imaginary residue of the sum must then
    vanish within tolerance.
    """
    K = np.sum(1.0 / (1.0 - P.nonunit_spectrum))
    if np.iscomplexobj(K):
        if abs(K.imag) > tol.SPECTRAL_IMAG_TOL * (1.0 + abs(K.real)):
            raise EigSolverFailure(
                f"Kemeny spectral sum has imaginary residue {K.imag:.3e}"
            )
        K = K.real
    return float(K)


def effective_resistance(P: StochasticMatrix) -> np.ndarray:
    """Pairwise effective resistances via the commute-time identity.

    For a reversible chain with conductances c(x,y) = pi_x P[x,y],
    R(i <-> j) = H(i -> j) + H(j -> i); that identity is taken as the
    definition here.  Requires reversibility.
    """
    if not P.reversible:
        raise NotReversible("effective resistance needs a reversible chain")
    H = hitting_times(P)
    return H + H.T
