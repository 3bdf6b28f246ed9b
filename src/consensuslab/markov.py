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

Every chain stores its entries as CSR, and so does a sparse square.  The
square of a sparse, irreducible and aperiodic chain that would store more
than n^2 / 32 entries is held as the chain's CSR matrix F instead, and read
as strips of columns F (F[:, c]) and of rows, whose entries are the CSR
product's bit for bit.  Every sparse pass runs scipy's compiled CSR
kernels (scipy.sparse._sparsetools) on those arrays: csr_matvec for the
row sums, csc_matvec for pi'P, csr_sample_values for the tree arcs'
entries, csr_tocsc for the transposed entries, csr_matmat_maxnnz,
csr_matmat and csr_sort_indices for a CSR P^2 and for the split square
of a held one, and csr_matvecs for the strips of a held P^2 and the
products with Z.  They are the kernels scipy's operators call, fed the
same arguments in the same order, so every number is the operator's bit
for bit; the chain, and a sparse square or the pattern that orders a
split square, are the only sparse matrices an analysis builds.
Every chain built from a graph is reversible, and reversible chains take a
fast route: pi by detailed balance on the n - 1 arcs of a breadth-first
tree, whose P_ij and P_ji are looked up in the CSR arrays (O(nnz) with its
check), P^2 by a sparse product that inherits pi, and the fundamental
matrix Z = (I - P + 1 pi')^-1 of P^2 from an inverse within an envelope
or a dense Cholesky inverse.  A square stored as sparse CSR (the squares
of the ring, the line and the tree, and the grid's from 576 states) is
inverted through its grounded conductance Laplacian, factored and
inverted within its reverse Cuthill-McKee envelope in O(n^2 front) flops
(_grounded_z).  So is a square held as its factor whose hubs split off
(the two-star's two and the starry-line's two at every size, the star's
one): each hub's paths are kept apart as a copy of the hub, which leaves
a sparse two-step graph, and the hubs' rows and copies are a Schur border
around the envelope's interior (_grounded_system, _border_inverse).  A
held square with no such hubs (the grid at 256 states, the tree at 127)
and a dense chain (the complete graph) take the Cholesky inverse of the
symmetrized form B_s (_fundamental_cholesky), as does a system that the
grounded route finds not positive definite.  Other chains take LU
solves.  An aperiodic chain
reads its own Z off Z(P^2) by one sparse product, Z = Z(P^2) + P Z(P^2) - 1 pi',
so only P^2, or a periodic chain, is inverted.  H, K and R are all read
off Z, and H is only built when asked for; the O(n^2) passes over Z read
it by contiguous row blocks and column strips.

The inversion and the O(n^2) passes around it run on up to two threads
(_block_threads): the caller and, for a chain of more than one row block,
one pool thread that lives for one call, where the usable cores allow it
at the BLAS's own thread count (_workers).  _Threads, which simulate's
noise draws run on too, is the one layer that hands out work, joins a
pool and re-raises a pool thread's error.  LAPACK and BLAS are called
through ctypes from the function pointers that scipy.linalg.cython_lapack
and cython_blas export (_call), which releases the GIL that
scipy.linalg.lapack's wrappers hold.  From _SPLIT states B_s is inverted
by a two-way block Cholesky whose split depends on n alone
(_cholesky_inverse), the envelope inverse splits its largest products in
two halves above one row block (_envelope_inverse), the border's rank-b
update takes two calls of equal work (_rank_update), and each pass hands
its row blocks to the threads with the same arithmetic per block, so no
number depends on the thread count.
"""

from __future__ import annotations

import bisect
import ctypes
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import cython_blas, cython_lapack
from scipy.sparse import _sparsetools

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
from .graphs import Graph

__all__ = [
    "StochasticMatrix",
    "simple_walk_matrix",
    "lazy_walk_matrix",
    "uniform_edge_matrix",
    "hitting_times",
    "square_chain",
    "kemeny_constant_combinatorial",
    "kemeny_constant_spectral",
    "effective_resistance",
]


class StochasticMatrix:
    """A validated row-stochastic matrix that owns every per-chain quantity.

    The entries are stored once, as a CSR matrix with sorted indices and no
    stored zeros.  The dense array ``entries`` is built on first request
    and cached.  Validation, the structural flags and the detailed-balance
    check read the stored entries, in O(nnz): each entry P_ij is paired
    with P_ji from a transposed copy made for that check and dropped after
    it (see _paired), so a chain and its square never need an n x n copy
    of their entries.  A sparse chain (at most n^2 / 32 stored
    entries) keeps its CSR matrix as the factor of its hitting residual,
    and its square keeps the chain's factors twice; a dense one takes that
    residual, and the product that reads its Z off Z(P^2), by row blocks
    (see _hitting_residual and _fundamental).

    A dense square of a sparse, irreducible and aperiodic chain stores no
    entries: it is held as the chain's CSR matrix F (see _square).  Its row
    sums, the check of its inherited pi and its Cholesky build read F F by
    strips of rows and columns (_square_strips), O(n) entries at a time,
    its grounded route reads the split square of F (_grounded_system),
    and its CSR matrix is built only when something reads the entries
    themselves: ``entries``, the spectrum, the LU routes, ``symmetric``.

    The structural flags, the stationary law, the non-unit spectrum, the
    squared chain, the fundamental matrix and the hitting times are each
    computed at most once per matrix and cached with it.  The stationary
    law and the fundamental matrix keep their residuals, so every call
    still checks them against the constants of ``tolerances``.

    Parameters
    ----------
    entries : array_like or scipy sparse matrix, shape (n, n)
        Finite, nonnegative entries with each row summing to 1 within
        ``tolerances.ROW_SUM_TOL``.  The input is copied: a dense array is
        frozen and kept as the ``entries`` cache, and a sparse matrix is
        converted to CSR.
    """

    def __init__(self, entries, *, _owned: bool = False, _factor=None):
        # _owned: entries is a CSR matrix built for this chain alone, with
        # sorted indices, no duplicates and no stored zeros; it is validated
        # but neither copied nor re-sorted (see _graph_chain and _square).
        # _factor: the CSR matrix F of a chain; this chain is F F, held as F,
        # and entries is None; _square sets its factors, pi and flags
        from scipy.sparse import csr_matrix

        # (F, F'), F' as the arrays of _transpose, for a chain held as F F
        self._held = None
        dense = None
        if _factor is not None:
            self._held = F, Ft = _factor, _transpose(_factor)
            # F's entries are finite and nonnegative, and so are F F's; its
            # row sums are the column sums of the strips of F' F'
            n = F.shape[0]
            sums = np.concatenate([strip.sum(axis=0) for _, strip in _square_strips(Ft, F)])
        else:
            if _owned:
                S = entries
            elif hasattr(entries, "tocsr"):
                S = entries.tocsr(copy=True).astype(float, copy=False)
            else:
                S = dense = np.array(entries, dtype=float)
            if S.ndim != 2 or S.shape[0] != S.shape[1]:
                raise InvalidParam(f"transition matrix must be square, got shape {S.shape}")
            if S.shape[0] < 1:
                raise InvalidParam("transition matrix must be at least 1x1")
            if dense is not None:
                dense.setflags(write=False)
                S = csr_matrix(dense)  # sorted, with no zeros stored
            elif not (_owned or S.has_canonical_format and S.data.all()):
                S.sum_duplicates()  # sorts the indices too
                S.eliminate_zeros()
            if not np.isfinite(S.data).all():
                raise InvalidParam("transition matrix has non-finite entries")
            if np.any(S.data < 0):
                raise InvalidParam("transition matrix has negative entries")
            n, self._csr = S.shape[0], S
            # sparse matrices whose product is P, for the hitting residual;
            # None for a dense P
            self._factors = (S,) if _sparse(S.nnz, n) else None
            sums = _product(S, np.ones(n))
        worst = float(np.abs(sums - 1.0).max())
        if worst > tol.ROW_SUM_TOL:
            raise InvalidParam(
                f"rows must sum to 1 within {tol.ROW_SUM_TOL:g} (worst deviation {worst:.3e})"
            )
        self._n = n
        self._dense = dense
        # what a squared chain knows from the chain P it squares: P's pi
        self._pi_hint: np.ndarray | None = None
        # True for the chain P^2 that _square builds, whose Z takes the direct route
        self._squared = False

    # -- basic access -------------------------------------------------

    @property
    def entries(self) -> np.ndarray:
        """Read-only dense array of the entries, built on first request."""
        if self._dense is None:
            self._dense = self._csr.toarray()
            self._dense.setflags(write=False)
        return self._dense

    @property
    def n(self) -> int:
        return self._n

    @cached_property
    def _csr(self):
        """The entries as a canonical CSR matrix.  __init__ sets it, except on
        a chain held as F F, which builds it on first request."""
        return _csr_square(self._held[0])

    def _rows(self, blocks=None):
        """(b, P[b]) for the slices b of ``blocks`` (``_row_blocks(n)`` if
        None): C-ordered dense row blocks, from the CSR matrix
        (_dense_blocks), or on a chain held as F F from the strips of F' F',
        whose columns are its rows."""
        if self._held is None:
            return _dense_blocks(self._csr, blocks=blocks)
        F, Ft = self._held
        return ((b, np.ascontiguousarray(strip.T)) for b, strip in _square_strips(Ft, F, blocks))

    def __repr__(self) -> str:
        return f"StochasticMatrix(n={self.n})"

    # -- structural flags (lazy, cached) ------------------------------

    @cached_property
    def irreducible(self) -> bool:
        return _strongly_connected(self._csr)

    @cached_property
    def aperiodic(self) -> bool:
        """True iff irreducible with period 1 (single-state chains count).

        A self-loop is a cycle of length 1.  Otherwise the period is the gcd
        of level[u] + 1 - level[v] over the arcs u -> v, with the levels of
        csgraph's unweighted shortest paths from state 0.
        """
        from scipy.sparse.csgraph import shortest_path

        if not self.irreducible:
            return False
        S = self._csr
        if np.any(S.diagonal() > 0):
            return True
        level = shortest_path(S, unweighted=True, indices=0).astype(np.int64)
        tails = np.repeat(np.arange(self.n), np.diff(S.indptr))
        return int(np.gcd.reduce(level[tails] + 1 - level[S.indices])) == 1

    @cached_property
    def symmetric(self) -> bool:
        scale = max(1.0, float(self._csr.data.max()))
        worst = max(float(np.abs(p - q).max()) for _, _, p, q in _pairs(*self._paired()))
        return worst <= tol.SYMMETRY_RTOL * scale

    @cached_property
    def reversible(self) -> bool:
        """Detailed balance pi_i P_ij = pi_j P_ji on every arc, within
        REVERSIBILITY_RTOL of max_ij pi_i P_ij; settled with pi."""
        if not self.irreducible:
            return False
        self.stationary()
        return self._stationary[2]

    # -- stationary law ------------------------------------------------

    def stationary(self) -> np.ndarray:
        """Stationary distribution of an irreducible chain.

        Solved once, with the reversibility flag.  A reversible chain's pi
        is exact to rounding: pi_j = pi_i P_ij / P_ji along a breadth-first
        tree from state 0, accepted once detailed balance holds on every
        arc.  Otherwise (P' - I) pi = 0 is solved by LU with one equation
        replaced by the normalization, and checked for positivity, and
        detailed balance is checked on that pi (an arc with no reverse arc
        can still balance within tolerance).  A
        squared chain takes the pi of the chain it squares, which P^2
        leaves invariant, and only checks it.  The residual
        ``||pi' P - pi'||_inf`` is cached with pi, so every call checks it
        against ``tolerances.STATIONARY_RESIDUAL_TOL``.  Read-only.
        """
        pi, resid, _ = self._stationary
        if resid > tol.STATIONARY_RESIDUAL_TOL:
            raise SingularSystem(
                f"stationary residual {resid:.3e} exceeds {tol.STATIONARY_RESIDUAL_TOL:g}"
            )
        return pi

    @cached_property
    def _stationary(self) -> tuple[np.ndarray, float, bool]:
        """pi, its residual ||pi' P - pi'||_inf and the detailed-balance flag."""
        if not self.irreducible:
            raise NotIrreducible("stationary distribution needs an irreducible chain")
        hint = self._pi_hint
        if self._held is not None:
            return (hint, *_square_checks(*self._held, hint))
        paired = self._paired()
        pi = hint if hint is not None else self._tree_stationary()
        balanced = pi is not None and self._detailed_balance(pi, paired)
        if hint is None and not balanced:
            pi, resid = self._lu_stationary()
            return pi, resid, self._detailed_balance(pi, paired)
        return pi, float(np.abs(_transposed_product(self._csr, pi) - pi).max()), balanced

    @cached_property
    def _bfs_tree(self) -> tuple[np.ndarray, np.ndarray]:
        return _breadth_first(self._csr)

    def _tree_stationary(self) -> np.ndarray | None:
        """pi_j = pi_i P_ij / P_ji along a breadth-first tree from state 0,
        normalized; None where an arc has no reverse arc or pi degenerates.
        P_ij and P_ji are looked up in the CSR arrays on the n - 1 tree arcs."""
        order, pred = self._bfs_tree
        child = order[1:]
        forth = _lookup(self._csr, pred[child], child)
        back = _lookup(self._csr, child, pred[child])
        if np.any(back <= 0):
            return None
        pi = [0.0] * self.n
        pi[0] = 1.0
        for j, i, r in zip(child.tolist(), pred[child].tolist(), (forth / back).tolist()):
            pi[j] = pi[i] * r  # the tree order puts i before j
        pi = np.array(pi)
        total = pi.sum()
        if not (math.isfinite(total) and pi.min() > 0):
            return None
        pi /= total
        pi.setflags(write=False)
        return pi

    def _detailed_balance(self, pi: np.ndarray, paired) -> bool:
        """max |pi_i P_ij - pi_j P_ji| <= REVERSIBILITY_RTOL * max pi_i P_ij,
        over the stored entries of the flux matrix (the pairs of _paired)."""
        worst = top = 0.0
        for i, j, p, q in _pairs(*paired):
            flux = pi[i] * p
            worst = max(worst, float(np.abs(flux - q * pi[j]).max()))
            top = max(top, float(flux.max()))
        return worst <= tol.REVERSIBILITY_RTOL * top

    def _paired(self):
        """_paired(P's CSR matrix).  Not cached: V is as large as the
        entries, so a check makes it and drops it."""
        return _paired(self._csr)

    def _lu_stationary(self) -> tuple[np.ndarray, float]:
        """pi by LU and its residual (before normalization)."""
        n = self.n
        # (P' - I) pi = 0 with one row traded for the normalization sum(pi) = 1
        A = self.entries.T - np.eye(n)
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi = scipy.linalg.solve(A, b)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystem(f"stationary solve failed: {exc}") from exc
        resid = float(np.abs(pi @ self.entries - pi).max())
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
        E = self.entries
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

    # -- squared chain and fundamental matrix -----------------------------

    @cached_property
    def _square(self) -> StochasticMatrix:
        """P @ P.  It inherits pi, since pi' P^2 = pi', and a sparse P's
        factors twice, so that its hitting residual never multiplies by the
        denser P^2 (see _hitting_residual).  An irreducible, aperiodic P has
        an irreducible, aperiodic square, which takes both flags from P.

        A sparse square is a CSR matrix (_csr_square).  A sparse, irreducible
        and aperiodic P whose square csr_matmat_maxnnz bounds above n^2 / 32
        stored entries holds its square as its own CSR matrix F instead: the
        checks and the Cholesky route read F F by strips (_square_strips),
        the grounded route reads F itself (_grounded_system), and the CSR
        matrix of F F is built only if its entries are asked for."""
        F = self._csr
        primitive = self.irreducible and self.aperiodic
        nnz = _square_nnz(F)
        if primitive and self._factors is not None and not _sparse(nnz, self.n):
            Q = StochasticMatrix(None, _factor=F)
        else:
            Q = StochasticMatrix(_csr_square(F, nnz), _owned=True)
        Q._squared = True
        if self.irreducible:
            Q._pi_hint = self._stationary[0]
        if primitive:
            Q.irreducible = Q.aperiodic = True
        if self._factors is not None:
            Q._factors = self._factors * 2
        return Q

    @cached_property
    def _fundamental(self) -> tuple[np.ndarray, float]:
        """Z = (I - P + 1 pi')^-1, read-only, with the residual of the
        hitting-time equations that H[i,j] = (Z[j,j] - Z[i,j]) / pi[j] would
        leave.

        An aperiodic chain that is not itself a squared chain reads Z off
        Z2 = Z(P^2), which the closed forms need anyway: since
        I - P^2 + 1 pi' = (I - P + 1 pi')(I + P - 1 pi') and pi' Z2 = pi',
        Z = Z2 + P Z2 - 1 pi', one product and two passes.  Z2's own
        residual is checked first.  As in _hitting_residual, a sparse chain
        takes P Z2 by one CSR product and a dense one by dense row blocks,
        an n^3 product that costs no more than an inversion.  A squared
        chain, and a periodic chain, whose square is reducible, invert
        directly (_inverted_z): a reversible chain stored as sparse CSR, or
        held as its factor with hubs to split off, within the envelope of
        its grounded conductance Laplacian, any other reversible one by the
        Cholesky inverse of B_s, which also takes a system that the
        envelope route finds not positive definite, and LU otherwise, or
        where the Cholesky inverse finds B_s not positive definite.
        """
        pi = self.stationary()
        if not self._squared and self.aperiodic:
            Z2 = _fundamental_matrix(self._square)
            if self._factors is not None:
                Z = _product(self._csr, Z2)
            else:
                Z = np.empty_like(Z2)
                for b, rows in _dense_blocks(self._csr):
                    np.matmul(rows, Z2, out=Z[b])
            Z += Z2
            Z -= pi
        else:
            Z = _inverted_z(self, pi) if self.reversible else None
        if Z is None:
            n = self.n
            try:
                Z = scipy.linalg.solve(np.eye(n) - self.entries + pi, np.eye(n))
            except scipy.linalg.LinAlgError as exc:
                raise SingularSystem(f"fundamental-matrix solve failed: {exc}") from exc
        Z.setflags(write=False)
        return Z, _hitting_residual(self, Z, pi)

    @cached_property
    def _hitting(self) -> np.ndarray:
        """H[i,j] = (Z[j,j] - Z[i,j]) / pi[j], read-only; 0 on the diagonal."""
        Z = self._fundamental[0]
        H = (np.diag(Z)[None, :] - Z) / self.stationary()[None, :]
        H.setflags(write=False)
        return H


# =====================================================================
# CSR kernels (see the module docstring)
# =====================================================================

class _Arrays(NamedTuple):
    """The indptr, indices and data of an n x n CSR matrix, held as plain
    arrays with the ``shape`` the helpers below read."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.indptr.size - 1


def _kernel(name: str, S, *lead):
    """scipy's compiled CSR routine ``name``, bound to the n x n CSR matrix
    (or _Arrays) S: the call passes the routine's arguments after n, n,
    ``lead`` and S's indptr, indices and data."""
    n = S.shape[0]
    return partial(getattr(_sparsetools, name), n, n, *lead, S.indptr, S.indices, S.data)


def _product(S, X: np.ndarray) -> np.ndarray:
    """S @ X for a dense vector X (csr_matvec) or matrix X (csr_matvecs)."""
    if X.ndim == 1:
        Y = np.zeros(S.shape[0])
        _kernel("csr_matvec", S)(X, Y)
    else:
        Y = np.zeros((S.shape[0], X.shape[1]))
        _kernel("csr_matvecs", S, X.shape[1])(X.ravel(), Y.ravel())
    return Y


def _transposed_product(S, x: np.ndarray) -> np.ndarray:
    """S' @ x for a dense vector x: csc_matvec, which reads S's arrays as
    those of S' in CSC, summing over the stored entries in order."""
    y = np.zeros(S.shape[0])
    _kernel("csc_matvec", S)(x, y)
    return y


def _lookup(S, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The entries S[rows, cols] of two index vectors, 0 where none is
    stored: csr_sample_values."""
    rows, cols = (np.asarray(k, dtype=S.indices.dtype) for k in (rows, cols))
    out = np.empty(rows.size)
    _kernel("csr_sample_values", S)(rows.size, rows, cols, out)
    return out


def _transpose(S) -> _Arrays:
    """The indptr, indices and data of S' in CSR, which S.tocsc() holds:
    csr_tocsc."""
    arrays = _Arrays(np.empty_like(S.indptr), np.empty_like(S.indices), np.empty_like(S.data))
    _kernel("csr_tocsc", S)(*arrays)
    return arrays


def _sparse(nnz: int, n: int) -> bool:
    """At most n^2 / 32 stored entries in an n x n matrix: the rule for a
    chain that keeps sparse factors, and for a square that stays CSR."""
    return nnz * 32 <= n ** 2


def _square_nnz(S, left=None) -> int:
    """csr_matmat_maxnnz's bound on the stored entries of left @ S, S @ S if
    ``left`` is None: the entries of its pattern, which a product of
    nonnegative entries can only shrink by underflow."""
    n = S.shape[0]
    A = S if left is None else left
    return int(_sparsetools.csr_matmat_maxnnz(n, n, A.indptr, A.indices, S.indptr, S.indices))


def _csr_product(A, S, nnz: int | None = None) -> _Arrays:
    """A @ S for CSR matrices (or _Arrays) A and S of one index dtype, as
    the canonical arrays of a CSR matrix: sorted indices, no duplicates and
    no stored zeros (csr_matmat stores neither).  The index dtype is the
    one scipy's product picks, S's own or int64 once the product's bound on
    its stored entries needs it; csr_matmat_maxnnz gives that bound
    (``nnz``, if the caller has it), csr_matmat the product and
    csr_sort_indices its order."""
    n = S.shape[0]
    if nnz is None:
        nnz = _square_nnz(S, A)
    idx = np.promote_types(S.indices.dtype, np.int64 if nnz > np.iinfo(np.int32).max else np.int32)
    a, s = ((M.indptr.astype(idx, copy=False), M.indices.astype(idx, copy=False), M.data)
            for M in (A, S))
    indptr, indices, data = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz)
    _sparsetools.csr_matmat(n, n, *a, *s, indptr, indices, data)
    _sparsetools.csr_sort_indices(n, indptr, indices, data)
    stored = int(indptr[-1])
    return _Arrays(indptr, indices[:stored], data[:stored])


def _csr_square(S, nnz: int | None = None):
    """S @ S (_csr_product) as a CSR matrix of S's class."""
    indptr, indices, data = _csr_product(S, S, nnz)
    return type(S)((data, indices, indptr), shape=S.shape)


def _square_strips(A, At, blocks=None):
    """(c, (A A)[:, c]) for the slices c of ``blocks`` (``_row_blocks(n)``
    if None), each an n x |c| C-ordered array: csr_matvecs of A on the dense
    columns A[:, c], laid out from the rows At[c] of A's transpose.

    For each entry it adds the products A_ik A_kj over the stored A_ik in
    the order of k, as csr_matmat does, and otherwise only zeros, so the
    strips hold the bits of _csr_square(A); with A = F' they hold the rows
    of F F, transposed, since (F F)_ij = sum_k F'_jk F'_ki."""
    for c, cols in _dense_blocks(At, transposed=True, blocks=blocks):
        yield c, _product(A, cols)


def _square_checks(F, Ft, pi: np.ndarray) -> tuple[float, bool]:
    """The stationary residual ||pi' Q - pi'||_inf of Q = F F and its
    detailed-balance verdict (as in StochasticMatrix._detailed_balance),
    read from the strips Q[:, c] and Q[c, :]' of _square_strips.

    In the strip of columns c, back_jc = pi_j Q_jc is the flux the other
    way of flux_jc = pi_c Q_cj; the entries absent from both patterns add
    zeros.  Summed down the strip, the sequential sum of a C-ordered axis 0,
    back gives (pi' Q)_c, in the order csc_matvec sums it.  The strips run
    on _Threads, each thread reading the same claimed blocks twice (tee),
    and the three results are the largest of their maxima."""

    def work(blocks) -> tuple[float, float, float]:
        resid = worst = top = 0.0
        mine = itertools.tee(blocks)
        for (c, back), (_, flux) in zip(_square_strips(F, Ft, mine[0]),
                                        _square_strips(Ft, F, mine[1])):
            back *= pi[:, None]
            resid = max(resid, float(np.abs(back.sum(axis=0) - pi[c]).max()))
            flux *= pi[c]
            top = max(top, float(flux.max()))
            flux -= back
            worst = max(worst, float(flux.max()), -float(flux.min()))
        return resid, worst, top

    with _Threads(_block_threads(pi.size)) as threads:
        resid, worst, top = (max(part) for part in zip(*threads.run(work, _row_blocks(pi.size))))
    return resid, worst <= tol.REVERSIBILITY_RTOL * top


def _breadth_first(support) -> tuple[np.ndarray, np.ndarray]:
    """(order, pred) of a breadth-first search from state 0 over a sparse pattern:
    the states it reaches, and each one's tree parent (else -9999)."""
    from scipy.sparse.csgraph import breadth_first_order

    return breadth_first_order(support, 0, directed=True, return_predecessors=True)


def _strongly_connected(support) -> bool:
    """One strongly connected component in a sparse pattern (stored entry = arc)."""
    # imported on first use: csgraph loads scipy.sparse.linalg, and loading
    # it with the package raised a CLI run's peak RSS by 0.9 MB
    from scipy.sparse.csgraph import connected_components

    ncomp, _ = connected_components(support, directed=True, connection="strong")
    return ncomp == 1


_BLOCK = 1 << 16
"""Entries per block of a blocked pass, of a dense array or of the stored
entries of a CSR matrix: the pass keeps its temporaries small."""


def _block_rows(n: int) -> int:
    """Rows per slice of ``_row_blocks(n)``."""
    return max(1, _BLOCK // n)


def _row_blocks(n: int):
    """Slices of consecutive rows, about _BLOCK entries of an n-column array
    each."""
    step = _block_rows(n)
    return (slice(i, min(i + step, n)) for i in range(0, n, step))


def _entry_blocks(indptr: np.ndarray):
    """Slices of consecutive rows of a CSR matrix, each holding about _BLOCK
    stored entries and at least one row."""
    n = indptr.size - 1
    if indptr[-1] <= _BLOCK:
        return (slice(0, n),)
    cuts = np.searchsorted(indptr, np.arange(_BLOCK, indptr[-1], _BLOCK)).tolist()
    bounds = sorted({0, *cuts, n})
    return (slice(a, b) for a, b in zip(bounds, bounds[1:]))


def _stored(S):
    """(b, i, j, S_ij) for the stored entries of the CSR matrix S, one slice
    b of ``_entry_blocks`` at a time."""
    ptr = S.indptr
    for b in _entry_blocks(ptr):
        k = slice(ptr[b.start], ptr[b.stop])
        i = np.repeat(np.arange(b.start, b.stop), np.diff(ptr[b.start:b.stop + 1]))
        yield b, i, S.indices[k], S.data[k]


def _pairs(U, V):
    """(i, j, U_ij, U_ji) for the stored entries (i, j) of U, by the blocks
    of _stored, with V from _paired."""
    ptr = U.indptr
    for b, i, j, p in _stored(U):
        yield i, j, p, V[ptr[b.start]:ptr[b.stop]]


def _paired(S):
    """(U, V): the entries of the canonical CSR matrix S on the union of its
    pattern and its transpose, as a CSR matrix U, and for each stored entry
    (i, j) of U the entry U[j, i] at the same position of the array V.

    U is S itself when its pattern is symmetric, as the pattern of every
    graph chain and of its square is; any other pattern gets explicit zeros
    on the transposed pattern.  So S_ij and S_ji are read for every pair
    where either is nonzero, and their products and differences are those
    of the dense arrays S and S'.
    """
    from scipy.sparse import coo_matrix

    V = _transposed_data(S)
    if V is None:
        rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
        S = coo_matrix((np.concatenate([S.data, np.zeros(S.data.size)]),
                        (np.concatenate([rows, S.indices]), np.concatenate([S.indices, rows]))),
                       shape=S.shape).tocsr()  # duplicates summed, the zeros kept
        V = _transposed_data(S)
    return S, V


def _transposed_data(S) -> np.ndarray | None:
    """The entries S[j, i] in the order of the stored entries (i, j) of the
    canonical CSR matrix S; None if some (j, i) is not stored."""
    indptr, indices, data = _transpose(S)
    if np.array_equal(indptr, S.indptr) and np.array_equal(indices, S.indices):
        return data
    return None


def _dense_blocks(S, transposed: bool = False, blocks=None):
    """For each slice b of ``blocks`` (``_row_blocks(n)`` if None), the
    dense rows S[b] of the n x n CSR matrix S, scattered into one zeroed
    buffer and cleared from it entry by entry once the caller asks for the
    next block; ``transposed`` lays them out as the C-ordered n x |b| array
    S[b]'.  Each block holds exactly the values of that slice of the dense
    array, so a pass over the blocks gives the numbers of the same pass
    over the dense matrix.  The buffer belongs to this generator, so
    threads that share the blocks each run their own.
    """
    n = S.shape[1]
    ptr = S.indptr
    if blocks is None:
        blocks = _row_blocks(n)
    buf = np.zeros(min(_block_rows(n), n) * n)  # a slice of _row_blocks at its largest
    for b in blocks:
        k, size = slice(ptr[b.start], ptr[b.stop]), b.stop - b.start
        row = np.repeat(np.arange(size), np.diff(ptr[b.start:b.stop + 1]))
        at = S.indices[k] * size + row if transposed else row * n + S.indices[k]
        buf[at] = S.data[k]
        yield b, buf[:size * n].reshape((n, size) if transposed else (size, n))
        buf[at] = 0.0


# =====================================================================
# threads, and LAPACK and BLAS without the GIL
# =====================================================================

def _usable_cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas_thread_count():
    """scipy_openblas_get_num_threads of the OpenBLAS that cython_lapack
    calls, or None where that library has no such function."""
    try:
        function = ctypes.CDLL(cython_lapack.__file__).scipy_openblas_get_num_threads
    except (AttributeError, OSError):
        return None
    function.restype, function.argtypes = ctypes.c_int, []
    return function


_openblas_threads = _openblas_thread_count()


def _workers() -> int:
    """Threads for the blocked passes: min(2, usable cores / BLAS threads),
    and 1 where the BLAS does not report its thread count, so that the
    passes never run more BLAS threads than there are cores."""
    if _openblas_threads is None:
        return 1
    return max(1, min(2, _usable_cores() // max(1, _openblas_threads())))


def _block_threads(n: int) -> int:
    """Threads for the blocked passes over an n-state chain: ``_workers()``
    where the chain spans more than one row block, else one."""
    return _workers() if _block_rows(n) < n else 1


def _claims(items):
    """A function that makes a new iterator on each call; together the
    iterators hand out the items of one shared iterator, each once, under a
    lock, so threads may share the items."""
    source, lock = iter(items), threading.Lock()

    def claimed():
        while True:
            with lock:
                item = next(source, None)
            if item is None:
                return
            yield item

    return claimed


def _joined(tasks, work) -> list:
    """The results of the pool ``tasks`` and then of work(), run here, once
    all have returned; a pool thread's error is raised after work() has
    returned or raised."""
    try:
        mine = work()
    finally:
        for task in tasks:
            task.exception()  # waits for each pool thread, whether it failed or not
        done = [task.result() for task in tasks]  # re-raises a pool thread's error
    return [*done, mine]


class _Threads:
    """This thread and ``count - 1`` pool threads, for the blocked passes of
    markov and the noise draws of simulate.  A context manager: on exit it
    shuts the pool down, so no thread outlives the ``with`` block.  A pass
    gives each item, and each LAPACK call, the same arithmetic on whichever
    thread runs it, so no number depends on the thread count."""

    def __init__(self, count: int):
        self._count = count
        self._pool = ThreadPoolExecutor(count - 1) if count > 1 else None

    def __enter__(self) -> _Threads:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def both(self, first, second) -> tuple:
        """first() on a pool thread while second() runs on this one, or
        first() and then second() here; their results, once both have
        returned.  An error of first() is raised here, after second()."""
        if self._pool is None:
            return first(), second()
        return tuple(_joined([self._pool.submit(first)], second))

    def start(self, work, items):
        """Hand work(claimed) to each pool thread at once, ``claimed`` being
        the items that thread claims from ``items`` (see _claims); return
        finish(), which runs work(claimed) here, then _joined's the pool."""
        if self._pool is None:
            return lambda: [work(iter(items))]
        claimed = _claims(items)
        tasks = [self._pool.submit(work, claimed()) for _ in range(self._count - 1)]
        return partial(_joined, tasks, partial(work, claimed()))

    def run(self, work, items) -> list:
        """start(work, items)(): the results of work(claimed) on each thread."""
        return self.start(work, items)()


_ROUTINES = {
    # the arguments of each routine, every one passed by pointer: c a char,
    # i an int, a a double array, x a double scalar.  A LAPACK routine's
    # last int is its info, which _call passes and returns
    "dpotrf": (cython_lapack, "ciaii"),
    "dpotri": (cython_lapack, "ciaii"),
    "dtrtri": (cython_lapack, "cciaii"),
    "dlauum": (cython_lapack, "ciaii"),
    "dtrsm": (cython_blas, "cccciixaiai"),
    "dsyrk": (cython_blas, "cciixaixai"),
    "dgemm": (cython_blas, "cciiixaiaixai"),
    "dtrmm": (cython_blas, "cccciixaiai"),
    "dsymm": (cython_blas, "cciixaiaixai"),
}

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind(name: str):
    """The routine ``name`` of scipy.linalg's cython_lapack or cython_blas,
    from the function pointer its ``__pyx_capi__`` exports, as a ctypes
    function, which releases the GIL for each call.  These are the
    routines the wrappers of scipy.linalg.lapack and scipy.linalg.blas
    call."""
    module, kinds = _ROUTINES[name]
    capsule = module.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(kinds))(address)


_BOUND = {name: _bind(name) for name in _ROUTINES}
_INT, _DOUBLE = ctypes.sizeof(ctypes.c_int), ctypes.sizeof(ctypes.c_double)


def _call(name: str, *args) -> int:
    """Call the routine ``name`` of _ROUTINES with ``args``, in its order: a
    str for each char, an int for each int, an array's address for each
    array and a float for each scalar; a LAPACK routine's info, else 0."""
    module, kinds = _ROUTINES[name]
    lapack = module is cython_lapack
    if len(args) != len(kinds) - lapack:
        raise TypeError(f"{name} takes {len(kinds) - lapack} arguments, got {len(args)}")
    # each int and scalar argument in its own slot of one array per type,
    # passed by address; the info is the last int slot
    ints, scalars = (ctypes.c_int * len(kinds))(), (ctypes.c_double * len(kinds))()
    at_int, at_scalar = ctypes.addressof(ints), ctypes.addressof(scalars)
    refs = []
    for k, (kind, value) in enumerate(zip(kinds, args)):
        if kind == "i":
            ints[k] = value
            refs.append(at_int + _INT * k)
        elif kind == "x":
            scalars[k] = value
            refs.append(at_scalar + _DOUBLE * k)
        else:
            refs.append(value.encode() if kind == "c" else value)
    _BOUND[name](*refs, *[at_int + _INT * (len(kinds) - 1)] * lapack)
    return ints[-1] if lapack else 0


_SPLIT = 320
"""The order from which _cholesky_inverse inverts in two halves.  In 41
alternating calls per size, with one BLAS thread on each of 2 cores and
the pool made for each call, the split's median took 1.56 ms against
potrf and potri's 1.11 at n = 257 and 1.91 against 1.88 at 288; from 320
to 700 it was 1.02 to 1.47 times faster in two rounds, but for 352 and
448 in one of them (0.80 and 0.96).  Every larger size tried was faster
still: 1.4 to 1.8 times at 1024 to 1600."""


def _halves(size: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(start, count) of the two halves of ``size`` consecutive indices."""
    h = size // 2
    return (0, h), (h, size - h)


def _rank_update(threads: _Threads, trans: str, alpha: float, size: int, inner: int,
                 x, c, ld: int, uplo: str = "U") -> None:
    """C += alpha X'X (trans "T", X of shape inner x size) or alpha X X'
    ("N", X of shape size x inner) on the ``uplo`` triangle of the
    size x size C, as two calls of equal work on ``threads``: dsyrk on C's
    first p = size / sqrt(2) rows and columns, and dgemm off the diagonal
    and dsyrk on it for the rest.  x(j) is the address of X's column j
    ("T") or row j ("N"), c(i, j) that of C_ij; both Fortran-ordered with
    leading dimension ``ld``."""
    p = round(size / math.sqrt(2))
    other = "N" if trans == "T" else "T"

    def first():
        _call("dsyrk", uplo, trans, p, inner, alpha, x(0), ld, 1.0, c(0, 0), ld)

    def second():
        if uplo == "U":
            _call("dgemm", trans, other, p, size - p, inner, alpha, x(0), ld, x(p), ld,
                  1.0, c(0, p), ld)
        else:
            _call("dgemm", trans, other, size - p, p, inner, alpha, x(p), ld, x(0), ld,
                  1.0, c(p, 0), ld)
        _call("dsyrk", uplo, trans, size - p, inner, alpha, x(p), ld, 1.0, c(p, p), ld)

    threads.both(first, second)


def _cholesky_inverse(B: np.ndarray, threads: _Threads) -> bool:
    """Invert in place the symmetric positive definite matrix whose lower
    triangle the C-ordered n x n array B holds, leaving the lower triangle
    of the inverse there; False if LAPACK finds it not positive definite.

    LAPACK reads that triangle as the upper one of A = B', Fortran-ordered.
    Below _SPLIT it runs dpotrf and dpotri.  From _SPLIT it takes the 2 x 2
    partition of A = U'U by a fixed split k = n // 2 (as in the RFP
    Cholesky of Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 37(2),
    2010), each pair of calls on the two ``threads``:
    U11 by dpotrf; U12 = U11'^-1 A12 by dtrsm on two halves of its columns,
    and A22 - U12'U12 by _rank_update; U22 by dpotrf; V11 = U11^-1 and
    V22 = U22^-1 by dtrtri side by side; V12 = -V11 U12 V22 by dtrmm on two
    halves of the rows, then two halves of the columns.  Then A^-1 = V V':
    V11 V11' by dlauum, + V12 V12' by _rank_update, V12 V22' by dtrmm on
    two halves of the rows, V22 V22' by dlauum.  On random arrays of
    condition 40 at n = 320 to 1024, its error against np.linalg.inv was
    0.7 to 1.3 times potri's.
    """
    n = B.shape[0]
    if B.dtype != np.float64 or B.shape != (n, n) or not B.flags.c_contiguous:
        raise ValueError("_cholesky_inverse takes a C-ordered square float64 array")
    base = B.ctypes.data

    def at(i: int, j: int) -> int:  # the address of A_ij
        return base + B.itemsize * (i + j * n)

    if n < _SPLIT:
        return _call("dpotrf", "U", n, base, n) == 0 and _call("dpotri", "U", n, base, n) == 0
    k, m = n // 2, n - n // 2

    def split(make, size: int) -> tuple:
        return threads.both(*(partial(make, start, count) for start, count in _halves(size)))

    if _call("dpotrf", "U", k, at(0, 0), n):
        return False
    split(lambda j, w: _call("dtrsm", "L", "U", "T", "N", k, w, 1.0, at(0, 0), n,
                             at(0, k + j), n), m)
    _rank_update(threads, "T", -1.0, m, k, lambda j: at(0, k + j),
                 lambda i, j: at(k + i, k + j), n)
    if _call("dpotrf", "U", m, at(k, k), n):
        return False
    if any(threads.both(partial(_call, "dtrtri", "U", "N", k, at(0, 0), n),
                        partial(_call, "dtrtri", "U", "N", m, at(k, k), n))):
        return False
    split(lambda i, h: _call("dtrmm", "R", "U", "N", "N", h, m, -1.0, at(k, k), n,
                             at(i, k), n), k)
    split(lambda j, w: _call("dtrmm", "L", "U", "N", "N", k, w, 1.0, at(0, 0), n,
                             at(0, k + j), n), m)
    _call("dlauum", "U", k, at(0, 0), n)
    _rank_update(threads, "N", 1.0, k, m, lambda i: at(i, k), at, n)
    split(lambda i, h: _call("dtrmm", "R", "U", "T", "N", h, m, 1.0, at(k, k), n,
                             at(i, k), n), k)
    _call("dlauum", "U", m, at(k, k), n)
    return True


# =====================================================================
# the fundamental matrix
# =====================================================================

def _inverted_z(P: StochasticMatrix, pi: np.ndarray) -> np.ndarray | None:
    """Z of a reversible chain that is inverted directly; None if not
    positive definite.  A chain stored as sparse CSR (the n^2 / 32 rule of
    _sparse), and a square held as its factor, are inverted through their
    grounded conductance Laplacian (_grounded_system, _grounded_z), unless
    that takes more flops than the dense inverse; the others, and a system
    that the route finds not positive definite, take the Cholesky inverse
    of B_s (_fundamental_cholesky)."""
    Z = None
    if P._held is not None or _sparse(P._csr.nnz, P.n):
        system = _grounded_system(P, pi)
        Z = None if system is None else _grounded_z(pi, system)
    return _fundamental_cholesky(P, pi) if Z is None else Z


def _fundamental_cholesky(P: StochasticMatrix, pi: np.ndarray) -> np.ndarray | None:
    """Z of a reversible chain, in one n x n buffer; None if not positive definite.

    B_s = I - D^{1/2} P D^{-1/2} + sqrt(pi) sqrt(pi)' (D = diag(pi)) is
    symmetric positive definite, and Z = D^{-1/2} B_s^-1 D^{1/2}.  One
    pass of P's dense row blocks (StochasticMatrix._rows) writes
    A = D^{1/2} P D^{-1/2} into the buffer, and one pass of row blocks
    then writes the lower triangle
    (A_ij + A_ji) * -0.5 + sqrt(pi_i) sqrt(pi_j) from the rows and one
    contiguous copy of the column strip: the numbers of the same formula on
    the dense arrays, with no copy of the entries.  The diagonal entries
    1 - P_ii are summed from each dense row's other entries.
    _cholesky_inverse then inverts the lower triangle in place, _mirror
    copies it onto the upper triangle, and one pass of row blocks scales it.
    Every pass runs its blocks on the same _Threads as the inversion.
    """
    n = pi.size
    s = np.sqrt(pi)
    B = np.empty((n, n))
    diag = np.empty(n)

    def fill(blocks) -> None:
        for b, rows in P._rows(blocks):
            np.multiply(s[b, None], rows, out=B[b])
            B[b] /= s
            # summed from the row's other entries, 1 - P_ii keeps sqrt(pi) the
            # null vector of B_s - sqrt(pi) sqrt(pi)' to within the entries' own
            # rounding (adding the identity last instead moved K(P^2) of the
            # uniform line1200 by 2.5e-11)
            rows[np.arange(b.stop - b.start), np.arange(b.start, b.stop)] = 0.0
            diag[b] = rows.sum(axis=1) + pi[b]

    def symmetrize(blocks) -> None:
        for b in blocks:  # no block writes another's column strip B[:stop, b]
            low = B[b, :b.stop]
            low += np.ascontiguousarray(B[:b.stop, b]).T
            low *= -0.5
            low += s[b, None] * s[:b.stop]

    def scale(blocks) -> None:
        for b in blocks:  # Z_ij = c_ij s_j / s_i, once every row is mirrored
            B[b] *= s
            B[b] /= s[b, None]

    with _Threads(_block_threads(n)) as threads:
        threads.run(fill, _row_blocks(n))
        threads.run(symmetrize, _row_blocks(n))
        B[np.diag_indices(n)] = diag
        if not _cholesky_inverse(B, threads):
            return None
        _mirror(B, threads)
        threads.run(scale, _row_blocks(n))
    return B


def _mirror(A: np.ndarray, threads: _Threads) -> None:
    """Copy the lower triangle of the square A onto its upper one, by row
    blocks on ``threads``."""

    def mirror(blocks) -> None:
        for b in blocks:  # reads only rows below b, which no block writes
            corner = A[b, b]
            np.copyto(corner, corner.T, where=np.tri(*corner.shape, -1, dtype=bool).T)
            A[b, b.stop:] = np.ascontiguousarray(A[b.stop:, b]).T

    threads.run(mirror, _row_blocks(A.shape[0]))


class _Grounded(NamedTuple):
    """The grounded conductance Laplacian L of a reversible chain, in the
    order of its envelope (see _grounded_system)."""

    perm: np.ndarray  # the state at each position: the interior, the split states, the ground
    blocks: list  # (j0, j1, e) of _envelope_blocks, over the interior
    at: np.ndarray  # flat positions r * n + s, r <= s, of the interior's stored entries
    values: np.ndarray  # L_rs at those positions
    border: np.ndarray  # (b + 1) x (m + b): the border's rows of L and the ground's


_ENVELOPE_BLOCK = 64
"""Rows per diagonal block of _envelope_inverse: the block size that the
reference LAPACK's ILAENV gives dpotrf."""


def _envelope_blocks(first: np.ndarray) -> list[tuple[int, int, int]]:
    """(j0, j1, e) for the diagonal blocks [j0, j1) of _ENVELOPE_BLOCK rows
    of an m x m matrix whose row r has its first entry in column first[r],
    a nondecreasing array: the rows [j1, e) are those below the block that
    reach into it, first[r] < j1."""
    m = first.size
    starts = range(0, m, _ENVELOPE_BLOCK)
    ends = [min(j0 + _ENVELOPE_BLOCK, m) for j0 in starts]
    return list(zip(starts, ends, np.searchsorted(first, ends).tolist()))


def _envelope_flops(blocks) -> float:
    """The flops of _envelope_inverse on ``blocks`` of an m x m envelope."""
    m = blocks[-1][1]
    flops = 0.0
    for j0, j1, e in blocks:
        k, s, t = j1 - j0, e - j1, m - e
        # potrf, trsm and syrk; then trsm, the gemm into G[T, I], symm,
        # potri and the gemm into G[I, I]
        flops += k ** 3 / 3 + k * k * s + k * s * s
        flops += k * k * s + 2 * k * s * t + 2 * k * s * s + 2 * k ** 3 / 3 + 2 * k * k * s
    return flops


def _border_flops(m: int, b: int) -> int:
    """The flops of _border_inverse on an interior of m states and a border
    of b columns, the ground's column beside them: symm 2 m^2 (b + 1),
    syrk m^2 b, the gemm that forms S 2 m b (b + 1) and the two trsm
    2 m b^2."""
    return m * m * (3 * b + 2) + m * b * (4 * b + 2)


def _without_columns(S, states) -> _Arrays:
    """The CSR matrix S with the stored entries of the columns ``states``
    dropped, the others in their order."""
    keep = np.ones(S.shape[0], bool)
    keep[states] = False
    mask = keep[S.indices]
    indptr = np.concatenate([[0], np.cumsum(mask)])[S.indptr].astype(S.indptr.dtype)
    return _Arrays(indptr, S.indices[mask], S.data[mask])


def _split_states(F, Ft) -> np.ndarray | None:
    """The states k of the chain F whose two-step paths i -> k -> j the held
    square F F keeps as copies of k (see _grounded_system), as few as make
    the square without their paths pass _sparse; None where so many would
    be needed that their border alone takes more flops than the dense
    inverse.

    The states are taken by the clique that their paths make in F F (the
    entries of their column times those of their row, the degree squared
    on a symmetric pattern), largest first, ties by index.  Dropping more
    states leaves fewer paths, so the count is bisected between the states
    whose clique alone breaks _sparse, which are tried first, and the
    most, ``top``, whose border stays within the dense inverse's n^3 flops,
    which is tried before the bisection: k split states give a border of
    b >= 2k - 1 columns (_border_flops(n, 2k - 1) <= n^3)."""
    n = F.shape[0]
    size = np.diff(Ft.indptr).astype(np.int64) * np.diff(F.indptr)
    order = np.argsort(-size, kind="stable")
    top = bisect.bisect_right(range(1, n), n ** 3, key=lambda k: _border_flops(n, 2 * k - 1))
    forced = int(np.count_nonzero(size * 32 > n * n))
    low = max(1, forced)

    def sparse_without(k: int) -> bool:
        return _sparse(_square_nnz(F, _without_columns(F, order[:k])), n)

    if low > top:
        return None
    if forced and sparse_without(low):  # the hubs alone, the common case
        return order[:low]
    if not sparse_without(top):
        return None
    return order[:low + bisect.bisect_left(range(low, top), True, key=sparse_without)]


def _copy_conductances(F, Ft, k: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j, c): the states j joined to state k by F's row or column k, and
    the conductances c_jk = (w_j F_jk + w_k F_kj) / 2 of their one-step
    arcs, in the units of w (see _grounded_system)."""
    ends = slice(F.indptr[k], F.indptr[k + 1]), slice(Ft.indptr[k], Ft.indptr[k + 1])
    j = np.union1d(F.indices[ends[0]], Ft.indices[ends[1]])
    at = np.full(j.size, k)
    c = w[j] * _lookup(F, j, at)
    c += w[k] * _lookup(F, at, j)
    c *= 0.5
    return j, c


def _grounded_system(P: StochasticMatrix, pi: np.ndarray) -> _Grounded | None:
    """The grounded conductance Laplacian of the reversible chain P, stored
    as sparse CSR or held as its factor, in the order in which its envelope
    is narrow; None where _envelope_inverse and _border_inverse would take
    more flops than the dense Cholesky inverse.

    The max-pi state, g, is grounded: its row and column go, which leaves
    L positive definite.  The conductances are taken in units of pi_g,
    c_ij = (w_i P_ij + w_j P_ji) / 2 with w = pi / pi_g, on the stored
    entries paired with their transposed ones (_paired), so c_ij and c_ji
    are the same number; L_ij = -c_ij off the diagonal and
    L_ii = sum_{j != i} c_ij, a sum of the row's conductances (csr_matvec),
    never a difference.  In those units a chain with equal pi_i, such as
    the lazy ring or the uniform line, has conductances that are its own
    entries, unrounded: in units of 1, K(P^2) of the uniform line200 was
    2.2e-13 from its spectrum, against 3.2e-14 in units of pi_g.

    A square held as its factor F, P = F F, has a hub whose paths make a
    clique, which is why it is dense.  So its split states H (_split_states)
    keep their paths apart: the states' own conductances are those of the
    paths through the other states, read off F[:, H dropped] F (a CSR
    product of at most n^2 / 32 entries), and each k in H gets a copy k',
    joined to each state j by the conductance c_jk of F's arc
    (_copy_conductances), with the sum of those as its diagonal.  Every
    diagonal is still a sum of conductances, and eliminating the copies
    (a Kron reduction) leaves the grounded Laplacian of F F, since
    pi_i (F F)_ij = sum_k c_ik c_kj / pi_k; so the states' block of the
    larger system's inverse is the G of F F.  A chain stored as CSR has
    no split states and no copies.

    The states other than H and g are the interior, ordered by scipy's
    reverse Cuthill-McKee on the pattern among themselves; the states of
    H other than g follow, then the ground.  Row r's envelope starts at
    its first entry, or at a later row's first entry where that is
    smaller, so that the rows reaching into a block are consecutive
    (_envelope_blocks).  The split states and the copies form a border of
    b = 2 |H| - [g in H] rows (_border_inverse)."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = pi.size
    ground = int(np.argmax(pi))
    w = pi / pi[ground]
    split, copies = np.empty(0, np.intp), []
    if P._held is None:
        U, V = P._paired()
    else:
        F, Ft = P._held
        split = _split_states(F, Ft)
        if split is None:
            return None
        U, V = _paired(_csr_product(_without_columns(F, split), F))
    rows = np.repeat(np.arange(n), np.diff(U.indptr))
    cols = U.indices
    c = w[rows] * U.data
    c += w[cols] * V
    c *= 0.5
    c[rows == cols] = 0.0
    diag = _product(_Arrays(U.indptr, U.indices, c), np.ones(n))
    pattern = U
    if split.size:
        copies = [_copy_conductances(F, Ft, k, w) for k in split.tolist()]
        for j, ck in copies:
            diag[j] += ck
        keep = np.ones(n, bool)
        keep[split] = False
        inner = keep[rows] & keep[cols]
        indptr = np.concatenate([[0], np.cumsum(inner)])[U.indptr]
        pattern = type(F)((U.data[inner], cols[inner], indptr), shape=F.shape)
    order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    outside = np.append(split[split != ground], ground)
    inside = np.ones(n, bool)
    inside[outside] = False
    perm = np.concatenate([order[inside[order]], outside])
    pos = np.empty(n, np.intp)
    pos[perm] = np.arange(n)
    r, s = pos[rows], pos[cols]
    m = n - outside.size
    first = np.arange(n)
    np.minimum.at(first, r, s)
    first = np.minimum.accumulate(first[m - 1::-1])[::-1]
    blocks = _envelope_blocks(first)
    b = outside.size - 1 + split.size
    if _envelope_flops(blocks) + _border_flops(m, b) > float(n) ** 3:
        return None
    upper = (r < s) & (s < m)
    at = np.concatenate([r[upper] * n + s[upper], np.arange(m) * (n + 1)])
    values = np.concatenate([-c[upper], diag[perm[:m]]])
    # the border's rows: the split states' at m..n-2, the copies' from n-1,
    # then the ground's row, without its diagonal
    border = np.zeros((b + 1, m + b))
    if b:
        row = pos - m
        row[ground] = b
        edge = (r >= m) & (s < n - 1) & (rows != cols)
        border[row[rows[edge]], s[edge]] = -c[edge]
        for a, (j, ck) in enumerate(copies, start=n - 1 - m):  # copy a, column m + a
            mine = j != ground
            border[a, pos[j[mine]]] = -ck[mine]
            outer = pos[j] >= m
            border[row[j[outer]], m + a] = -ck[outer]
        t = np.arange(b)
        border[t, m + t] = np.concatenate([diag[perm[m:n - 1]], [ck.sum() for _, ck in copies]])
    return _Grounded(perm, blocks, at, values, border)


def _envelope_inverse(B: np.ndarray, blocks, threads: _Threads) -> bool:
    """Invert in place the symmetric positive definite m x m matrix A whose
    lower triangle, within its envelope, the C-ordered n x n array B holds
    in its leading m x m block as its upper one (LAPACK reads it as the
    lower triangle of A, Fortran-ordered, leading dimension n), leaving
    the lower triangle of A^-1 there; False if LAPACK finds A not positive
    definite.  Entries of that triangle outside the envelope must be 0.

    The factor A = L L' keeps to the envelope: for each diagonal block
    [j0, j1) of ``blocks`` (_envelope_blocks), L_II by dpotrf, the rows
    S = [j1, e) below it that reach into it by dtrsm, and their trailing
    window A[S, S] -= L_SI L_SI' by dsyrk.  Then G = A^-1, bottom-up
    (Takahashi, Fagan and Chin, 1973): since L' G = L^-1 is lower
    triangular, for block I with the rows T = [e, m) beyond S,
    W = L_SI L_II^-1 gives G[T, I] = -G[T, S] W (dgemm), G[S, I] =
    -G[S, S] W (dsymm) and G[I, I] = (L_II L_II')^-1 - W' G[S, I] (dpotri,
    then dgemm): O(m^2 |S|) work instead of m^3.  Above one row block
    (_block_rows(n) < n, which depends on n alone) the dgemm into G[T, I]
    runs as two halves of T on the two ``threads``, the second with the
    dsymm; the rows of each call do not depend on the thread count.

    A block that no later row reaches into (e = j1) and whose A_II is
    diagonal when its turn comes, such as a block of the two-star's
    leaves, needs neither: G[I, I] is the reciprocal of that diagonal."""
    n = B.shape[0]
    m = blocks[-1][1]
    base = B.ctypes.data
    diagonal = set()

    def at(i: int, j: int) -> int:  # the address of A_ij
        return base + B.itemsize * (i + j * n)

    for j0, j1, e in blocks:
        k, s = j1 - j0, e - j1
        if not s and np.count_nonzero(B[j0:j1, j0:j1]) == k:
            d = np.arange(j0, j1)
            if not (B[d, d] > 0).all():
                return False
            diagonal.add(j0)
            continue
        if _call("dpotrf", "L", k, at(j0, j0), n):
            return False
        if s:
            _call("dtrsm", "R", "L", "T", "N", s, k, 1.0, at(j0, j0), n, at(j1, j0), n)
            _call("dsyrk", "L", "N", s, k, -1.0, at(j1, j0), n, 1.0, at(j1, j1), n)
    split = _block_rows(n) < n
    for j0, j1, e in reversed(blocks):
        k, s, t = j1 - j0, e - j1, m - e
        if j0 in diagonal:
            d = np.arange(j0, j1)
            B[d, d] = 1.0 / B[d, d]
            continue
        if s:
            W = np.ascontiguousarray(B[j0:j1, j1:e])  # L_SI, Fortran-ordered s x k
            w = W.ctypes.data
            _call("dtrsm", "R", "L", "N", "N", s, k, 1.0, at(j0, j0), n, w, s)

            def below(start: int, count: int) -> None:  # G[T, I] on rows e + start...
                if count:
                    _call("dgemm", "N", "N", count, k, s, -1.0, at(e + start, j1), n, w, s,
                          0.0, at(e + start, j0), n)

            def beside() -> None:  # G[S, I]
                _call("dsymm", "L", "L", s, k, -1.0, at(j1, j1), n, w, s, 0.0, at(j1, j0), n)

            if split:
                top, rest = _halves(t)
                threads.both(partial(below, *top), lambda: (below(*rest), beside()))
            else:
                below(0, t)
                beside()
        if _call("dpotri", "L", k, at(j0, j0), n):
            return False
        if s:
            _call("dgemm", "T", "N", k, k, s, -1.0, w, s, at(j1, j0), n, 1.0, at(j0, j0), n)
    return True


def _border_inverse(B: np.ndarray, border: np.ndarray, blocks, threads: _Threads) -> bool:
    """Extend in place the inverse A^-1 of the m x m interior, which
    _envelope_inverse left in B from its ``blocks``, to the states' block
    of the inverse of M = [[A, C], [C', E]], whose b border rows [C', E]
    are the first rows of the C-ordered (b + 1) x (m + b) array ``border``
    (the split states' first, the copies' after them; see
    _grounded_system), the last being the ground's row [c', e'] (the
    ground's column, dropped from M).  False if LAPACK finds the Schur
    complement S = E - C' A^-1 C not positive definite.

    In the layout of _envelope_inverse (LAPACK's lower triangle,
    Fortran-ordered with leading dimension n): W = A^-1 [C, c] by dsymm,
    S and its ground column [E, e] - C'W by dgemm, whose terms are all of
    one sign off S's diagonal.  S's diagonal is then the sum of the rest
    of its row, the ground column's included, as the Laplacian that S is
    has rows summing to 0: never a difference, where E - C'A^-1 C would
    lose the small conductance from a border row through the interior to
    the ground.  Then S = L L' by dpotrf; X = W L'^-1 by dtrsm and
    A^-1 += X X' (_rank_update, on the two ``threads``), which gives M^-1's
    interior block A^-1 + W S^-1 W'; W S^-1 = X L^-1 by dtrsm, and S^-1 by
    dpotri.  The split states' rows, n - 1 - m of them, then take -W S^-1
    and S^-1 on their columns; the copies' rows are not kept.  A block
    that no later row reaches into (e = j1) ends a diagonal block of A, and
    so of A^-1, so W takes one dsymm per such block: the two-star's
    interior, its leaves, is diagonal.  A^-1 >= 0, C <= 0 and c <= 0, and
    L is an M-matrix, so L^-1 >= 0: W and X are <= 0, and every sum of the
    update adds terms of one sign."""
    n = B.shape[0]
    b, width = border.shape[0] - 1, border.shape[1]
    m = width - b
    if not b:
        return True
    W = np.empty((b + 1, n))  # Fortran n x (b + 1), its first m rows used
    S = border[:, m:].copy()  # [E, e], Fortran b x (b + 1)
    base, c, w, e = B.ctypes.data, border.ctypes.data, W.ctypes.data, S.ctypes.data
    size = B.itemsize
    start = 0
    for _, j1, reach in blocks:
        if reach == j1:  # W[start:j1] = A^-1[start:j1, start:j1] [C, c][start:j1]
            at = size * start
            _call("dsymm", "L", "L", j1 - start, b + 1, 1.0, base + at * (n + 1), n, c + at,
                  width, 0.0, w + at, n)
            start = j1
    _call("dgemm", "T", "N", b, b + 1, m, -1.0, c, width, w, n, 1.0, e, b)
    d = np.arange(b)
    S[d, d] = 0.0
    S[d, d] = -S.sum(axis=0)
    if _call("dpotrf", "L", b, e, b):
        return False
    _call("dtrsm", "R", "L", "T", "N", m, b, 1.0, e, b, w, n)
    _rank_update(threads, "N", 1.0, m, b, lambda i: w + size * i,
                 lambda i, j: base + size * (i + j * n), n, uplo="L")
    _call("dtrsm", "R", "L", "N", "N", m, b, 1.0, e, b, w, n)
    if _call("dpotri", "L", b, e, b):
        return False
    split = n - 1 - m
    np.negative(W[:split, :m].T, out=B[:m, m:m + split])
    B[m:m + split, m:m + split] = S[:split, :split]
    return True


def _move_rows(B: np.ndarray, source: np.ndarray) -> None:
    """B[i] = B[source[i]] for every row i in place, ``source`` a
    permutation: by one gather where B is at most a row block, else row by
    row along the cycles of i -> source[i], a group of short cycles by one
    gather and one scatter of at most a row block, a long cycle a row block
    at a time from a copy of its first row."""
    n = B.shape[0]
    step = _block_rows(n)
    if n <= step:  # the whole array is one row block
        B[:] = B[source]
        return
    nxt = source.tolist()
    done = [False] * n
    group = []
    for i0 in range(n):
        if done[i0] or nxt[i0] == i0:
            continue
        cycle = [i0]
        while nxt[cycle[-1]] != i0:
            cycle.append(nxt[cycle[-1]])
        for i in cycle:
            done[i] = True
        if group and len(group) + len(cycle) > step:
            B[group] = B[source[group]]
            group = []
        if len(cycle) <= step:
            group += cycle
            continue
        head, last = B[i0].copy(), len(cycle) - 1
        for t in range(0, last, step):
            end = min(t + step, last)
            B[cycle[t:end]] = B[cycle[t + 1:end + 1]]
        B[cycle[last]] = head
    if group:
        B[group] = B[source[group]]


def _grounded_z(pi: np.ndarray, system: _Grounded) -> np.ndarray | None:
    """Z of a reversible chain from its grounded conductance Laplacian
    (_grounded_system), in one n x n buffer; None if not positive definite.

    G, the inverse of the grounded Laplacian L, padded with a zero row and
    column at the ground, gives Z = (I - 1 pi') G D_pi (I - 1 pi') + 1 pi'.
    L is taken in units of the ground's pi_g, so the buffer holds
    G' = pi_g G, and with w = pi / pi_g and v = G' pi that reads
    Z_ij = w_j (G'_ij - v_i - v_j + pi'v + pi_g).  The interior of the
    Laplacian is scattered into the zeroed buffer and inverted within its
    envelope (_envelope_inverse), a border of split states and their copies
    is applied around it (_border_inverse), and G' is mirrored onto its
    other triangle, still in the envelope's order.  v is taken there by row blocks; then one pass of row
    blocks gathers each row's columns into the states' order and writes
    that formula, and _move_rows puts the rows in the states' order.  Every
    pass runs its blocks on the same _Threads as the inversion."""
    n = pi.size
    perm = system.perm
    top = pi[perm[-1]]
    w = pi / top
    pos = np.empty(n, np.intp)
    pos[perm] = np.arange(n)
    B = np.zeros((n, n))
    B.ravel()[system.at] = system.values
    held = pi[perm]  # pi in the envelope's order
    v = np.empty(n)

    def times_pi(blocks) -> None:
        for b in blocks:
            np.matmul(B[b], held, out=v[b])

    def scale(blocks) -> None:
        buf = np.empty(min(_block_rows(n), n) * n)
        for b in blocks:
            rows = buf[:(b.stop - b.start) * n].reshape(-1, n)
            # every index is in range: "clip" only spares take a buffered copy
            np.take(B[b], pos, axis=1, out=rows, mode="clip")
            rows += t
            rows -= v[b, None]
            np.multiply(rows, w, out=B[b])

    with _Threads(_block_threads(n)) as threads:
        if not (_envelope_inverse(B, system.blocks, threads)
                and _border_inverse(B, system.border, system.blocks, threads)):
            return None
        _mirror(B.T, threads)
        threads.run(times_pi, _row_blocks(n))
        t = (float(held @ v) + top) - v[pos]
        threads.run(scale, _row_blocks(n))
    _move_rows(B, pos)
    return B


def _hitting_residual(P: StochasticMatrix, Z: np.ndarray, pi: np.ndarray) -> float:
    """max over i != j of |H_ij - (P H)_ij - 1| for H_ij = (Z_jj - Z_ij) / pi_j,
    without building H.

    That residual is |X_ij - 1| for X_ij = ((1 - (P 1)_i) Z_jj + (P Z)_ij
    - Z_ij) / pi_j, so the product P Z is the whole cost; a block of X is
    read by its largest and smallest entries, with X_ii set to 1, and only
    rows with (P 1)_i != 1 take the first term.  A sparse
    chain applies its sparse factors (P's own CSR, or P's CSR F twice for
    P = F F) to contiguous copies of column blocks of Z, F (F Z[:, c]); a
    dense chain takes dense row blocks P[b] Z, an n^3 product.  A CSR
    product sums each column on its own, in nnz order, so the column blocks
    give the numbers of the full product F (F Z).  The blocks run on
    _Threads, and the residual is the largest of their maxima.
    """
    z = np.diag(Z)

    def worst_of(X, Z_part, slack, z_part, pi_part, diag) -> float:
        X -= Z_part
        tilted = np.flatnonzero(slack)  # a row summing to exactly 1 adds 0
        X[tilted] += slack[tilted, None] * z_part
        X /= pi_part
        X[diag] = 1.0
        return max(float(X.max()) - 1.0, 1.0 - float(X.min()))

    def times_p(X):
        for F in reversed(P._factors):
            X = _product(F, X)
        return X

    def dense(blocks) -> float:
        worst = 0.0
        for b, rows in _dense_blocks(P._csr, blocks=blocks):
            slack = 1.0 - rows.sum(axis=1)
            diag = (np.arange(b.stop - b.start), np.arange(b.start, b.stop))
            worst = max(worst, worst_of(rows @ Z, Z[b], slack, z, pi, diag))
        return worst

    def strips(blocks) -> float:
        worst = 0.0
        for c in blocks:
            diag = (np.arange(c.start, c.stop), np.arange(c.stop - c.start))
            Zc = np.ascontiguousarray(Z[:, c])
            worst = max(worst, worst_of(times_p(Zc), Zc, slack, z[c], pi[c], diag))
        return worst

    if P._factors is not None:
        slack = 1.0 - times_p(np.ones(pi.size))
    with _Threads(_block_threads(pi.size)) as threads:
        return max(threads.run(dense if P._factors is None else strips, _row_blocks(pi.size)))


def _fundamental_matrix(P: StochasticMatrix) -> np.ndarray:
    """Z of an irreducible chain, once its cached hitting-equation residual
    passes ``tolerances.HITTING_RESIDUAL_TOL * n``."""
    if not P.irreducible:
        raise NotIrreducible("hitting times need an irreducible chain")
    Z, worst = P._fundamental
    allowed = tol.HITTING_RESIDUAL_TOL * P.n
    if worst > allowed:
        raise SingularSystem(f"hitting-time residual {worst:.3e} exceeds {allowed:.3e}")
    return Z


# =====================================================================
# chains from graphs
# =====================================================================

def _graph_chain(g: Graph, arcs: np.ndarray, diag: np.ndarray) -> StochasticMatrix:
    """The chain with P[i,j] = arcs[0, k] and P[j,i] = arcs[1, k] on the k-th
    edge (i, j) of g, and P[i,i] = diag[i]: every chain of a graph, built as
    CSR from its arcs by scipy's COO-to-CSR conversion, which sorts each row
    and keeps int32 indices.  A per-node rule of the degrees d reads d[e.T].
    The breadth-first tree the chain caches is grown first: it checks that g
    is connected (every edge is an arc both ways, so the chain is irreducible)
    before the row sums are, which an isolated node's row can fail."""
    from scipy.sparse import csr_matrix

    n, e = g.n, g.edges
    loops = np.flatnonzero(diag).astype(np.int32)  # no stored zeros
    tails = np.concatenate([e[:, 0], e[:, 1], loops])
    heads = np.concatenate([e[:, 1], e[:, 0], loops])
    values = np.concatenate([arcs[0], arcs[1], diag[loops]])
    S = csr_matrix((values, (tails, heads)), shape=(n, n))
    tree = _breadth_first(S)
    if tree[0].size < n:
        raise DisconnectedGraph(f"graph {g.family} is not connected")
    P = StochasticMatrix(S, _owned=True)
    P._bfs_tree, P.irreducible = tree, True  # seed the cached properties
    return P


def simple_walk_matrix(g: Graph) -> StochasticMatrix:
    """P[i,j] = 1/d(i) on edges of a connected graph with n >= 2.

    Periodic (hence unusable for steady-state formulas) exactly when the
    graph is bipartite.
    """
    if g.n < 2:
        raise InvalidParam("simple random walk needs n >= 2")
    return _graph_chain(g, 1.0 / g.degrees()[g.edges.T], np.zeros(g.n))


def lazy_walk_matrix(g: Graph) -> StochasticMatrix:
    """(1/2) I + (1/2) simple walk; stationary law d(i)/(2m).

    The single-node graph gets the trivial chain [[1]].
    """
    if g.n == 1:
        return StochasticMatrix([[1.0]])
    return _graph_chain(g, 0.5 / g.degrees()[g.edges.T], np.full(g.n, 0.5))


def uniform_edge_matrix(g: Graph, eps: float | None = None) -> StochasticMatrix:
    """Symmetric walk: weight eps on every edge, 1 - eps*d(i) on the diagonal.

    Defaults to eps = 1/(2 * max degree), which keeps every diagonal entry
    >= 1/2; any eps < 1/max_degree is accepted.  That default is also the
    default formation weight.  Coincides with the lazy walk when the graph
    is regular.
    """
    if g.n == 1:
        return StochasticMatrix([[1.0]])
    if g.m == 0:  # no edge to weigh, and n >= 2 nodes that none joins
        raise DisconnectedGraph(f"graph {g.family} is not connected")
    d = g.degrees()
    dmax = int(d.max())
    if eps is None:
        eps = 1.0 / (2.0 * dmax)
    if not (0.0 < eps < 1.0 / dmax):
        raise InvalidParam(
            f"edge weight must satisfy 0 < eps < 1/max_degree = {1.0 / dmax:g}, got {eps}"
        )
    return _graph_chain(g, np.full((2, g.m), eps, dtype=float), 1.0 - eps * d)


# =====================================================================
# hitting times
# =====================================================================

def hitting_times(P: StochasticMatrix) -> np.ndarray:
    """Matrix of expected hitting times H[i, j] = E_i[time to reach j].

    H[i,j] = (Z[j,j] - Z[i,j]) / pi[j] (Kemeny & Snell) with the
    fundamental matrix Z = (I - P + 1 pi')^-1 cached on ``P``, verified
    against the defining equations ``H[i,j] = 1 + sum_k P[i,k] H[k,j]``
    (i != j, H[j,j] = 0) with residual tolerance
    ``tolerances.HITTING_RESIDUAL_TOL * n``.  An aperiodic ``P`` reads Z
    off Z(P^2), which it builds and checks first, as
    Z(P^2) + P Z(P^2) - 1 pi'; so asking for H of such a chain costs P^2
    and Z(P^2) as well.  A squared or periodic chain inverts directly: a
    reversible one stored as sparse CSR, or held as its factor with hubs
    whose paths split off as copies, through the inverse of its grounded
    conductance Laplacian within its reverse Cuthill-McKee envelope (with
    the hubs' rows and copies as a Schur border), any other reversible one
    by the Cholesky inverse of its symmetrized form, and any other chain by
    an LU solve.  The residual
    is evaluated from Z through the product P Z and cached with it, so
    later calls only check it again; H itself is built from Z on the first
    call and cached too.  The returned array is read-only.

    The tests referee this route with one LU solve per target, which never
    reads Z (``per_target_hitting_times`` in ``tests/referees.py``).

    Parameters
    ----------
    P : StochasticMatrix
        Must be irreducible.
    """
    _fundamental_matrix(P)
    return P._hitting


def square_chain(P: StochasticMatrix) -> StochasticMatrix:
    """The two-step chain P @ P, built once and cached on ``P``."""
    return P._square


# =====================================================================
# Kemeny constant and resistance
# =====================================================================

def kemeny_constant_combinatorial(P: StochasticMatrix) -> float:
    """K = sum_j pi_j H(i -> j) = tr Z - 1, with Z the fundamental matrix.

    From start i the sum is tr Z - (Z 1)_i, so its start-independence is
    checked as max_i |(Z 1)_i - 1| <= RANDOM_TARGET_TOL * (1 + K): a
    residual check on the solve, not an independent referee.  A violation
    raises RandomTargetViolation.
    """
    Z = _fundamental_matrix(P)
    K = float(np.trace(Z)) - 1.0
    dev = float(np.abs(Z.sum(axis=1) - 1.0).max())
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
    definition here, read off the fundamental matrix by
    _resistance_blocks, so no H is built (the values equal H + H' bit for
    bit).  Requires reversibility.
    """
    Z, pi = _reversible_z(P)
    R = np.empty((P.n, P.n))

    def fill(b, rows) -> None:
        R[b, :b.stop] = rows

    with _Threads(_block_threads(P.n)) as threads:
        _resistance_blocks(Z, pi, threads, fill)
        _mirror(R, threads)
    return R


def _max_resistance(P: StochasticMatrix) -> float:
    """max_ij R_ij of :func:`effective_resistance`, without an n x n R."""
    Z, pi = _reversible_z(P)
    with _Threads(_block_threads(P.n)) as threads:
        return max(_resistance_blocks(Z, pi, threads, lambda b, rows: float(rows.max())))


def _resistance_blocks(Z: np.ndarray, pi: np.ndarray, threads: _Threads, use) -> list:
    """use(b, R[b, :b.stop]) for the row blocks b, on ``threads``, with
    R_ij = (Z_jj - Z_ij) / pi_j + (Z_ii - Z_ji) / pi_i, the one reader of R;
    the results, in no fixed order.

    R = H + H' is symmetric bit for bit, since its two terms are added in
    either order, so the i >= j triangle holds all of it: row block b takes
    H[b, :stop] + H[:stop, b]' from the rows Z[b] and one contiguous copy
    of the column strip Z[:stop, b].
    """
    z = np.diag(Z)

    def work(blocks) -> list:
        results = []
        for b in blocks:
            H_col = z[b] - Z[:b.stop, b]
            H_col /= pi[b]
            rows = z[:b.stop] - Z[b, :b.stop]
            rows /= pi[:b.stop]
            rows += H_col.T
            results.append(use(b, rows))
        return results

    return [r for part in threads.run(work, _row_blocks(pi.size)) for r in part]


def _reversible_z(P: StochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Z and pi of a reversible chain; raises NotReversible on any other."""
    if not P.reversible:
        raise NotReversible("effective resistance needs a reversible chain")
    return _fundamental_matrix(P), P.stationary()
