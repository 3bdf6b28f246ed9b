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

Every chain stores its entries as CSR, and its square stays CSR too.
Every chain built from a graph is reversible, and reversible chains take a
fast route: pi by detailed balance along a breadth-first tree (O(nnz) with
its check), P^2 by a sparse product that inherits pi, and the fundamental
matrix Z = (I - P + 1 pi')^-1 of P^2 by a Cholesky inversion of its
symmetrized form.  Other chains take LU solves.  An aperiodic chain reads
its own Z off Z(P^2) by one sparse product, Z = Z(P^2) + P Z(P^2) - 1 pi',
so only P^2, or a periodic chain, is inverted.  H, K and R are all read
off Z, and H is only built when asked for; the O(n^2) passes over Z read
it by contiguous row blocks and column strips.
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

    def __init__(self, entries, *, _owned: bool = False):
        # _owned: entries is a CSR matrix built for this chain alone, with
        # sorted indices, no duplicates and no stored zeros; it is validated
        # but neither copied nor re-sorted (see _graph_chain and _square)
        from scipy.sparse import csr_matrix

        if _owned:
            S, dense = entries, None
        elif hasattr(entries, "tocsr"):
            S, dense = entries.tocsr(copy=True).astype(float, copy=False), None
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
        worst = float(np.abs(S @ np.ones(S.shape[0]) - 1.0).max())
        if worst > tol.ROW_SUM_TOL:
            raise InvalidParam(
                f"rows must sum to 1 within {tol.ROW_SUM_TOL:g} (worst deviation {worst:.3e})"
            )
        self._csr = S
        self._dense = dense
        # sparse matrices whose product is P, for the hitting residual; None
        # for a dense P
        self._factors = (S,) if S.nnz * 32 <= S.shape[0] ** 2 else None
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
        return self._csr.shape[0]

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
        one breadth-first search from state 0.
        """
        if not self.irreducible:
            return False
        S = self._csr
        if np.any(S.diagonal() > 0):
            return True
        order, pred = self._bfs_tree
        level, parent = [0] * self.n, pred.tolist()
        for j in order[1:].tolist():  # the tree order puts a parent first
            level[j] = level[parent[j]] + 1
        level = np.array(level)
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
        paired = self._paired()
        pi = hint if hint is not None else self._tree_stationary(paired)
        balanced = pi is not None and self._detailed_balance(pi, paired)
        if hint is None and not balanced:
            pi, resid = self._lu_stationary()
            return pi, resid, self._detailed_balance(pi, paired)
        piP = self._csr.T @ pi  # summed over the stored entries in order, with no copy of them
        return pi, float(np.abs(piP - pi).max()), balanced

    @cached_property
    def _bfs_tree(self) -> tuple[np.ndarray, np.ndarray]:
        return _breadth_first(self._csr)

    def _tree_stationary(self, paired) -> np.ndarray | None:
        """pi_j = pi_i P_ij / P_ji along a breadth-first tree from state 0,
        normalized; None where an arc has no reverse arc or pi degenerates.
        P_ij and P_ji are read from the pairs of _paired."""
        order, pred = self._bfs_tree
        forth, back = np.zeros(self.n), np.zeros(self.n)  # P[pred[j], j] and P[j, pred[j]]
        for i, j, p, q in _pairs(*paired):
            arc = pred[j] == i
            forth[j[arc]] = p[arc]
            back[j[arc]] = q[arc]
        child = order[1:]
        if np.any(back[child] <= 0):
            return None
        pi = [0.0] * self.n
        pi[0] = 1.0
        for j, i, r in zip(child.tolist(), pred[child].tolist(),
                           (forth[child] / back[child]).tolist()):
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
        """(U, V): the entries on the union of the pattern and its transpose,
        as a CSR matrix U, and for each stored entry (i, j) of U the entry
        U[j, i] at the same position of the array V.  Not cached: V is as
        large as the entries, so a check makes it and drops it.

        U is the chain's own CSR matrix when its pattern is symmetric, as the
        pattern of every graph chain and of its square is; any other pattern
        gets explicit zeros on the transposed pattern.  So P_ij and P_ji are
        read for every pair where either is nonzero, and their products and
        differences are those of the dense arrays P and P'.
        """
        from scipy.sparse import coo_matrix

        S = self._csr
        V = _transposed_data(S)
        if V is None:
            rows = np.repeat(np.arange(self.n), np.diff(S.indptr))
            S = coo_matrix((np.concatenate([S.data, np.zeros(S.nnz)]),
                            (np.concatenate([rows, S.indices]), np.concatenate([S.indices, rows]))),
                           shape=S.shape).tocsr()  # duplicates summed, the zeros kept
            V = _transposed_data(S)
        return S, V

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
        """P @ P by a sparse product, kept sparse; it inherits pi, since
        pi' P^2 = pi', and a sparse P's factors twice, so that its hitting
        residual never multiplies by the denser P^2 (see _hitting_residual)."""
        S = self._csr
        C = S @ S  # no duplicates and no stored zeros, but unsorted
        C.sort_indices()
        Q = StochasticMatrix(C, _owned=True)
        Q._squared = True
        if self.irreducible:
            Q._pi_hint = self._stationary[0]
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
        directly: Cholesky for a reversible chain, LU otherwise.
        """
        pi = self.stationary()
        if self.aperiodic and not self._squared:
            Z2 = _fundamental_matrix(self._square)
            if self._factors is not None:
                Z = self._csr @ Z2
            else:
                Z = np.empty_like(Z2)
                for b, rows in _dense_blocks(self._csr):
                    np.matmul(rows, Z2, out=Z[b])
            Z += Z2
            Z -= pi
        else:
            Z = _fundamental_cholesky(self, pi) if self.reversible else None
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


def _row_blocks(n: int):
    """Slices of consecutive rows, about _BLOCK entries of an n-column array
    each."""
    step = max(1, _BLOCK // n)
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
    of _stored, with V from StochasticMatrix._paired."""
    ptr = U.indptr
    for b, i, j, p in _stored(U):
        yield i, j, p, V[ptr[b.start]:ptr[b.stop]]


def _transposed_data(S) -> np.ndarray | None:
    """The entries S[j, i] in the order of the stored entries (i, j) of the
    canonical CSR matrix S; None if some (j, i) is not stored."""
    T = S.tocsc()  # the arrays of S' in CSR
    if np.array_equal(T.indptr, S.indptr) and np.array_equal(T.indices, S.indices):
        return T.data
    return None


def _dense_blocks(S):
    """For each slice b of ``_row_blocks(n)``, the dense rows S[b] of the
    CSR matrix S, scattered into one zeroed buffer and cleared from it entry
    by entry once the caller asks for the next block.  Each block holds
    exactly the values of that slice of the dense array, so a pass over the
    blocks gives the numbers of the same pass over the dense matrix.
    """
    n = S.shape[1]
    ptr = S.indptr
    blocks = list(_row_blocks(S.shape[0]))
    buf = np.zeros((blocks[0].stop - blocks[0].start) * n)  # the first block is the largest
    for b in blocks:
        k = slice(ptr[b.start], ptr[b.stop])
        at = np.repeat(np.arange(0, (b.stop - b.start) * n, n), np.diff(ptr[b.start:b.stop + 1]))
        at += S.indices[k]
        buf[at] = S.data[k]
        yield b, buf[:(b.stop - b.start) * n].reshape(-1, n)
        buf[at] = 0.0


def _fundamental_cholesky(P: StochasticMatrix, pi: np.ndarray) -> np.ndarray | None:
    """Z of a reversible chain, in one n x n buffer; None if not positive definite.

    B_s = I - D^{1/2} P D^{-1/2} + sqrt(pi) sqrt(pi)' (D = diag(pi)) is
    symmetric positive definite, and Z = D^{-1/2} B_s^-1 D^{1/2}.  The
    zeroed buffer takes A = D^{1/2} P D^{-1/2} on P's stored entries, and
    one pass of row blocks then writes the lower triangle
    (A_ij + A_ji) * -0.5 + sqrt(pi_i) sqrt(pi_j) from the rows and one
    contiguous copy of the column strip: the numbers of the same formula on
    the dense arrays, with no copy of the entries.  The diagonal entries
    1 - P_ii are summed from each dense row's other entries.  LAPACK potrf
    and potri then factor and invert the lower triangle in place, and one
    pass of row blocks mirrors it onto the upper triangle and scales it.
    """
    from scipy.linalg import lapack

    n = pi.size
    s = np.sqrt(pi)
    B = np.zeros((n, n))
    flat = B.ravel()
    for _, i, j, p in _stored(P._csr):
        flat[i * n + j] = s[i] * p / s[j]
    for b in _row_blocks(n):  # no earlier block wrote the column strip B[:stop, b]
        low = B[b, :b.stop]
        low += np.ascontiguousarray(B[:b.stop, b]).T
        low *= -0.5
        low += s[b, None] * s[:b.stop]
    diag = np.empty(n)
    for b, rows in _dense_blocks(P._csr):
        # summed from the row's other entries, 1 - P_ii keeps sqrt(pi) the null
        # vector of B_s - sqrt(pi) sqrt(pi)' to within the entries' own rounding
        # (adding the identity last instead moved K(P^2) of the uniform
        # line1200 by 2.5e-11)
        rows[np.arange(b.stop - b.start), np.arange(b.start, b.stop)] = 0.0
        diag[b] = rows.sum(axis=1) + pi[b]
    B[np.diag_indices(n)] = diag
    # B.T is the Fortran-ordered view of B, and its upper triangle is B's
    # lower one, so LAPACK factors and inverts that triangle in place,
    # leaving the lower triangle of Z = c.T
    c, info = lapack.dpotrf(B.T, lower=False, overwrite_a=True, clean=False)
    if info == 0:
        c, info = lapack.dpotri(c, lower=False, overwrite_c=True)
    if info != 0:
        return None
    Z = c.T
    for b in _row_blocks(n):  # rows b: mirrored, then Z_ij = c_ij s_j / s_i
        corner = Z[b, b]
        np.copyto(corner, corner.T, where=np.tri(*corner.shape, -1, dtype=bool).T)
        Z[b, b.stop:] = np.ascontiguousarray(Z[b.stop:, b]).T
        Z[b] *= s
        Z[b] /= s[b, None]
    return Z


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
    give the numbers of the full product F (F Z).
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
            X = F @ X
        return X

    worst = 0.0
    if P._factors is None:
        for b, rows in _dense_blocks(P._csr):
            slack = 1.0 - rows.sum(axis=1)
            diag = (np.arange(b.stop - b.start), np.arange(b.start, b.stop))
            worst = max(worst, worst_of(rows @ Z, Z[b], slack, z, pi, diag))
        return worst
    slack = 1.0 - times_p(np.ones(pi.size))
    for c in _row_blocks(pi.size):
        diag = (np.arange(c.start, c.stop), np.arange(c.stop - c.start))
        Zc = np.ascontiguousarray(Z[:, c])
        worst = max(worst, worst_of(times_p(Zc), Zc, slack, z[c], pi[c], diag))
    return worst


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
    CSR straight from its edges.  A per-node rule of the degrees d reads d[e.T].
    The breadth-first tree the chain caches is grown first: it checks that g
    is connected (every edge is an arc both ways, so the chain is irreducible)
    before the row sums are, which an isolated node's row can fail."""
    from scipy.sparse import csr_matrix

    n, e = g.n, g.edges
    loops = np.flatnonzero(diag).astype(np.int32)  # no stored zeros
    tails = np.concatenate([e[:, 0], e[:, 1], loops])
    heads = np.concatenate([e[:, 1], e[:, 0], loops])
    values = np.concatenate([arcs[0], arcs[1], diag[loops]])
    order = np.lexsort((heads, tails))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    S = csr_matrix((values[order], heads[order], indptr), shape=(n, n))
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
    and Z(P^2) as well.  A squared or periodic chain inverts directly:
    Cholesky for a reversible chain, an LU solve otherwise.  The residual
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
    R = np.empty((P.n, P.n))
    for b, rows in _resistance_blocks(P):
        R[b, :b.stop] = rows
    for b in _row_blocks(P.n):
        R[b, b.stop:] = R[b.stop:, b].T
    return R


def _max_resistance(P: StochasticMatrix) -> float:
    """max_ij R_ij of :func:`effective_resistance`, without an n x n R."""
    return max(float(rows.max()) for _, rows in _resistance_blocks(P))


def _resistance_blocks(P: StochasticMatrix):
    """(b, R[b, :b.stop]) for the row blocks b, with
    R_ij = (Z_jj - Z_ij) / pi_j + (Z_ii - Z_ji) / pi_i, the one reader of R.

    R = H + H' is symmetric bit for bit, since its two terms are added in
    either order, so the i >= j triangle holds all of it: row block b takes
    H[b, :stop] + H[:stop, b]' from the rows Z[b] and one contiguous copy
    of the column strip Z[:stop, b].
    """
    Z, pi = _reversible_z(P)
    z = np.diag(Z)
    for b in _row_blocks(P.n):
        H_col = z[b] - Z[:b.stop, b]
        H_col /= pi[b]
        rows = z[:b.stop] - Z[b, :b.stop]
        rows /= pi[:b.stop]
        rows += H_col.T
        yield b, rows


def _reversible_z(P: StochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Z and pi of a reversible chain; raises NotReversible on any other."""
    if not P.reversible:
        raise NotReversible("effective resistance needs a reversible chain")
    return _fundamental_matrix(P), P.stationary()
