"""Steady-state disagreement of noisy linear consensus.

The recursion x(t+1) = P x(t) + w(t), with P row-stochastic and w zero-mean
noise of covariance Sigma_w, never agrees: the error around the conserved
weighted average keeps a steady-state spread.  The weighted disagreement

    delta_ss = limsup_t  sum_i pi_i E[(x_i(t) - pi' x(t))^2]

has a closed form for reversible chains in terms of hitting times of the
*squared* chain:

    delta_ss = pi' H D Sigma_w D 1  -  Tr(H D Sigma_w D),
    H = hitting_times(P^2),  D = diag(pi).

With H_ij = (Z_jj - Z_ij) / pi_j (Kemeny & Snell), Z the fundamental
matrix of P^2, and pi' Z = pi', it reads delta_ss = Tr((Z - 1 pi') Sigma_w D),
and that is how it is evaluated: O(n) for diagonal noise once Z is known,
O(n^2) for a full covariance, with no hitting-time matrix built.  The
tests referee it with the hitting-time form above, H from per-target solves
(``per_target_hitting_times`` in ``tests/referees.py``).

This module implements that closed form, its covariance companion, its
specializations for equal-variance noise on symmetric chains (Kemeny
constant, spectrum, effective resistances), the uniform-disagreement
sandwich, and an independent oracle that sums the error-covariance
recursion by doubling, with a probe that steps the same recursion one step
at a time.
The uniform disagreement delta_uni (plain average instead of pi-weighted)
is bracketed by delta_ss/(n pi_max) <= delta_uni <= delta_ss/(n pi_min).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import (
    DimensionMismatch,
    InvalidParam,
    NoConvergence,
    NotIrreducible,
    NotReversible,
    NotSymmetric,
)
from .markov import (
    StochasticMatrix,
    _fundamental_matrix,
    effective_resistance,
    kemeny_constant_combinatorial,
    square_chain,
)

__all__ = [
    "NoiseCovariance",
    "DisagreementReport",
    "SteadyStateCovariance",
    "JPropertyReport",
    "delta_ss_theorem",
    "delta_ss_kemeny",
    "delta_ss_spectral",
    "delta_ss_resistance",
    "delta_uni_bounds",
    "delta_oracle",
    "divergence_probe",
    "sigma_hat",
    "j_matrix",
    "check_j_properties",
]


# =====================================================================
# noise covariance
# =====================================================================

class NoiseCovariance:
    """Per-step noise covariance, kind-tagged: diagonal or full.

    Construct through the factories :meth:`scalar` (a diagonal with equal
    entries), :meth:`diagonal` and :meth:`full`.  Full matrices must be
    symmetric and positive semidefinite; PSD is checked by a Cholesky of
    Sigma + eps*I with eps = PSD_SHIFT_SCALE * trace / n.
    """

    def __init__(self, kind: str, n: int, data: np.ndarray):
        self._kind = kind
        self._n = n
        self._data = data
        self._factor: np.ndarray | None = None

    @classmethod
    def scalar(cls, n: int, sigma2: float) -> "NoiseCovariance":
        if n < 1:
            raise InvalidParam(f"need n >= 1, got {n}")
        return cls.diagonal(np.full(n, float(sigma2)))

    @classmethod
    def diagonal(cls, variances) -> "NoiseCovariance":
        v = np.array(variances, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidParam("diagonal noise needs a 1-d variance vector")
        _require_variances(v)
        v.setflags(write=False)
        return cls("diagonal", v.size, v)

    @classmethod
    def full(cls, matrix) -> "NoiseCovariance":
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParam(f"full covariance must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidParam("covariance entries must be finite")
        n = m.shape[0]
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > tolerances.SYMMETRY_RTOL * scale:
            raise InvalidParam("covariance must be symmetric")
        m = 0.5 * (m + m.T)
        tr = float(np.trace(m))
        if tr < 0:
            raise InvalidParam("covariance has negative trace")
        if tr == 0.0:
            if np.abs(m).max() > 0.0:
                raise InvalidParam("zero-trace covariance must be the zero matrix")
        else:
            shift = tolerances.PSD_SHIFT_SCALE * tr / n
            try:
                np.linalg.cholesky(m + shift * np.eye(n))
            except np.linalg.LinAlgError:
                raise InvalidParam(
                    "covariance is not positive semidefinite (shifted Cholesky failed)"
                ) from None
        m.setflags(write=False)
        return cls("full", n, m)

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_diagonal(self) -> bool:
        return self._kind != "full"

    def matrix(self) -> np.ndarray:
        """Dense (n, n) covariance."""
        if self._kind == "diagonal":
            return np.diag(self._data)
        return np.array(self._data)

    def variances(self) -> np.ndarray:
        """Diagonal of the covariance."""
        if self._kind == "diagonal":
            return np.array(self._data)
        return np.diag(self._data).copy()

    def equal_variance(self) -> float | None:
        """sigma^2 if the covariance is exactly sigma^2 * I, else None."""
        if self._kind == "diagonal":
            v = self._data
            if np.all(v == v[0]):
                return float(v[0])
        return None

    def sampling_factor(self) -> np.ndarray:
        """A factor L with L L' = Sigma, for drawing correlated noise.

        Built from the symmetric eigendecomposition so that PSD-singular
        covariances (rank deficient) work too.  Only meaningful for the
        ``full`` kind; the diagonal kind uses sqrt(variances) directly.
        """
        if self._kind != "full":
            raise InvalidParam("sampling_factor is for full covariances")
        if self._factor is None:
            w, v = np.linalg.eigh(self._data)
            w = np.clip(w, 0.0, None)
            self._factor = v * np.sqrt(w)[None, :]
        return self._factor

    def __repr__(self) -> str:
        return f"NoiseCovariance(kind={self._kind!r}, n={self._n})"


def _require_variances(values, what: str = "variances") -> None:
    """The one rule for every noise variance the package takes: each value
    finite and >= 0, else InvalidParam."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise InvalidParam(f"{what} must be finite and >= 0")


def _check_noise(P: StochasticMatrix, noise: NoiseCovariance) -> None:
    if noise.n != P.n:
        raise DimensionMismatch(
            f"noise covariance is {noise.n}-dimensional but the chain has {P.n} states"
        )


# =====================================================================
# reports
# =====================================================================

@dataclass
class DisagreementReport:
    """Weighted disagreement plus the sandwich on its uniform counterpart."""

    delta_ss: float
    delta_uni_lower: float
    delta_uni_upper: float
    method: str
    delta_uni_exact: float | None = None
    n: int | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SteadyStateCovariance:
    """Converged error covariance with iteration diagnostics."""

    matrix: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class JPropertyReport:
    """Violations of the projector identities around J = 1 pi'."""

    violations: dict
    rho: float

    def max_violation(self) -> float:
        return max(self.violations.values())

    def ok(self) -> bool:
        return self.max_violation() <= tolerances.J_IDENTITY_TOL and self.rho < 1.0


def _finite(value, what: str) -> float:
    """``value`` as a float, once it is finite.  Every input is finite, so
    a result past float64's range means the noise variances are too large
    for it: InvalidParam (exit code 2), never an inf or a NaN.  A product
    of Python floats overflows to inf quietly; numpy's warn, so the callers
    that use numpy silence it (np.errstate) and let this raise."""
    if not np.isfinite(value):
        raise InvalidParam(
            f"{what} is {float(value)} in float64: the noise variances are too large")
    return float(value)


def _sandwich(delta: float, pi: np.ndarray) -> tuple[float, float]:
    n = pi.size
    return (_finite(delta / (n * float(pi.max())), "delta_uni_lower"),
            _finite(delta / (n * float(pi.min())), "delta_uni_upper"))


def _require_steady_state(P: StochasticMatrix) -> None:
    if not P.irreducible:
        raise NotIrreducible("closed form needs an irreducible chain")
    if not P.aperiodic:
        raise NotIrreducible(
            "chain is periodic, so the squared chain is reducible; "
            "use a lazy walk or the simulator"
        )


def _require_closed_form(P: StochasticMatrix) -> None:
    _require_steady_state(P)
    if not P.reversible:
        raise NotReversible("closed form holds for reversible chains only")


# =====================================================================
# closed forms
# =====================================================================

def _z_form(P: StochasticMatrix, noise: NoiseCovariance) -> tuple[np.ndarray, np.ndarray]:
    """pi and the fundamental matrix Z of P^2, after the checks every
    Z-form closed form makes: matching noise dimension, an irreducible,
    aperiodic and reversible chain, and Z's hitting-equation residual."""
    _check_noise(P, noise)
    _require_closed_form(P)
    return P.stationary(), _fundamental_matrix(square_chain(P))


def delta_ss_theorem(P: StochasticMatrix, noise: NoiseCovariance) -> DisagreementReport:
    """Exact weighted steady-state disagreement of a reversible chain.

    The theorem's pi' H D Sigma D 1 - Tr(H D Sigma D), with H the hitting
    times of P^2 and D = diag(pi), evaluated as Tr((Z - 1 pi') Sigma D) from
    the fundamental matrix Z of P^2 cached on the chains.  Diagonal noise
    reads only diag Z: sum_i sigma_i^2 pi_i (Z_ii - pi_i), O(n); a full
    covariance gives sum_ij Z_ij Sigma_ij pi_i - pi' Sigma pi, O(n^2).  The
    report's uniform-disagreement fields hold the sandwich bounds
    delta_ss/(n pi_max) and delta_ss/(n pi_min).
    """
    pi, Z = _z_form(P, noise)
    with np.errstate(over="ignore", invalid="ignore"):
        if noise.is_diagonal:
            delta = np.sum(noise.variances() * pi * (np.diag(Z) - pi))
        else:
            S = noise.matrix()
            delta = pi @ np.sum(Z * S, axis=1) - pi @ S @ pi
    delta = _finite(delta, "delta_ss")
    lo, hi = _sandwich(delta, pi)
    return DisagreementReport(
        delta_ss=delta,
        delta_uni_lower=lo,
        delta_uni_upper=hi,
        method="theorem1",
        n=P.n,
    )


def _require_symmetric_aperiodic(P: StochasticMatrix) -> None:
    if not P.symmetric:
        raise NotSymmetric("this specialization needs a symmetric transition matrix")
    _require_steady_state(P)


def delta_ss_kemeny(P: StochasticMatrix, sigma2: float) -> float:
    """Equal-variance noise on a symmetric chain: sigma^2 K(P^2) / n."""
    _require_variances(sigma2, "variance")
    _require_symmetric_aperiodic(P)
    K = kemeny_constant_combinatorial(square_chain(P))
    return _finite(float(sigma2) * K / P.n, "delta_ss")


def delta_ss_spectral(P: StochasticMatrix, sigma2: float) -> float:
    """Same quantity from the spectrum: (sigma^2/n) sum 1/(1 - lambda^2)
    over the non-unit eigenvalues cached on ``P``."""
    _require_variances(sigma2, "variance")
    _require_symmetric_aperiodic(P)
    lam = P.nonunit_spectrum
    return _finite(float(sigma2) / P.n * float(np.sum(1.0 / (1.0 - lam ** 2))), "delta_ss")


def delta_ss_resistance(P: StochasticMatrix, sigma2: float) -> float:
    """Same quantity from resistances: (sigma^2/n) * sum_{i<j} R_{P^2}(i,j) / n^2."""
    _require_variances(sigma2, "variance")
    _require_symmetric_aperiodic(P)
    R = effective_resistance(square_chain(P))
    return _finite(float(sigma2) / P.n * float(R.sum() / 2.0) / P.n ** 2, "delta_ss")


def delta_uni_bounds(P: StochasticMatrix, noise: NoiseCovariance) -> tuple[float, float]:
    """Sandwich on the uniform disagreement, via the exact weighted value."""
    rep = delta_ss_theorem(P, noise)
    return rep.delta_uni_lower, rep.delta_uni_upper


# =====================================================================
# oracle: covariance doubling
# =====================================================================

_MAX_SQUARINGS = 64
"""Squaring budget: 2^64 steps of the recursion, enough for every
rho(P - J) below tolerances.NO_CONTRACTION_RHO."""

_NO_CONTRACTION_SQUARINGS = 9
"""Squarings run as evidence on a chain without contraction (2^9 = 512
steps of the recursion), after which NoConvergence is raised."""


def _recursion_terms(P: StochasticMatrix, noise: NoiseCovariance):
    """pi, M = P - 1 pi' and the symmetrised N = (I - J) Sigma_w (I - J)'.

    The error covariance then evolves as S(t+1) = M S(t) M' + N.
    """
    J = j_matrix(P)
    IJ = np.eye(P.n) - J
    N = IJ @ noise.matrix() @ IJ.T
    return P.stationary(), P.entries - J, 0.5 * (N + N.T)


def _compose(head: np.ndarray, A: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """S(s + t) = S(s) + M^s S(t) M^s': how the recursion composes.

    S(t) = sum_{u < t} M^u N M^u' is the covariance after t steps from
    zero; ``head`` = S(s), ``A`` = M^s and ``tail`` = S(t).  With s = 1
    (head = N, A = M) this is one step S(t+1) = N + M S(t) M'; with
    tail = head it is one doubling S(2s).
    """
    return head + A @ tail @ A.T


def delta_oracle(
    P: StochasticMatrix, noise: NoiseCovariance
) -> tuple[SteadyStateCovariance, DisagreementReport]:
    """Steady state of the error-covariance recursion, by Smith's doubling.

    The recursion S(t+1) = M S(t) M' + N with M = P - J and
    N = (I - J) Sigma_w (I - J)' is summed by doubling (R. A. Smith, 1968):
    starting from X = N = S(1) and A = M, each squaring sets
    X <- X + A X A' (now S(2^k)) and keeps A^2 = M^(2^k) for the next one.
    It stops once a squaring changes X by at most ORACLE_TOL * (1 + max|X|);
    the terms still left out are that change carried through the next power
    of M, so they are smaller again by about as much.  The result then gets
    one step of iterative refinement: the residual N + M S M' - S is summed
    through the same powers of M and added, which removes the rounding error
    that repeated squaring leaves in the slow modes of those powers.  Works
    for any irreducible chain (no reversibility needed) and shares nothing
    with the hitting-time routes, which is what makes it an independent
    check on the closed forms.  delta_ss = Tr(S diag(pi)) and
    delta_uni = Tr(S)/n.

    ``iterations`` counts squarings (k squarings cover 2^k steps of the
    recursion), at most 64.  ``residual`` is max |M S M' + N - S| of the
    result.  When rho = rho(P - J) >= 1 - 1e-12 (no contraction, e.g. a
    noisy bipartite walk) the powers of M do not shrink, so at most 9
    squarings run and NoConvergence carries their trace history, which
    about doubles at each one.  :func:`divergence_probe` steps the same
    recursion one step at a time and referees it.
    """
    _check_noise(P, noise)
    if not P.irreducible:
        raise NotIrreducible("the covariance recursion needs an irreducible chain")
    pi, M, N = _recursion_terms(P, noise)
    rho = P.rho
    no_contraction = rho >= tolerances.NO_CONTRACTION_RHO
    budget = _NO_CONTRACTION_SQUARINGS if no_contraction else _MAX_SQUARINGS

    X, powers = N, [M]  # powers[k] = M^(2^k)
    trace_history = []
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses what overflows
        for its in range(1, budget + 1):
            X_next = _compose(X, powers[-1], X)
            diff = _finite(np.abs(X_next - X).max(), "the oracle's covariance")
            X = X_next
            trace_history.append(float(np.trace(X)))
            if diff <= tolerances.ORACLE_TOL * (1.0 + float(np.abs(X).max())):
                break
            powers.append(powers[-1] @ powers[-1])
        else:
            raise NoConvergence(
                f"covariance doubling did not converge in {its} squarings "
                f"(rho(P-J) = {rho:.6g}); final trace {trace_history[-1]:.6g}",
                iterations=its,
                trace_history=np.asarray(trace_history),
            )

        # one step of iterative refinement: the squarings leave M^(2^k) a
        # relative error of about 2^k eps along its slow modes, which reached
        # 1e-11 of delta_ss on a lazy 128-node line; summing the residual
        # N + M S M' - S through the same powers takes it out
        R = _compose(N, M, X) - X
        for A in powers:
            R = _compose(R, A, R)
        S = X + R
        residual = _finite(np.abs(_compose(N, M, S) - S).max(), "the oracle's residual")
        delta = _finite(np.diag(S) @ pi, "delta_ss")
        delta_uni = _finite(np.trace(S) / P.n, "delta_uni")
    lo, hi = _sandwich(delta, pi)
    cov = SteadyStateCovariance(matrix=S, iterations=its, residual=residual)
    rep = DisagreementReport(
        delta_ss=delta,
        delta_uni_lower=lo,
        delta_uni_upper=hi,
        method="oracle",
        delta_uni_exact=delta_uni,
        n=P.n,
        diagnostics={"iterations": its, "residual": residual, "rho": rho},
    )
    return cov, rep


def divergence_probe(P: StochasticMatrix, noise: NoiseCovariance, horizon: int) -> np.ndarray:
    """Trace of the exact error covariance after each of ``horizon`` steps.

    Steps, one at a time and without sampling, the covariance recursion
    that :func:`delta_oracle` sums by doubling, so it referees the oracle
    step by step and shows cleanly whether the disagreement settles or
    keeps growing — e.g. the linear growth of a noisy consensus on a
    bipartite graph, where the simple walk's -1 eigenvalue never mixes.
    Returns traces[t] for t = 0..horizon.
    """
    _check_noise(P, noise)
    if horizon < 1:
        raise InvalidParam(f"horizon must be >= 1, got {horizon}")
    _, M, N = _recursion_terms(P, noise)
    traces = np.zeros(horizon + 1)
    S = np.zeros((P.n, P.n))
    for t in range(1, horizon + 1):
        S = _compose(N, M, S)
        traces[t] = np.trace(S)
    return traces


# =====================================================================
# structure checks
# =====================================================================

def j_matrix(P: StochasticMatrix) -> np.ndarray:
    """The projector J = 1 pi' onto the consensus direction."""
    return np.outer(np.ones(P.n), P.stationary())


def check_j_properties(P: StochasticMatrix) -> JPropertyReport:
    """Measure the projector identities instead of assuming them.

    Checks J1 = 1, JP = PJ = J, J^2 = J, (I-J)^2 = I-J, the power identity
    (P^l - J)^k = P^(lk) - J for l, k in 1..3, and estimates
    rho(P - J) from the spectrum cached on ``P``.  Returns the max
    violation of each identity; nothing is raised, callers decide what to
    tolerate.
    """
    E = P.entries
    n = P.n
    J = j_matrix(P)
    eye = np.eye(n)
    one = np.ones(n)
    v: dict = {}
    v["J@1 = 1"] = float(np.abs(J @ one - one).max())
    v["J@P = J"] = float(np.abs(J @ E - J).max())
    v["P@J = J"] = float(np.abs(E @ J - J).max())
    v["J@J = J"] = float(np.abs(J @ J - J).max())
    v["(I-J)^2 = I-J"] = float(np.abs((eye - J) @ (eye - J) - (eye - J)).max())
    powers = (1, 2, 3)
    for l in powers:
        Pl = np.linalg.matrix_power(E, l)
        for k in powers:
            lhs = np.linalg.matrix_power(Pl - J, k)
            rhs = np.linalg.matrix_power(E, l * k) - J
            v[f"(P^{l}-J)^{k} = P^{l * k}-J"] = float(np.abs(lhs - rhs).max())
    return JPropertyReport(violations=v, rho=P.rho)


def sigma_hat(P: StochasticMatrix, noise: NoiseCovariance) -> np.ndarray:
    """Closed-form steady-state covariance companion matrix.

    Sigma_hat = 1 pi' H D Sigma D - H D Sigma D, with H the hitting times of
    P^2 and D = diag(pi), evaluated as (Z - 1 pi') Sigma D from the
    fundamental matrix Z of P^2.  Satisfies Tr(Sigma_hat) = delta_ss,
    J Sigma_hat = 0, and the fixed point
    Sigma_hat = P^2 Sigma_hat + (I - J) Sigma_w D.  Diagonal noise scales
    the columns of Z - 1 pi' by the variances, O(n^2), with the bits of the
    product by diag(Sigma_w), which rounds once per entry too.
    """
    pi, Z = _z_form(P, noise)
    if noise.is_diagonal:
        return ((Z - pi) * noise.variances()) * pi
    return ((Z - pi) @ noise.matrix()) * pi
