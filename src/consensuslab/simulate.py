"""Monte-Carlo simulation of the noisy consensus recursion.

Trial k draws its whole noise block in one shot from its own stream,
seeded by (seed, k) through numpy's SeedSequence spawning, so its noise
depends only on (seed, k) and the state shape: adding trials leaves the
earlier ones unchanged.  Reruns with identical inputs are bit-identical.

One kernel, :func:`_run_trials`, steps every trial; the formation
simulator runs it too, on a state of shape (n, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .disagreement import NoiseCovariance, _check_noise, _compose, _recursion_terms
from .errors import DimensionMismatch, InvalidParam, NoConvergence
from .markov import StochasticMatrix

__all__ = [
    "SimConfig",
    "SimTrace",
    "simulate_consensus",
    "estimate_delta_ss",
    "divergence_probe",
    "auto_burn_in",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters.

    ``burn_in=None`` means automatic: ceil(20 / (1 - rho^2)) steps, with
    rho the spectral radius of P - 1 pi'.  ``noise`` selects the driving
    distribution: zero-mean Gaussian, or Rademacher (+/-1, scaled to the
    same covariance) to confirm the steady state only cares about second
    moments.
    """

    horizon: int
    trials: int = 1
    burn_in: int | None = None
    seed: int = 0
    record_every: int = 1
    noise: str = "gaussian"

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidParam(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise InvalidParam(f"trials must be >= 1, got {self.trials}")
        if self.record_every < 1:
            raise InvalidParam(f"record_every must be >= 1, got {self.record_every}")
        if self.burn_in is not None and not (0 <= self.burn_in < self.horizon):
            raise InvalidParam(
                f"burn_in must be in [0, horizon), got {self.burn_in} vs horizon {self.horizon}"
            )
        if self.noise not in ("gaussian", "rademacher"):
            raise InvalidParam(f"noise must be 'gaussian' or 'rademacher', got {self.noise!r}")


@dataclass(frozen=True)
class SimTrace:
    """Per-step disagreement estimates averaged across trials, the burn-in
    the run used, and the tail estimate past it with its standard error."""

    times: np.ndarray
    delta_hat: np.ndarray
    delta_uni_hat: np.ndarray
    stderr: np.ndarray
    burn_in: int
    estimate: float
    estimate_stderr: float

    def to_csv(self) -> str:
        """The trace as CSV text."""
        rows = ["t,delta_hat,delta_uni_hat,stderr"]
        for t, d, u, s in zip(self.times, self.delta_hat, self.delta_uni_hat, self.stderr):
            rows.append(f"{int(t)},{d:.16e},{u:.16e},{s:.16e}")
        return "\n".join(rows) + "\n"


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _noise_block(rng, noise: NoiseCovariance, shape: tuple, kind: str) -> np.ndarray:
    """Noise for ``shape = (steps, n, ...)``: covariance ``noise`` across the n nodes.

    A full covariance is drawn for (steps, n) blocks only.
    """
    if kind == "gaussian":
        z = rng.standard_normal(shape)
    else:  # rademacher
        z = rng.integers(0, 2, size=shape).astype(float)
        z *= 2.0
        z -= 1.0
    if not noise.is_diagonal:
        return z @ noise.sampling_factor().T
    # one scale per node (axis 1), applied in place: the formation block is
    # the largest array a run holds
    z *= np.sqrt(noise.variances()).reshape(shape[1:2] + (1,) * (len(shape) - 2))
    return z


def _run_trials(P: StochasticMatrix, noise: NoiseCovariance, x0: np.ndarray, cfg: SimConfig):
    """The trial loop: x(t+1) = P x(t) + w(t) from x0 of shape (n,) or (n, d).

    Returns the recorded times, the weighted and uniform squared errors,
    each summed over the d coordinates and of shape (trials, n_rec), and
    trial 0's recorded states, shape (n_rec, *x0.shape).
    """
    pi = P.stationary()
    E = P.entries
    times = np.arange(0, cfg.horizon + 1, cfg.record_every)
    wsq = np.empty((cfg.trials, times.size, *x0.shape[1:]))
    usq = np.empty_like(wsq)
    states = np.empty((times.size, *x0.shape))
    for trial in range(cfg.trials):
        W = _noise_block(_trial_rng(cfg.seed, trial), noise, (cfg.horizon, *x0.shape), cfg.noise)
        x = x0
        for t in range(cfg.horizon + 1):
            if t > 0:
                x = E @ x + W[t - 1]
            if t % cfg.record_every == 0:
                k = t // cfg.record_every
                e = x - pi @ x
                e *= e
                wsq[trial, k] = pi @ e
                usq[trial, k] = e.mean(axis=0)
                if trial == 0:
                    states[k] = x
    per_coord = (cfg.trials, times.size, -1)
    return times, wsq.reshape(per_coord).sum(axis=2), usq.reshape(per_coord).sum(axis=2), states


def _resolve_burn_in(P: StochasticMatrix, cfg: SimConfig) -> int:
    """cfg.burn_in, or the automatic one; some recorded step must follow it."""
    burn = cfg.burn_in if cfg.burn_in is not None else auto_burn_in(P)
    if burn >= cfg.horizon:
        raise InvalidParam(f"burn-in {burn} >= horizon {cfg.horizon}; lengthen the run")
    if cfg.horizon // cfg.record_every * cfg.record_every <= burn:
        raise InvalidParam("no recorded steps after the burn-in; lower record_every")
    return burn


def _summarize(times: np.ndarray, sq: np.ndarray, burn: int):
    """Across-trial mean and stderr per recorded step, and the tail estimate.

    The tail estimate is the mean over trials of each trial's average past
    ``burn``, with its standard error across trials; every standard error
    is zero for a single trial.
    """
    trials = sq.shape[0]
    per_trial = sq[:, times > burn].mean(axis=1)
    if trials > 1:
        stderr = sq.std(axis=0, ddof=1) / np.sqrt(trials)
        se = float(per_trial.std(ddof=1) / np.sqrt(trials))
    else:
        stderr = np.zeros(times.size)
        se = 0.0
    return sq.mean(axis=0), stderr, float(per_trial.mean()), se


def simulate_consensus(
    P: StochasticMatrix,
    noise: NoiseCovariance,
    x0,
    cfg: SimConfig,
) -> SimTrace:
    """Run the recursion x(t+1) = P x(t) + w(t) and record disagreement.

    Returns the across-trial mean of the pi-weighted and uniform squared
    errors at every recorded step, with the standard error of the weighted
    one (zero when trials == 1), plus the resolved burn-in and the tail
    estimate past it.  Raises InvalidParam when the burn-in leaves no
    recorded step.  Identical inputs give bit-identical output.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (P.n,):
        raise DimensionMismatch(f"x0 must have shape ({P.n},), got {x0.shape}")
    _check_noise(P, noise)
    burn = _resolve_burn_in(P, cfg)
    times, wsq, usq, _ = _run_trials(P, noise, x0, cfg)
    delta_hat, stderr, est, se = _summarize(times, wsq, burn)
    return SimTrace(
        times=times,
        delta_hat=delta_hat,
        delta_uni_hat=usq.mean(axis=0),
        stderr=stderr,
        burn_in=burn,
        estimate=est,
        estimate_stderr=se,
    )


def auto_burn_in(P: StochasticMatrix) -> int:
    """ceil(20 / (1 - rho^2)) with rho = rho(P - 1 pi') from the spectrum
    cached on ``P``."""
    rho = P.rho
    if rho >= tolerances.NO_CONTRACTION_RHO:
        raise NoConvergence(
            "no spectral gap (rho(P - J) ~ 1); the recursion has no steady state"
        )
    return int(np.ceil(20.0 / (1.0 - rho ** 2)))


def estimate_delta_ss(
    P: StochasticMatrix,
    noise: NoiseCovariance,
    cfg: SimConfig,
) -> tuple[float, float]:
    """Tail-averaged Monte-Carlo estimate of the weighted disagreement.

    The (estimate, estimate_stderr) of :func:`simulate_consensus` started
    from x0 = 0 — the steady state does not depend on it.
    """
    trace = simulate_consensus(P, noise, np.zeros(P.n), cfg)
    return trace.estimate, trace.estimate_stderr


def divergence_probe(P: StochasticMatrix, noise: NoiseCovariance, horizon: int) -> np.ndarray:
    """Trace of the exact error covariance after each of ``horizon`` steps.

    Steps, one at a time and without sampling, the covariance recursion
    that ``delta_oracle`` sums by doubling, so it shows cleanly whether the
    disagreement settles or keeps growing — e.g. the linear growth of a
    noisy consensus on a bipartite graph, where the simple walk's -1
    eigenvalue never mixes.  Returns traces[t] for t = 0..horizon.
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
