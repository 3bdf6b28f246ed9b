"""Monte-Carlo simulation of the noisy consensus recursion.

One kernel, :func:`_run_trials`, steps every trial at once by a CSR
product; the formation simulator runs it too, on a state of shape (n, d).
Trial k draws its noise from its own stream, seeded by (seed, k) through
numpy's SeedSequence spawning, NOISE_CHUNK steps at a time.  Gaussian
streams are drawn on markov's thread layer (_Threads) by up to one thread
per usable core, and no more threads than trials: while the calling
thread steps one chunk, pool threads draw the next, and the calling
thread joins them once it has stepped.  Each thread claims whole trials
and draws each claimed block in one call, so which thread draws a trial
changes none of its numbers.  Rademacher streams are drawn on the calling
thread, by the same layer with no pool.  The states recorded within a
chunk are reduced together at its end, by the same CSR products a per-step
reduction would use; each column is summed on its own, so the numbers are
those of one reduction per recorded step.

What is bit-identical:

- a rerun with identical inputs;
- trial k's per-step numbers (its squared errors, and trial 0's states),
  whatever the trial count: adding trials leaves the earlier ones unchanged;
- trial k's noise, and so every output, whatever the chunk size, that is
  the number of steps drawn, and of records reduced, together;
- every output, whatever the number of threads drawing the noise, that is
  whatever the number of usable cores, and whichever thread draws a trial.

Against the earlier kernel, which stepped one trial at a time by dense
products and drew each trial's noise in one block, outputs moved at
rounding level only.  On the benchmark's ``montecarlo`` seed-1 runs: at
most 8.3e-15 relative on any number of a trace CSV or summary, and at most
2.2e-15 of each trajectory column's largest magnitude.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import sparse

from . import tolerances
from ._csvrows import _csv_rows, _int_field
from .disagreement import NoiseCovariance, _check_noise
from .errors import DimensionMismatch, InvalidParam, NoConvergence
from .markov import StochasticMatrix, _kernel, _Threads, _usable_cores

__all__ = [
    "SimConfig",
    "SimTrace",
    "simulate_consensus",
    "estimate_delta_ss",
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
        for name in ("horizon", "trials", "burn_in", "seed", "record_every"):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral or name == "burn_in" and value is None):
                raise InvalidParam(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise InvalidParam(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise InvalidParam(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InvalidParam(f"seed must be >= 0, got {self.seed}")
        if self.record_every < 1:
            raise InvalidParam(f"record_every must be >= 1, got {self.record_every}")
        if self.burn_in is not None and not (0 <= self.burn_in < self.horizon):
            raise InvalidParam(
                f"burn_in must be in [0, horizon), got {self.burn_in} vs horizon {self.horizon}"
            )
        if not isinstance(self.noise, str) or self.noise not in ("gaussian", "rademacher"):
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
        """The trace as CSV text, rows ``"%d,%.16e,%.16e,%.16e\\n"``.

        The floats come from ``_csvrows._csv_rows``, byte for byte
        Python's ``'%.16e'``.
        """
        cols = np.column_stack((self.delta_hat, self.delta_uni_hat, self.stderr))
        return ("t,delta_hat,delta_uni_hat,stderr\n"
                + _csv_rows([_int_field(self.times.tolist())], cols))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


NOISE_CHUNK = 128
"""Steps of noise each trial draws, and records reduced together, at a time.

Any value gives the same numbers.  128 steps amortize the per-call cost of
the draws and reductions while the noise and snapshot buffers stay a few
MB.  With the next chunk drawn while this one steps, 256 steps took the
benchmark's ``montecarlo`` pass from 0.772 to 0.739 s (medians of five
8-second runs on 2 cores, seeds 21-25; the runs spread over 0.740-0.792 and
0.725-0.761 s) but its peak RSS from 79.0 to 86.2 MB.
"""


def _noise_factor(noise: NoiseCovariance):
    """What turns standard draws into noise of covariance ``noise``: the
    per-node scales shaped (n, 1, 1), or the full covariance's sampling
    factor as a CSR array."""
    if noise.is_diagonal:
        return np.sqrt(noise.variances())[:, None, None]
    return sparse.csr_array(noise.sampling_factor())


def _draw_noise(rngs, kind: str, z: np.ndarray, claimed) -> None:
    """Fill ``z[k]``, of shape (steps, n, d), for each ``claimed`` trial k
    with the next ``steps`` standard draws of ``rngs[k]``, in one call: so
    consecutive fills continue its stream as one long draw would, and no
    number depends on the thread that _Threads gives trial k to.
    ``standard_normal`` releases the GIL while it fills a block, so pool
    threads draw while the caller works; ``integers`` holds the GIL for much
    of each call, so Rademacher blocks are drawn on the calling thread."""
    for k in claimed:
        if kind == "gaussian":
            rngs[k].standard_normal(out=z[k])
        else:  # rademacher
            z[k] = rngs[k].integers(0, 2, size=z.shape[1:])


def _shape_noise(z: np.ndarray, factor, kind: str, out: np.ndarray) -> None:
    """Fill ``out``, C-contiguous of shape (steps, n, trials, d), with the
    noise made from the standard draws ``z`` of shape (trials, steps, n, d).

    The trial-major draws reach ``out`` by one transposing copy of
    ``np.void`` items of 8 * d bytes, so each node's d floats move as one
    item and every bit is kept.  The factor acts elementwise or by a CSR
    product, which sums each column on its own in a fixed order: a trial's
    noise depends neither on the other trials nor on ``steps``.
    """
    steps, n, trials, d = out.shape
    item = np.dtype((np.void, 8 * d))
    out.view(item)[..., 0] = z.view(item)[..., 0].transpose(1, 2, 0)
    if kind != "gaussian":
        out *= 2.0
        out -= 1.0
    if isinstance(factor, np.ndarray):
        out *= factor
    else:
        cols = factor @ out.transpose(1, 0, 2, 3).reshape(n, -1)
        out[...] = cols.reshape(n, steps, trials, d).transpose(1, 0, 2, 3)


def _stepper(E: sparse.csr_array, cols: int):
    """The step y = E @ x + w for flat x, y and w holding (n, cols) arrays,
    into the preallocated ``y``.  It zeroes y and runs the CSR kernel that
    ``E @ x`` runs (csr_matvecs, bound by ``markov._kernel``), so its bits
    are those of ``E @ x`` followed by ``+= w``, without the product's
    Python dispatch and allocation."""
    matvecs = _kernel("csr_matvecs", E, cols)

    def step(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> None:
        y.fill(0.0)
        matvecs(x, y)
        y += w

    return step


def _run_trials(P: StochasticMatrix, noise: NoiseCovariance, x0: np.ndarray, cfg: SimConfig):
    """The trial loop: x(t+1) = P x(t) + w(t) from x0 of shape (n,) or (n, d).

    Every trial steps at once: the state is X of shape (n, trials * d),
    trial k in columns k*d .. k*d + d - 1, and one step is the CSR product
    ``E @ X`` with the matrix the chain caches, plus that step's noise, by
    :func:`_stepper` between two flat state buffers used in turn.

    The noise comes NOISE_CHUNK steps at a time, drawn into one trial-major
    buffer on markov's _Threads: up to min(trials, usable cores) threads for
    Gaussian noise, this one and a pool that lives as long as the run.
    Once chunk c's draws are shaped into noise, the pool starts on chunk
    c + 1 while this thread steps chunk c; at ``finish`` this thread then
    claims the trials the pool has not, waits for it and shapes the chunk.
    Rademacher chunks run on _Threads(1): this thread draws them alone, at
    ``finish``, once it has stepped the chunk before.

    A recorded step only copies X into a snapshot buffer of shape (n, chunk
    // record_every + 1, trials * d).  Once per chunk, CSR products with the
    rows [pi; 1] reduce all its snapshots side by side: one takes pi'X, one
    more takes pi'e^2 and sum_i e_i^2.  A CSR product sums each column on
    its own, in nnz order, so these numbers equal those of one product per
    recorded step, and trial k's numbers do not depend on the trial count,
    the chunk or the thread that drew its noise.

    Returns the recorded times, the weighted and uniform squared errors,
    each summed over the d coordinates and of shape (trials, n_rec), and
    trial 0's recorded states, shape (n_rec, *x0.shape).
    """
    n, trials = P.n, cfg.trials
    d = x0.size // n
    R = sparse.csr_array(np.vstack([P.stationary(), np.ones(n)]))
    factor = _noise_factor(noise)
    step = _stepper(P._csr, trials * d)
    rngs = [_trial_rng(cfg.seed, k) for k in range(trials)]
    times = np.arange(0, cfg.horizon + 1, cfg.record_every)
    wsq = np.empty((trials, times.size, d))
    usq = np.empty_like(wsq)
    states = np.empty((times.size, n, d))

    def record(k: int, S: np.ndarray) -> None:
        # S holds the snapshots of records k, k + 1, ..., shape (n, j, trials * d)
        j = S.shape[1]
        e = S - (R @ S.reshape(n, -1))[0].reshape(j, -1)
        e *= e
        sq = R @ e.reshape(n, -1)
        wsq[:, k : k + j] = sq[0].reshape(j, trials, d).transpose(1, 0, 2)
        usq[:, k : k + j] = (sq[1] / n).reshape(j, trials, d).transpose(1, 0, 2)
        states[k : k + j] = S[:, :, :d].transpose(1, 0, 2)

    x = np.tile(x0.reshape(n, d), trials).ravel()
    y = np.empty_like(x)
    chunk = min(NOISE_CHUNK, cfg.horizon)
    z = np.empty((trials, chunk, n, d))
    buf = np.empty((chunk, n, trials, d))
    # room for t = 0 with the first chunk's records, or for any later chunk's
    snaps = np.empty((n, chunk // cfg.record_every + 1, trials * d))
    snaps[:, 0] = x.reshape(n, -1)
    k, j = 0, 1  # the first record the buffer holds, and how many it holds
    count = min(trials, _usable_cores()) if cfg.noise == "gaussian" else 1
    with _Threads(count) as threads:
        finish = threads.start(partial(_draw_noise, rngs, cfg.noise, z), range(trials))
        for start in range(0, cfg.horizon, chunk):
            W = buf[: min(chunk, cfg.horizon - start)]
            finish()
            _shape_noise(z[:, : len(W)], factor, cfg.noise, W)
            later = min(chunk, cfg.horizon - start - chunk)  # the next chunk's steps
            if later > 0:
                finish = threads.start(partial(_draw_noise, rngs, cfg.noise, z[:, :later]),
                                       range(trials))
            for t, w in enumerate(W.reshape(len(W), -1), start + 1):
                step(x, y, w)
                x, y = y, x
                if t % cfg.record_every == 0:
                    snaps[:, j] = x.reshape(n, -1)
                    j += 1
            if j:
                record(k, snaps[:, :j])
            k, j = k + j, 0
    return times, wsq.sum(axis=2), usq.sum(axis=2), states.reshape(times.size, *x0.shape)


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

