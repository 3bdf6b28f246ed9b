"""Reference values computed apart from consensuslab, and the output checks.

No number checked here comes from the program.  Each one is recomputed from
the operation's inputs (edge list, chain kind, noise variances) with numpy
and scipy alone:

* pi from the degree formula d/2m (lazy walk) or 1/n (symmetric chains);
* the eigendecomposition A = Q diag(lam) Q' of the symmetrized chain
  A = D^(1/2) P D^(-1/2), D = diag(pi), which gives
  K(P) = sum 1/(1 - lam), K(P^2) = sum 1/(1 - lam^2),
  delta_ss = sum_a (Q' W Q)_aa / (1 - lam_a^2) with W = diag(pi_i sigma_i^2),
  delta_uni = Tr(S)/n, and the commute times of P^2 (the CLI's resistances);
* delta_ss and delta_uni again from scipy.linalg.solve_discrete_lyapunov on
  M = P - 1 pi' (up to ``LYAPUNOV_MAX_N`` nodes), which must agree with the
  spectral values before either is used.

Graph edges of the built-in families are taken from the program's graph
constructors: they are inputs, not results.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.linalg

# Relative tolerances, fixed from the accuracy of the program's routes: the
# closed forms solve linear systems whose residuals the program bounds near
# 1e-9 * n, and the iterative oracle stops at an error of about
# 1e-12 / (1 - rho).
CLOSED_FORM_RTOL = 1e-8
SWEEP_RTOL = 1e-7
ORACLE_RTOL = 1e-6
PI_RTOL = 1e-9
REFERENCE_AGREE_RTOL = 1e-9
SIM_CONSISTENCY_RTOL = 1e-9

MC_STDERR_MULTIPLE = 6.0
"""A Monte Carlo estimate passes when it lies within this many of its own
standard errors of the exact reference.  Over 18 seeds of the six
``montecarlo`` operations (108 estimates) the largest distance seen was 3.2
standard errors.  Relative standard errors run from 0.3 % (simulate star8)
to 7 % (simulate tree127), so the check catches a bias of 2 % to 42 % of
the value, depending on the operation."""

LYAPUNOV_MAX_N = 400
"""Largest chain given the Lyapunov cross-check.  With one BLAS thread the
solve takes about 0.1 s at n = 300 and 0.8 s at n = 576; above this size
the spectral route, cross-checked at every smaller size, stands alone."""


class ReferenceMismatch(Exception):
    """The benchmark's own two routes disagree, so nothing can be checked."""


SWEEP_COLUMNS = ["family", "n", "delta_ss", "delta_uni_lower", "delta_uni_upper",
                 "kemeny_p2", "max_resistance", "error"]


# =====================================================================
# references
# =====================================================================

def chain_matrix(n: int, edges, chain: str, eps: float | None = None) -> np.ndarray:
    """Lazy walk 1/2 (I + D^-1 A), or uniform-edge chain I - eps L."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    deg = A.sum(axis=1)
    if chain == "lazy":
        return 0.5 * np.eye(n) + 0.5 * A / deg[:, None]
    if chain == "uniform":
        if eps is None:
            eps = 1.0 / (2.0 * deg.max())
        return np.eye(n) - eps * (np.diag(deg) - A)
    raise ValueError(f"no reference for chain {chain!r}")


def stationary(n: int, edges, chain: str) -> np.ndarray:
    if chain == "lazy":
        deg = np.zeros(n)
        for i, j in edges:
            deg[i] += 1.0
            deg[j] += 1.0
        return deg / deg.sum()
    return np.full(n, 1.0 / n)


def is_symmetric(n: int, edges, chain: str) -> bool:
    """Uniform-edge chains always; lazy walks only on regular graphs."""
    if chain == "uniform":
        return True
    deg = np.bincount(np.asarray(edges).ravel(), minlength=n)
    return bool(np.all(deg == deg[0]))


class Reference:
    """Exact quantities of one reversible chain from its spectrum."""

    def __init__(self, P: np.ndarray, pi: np.ndarray):
        self.P, self.pi, self.n = P, pi, pi.size
        s = np.sqrt(pi)
        A = s[:, None] * P / s[None, :]
        lam, Q = np.linalg.eigh(0.5 * (A + A.T))
        top = int(np.argmax(lam))
        if abs(lam[top] - 1.0) > 1e-9:
            raise ReferenceMismatch(f"reference chain has no unit eigenvalue (max {lam[top]!r})")
        keep = np.arange(self.n) != top
        self.lam, self.Q = lam[keep], Q[:, keep]

    @property
    def kemeny_p(self) -> float:
        return float(np.sum(1.0 / (1.0 - self.lam)))

    @property
    def kemeny_p2(self) -> float:
        return float(np.sum(1.0 / (1.0 - self.lam ** 2)))

    def delta_ss(self, variances) -> float:
        w = self.pi * np.asarray(variances, dtype=float)
        return float(np.sum((w @ self.Q ** 2) / (1.0 - self.lam ** 2)))

    def delta_uni(self, variances) -> float:
        """Tr(S)/n = sum_ab (Q' D^-1 Q)_ab (Q' W Q)_ab / (1 - lam_a lam_b) / n."""
        w = self.pi * np.asarray(variances, dtype=float)
        X = self.Q.T @ (self.Q / self.pi[:, None])
        Y = self.Q.T @ (self.Q * w[:, None])
        return float(np.sum(X * Y / (1.0 - np.outer(self.lam, self.lam))) / self.n)

    def max_commute_p2(self) -> float:
        """max_ij H(i->j) + H(j->i) for P^2, from its spectrum lam^2."""
        X = self.Q / np.sqrt(self.pi)[:, None] / np.sqrt(1.0 - self.lam ** 2)[None, :]
        G = X @ X.T
        g = np.diag(G)
        return float((g[:, None] + g[None, :] - 2.0 * G).max())

    def lyapunov(self, variances) -> tuple[float, float]:
        """(delta_ss, delta_uni) from S = M S M' + (I-J) Sigma (I-J)'."""
        n = self.n
        J = np.outer(np.ones(n), self.pi)
        IJ = np.eye(n) - J
        S = scipy.linalg.solve_discrete_lyapunov(
            self.P - J, IJ @ np.diag(np.asarray(variances, dtype=float)) @ IJ.T)
        return float(np.diag(S) @ self.pi), float(np.trace(S) / n)

    def disagreement(self, variances) -> tuple[float, float]:
        """(delta_ss, delta_uni), cross-checked between two routes when n allows."""
        d, u = self.delta_ss(variances), self.delta_uni(variances)
        if self.n <= LYAPUNOV_MAX_N:
            dl, ul = self.lyapunov(variances)
            if not (_close(d, dl, REFERENCE_AGREE_RTOL) and _close(u, ul, REFERENCE_AGREE_RTOL)):
                raise ReferenceMismatch(
                    f"spectral and Lyapunov references disagree: {d!r} vs {dl!r}, {u!r} vs {ul!r}")
        return d, u


def _graph_edges(family: str, n: int):
    from consensuslab.graphs import build_graph

    return build_graph(family, n).edges


def _reference(case: dict, n: int | None = None) -> tuple[Reference, np.ndarray, list]:
    n = case["n"] if n is None else n
    edges = case.get("edges") or _graph_edges(case["family"], n)
    P = chain_matrix(n, edges, case["chain"])
    pi = stationary(n, edges, case["chain"])
    return Reference(P, pi), pi, edges


# =====================================================================
# checks: each returns a list of failure messages, empty when all pass
# =====================================================================

def _close(a, b, rtol) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


class _Checks:
    def __init__(self):
        self.failures: list[str] = []

    def that(self, ok: bool, msg: str) -> None:
        if not ok:
            self.failures.append(msg)

    def close(self, what: str, got, want: float, rtol: float) -> None:
        ok = isinstance(got, (int, float)) and _close(float(got), want, rtol)
        self.that(ok, f"{what}: got {got!r}, reference {want!r} (rtol {rtol:g})")

    def sandwich(self, lo, hi, delta: float, uni: float, pi: np.ndarray, rtol: float) -> None:
        n = pi.size
        self.close("delta_uni_lower", lo, delta / (n * pi.max()), rtol)
        self.close("delta_uni_upper", hi, delta / (n * pi.min()), rtol)
        slack = 1.0 + REFERENCE_AGREE_RTOL
        self.that(isinstance(lo, float) and isinstance(hi, float)
                  and lo <= uni * slack and uni <= hi * slack,
                  f"sandwich {lo!r} <= delta_uni {uni!r} <= {hi!r} fails")


def check_analyze(case: dict, text: str) -> list[str]:
    c = _Checks()
    doc = json.loads(text)
    ref, pi, edges = _reference(case)
    n, v = case["n"], case["variances"]
    delta, uni = ref.disagreement(v)
    c.that(doc["n"] == n, f"n: got {doc['n']!r}, want {n}")
    got_pi = np.asarray(doc["pi"], dtype=float)
    c.that(got_pi.shape == pi.shape and float(np.abs(got_pi - pi).max()) <= PI_RTOL * pi.max(),
           "pi differs from the degree formula")
    symmetric = is_symmetric(n, edges, case["chain"])
    c.that(doc["chain_flags"] == {"symmetric": symmetric, "reversible": True},
           f"chain_flags: got {doc['chain_flags']!r}")
    c.close("kemeny_p", doc["kemeny_p"], ref.kemeny_p, CLOSED_FORM_RTOL)
    c.close("kemeny_p2", doc["kemeny_p2"], ref.kemeny_p2, CLOSED_FORM_RTOL)
    want = ["theorem1"]
    if symmetric and case["equal_variance"]:
        want += ["kemeny", "spectral", "resistance"]
    if case["oracle"]:
        want.append("oracle")
    c.that(doc["method_selection"] == want,
           f"method_selection: got {doc['method_selection']!r}, want {want!r}")
    methods = doc["methods"]
    for name in want:
        rtol = ORACLE_RTOL if name == "oracle" else CLOSED_FORM_RTOL
        c.close(f"methods.{name}", methods.get(name), delta, rtol)
    if case["oracle"]:
        c.close("methods.oracle_delta_uni", methods.get("oracle_delta_uni"), uni, ORACLE_RTOL)
    c.close("delta_ss", doc["delta_ss"], delta, CLOSED_FORM_RTOL)
    c.sandwich(doc["delta_uni_lower"], doc["delta_uni_upper"], delta, uni, pi, CLOSED_FORM_RTOL)
    return c.failures


def _split_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return meta, rows


def check_sweep(case: dict, text: str) -> list[str]:
    c = _Checks()
    _, rows = _split_csv(text)
    c.that(rows[:1] == [SWEEP_COLUMNS], f"sweep header: got {rows[:1]!r}")
    body = rows[1:]
    c.that(len(body) == len(case["sizes"]), f"sweep rows: got {len(body)}, want {len(case['sizes'])}")
    v = case["sigma2"]
    for row, n in zip(body, case["sizes"]):
        rec = dict(zip(SWEEP_COLUMNS, row))
        tag = f"row n={n}"
        c.that(rec.get("family") == case["family"] and rec.get("n") == str(n),
               f"{tag}: family/n columns {row[:2]!r}")
        c.that(rec.get("error") == "", f"{tag}: error column {rec.get('error')!r}")
        if rec.get("error"):
            continue
        ref, pi, _ = _reference(case, n)
        delta, uni = ref.disagreement([v] * n)
        num = {k: float(rec[k]) for k in SWEEP_COLUMNS[2:7]}
        c.close(f"{tag} delta_ss", num["delta_ss"], delta, SWEEP_RTOL)
        c.sandwich(num["delta_uni_lower"], num["delta_uni_upper"], delta, uni, pi, SWEEP_RTOL)
        c.close(f"{tag} kemeny_p2", num["kemeny_p2"], ref.kemeny_p2, SWEEP_RTOL)
        c.close(f"{tag} max_resistance", num["max_resistance"], ref.max_commute_p2(), SWEEP_RTOL)
    return c.failures


def _mc_close(c: _Checks, what: str, est, se, want: float) -> None:
    ok = isinstance(est, float) and isinstance(se, float) and se > 0.0 \
        and abs(est - want) <= MC_STDERR_MULTIPLE * se
    c.that(ok, f"{what}: {est!r} +- {se!r} is not within {MC_STDERR_MULTIPLE:g} "
               f"standard errors of {want!r}")


def check_simulate(case: dict, trace_text: str, summary_text: str) -> list[str]:
    c = _Checks()
    doc = json.loads(summary_text)
    ref, _, _ = _reference(case)
    delta, _ = ref.disagreement(case["variances"])
    c.close("delta_ss_exact", doc["delta_ss_exact"], delta, CLOSED_FORM_RTOL)
    _mc_close(c, "delta_hat", doc["delta_hat"], doc["stderr"], delta)

    _, rows = _split_csv(trace_text)
    c.that(rows[:1] == [["t", "delta_hat", "delta_uni_hat", "stderr"]],
           f"trace header: got {rows[:1]!r}")
    data = np.array(rows[1:], dtype=float)
    horizon = case["horizon"]
    c.that(data.shape == (horizon + 1, 4) and np.array_equal(data[:, 0], np.arange(horizon + 1)),
           f"trace rows: got shape {data.shape}, want {(horizon + 1, 4)}")
    if data.shape == (horizon + 1, 4):
        c.that(bool(np.all(np.isfinite(data)) and np.all(data[:, 1:] >= 0.0)),
               "trace has negative or non-finite entries")
        # the summary's tail estimate averages the same per-trial errors
        tail = data[case["burn_in"] + 1:, 1].mean()
        c.close("trace tail mean vs delta_hat", float(tail), doc["delta_hat"],
                SIM_CONSISTENCY_RTOL)
    return c.failures


def formation_reference(case: dict) -> float:
    """Exact K(P_form^2) with the default (or the demo's 1/9) edge weights."""
    if case["family"] == "demo":
        n, edges, eps = 4, [(0, 1), (1, 2), (2, 3), (0, 3)], 1.0 / 9.0
    else:
        n, edges, eps = case["n"], _graph_edges(case["family"], case["n"]), None
    P = chain_matrix(n, edges, "uniform", eps)
    return Reference(P, np.full(n, 1.0 / n)).kemeny_p2


def check_formation(case: dict, traj_text: str, summary_text: str) -> list[str]:
    c = _Checks()
    doc = json.loads(summary_text)
    n, dim = case["n"], case["dim"]
    K = formation_reference(case)
    form = dim * case["lambda2"] * K / n
    c.close("kemeny_p2", doc["kemeny_p2"], K, CLOSED_FORM_RTOL)
    c.close("form_exact", doc["form_exact"], form, CLOSED_FORM_RTOL)
    _mc_close(c, "form_simulated", doc["form_simulated"], doc["stderr"], form)

    _, rows = _split_csv(traj_text)
    c.that(rows[:1] == [["t", "node"] + [f"x{k + 1}" for k in range(dim)]],
           f"trajectory header: got {rows[:1]!r}")
    data = np.array(rows[1:], dtype=float)
    n_rec = case["horizon"] // case["record_every"] + 1
    c.that(data.shape == (n_rec * n, 2 + dim), f"trajectory rows: got shape {data.shape}")
    if data.shape == (n_rec * n, 2 + dim):
        t = np.repeat(np.arange(n_rec) * case["record_every"], n)
        c.that(np.array_equal(data[:, 0], t) and np.array_equal(data[:, 1], np.tile(np.arange(n), n_rec)),
               "trajectory t/node columns out of order")
        c.that(bool(np.all(np.isfinite(data))), "trajectory has non-finite positions")
    return c.failures


def check(op, texts: dict[str, str]) -> list[str]:
    """All failure messages for one operation's output files."""
    case = op.case
    outs = [texts[p] for p in op.outputs]
    try:
        if case["kind"] == "analyze":
            return check_analyze(case, *outs)
        if case["kind"] == "sweep":
            return check_sweep(case, *outs)
        if case["kind"] == "simulate":
            return check_simulate(case, *outs)
        return check_formation(case, *outs)
    except ReferenceMismatch as exc:
        return [f"reference: {exc}"]
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
