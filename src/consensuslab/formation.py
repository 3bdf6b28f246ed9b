"""Noisy formation control reduced to consensus disagreement.

Agents hold positions p_i in R^d and want pairwise offsets r_ij =
p_j - p_i over the edges of a connected graph.  The update

    p_i(t+1) = p_i(t) + sum_j f_ij (p_j(t) - p_i(t) - r_ij) + n_i(t)

with symmetric positive weights f_ij (row sums < 1) is, coordinate by
coordinate, a noisy consensus with the stochastic matrix P_form (off-diag
f_ij, diagonal 1 - sum_j f_ij).  The steady-state formation error

    Form = limsup_t (1/n) sum_i E || (p_i - p_bar) - (phat_i - phat_bar) ||^2

equals d * lambda^2 * K(P_form^2) / n for equal per-node noise lambda^2 I_d,
and in general d * delta_ss(P_form, Sigma_form) for the centered-noise
covariance Sigma_form.  Both routes are implemented; they must agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances
from .disagreement import NoiseCovariance, _require_variances, delta_ss_theorem
from .errors import (
    AsymmetricWeights,
    DimensionMismatch,
    DisconnectedGraph,
    InconsistentFormation,
    InvalidParam,
    StepSizeViolation,
)
from .graphs import Graph, custom_graph, is_connected
from .markov import StochasticMatrix, kemeny_constant_combinatorial, square_chain
from .simulate import SimConfig, _resolve_burn_in, _run_trials, _summarize

__all__ = [
    "FormationSpec",
    "FormationReport",
    "FormationTrace",
    "build_formation_spec",
    "default_weights",
    "formation_matrix",
    "form_exact",
    "form_via_delta",
    "simulate_formation",
    "ring_demo_spec",
    "spec_from_graph",
    "layout_positions",
    "load_formation_spec",
    "write_trajectory_csv",
]


@dataclass
class FormationSpec:
    """A validated formation problem.

    ``offsets`` and ``weights`` are keyed by canonical edges (i < j); the
    stored offset is always p_j - p_i.  ``positions`` are the canonical
    in-formation positions recovered from the offsets (zero centroid), and
    ``consistency_residual`` is the worst offset-equation residual of that
    least-squares solve — guaranteed <= ``tolerances.CONSISTENCY_TOL``.

    P_form is built from ``weights`` on first use and cached on the spec
    (see :func:`formation_matrix`), so every route shares its pi, P^2 and
    fundamental matrix; reassigning ``weights`` afterwards is not supported.
    """

    graph: Graph
    dim: int
    offsets: dict
    weights: dict
    lambda2: np.ndarray
    positions: np.ndarray
    consistency_residual: float

    @property
    def n(self) -> int:
        return self.graph.n

    def lambda2_scalar(self) -> float | None:
        v = self.lambda2
        return float(v[0]) if np.all(v == v[0]) else None

    @cached_property
    def _matrix(self) -> StochasticMatrix:
        n = self.n
        p = np.zeros((n, n))
        for (i, j), x in self.weights.items():
            p[i, j] = x
            p[j, i] = x
        d = p.sum(axis=1)
        p[np.diag_indices(n)] = 1.0 - d
        return StochasticMatrix(p)


@dataclass
class FormationReport:
    """Formation error metrics plus an echo of the problem."""

    form_exact: float
    kemeny_p2: float
    form_simulated: float | None = None
    stderr: float | None = None
    n: int | None = None
    dim: int | None = None
    lambda2: float | list | None = None
    graph_family: str | None = None


@dataclass(frozen=True)
class FormationTrace:
    """Recorded trajectory (trial 0), per-step formation error, resolved burn-in."""

    times: np.ndarray
    positions: np.ndarray      # (n_rec, n, dim), trial 0
    form_mean: np.ndarray      # across trials
    form_stderr: np.ndarray
    burn_in: int


def default_weights(graph: Graph) -> dict:
    """Equal weight 1/(2 max degree) on every edge."""
    if graph.m == 0:
        raise InvalidParam("formation weights need at least one edge")
    eps = 1.0 / (2.0 * int(graph.degrees().max()))
    return {e: eps for e in graph.edges}


def _canonical_edge_map(graph: Graph, mapping, what: str, *, negate_flip: bool):
    """Fold an either-orientation mapping onto canonical edges.

    negate_flip=True treats values as direction-dependent (offsets):
    a (j, i) entry is stored as its negation at (i, j).
    """
    edge_set = set(graph.edges)
    out: dict = {}
    for key, value in mapping.items():
        i, j = int(key[0]), int(key[1])
        if i == j:
            raise InvalidParam(f"{what} given for a self-loop at node {i}")
        canon = (min(i, j), max(i, j))
        if canon not in edge_set:
            raise InvalidParam(f"{what} given for non-edge ({i},{j})")
        v = value if (i, j) == canon else (-value if negate_flip else value)
        if canon in out:
            same = np.allclose(out[canon], v, rtol=0.0, atol=tolerances.EDGE_VALUE_ATOL)
            if not same:
                if negate_flip:
                    raise InvalidParam(
                        f"offsets for edge {canon} violate antisymmetry"
                    )
                raise AsymmetricWeights(f"weights for edge {canon} disagree")
        out[canon] = v
    missing = edge_set - out.keys()
    if missing:
        raise InvalidParam(f"{what} missing for edges {sorted(missing)[:5]}")
    return out


def build_formation_spec(
    graph: Graph,
    dim: int,
    offsets,
    weights="default",
    lambda2=0.0,
) -> FormationSpec:
    """Validate and assemble a FormationSpec.

    ``offsets`` maps edges (either orientation) to the desired p_j - p_i.
    ``weights`` is "default" or a mapping to positive weights; per-node
    weight sums must stay strictly below 1.  ``lambda2`` is the per-node
    (or shared scalar) per-coordinate noise variance.  The offsets must be
    realizable by actual positions: the least-squares solve for positions
    must leave residual <= ``tolerances.CONSISTENCY_TOL``, else
    InconsistentFormation.
    """
    if not is_connected(graph):
        raise DisconnectedGraph("formation graph must be connected")
    if dim < 1:
        raise InvalidParam(f"dimension must be >= 1, got {dim}")
    n = graph.n

    off_arrays = {}
    for key, value in dict(offsets).items():
        r = np.asarray(value, dtype=float)
        if r.shape != (dim,):
            raise DimensionMismatch(
                f"offset for edge {tuple(key)} has shape {r.shape}, expected ({dim},)"
            )
        if not np.isfinite(r).all():
            raise InvalidParam(f"offset for edge {tuple(key)} must be finite")
        off_arrays[tuple(key)] = r
    off = _canonical_edge_map(graph, off_arrays, "offset", negate_flip=True)

    if isinstance(weights, str):
        if weights != "default":
            raise InvalidParam(f"weights must be a mapping or 'default', got {weights!r}")
        w = default_weights(graph)
    else:
        w = _canonical_edge_map(graph, dict(weights), "weight", negate_flip=False)
        w = {e: float(x) for e, x in w.items()}
    if not all(np.isfinite(x) and x > 0 for x in w.values()):
        raise InvalidParam("formation weights must be finite and positive")

    row_sum = np.zeros(n)
    for (i, j), x in w.items():
        row_sum[i] += x
        row_sum[j] += x
    if row_sum.max() >= 1.0:
        worst = int(row_sum.argmax())
        raise StepSizeViolation(
            f"node {worst} has total weight {row_sum[worst]:.6g} >= 1"
        )

    lam = np.asarray(lambda2, dtype=float)
    if lam.ndim == 0:
        lam = np.full(n, float(lam))
    if lam.shape != (n,):
        raise DimensionMismatch(f"lambda2 must be scalar or length {n}, got shape {lam.shape}")
    _require_variances(lam, "lambda2")

    # recover positions: one incidence row per edge plus a centroid anchor
    m = graph.m
    A = np.zeros((m + 1, n))
    B = np.zeros((m + 1, dim))
    for row, (i, j) in enumerate(sorted(off)):
        A[row, i] = -1.0
        A[row, j] = 1.0
        B[row] = off[(i, j)]
    A[m, :] = 1.0 / n
    sol, *_ = np.linalg.lstsq(A, B, rcond=None)
    resid = float(np.abs(A[:m] @ sol - B[:m]).max()) if m else 0.0
    if resid > tolerances.CONSISTENCY_TOL:
        raise InconsistentFormation(
            f"offsets are inconsistent: best-fit residual {resid:.3e} "
            f"exceeds {tolerances.CONSISTENCY_TOL:g}"
        )
    positions = sol - sol.mean(axis=0, keepdims=True)

    return FormationSpec(
        graph=graph,
        dim=dim,
        offsets=off,
        weights=w,
        lambda2=lam,
        positions=positions,
        consistency_residual=resid,
    )


def formation_matrix(spec: FormationSpec) -> StochasticMatrix:
    """P_form: off-diagonal f_ij, diagonal 1 - sum_j f_ij (symmetric).

    Built once per spec and cached on it: every call returns the same
    chain.
    """
    return spec._matrix


def form_exact(spec: FormationSpec) -> FormationReport:
    """Closed-form formation error d * lambda^2 * K(P_form^2) / n.

    Per-node lambda^2 takes the error from :func:`form_via_delta` and is
    reported as the list; K(P_form^2) does not depend on the noise, so it
    is reported all the same.
    """
    K = kemeny_constant_combinatorial(square_chain(formation_matrix(spec)))
    lam2 = spec.lambda2_scalar()
    if lam2 is None:
        val, lam2 = form_via_delta(spec), spec.lambda2.tolist()
    else:
        val = spec.dim * lam2 * K / spec.n
    return FormationReport(
        form_exact=val,
        kemeny_p2=K,
        n=spec.n,
        dim=spec.dim,
        lambda2=lam2,
        graph_family=spec.graph.family,
    )


def form_via_delta(spec: FormationSpec) -> float:
    """Formation error through the general disagreement closed form.

    The per-coordinate noise that drives the *centered* dynamics has
    covariance Sigma_form = (I - J) Diag(lambda^2) (I - J)' with J = 11'/n,
    and the formation error is d * delta_ss(P_form, Sigma_form).  P_form is
    symmetric, so J = 1 pi'; delta_ss = Tr((Z - 1 pi') Sigma D) reads Sigma
    only through Z - 1 pi', which absorbs both I - J factors (Z 1 = 1,
    pi' Z = pi').  So Diag(lambda^2) itself is passed, and no n x n
    covariance is built.  Supports per-node lambda^2.
    """
    rep = delta_ss_theorem(formation_matrix(spec), NoiseCovariance.diagonal(spec.lambda2))
    return spec.dim * rep.delta_ss


def simulate_formation(
    spec: FormationSpec,
    cfg: SimConfig,
    p0: np.ndarray | None = None,
) -> tuple[FormationTrace, tuple[float, float]]:
    """Simulate the formation update and tail-average its error metric.

    Starts at the in-formation positions unless ``p0`` is given.  Returns
    the recorded trace (positions of trial 0 plus the across-trial mean and
    standard error of the per-step metric) and the tail estimate
    (mean of per-trial tail averages past the burn-in, stderr across
    trials), directly comparable to :func:`form_exact`.

    The in-formation positions phat satisfy P_form phat - C = phat, where
    C_i = sum_j f_ij r_ij is the offsets' drift, so q = p - phat runs the
    plain noisy consensus q(t+1) = P_form q(t) + n(t), and the formation
    error of p is the uniform disagreement of q summed over the d
    coordinates.
    """
    n, d = spec.n, spec.dim
    P = formation_matrix(spec)
    burn = _resolve_burn_in(P, cfg)
    if p0 is None:
        p0 = spec.positions
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n, d):
        raise DimensionMismatch(f"p0 must have shape ({n},{d}), got {p0.shape}")

    noise = NoiseCovariance.diagonal(spec.lambda2)
    times, _, form, positions = _run_trials(P, noise, p0 - spec.positions, cfg)
    positions += spec.positions
    form_mean, form_se, est, se = _summarize(times, form, burn)
    trace = FormationTrace(
        times=times,
        positions=positions,
        form_mean=form_mean,
        form_stderr=form_se,
        burn_in=burn,
    )
    return trace, (est, se)


# =====================================================================
# ready-made specs and layouts
# =====================================================================

def ring_demo_spec(lambda2: float = 4e-4) -> FormationSpec:
    """The 4-agent unit-square demo: ring graph, weights 1/9."""
    g = custom_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], family="ring(n=4)")
    offsets = {
        (0, 1): [1.0, 1.0],
        (1, 2): [-1.0, 1.0],
        (2, 3): [-1.0, -1.0],
        (3, 0): [1.0, -1.0],
    }
    weights = {e: 1.0 / 9.0 for e in g.edges}
    return build_formation_spec(g, 2, offsets, weights, lambda2)


def layout_positions(graph: Graph) -> np.ndarray:
    """Planar target positions for a named family (fallback: a circle).

    Star leaves sit on the unit circle around the center; rings and the
    fallback use the regular polygon with unit sides; trees use a level
    drawing with unit level spacing (so every edge is at least unit
    length); lines and grids use unit spacing.
    """
    n = graph.n
    fam = graph.family.split("(", 1)[0]
    pos = np.zeros((n, 2))
    if fam == "line" and n > 1:
        pos[:, 0] = np.arange(n)
    elif fam == "star" and n > 1:
        ang = 2.0 * np.pi * np.arange(n - 1) / (n - 1)
        pos[1:, 0] = np.cos(ang)
        pos[1:, 1] = np.sin(ang)
    elif fam == "two-star" and n > 2:
        pos[n - 1] = [3.0, 0.0]
        a = (n - 2 + 1) // 2
        for idx, node in enumerate(range(1, 1 + a)):
            ang = 2.0 * np.pi * idx / max(a, 1)
            pos[node] = [np.cos(ang), np.sin(ang)]
        b = n - 2 - a
        for idx, node in enumerate(range(1 + a, n - 1)):
            ang = 2.0 * np.pi * idx / max(b, 1)
            pos[node] = [3.0 + np.cos(ang), np.sin(ang)]
    elif fam == "tree":
        h = int(np.log2(n + 1))
        width = float(2 ** (h - 1))
        for i in range(n):
            lvl = int(np.log2(i + 1))
            idx = i - (2 ** lvl - 1)
            pos[i, 0] = (idx + 0.5) * width / (2 ** lvl) - width / 2.0
            pos[i, 1] = -float(lvl)
    elif fam == "grid2":
        side = round(np.sqrt(n))
        for i in range(n):
            pos[i] = [i % side, i // side]
    else:
        # ring, complete, and anything unnamed: regular polygon, unit sides
        if n > 1:
            radius = 1.0 / (2.0 * np.sin(np.pi / n))
            ang = 2.0 * np.pi * np.arange(n) / n
            pos[:, 0] = radius * np.cos(ang)
            pos[:, 1] = radius * np.sin(ang)
    return pos


def spec_from_graph(graph: Graph, lambda2) -> FormationSpec:
    """Formation spec for a built-in family, with default weights and
    offsets from its planar layout.

    The disagreement metrics never read the offsets (any consistent choice
    gives the same Form), so the layout only shapes trajectories.
    """
    pos = layout_positions(graph)
    offsets = {(i, j): pos[j] - pos[i] for i, j in graph.edges}
    return build_formation_spec(graph, 2, offsets, "default", lambda2)


# =====================================================================
# i/o
# =====================================================================

def load_formation_spec(path) -> FormationSpec:
    """Read a formation spec from JSON.

    Schema::

        {
          "n": 4, "dim": 2,
          "edges": [{"i": 0, "j": 1, "r": [1.0, 1.0]}, ...],
          "weights": "default",            # or [[i, j, w], ...]
          "lambda2": 4e-4                  # or per-node list
        }
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidParam(f"formation spec {path}: not a text file ({exc})") from exc
    try:
        n = int(doc["n"])
        dim = int(doc["dim"])
        raw_edges = doc["edges"]
        lambda2 = np.asarray(doc.get("lambda2", 0.0), dtype=float)
        weights = doc.get("weights", "default")
        offsets = {}
        edges = []
        for entry in raw_edges:
            if isinstance(entry, dict):
                i, j, r = int(entry["i"]), int(entry["j"]), entry["r"]
            else:
                i, j, r = int(entry[0]), int(entry[1]), entry[2]
            edges.append((i, j))
            offsets[(i, j)] = np.asarray(r, dtype=float)
        if not isinstance(weights, str):
            weights = {(int(i), int(j)): float(w) for i, j, w in weights}
    except KeyError as exc:
        raise InvalidParam(f"formation spec {path}: missing field {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise InvalidParam(f"formation spec {path}: malformed field ({exc})") from exc
    g = custom_graph(n, edges, family=f"custom({path})")
    return build_formation_spec(g, dim, offsets, weights, lambda2)


def write_trajectory_csv(path, trace: FormationTrace) -> None:
    """Dump recorded positions: one row per (t, node), columns x1..xd."""
    with open(path, "w") as fh:
        _write_trajectory(fh, trace)


def _write_trajectory(fh, trace: FormationTrace) -> None:
    """The trajectory CSV (header and rows) into an open text file.

    One ``%`` format per recorded step, over all n rows: the node numbers
    sit in the template and the step's ``t`` is joined in before the
    floats are formatted.  One step is written at a time, so memory stays
    at one step's rows.  The bytes equal those of the row format
    ``"%d,%d," + ",".join(["%.16e"] * d) + "\\n"`` per (t, node).
    """
    _, n, d = trace.positions.shape
    fh.write("t,node," + ",".join(f"x{k + 1}" for k in range(d)) + "\n")
    floats = ",".join(["%.16e"] * d) + "\n"
    rows = ["", *(f"{node}," + floats for node in range(n))]
    for t, step in zip(trace.times.tolist(), trace.positions):
        fh.write(f"{t},".join(rows) % tuple(step.ravel().tolist()))
