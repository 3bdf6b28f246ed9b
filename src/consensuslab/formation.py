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

import numpy as np

from . import tolerances
from ._csvrows import BLOCK_FLOATS, _csv_rows, _int_field
from .disagreement import NoiseCovariance, _require_variances, delta_ss_theorem
from .errors import (
    AsymmetricWeights,
    DimensionMismatch,
    InconsistentFormation,
    InvalidParam,
    StepSizeViolation,
)
from .graphs import Graph, custom_graph
from .markov import (StochasticMatrix, _graph_chain, kemeny_constant_combinatorial, square_chain,
                     uniform_edge_matrix)
from .simulate import SimConfig, _resolve_burn_in, _run_trials, _summarize

__all__ = [
    "FormationSpec",
    "FormationReport",
    "FormationTrace",
    "build_formation_spec",
    "form_exact",
    "form_via_delta",
    "simulate_formation",
    "ring_demo_spec",
    "spec_from_graph",
    "layout_positions",
    "load_formation_spec",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class FormationSpec:
    """A validated formation problem: the noisy consensus each coordinate runs.

    ``chain`` is P_form (off-diagonal f_ij, diagonal 1 - sum_j f_ij) and
    ``noise`` is Diag(lambda^2); every route reads these two, so all share
    P_form's pi, P^2 and Z, and ``chain`` holds the weight f_ij at (i, j).
    ``positions`` are the in-formation positions walked out from the
    offsets r_ij = p_j - p_i along a spanning tree (zero centroid), so
    they hold the offsets too: ``consistency_residual`` is max over the
    edges of |p_j - p_i - r_ij|, the worst cycle-closure defect —
    guaranteed <= ``tolerances.CONSISTENCY_TOL``.
    """

    graph: Graph
    dim: int
    chain: StochasticMatrix
    noise: NoiseCovariance
    positions: np.ndarray
    consistency_residual: float

    @property
    def n(self) -> int:
        return self.graph.n


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


def _canonical_edge_map(edge_set: set, mapping, what: str, *, negate_flip: bool):
    """Fold an either-orientation mapping onto the canonical edges of edge_set.

    negate_flip=True treats values as direction-dependent (offsets):
    a (j, i) entry is stored as its negation at (i, j).
    """
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
    """Validate a formation problem; build its P_form and Diag(lambda^2) once.

    ``offsets`` maps edges (either orientation) to the desired p_j - p_i.
    ``weights`` is "default" (P_form is :func:`uniform_edge_matrix` itself)
    or a mapping to positive weights; per-node weight sums must stay
    strictly below 1.  ``lambda2`` is the per-node (or shared scalar)
    per-coordinate noise variance.  Positions are walked out along P_form's
    breadth-first tree, p_j = p_i + r_ij; each cycle's closure defect
    |p_j - p_i - r_ij| must stay <= ``tolerances.CONSISTENCY_TOL``, else
    InconsistentFormation.
    """
    if dim < 1:
        raise InvalidParam(f"dimension must be >= 1, got {dim}")
    n, e = graph.n, graph.edges
    keys = list(map(tuple, e.tolist()))  # the canonical edges, as dict keys
    edge_set = set(keys)

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
    off = _canonical_edge_map(edge_set, off_arrays, "offset", negate_flip=True)

    if isinstance(weights, str):
        if weights != "default":
            raise InvalidParam(f"weights must be a mapping or 'default', got {weights!r}")
        if graph.m == 0:
            raise InvalidParam("formation weights need at least one edge")
        chain = uniform_edge_matrix(graph)
    else:
        w = _canonical_edge_map(edge_set, dict(weights), "weight", negate_flip=False)
        x = np.array([float(w[edge]) for edge in keys])
        if not (np.isfinite(x).all() and np.all(x > 0)):
            raise InvalidParam("formation weights must be finite and positive")
        row_sum = np.bincount(e.ravel(), np.repeat(x, 2), minlength=n)
        if row_sum.max() >= 1.0:
            worst = int(row_sum.argmax())
            raise StepSizeViolation(f"node {worst} has total weight {row_sum[worst]:.6g} >= 1")
        chain = _graph_chain(graph, np.stack([x, x]), 1.0 - row_sum)
    order, pred = chain._bfs_tree

    lam = np.asarray(lambda2, dtype=float)
    if lam.ndim == 0:
        lam = np.full(n, float(lam))
    if lam.shape != (n,):
        raise DimensionMismatch(f"lambda2 must be scalar or length {n}, got shape {lam.shape}")
    _require_variances(lam, "lambda2")
    noise = NoiseCovariance.diagonal(lam)

    # each node's offset from its tree parent, then p_j = p_i + r_ij in tree order
    r = np.array([off[edge] for edge in keys]).reshape(-1, dim)
    i, j = e[:, 0], e[:, 1]
    pos = np.zeros((n, dim))
    down, up = pred[j] == i, pred[i] == j
    pos[j[down]] = r[down]
    pos[i[up]] = -r[up]
    for k in order[1:].tolist():
        pos[k] += pos[pred[k]]
    positions = pos - pos.mean(axis=0, keepdims=True)
    resid = float(np.abs(positions[j] - positions[i] - r).max()) if graph.m else 0.0
    if resid > tolerances.CONSISTENCY_TOL:
        raise InconsistentFormation(
            f"offsets are inconsistent: cycle-closure residual {resid:.3e} "
            f"exceeds {tolerances.CONSISTENCY_TOL:g}"
        )
    return FormationSpec(graph=graph, dim=dim, chain=chain, noise=noise, positions=positions,
                         consistency_residual=resid)


def form_exact(spec: FormationSpec) -> FormationReport:
    """Closed-form formation error d * lambda^2 * K(P_form^2) / n.

    Per-node lambda^2 takes the error from :func:`form_via_delta` and is
    reported as the list; K(P_form^2) does not depend on the noise, so it
    is reported all the same.
    """
    K = kemeny_constant_combinatorial(square_chain(spec.chain))
    lam2 = spec.noise.equal_variance()
    if lam2 is None:
        val, lam2 = form_via_delta(spec), spec.noise.variances().tolist()
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
    rep = delta_ss_theorem(spec.chain, spec.noise)
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
    burn = _resolve_burn_in(spec.chain, cfg)
    if p0 is None:
        p0 = spec.positions
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n, d):
        raise DimensionMismatch(f"p0 must have shape ({n},{d}), got {p0.shape}")

    times, _, form, positions = _run_trials(spec.chain, spec.noise, p0 - spec.positions, cfg)
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
    weights = dict.fromkeys(offsets, 1.0 / 9.0)
    return build_formation_spec(g, 2, offsets, weights, lambda2)


def layout_positions(graph: Graph) -> np.ndarray:
    """Planar target positions for a named family (fallback: a circle).

    Star leaves sit on the unit circle around the center; rings and the
    fallback use the regular polygon with unit sides; trees use a level
    drawing with unit level spacing (so every edge is at least unit
    length); lines and 2-D grids use unit spacing, and grids of any other
    dimension take the fallback polygon.
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
    offsets = {(i, j): pos[j] - pos[i] for i, j in graph.edges.tolist()}
    return build_formation_spec(graph, 2, offsets, "default", lambda2)


# =====================================================================
# i/o
# =====================================================================

def _json_number(x, what: str, kind=(int, float)):
    """``x`` if JSON gave a number (an integer where ``kind`` is int); a boolean is neither."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise TypeError(f"{what} must be {'an integer' if kind is int else 'a number'}, got {x!r}")
    return x


def _json_floats(x, what: str) -> np.ndarray:
    """A JSON number, or a list of them, as floats."""
    for v in x if isinstance(x, list) else [x]:
        _json_number(v, what)
    return np.asarray(x, dtype=float)


def load_formation_spec(path) -> FormationSpec:
    """Read a formation spec from JSON.

    Schema::

        {
          "n": 4, "dim": 2,
          "edges": [{"i": 0, "j": 1, "r": [1.0, 1.0]}, ...],
          "weights": "default",            # or [[i, j, w], ...]
          "lambda2": 4e-4                  # or per-node list
        }

    ``n``, ``dim``, ``i`` and ``j`` are JSON integers, every other number a
    JSON number; a boolean is neither.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidParam(f"formation spec {path}: not a text file ({exc})") from exc
    try:
        n = _json_number(doc["n"], "n", int)
        dim = _json_number(doc["dim"], "dim", int)
        raw_edges = doc["edges"]
        lambda2 = _json_floats(doc.get("lambda2", 0.0), "lambda2")
        weights = doc.get("weights", "default")
        offsets = {}
        edges = []
        for entry in raw_edges:
            if isinstance(entry, dict):
                i, j, r = entry["i"], entry["j"], entry["r"]
            else:
                i, j, r = entry[0], entry[1], entry[2]
            i, j = _json_number(i, "i", int), _json_number(j, "j", int)
            edges.append((i, j))
            offsets[(i, j)] = _json_floats(r, "r")
        if not isinstance(weights, str):
            weights = {(_json_number(i, "i", int), _json_number(j, "j", int)):
                       float(_json_number(w, "weight")) for i, j, w in weights}
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

    The rows are built ``BLOCK_FLOATS`` floats' worth of recorded steps at
    a time, one ``fh.write`` each, so memory stays at one block whatever
    the record count.  Their floats come from ``_csvrows._csv_rows``,
    byte for byte Python's ``'%.16e'``, so the bytes equal those of the
    row format ``"%d,%d," + ",".join(["%.16e"] * d) + "\\n"`` per (t, node).
    """
    _, n, d = trace.positions.shape
    fh.write("t,node," + ",".join(f"x{k + 1}" for k in range(d)) + "\n")
    nodes = _int_field(range(n))
    step = max(1, BLOCK_FLOATS // (n * d))
    for s in range(0, trace.times.size, step):
        t = _int_field(trace.times[s : s + step].tolist())[:, None]
        fh.write(_csv_rows([t, nodes], trace.positions[s : s + step]))
