"""Referees for the closed forms, kept apart from the package's own route.

The package evaluates delta_ss and Sigma_hat from the fundamental matrix Z
of P^2.  The referees here reach the same numbers another way:

* ``per_target_hitting_times`` solves for H one target at a time, one LU
  solve of (I - P) h = 1 per target, and never reads Z: the referee of
  ``markov.hitting_times``, which reads H off Z;
* ``hitting_time_delta`` and ``hitting_time_sigma_hat`` evaluate the
  theorem as written, pi' H D Sigma D 1 - Tr(H D Sigma D), with H(P^2)
  from ``per_target_hitting_times``;
* ``exact_lazy_delta`` runs a ``fractions.Fraction`` Gauss-Jordan on
  I - P^2 + 1 pi' for a lazy walk, whose entries are rational, and returns
  delta_ss with no rounding at all (``exact_lazy_z`` gives that Z, and Z
  of P itself);
* ``delta_ss_bounds`` brackets delta_ss for diagonal noise between the
  Kemeny constant and the largest effective resistance of P^2.

Two more give closed forms the package reaches by other routes:
``degree_stationary`` is the stationary law d/2m of the simple and lazy
walks, and ``form_metric`` the formation error of one set of positions,
which the simulator reaches as a uniform disagreement.  ``exact_positions``
recovers formation positions from offsets in ``fractions.Fraction``.

The per-target solves carry no refinement, so on a chain with widely spread
conductances they are the less accurate side of the comparison: over 5,000
random reversible chains (n <= 10, conductances 1e-6..1) the worst delta_ss
from the hitting-time form was 6.3e-13 from exact rational arithmetic,
against 5.8e-15 for the package's Z form.  A bound that compares the two
must cover that gap.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg

from consensuslab import tolerances
from consensuslab.disagreement import NoiseCovariance
from consensuslab.errors import DimensionMismatch, NotIrreducible, SingularSystem
from consensuslab.markov import effective_resistance, kemeny_constant_combinatorial, square_chain


def degree_stationary(g) -> np.ndarray:
    """Closed-form stationary law d(i)/(2m) of the simple and lazy walks."""
    return g.degrees() / (2.0 * g.m)


def delta_ss_bounds(P, variances) -> tuple[float, float]:
    """Two-sided bounds for diagonal noise on a reversible chain.

    lower = (min_i sigma_i^2 pi_i) * K(P^2)
    upper = (max_i sigma_i^2 pi_i) * max_ij R_{P^2}(i, j)

    The variances pass the package's own check (``NoiseCovariance.diagonal``)
    and must number one per state.
    """
    v = NoiseCovariance.diagonal(variances).variances()
    if v.shape != (P.n,):
        raise DimensionMismatch(f"need {P.n} variances, got shape {v.shape}")
    w = v * P.stationary()
    P2 = square_chain(P)
    return (float(w.min()) * kemeny_constant_combinatorial(P2),
            float(w.max()) * float(effective_resistance(P2).max()))


def per_target_hitting_times(P) -> np.ndarray:
    """H[i, j] = E_i[time to reach j] of an irreducible chain, one target at
    a time: for each j, (I - P) h = 1 with row j replaced by h_j = 0, by LU.

    O(n^4) in all and never cached; it reads only P's entries.  Like the
    package's route, H must meet its defining equations
    H = 1 + P H off the diagonal within ``tolerances.HITTING_RESIDUAL_TOL * n``,
    else SingularSystem.  Read-only.
    """
    if not P.irreducible:
        raise NotIrreducible("hitting times need an irreducible chain")
    E = P.entries
    n = P.n
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
    resid = H - E @ H - 1.0
    np.fill_diagonal(resid, 0.0)
    worst = float(np.abs(resid).max())
    allowed = tolerances.HITTING_RESIDUAL_TOL * n
    if worst > allowed:
        raise SingularSystem(f"hitting-time residual {worst:.3e} exceeds {allowed:.3e}")
    H.setflags(write=False)
    return H


def form_metric(positions, spec) -> float:
    """Mean squared distance to the formation, after matching centroids."""
    p = np.asarray(positions, dtype=float)
    target = spec.positions + (p.mean(axis=0) - spec.positions.mean(axis=0))
    diff = p - target
    return float(np.mean(np.sum(diff * diff, axis=1)))


def _hitting_sandwich(P, noise):
    """H(P^2) by per-target solves and A = D Sigma D."""
    pi = P.stationary()
    H = per_target_hitting_times(square_chain(P))
    return H, (pi[:, None] * noise.matrix()) * pi[None, :]


def hitting_time_delta(P, noise) -> float:
    """delta_ss = pi' H D Sigma D 1 - Tr(H D Sigma D), H = H(P^2) per target."""
    H, A = _hitting_sandwich(P, noise)
    return float(P.stationary() @ (H @ A.sum(axis=1))) - float(np.sum(H * A.T))


def hitting_time_sigma_hat(P, noise) -> np.ndarray:
    """Sigma_hat = 1 pi' H D Sigma D - H D Sigma D, H = H(P^2) per target."""
    H, A = _hitting_sandwich(P, noise)
    M = H @ A
    return np.outer(np.ones(P.n), P.stationary() @ M) - M


def lazy_walk_fractions(graph) -> tuple[list, list]:
    """The lazy walk on ``graph`` and its stationary law d_i / 2m, exactly."""
    n = graph.n
    deg = [0] * n
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    P = [[Fraction(1, 2) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i, j in graph.edges:
        P[i][j] += Fraction(1, 2 * deg[i])
        P[j][i] += Fraction(1, 2 * deg[j])
    total = sum(deg)
    return P, [Fraction(d, total) for d in deg]


def _inverse(B: list) -> list:
    """Gauss-Jordan inverse of a nonsingular Fraction matrix."""
    n = len(B)
    rows = [list(r) + [Fraction(int(i == k)) for k in range(n)] for i, r in enumerate(B)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f != 0:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def exact_lazy_z(graph, steps: int = 1) -> tuple[list, list]:
    """Z = (I - P^steps + 1 pi')^-1 of the lazy walk P on ``graph`` and its
    stationary law, exactly: Z as n rows of Fractions, by Gauss-Jordan."""
    P, pi = lazy_walk_fractions(graph)
    n = len(pi)
    Q = P
    for _ in range(steps - 1):
        cols = list(zip(*Q))
        Q = [[sum(a * b for a, b in zip(P[i], cols[j])) for j in range(n)] for i in range(n)]
    B = [[int(i == j) - Q[i][j] + pi[j] for j in range(n)] for i in range(n)]
    return _inverse(B), pi


def exact_lazy_delta(graph, variances) -> Fraction:
    """delta_ss of the lazy walk on ``graph`` for diagonal noise, exactly.

    Z = (I - P^2 + 1 pi')^-1 in rational arithmetic, then
    delta_ss = Tr((Z - 1 pi') Sigma D) = sum_i sigma_i^2 pi_i (Z_ii - pi_i).
    ``variances`` must be exact: ints, Fractions or floats (read exactly).
    """
    Z, pi = exact_lazy_z(graph, 2)
    return sum(Fraction(v) * pi[i] * (Z[i][i] - pi[i]) for i, v in enumerate(variances))


def exact_positions(graph, positions) -> list:
    """The centred positions of a formation whose offsets are the exact
    differences r_ij = p_j - p_i of ``positions`` (floats, read exactly).

    Solved in rational arithmetic apart from the package: a depth-first
    walk from node 0 sets p_j = p_i + r_ij, every edge is checked to close
    exactly, and the centroid is subtracted.  A list of n rows of Fractions.
    """
    given = [[Fraction(x) for x in row] for row in np.asarray(positions, dtype=float).tolist()]
    r = {(i, j): [b - a for a, b in zip(given[i], given[j])] for i, j in graph.edges}
    neighbours = [[] for _ in range(graph.n)]
    for i, j in graph.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    p = [None] * graph.n
    p[0] = [Fraction(0)] * len(given[0])
    stack = [0]
    while stack:
        i = stack.pop()
        for j in neighbours[i]:
            if p[j] is None:
                step = r[(i, j)] if (i, j) in r else [-x for x in r[(j, i)]]
                p[j] = [a + b for a, b in zip(p[i], step)]
                stack.append(j)
    assert all(x is not None for x in p), "graph is not connected"
    assert all([b - a for a, b in zip(p[i], p[j])] == r[(i, j)] for i, j in graph.edges)
    centre = [sum(col) / graph.n for col in zip(*p)]
    return [[x - c for x, c in zip(row, centre)] for row in p]
