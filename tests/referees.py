"""Referees for the closed forms, kept apart from the package's own route.

The package evaluates delta_ss and Sigma_hat from the fundamental matrix Z
of P^2.  The referees here reach the same numbers another way:

* ``hitting_time_delta`` and ``hitting_time_sigma_hat`` evaluate the
  theorem as written, pi' H D Sigma D 1 - Tr(H D Sigma D), with H from the
  per-target hitting-time solves, which never read Z;
* ``exact_lazy_delta`` runs a ``fractions.Fraction`` Gauss-Jordan on
  I - P^2 + 1 pi' for a lazy walk, whose entries are rational, and returns
  delta_ss with no rounding at all.
"""

from fractions import Fraction

import numpy as np

from consensuslab.markov import hitting_times, square_chain


def _hitting_sandwich(P, noise):
    """H(P^2) by per-target solves and A = D Sigma D."""
    pi = P.stationary()
    H = hitting_times(square_chain(P), method="per-target")
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


def exact_lazy_delta(graph, variances) -> Fraction:
    """delta_ss of the lazy walk on ``graph`` for diagonal noise, exactly.

    Z = (I - P^2 + 1 pi')^-1 in rational arithmetic, then
    delta_ss = Tr((Z - 1 pi') Sigma D) = sum_i sigma_i^2 pi_i (Z_ii - pi_i).
    ``variances`` must be exact: ints, Fractions or floats (read exactly).
    """
    P, pi = lazy_walk_fractions(graph)
    n = len(pi)
    cols = list(zip(*P))
    B = [[int(i == j) - sum(a * b for a, b in zip(P[i], cols[j])) + pi[j]
          for j in range(n)] for i in range(n)]
    Z = _inverse(B)
    return sum(Fraction(v) * pi[i] * (Z[i][i] - pi[i]) for i, v in enumerate(variances))
