"""Graph families and helpers for consensus experiments.

All graphs are simple and undirected, with nodes labelled ``0 .. n-1``.
``Graph.edges`` is the one edge representation: a read-only (m, 2) int32
array of canonical rows ``(i, j)``, ``i < j``, sorted.  Conventions for the
named families:

* ``star``: node 0 is the center.
* ``two-star``: nodes 0 and n-1 are the two centers, joined by an edge;
  the remaining nodes are split between them as evenly as possible.
* ``starry-line``: n must be divisible by 3.  A line on n/3 nodes with a
  star on n/3 nodes glued (by its center) to each end of the line.  Node 0
  is the center of the first star and node n-1 the center of the second.
* ``grid``: the k-dimensional lattice on side^k nodes (no wraparound);
  n must be a perfect k-th power, otherwise the builder errors out rather
  than silently rounding.
* ``tree``: the complete binary tree, so n must be 2^h - 1; children of
  node i are 2i+1 and 2i+2.
* ``erdos-renyi``: G(n, p) resampled until connected (capped).
* ``random-regular``: configuration-model d-regular graph, rejecting
  pairings with self-loops or multi-edges, resampled until connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailed, InvalidParam

__all__ = [
    "Graph",
    "build_graph",
    "builtin_families",
    "complete_graph",
    "line_graph",
    "ring_graph",
    "star_graph",
    "two_star_graph",
    "starry_line_graph",
    "grid_graph",
    "binary_tree_graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "custom_graph",
    "load_edge_list",
    "is_connected",
]

_RETRY_CAP = 1000


# =====================================================================
# container
# =====================================================================

@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected simple graph, compared and hashed by identity; ``edges``
    is its canonical edge array (see the module docstring)."""

    n: int
    edges: np.ndarray
    family: str = "custom"

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def _make_graph(n: int, edges, family: str) -> Graph:
    """The graph on n nodes with the (i, j) pairs of ``edges``, either way round
    and repeated; InvalidParam names the first self-loop or out-of-range pair.
    The labels 0 .. n-1 must fit the int32 edge array, so n <= 2^31."""
    if n < 1:
        raise InvalidParam(f"graph needs n >= 1, got n={n}")
    if n > 2 ** 31:
        raise InvalidParam(f"graph needs n <= 2^31 (int32 node labels), got n={n}")
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        e = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # a label past int64, out of range: check Python ints
        e = np.array(pairs, dtype=object).reshape(-1, 2)
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    if bad.any():
        i, j = map(int, e[bad.argmax()])
        if i == j:
            raise InvalidParam(f"self-loop at node {i}")
        raise InvalidParam(f"edge ({i},{j}) out of range for n={n}")
    code = np.sort(lo * n + hi, kind="stable")  # as (lo, hi) tuples sort; a run in order is cheap
    code = code[np.diff(code, prepend=-1) != 0]  # distinct: np.unique(code), but faster
    canon = np.stack([code // n, code % n], axis=1).astype(np.int32)
    canon.setflags(write=False)
    return Graph(n=n, edges=canon, family=family)


def is_connected(g: Graph) -> bool:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    adjacency = coo_matrix((np.ones(g.m), tuple(g.edges.T)), shape=(g.n, g.n))
    return connected_components(adjacency, directed=False, return_labels=False) == 1


# =====================================================================
# deterministic families
# =====================================================================

def complete_graph(n: int) -> Graph:
    return _make_graph(n, np.stack(np.triu_indices(n, k=1), axis=1), f"complete(n={n})")


def line_graph(n: int) -> Graph:
    return _make_graph(n, [(i, i + 1) for i in range(n - 1)], f"line(n={n})")


def ring_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidParam(f"ring needs n >= 3, got n={n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _make_graph(n, edges, f"ring(n={n})")


def star_graph(n: int) -> Graph:
    """Star with center node 0 and n-1 leaves."""
    if n < 2:
        raise InvalidParam(f"star needs n >= 2, got n={n}")
    return _make_graph(n, [(0, j) for j in range(1, n)], f"star(n={n})")


def two_star_graph(n: int) -> Graph:
    """Two stars whose centers (nodes 0 and n-1) are joined by an edge.

    The n-2 leaves are split as evenly as possible, the first star taking
    the extra leaf when n is odd; leaves 1..a belong to center 0 and the
    rest to center n-1.
    """
    if n < 2:
        raise InvalidParam(f"two-star needs n >= 2, got n={n}")
    a = (n - 2 + 1) // 2
    edges = [(0, n - 1)]
    edges += [(0, j) for j in range(1, 1 + a)]
    edges += [(j, n - 1) for j in range(1 + a, n - 1)]
    return _make_graph(n, edges, f"two-star(n={n})")


def starry_line_graph(n: int) -> Graph:
    if n < 3 or n % 3 != 0:
        raise InvalidParam(f"starry-line needs n divisible by 3, got n={n}")
    k = n // 3
    edges = []
    # first star: center 0, leaves 1..k-1
    edges += [(0, j) for j in range(1, k)]
    # line on nodes k..2k-1
    edges += [(i, i + 1) for i in range(k, 2 * k - 1)]
    # second star: center n-1, leaves 2k..n-2
    edges += [(n - 1, j) for j in range(2 * k, n - 1)]
    # glue star centers to the line's endpoints
    edges.append((0, k))
    edges.append((n - 1, 2 * k - 1))
    return _make_graph(n, edges, f"starry-line(n={n})")


def grid_graph(n: int, dim: int = 2) -> Graph:
    """k-dimensional lattice; n must be a perfect ``dim``-th power."""
    if dim < 1:
        raise InvalidParam(f"grid dimension must be >= 1, got {dim}")
    if n < 1:
        raise InvalidParam(f"grid needs n >= 1, got n={n}")
    side = round(n ** (1.0 / dim))
    if side ** dim != n:
        raise InvalidParam(
            f"grid needs n to be a perfect {dim}-th power, got n={n}"
        )
    edges = []
    strides = [side ** k for k in range(dim)]
    for u in range(n):
        coords = [(u // strides[k]) % side for k in range(dim)]
        for k in range(dim):
            if coords[k] + 1 < side:
                edges.append((u, u + strides[k]))
    return _make_graph(n, edges, f"grid{dim}(n={n})")


def binary_tree_graph(n: int) -> Graph:
    """Complete binary tree on n = 2^h - 1 nodes, children at 2i+1, 2i+2."""
    if n < 1 or (n + 1) & n != 0:
        raise InvalidParam(f"complete binary tree needs n = 2^h - 1, got n={n}")
    edges = []
    for i in range(n):
        for c in (2 * i + 1, 2 * i + 2):
            if c < n:
                edges.append((i, c))
    return _make_graph(n, edges, f"tree(n={n})")


# =====================================================================
# random families
# =====================================================================

def _rng(seed) -> np.random.Generator:
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidParam(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def erdos_renyi_graph(n: int, p: float, seed=None) -> Graph:
    """G(n, p), resampled until connected (at most 1000 attempts)."""
    if not (0.0 <= p <= 1.0):
        raise InvalidParam(f"edge probability must be in [0,1], got {p}")
    rng = _rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(_RETRY_CAP):
        mask = rng.random(iu.size) < p
        edges = np.stack([iu[mask], ju[mask]], axis=1)
        g = _make_graph(n, edges, f"erdos-renyi(n={n},p={p},seed={seed})")
        if is_connected(g):
            return g
    raise GenerationFailed(
        f"no connected G({n},{p}) sample in {_RETRY_CAP} attempts"
    )


def random_regular_graph(n: int, d: int, seed=None) -> Graph:
    """Random d-regular graph via the configuration model.

    Pairings with self-loops or duplicate edges are rejected, and the
    accepted simple graph is additionally required to be connected; both
    kinds of rejection share the 1000-attempt budget.
    """
    if n < 2 or d < 1:
        raise InvalidParam(f"random-regular needs n >= 2 and d >= 1, got n={n}, d={d}")
    if d >= n:
        raise InvalidParam(f"degree d={d} must be < n={n}")
    if (n * d) % 2 != 0:
        raise InvalidParam(f"n*d must be even, got n={n}, d={d}")
    if d == 1 and n > 2:
        raise InvalidParam("d=1 gives a perfect matching, which is disconnected for n > 2")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_RETRY_CAP):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        if np.any(a == b):
            continue
        g = _make_graph(n, np.stack([a, b], axis=1), f"random-regular(n={n},d={d},seed={seed})")
        if g.m == n * d // 2 and is_connected(g):  # else a multi-edge collapsed
            return g
    raise GenerationFailed(
        f"no connected simple {d}-regular graph on {n} nodes in {_RETRY_CAP} attempts"
    )


def custom_graph(n: int, edges, family: str = "custom") -> Graph:
    """Wrap an explicit edge list (connectivity is *not* enforced here)."""
    return _make_graph(n, edges, family)


def load_edge_list(path) -> Graph:
    """Read a graph from a text file: first line n, then one ``i j`` per line.

    Node labels are 0-based; blank lines and ``#`` comments are skipped.
    """
    edges = []
    n = None
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidParam(f"{path}: not a text file ({exc})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != (1 if n is None else 2):
            what = "node count" if n is None else "'i j'"
            raise InvalidParam(f"{path}:{lineno}: expected {what}, got {raw!r}")
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise InvalidParam(f"{path}:{lineno}: expected integers, got {raw!r}") from None
        if n is None:
            n = values[0]
        else:
            edges.append(tuple(values))
    if n is None:
        raise InvalidParam(f"{path}: empty edge-list file")
    return custom_graph(n, edges, family=f"custom({path})")


# =====================================================================
# dispatch
# =====================================================================

# each canonical family: its builder, and the build_graph parameters it
# reads after n, in the order the builder takes them
_FAMILIES = {
    "complete": (complete_graph, ()),
    "line": (line_graph, ()),
    "ring": (ring_graph, ()),
    "star": (star_graph, ()),
    "two-star": (two_star_graph, ()),
    "starry-line": (starry_line_graph, ()),
    "grid": (grid_graph, ("dim",)),
    "tree": (binary_tree_graph, ()),
    "erdos-renyi": (erdos_renyi_graph, ("p", "seed")),
    "random-regular": (random_regular_graph, ("degree", "seed")),
}
_ALIASES = {"path": "line", "cycle": "ring", "twostar": "two-star", "starryline": "starry-line",
            "binary-tree": "tree", "er": "erdos-renyi", "regular": "random-regular"}


def builtin_families() -> tuple[str, ...]:
    """Canonical names of the built-in families."""
    return tuple(_FAMILIES)


def _family_key(family: str) -> str:
    """The canonical name of a family name or alias; InvalidParam if unknown."""
    key = str(family).lower()
    key = _ALIASES.get(key, key)
    if key not in _FAMILIES:
        raise InvalidParam(f"unknown graph family {family!r}")
    return key


def _family_reads(family: str) -> tuple[str, ...]:
    """The :func:`build_graph` parameters a family or alias reads after n."""
    return _FAMILIES[_family_key(family)][1]


def build_graph(
    family: str,
    n: int,
    *,
    seed=None,
    p: float | None = None,
    degree: int | None = None,
    dim: int = 2,
) -> Graph:
    """Build a graph by family name; see the module docstring for conventions.

    Parameters
    ----------
    family : str
        One of the built-in family names (a few aliases are accepted);
        explicit edge lists go through :func:`custom_graph`.
    n : int
        Node count.  Families with structural constraints (ring, starry-line,
        grid, tree) raise InvalidParam for unusable n instead of rounding.
    seed
        Only used by the random families; None draws fresh entropy.
    p, degree, dim
        Family-specific parameters; a family ignores those it does not
        read, and one it reads given as None is InvalidParam.
    """
    key = _family_key(family)
    builder, reads = _FAMILIES[key]
    given = {"seed": seed, "p": p, "degree": degree, "dim": dim}
    for name in reads:
        if given[name] is None and name != "seed":
            raise InvalidParam(f"{key} needs {name}")
    return builder(n, *(given[name] for name in reads))
