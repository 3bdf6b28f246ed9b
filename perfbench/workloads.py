"""The three workloads: fixed operation lists whose inputs come from a seed.

Each operation is one ``consensuslab`` CLI invocation.  The sizes, graph
families, chains, simulation lengths and the order of the operations are
fixed, so every seed asks for the same amount of work; the seed only draws
the values that do not change the cost: noise variances, random-graph edges
with a fixed node and edge count, and simulation seeds.

This module imports nothing from ``consensuslab``: it writes the input
files the CLI reads and records, for the checker, everything the checker
needs to recompute each answer.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("exact", "sweep", "montecarlo")

ORACLE_CAP = 64
"""The CLI's default ``--oracle-cap``: ``analyze`` runs the oracle at n <= 64."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checker needs to verify it."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    case: dict = field(default_factory=dict)


# (family, n, chain, noise) -- "random" is a seeded graph passed as --edges
EXACT_CASES = (
    ("ring", 200, "lazy", "scalar"),
    ("line", 200, "uniform", "scalar"),
    ("starry-line", 192, "lazy", "vector"),
    ("tree", 127, "lazy", "scalar"),
    ("two-star", 200, "uniform", "vector"),
    ("random", 160, "uniform", "scalar"),
    ("random", 120, "lazy", "vector"),
    ("ring", 64, "lazy", "vector"),
    ("tree", 63, "uniform", "scalar"),
    ("random", 48, "lazy", "scalar"),
    ("starry-line", 48, "uniform", "vector"),
    ("line", 32, "lazy", "scalar"),
    ("two-star", 40, "lazy", "scalar"),
)

# (family, sizes, chain); every size takes the fundamental-matrix route
SWEEP_CASES = (
    ("ring", (256, 640, 1024), "lazy"),
    ("line", (300, 700, 1200), "uniform"),
    ("starry-line", (288, 576, 1152), "lazy"),
    ("grid", (256, 576, 1024), "uniform"),
    ("tree", (255, 511, 1023), "lazy"),
    ("two-star", (400, 900, 1600), "uniform"),
)

# (family, n, chain, noise law, noise, horizon, trials, burn-in)
SIMULATE_CASES = (
    ("star", 8, "lazy", "gaussian", "scalar", 2000, 16, 300),
    ("ring", 32, "lazy", "rademacher", "vector", 2000, 16, 500),
    ("tree", 127, "lazy", "gaussian", "vector", 2500, 12, 1200),
)

# (family or "demo", n, horizon, trials, record_every); burn-in is automatic:
# 7052 steps for tree127, 2520 for star127, 51 for the demo square
FORMATION_CASES = (
    ("tree", 127, 8000, 12, 5),
    ("star", 127, 3500, 12, 5),
    ("demo", 4, 2000, 16, 1),
)


def _fmt(x: float) -> str:
    return repr(float(x))


def random_graph_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A Hamiltonian cycle on a random node order plus n/2 random chords.

    Connected by construction, with exactly n + n // 2 edges for every
    seed, so the spectral gap (and the oracle's iteration count) moves
    little from one seed to the next.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[k], order[(k + 1) % n]))) for k in range(n)}
    while len(edges) < n + n // 2:
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _noise_args(rng, kind: str, n: int, run_dir: str, stem: str):
    """CLI noise flags plus the variance vector the checker should use."""
    if kind == "scalar":
        s = round(rng.uniform(0.5, 2.0), 6)
        return ["--sigma2", _fmt(s)], [s] * n
    v = [rng.uniform(0.25, 4.0) for _ in range(n)]
    path = os.path.join(run_dir, f"{stem}.sigma2")
    _write(path, "".join(_fmt(x) + "\n" for x in v))
    return ["--sigma2-vec", path], v


def analyze_op(rng, run_dir: str, stem: str, row) -> Op:
    """``analyze`` on one ``(family, n, chain, noise)`` row of ``EXACT_CASES``."""
    fam, n, chain, noise = row
    out = os.path.join(run_dir, stem + ".json")
    graph_args = ["--family", fam, "--n", str(n)]
    case = {"kind": "analyze", "family": fam, "n": n, "chain": chain}
    if fam == "random":
        edges = random_graph_edges(rng, n)
        path = os.path.join(run_dir, stem + ".edges")
        _write(path, f"{n}\n" + "".join(f"{i} {j}\n" for i, j in edges))
        graph_args = ["--family", "custom", "--edges", path]
        case["edges"] = edges
    noise_args, variances = _noise_args(rng, noise, n, run_dir, stem)
    case.update(variances=variances, equal_variance=noise == "scalar",
                 oracle=n <= ORACLE_CAP)
    argv = ["analyze", *graph_args, "--chain", chain, *noise_args, "--out", out]
    return Op(f"analyze {fam}{n} {chain} {noise}", tuple(argv), (out,), case)


def sweep_op(rng, run_dir: str, stem: str, row) -> Op:
    """``sweep`` on one ``(family, sizes, chain)`` row of ``SWEEP_CASES``."""
    fam, sizes, chain = row
    out = os.path.join(run_dir, stem + ".csv")
    s = round(rng.uniform(0.5, 2.0), 6)
    argv = ["sweep", "--family", fam, "--n-list", ",".join(map(str, sizes)),
            "--chain", chain, "--sigma2", _fmt(s), "--out", out]
    case = {"kind": "sweep", "family": fam, "sizes": list(sizes), "chain": chain,
             "sigma2": s}
    return Op(f"sweep {fam} {chain}", tuple(argv), (out,), case)


def simulate_op(rng, run_dir: str, stem: str, row) -> Op:
    """``simulate`` on one row of ``SIMULATE_CASES``."""
    fam, n, chain, law, noise, horizon, trials, burn = row
    trace, summary = (os.path.join(run_dir, stem + ext) for ext in (".csv", ".json"))
    noise_args, variances = _noise_args(rng, noise, n, run_dir, stem)
    argv = ["simulate", "--family", fam, "--n", str(n), "--chain", chain, *noise_args,
            "--noise", law, "--horizon", str(horizon), "--trials", str(trials),
            "--burn-in", str(burn), "--seed", str(rng.randrange(2**31)),
            "--out", trace, "--summary", summary]
    case = {"kind": "simulate", "family": fam, "n": n, "chain": chain,
             "variances": variances, "horizon": horizon, "trials": trials,
             "burn_in": burn, "trial_steps": horizon * trials}
    return Op(f"simulate {fam}{n} {law}", tuple(argv), (trace, summary), case)


def formation_op(rng, run_dir: str, stem: str, row) -> Op:
    """``formation`` on one row of ``FORMATION_CASES``; burn-in is automatic."""
    fam, n, horizon, trials, every = row
    traj, summary = (os.path.join(run_dir, stem + ext) for ext in (".csv", ".json"))
    lam2 = round(rng.uniform(2e-4, 8e-4), 9)
    graph_args = ["--demo"] if fam == "demo" else ["--family", fam, "--n", str(n)]
    argv = ["formation", *graph_args, "--lambda2", _fmt(lam2),
            "--horizon", str(horizon), "--trials", str(trials),
            "--record-every", str(every), "--seed", str(rng.randrange(2**31)),
            "--out", traj, "--summary", summary]
    case = {"kind": "formation", "family": fam, "n": n, "dim": 2, "lambda2": lam2,
             "horizon": horizon, "trials": trials, "record_every": every}
    return Op(f"formation {fam}{n}", tuple(argv), (traj, summary), case)


def _ops(rng, run_dir: str, prefix: str, make, rows) -> list[Op]:
    return [make(rng, run_dir, f"{prefix}{k:02d}", row) for k, row in enumerate(rows)]


_OPS_OF = {
    "exact": lambda rng, d: _ops(rng, d, "exact", analyze_op, EXACT_CASES),
    "sweep": lambda rng, d: _ops(rng, d, "sweep", sweep_op, SWEEP_CASES),
    "montecarlo": lambda rng, d: (_ops(rng, d, "sim", simulate_op, SIMULATE_CASES)
                                  + _ops(rng, d, "form", formation_op, FORMATION_CASES)),
}


def warmup_op(workload: str, run_dir: str) -> Op:
    """A small untimed operation that loads every code path the workload uses."""
    if workload == "exact":
        out = os.path.join(run_dir, "warmup.json")
        argv = ["analyze", "--family", "ring", "--n", "16", "--out", out]
    elif workload == "sweep":
        out = os.path.join(run_dir, "warmup.csv")
        argv = ["sweep", "--family", "ring", "--n-list", "256", "--out", out]
    else:
        out = os.path.join(run_dir, "warmup.json")
        argv = ["simulate", "--family", "star", "--n", "8", "--horizon", "200",
                "--trials", "2", "--burn-in", "50", "--summary", out]
    return Op("warmup", tuple(argv), (out,))


def build_ops(workload: str, seed: int, run_dir: str) -> list[Op]:
    """Write the workload's input files under ``run_dir`` and list its operations."""
    return _OPS_OF[workload](random.Random(f"{workload}:{seed}"), run_dir)
