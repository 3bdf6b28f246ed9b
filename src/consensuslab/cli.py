"""Command-line harness.

Subcommands
-----------
analyze    exact disagreement + chain analytics for one graph, JSON out
sweep      scaling table over a size list, CSV out
simulate   Monte Carlo consensus run, trace CSV + summary JSON
formation  formation-control run, trajectory CSV + summary JSON
selftest   quick invariant checks, pass/fail lines

Exit codes: 0 ok; 2 bad configuration (arguments, files, graph/spec
validation); 3 numerical failure (non-convergence, singular systems,
violated chain preconditions).

Every output opens with one run header (``_header``): the tool version,
the command, the seed and the resolved config, so reruns are reproducible
byte for byte.  JSON summaries start with it; CSVs carry it on their
``# config=`` comment line.  CSV floats use 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from . import tolerances as tol
from .disagreement import (
    NoiseCovariance,
    _require_variances,
    delta_oracle,
    delta_ss_kemeny,
    delta_ss_resistance,
    delta_ss_spectral,
    delta_ss_theorem,
)
from .errors import ConsensusError, InvalidParam
from .graphs import Graph, _family_key, _family_reads, build_graph, builtin_families, load_edge_list
from .markov import (
    StochasticMatrix,
    _max_resistance,
    kemeny_constant_combinatorial,
    lazy_walk_matrix,
    simple_walk_matrix,
    square_chain,
    uniform_edge_matrix,
)
from .simulate import SimConfig, simulate_consensus
from .formation import (
    _write_trajectory,
    form_exact,
    load_formation_spec,
    ring_demo_spec,
    simulate_formation,
    spec_from_graph,
)

__all__ = ["main"]

_SWEEP_COLUMNS = (
    "family",
    "n",
    "delta_ss",
    "delta_uni_lower",
    "delta_uni_upper",
    "kemeny_p2",
    "max_resistance",
    "error",
)


# ---------------------------------------------------------------------
# shared argument plumbing
# ---------------------------------------------------------------------

def _add_graph_args(sub: argparse.ArgumentParser, *, one_graph: bool = True) -> None:
    """The graph flags; ``one_graph`` adds --n, --edges and the custom family,
    which a sweep over built-in families by size does not read."""
    families = ", ".join(builtin_families()) + (", or custom" if one_graph else "")
    sub.add_argument("--family", help=f"graph family: {families}")
    if one_graph:
        sub.add_argument("--n", type=int, help="node count")
        sub.add_argument("--edges", help="edge-list file (family=custom)")
    sub.add_argument("--p", type=float, help="edge probability (erdos-renyi)")
    sub.add_argument("--degree", type=int, help="degree (random-regular)")
    sub.add_argument("--grid-dim", type=int, help="grid dimension (family grid; default 2)")
    sub.add_argument("--seed", type=_seed, default=0, help="seed (graph sampling and simulation)")


def _add_chain_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--chain",
        choices=("lazy", "simple", "uniform"),
        default="lazy",
        help="random-walk matrix on the graph (default lazy)",
    )
    sub.add_argument(
        "--eps",
        type=float,
        default=None,
        help="edge weight for --chain uniform (default 1/(2 max degree))",
    )


def _variance(text: str) -> float:
    """argparse type of a noise variance: a finite number >= 0."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan  # rejected below, with the other non-finite values
    if not (math.isfinite(v) and v >= 0):
        raise argparse.ArgumentTypeError(f"variance must be a finite number >= 0, got {text!r}")
    return v


def _seed(text: str) -> int:
    """argparse type of a seed: an integer >= 0."""
    try:
        v = int(text)
    except ValueError:
        v = -1  # rejected below, with the negative values
    if v < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return v


def _node_variance(text: str) -> tuple[int, float]:
    """argparse type of one ``I=V`` node override."""
    try:
        node, value = text.split("=", 1)
        return int(node), _variance(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects I=V, got {text!r}") from None


def _add_noise_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sigma2", type=_variance,
                     help="shared noise variance (default 1); not with --sigma2-vec")
    sub.add_argument("--sigma2-vec", help="file of per-node variances, one per line")
    sub.add_argument(
        "--sigma2-node",
        type=_node_variance,
        action="append",
        default=[],
        metavar="I=V",
        help="override one node's variance; repeatable",
    )


_GRAPH_FLAGS = ("n", "edges", "p", "degree", "grid_dim")


def _reject(args, by: str, names) -> None:
    """InvalidParam for the first flag in ``names`` that was given: ``by``,
    the mode or source of the run, does not read it, so no run header
    records a value the run ignored."""
    for name in names:
        if getattr(args, name, None) is not None:
            raise InvalidParam(f"{by} does not read --{name.replace('_', '-')}")


def _flags_read(family: str) -> tuple[str, ...]:
    """The graph flags, and ``seed`` if it samples, that a family reads."""
    if family.lower() == "custom":
        return ("edges",)
    return ("n", *("grid_dim" if name == "dim" else name for name in _family_reads(family)))


def _graph_family(args) -> str:
    """Check the graph flags against the family before any work is done.

    Returns the canonical family name, or ``custom`` for an edge-list file.
    A flag the family does not read, or one it needs and was not given, is
    InvalidParam; so is ``--eps`` with a chain other than ``uniform``, the
    only one it weights.  ``--grid-dim`` is resolved to its default 2 for
    the families that read it.  ``sweep`` has no --n or --edges; its sizes
    come from --n-list.
    """
    if "eps" in args and args.chain != "uniform":
        _reject(args, f"--chain {args.chain}", ("eps",))
    if not args.family:
        raise InvalidParam("--family is required")
    fam = "custom" if args.family.lower() == "custom" else _family_key(args.family)
    reads = _flags_read(fam)
    _reject(args, f"--family {fam}", [name for name in _GRAPH_FLAGS if name not in reads])
    if "grid_dim" in reads and args.grid_dim is None:
        args.grid_dim = 2
    for name in _GRAPH_FLAGS:
        if name in reads and name in args and getattr(args, name) is None:
            raise InvalidParam(f"--family {fam} needs --{name.replace('_', '-')}")
    return fam


def _build_graph(args, n: int | None) -> Graph:
    """The graph of the checked graph flags; ``n`` is --n or a sweep size."""
    fam = _graph_family(args)
    if fam == "custom":
        return load_edge_list(args.edges)
    return build_graph(fam, n, seed=args.seed, p=args.p, degree=args.degree, dim=args.grid_dim)


def _build_chain(g: Graph, args) -> StochasticMatrix:
    if args.chain == "simple":
        return simple_walk_matrix(g)
    if args.chain == "uniform":
        return uniform_edge_matrix(g, eps=args.eps)
    return lazy_walk_matrix(g)


def _noise_builder(args):
    """Read the noise grammar once (scalar base, optional vector file,
    overrides); returns a function from the node count to the covariance.

    ``--sigma2`` with ``--sigma2-vec`` is InvalidParam, since the file sets
    every variance; without the file it is resolved to its default 1.
    """
    overrides = dict(args.sigma2_node)
    vec = None
    if args.sigma2_vec:
        _reject(args, "--sigma2-vec", ("sigma2",))
        try:
            vec = np.loadtxt(args.sigma2_vec, dtype=float, ndmin=1)
        except ValueError as exc:  # also undecodable bytes
            raise InvalidParam(f"--sigma2-vec {args.sigma2_vec}: {exc}") from exc
        _require_variances(vec, f"--sigma2-vec {args.sigma2_vec}: variances")
    elif args.sigma2 is None:
        args.sigma2 = 1.0

    def build(n: int) -> NoiseCovariance:
        if vec is not None:
            if vec.shape != (n,):
                raise InvalidParam(
                    f"--sigma2-vec {args.sigma2_vec} has {vec.size} entries, graph has {n} nodes"
                )
            v = vec.copy()
        elif overrides:
            v = np.full(n, args.sigma2)
        else:
            return NoiseCovariance.scalar(n, args.sigma2)
        for node, value in overrides.items():
            if not 0 <= node < n:
                raise InvalidParam(f"--sigma2-node index {node} out of range for n={n}")
            v[node] = value
        return NoiseCovariance.diagonal(v)

    return build


def _sim_config(args) -> SimConfig:
    """The SimConfig of the parsed flags that carry its field names."""
    names = [f.name for f in dataclasses.fields(SimConfig)]
    return SimConfig(**{k: getattr(args, k) for k in names if hasattr(args, k)})


_NOT_CONFIG = ("command", "seed", "out", "summary")


def _header(args, **resolved) -> dict:
    """The run header that opens every output.

    ``config`` holds every flag the subcommand parsed, in the order it
    declares them, except ``--seed`` (a header field of its own) and the
    output paths; ``resolved`` replaces raw values with the ones the run
    used.
    """
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    if "sigma2_node" in config:
        config["sigma2_node"] = dict(config["sigma2_node"])
    config.update(resolved)
    return {"version": __version__, "command": args.command, "seed": args.seed,
            "config": config}


def _meta_lines(header: dict) -> str:
    """The ``#`` comment block that opens every CSV output."""
    return (
        f"# version={header['version']}\n"
        f"# seed={header['seed']}\n"
        f"# config={json.dumps(header, sort_keys=True)}\n"
    )


def _write(text: str, path: str | None) -> None:
    """Send one output document to its file, or to stdout without a path."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------

def cmd_analyze(args) -> int:
    if args.oracle_cap < 0:
        raise InvalidParam(f"--oracle-cap must be >= 0, got {args.oracle_cap}")
    build_noise = _noise_builder(args)
    g = _build_graph(args, args.n)
    P = _build_chain(g, args)
    noise = build_noise(g.n)
    pi = P.stationary()

    # the theorem also gives the uniform-disagreement sandwich, so its
    # errors end the command; it runs first, so a periodic chain is named
    # as such before the squared chain's hitting times fail on it
    report = delta_ss_theorem(P, noise)
    kemeny_p = kemeny_constant_combinatorial(P)
    kemeny_p2 = kemeny_constant_combinatorial(square_chain(P))

    eq = noise.equal_variance()
    selected = ["theorem1"]
    if P.symmetric and eq is not None:
        selected += ["kemeny", "spectral", "resistance"]
    if g.n <= args.oracle_cap:
        selected.append("oracle")

    methods: dict[str, object] = {"theorem1": report.delta_ss}
    for name in selected[1:]:
        try:
            if name == "kemeny":
                methods[name] = delta_ss_kemeny(P, eq)
            elif name == "spectral":
                methods[name] = delta_ss_spectral(P, eq)
            elif name == "resistance":
                methods[name] = delta_ss_resistance(P, eq)
            elif name == "oracle":
                _, orep = delta_oracle(P, noise)
                methods[name] = orep.delta_ss
                methods["oracle_delta_uni"] = orep.delta_uni_exact
        except ConsensusError as exc:
            methods[name] = {"error": f"{type(exc).__name__}: {exc}"}

    doc = {
        **_header(args),
        "n": g.n,
        "graph_family": g.family,
        "chain_flags": {"symmetric": bool(P.symmetric), "reversible": bool(P.reversible)},
        "pi": pi.tolist(),
        "kemeny_p": kemeny_p,
        "kemeny_p2": kemeny_p2,
        "method_selection": selected,
        "methods": methods,
        "delta_ss": report.delta_ss,
        "delta_uni_lower": report.delta_uni_lower,
        "delta_uni_upper": report.delta_uni_upper,
    }
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------

def _sweep_row(fam: str, n: int, args, build_noise) -> dict:
    row: dict[str, object] = {c: "" for c in _SWEEP_COLUMNS}
    row["family"], row["n"], row["error"] = fam, n, ""
    try:
        g = _build_graph(args, n)
        _fill_row(row, _build_chain(g, args), build_noise(g.n))
    except ConsensusError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _fill_row(row: dict, P: StochasticMatrix, noise: NoiseCovariance) -> None:
    """The numbers of one sweep row, all read from the fundamental matrix of
    P^2: sweep noise is diagonal, so ``delta_ss_theorem`` reads only diag Z
    for delta_ss and its sandwich, and no hitting-time matrix is built."""
    rep = delta_ss_theorem(P, noise)
    row["delta_ss"] = rep.delta_ss
    row["delta_uni_lower"], row["delta_uni_upper"] = rep.delta_uni_lower, rep.delta_uni_upper
    P2 = square_chain(P)
    row["kemeny_p2"] = kemeny_constant_combinatorial(P2)
    if P2.reversible:
        row["max_resistance"] = _max_resistance(P2)


def cmd_sweep(args) -> int:
    try:
        sizes = [int(tok) for tok in args.n_list.replace(",", " ").split()]
    except ValueError as exc:
        raise InvalidParam(f"--n-list must be integers, got {args.n_list!r}") from exc
    if not sizes:
        raise InvalidParam("--n-list is empty")
    fam = _graph_family(args)  # a bad family or family flag ends the sweep before any row
    if fam == "custom":
        raise InvalidParam("sweep builds built-in families by size; custom has no sizes")
    # a malformed noise flag or file ends the sweep; a size mismatch is a row error
    build_noise = _noise_builder(args)

    rows = [_sweep_row(fam, n, args, build_noise) for n in sizes]

    def fmt(v) -> str:
        return f"{v:.16e}" if isinstance(v, float) else str(v)

    buf = io.StringIO()
    buf.write(_meta_lines(_header(args, n_list=sizes)))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([fmt(row[c]) for c in _SWEEP_COLUMNS])
    _write(buf.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------

def cmd_simulate(args) -> int:
    build_noise = _noise_builder(args)
    g = _build_graph(args, args.n)
    P = _build_chain(g, args)
    noise = build_noise(g.n)
    trace = simulate_consensus(P, noise, np.zeros(g.n), _sim_config(args))

    try:
        exact: float | None = delta_ss_theorem(P, noise).delta_ss
    except ConsensusError:
        exact = None

    header = _header(args, burn_in=trace.burn_in)
    if args.out:
        _write(_meta_lines(header) + trace.to_csv(), args.out)
    summary = {
        **header,
        "n": g.n,
        "delta_hat": trace.estimate,
        "stderr": trace.estimate_stderr,
        "delta_ss_exact": exact,
    }
    _write(json.dumps(summary, indent=2) + "\n", args.summary)
    return 0


# ---------------------------------------------------------------------
# formation
# ---------------------------------------------------------------------

# formation's simulation flags, parsed with None defaults and resolved to
# these values once --skip-sim is known not to be given with them
_FORMATION_SIM = {"horizon": 2000, "trials": 4, "burn_in": None, "record_every": 1, "seed": 0}


def cmd_formation(args) -> int:
    if args.skip_sim:
        # --seed also samples a random graph family, which --skip-sim does read
        sampled = args.family is not None and "seed" in _flags_read(args.family)
        _reject(args, "--skip-sim",
                [name for name in ("out", *_FORMATION_SIM) if not (name == "seed" and sampled)])
    for name, value in _FORMATION_SIM.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if args.demo:
        _reject(args, "--demo", ("spec", "family", *_GRAPH_FLAGS))
        spec = ring_demo_spec(args.lambda2 if args.lambda2 is not None else 4e-4)
    elif args.spec:
        # the spec file sets lambda2 itself
        _reject(args, "--spec", ("family", *_GRAPH_FLAGS, "lambda2"))
        spec = load_formation_spec(args.spec)
    else:
        if args.lambda2 is None:
            raise InvalidParam("--lambda2 is required without --spec/--demo")
        g = _build_graph(args, args.n)
        spec = spec_from_graph(g, args.lambda2)

    report = form_exact(spec)
    if args.skip_sim:
        header = _header(args, lambda2=report.lambda2)
    else:
        trace, (report.form_simulated, report.stderr) = simulate_formation(
            spec, _sim_config(args))
        header = _header(args, lambda2=report.lambda2, burn_in=trace.burn_in)
        if args.out:
            # the trajectory streams into the open file, one recorded step at a time
            with open(args.out, "w") as fh:
                fh.write(_meta_lines(header))
                _write_trajectory(fh, trace)
    summary = {**header, **dataclasses.asdict(report)}
    _write(json.dumps(summary, indent=2) + "\n", args.summary)
    return 0


# ---------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------

def cmd_selftest(args) -> int:
    """A handful of fast end-to-end invariants; prints one line each."""
    from .disagreement import check_j_properties, j_matrix, sigma_hat
    from .graphs import ring_graph, star_graph, custom_graph
    from .formation import build_formation_spec, form_via_delta

    checks: list[tuple[str, object]] = []

    def check(name: str):
        def deco(fn):
            checks.append((name, fn))
            return fn
        return deco

    def expect(ok, detail) -> None:
        # raised, not asserted: ``python -O`` strips asserts
        if not ok:
            raise AssertionError(detail)

    @check("two-node chain: delta_ss = sigma^2 / 2")
    def _two_node():
        P = StochasticMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        rep = delta_ss_theorem(P, NoiseCovariance.scalar(2, 1.0))
        expect(abs(rep.delta_ss - 0.5) < tol.SELFTEST_EXACT_TOL, rep.delta_ss)

    @check("four formulas agree on lazy ring n=8")
    def _four_way():
        P = lazy_walk_matrix(ring_graph(8))
        vals = [
            delta_ss_theorem(P, NoiseCovariance.scalar(8, 1.0)).delta_ss,
            delta_ss_kemeny(P, 1.0),
            delta_ss_spectral(P, 1.0),
            delta_ss_resistance(P, 1.0),
        ]
        expect(max(vals) - min(vals) < tol.SELFTEST_AGREEMENT_RTOL * max(vals), vals)

    @check("oracle matches closed form on lazy star n=6")
    def _oracle():
        P = lazy_walk_matrix(star_graph(6))
        rng = np.random.default_rng(args.seed)
        v = rng.uniform(0.5, 2.0, 6)
        noise = NoiseCovariance.diagonal(v)
        rep = delta_ss_theorem(P, noise)
        _, orep = delta_oracle(P, noise)
        expect(abs(rep.delta_ss - orep.delta_ss) <= tol.SELFTEST_ORACLE_RTOL * (1 + orep.delta_ss),
               (rep.delta_ss, orep.delta_ss))

    @check("projection identities hold on lazy star n=6")
    def _jprops():
        P = lazy_walk_matrix(star_graph(6))
        rep = check_j_properties(P)
        expect(rep.ok(), rep.violations)

    @check("steady-state covariance identities hold on lazy ring n=6")
    def _sigma_hat():
        P = lazy_walk_matrix(ring_graph(6))
        noise = NoiseCovariance.scalar(6, 1.0)
        S = sigma_hat(P, noise)
        rep = delta_ss_theorem(P, noise)
        expect(abs(np.trace(S) - rep.delta_ss) < tol.SELFTEST_IDENTITY_TOL * (1 + rep.delta_ss),
               (np.trace(S), rep.delta_ss))
        expect(np.abs(j_matrix(P) @ S).max() < tol.SELFTEST_IDENTITY_TOL, "J @ Sigma_hat != 0")

    @check("formation: two agents at unit offset give Form = 1")
    def _formation():
        g = custom_graph(2, [(0, 1)], family="line(n=2)")
        spec = build_formation_spec(g, 2, {(0, 1): [1.0, 0.0]}, "default", 1.0)
        rep = form_exact(spec)
        expect(abs(rep.form_exact - 1.0) < tol.SELFTEST_EXACT_TOL, rep.form_exact)
        via = form_via_delta(spec)
        expect(abs(via - 1.0) < tol.SELFTEST_IDENTITY_TOL, via)

    @check("simulation is reproducible per seed")
    def _repro():
        P = lazy_walk_matrix(ring_graph(5))
        noise = NoiseCovariance.scalar(5, 1.0)
        cfg = SimConfig(horizon=200, trials=3, burn_in=50, seed=args.seed)
        a = simulate_consensus(P, noise, np.zeros(5), cfg)
        b = simulate_consensus(P, noise, np.zeros(5), cfg)
        expect(np.array_equal(a.delta_hat, b.delta_hat), "reruns differ")

    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"ok    {name}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """A new parser of the five subcommands; ``main`` reuses one per process."""
    ap = argparse.ArgumentParser(
        prog="consensuslab",
        description="Steady-state disagreement of noisy consensus on graphs.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="exact analytics for one graph (JSON)")
    _add_graph_args(a)
    _add_chain_args(a)
    _add_noise_args(a)
    a.add_argument("--oracle-cap", type=int, default=64,
                   help="run the doubling oracle when n <= cap (default 64)")
    a.add_argument("--out", help="write JSON here instead of stdout")

    # without abbreviations, so --n is not taken for --n-list
    s = sub.add_parser("sweep", help="scaling table over sizes (CSV)", allow_abbrev=False)
    _add_graph_args(s, one_graph=False)
    _add_chain_args(s)
    _add_noise_args(s)
    s.add_argument("--n-list", required=True, help="comma-separated sizes")
    s.add_argument("--out", help="write CSV here instead of stdout")

    m = sub.add_parser("simulate", help="Monte Carlo consensus run")
    _add_graph_args(m)
    _add_chain_args(m)
    _add_noise_args(m)
    m.add_argument("--horizon", type=int, default=5000)
    m.add_argument("--trials", type=int, default=8)
    m.add_argument("--burn-in", type=int, default=None)
    m.add_argument("--record-every", type=int, default=1)
    m.add_argument("--noise", choices=("gaussian", "rademacher"), default="gaussian")
    m.add_argument("--out", help="trace CSV path")
    m.add_argument("--summary", help="summary JSON path (default stdout)")

    f = sub.add_parser("formation", help="formation-control run")
    _add_graph_args(f)
    f.set_defaults(seed=None)  # resolved by cmd_formation, as the flags below
    f.add_argument("--spec", help="formation spec JSON")
    f.add_argument("--demo", action="store_true", help="built-in 4-agent square demo")
    f.add_argument("--lambda2", type=_variance, default=None, help="per-node noise variance")
    f.add_argument("--horizon", type=int, help="default 2000")
    f.add_argument("--trials", type=int, help="default 4")
    f.add_argument("--burn-in", type=int, help="default automatic")
    f.add_argument("--record-every", type=int, help="default 1")
    f.add_argument("--skip-sim", action="store_true", help="closed form only")
    f.add_argument("--out", help="trajectory CSV path")
    f.add_argument("--summary", help="summary JSON path (default stdout)")

    t = sub.add_parser("selftest", help="fast invariant checks")
    t.add_argument("--seed", type=_seed, default=0)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # each parse_args call fills a new namespace and copies list defaults
    # before appending, so one parser serves every call in the process
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; callable repeatedly."""
    args = _parser().parse_args(argv)
    # looked up by name at call time, so a rebound ``cmd_<name>`` is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ConsensusError, FileNotFoundError, IsADirectoryError, PermissionError,
            json.JSONDecodeError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        # each package error carries its code; unreadable input files are config errors
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
