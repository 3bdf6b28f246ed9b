"""Spans around calls into each consensuslab module, installed from outside.

``Tracer.install`` replaces public functions and methods at runtime in every
``consensuslab`` module namespace that binds them (``cli``, ``disagreement``
and ``formation`` import functions by name, so patching the defining module
alone would miss those calls).  No file of the package changes.  Each call
records a span (name, start, end, parent span, operation id) in memory;
``Tracer.write`` dumps them as JSON lines when the run ends.

A layer metric is a count of spans or a sum of self times, where a span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field


def _noop(args, kwargs, result) -> dict:
    return {}


def _sim_steps(args, kwargs, result) -> dict:
    # simulate_consensus(P, noise, x0, cfg) / estimate_delta_ss(P, noise, cfg)
    P, cfg = args[0], args[-1]
    steps = cfg.horizon * cfg.trials
    return {"trial_steps": steps, "node_steps": P.n * steps}


def _formation_steps(args, kwargs, result) -> dict:
    spec, cfg = args[0], args[1]
    return {"node_steps": spec.n * cfg.horizon * cfg.trials}


def _oracle_iterations(args, kwargs, result) -> dict:
    return {"iterations": result[0].iterations}


def _csv_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path, extra-data hook).  The span name is
# "<module>.<attribute path>".
WRAPPED = (
    ("cli", "main", _noop),
    ("graphs", "build_graph", _noop),
    ("graphs", "load_edge_list", _noop),
    ("graphs", "custom_graph", _noop),
    ("markov", "StochasticMatrix.__init__", _noop),
    ("markov", "StochasticMatrix.stationary", _noop),
    ("markov", "lazy_walk_matrix", _noop),
    ("markov", "simple_walk_matrix", _noop),
    ("markov", "uniform_edge_matrix", _noop),
    ("markov", "hitting_times", _noop),
    ("markov", "square_chain", _noop),
    ("markov", "kemeny_constant_combinatorial", _noop),
    ("markov", "kemeny_constant_spectral", _noop),
    ("markov", "effective_resistance", _noop),
    ("disagreement", "delta_ss_theorem", _noop),
    ("disagreement", "delta_ss_kemeny", _noop),
    ("disagreement", "delta_ss_spectral", _noop),
    ("disagreement", "delta_ss_resistance", _noop),
    ("disagreement", "delta_uni_bounds", _noop),
    ("disagreement", "delta_oracle", _oracle_iterations),
    ("simulate", "simulate_consensus", _sim_steps),
    ("simulate", "estimate_delta_ss", _sim_steps),
    ("simulate", "auto_burn_in", _noop),
    ("formation", "spec_from_graph", _noop),
    ("formation", "ring_demo_spec", _noop),
    ("formation", "load_formation_spec", _noop),
    ("formation", "build_formation_spec", _noop),
    ("formation", "form_exact", _noop),
    ("formation", "simulate_formation", _formation_steps),
    ("formation", "write_trajectory_csv", _csv_bytes),
)

LAYER_UNITS = {
    "graphs.build_calls": "count",
    "graphs.build_s": "s",
    "markov.chain_builds": "count",
    "markov.stationary_s": "s",
    "markov.hitting_calls": "count",
    "markov.hitting_s": "s",
    "markov.square_chain_s": "s",
    "markov.resistance_s": "s",
    "markov.kemeny_s": "s",
    "disagreement.theorem_calls": "count",
    "disagreement.closed_form_s": "s",
    "disagreement.oracle_s": "s",
    "disagreement.oracle_iterations": "count",
    "simulate.trial_s": "s",
    "simulate.node_steps_per_s": "node_steps/s",
    "simulate.burn_in_s": "s",
    "simulate.steps_done": "count",
    "simulate.steps_useful_ratio": "ratio",
    "formation.spec_s": "s",
    "formation.exact_s": "s",
    "formation.sim_s": "s",
    "formation.node_steps_per_s": "node_steps/s",
    "formation.csv_s": "s",
    "formation.csv_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}
"""Every per-layer metric of a traced run, with its unit."""

# layer metric -> span names whose self times it sums
_SELF_TIMES = {
    "graphs.build_s": ("graphs.build_graph", "graphs.load_edge_list", "graphs.custom_graph"),
    "markov.stationary_s": ("markov.StochasticMatrix.stationary",),
    "markov.hitting_s": ("markov.hitting_times",),
    "markov.square_chain_s": ("markov.square_chain",),
    "markov.resistance_s": ("markov.effective_resistance",),
    "markov.kemeny_s": ("markov.kemeny_constant_combinatorial", "markov.kemeny_constant_spectral"),
    "disagreement.closed_form_s": ("disagreement.delta_ss_theorem", "disagreement.delta_ss_kemeny",
                                   "disagreement.delta_ss_spectral",
                                   "disagreement.delta_ss_resistance",
                                   "disagreement.delta_uni_bounds"),
    "disagreement.oracle_s": ("disagreement.delta_oracle",),
    "simulate.trial_s": ("simulate.simulate_consensus", "simulate.estimate_delta_ss"),
    "simulate.burn_in_s": ("simulate.auto_burn_in",),
    "formation.spec_s": ("formation.spec_from_graph", "formation.ring_demo_spec",
                         "formation.load_formation_spec", "formation.build_formation_spec"),
    "formation.exact_s": ("formation.form_exact",),
    "formation.sim_s": ("formation.simulate_formation",),
    "formation.csv_s": ("formation.write_trajectory_csv",),
    "cli.self_s": ("cli.main",),
}

# layer metric -> span names it counts
_COUNTS = {
    "markov.chain_builds": ("markov.StochasticMatrix.__init__",),
    "markov.hitting_calls": ("markov.hitting_times",),
    "disagreement.theorem_calls": ("disagreement.delta_ss_theorem",),
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    extra: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder that patches consensuslab while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = None

    # -- recording --------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None, hook=_noop):
        kwargs = kwargs or {}
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, 0.0, 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.extra = hook(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn, hook):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        pkg = {k: m for k, m in sys.modules.items()
               if k == "consensuslab" or k.startswith("consensuslab.")}
        for mod, path, hook in WRAPPED:
            name = f"{mod}.{path}"
            owner = pkg[f"consensuslab.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig, hook)
            if outer:  # a method: patch the class once
                self._patch(owner, attr, orig, wrapper)
                continue
            for module in pkg.values():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     **s.extra}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    ``spans[k].sid == k`` and parents index into the same list.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def rate(work: float, seconds: float) -> float:
    """work / seconds; 0 where the workload does none of this work."""
    return work / seconds if seconds > 0 else 0.0


def _pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of one pass, from its spans numbered 0..len-1."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def matching(names):
        return [s for name in names for s in by_name.get(name, ())]

    def self_s(names) -> float:
        return sum(own[s.sid] for s in matching(names))

    def extra(names, key) -> float:
        return float(sum(s.extra.get(key, 0) for s in matching(names)))

    m = {k: self_s(v) for k, v in _SELF_TIMES.items()}
    m.update({k: float(len(matching(v))) for k, v in _COUNTS.items()})
    graph_spans = _SELF_TIMES["graphs.build_s"]
    m["graphs.build_calls"] = float(sum(
        1 for s in matching(graph_spans)
        if s.parent is None or spans[s.parent].name not in graph_spans))
    m["disagreement.oracle_iterations"] = extra(("disagreement.delta_oracle",), "iterations")
    sim = ("simulate.simulate_consensus", "simulate.estimate_delta_ss")
    m["simulate.steps_done"] = extra(sim, "trial_steps")
    m["simulate.node_steps_per_s"] = rate(extra(sim, "node_steps"), m["simulate.trial_s"])
    m["formation.node_steps_per_s"] = rate(
        extra(("formation.simulate_formation",), "node_steps"), m["formation.sim_s"])
    m["formation.csv_mb_per_s"] = rate(
        extra(("formation.write_trajectory_csv",), "bytes") / 1e6, m["formation.csv_s"])
    return m


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-pass layer metrics, each the median over the traced passes.

    Spans must carry ``op = (pass index, operation index)``.  The metrics
    that ``worker.py`` adds from its own records (``cli.bytes_out``,
    ``simulate.steps_useful_ratio``, ``trace.overhead_s``) are not here.
    """
    passes: dict[int, list[Span]] = {}
    for s in tracer.spans:
        passes.setdefault(s.op[0], []).append(s)
    per_pass = []
    for spans in passes.values():
        # renumber so that parents index into this pass's list
        index = {s.sid: k for k, s in enumerate(spans)}
        per_pass.append(_pass_metrics([
            Span(index[s.sid], s.name, s.start, s.end,
                 None if s.parent is None else index[s.parent], s.op, s.extra)
            for s in spans]))
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
