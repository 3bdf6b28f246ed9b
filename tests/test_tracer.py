"""The benchmark's trace mode patches package names from outside.

``perfbench/tracer.py`` wraps a fixed list of public functions and methods
by name, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1``.  This test installs the tracer against the
package, runs one traced call and uninstalls it again.
"""

import importlib
import pathlib

import consensuslab.cli  # noqa: F401  the tracer patches every package module
from consensuslab import markov
from consensuslab.graphs import ring_graph
from consensuslab.markov import StochasticMatrix


def test_tracer_installs_and_uninstalls_against_the_package(monkeypatch):
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracer_module = importlib.import_module("tracer")

    stationary = StochasticMatrix.__dict__["stationary"]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert StochasticMatrix.__dict__["stationary"] is not stationary
        markov.lazy_walk_matrix(ring_graph(4)).stationary()
    finally:
        tracer.uninstall()
    assert StochasticMatrix.__dict__["stationary"] is stationary
    assert [s.name for s in tracer.spans] == [
        "markov.lazy_walk_matrix",
        "markov.StochasticMatrix.__init__",
        "markov.StochasticMatrix.stationary",
    ]
