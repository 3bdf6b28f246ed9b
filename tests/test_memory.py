"""Memory pins: the peak that one call holds, traced with ``tracemalloc``."""

import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import package_env, traced_peak

from consensuslab._csvrows import BLOCK_FLOATS
from consensuslab.cli import _fill_row
from consensuslab.disagreement import NoiseCovariance
from consensuslab.formation import FormationTrace, _write_trajectory, spec_from_graph
from consensuslab.graphs import build_graph
from consensuslab.markov import lazy_walk_matrix, square_chain, uniform_edge_matrix


@pytest.mark.parametrize("family, n, chain, arrays", [
    ("two-star", 900, uniform_edge_matrix, 1.5),
    ("two-star", 1600, uniform_edge_matrix, 1.5),  # the largest sweep row
    ("line", 700, uniform_edge_matrix, 3),
    ("grid", 576, uniform_edge_matrix, 3),
    ("ring", 640, lazy_walk_matrix, 3),
])
def test_sweep_row_holds_one_n_by_n_array(family, n, chain, arrays):
    # a sweep row needs one n x n array, Z of P^2; the chain stays sparse,
    # and the residual and resistance passes read row blocks.  A sparse P^2
    # is a CSR matrix, within the bound of three arrays; the two-star's
    # dense P^2 is held as P's matrix and read by strips of O(n) entries, so
    # its rows (1.41 and 1.13 arrays measured) stay under one and a half,
    # which its CSR matrix (0.75 of an array) would break.  A dense P, P^2
    # or R on top of Z breaks either bound
    P = chain(build_graph(family, n))
    noise = NoiseCovariance.scalar(n, 1.0)
    row = {}
    peak = traced_peak(lambda: _fill_row(row, P, noise))
    assert row["max_resistance"] > 0
    assert peak < arrays * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n arrays"


def test_squared_chain_checks_hold_no_dense_copy():
    # the largest sweep row's P^2 is dense, so it is held as P's CSR matrix;
    # its row sums, pi residual and detailed balance read strips of O(n)
    # entries (0.23 of an n x n array measured), where its CSR matrix alone
    # would take 0.75
    n = 1600
    P = uniform_edge_matrix(build_graph("two-star", n))
    P.stationary()
    peak = traced_peak(lambda: square_chain(P).reversible)
    assert peak < 0.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n arrays"


def test_formation_spec_holds_no_n_by_n_array():
    # P_form is the sparse uniform chain and positions come from a walk over
    # its breadth-first tree; a dense P_form, or an (m + 1) x n incidence
    # matrix for positions, would each break the bound of one n x n array
    n = 1600
    g = build_graph("two-star", n)
    peak = traced_peak(lambda: spec_from_graph(g, 1e-3))
    assert peak < 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n arrays"


def test_trajectory_writer_holds_a_few_blocks():
    # the writer renders BLOCK_FLOATS floats at a time, in 28-byte words
    # each, so its peak is a few blocks of words whatever the record count;
    # the whole text of this trajectory, 11 MB, would be 49 of them
    steps, n = 1601, 127
    pos = np.random.default_rng(0).standard_normal((steps, n, 2))
    trace = FormationTrace(times=5 * np.arange(steps), positions=pos, form_mean=np.zeros(steps),
                           form_stderr=np.zeros(steps), burn_in=0)
    with open(os.devnull, "w") as fh:
        peak = traced_peak(lambda: _write_trajectory(fh, trace))
    block = 28 * BLOCK_FLOATS
    assert peak < 8 * block, f"peak {peak / block:.2f} blocks"


def test_importing_the_cli_builds_no_render_tables():
    # the power-of-ten and digit tables are built by the first CSV write,
    # so commands that write none never pay for them
    code = ("import consensuslab.cli, consensuslab._csvrows as r; "
            "print(r._tables.cache_info().currsize)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=package_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0\n"
