"""Memory pins: the peak that one call holds, traced with ``tracemalloc``."""

import pytest
from conftest import traced_peak

from consensuslab.cli import _fill_row
from consensuslab.disagreement import NoiseCovariance
from consensuslab.graphs import build_graph
from consensuslab.markov import lazy_walk_matrix, square_chain, uniform_edge_matrix


@pytest.mark.parametrize("family, n, chain", [
    ("two-star", 900, uniform_edge_matrix),
    ("two-star", 1600, uniform_edge_matrix),  # the largest sweep row
    ("line", 700, uniform_edge_matrix),
    ("grid", 576, uniform_edge_matrix),
    ("ring", 640, lazy_walk_matrix),
])
def test_sweep_row_holds_one_n_by_n_array(family, n, chain):
    # a sweep row needs one n x n array, Z of P^2; the chain and its square
    # stay sparse, and the residual and resistance passes read row blocks.
    # Three arrays' worth leaves room for the sparse P^2 (0.75 of one on
    # the two-star) and the blocks; a dense P, P^2 or R on top of Z breaks it
    P = chain(build_graph(family, n))
    noise = NoiseCovariance.scalar(n, 1.0)
    row = {}
    peak = traced_peak(lambda: _fill_row(row, P, noise))
    assert row["max_resistance"] > 0
    assert peak < 3 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n arrays"


def test_squared_chain_checks_hold_no_dense_copy():
    # building P^2 of the largest sweep row and checking its detailed balance
    # reads the stored entries: P^2 itself (0.75 of an n x n array on the
    # two-star) and one transposed copy of it while its pairs are read.  A
    # pass over dense row blocks with a transposed copy needed 1.76 arrays
    n = 1600
    P = uniform_edge_matrix(build_graph("two-star", n))
    P.stationary()
    peak = traced_peak(lambda: square_chain(P).reversible)
    assert peak < 1.7 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n arrays"
