import itertools
import re
import warnings

import numpy as np
import pytest
from conftest import adjacency, nearest_valid_size
from hypothesis import given, settings
from hypothesis import strategies as st

from consensuslab.errors import DisconnectedGraph, GenerationFailed, InvalidParam
from consensuslab.graphs import (
    binary_tree_graph,
    build_graph,
    builtin_families,
    complete_graph,
    custom_graph,
    erdos_renyi_graph,
    grid_graph,
    is_connected,
    line_graph,
    load_edge_list,
    random_regular_graph,
    ring_graph,
    star_graph,
    starry_line_graph,
    two_star_graph,
)
from consensuslab.markov import lazy_walk_matrix, simple_walk_matrix, uniform_edge_matrix


def test_edge_counts_match_family_formulas():
    assert complete_graph(7).m == 7 * 6 // 2
    assert line_graph(9).m == 8
    assert ring_graph(9).m == 9
    assert star_graph(9).m == 8
    assert two_star_graph(10).m == 9
    assert starry_line_graph(12).m == 11
    assert binary_tree_graph(15).m == 14
    assert grid_graph(16).m == 2 * 4 * 3  # 4x4: 3 interior gaps per row/col


def test_all_builders_produce_connected_graphs():
    for fam in builtin_families():
        n = nearest_valid_size(fam, 12)
        g = build_graph(fam, n, seed=0, p=0.4, degree=3)
        assert is_connected(g), fam
        assert g.family.startswith(fam)


def test_starry_line_n9_hand_check():
    # k=3: star at 0 with leaves 1,2; path 3,4,5; leaves 6,7 on hub 8
    g = starry_line_graph(9)
    assert g.n == 9 and g.m == 8
    deg = g.degrees()
    assert sorted(deg.tolist()) == [1, 1, 1, 1, 2, 2, 2, 3, 3]
    assert deg[0] == 3 and deg[8] == 3  # the two hubs
    assert {(0, 3), (5, 8)} <= set(map(tuple, g.edges.tolist()))  # hubs glued to the path ends
    assert is_connected(g)


def test_two_star_splits_leaves_between_hubs():
    g = two_star_graph(9)
    deg = g.degrees()
    # 7 leaves split 4/3, plus the hub-hub bridge
    assert deg[0] + deg[8] == 7 + 2
    assert (0, 8) in set(map(tuple, g.edges.tolist()))
    assert all(deg[i] == 1 for i in range(1, 8))


def test_grid_graph_requires_perfect_power():
    g = grid_graph(25)
    assert g.n == 25 and g.m == 2 * 5 * 4
    with pytest.raises(InvalidParam):
        grid_graph(24)
    g3 = grid_graph(27, dim=3)
    assert g3.m == 3 * 9 * 2
    for n in (0, -4):  # -4 has a complex square root
        with pytest.raises(InvalidParam, match=f"grid needs n >= 1, got n={n}"):
            grid_graph(n)


def test_binary_tree_sizes():
    for h in (1, 2, 3, 5):
        n = 2**h - 1
        g = binary_tree_graph(n)
        assert g.m == n - 1
        assert is_connected(g)
    with pytest.raises(InvalidParam):
        binary_tree_graph(6)


def test_bipartite_classification():
    # the simple walk on a connected graph is periodic exactly when the
    # graph is bipartite
    for g in (line_graph(8), star_graph(8), binary_tree_graph(7), ring_graph(8),
              custom_graph(2, [(0, 1)])):
        assert not simple_walk_matrix(g).aperiodic, g.family
    assert simple_walk_matrix(ring_graph(9)).aperiodic
    assert simple_walk_matrix(complete_graph(4)).aperiodic


def test_erdos_renyi_is_connected_and_seeded():
    g1 = erdos_renyi_graph(30, 0.2, seed=7)
    g2 = erdos_renyi_graph(30, 0.2, seed=7)
    assert np.array_equal(g1.edges, g2.edges)
    assert is_connected(g1)
    # p=0 can never connect n >= 2, so generation must give up cleanly
    with pytest.raises(GenerationFailed):
        erdos_renyi_graph(5, 0.0, seed=0)


def test_random_regular_degrees_and_parity():
    g = random_regular_graph(12, 3, seed=5)
    assert np.all(g.degrees() == 3)
    assert is_connected(g)
    with pytest.raises(InvalidParam):
        random_regular_graph(7, 3, seed=0)  # odd n*d
    with pytest.raises(InvalidParam):
        random_regular_graph(4, 4, seed=0)  # d >= n


def test_custom_graph_validation():
    g = custom_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.m == 3
    with pytest.raises(InvalidParam):
        custom_graph(3, [(0, 0)])  # self loop
    with pytest.raises(InvalidParam):
        custom_graph(3, [(0, 5)])  # out of range
    # duplicates collapse, either orientation
    g2 = custom_graph(3, [(0, 1), (1, 0), (1, 2)])
    assert g2.m == 2
    # the labels fit the int32 edge array: the largest n keeps its largest
    # label exactly, and one more node is refused before any array is built,
    # where it would wrap a label (2^32), overflow the int64 edge codes
    # (10^30) or size arrays by n (3 * 10^9)
    g = custom_graph(2**31, [(0, 2**31 - 1)])
    assert g.edges.tolist() == [[0, 2**31 - 1]]
    for n, edges in ((2**31 + 1, [(0, 1)]), (2**32, [(0, 2**31)]), (10**30, [(0, 1)]),
                     (3 * 10**9, [(0, 1)])):
        with pytest.raises(InvalidParam, match=rf"n <= 2\^31 .* got n={n}$"):
            custom_graph(n, edges)


def test_edge_list_round_trip(tmp_path):
    g = two_star_graph(9)
    path = tmp_path / "g.txt"
    lines = [f"{g.n}"] + [f"{i} {j}" for i, j in g.edges]
    path.write_text("# comment line\n" + "\n".join(lines) + "\n")
    g2 = load_edge_list(path)
    assert g2.n == g.n and np.array_equal(g2.edges, g.edges)


def test_build_graph_dispatch_and_aliases():
    assert build_graph("cycle", 6).family == ring_graph(6).family
    # each alias builds its canonical family, which ignores the keywords it
    # does not read
    every = {"seed": 1, "p": 0.7, "degree": 3, "dim": 3}
    for alias, g in (("path", line_graph(6)), ("cycle", ring_graph(6)),
                     ("twostar", two_star_graph(6)), ("starryline", starry_line_graph(6)),
                     ("binary-tree", binary_tree_graph(7)),
                     ("er", erdos_renyi_graph(6, 0.7, seed=1)),
                     ("regular", random_regular_graph(6, 3, seed=1))):
        assert np.array_equal(build_graph(alias, g.n, **every).edges, g.edges), alias
    assert np.array_equal(build_graph("grid", 9, seed=1, p=0.7, degree=3).edges, grid_graph(9).edges)
    with pytest.raises(InvalidParam, match="grid needs dim"):
        build_graph("grid", 9, dim=None)
    with pytest.raises(InvalidParam):
        build_graph("moebius", 6)
    with pytest.raises(InvalidParam):
        build_graph("erdos-renyi", 6)  # p missing
    with pytest.raises(InvalidParam):
        build_graph("ring", 2)


def test_nearest_valid_size_snaps_structured_families():
    assert nearest_valid_size("starry-line", 100) == 99
    assert nearest_valid_size("grid", 100) == 100
    assert nearest_valid_size("grid", 90) == 81
    assert nearest_valid_size("tree", 100) == 127
    assert nearest_valid_size("complete", 100) == 100


def test_disconnected_detection():
    g = custom_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert not is_connected(custom_graph(2, []))
    assert is_connected(custom_graph(1, [])) and is_connected(custom_graph(2, [(0, 1)]))
    with pytest.raises(DisconnectedGraph):
        lazy_walk_matrix(g)


@pytest.mark.parametrize("chain", [simple_walk_matrix, lazy_walk_matrix, uniform_edge_matrix])
@pytest.mark.parametrize("edges", [[(0, 1)], [(1, 2)], []])
def test_an_isolated_node_makes_every_chain_disconnected(chain, edges):
    # an isolated node has degree 0 and, in the lazy walk, a row summing to 1/2:
    # the graph is reported disconnected, with no division warning or row-sum error
    g = custom_graph(3, edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DisconnectedGraph, match="is not connected"):
            chain(g)


@st.composite
def pair_lists(draw):
    """(n, pairs): node pairs in either orientation, with repeats, and now
    and then a self-loop or an out-of-range pair (past int64 included)
    inserted somewhere."""
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=30)
                 if n > 1 else st.just([]))
    if n > 1 and pairs and draw(st.booleans()):
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))  # repeats, same orientation
    outside = st.sampled_from([-1, n, n + 7, -(2**63) - 1, 2**63, 10**23])
    bad = st.one_of(node.map(lambda i: (i, i)), st.tuples(outside, node), st.tuples(node, outside),
                    st.tuples(outside, outside))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(bad))
    return n, pairs


@settings(max_examples=400, deadline=None, database=None)
@given(pair_lists())
def test_canonical_edges_are_the_sorted_set_of_min_max_pairs(case):
    n, pairs = case
    first_bad = next(((i, j) for i, j in pairs if i == j or not (0 <= i < n and 0 <= j < n)), None)
    if first_bad is not None:
        i, j = first_bad
        message = f"self-loop at node {i}" if i == j else f"edge ({i},{j}) out of range for n={n}"
        with pytest.raises(InvalidParam, match=f"^{re.escape(message)}$"):
            custom_graph(n, pairs)
        return
    e = custom_graph(n, pairs).edges
    want = sorted({(min(i, j), max(i, j)) for i, j in pairs})
    assert e.dtype == np.int32 and e.shape == (len(want), 2)
    assert list(map(tuple, e.tolist())) == want
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0:1] = 0


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return custom_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=300, deadline=None, database=None)
@given(small_graphs())
def test_search_agrees_with_brute_force_on_small_graphs(g):
    # connected: every pair joined by a walk of fewer than n steps
    reach = np.linalg.matrix_power(np.eye(g.n) + adjacency(g), g.n - 1)
    connected = bool(np.all(reach > 0))
    assert is_connected(g) == connected
    if connected and g.n >= 2:
        # periodic simple walk: some 2-colouring leaves no edge inside one colour
        two_colourable = any(all(c[i] != c[j] for i, j in g.edges)
                             for c in itertools.product((0, 1), repeat=g.n))
        assert simple_walk_matrix(g).aperiodic == (not two_colourable)
