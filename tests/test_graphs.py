import itertools

import numpy as np
import pytest
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
    is_bipartite,
    is_connected,
    line_graph,
    load_edge_list,
    nearest_valid_size,
    random_regular_graph,
    ring_graph,
    star_graph,
    starry_line_graph,
    two_star_graph,
)


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
    assert (0, 3) in g.edges and (5, 8) in g.edges  # hubs glued to the path ends
    assert is_connected(g)


def test_two_star_splits_leaves_between_hubs():
    g = two_star_graph(9)
    deg = g.degrees()
    # 7 leaves split 4/3, plus the hub-hub bridge
    assert deg[0] + deg[8] == 7 + 2
    assert (0, 8) in g.edges
    assert all(deg[i] == 1 for i in range(1, 8))


def test_grid_graph_requires_perfect_power():
    g = grid_graph(25)
    assert g.n == 25 and g.m == 2 * 5 * 4
    with pytest.raises(InvalidParam):
        grid_graph(24)
    g3 = grid_graph(27, dim=3)
    assert g3.m == 3 * 9 * 2


def test_binary_tree_sizes():
    for h in (1, 2, 3, 5):
        n = 2**h - 1
        g = binary_tree_graph(n)
        assert g.m == n - 1
        assert is_connected(g)
    with pytest.raises(InvalidParam):
        binary_tree_graph(6)


def test_bipartite_classification():
    assert is_bipartite(line_graph(8))
    assert is_bipartite(star_graph(8))
    assert is_bipartite(binary_tree_graph(7))
    assert is_bipartite(ring_graph(8))
    assert not is_bipartite(ring_graph(9))
    assert not is_bipartite(complete_graph(4))
    assert is_bipartite(custom_graph(1, [])) and is_bipartite(custom_graph(2, [(0, 1)]))
    # later components count too: a 4-cycle beside an edge is bipartite,
    # an edge beside a triangle is not
    assert is_bipartite(custom_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]))
    assert not is_bipartite(custom_graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]))


def test_erdos_renyi_is_connected_and_seeded():
    g1 = erdos_renyi_graph(30, 0.2, seed=7)
    g2 = erdos_renyi_graph(30, 0.2, seed=7)
    assert g1.edges == g2.edges
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


def test_edge_list_round_trip(tmp_path):
    g = two_star_graph(9)
    path = tmp_path / "g.txt"
    lines = [f"{g.n}"] + [f"{i} {j}" for i, j in g.edges]
    path.write_text("# comment line\n" + "\n".join(lines) + "\n")
    g2 = load_edge_list(path)
    assert g2.n == g.n and g2.edges == g.edges


def test_build_graph_dispatch_and_aliases():
    assert build_graph("cycle", 6).family == ring_graph(6).family
    assert build_graph("path", 6).edges == line_graph(6).edges
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
    from consensuslab.markov import lazy_walk_matrix

    with pytest.raises(DisconnectedGraph):
        lazy_walk_matrix(g)


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
    reach = np.linalg.matrix_power(np.eye(g.n) + g.adjacency(), g.n - 1)
    assert is_connected(g) == bool(np.all(reach > 0))
    # bipartite: some 2-colouring leaves no edge inside one colour
    two_colourable = any(all(c[i] != c[j] for i, j in g.edges)
                         for c in itertools.product((0, 1), repeat=g.n))
    assert is_bipartite(g) == two_colourable
