import random

import pytest

from factorkit.generators import circulant_graph, random_graph
from factorkit.graph import is_connected, regularity

from oracles import complete_bipartite_graph, complete_graph, cycle_graph, path_graph, random_regular_graph


def test_complete_and_cycle():
    assert complete_graph(5).m == 10
    assert regularity(cycle_graph(6)) == 2
    assert path_graph(4).m == 3
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_circulant_half_offset_not_doubled():
    # offset n/2 pairs opposite vertices once
    g = circulant_graph(6, (1, 3))
    assert regularity(g) == 3 and g.m == 9
    with pytest.raises(ValueError):
        circulant_graph(6, (4,))


def test_complete_bipartite():
    g = complete_bipartite_graph(4, 4)
    assert regularity(g) == 4 and g.n == 8


def test_random_graph_edge_count():
    rng = random.Random(5)
    g = random_graph(7, 10, rng)
    assert g.n == 7 and g.m == 10
    with pytest.raises(ValueError):
        random_graph(3, 5, rng)


def test_random_regular_graph():
    rng = random.Random(11)
    for n in (8, 11, 14):
        g = random_regular_graph(n, 4, rng)
        assert regularity(g) == 4 and is_connected(g)
    with pytest.raises(ValueError):
        random_regular_graph(7, 3, rng)  # odd n * r
    with pytest.raises(ValueError):
        random_regular_graph(4, 4, rng)  # r >= n
    with pytest.raises(ValueError):
        random_regular_graph(4, -2, random.Random(1))
    # No connected graph is 0- or 1-regular beyond K1 and K2.
    for n, r in ((4, 0), (6, 1), (3, 0)):
        with pytest.raises(ValueError, match="connected"):
            random_regular_graph(n, r, random.Random(1))
    for n, r in ((1, 0), (2, 1)):
        g = random_regular_graph(n, r, random.Random(1))
        assert g.n == n and regularity(g) == r and is_connected(g)


def test_random_regular_graph_repairs_dense_pairings():
    # For r >= 6 almost every pairing has a loop or a repeated pair, and
    # rejection alone ran out of its 10,000 draws on the first three cases;
    # double-edge switches repair each pairing instead.
    for n, r in ((10, 6), (13, 6), (40, 8), (160, 6), (7, 6), (9, 8)):
        g = random_regular_graph(n, r, random.Random(1))
        assert g.n == n and regularity(g) == r and is_connected(g)


def test_random_generators_are_seed_deterministic():
    a = random_regular_graph(10, 4, random.Random(3))
    b = random_regular_graph(10, 4, random.Random(3))
    assert a == b
