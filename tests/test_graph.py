import random

import pytest

import factorkit.graph as graph_module
from factorkit.graph import (
    Graph,
    articulation_points,
    connected_components,
    edge_connectivity,
    from_edges,
    induced_subgraph,
    is_connected,
    regularity,
)
from factorkit.generators import (
    circulant_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    random_regular_graph,
)

from oracles import brute_articulation_points, brute_min_cut


def test_from_edges_c4():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        from_edges(3, [(0, 0)])


def test_from_edges_rejects_duplicate_either_orientation():
    with pytest.raises(ValueError, match="duplicate"):
        from_edges(2, [(0, 1), (1, 0)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(0, [(0, 1)])


def test_edges_canonicalized_and_equal():
    a = from_edges(3, [(2, 1), (0, 2)])
    b = from_edges(3, [(0, 2), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a.neighbors(2) == (0, 1)


def test_regularity():
    assert regularity(cycle_graph(4)) == 2
    assert regularity(path_graph(3)) is None
    assert regularity(complete_graph(7)) == 6
    assert regularity(Graph(3, ())) == 0
    assert regularity(Graph(0, ())) is None


def test_regularity_forces_even_degree_sum():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        degs = g.degrees()
        assert sum(degs) == 2 * g.m
        r = regularity(g)
        if r is not None:
            assert n * r % 2 == 0


def test_is_connected():
    assert is_connected(cycle_graph(4))
    two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_connected(two_triangles)
    assert is_connected(Graph(1, ()))
    assert is_connected(Graph(0, ()))
    assert len(connected_components(two_triangles)) == 2


def test_edge_connectivity_known_values():
    assert edge_connectivity(cycle_graph(4)) == 2
    assert edge_connectivity(complete_graph(5)) == 4
    assert edge_connectivity(from_edges(2, [(0, 1)])) == 1
    disconnected = from_edges(4, [(0, 1), (2, 3)])
    assert edge_connectivity(disconnected) == 0
    with pytest.raises(ValueError):
        edge_connectivity(Graph(1, ()))


def test_edge_connectivity_matches_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 7)
        m = rng.randint(0, min(16, n * (n - 1) // 2))
        g = random_graph(n, m, rng)
        assert edge_connectivity(g) == brute_min_cut(g)


def test_edge_connectivity_at_most_min_degree():
    rng = random.Random(97)
    for _ in range(50):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.randint(1, n * (n - 1) // 2), rng)
        assert edge_connectivity(g) <= min(g.degrees())


def test_edge_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randint(4, 12)
        g = random_graph(n, rng.randint(n, min(3 * n, n * (n - 1) // 2)), rng)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges)
        assert edge_connectivity(g) == nx.edge_connectivity(G)


def test_circulant_edge_connectivity():
    # 6-regular circulant on 8 vertices is maximally edge connected
    assert edge_connectivity(circulant_graph(8, (1, 2, 3))) == 6


def test_g1_edge_connectivity_is_two():
    # oracle: no single edge disconnects the family member, but the two hub
    # edges into one block do
    from factorkit.constructions import build_g1
    from oracles import components_after_deleting

    out = build_g1(6)
    g = out.graph
    assert all(
        components_after_deleting(g, {e}, set()) == 1 for e in g.edges
    )
    hub = out.hubs[0]
    first, _, (u, v) = out.block_ranges[0]
    pair = {(u, hub), (v, hub)}
    assert components_after_deleting(g, pair, set()) == 2
    assert edge_connectivity(g) == 2


def _networkx_edge_connectivity(g):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return nx.edge_connectivity(G)


@pytest.fixture
def flow_sources(monkeypatch):
    """The source of every unit max flow that edge_connectivity runs."""
    sources = []
    unit_max_flow = graph_module._unit_max_flow

    def recording(head, arcs_of, s, t, cutoff):
        sources.append(s)
        return unit_max_flow(head, arcs_of, s, t, cutoff)

    monkeypatch.setattr(graph_module, "_unit_max_flow", recording)
    return sources


def test_edge_connectivity_two_cliques_matches_networkx(flow_sources):
    # Cliques K_a and K_b (a, b >= 5) joined by k <= 3 edges: lambda = k is
    # below the minimum degree, the case where only the dominating-set
    # sinks can find the cut. Relabelling puts the flows' source, the first
    # dominating vertex, on either side.
    rng = random.Random(71)
    source_in_first = set()
    for _ in range(60):
        a, b = rng.randint(5, 10), rng.randint(5, 10)
        n = a + b
        edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
        edges += [(u, v) for u in range(a, n) for v in range(u + 1, n)]
        bridges = rng.sample([(u, v) for u in range(a) for v in range(a, n)], rng.randint(1, 3))
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, tuple((perm[u], perm[v]) for u, v in edges + bridges))
        flow_sources.clear()
        assert edge_connectivity(g) == _networkx_edge_connectivity(g) == len(bridges)
        assert len(bridges) < min(g.degrees())
        source_in_first.add(perm.index(flow_sources[0]) < a)
    assert source_in_first == {True, False}


def test_edge_connectivity_of_families_matches_networkx():
    from factorkit.constructions import build_g1, build_g2

    graphs = [build_g1(r).graph for r in (6, 10, 14)] + [build_g2(r).graph for r in (8, 12)]
    for g in graphs:
        assert edge_connectivity(g) == _networkx_edge_connectivity(g) == 2 < min(g.degrees())


def test_edge_connectivity_of_large_regular_graphs_matches_networkx():
    rng = random.Random(5)
    graphs = [
        circulant_graph(120, (1, 11, 37)),
        circulant_graph(200, (1, 9, 43, 77)),
        circulant_graph(300, (1, 13, 47, 89, 121)),
    ]
    graphs += [random_regular_graph(2 * rng.randint(50, 150), r, rng) for r in (3, 3, 4, 4)]
    for g in graphs:
        assert edge_connectivity(g) == _networkx_edge_connectivity(g)


def test_edge_connectivity_flows_follow_greedy_dominating_set(flow_sources):
    # Greedy by coverage dominates C(300; 1,13,47,89,121) with 45 vertices,
    # so 44 flows run; greedy by ascending id would take 150.
    assert edge_connectivity(circulant_graph(300, (1, 13, 47, 89, 121))) == 10
    assert len(flow_sources) == 44


def test_articulation_points_match_brute_force():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        assert articulation_points(g) == brute_articulation_points(g)


def test_induced_subgraph_relabels():
    g = complete_graph(5)
    sub, order = induced_subgraph(g, [4, 1, 3])
    assert order == [1, 3, 4]
    assert sub == complete_graph(3)


def test_degrees_of_circulant():
    g = circulant_graph(8, (1, 2, 3))
    assert g.n == 8 and g.m == 24
    assert regularity(g) == 6
