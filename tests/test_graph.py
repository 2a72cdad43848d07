import inspect
import random
import sys
from collections import Counter

import pytest

import factorkit.graph as graph_module
from factorkit.graph import (
    Graph,
    articulation_points,
    biconnected_blocks,
    connected_components,
    edge_connectivity,
    from_edges,
    induced_subgraph,
    is_connected,
    regularity,
)
from factorkit.generators import circulant_graph, random_graph

from oracles import (
    brute_articulation_points,
    brute_min_cut,
    complete_graph,
    cycle_graph,
    path_graph,
    random_block_tree,
    random_regular_graph,
)


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
    with pytest.raises(ValueError, match="outside"):
        from_edges(3, [(-1, 2)])
    with pytest.raises(ValueError):
        from_edges(0, [(0, 1)])
    with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
        Graph(-1, ())
    # A non-integral id is refused, not truncated onto a vertex.
    with pytest.raises(TypeError):
        Graph(3, ((0.7, 2.2),))


def test_edges_canonicalized_and_equal():
    a = from_edges(3, [(2, 1), (0, 2)])
    b = from_edges(3, [(0, 2), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a.neighbors(2) == (0, 1)


def test_neighbors_ascending_from_any_edge_order():
    # The matching's deterministic scan order relies on ascending lists.
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(v, u) if rng.random() < 0.5 else (u, v)
                 for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
        rng.shuffle(edges)
        g = Graph(n, tuple(edges))
        for v in range(n):
            assert list(g.neighbors(v)) == sorted({u for e in edges if v in e for u in e} - {v})


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


def test_components_after_removal_match_induce_and_map_back():
    # Reference: the route connected_components(g, removed) replaces --
    # induce g minus the removed set, take its components, map the ids back.
    def induce_and_map_back(g, removed):
        order = [v for v in range(g.n) if v not in removed]
        return [[order[i] for i in comp] for comp in connected_components(induced_subgraph(g, order))]

    rng = random.Random(2718)
    for trial in range(300):
        n = rng.randint(0, 30)
        g = random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 2 * n)), rng)
        if trial % 3 == 0:
            removed = set()
        elif trial % 3 == 1:
            removed = set(range(n)) if trial % 2 else set(rng.sample(range(n), n // 3))
        else:
            removed = set(rng.sample(range(n), rng.randint(0, n)))
        got = connected_components(g, sorted(removed, reverse=True))
        assert got == induce_and_map_back(g, removed), (n, g.edges, removed)
        if not removed:
            assert got == connected_components(g)
        if len(removed) == n:
            assert got == []


def test_components_reject_removed_ids_out_of_range():
    for removed in [(-1,), (4,), (0, 7)]:
        with pytest.raises(ValueError, match="0..3"):
            connected_components(path_graph(4), removed)


def test_edge_connectivity_known_values():
    assert edge_connectivity(cycle_graph(4)) == 2
    assert edge_connectivity(complete_graph(5)) == 4
    assert edge_connectivity(from_edges(2, [(0, 1)])) == 1
    disconnected = from_edges(4, [(0, 1), (2, 3)])
    assert edge_connectivity(disconnected) == 0
    # No connectivity pass runs first: a flow of 0 or a minimum degree of 0
    # must give the answer.
    assert edge_connectivity(from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])) == 0
    assert edge_connectivity(from_edges(4, [(0, 1), (1, 2), (0, 2)])) == 0
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
    """(sources, sink) of every unit max flow that edge_connectivity runs.

    The flow takes its sources as a vertex mask that grows after the call,
    so the set vertices are copied out when the flow starts.
    """
    flows = []
    unit_max_flow = graph_module._unit_max_flow

    def recording(head, arcs_of, residual, source, t, cutoff):
        flows.append(([v for v, on in enumerate(source) if on], t))
        return unit_max_flow(head, arcs_of, residual, source, t, cutoff)

    monkeypatch.setattr(graph_module, "_unit_max_flow", recording)
    return flows


def _joined_pairs(rng, sides, sizes):
    """Per builder in sides, two graphs side(size, rng) joined by k < min
    degree edges and relabelled at random: (graph, k, perm, a), where
    perm.index(v) < a puts v on the first side."""
    for side in sides:
        a_side, b_side = side(rng.randint(*sizes), rng), side(rng.randint(*sizes), rng)
        a, n = a_side.n, a_side.n + b_side.n
        edges = list(a_side.edges) + [(u + a, v + a) for u, v in b_side.edges]
        k = rng.randint(1, min(3, min(a_side.degrees() + b_side.degrees()) - 1))
        bridges = rng.sample([(u, v) for u in range(a) for v in range(a, n)], k)
        perm = list(range(n))
        rng.shuffle(perm)
        yield Graph(n, tuple((perm[u], perm[v]) for u, v in edges + bridges)), k, perm, a


def test_edge_connectivity_two_cliques_matches_networkx(flow_sources):
    # Cliques K_a and K_b (a, b >= 5) joined by k <= 3 edges: lambda = k is
    # below the minimum degree, the case where only the dominating-set
    # sinks can find the cut. Relabelling puts the flows' first source, the
    # first dominating vertex, on either side.
    source_in_first = set()
    cliques = [lambda n, _: complete_graph(n)] * 60
    for g, k, perm, a in _joined_pairs(random.Random(71), cliques, (5, 10)):
        flow_sources.clear()
        assert edge_connectivity(g) == _networkx_edge_connectivity(g) == k
        assert k < min(g.degrees())
        source_in_first.add(perm.index(flow_sources[0][0][0]) < a)
    assert source_in_first == {True, False}


def test_edge_connectivity_below_min_degree_at_scale(flow_sources):
    # Random 4- and 5-regular graphs and cliques of 60-150 vertices, joined
    # in pairs by k < delta edges. The first dominating vertex falls on
    # either side; whichever it is, some later sink lies across the cut.
    sides = [
        lambda n, rng: random_regular_graph(n - n % 2, 4, rng),
        lambda n, rng: random_regular_graph(n - n % 2, 5, rng),
        lambda n, rng: complete_graph(n),
    ]
    source_in_first = set()
    for g, k, perm, a in _joined_pairs(random.Random(1094), sides * 3, (60, 150)):
        flow_sources.clear()
        assert edge_connectivity(g) == _networkx_edge_connectivity(g) == k < min(g.degrees())
        source_in_first.add(perm.index(flow_sources[0][0][0]) < a)
    assert source_in_first == {True, False}


def test_edge_connectivity_of_families_matches_networkx():
    from factorkit.constructions import build_g1, build_g2

    graphs = [build_g1(r).graph for r in (6, 10, 14)] + [build_g2(r).graph for r in (8, 12)]
    for g in graphs:
        assert edge_connectivity(g) == _networkx_edge_connectivity(g) == 2 < min(g.degrees())


def _greedy_dominating_set(g):
    """Greedy by coverage, ties to the smallest id, by a full scan per pick."""
    uncovered = set(range(g.n))
    picks = []
    while uncovered:
        v = max(range(g.n), key=lambda v: (len(uncovered.intersection((v, *g.neighbors(v)))), -v))
        picks.append(v)
        uncovered.difference_update((v, *g.neighbors(v)))
    return picks


def _torus(a, b):
    return Graph(a * b, tuple((i * b + j, w) for i in range(a) for j in range(b)
                              for w in (((i + 1) % a) * b + j, i * b + (j + 1) % b)))


def _hypercube(d):
    return Graph(1 << d, tuple((v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1))


@pytest.mark.slow
def test_edge_connectivity_of_large_regular_graphs_matches_networkx(flow_sources):
    # lambda = delta on every host, so every flow runs until it reaches its
    # cutoff, as on the benchmark circulants. The flows run from the greedy
    # dominating set D, in its order, one per member after the first.
    rng = random.Random(5)
    graphs = [
        circulant_graph(120, (1, 11, 37)),
        circulant_graph(200, (1, 9, 43, 77)),
        circulant_graph(300, (1, 13, 47, 89, 121)),
        _torus(30, 30),
        _hypercube(8),
    ]
    graphs += [random_regular_graph(2 * rng.randint(50, 150), r, rng) for r in (3, 3, 4, 4)]
    graphs += [random_regular_graph(2 * rng.randint(100, 500), r, rng) for r in (3, 4, 5, 6, 8)]
    for g in graphs:
        flow_sources.clear()
        assert edge_connectivity(g) == _networkx_edge_connectivity(g) == min(g.degrees())
        dominating = _greedy_dominating_set(g)
        assert flow_sources[0][0] == dominating[:1]
        assert [t for _, t in flow_sources] == dominating[1:]


def test_edge_connectivity_flows_follow_greedy_dominating_set(flow_sources):
    # Greedy by coverage dominates C(300; 1,13,47,89,121) with 45 vertices,
    # so 44 flows run; greedy by ascending id would take 150.
    assert edge_connectivity(circulant_graph(300, (1, 13, 47, 89, 121))) == 10
    assert len(flow_sources) == 44


def test_edge_connectivity_sources_grow_by_each_sink(flow_sources):
    # The i-th flow runs from exactly the first i dominating vertices to the
    # next one: D[0] and every earlier sink.
    rng = random.Random(404)
    graphs = [circulant_graph(300, (1, 13, 47, 89, 121)), random_regular_graph(120, 5, rng)]
    graphs += [random_graph(n, 3 * n, rng) for n in (20, 40, 80)]
    for g in graphs:
        flow_sources.clear()
        edge_connectivity(g)
        assert flow_sources
        dominating = [flow_sources[0][0][0]] + [t for _, t in flow_sources]
        for i, (sources, t) in enumerate(flow_sources):
            assert sources == sorted(dominating[: i + 1])
            assert t == dominating[i + 1]
        assert len(set(dominating)) == len(dominating)
        covered = set(dominating).union(*(g.neighbors(v) for v in dominating))
        assert covered == set(range(g.n))


def _arcs(g):
    """The flow's arc layout: arcs 2i (u -> v) and 2i+1 (v -> u) for edge i =
    (u, v), and each vertex's outgoing arcs in neighbour order."""
    head = [w for u, v in g.edges for w in (v, u)]
    arcs_of = [[] for _ in range(g.n)]
    for a in range(len(head)):
        arcs_of[head[a ^ 1]].append(a)
    return head, arcs_of


def _networkx_flow_value(g, sources, t):
    """Max flow from a super-source joined to every source by an arc of
    unbounded capacity, over unit arcs both ways along each edge."""
    nx = pytest.importorskip("networkx")
    D = nx.DiGraph()
    D.add_nodes_from(range(g.n + 1))
    for u, v in g.edges:
        D.add_edge(u, v, capacity=1)
        D.add_edge(v, u, capacity=1)
    D.add_edges_from((g.n, s) for s in sources)
    return nx.maximum_flow_value(D, g.n, t)


def _check_unit_max_flow(g, sources, t):
    head, arcs_of = _arcs(g)
    residual = [1] * len(head)
    source = [v in sources for v in range(g.n)]
    value = _networkx_flow_value(g, sources, t)
    for cutoff in sorted({max(value - 1, 0), value, value + 1}):
        assert graph_module._unit_max_flow(head, arcs_of, residual, source, t, cutoff) == min(value, cutoff)
        assert residual == [1] * len(head)
    return value


class _ReadCounting(list):
    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


def test_unit_max_flow_retreats_from_dead_ends():
    # s = 0 reaches t = 5 through x = 1 and y = 2, then a = 3 and b = 4; x
    # only has a. Searching back from t, the first path is s-x-a-t and the
    # second s-y-b-t.
    g = from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)])
    assert _check_unit_max_flow(g, {0}, 5) == 2
    # A search reads a vertex's source entry once, when it first reaches the
    # vertex, and stops there if it is a source: s's entry is read once per
    # augmenting path found, and the third search, which fails, never reads it.
    source = _ReadCounting([True] + [False] * 5)
    head, arcs_of = _arcs(g)
    assert graph_module._unit_max_flow(head, arcs_of, [1] * len(head), source, 5, 3) == 2
    assert source.reads[0] == 2
    # The same graph from 5 to 0: the first search runs back from 0 through
    # 1, 3, 2 and 4 to 5. The second goes through 2 and 3 into 1, a dead end,
    # backs out of it, and reaches 5 from 3: its path 5-3-2-0 cancels the
    # first path's flow on 2-3.
    assert _check_unit_max_flow(g, {5}, 0) == 2
    source = _ReadCounting([False] * 5 + [True])
    assert graph_module._unit_max_flow(head, arcs_of, [1] * len(head), source, 0, 3) == 2
    assert source.reads[5] == 2
    # Every source beyond a bridge: nothing reaches t, at any cutoff.
    g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert _check_unit_max_flow(g, {0, 2}, 4) == 0


def test_unit_max_flow_matches_networkx():
    # Random graphs, source sets and sinks, each cut off below, at and above
    # its true value. Sources may neighbour t or each other.
    rng = random.Random(8128)
    values = set()
    for _ in range(150):
        n = rng.randint(2, 24)
        g = random_graph(n, rng.randint(0, min(4 * n, n * (n - 1) // 2)), rng)
        t = rng.randrange(n)
        others = [v for v in range(n) if v != t]
        sources = set(rng.sample(others, rng.randint(1, min(4, len(others)))))
        values.add(_check_unit_max_flow(g, sources, t))
    assert {0, 1, 2, 3} <= values


def test_articulation_points_match_brute_force():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        assert articulation_points(g) == brute_articulation_points(g)


def _articulation_corpus(rng):
    """Random graphs, random trees, block trees, and disjoint unions of two
    such graphs with isolated vertices, all on at most 300 vertices."""
    for _ in range(125):
        n = rng.randint(1, 300)
        yield random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 2 * n)), rng)
        yield Graph(n, tuple((rng.randrange(v), v) for v in range(1, n)))
        yield random_block_tree(rng, 300)
        k = n // 2
        parts = [random_block_tree(rng, 140), random_graph(k, min(k * (k - 1) // 2, k), rng)]
        offset, edges = 0, []
        for part in parts:
            edges += [(offset + u, offset + v) for u, v in part.edges]
            offset += part.n
        total = offset + rng.randint(0, 10)
        perm = list(range(total))
        rng.shuffle(perm)
        yield Graph(total, tuple((perm[u], perm[v]) for u, v in edges))


def test_articulation_points_match_networkx():
    nx = pytest.importorskip("networkx")
    count = 0
    for g in _articulation_corpus(random.Random(1973)):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        assert articulation_points(g) == sorted(nx.articulation_points(h)), g.edges
        count += 1
    assert count == 500


def test_articulation_points_need_no_recursion():
    g = path_graph(5000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        cuts = articulation_points(g)
    finally:
        sys.setrecursionlimit(limit)
    assert cuts == list(range(1, 4999))


def test_biconnected_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    count = 0
    for g in _articulation_corpus(random.Random(1973)):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        blocks = biconnected_blocks(g)
        assert all(block == sorted(block) for block in blocks)
        assert sorted(blocks) == sorted(sorted(b) for b in nx.biconnected_components(h)), g.edges
        # A component's blocks are consecutive, its last block holds its least
        # vertex, and every other block shares exactly one vertex with the
        # blocks after it: the one it hangs from.
        comps = [c for c in connected_components(g) if len(c) > 1]
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        runs = [comp_of[block[0]] for block in blocks]
        assert runs == sorted(runs)
        later: set[int] = set()
        for i in reversed(range(len(blocks))):
            if i + 1 == len(blocks) or runs[i + 1] != runs[i]:
                assert blocks[i][0] == comps[runs[i]][0]
                later = set()
            else:
                assert len(later.intersection(blocks[i])) == 1
            later.update(blocks[i])
        count += 1
    assert count == 500


def test_biconnected_blocks_need_no_recursion():
    g = path_graph(5000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        blocks = biconnected_blocks(g)
    finally:
        sys.setrecursionlimit(limit)
    # The search from vertex 0 lists the far end first.
    assert blocks == [[v, v + 1] for v in reversed(range(4999))]


def test_induced_subgraph_relabels():
    g = complete_graph(5)
    assert induced_subgraph(g, [4, 1, 3]) == complete_graph(3)
    path = Graph(5, ((0, 4), (1, 4)))
    # New ids follow the ascending old ones: 1 -> 0, 3 -> 1, 4 -> 2.
    assert induced_subgraph(path, [4, 1, 3, 1]) == Graph(3, ((0, 2),))
    for outside in ([0, 5], [-1, 2]):
        with pytest.raises(ValueError, match="lie in"):
            induced_subgraph(g, outside)


def test_induced_subgraph_equals_validated_construction():
    # Induced pieces skip re-validation; they must still equal the graph the
    # public constructor builds from the same relabeled edges.
    rng = random.Random(606)
    for _ in range(300):
        n = rng.randint(0, 40)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        for vertices in ([], list(range(n)), [rng.randrange(n)] if n else [],
                         rng.sample(range(n), rng.randint(0, n))):
            sub = induced_subgraph(g, vertices)
            order = sorted(set(vertices))
            index = {v: i for i, v in enumerate(order)}
            edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
            rng.shuffle(edges)
            ref = Graph(len(order), tuple(edges))
            assert sub == ref and hash(sub) == hash(ref)
            assert sub.edges == ref.edges and sub._adj == ref._adj
            assert sub.degrees() == ref.degrees()


def test_degrees_of_circulant():
    g = circulant_graph(8, (1, 2, 3))
    assert g.n == 8 and g.m == 24
    assert regularity(g) == 6
