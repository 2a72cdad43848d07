import hashlib
import itertools
import json
import random

import pytest

from factorkit import solver
from factorkit.constructions import build_g1, build_g2
from factorkit.generators import circulant_graph
from factorkit.graph import Graph
from factorkit.matching import (
    check_barrier,
    is_perfect,
    matching_size,
    maximum_matching,
    perfect_matching,
)
from factorkit.solver import FactorSpec, h_factor_decide

from oracles import (
    PETERSEN_EDGES,
    all_graphs,
    brute_max_matching_size,
    reference_maximum_matching,
    reference_prescribed_factor_edges,
    two_hub,
)


def adj_of(g: Graph) -> list:
    return [list(g.neighbors(v)) for v in range(g.n)]


def check_consistency(g: Graph, mate: list) -> None:
    edge_set = g.edge_set()
    for v, u in enumerate(mate):
        if u != -1:
            assert mate[u] == v
            assert ((u, v) if u < v else (v, u)) in edge_set


def test_exhaustive_up_to_five_vertices():
    for n in range(6):
        for g in all_graphs(n):
            mate = maximum_matching(g.n, adj_of(g))
            check_consistency(g, mate)
            assert matching_size(mate) == brute_max_matching_size(g.n, list(g.edges))


def test_random_graphs_against_brute_force():
    rng = random.Random(2718)
    for _ in range(150):
        n = rng.randint(6, 12)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 16)))
        g = Graph(n, tuple(edges))
        mate = maximum_matching(g.n, adj_of(g))
        check_consistency(g, mate)
        assert matching_size(mate) == brute_max_matching_size(g.n, list(g.edges))


def odd_cycle_graph(rng: random.Random, n: int) -> Graph:
    """Disjoint odd cycles of length 3-9 under a random labeling (a vertex
    or two may be left over), plus n/2 random chords: many blossoms."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    start = 0
    while n - start >= 3:
        length = min(rng.choice((3, 5, 7, 9)), n - start)
        length -= 1 - length % 2
        cycle = order[start:start + length]
        edges.update(tuple(sorted((cycle[i], cycle[i - 1]))) for i in range(length))
        start += length
    while len(edges) < n + n // 2:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, tuple(edges))


def random_adjacencies(rng: random.Random, count: int, max_n: int):
    """(n, adj) of `count` seeded random graphs on 1..max_n vertices with up
    to 4n edges; every other one has its neighbor lists shuffled."""
    for trial in range(count):
        n = rng.randint(1, max_n)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), 4 * n)))))
        adj = adj_of(g)
        if trial % 2:
            for neighbors in adj:
                rng.shuffle(neighbors)
        yield n, adj


@pytest.fixture
def solver_matchings(monkeypatch):
    """(n, adj, mate) of every matching the solver runs, in call order, with
    mate from maximum_matching. The solver's perfect_matching must return
    that mate when it is perfect, and None with a barrier that check_barrier
    accepts exactly when it is not."""
    calls = []

    def spy(n, adj):
        mate = maximum_matching(n, adj)
        calls.append((n, adj, mate))
        found, barrier = perfect_matching(n, adj)
        if is_perfect(mate):
            assert (found, barrier) == (mate, None)
        else:
            assert found is None and check_barrier(n, adj, barrier)
        return found, barrier

    monkeypatch.setattr(solver, "perfect_matching", spy)
    return calls


def test_random_graphs_against_networkx(solver_matchings):
    nx = pytest.importorskip("networkx")
    rng = random.Random(314)
    graphs = []
    for _ in range(50):
        n = rng.randint(8, 30)
        pairs = list(itertools.combinations(range(n), 2))
        graphs.append(Graph(n, tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n))))))
    # Large inputs with many blossoms, where a search tree covers a small
    # part of the graph, so tree-local resets and contraction scans differ
    # from full scans.
    graphs += [odd_cycle_graph(rng, n) for n in (201, 350, 600)]
    # The d - f core gadget for a 1-factor of G1(r=6): 242 vertices, hundreds
    # of blossoms, no perfect matching.
    reference_prescribed_factor_edges(build_g1(6).graph, [1] * 22)
    n, adj, _ = solver_matchings[0]
    graphs.append(Graph(n, tuple((u, w) for u in range(n) for w in adj[u] if u < w)))
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges)
        mate = maximum_matching(g.n, adj_of(g))
        check_consistency(g, mate)
        assert matching_size(mate) == len(nx.max_weight_matching(G, maxcardinality=True))


def test_mates_equal_reference_on_random_graphs():
    # Whole mate lists, not sizes: blossom-local contraction must keep the
    # tree-scanning search order exactly, with sorted or shuffled lists.
    rng = random.Random(1965)
    for trial, (n, adj) in enumerate(random_adjacencies(rng, 1000, 80)):
        assert maximum_matching(n, adj) == reference_maximum_matching(n, adj), trial
    for n in (201, 350, 600):
        g = odd_cycle_graph(rng, n)
        assert maximum_matching(n, adj_of(g)) == reference_maximum_matching(n, adj_of(g))


def test_perfect_mates_equal_reference_on_random_graphs():
    # The graphs above: the early stop changes nothing when the matching is
    # perfect, and answers None with a barrier exactly when it is not.
    perfect = 0
    for trial, (n, adj) in enumerate(random_adjacencies(random.Random(1965), 1000, 80)):
        mate = reference_maximum_matching(n, adj)
        found, barrier = perfect_matching(n, adj)
        if is_perfect(mate):
            perfect += 1
            assert (found, barrier) == (mate, None), trial
        else:
            assert found is None and check_barrier(n, adj, barrier), trial
    assert 0 < perfect < 1000


def test_barriers_hold_on_random_graphs():
    perfect = 0
    for trial, (n, adj) in enumerate(random_adjacencies(random.Random(1947), 3000, 60)):
        mate, barrier = perfect_matching(n, adj)
        if barrier is None:
            perfect += 1
            assert all(mate[v] in adj[v] and mate[mate[v]] == v for v in range(n)), trial
        else:
            assert mate is None and check_barrier(n, adj, barrier), trial
    assert 0 < perfect < 3000


def test_barriers_hold_on_two_hub_gadgets(solver_matchings):
    # The spy checks the barrier of every gadget the {1,3} search builds on
    # the biconnected two-hub graphs; none has a perfect matching.
    for t in (2, 3, 4, 5):
        assert h_factor_decide(two_hub(t), FactorSpec.of(1, 3)).verdict == solver.NOT_EXISTS
    assert len(solver_matchings) == 5440
    assert not any(is_perfect(mate) for _, _, mate in solver_matchings)


def test_check_barrier_rejects_altered_barriers():
    star = [[1, 2, 3], [0], [0], [0]]
    k24 = [[2, 3, 4, 5], [2, 3, 4, 5], [0, 1], [0, 1], [0, 1], [0, 1]]
    assert perfect_matching(4, star) == (None, [0])
    assert perfect_matching(6, k24) == (None, [0, 1])
    assert check_barrier(4, star, [0]) and check_barrier(6, k24, [0, 1])
    for n, adj, barrier in [
        (4, star, []),            # a vertex dropped
        (6, k24, [0]),
        (4, star, [0, 1]),        # a vertex added
        (6, k24, [0, 1, 2]),
        (4, star, [0, 0]),        # a duplicate
        (6, k24, [0, 1, 1]),
        (4, star, [4]),           # out of range
        (4, star, [-1]),
        (6, k24, [0, 6]),
    ]:
        assert not check_barrier(n, adj, barrier), (n, barrier)


def test_mates_equal_reference_on_gadgets(solver_matchings):
    # Every gadget the solver builds for the paper's families and the
    # biconnected two-hub graphs, under seeded degree targets of even sum:
    # uniform in 0..d (thousands of blossoms, no perfect matching) and drawn
    # from {1, d-1} as a {1, r-1} search does (some perfect).
    rng = random.Random(1976)
    graphs = [build_g1(r).graph for r in (6, 10, 14)]
    graphs += [build_g2(r).graph for r in (8, 12)]
    graphs += [two_hub(t) for t in (2, 3, 4, 5, 8)]
    for g in graphs:
        for draw in (0, 0, 0, 1, 1):
            targets = [rng.choice((1, g.degree(v) - 1)) if draw else rng.randint(0, g.degree(v))
                       for v in range(g.n)]
            if sum(targets) % 2:
                v = rng.randrange(g.n)
                targets[v] += 1 if targets[v] < g.degree(v) else -1
            solver._prescribed_factor_edges(g, targets)
    assert len(solver_matchings) == 5 * len(graphs)
    assert any(is_perfect(mate) for _, _, mate in solver_matchings)
    for n, adj, mate in solver_matchings:
        assert mate == reference_maximum_matching(n, adj)


def test_petersen_has_perfect_matching():
    g = Graph(10, PETERSEN_EDGES)
    mate = maximum_matching(g.n, adj_of(g))
    assert is_perfect(mate)


def test_odd_cycle_leaves_one_exposed():
    g = Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
    mate = maximum_matching(g.n, adj_of(g))
    assert matching_size(mate) == 2


def test_deterministic():
    rng = random.Random(99)
    pairs = list(itertools.combinations(range(12), 2))
    edges = rng.sample(pairs, 24)
    g = Graph(12, tuple(edges))
    first = maximum_matching(g.n, adj_of(g))
    second = maximum_matching(g.n, adj_of(g))
    assert first == second


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_mates_pinned_on_random_graphs():
    # Byte-for-byte pin of the search order: any change to which augmenting
    # path is found first changes some mate list here.
    rng = random.Random(20111)
    mates = []
    for _ in range(300):
        n = rng.randint(2, 60)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), 4 * n)))))
        mates.append(maximum_matching(g.n, adj_of(g)))
    assert digest(mates) == "c624f686ea62d5d8c6395ed37af673955829cb92750421610d3d79695e9422a2"


@pytest.mark.parametrize(
    "g, alternate, size, pinned, exists",
    [
        (build_g1(10).graph, False, 840,
         "2c54531916b08f7b409805bcad4e23c1450751583bdec14fd52410930ed6109a", True),
        (build_g1(10).graph, True, 840,
         "c0e353178852689673b6e1603c781bda31a9dcb21202e47b75cc0bda30ec1e4b", False),
        (circulant_graph(120, (1, 11, 37)), False, 1080,
         "2f028e5ee5afaabc527e6cb74bcf6783b51cd3f0fb0208d3495f6debfbd1661b", True),
        (circulant_graph(120, (1, 11, 37)), True, 1080,
         "05039954b93d85118ff742a5853467c4548a5ffc0ef96504f88ab0046e3de20a", False),
    ],
)
def test_mates_pinned_on_gadgets(solver_matchings, g, alternate, size, pinned, exists):
    # Built by the d - f core gadget, so the digests pin the matching engine
    # whatever gadget the solver builds.
    r = g.degree(0)
    targets = [(1 if v % 2 else r - 1) if alternate else r // 2 for v in range(g.n)]
    edges = reference_prescribed_factor_edges(g, targets)
    assert (edges is not None) == exists
    mates = [mate for _, _, mate in solver_matchings]
    assert [len(mate) for mate in mates] == [size]
    assert digest(mates) == pinned


def test_all_one_gadget_takes_the_smaller_side(solver_matchings):
    # One copy per vertex beside two endpoints per edge: 3,300 vertices, where
    # d - f cores per vertex made 5,700.
    g = circulant_graph(300, (1, 13, 47, 89, 121))
    edges = solver._prescribed_factor_edges(g, [1] * g.n)
    assert edges is not None and solver.verify_factor(g, edges, FactorSpec.of(1))
    assert [n for n, _, _ in solver_matchings] == [3300]


def test_tie_gadget_is_the_core_gadget(solver_matchings):
    # With 2f = d the cores stay, so the {r/2} gadget and its factor are the
    # earlier ones (copies would build the same graph but take the complement).
    g = circulant_graph(120, (1, 11, 37))
    edges = solver._prescribed_factor_edges(g, [3] * g.n)
    assert edges is not None and edges == reference_prescribed_factor_edges(g, [3] * g.n)
    (n, adj, _), (reference_n, reference_adj, _) = solver_matchings
    assert n == reference_n == 1080 and adj == reference_adj


def test_mates_pinned_on_bipartite_double(solver_matchings):
    g = circulant_graph(120, (1, 11, 37))
    two_factor = next(solver._two_factors(g, 1))
    mates = [mate for _, _, mate in solver_matchings]
    assert [len(mate) for mate in mates] == [240]
    assert digest(mates) == "51a5cb32f4f2bd72d9bdbdd5ad7753d4b03ded683b22918872f5d22d4eb1f324"
    assert digest(two_factor) == "5c171404859a85eb1048e150cd64a2f450035351da66ca240188b8758f1f50f0"
