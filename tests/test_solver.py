import functools
import hashlib
import inspect
import itertools
import random
import sys

import pytest

from factorkit import solver
from factorkit.constructions import build_g1, build_g2
from factorkit.generators import (
    circulant_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    random_regular_graph,
)
from factorkit.graph import Graph
from factorkit.matching import is_perfect, maximum_matching
from factorkit.solver import (
    BRUTE_FORCE_EDGE_CAP,
    EXISTS,
    INCONCLUSIVE,
    NOT_EXISTS,
    Decision,
    FactorSpec,
    brute_force_h_factor,
    decompose_two_factors,
    even_k_factor,
    f_factor_decide,
    h_factor_decide,
    subgraph_degrees,
    verify_factor,
)

from oracles import (
    all_graphs,
    petersen,
    random_block_tree,
    reference_prescribed_factor_edges,
    two_hub,
)


def test_spec_normalization():
    assert FactorSpec.of(5, 1).allowed == (1, 5)
    assert FactorSpec.of(3, 3).allowed == (3,)
    assert FactorSpec.complementary(5, 6).allowed == (1, 5)
    assert FactorSpec.complementary(3, 6).allowed == (3,)
    assert 5 in FactorSpec.of(1, 5)
    assert 2 not in FactorSpec.of(1, 5)
    with pytest.raises(ValueError):
        FactorSpec(())
    with pytest.raises(ValueError):
        FactorSpec.of(-1)
    with pytest.raises(ValueError):
        FactorSpec.complementary(7, 6)


def test_verify_factor_examples():
    c4 = cycle_graph(4)
    assert verify_factor(c4, [(0, 1), (2, 3)], FactorSpec.of(1))
    assert not verify_factor(c4, c4.edges, FactorSpec.of(1))
    k4 = complete_graph(4)
    hamilton = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert verify_factor(k4, hamilton, FactorSpec.of(2))
    with pytest.raises(ValueError, match="not an edge"):
        verify_factor(c4, [(0, 2)], FactorSpec.of(1))


def test_f_factor_examples():
    c4 = cycle_graph(4)
    dec = f_factor_decide(c4, [1, 1, 1, 1])
    assert dec.exists and subgraph_degrees(4, dec.certificate) == [1, 1, 1, 1]
    c5 = cycle_graph(5)
    assert f_factor_decide(c5, [1] * 5).verdict == NOT_EXISTS
    k4 = complete_graph(4)
    dec = f_factor_decide(k4, [2] * 4)
    assert dec.exists and subgraph_degrees(4, dec.certificate) == [2, 2, 2, 2]


def test_f_factor_validates_targets():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="exceeds"):
        f_factor_decide(c4, [3, 1, 1, 1])
    with pytest.raises(ValueError, match="negative"):
        f_factor_decide(c4, [-1, 1, 1, 1])
    with pytest.raises(ValueError, match="expected"):
        f_factor_decide(c4, [1, 1])


def test_f_factor_odd_sum_is_parity():
    dec = f_factor_decide(cycle_graph(4), [1, 1, 1, 0])
    assert dec.verdict == NOT_EXISTS and dec.method == "parity"


def test_f_factor_against_subset_enumeration():
    rng = random.Random(1009)
    for _ in range(250):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.randint(0, min(12, n * (n - 1) // 2)), rng)
        targets = [rng.randint(0, g.degree(v)) for v in range(n)]
        dec = f_factor_decide(g, targets)
        want = False
        for mask in range(1 << g.m):
            chosen = [g.edges[i] for i in range(g.m) if mask >> i & 1]
            if subgraph_degrees(n, chosen) == targets:
                want = True
                break
        assert dec.exists == want
        if dec.exists:
            assert subgraph_degrees(n, dec.certificate) == targets


def test_f_factor_all_ones_agrees_with_perfect_matching():
    rng = random.Random(4321)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 10)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        if any(g.degree(v) == 0 for v in range(n)):
            continue  # the all-ones prescription needs minimum degree 1
        dec = f_factor_decide(g, [1] * n)
        mate = maximum_matching(g.n, [list(g.neighbors(v)) for v in range(g.n)])
        assert dec.exists == is_perfect(mate)
        checked += 1


def _gadget_targets(rng: random.Random, g: Graph, draw: str) -> list[int]:
    """Degree targets that give the gadget copies only (2f < d), cores only
    (2f >= d), ties (2f = d where d is even) or a uniform mix, with an even
    sum so that most draws can be realized."""
    bounds = {
        "copies": lambda d: (0, (d - 1) // 2),
        "cores": lambda d: ((d + 1) // 2, d),
        "ties": lambda d: (d // 2, d // 2),
        "mixed": lambda d: (0, d),
    }[draw]
    targets = [rng.randint(*bounds(g.degree(v))) if g.degree(v) else 0 for v in range(g.n)]
    if sum(targets) % 2:
        v = max(range(g.n), key=g.degree)
        targets[v] += 1 if targets[v] < g.degree(v) else -1
    return targets


def test_gadget_agrees_with_reference_gadget():
    # The smaller-side gadget against the d - f core gadget, on seeded random
    # graphs up to 40 vertices: same existence, and every certificate has
    # exactly the target degrees.
    rng = random.Random(1954)
    found = {True: 0, False: 0}
    for trial in range(400):
        draw = ("copies", "cores", "ties", "mixed")[trial % 4]
        n = rng.randint(1, 40)
        g = random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 3 * n)), rng)
        targets = _gadget_targets(rng, g, draw)
        edges = solver._prescribed_factor_edges(g, targets)
        assert (edges is not None) == (reference_prescribed_factor_edges(g, targets) is not None)
        if edges is not None:
            assert set(edges) <= set(g.edges)
            assert subgraph_degrees(n, edges) == targets, (g.edges, targets)
        found[edges is not None] += 1
    assert min(found.values()) > 50


def _windows(d: int) -> list[tuple[int, int, bool]]:
    """Every window (lo, hi, mixed) with lo <= hi <= d: each value from lo to
    hi when mixed, else every other one (lo == hi is listed once)."""
    return [
        (lo, hi, mixed)
        for lo in range(d + 1)
        for hi in range(lo, d + 1)
        for mixed in (False, True)
        if (mixed or (hi - lo) % 2 == 0) and not (mixed and hi == lo)
    ]


def test_gadget_against_subset_enumeration_on_every_small_graph():
    # Every labelled graph on at most 4 vertices and every window per vertex,
    # exact, parity-step and plain, odd totals included: a factor is found
    # exactly when some edge subset has every degree in its window, and it
    # has. The exact windows alone are every target vector, 3,194 cases.
    checked = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            realized = sorted({
                tuple(subgraph_degrees(n, [g.edges[i] for i in range(g.m) if mask >> i & 1]))
                for mask in range(1 << g.m)
            })
            # inside[v][w]: bit j set iff realized[j] puts v inside window w.
            windows = [_windows(g.degree(v)) for v in range(n)]
            inside = [
                [
                    sum(1 << j for j, t in enumerate(realized)
                        if lo <= t[v] <= hi and (mixed or (t[v] - lo) % 2 == 0))
                    for lo, hi, mixed in windows[v]
                ]
                for v in range(n)
            ]
            for choice in itertools.product(*(range(len(w)) for w in windows)):
                lows, highs, mixed = zip(*(windows[v][w] for v, w in enumerate(choice)))
                edges = solver._prescribed_factor_edges(g, lows, highs, mixed)
                want = functools.reduce(int.__and__, (inside[v][w] for v, w in enumerate(choice)))
                assert (edges is not None) == bool(want), (g.edges, lows, highs, mixed)
                if edges is not None:
                    assert set(edges) <= set(g.edges)
                    for v, d in enumerate(subgraph_degrees(n, edges)):
                        assert lows[v] <= d <= highs[v] and (mixed[v] or (d - lows[v]) % 2 == 0)
                checked += 1
    assert checked == 101_028


def test_h_factor_examples():
    k4 = complete_graph(4)
    dec = h_factor_decide(k4, FactorSpec.of(1, 2))
    assert dec.exists and verify_factor(k4, dec.certificate, FactorSpec.of(1, 2))
    c8 = circulant_graph(8, (1, 2, 3))
    dec = h_factor_decide(c8, FactorSpec.of(3))
    assert dec.exists and verify_factor(c8, dec.certificate, FactorSpec.of(3))


def test_h_factor_g1_counterexample():
    g1 = build_g1(6).graph
    dec = h_factor_decide(g1, FactorSpec.of(1, 5))
    assert dec.verdict == NOT_EXISTS
    assert dec.method == "exhausted-assignments"


def test_h_factor_parity_shortcut():
    triangle = complete_graph(3)
    dec = h_factor_decide(triangle, FactorSpec.of(1))
    assert dec.verdict == NOT_EXISTS and dec.method == "parity"
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    dec = h_factor_decide(two_triangles, FactorSpec.of(1, 3))
    assert dec.verdict == NOT_EXISTS and dec.method == "parity"


def test_h_factor_budget_is_honest():
    g = random_regular_graph(10, 5, random.Random(6))
    dec = h_factor_decide(g, FactorSpec.of(1, 2), budget=0)
    assert dec.verdict == INCONCLUSIVE and dec.method == "budget"
    full = h_factor_decide(g, FactorSpec.of(1, 2))
    assert full.verdict in (EXISTS, NOT_EXISTS)


def test_two_hub_probe_is_one_node():
    # The benchmark's budgeted probe: eight triangles hang off two hubs, so no
    # {1,3}-factor exists and there is no cut vertex. The all-1 gadget and the
    # {1,3} hull both fail at the first node, within a 1,000-node budget.
    g = two_hub(8)
    dec = h_factor_decide(g, FactorSpec.of(1, 3), budget=1000)
    assert (dec.verdict, dec.method) == (NOT_EXISTS, "exhausted-assignments")
    assert dec.nodes_explored <= 2
    dec = h_factor_decide(g, FactorSpec.of(1, 3), budget=0)
    assert (dec.verdict, dec.method, dec.nodes_explored) == (INCONCLUSIVE, "budget", 1)


@pytest.mark.parametrize("r, k", [(16, 7), (20, 9)])
def test_g2_is_one_query_per_cut_degree(r, k):
    # Each side keeps its cut vertex, so G2 splits at hub u and then at hub v,
    # and each side is queried once per degree the hub can take in it: 48 and
    # 60 nodes, well inside the budget.
    g = build_g2(r).graph
    spec = FactorSpec.complementary(k, r)
    dec = h_factor_decide(g, spec, budget=1000)
    assert dec.verdict == EXISTS and verify_factor(g, dec.certificate, spec)


def test_branching_refutes_a_feasible_hull(monkeypatch):
    # K_{2,4} under {1,4}: the four leaves take one edge each, so the hub
    # degrees sum to 4, which neither 1 + 3, 2 + 2 nor 4 + 0 is. The hull
    # (hubs anywhere in 1..4) is feasible, so the search branches at a hub
    # that lands in the gap: five nodes, each hull infeasible or in a gap.
    # A lower child keeps every lowest candidate, so it inherits the failed
    # all-1 gadget instead of matching it again, and prunes when its hull is
    # that gadget: one all-1 build of at most four.
    builds = []
    real = solver._prescribed_factor_edges

    def spy(g, lows, highs=None, mixed=()):
        builds.append((tuple(lows), tuple(lows if highs is None else highs)))
        return real(g, lows, highs, mixed)

    monkeypatch.setattr(solver, "_prescribed_factor_edges", spy)
    g = Graph(6, tuple((leaf, hub) for leaf in range(4) for hub in (4, 5)))
    dec = h_factor_decide(g, FactorSpec.of(1, 4))
    assert (dec.verdict, dec.method, dec.nodes_explored) == (NOT_EXISTS, "exhausted-assignments", 5)
    assert builds.count(((1,) * 6, (1,) * 6)) == 1 and len(builds) <= 4
    assert not brute_force_h_factor(g, FactorSpec.of(1, 4)).exists


def test_h_factor_negative_budget_is_an_error():
    g = build_g1(6).graph
    with pytest.raises(ValueError, match="budget"):
        h_factor_decide(g, FactorSpec.of(1, 5), budget=-1)


def test_h_factor_matches_brute_force_on_random_corpus():
    rng = random.Random(90210)
    specs = [FactorSpec.of(1), FactorSpec.of(2), FactorSpec.of(1, 3), FactorSpec.of(1, 2)]
    for _ in range(120):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.randint(0, min(13, n * (n - 1) // 2)), rng)
        size = rng.randint(1, 3)
        extra = FactorSpec(tuple(rng.sample(range(5), size)))
        for spec in specs + [extra]:
            fast = h_factor_decide(g, spec)
            slow = brute_force_h_factor(g, spec)
            assert fast.verdict != INCONCLUSIVE
            assert fast.exists == slow.exists, (g.edges, spec)
            if fast.exists:
                assert verify_factor(g, fast.certificate, spec)


def test_h_factor_deterministic():
    g = random_regular_graph(10, 4, random.Random(17))
    a = h_factor_decide(g, FactorSpec.of(1, 3))
    b = h_factor_decide(g, FactorSpec.of(1, 3))
    assert a == b


Labelled = tuple[tuple[object, Decision], ...]


@functools.cache
def _family_decisions() -> Labelled:
    """Every {k, r-k} decision of the benchmark's families (odd k <= r/2),
    plus {r/2} on G1, each labelled by its family, degree and spec."""
    decisions = []
    for build, degrees in ((build_g1, (6, 10, 14, 18)), (build_g2, (8, 12))):
        for r in degrees:
            g = build(r).graph
            specs = [FactorSpec.complementary(k, r) for k in range(1, r // 2 + 1, 2)]
            if build is build_g1:
                specs.append(FactorSpec.of(r // 2))
            decisions.extend(((build.__name__, r, spec.allowed), h_factor_decide(g, spec))
                             for spec in specs)
    return tuple(decisions)


@functools.cache
def _block_tree_decisions() -> Labelled:
    """Decisions on 300 seeded block trees of cliques and cycles (up to 60
    vertices) under five specs, each labelled by its tree and spec."""
    rng = random.Random(2011)
    specs = [FactorSpec.of(*s) for s in ((1,), (1, 2), (1, 3), (0, 2), (2, 3))]
    decisions = []
    for tree in range(300):
        g = random_block_tree(rng, 60)
        decisions.extend(((tree, spec.allowed), h_factor_decide(g, spec)) for spec in specs)
    return tuple(decisions)


CENSUS_SPECS = [
    FactorSpec(values) for size in range(1, 6) for values in itertools.combinations(range(5), size)
]


@functools.cache
def _census_decisions() -> Labelled:
    """Every labelled graph on 1..5 vertices against every nonempty spec
    within {0..4}, each labelled by (graph, spec)."""
    return tuple(
        ((g, spec), h_factor_decide(g, spec))
        for n in range(1, 6)
        for g in all_graphs(n)
        for spec in CENSUS_SPECS
    )


def _decisions_digest(decisions: Labelled, certificates: bool) -> str:
    """sha256 over one repr per decision, with or without its certificate."""
    lines = [
        repr((d.verdict, d.method, d.certificate, d.nodes_explored) if certificates
             else (d.verdict, d.method, d.nodes_explored))
        for _, d in decisions
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _answers_digest(decisions: Labelled) -> str:
    """sha256 over (label, verdict, method) per decision: no certificates and
    no node counts, so only a changed answer moves it."""
    lines = [repr((label, d.verdict, d.method)) for label, d in decisions]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("decisions, want", [
    (_family_decisions, "fc81347b35a3f4e46edcebc2b76a622d6840382362643f1dbbc7cfefa9374833"),
    (_block_tree_decisions, "2b6744a90b66b58cf9b6e055296a7a694effc196bf22aebb37edf3a679c40907"),
    (_census_decisions, "1b148a7d2b994480bfa6a251ba896c49f1cc59387ec450b4db71d52550c38be9"),
], ids=["families", "block_trees", "census"])
def test_answers_pinned(decisions, want):
    # Verdicts and methods only: a new search may explore other nodes and
    # find other factors, but never give another answer.
    assert _answers_digest(decisions()) == want


def test_family_verdicts_pinned():
    # Verdicts, methods and node counts without certificates: a change of
    # gadget may pick another factor, but never another answer or search.
    # Re-derived when each side kept its cut vertex and was queried once per
    # cut degree instead of once per cross-edge subset.
    assert _decisions_digest(_family_decisions(), certificates=False) == (
        "c9a22791432f3162651870f5b3b60b9a900cf12361814bcea74753a193933e6d"
    )


def test_family_decisions_pinned():
    # Verdicts, methods, certificates and node counts; re-derived when the
    # gadget took the smaller side at each vertex, which finds other factors,
    # and when sides were queried once per cut degree.
    assert _decisions_digest(_family_decisions(), certificates=True) == (
        "e3623e0f79b86cbf875a4f9e6c5391f82972a9497b975a95d1290acb33b1c7c0"
    )


def test_block_tree_verdicts_pinned():
    # Re-derived when blocks were decided by branch and bound: node counts
    # moved under {1,2} and {2,3}, where a block's hull finds a factor the
    # first assignment misses, and again when sides were queried once per
    # cut degree.
    assert _decisions_digest(_block_tree_decisions(), certificates=False) == (
        "70292d95031e6a61ddb531feafb6e3072cad8a19f52fba2db92a41a48228b65e"
    )


def test_block_tree_decisions_pinned():
    # Deep cut structure that the families and the n <= 5 census never reach;
    # re-derived for the smaller-side gadget, again with the verdict pin, and
    # when endpoints listed their gadget first, which finds other factors,
    # and when sides were queried once per cut degree.
    assert _decisions_digest(_block_tree_decisions(), certificates=True) == (
        "06f79d6c3879a5b72b8e3d64e2b8e3be7356e6388f4be289277aa0c9d6502ed0"
    )


def test_piece_table_builds_each_piece_once(monkeypatch):
    real_induced, real_articulation = solver.induced_subgraph, solver.articulation_points
    induced, articulation = [], []

    def counting_induced(g, vertices):
        vertices = tuple(vertices)
        induced.append((g.n, g.edges, vertices))
        return real_induced(g, vertices)

    def counting_articulation(g):
        articulation.append((g.n, g.edges))
        return real_articulation(g)

    monkeypatch.setattr(solver, "induced_subgraph", counting_induced)
    monkeypatch.setattr(solver, "articulation_points", counting_articulation)
    dec = h_factor_decide(build_g1(14).graph, FactorSpec.of(1, 13))
    assert dec.verdict == NOT_EXISTS and dec.nodes_explored > len(induced)
    # The hub piece and its seven identical blocks: one split each, and each
    # side induced once per search rather than once per query.
    assert len(articulation) == len(set(articulation)) == 2
    assert len(induced) == len(set(induced))


def test_memo_tells_equal_sized_pieces_apart():
    # Hub 0 with a pendant 9, a path 1-2-3-4 and a star centred at 5 whose
    # leaf 6 meets the hub. Both 4-vertex sides see the same candidates,
    # but only the path has a perfect matching, so the memo must key on the
    # piece and not only on its size.
    g = Graph(10, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 6), (5, 6), (5, 7), (5, 8), (0, 9)))
    assert h_factor_decide(g, FactorSpec.of(1)).verdict == NOT_EXISTS
    assert not brute_force_h_factor(g, FactorSpec.of(1)).exists

def test_deep_block_cut_tree_needs_no_recursion():
    # Each side keeps the least cut vertex, so a path sheds one leaf per
    # level: 298 levels on P_300.
    g = path_graph(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        dec = h_factor_decide(g, FactorSpec.of(1, 2))
    finally:
        sys.setrecursionlimit(limit)
    assert dec.exists and verify_factor(g, dec.certificate, FactorSpec.of(1, 2))


def test_exhaustive_census_against_brute_force():
    # 1,099 graphs x 31 specs = 34,069 decisions.
    decided = 0
    for (g, spec), fast in _census_decisions():
        slow = brute_force_h_factor(g, spec)
        assert fast.verdict != INCONCLUSIVE
        assert fast.exists == slow.exists, (g.n, g.edges, spec)
        for dec in (fast, slow):
            if dec.exists:
                assert verify_factor(g, dec.certificate, spec)
        decided += 1
    assert decided == 34_069

@functools.cache
def _atlas_graphs() -> tuple[Graph, ...]:
    """Every graph of the networkx atlas (all graphs on at most 7 vertices, up
    to isomorphism) with at most 15 edges, so brute force stays cheap."""
    nx = pytest.importorskip("networkx")
    return tuple(
        Graph(h.number_of_nodes(), tuple(h.edges()))
        for h in nx.graph_atlas_g()
        if h.number_of_edges() <= 15
    )


@pytest.mark.parametrize("allowed", [(1,), (2,), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5)],
                         ids=lambda allowed: ",".join(map(str, allowed)))
def test_atlas_census_against_brute_force(allowed):
    # Specs with 0 are left out: the all-0 first assignment decides them at
    # once. Gaps of 2 or more make the search branch.
    spec = FactorSpec(allowed)
    graphs = _atlas_graphs()
    assert len(graphs) == 1_213
    for g in graphs:
        fast = h_factor_decide(g, spec)
        slow = brute_force_h_factor(g, spec)
        assert fast.verdict != INCONCLUSIVE
        assert fast.exists == slow.exists, (g.n, g.edges, spec)
        for dec in (fast, slow):
            if dec.exists:
                assert verify_factor(g, dec.certificate, spec)


def test_brute_force_examples():
    assert brute_force_h_factor(cycle_graph(4), FactorSpec.of(1)).exists
    assert not brute_force_h_factor(cycle_graph(5), FactorSpec.of(1)).exists
    dec = brute_force_h_factor(petersen(), FactorSpec.of(1))
    assert dec.exists and verify_factor(petersen(), dec.certificate, FactorSpec.of(1))
    assert dec.method == "brute-force"


def test_brute_force_edge_cap():
    g = complete_graph(8)  # 28 edges
    assert g.m > BRUTE_FORCE_EDGE_CAP
    with pytest.raises(ValueError, match="capped"):
        brute_force_h_factor(g, FactorSpec.of(1))


def test_even_k_factor_examples():
    k5 = complete_graph(5)
    cert = even_k_factor(k5, 2)
    assert verify_factor(k5, cert, FactorSpec.of(2))
    assert even_k_factor(k5, 0) == ()
    c8 = circulant_graph(8, (1, 2, 3))
    cert = even_k_factor(c8, 4)
    assert verify_factor(c8, cert, FactorSpec.of(4))
    # complement within the host graph is an (r-k)-factor
    complement = set(c8.edges) - set(cert)
    assert verify_factor(c8, complement, FactorSpec.of(2))


def test_even_k_factor_rejects_parity_violations():
    with pytest.raises(ValueError):
        even_k_factor(complete_graph(4), 2)  # 3-regular host
    with pytest.raises(ValueError):
        even_k_factor(complete_graph(5), 3)  # odd k
    with pytest.raises(ValueError):
        even_k_factor(complete_graph(5), 6)  # k > r
    with pytest.raises(ValueError):
        even_k_factor(Graph(3, ((0, 1),)), 0)  # not regular


def test_decompose_two_factors_examples():
    c4 = cycle_graph(4)
    assert decompose_two_factors(c4) == [c4.edges]
    k5 = complete_graph(5)
    factors = decompose_two_factors(k5)
    assert len(factors) == 2
    assert set(factors[0]).isdisjoint(factors[1])
    assert set(factors[0]) | set(factors[1]) == set(k5.edges)
    for f in factors:
        assert verify_factor(k5, f, FactorSpec.of(2))


# The benchmark's circulants (r = 6, 8, 10).
LARGE_CIRCULANTS = [
    circulant_graph(120, (1, 11, 37)),
    circulant_graph(200, (1, 9, 43, 77)),
    circulant_graph(300, (1, 13, 47, 89, 121)),
]


def test_decompose_two_factors_circulant_and_random():
    rng = random.Random(5150)
    hosts = [circulant_graph(8, (1, 2, 3)), complete_graph(9)] + LARGE_CIRCULANTS
    hosts += [random_regular_graph(rng.randint(8, 12), 4, rng) for _ in range(10)]
    for g in hosts:
        r = len(g.neighbors(0))
        factors = decompose_two_factors(g)
        assert len(factors) == r // 2
        union = set()
        total = 0
        for f in factors:
            assert verify_factor(g, f, FactorSpec.of(2))
            union |= set(f)
            total += len(f)
        assert union == set(g.edges) and total == g.m
        # An even k-factor is the union of the first k/2 peeled 2-factors.
        for k in range(0, r + 1, 2):
            cert = even_k_factor(g, k)
            assert verify_factor(g, cert, FactorSpec.of(k))
            assert set(cert) == set().union(*factors[: k // 2])


def test_two_factors_orient_once(monkeypatch):
    calls = []
    orient = solver._euler_orientation

    def spy(n, edges):
        calls.append(n)
        return orient(n, edges)

    monkeypatch.setattr(solver, "_euler_orientation", spy)
    g = LARGE_CIRCULANTS[-1]
    assert len(decompose_two_factors(g)) == 5
    assert len(calls) == 1
    assert verify_factor(g, even_k_factor(g, 8), FactorSpec.of(8))
    assert len(calls) == 2


def test_decompose_handles_disconnected_hosts():
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    factors = decompose_two_factors(two_triangles)
    assert factors == [two_triangles.edges]
    k5 = complete_graph(5)
    extra = Graph(10, k5.edges + tuple((u + 5, v + 5) for u, v in k5.edges))
    factors = decompose_two_factors(extra)
    assert len(factors) == 2
    assert set(factors[0]) | set(factors[1]) == set(extra.edges)
    for f in factors:
        assert verify_factor(extra, f, FactorSpec.of(2))


def test_decompose_rejects_odd_degree():
    with pytest.raises(ValueError):
        decompose_two_factors(complete_graph(4))
    with pytest.raises(ValueError):
        decompose_two_factors(Graph(3, ((0, 1),)))


def test_decision_json_shape():
    dec = Decision("exists", "search", ((0, 1),), 5)
    payload = dec.to_json_dict()
    assert payload == {
        "verdict": "exists",
        "method": "search",
        "nodes_explored": 5,
        "certificate": [[0, 1]],
    }
    assert "certificate" not in Decision("not-exists", "parity", None, 1).to_json_dict()
