import functools
import gc
import hashlib
import inspect
import itertools
import pickle
import random
import sys
import threading
import weakref

import pytest

import factorkit.graph as graph_module
from factorkit import solver
from factorkit.constructions import build_g1, build_g2
from factorkit.generators import circulant_graph, random_graph
from factorkit.graph import Graph, is_connected
from factorkit.matching import maximum_matching
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
    factor_decide,
    h_factor_decide,
    subgraph_degrees,
    verify_factor,
)
from factorkit.theorems import verify_theorem2

from oracles import (
    all_graphs,
    backtrack_factor,
    complete_graph,
    cycle_graph,
    exact_cover_exists,
    path_graph,
    petersen,
    random_block_tree,
    random_even_graph,
    random_regular_graph,
    reference_euler_arcs,
    reference_prescribed_factor_edges,
    two_hub,
    x3c_graph,
    x3c_sets,
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
    with pytest.raises(TypeError):
        FactorSpec.of(1.5)


def test_verify_factor_examples():
    c4 = cycle_graph(4)
    assert verify_factor(c4, [(0, 1), (2, 3)], FactorSpec.of(1))
    assert not verify_factor(c4, c4.edges, FactorSpec.of(1))
    k4 = complete_graph(4)
    hamilton = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert verify_factor(k4, hamilton, FactorSpec.of(2))
    with pytest.raises(ValueError, match="not an edge"):
        verify_factor(c4, [(0, 2)], FactorSpec.of(1))
    # Foreign input is normalized: reversed pairs, lists and repeats pass,
    # and the error names the least non-host edge.
    assert verify_factor(c4, [(1, 0), (3, 2)], FactorSpec.of(1))
    assert verify_factor(c4, [[0, 1], [2, 3]], FactorSpec.of(1))
    assert verify_factor(c4, [(0, 1), (2, 3), (1, 0)], FactorSpec.of(1))
    assert not verify_factor(c4, [[3, 0], [1, 2], [2, 1]], FactorSpec.of(2))
    with pytest.raises(ValueError, match=r"^certificate edge \(0, 2\) is not an edge"):
        verify_factor(c4, [(3, 1), (0, 1), (2, 0)], FactorSpec.of(1))
    # Non-integral endpoints are refused, not truncated onto a host edge.
    with pytest.raises(TypeError):
        verify_factor(complete_graph(2), [(0.9, 1.2)], FactorSpec.of(1))


# Under {1, 2}: a repeated edge that keeps every degree in the spec, a
# non-edge, and a host subgraph leaving vertices 2 and 3 at degree 0.
CORRUPT_C4_FACTORS = [[(0, 1), (2, 3), (0, 1)], [(0, 2), (1, 3)], [(0, 1)]]


@pytest.mark.parametrize("corrupt", CORRUPT_C4_FACTORS)
def test_search_certificate_self_check(monkeypatch, corrupt):
    monkeypatch.setattr(solver, "_solve_blocks", lambda *args: list(corrupt))
    with pytest.raises(AssertionError, match="^internal error: "):
        h_factor_decide(cycle_graph(4), FactorSpec.of(1, 2))


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
    with pytest.raises(TypeError):
        f_factor_decide(complete_graph(2), [1.7, 1.2])


def test_f_factor_odd_sum_is_parity():
    dec = f_factor_decide(cycle_graph(4), [1, 1, 1, 0])
    assert dec.verdict == NOT_EXISTS and dec.method == "parity"


def test_f_factor_is_h_factor_with_one_degree():
    # Exact targets k at every vertex are the spec {k}: the same search, so
    # the same verdict, method, certificate and node count, on every graph
    # with at most 5 vertices and on block trees with deep cut structure.
    rng = random.Random(1972)
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    graphs += [random_block_tree(rng, 30) for _ in range(100)]
    compared = 0
    for g in graphs:
        for k in range(min(g.degrees()) + 1):
            assert f_factor_decide(g, [k] * g.n) == h_factor_decide(g, FactorSpec.of(k)), (g.edges, k)
            compared += 1
    assert compared > 1_500


def test_factor_decide_validates_arguments():
    g = path_graph(3)
    allowed = [FactorSpec.of(1), FactorSpec.of(0, 2), FactorSpec.of(1)]
    assert factor_decide(g, allowed).exists
    with pytest.raises(ValueError, match="expected 3 degree sets, got 2"):
        factor_decide(g, allowed[:2])
    with pytest.raises(ValueError, match="budget"):
        factor_decide(g, allowed, budget=-1)
    with pytest.raises(TypeError):
        factor_decide(g, allowed, budget=2.5)


def test_factor_decide_labels_parity_by_the_unclipped_sets():
    # P_3 under {1} everywhere fails the handshake as given: parity.
    one = FactorSpec.of(1)
    dec = factor_decide(path_graph(3), [one] * 3)
    assert (dec.verdict, dec.method, dec.nodes_explored) == (NOT_EXISTS, "parity", 0)
    # {3} at P_3's middle clips to nothing, but 1 + 3 + 1 is already odd.
    dec = factor_decide(path_graph(3), [one, FactorSpec.of(3), one])
    assert (dec.verdict, dec.method, dec.nodes_explored) == (NOT_EXISTS, "parity", 0)
    # {1,2} clips to {1} on one edge, so 1 + 0 is odd only after clipping.
    dec = factor_decide(path_graph(2), [FactorSpec.of(1, 2), FactorSpec.of(0)])
    assert (dec.verdict, dec.method, dec.nodes_explored) == (NOT_EXISTS, "exhausted-assignments", 0)
    # The handshake holds per component: a triangle beside an edge.
    g = Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))
    dec = factor_decide(g, [FactorSpec.of(1, 2)] * 3 + [one] * 2)
    assert dec.exists and subgraph_degrees(5, dec.certificate)[3:] == [1, 1]
    dec = factor_decide(g, [one] * 5)
    assert (dec.verdict, dec.method) == (NOT_EXISTS, "parity")


def test_factor_decide_against_subset_enumeration():
    # A random degree set per vertex on random graphs with at most 10 edges.
    rng = random.Random(1988)
    found = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.randint(0, min(10, n * (n - 1) // 2)), rng)
        allowed = [FactorSpec(tuple(rng.sample(range(5), rng.randint(1, 3)))) for _ in range(n)]
        dec = factor_decide(g, allowed)
        fits = lambda edges: all(d in a for d, a in zip(subgraph_degrees(n, edges), allowed))
        want = any(fits([g.edges[i] for i in range(g.m) if mask >> i & 1]) for mask in range(1 << g.m))
        assert dec.exists == want, (g.edges, allowed)
        if dec.exists:
            assert set(dec.certificate) <= set(g.edges) and fits(dec.certificate)
        found[want] += 1
    assert min(found.values()) > 50


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
        assert dec.exists == (-1 not in mate)
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
    # Exact targets against the d - f core gadget, on seeded random graphs up
    # to 40 vertices and on the atlas graphs (at most 7 vertices): a factor is
    # found exactly when the reference finds one, and every certificate, the
    # greedy pass's and the smaller-side gadget's, has exactly the targets.
    rng = random.Random(1954)
    found = {True: 0, False: 0}
    draws = itertools.cycle(("copies", "cores", "ties", "mixed"))
    randoms = (random_graph(n, rng.randint(0, min(n * (n - 1) // 2, 3 * n)), rng)
               for n in (rng.randint(1, 40) for _ in range(400)))
    for g in itertools.chain(randoms, _atlas_graphs()):
        targets = _gadget_targets(rng, g, next(draws))
        edges = solver._prescribed_factor_edges(g, targets)
        greedy = solver._greedy_factor_edges(g, targets)
        assert (edges is not None) == (reference_prescribed_factor_edges(g, targets) is not None)
        for certificate in (edges, greedy):
            if certificate is not None:
                assert set(certificate) <= set(g.edges)
                assert subgraph_degrees(g.n, certificate) == targets, (g.edges, targets)
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
    # has. The exact windows alone are every target vector, 3,194 cases, and
    # go through the greedy first, as the search sends them; other windows
    # go straight to the gadget.
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
                if highs == lows:
                    edges = solver._prescribed_factor_edges(g, lows)
                else:
                    edges = solver._gadget_factor_edges(g, lows, highs, mixed)
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
    assert dec.verdict == NOT_EXISTS and dec.exists is False
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
    assert dec.exists is None  # no answer, not a "no"
    full = h_factor_decide(g, FactorSpec.of(1, 2))
    assert full.verdict in (EXISTS, NOT_EXISTS)
    assert full.exists is (full.verdict == EXISTS)


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
    # The hubs and their shared blocks form the root block, and each other
    # block is queried once per degree its hub can take in it: 46 and 58
    # nodes, well inside the budget.
    g = build_g2(r).graph
    spec = FactorSpec.complementary(k, r)
    dec = h_factor_decide(g, spec, budget=1000)
    assert dec.verdict == EXISTS and verify_factor(g, dec.certificate, spec)


@pytest.mark.parametrize("r, nodes", [(18, 27), (26, 39), (34, 51), (42, 63)])
def test_g1_root_blocks_need_no_matching(monkeypatch, r, nodes):
    # Under {r/2} and {r/2 - 2, r/2 + 2}, every exact target the search asks
    # of G1(r) is met by the greedy factor and its length-3 repairs, so no
    # gadget is matched and the search explores the same nodes.
    calls = []
    real = solver.perfect_matching

    def spy(n, adj):
        calls.append(n)
        return real(n, adj)

    monkeypatch.setattr(solver, "perfect_matching", spy)
    g = build_g1(r).graph
    for spec in (FactorSpec.of(r // 2), FactorSpec.of(r // 2 - 2, r // 2 + 2)):
        assert h_factor_decide(g, spec).nodes_explored == nodes
    assert calls == []


def test_branching_refutes_a_feasible_hull(monkeypatch):
    # K_{2,4} under {1,4}: the four leaves take one edge each, so the hub
    # degrees sum to 4, which neither 1 + 3, 2 + 2 nor 4 + 0 is. The hull
    # (hubs anywhere in 1..4) is feasible, so the search branches at a hub
    # that lands in the gap: five nodes, each hull infeasible or in a gap.
    # A lower child keeps every lowest candidate, so it inherits the failed
    # all-1 gadget instead of matching it again, and prunes when its hull is
    # that gadget: one all-1 build of at most four.
    builds = []
    real = solver._gadget_factor_edges

    def spy(g, lows, highs=None, mixed=()):
        builds.append((tuple(lows), tuple(lows if highs is None else highs)))
        return real(g, lows, highs, mixed)

    monkeypatch.setattr(solver, "_gadget_factor_edges", spy)
    g = Graph(6, tuple((leaf, hub) for leaf in range(4) for hub in (4, 5)))
    dec = h_factor_decide(g, FactorSpec.of(1, 4))
    assert (dec.verdict, dec.method, dec.nodes_explored) == (NOT_EXISTS, "exhausted-assignments", 5)
    assert builds.count(((1,) * 6, (1,) * 6)) == 1 and len(builds) <= 4
    assert not brute_force_h_factor(g, FactorSpec.of(1, 4)).exists


def test_h_factor_negative_budget_is_an_error():
    g = build_g1(6).graph
    with pytest.raises(ValueError, match="budget"):
        h_factor_decide(g, FactorSpec.of(1, 5), budget=-1)
    with pytest.raises(TypeError):
        h_factor_decide(g, FactorSpec.of(1, 5), budget=2.5)


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
    # cut degree instead of once per cross-edge subset, and when the search
    # became one pass over one block decomposition.
    assert _decisions_digest(_family_decisions(), certificates=False) == (
        "446f09057c9330f6dc343772cff2de8e9a8b24124fe773b6e836d0f1606a2808"
    )


def test_family_decisions_pinned():
    # Verdicts, methods, certificates and node counts; re-derived when the
    # gadget took the smaller side at each vertex, which finds other factors,
    # when sides were queried once per cut degree, when the search became
    # one pass over one block decomposition, and when exact targets tried a
    # greedy factor with length-3 repairs before the gadget.
    assert _decisions_digest(_family_decisions(), certificates=True) == (
        "bc4fbb6c3eccc8ab745d2489034a5c30576ab5dc0b538645c37fd8c0f31b8a47"
    )


def test_block_tree_verdicts_pinned():
    # Re-derived when blocks were decided by branch and bound: node counts
    # moved under {1,2} and {2,3}, where a block's hull finds a factor the
    # first assignment misses, again when sides were queried once per cut
    # degree, when the search became one pass over one block decomposition,
    # and when each child block was folded into its cut vertex's candidates,
    # so later siblings skip degrees that no candidate can use.
    assert _decisions_digest(_block_tree_decisions(), certificates=False) == (
        "cc036e5c4c922bea8463b4fa4b4b5cdb42466c4bb9ea506a2bd9f5235b546672"
    )


def test_block_tree_decisions_pinned():
    # Deep cut structure that the families and the n <= 5 census never reach;
    # re-derived for the smaller-side gadget, again with the verdict pin, when
    # endpoints listed their gadget first, which finds other factors, when
    # sides were queried once per cut degree, when the search became one
    # pass over one block decomposition, when child blocks were folded into
    # their cut vertex's candidates, and when exact targets tried a greedy
    # factor with length-3 repairs before the gadget.
    assert _decisions_digest(_block_tree_decisions(), certificates=True) == (
        "f8dcd63c236f33b0d1019368656bbb2f09bd73fafef8e6891c083011e17c1214"
    )


def _spy_on_decomposition(monkeypatch):
    """Record each block decomposition and each induced vertex set that a
    graph's block-cut tree asks for."""
    calls: dict[str, list] = {"blocks": [], "induced": []}
    real_blocks, real_induced = graph_module.biconnected_blocks, graph_module.induced_subgraph

    def blocks(g):
        calls["blocks"].append((g.n, g.edges))
        return real_blocks(g)

    def induced(g, vertices):
        vertices = tuple(vertices)
        calls["induced"].append((g.n, g.edges, vertices))
        return real_induced(g, vertices)

    monkeypatch.setattr(graph_module, "biconnected_blocks", blocks)
    monkeypatch.setattr(graph_module, "induced_subgraph", induced)
    return calls


def _piece_ids(g):
    return {p for p, _ in g._block_tree[3]}


def test_one_decomposition_induces_each_block_once(monkeypatch):
    # G1(14) is seven blocks that share the hub: one decomposition per
    # graph, and each block induced once rather than once per query, so
    # there are more queries than inductions. The graph keeps its block-cut
    # tree, so a second decision and Theorem 2 on it decompose nothing.
    calls = _spy_on_decomposition(monkeypatch)
    g = build_g1(14).graph
    dec = h_factor_decide(g, FactorSpec.of(1, 13))
    assert dec.verdict == NOT_EXISTS and dec.nodes_explored > len(calls["induced"])
    assert len(calls["blocks"]) == 1
    assert len(calls["induced"]) == len(set(calls["induced"])) == 7
    assert h_factor_decide(g, FactorSpec.of(1, 13)) == dec
    assert verify_theorem2(g) is True
    assert len(calls["blocks"]) == 1 and len(calls["induced"]) == 7
    # Equal blocks share one piece: G1(14)'s seven blocks are one shape and
    # G2(12)'s eleven blocks are two.
    assert len(_piece_ids(g)) == 1
    g2 = build_g2(12).graph
    assert (len(g2._block_tree[0]), len(_piece_ids(g2))) == (11, 2)


def test_long_path_is_one_pass(monkeypatch):
    # P_3200 is 3,199 blocks in one chain: each is induced once, and each but
    # the root is queried once per degree its attachment can take in it. The
    # blocks are all one edge, one piece, and a second decision reuses them.
    calls = _spy_on_decomposition(monkeypatch)
    g = path_graph(3200)
    spec = FactorSpec.of(1, 2)
    dec = h_factor_decide(g, spec)
    assert dec.exists and verify_factor(g, dec.certificate, spec)
    assert dec.nodes_explored <= 2 * g.n
    assert len(calls["blocks"]) == 1 and len(calls["induced"]) <= g.n - 1
    assert len(_piece_ids(g)) == 1
    induced = len(calls["induced"])
    assert h_factor_decide(g, FactorSpec.of(1)).exists
    assert len(calls["blocks"]) == 1 and len(calls["induced"]) == induced


def test_search_does_not_depend_on_block_order(monkeypatch):
    # Each component's root and its blocks' attachments come from the blocks
    # themselves, not from their place in the decomposition's list, so a
    # shuffled list gives the same verdicts. Node counts and certificates may
    # differ: child blocks fold into their cut vertex in another order. The
    # shuffled round decides fresh copies, which build their own block-cut
    # trees from the shuffled lists instead of reusing the first round's.
    cases = [(build(r).graph, FactorSpec.complementary(k, r))
             for build, degrees in ((build_g1, (6, 10, 14)), (build_g2, (8, 12)))
             for r in degrees for k in range(r // 2 + 1)]
    rng = random.Random(1980)
    for _ in range(150):
        n = rng.randint(2, 16)
        g = random_graph(n, rng.randint(n // 2, min(2 * n, n * (n - 1) // 2)), rng)
        cases += [(g, FactorSpec.of(*s)) for s in ((1,), (1, 3), (1, 2), (0, 2))]
    verdicts = [h_factor_decide(g, spec).verdict for g, spec in cases]
    real_blocks = graph_module.biconnected_blocks
    shuffled = set()

    def shuffled_blocks(g):
        blocks = real_blocks(g)
        rng.shuffle(blocks)
        shuffled.add((g.n, g.edges))
        return blocks

    monkeypatch.setattr(graph_module, "biconnected_blocks", shuffled_blocks)
    for (g, spec), verdict in zip(cases, verdicts):
        fresh = Graph(g.n, g.edges)
        dec = h_factor_decide(fresh, spec)
        assert dec.verdict == verdict, (g.n, g.edges, spec.allowed)
        assert not dec.exists or verify_factor(g, dec.certificate, spec)
    # Every graph has a spec ({0, r} or {0, 2}) that gets past the parity and
    # clipping exits to the block search.
    assert shuffled == {(g.n, g.edges) for g, _ in cases}


def test_threads_share_one_lazily_decomposed_graph():
    # A graph fills its block-cut tree on first use. Four threads deciding on
    # one fresh G1(10) at once agree with a sequential run on another fresh
    # copy, and the filled graph still equals, hashes, prints and pickles as
    # the value it was.
    specs = [FactorSpec.complementary(k, 10) for k in (1, 2, 3, 4)]
    g = build_g1(10).graph
    copy = Graph(g.n, g.edges)
    expected = [h_factor_decide(copy, spec) for spec in specs]
    barrier = threading.Barrier(len(specs))
    results: list = [None] * len(specs)

    def decide(i):
        barrier.wait(timeout=60)
        results[i] = h_factor_decide(g, specs[i])

    threads = [threading.Thread(target=decide, args=(i,)) for i in range(len(specs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
    assert "_block_tree" in vars(g)
    assert g == copy and hash(g) == hash(copy) and repr(g) == repr(copy)
    assert pickle.loads(pickle.dumps(g)) == g


def test_decided_graph_is_freed_by_its_last_reference():
    # The block-cut tree a graph keeps does not refer back to the graph, so
    # dropping the graph frees it at once, with the cycle collector off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for build in (lambda: circulant_graph(12, (1, 2)), lambda: build_g1(6).graph):
            g = build()
            assert h_factor_decide(g, FactorSpec.of(0, 2)).exists
            ref = weakref.ref(g)
            del g
            assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_memo_tells_equal_sized_pieces_apart():
    # Hub 0 with a pendant 9, a path 1-2-3-4 and a star centred at 5 whose
    # leaf 6 meets the hub. Both 4-vertex sides see the same candidates,
    # but only the path has a perfect matching, so the memo must key on the
    # piece and not only on its size.
    g = Graph(10, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 6), (5, 6), (5, 7), (5, 8), (0, 9)))
    assert h_factor_decide(g, FactorSpec.of(1)).verdict == NOT_EXISTS
    assert not brute_force_h_factor(g, FactorSpec.of(1)).exists

def _windmill(k: int) -> Graph:
    """k triangles sharing vertex 0."""
    return Graph(2 * k + 1, tuple(e for t in range(1, k + 1)
                                  for e in ((0, 2 * t - 1), (0, 2 * t), (2 * t - 1, 2 * t))))


def _star(k: int) -> Graph:
    return Graph(k + 1, tuple((0, leaf) for leaf in range(1, k + 1)))


def test_fold_at_a_vertex_with_many_child_blocks():
    # Vertex 0 holds k blocks, so k - 1 of them are folded into its
    # candidates one after another and unfolded in reverse: 340 decisions.
    for k in range(1, 6):
        specs = CENSUS_SPECS + [FactorSpec.of(1, k), FactorSpec.of(2, 2 * k), FactorSpec.of(0, 1, k)]
        for g in (_windmill(k), _star(k)):
            for spec in specs:
                dec = h_factor_decide(g, spec)
                assert dec.exists == brute_force_h_factor(g, spec).exists, (g.edges, spec)
                assert dec.verdict != INCONCLUSIVE
                if dec.exists:
                    assert verify_factor(g, dec.certificate, spec)


@pytest.mark.parametrize("allowed, nodes", [((0, 1, 800), 1601), ((1, 800), 1600)])
def test_star_folds_800_child_blocks(allowed, nodes):
    # K_{1,800} is 800 blocks on the hub: the root is one of them, each other
    # is queried at hub degrees 0 and 1, and the equal leaf blocks share two
    # memo entries, so the search is two nodes per leaf block plus the root.
    g = _star(800)
    spec = FactorSpec(allowed)
    dec = h_factor_decide(g, spec)
    assert (dec.verdict, dec.nodes_explored) == (EXISTS, nodes)
    assert verify_factor(g, dec.certificate, spec)
    if allowed == (1, 800):
        assert dec.certificate == g.edges


def test_deep_block_cut_tree_needs_no_recursion():
    # P_300 is 299 blocks in one chain, 298 levels below the root, and the
    # pass over them is flat loops.
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
def _all_atlas_graphs() -> tuple[Graph, ...]:
    """Every graph of the networkx atlas: all graphs on at most 7 vertices, up
    to isomorphism."""
    nx = pytest.importorskip("networkx")
    return tuple(Graph(h.number_of_nodes(), tuple(h.edges())) for h in nx.graph_atlas_g())


def _atlas_graphs() -> tuple[Graph, ...]:
    """The atlas graphs with at most 15 edges, so brute force stays cheap."""
    return tuple(g for g in _all_atlas_graphs() if g.m <= 15)


ATLAS_SPECS = [(1,), (2,), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5)]


@pytest.mark.parametrize("allowed", ATLAS_SPECS, ids=lambda allowed: ",".join(map(str, allowed)))
def test_atlas_census_against_brute_force(allowed):
    # Specs with 0 are left out: the all-0 first assignment decides them at
    # once. Gaps of 2 or more make the search branch. The backtracking oracle
    # must agree with brute force here to stand in for it on denser graphs.
    spec = FactorSpec(allowed)
    graphs = _atlas_graphs()
    assert len(graphs) == 1_213
    for g in graphs:
        fast = h_factor_decide(g, spec)
        slow = brute_force_h_factor(g, spec)
        oracle = backtrack_factor(g, allowed)
        assert fast.verdict != INCONCLUSIVE
        assert fast.exists == slow.exists == (oracle is not None), (g.n, g.edges, spec)
        for dec in (fast, slow):
            if dec.exists:
                assert verify_factor(g, dec.certificate, spec)
        if oracle is not None:
            assert verify_factor(g, oracle, spec)


@pytest.mark.parametrize("allowed", ATLAS_SPECS, ids=lambda allowed: ",".join(map(str, allowed)))
def test_dense_atlas_census_against_backtracking(allowed):
    # The 40 atlas graphs with 16-21 edges, where brute force would try up to
    # 2^21 edge subsets per decision.
    spec = FactorSpec(allowed)
    graphs = [g for g in _all_atlas_graphs() if g.m > 15]
    assert len(graphs) == 40
    for g in graphs:
        dec = h_factor_decide(g, spec)
        assert dec.exists is (backtrack_factor(g, allowed) is not None), (g.n, g.edges, spec)
        if dec.exists:
            assert verify_factor(g, dec.certificate, spec)


@pytest.mark.parametrize("q", [12, 18, pytest.param(24, marks=pytest.mark.slow)])
def test_exact_cover_corpus_against_dfs(q):
    # Exact cover by 3-sets, each element in three sets, in two forms: with a
    # pendant leaf per set under {1,4}, and directly with elements at {1} and
    # sets at {0,3}. Both must answer as the exact-cover search does.
    spec = FactorSpec.of(1, 4)
    answers = set()
    for seed in range(10):
        sets = x3c_sets(q, random.Random(seed))
        want = exact_cover_exists(q, sets)
        answers.add(want)
        pendant = x3c_graph(q, sets, pendants=True)
        dec = h_factor_decide(pendant, spec)
        assert dec.exists is want, (q, seed)
        if dec.exists:
            assert verify_factor(pendant, dec.certificate, spec)
        direct = x3c_graph(q, sets, pendants=False)
        allowed = [FactorSpec.of(1)] * q + [FactorSpec.of(0, 3)] * q
        dec = factor_decide(direct, allowed)
        assert dec.exists is want, (q, seed)
        if dec.exists:
            assert set(dec.certificate) <= set(direct.edges)
            assert all(d in a for d, a in zip(subgraph_degrees(direct.n, dec.certificate), allowed))
    # Every draw at q = 24 is a no-instance; the smaller q give both answers.
    assert answers == ({False} if q == 24 else {False, True})


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


def test_odd_regular_k_factors_from_a_perfect_matching():
    # Petersen (1891): an r-regular graph, r odd, with a perfect matching M
    # has a k-factor for every 0 <= k <= r, namely M (odd k only) with k // 2
    # of the 2-factors that split the (r - 1)-regular G - M.
    rng = random.Random(1891)
    hosts = [random_regular_graph(n, r, rng) for r in (3, 5) for n in (8, 10, 12, 14, 16)]
    hosts += [circulant_graph(n, (*offsets, n // 2))
              for n in (12, 16, 20) for offsets in ((1, 2, 3), (1, 3, 5), (1, 2, 3, 4), (1, 3, 4, 5))]
    checked = 0
    for g in hosts:
        r = g.degree(0)
        matching = f_factor_decide(g, [1] * g.n)
        if not matching.exists:
            continue
        rest = Graph(g.n, tuple(set(g.edges) - set(matching.certificate)))
        for k in range(r + 1):
            factor = even_k_factor(rest, k - k % 2) + (matching.certificate if k % 2 else ())
            assert verify_factor(g, factor, FactorSpec.of(k)), (g.edges, k)
            assert f_factor_decide(g, [k] * g.n).exists is True
        checked += 1
    assert {h.degree(0) for h in hosts} == {3, 5, 7, 9}
    assert checked >= 20


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


def _double(n, arcs):
    """The in/out bipartite double's lists, appended in the order of arcs."""
    adj = [[] for _ in range(2 * n)]
    for u, v in arcs:
        adj[u].append(n + v)
        adj[n + v].append(u)
    return adj


def test_euler_orientation_matches_reference_arcs(monkeypatch):
    # Canonical edge order appends the lists that sorting the reference's
    # arcs does, so the doubles, and the mates found on them, are identical.
    doubles = []
    match = solver.perfect_matching

    def spy(n, adj):
        doubles.append([list(a) for a in adj])
        return match(n, adj)

    monkeypatch.setattr(solver, "perfect_matching", spy)
    rng = random.Random(1891)
    hosts = [random_even_graph(rng, 14) for _ in range(600)]
    assert any(not is_connected(g) for g in hosts)
    assert any(0 in g.degrees() and g.m for g in hosts)
    for g in hosts + LARGE_CIRCULANTS:
        flags, reference = solver._euler_orientation(g.n, g.edges), reference_euler_arcs(g.n, g.edges)
        arcs = [(v, u) if backward else (u, v) for (u, v), backward in zip(g.edges, flags)]
        assert sorted(arcs) == sorted(reference)
        assert _double(g.n, arcs) == _double(g.n, sorted(reference))
    for g in LARGE_CIRCULANTS:
        next(solver._two_factors(g, 1))
        assert doubles.pop() == _double(g.n, sorted(reference_euler_arcs(g.n, g.edges)))


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
