"""Metamorphic relations: each turns a host and its per-vertex degree sets
into another whose answer must be the same, so they check verdicts on hosts
too large for the brute-force and backtracking oracles.

- complement: F is a factor under H(v) iff E minus F is one under
  {deg(v) - a : a in H(v)};
- relabelling: a seeded vertex permutation;
- disjoint union: a K2 whose two vertices take {1}, which must take its edge.

Each relation also maps a certificate of the new host back to one of the
original, and both are checked.
"""

import random

import pytest

from factorkit.constructions import build_g1, build_g2
from factorkit.graph import Graph
from factorkit.solver import FactorSpec, factor_decide, normalize_edges, subgraph_degrees, verify_factor

from oracles import random_block_tree, x3c_graph, x3c_sets


def complement(g, sets, rng):
    flipped = [FactorSpec(d - a for a in spec.allowed if a <= d) for spec, d in zip(sets, g.degrees())]
    return g, flipped, lambda cert: tuple(sorted(set(g.edges) - set(cert)))


def relabelling(g, sets, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    moved = [None] * g.n
    for v, spec in enumerate(sets):
        moved[perm[v]] = spec
    inverse = {p: v for v, p in enumerate(perm)}
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    return h, moved, lambda cert: normalize_edges((inverse[u], inverse[v]) for u, v in cert)


def with_k2(g, sets, rng):
    k2 = (g.n, g.n + 1)
    h = Graph(g.n + 2, g.edges + (k2,))

    def back(cert):
        assert k2 in cert
        return tuple(e for e in cert if e != k2)

    return h, list(sets) + [FactorSpec.of(1)] * 2, back


RELATIONS = (complement, relabelling, with_k2)


def assert_factor(g, sets, cert):
    if len(set(sets)) == 1:
        assert verify_factor(g, cert, sets[0])
    else:
        assert set(cert) <= g.edge_set()
        assert all(d in spec for d, spec in zip(subgraph_degrees(g.n, cert), sets))


def assert_relations_hold(g, sets, seed):
    """Every relation gives the original's verdict, and each `exists`
    certificate, mapped back or not, is a factor of its host."""
    want = factor_decide(g, sets)
    assert want.exists is not None
    if want.exists:
        assert_factor(g, sets, want.certificate)
    rng = random.Random(seed)
    for relation in RELATIONS:
        h, moved, back = relation(g, sets, rng)
        got = factor_decide(h, moved)
        assert got.exists == want.exists, relation.__name__
        if got.exists:
            assert_factor(h, moved, got.certificate)
            assert_factor(g, sets, back(got.certificate))


@pytest.mark.parametrize(
    "build,r", [(build_g1, 6), (build_g1, 10), (build_g1, 14), (build_g2, 8), (build_g2, 12)]
)
def test_family_hosts(build, r):
    g = build(r).graph
    for k in range(1, r // 2 + 1, 2):
        assert_relations_hold(g, [FactorSpec.complementary(k, r)] * g.n, seed=k)


@pytest.mark.parametrize("q", [12, 18])
def test_exact_cover_hosts(q):
    for seed in range(10):
        g = x3c_graph(q, x3c_sets(q, random.Random(seed)), pendants=True)
        assert_relations_hold(g, [FactorSpec.of(1, 4)] * g.n, seed)


def test_random_block_trees_with_random_sets():
    rng = random.Random(1998)
    for seed in range(200):
        g = random_block_tree(rng, 30)
        sets = [FactorSpec(rng.sample(range(d + 1), rng.randint(1, min(3, d + 1)))) for d in g.degrees()]
        assert_relations_hold(g, sets, seed)
