"""Small deterministic graph generators for corpora and cross-checks."""

from __future__ import annotations

import itertools
import random

from .graph import Graph, is_connected, regularity


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def circulant_graph(n: int, offsets: tuple[int, ...]) -> Graph:
    """Vertices 0..n-1 with i adjacent to i +/- s (mod n) for each offset s.

    Offsets must lie in 1..n//2; the offset n/2 contributes single edges.
    """
    edges = set()
    for s in offsets:
        if not 1 <= s <= n // 2:
            raise ValueError(f"offset {s} outside 1..{n // 2}")
        for i in range(n):
            j = (i + s) % n
            edges.add((i, j) if i < j else (j, i))
    return Graph(n, tuple(edges))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform simple graph with exactly m edges."""
    pairs = list(itertools.combinations(range(n), 2))
    if m > len(pairs):
        raise ValueError(f"at most {len(pairs)} edges fit on {n} vertices")
    return Graph(n, tuple(rng.sample(pairs, m)))


def random_regular_graph(n: int, r: int, rng: random.Random) -> Graph:
    """Random connected simple r-regular graph via the pairing model with
    rejection: retries until the paired stubs give a simple connected graph;
    n * r must be even.
    """
    if r < 0:
        raise ValueError(f"degree must be nonnegative, got r={r}")
    if (n * r) % 2 == 1:
        raise ValueError(f"no {r}-regular graph on {n} vertices: n*r is odd")
    if r >= n:
        raise ValueError(f"need r < n for a simple graph, got r={r}, n={n}")
    if r < 2 and n > r + 1:
        raise ValueError(f"no connected {r}-regular graph has {n} vertices")
    for _ in range(10000):
        stubs = [v for v in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        try:  # Graph rejects a self-loop or a repeated pair
            g = Graph(n, tuple(zip(stubs[::2], stubs[1::2])))
        except ValueError:
            continue
        if not is_connected(g):
            continue
        assert regularity(g) == r
        return g
    raise RuntimeError(f"pairing model failed to produce a {r}-regular graph on {n} vertices")
