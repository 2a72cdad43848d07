"""The graph builders the benchmark draws its corpora from: seeded uniform
random graphs and circulants."""

from __future__ import annotations

import itertools
import random

from .graph import Graph


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


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform simple graph with exactly m edges."""
    pairs = list(itertools.combinations(range(n), 2))
    if m > len(pairs):
        raise ValueError(f"at most {len(pairs)} edges fit on {n} vertices")
    return Graph(n, tuple(rng.sample(pairs, m)))
