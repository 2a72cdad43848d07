"""Simple undirected graphs on dense integer vertex ids.

Graph values are immutable after construction and safe to share between
threads; every operation in this module is a pure function of its inputs.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Edges are canonicalized to a sorted tuple of (u, v) pairs with u < v, so
    equal graphs compare and hash equal and serialized output is byte-stable.
    Construction rejects out-of-range endpoints, self-loops, and duplicate
    edges (in either orientation) instead of collapsing them silently.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        seen: set[tuple[int, int]] = set()
        canonical: list[tuple[int, int]] = []
        for pair in self.edges:
            u, v = int(pair[0]), int(pair[1])
            if not (0 <= u < self.n) or not (0 <= v < self.n):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{self.n - 1}"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            edge = (u, v) if u < v else (v, u)
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
            canonical.append(edge)
        canonical.sort()
        object.__setattr__(self, "edges", tuple(canonical))
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in canonical:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degree profile; sums to 2*m."""
        return tuple(len(a) for a in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u] if 0 <= u < self.n else False

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


def from_edges(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from a vertex count and unordered vertex pairs."""
    return Graph(n, tuple((p[0], p[1]) for p in pairs))


def regularity(g: Graph) -> int | None:
    """Return r if every vertex has degree r, else None.

    The empty edge set on n >= 1 vertices is 0-regular; the graph on zero
    vertices has no degree and returns None.
    """
    if g.n == 0:
        return None
    degs = g.degrees()
    r = degs[0]
    return r if all(d == r for d in degs) else None


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    """True iff the graph has at most one connected component."""
    if g.n <= 1:
        return True
    return len(connected_components(g)) == 1


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose deletion disconnects the graph.

    The minimum degree delta bounds it. Below delta, each side of a minimum
    cut has a vertex with no neighbour across the cut (Matula 1987), so any
    dominating set D meets both sides, and |D|-1 unit-capacity max flows
    from D[0], of at most delta augmentations each, find the cut. A
    disconnected graph has edge connectivity 0. Requires n >= 2.
    """
    if g.n < 2:
        raise ValueError("edge connectivity is defined for graphs with n >= 2")
    if not is_connected(g):
        return 0
    best = min(g.degrees())
    if best == 0:
        return 0
    # Arcs 2i (u -> v) and 2i+1 (v -> u) for edge i = (u, v): the reverse of
    # arc a is a ^ 1. Sorted edges keep each arcs_of list in neighbor order.
    head = [w for u, v in g.edges for w in (v, u)]
    arcs_of: list[list[int]] = [[] for _ in range(g.n)]
    for a in range(len(head)):
        arcs_of[head[a ^ 1]].append(a)
    # Greedy by coverage, ties to the smallest id; a stale gain only overstates.
    uncovered = set(range(g.n))
    heap = [(-1 - g.degree(v), v) for v in range(g.n)]
    heapq.heapify(heap)
    dominating: list[int] = []
    while uncovered:
        neg_gain, v = heapq.heappop(heap)
        fresh = uncovered.intersection((v, *g.neighbors(v)))
        if len(fresh) < -neg_gain:
            heapq.heappush(heap, (-len(fresh), v))
        else:
            dominating.append(v)
            uncovered -= fresh
    for t in dominating[1:]:
        # The flow never exceeds its cutoff, and is >= 1 on a connected graph.
        best = _unit_max_flow(head, arcs_of, dominating[0], t, cutoff=best)
    return best


def _unit_max_flow(head: list[int], arcs_of: list[list[int]], s: int, t: int, cutoff: int) -> int:
    # Undirected unit capacities: both arcs of an edge start with residual 1.
    # BFS augmenting paths (Edmonds-Karp); stops early at `cutoff`.
    residual = [1] * len(head)
    flow = 0
    while flow < cutoff:
        # via[w] is the arc that reached w; s is marked with a non-arc value.
        via = [-1] * len(arcs_of)
        via[s] = -2
        queue = deque([s])
        while queue and via[t] == -1:
            v = queue.popleft()
            for a in arcs_of[v]:
                w = head[a]
                if via[w] == -1 and residual[a] > 0:
                    via[w] = a
                    queue.append(w)
        if via[t] == -1:
            break
        v = t
        while v != s:
            a = via[v]
            residual[a] -= 1
            residual[a ^ 1] += 1
            v = head[a ^ 1]
        flow += 1
    return flow


def articulation_points(g: Graph) -> list[int]:
    """Cut vertices of the graph, ascending (iterative lowlink DFS)."""
    disc = [-1] * g.n
    low = [0] * g.n
    cut = [False] * g.n
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, parent, idx = stack.pop()
            if idx == 0:
                disc[v] = low[v] = timer
                timer += 1
            nbrs = g.neighbors(v)
            if idx < len(nbrs):
                stack.append((v, parent, idx + 1))
                w = nbrs[idx]
                if w == parent:
                    continue
                if disc[w] != -1:
                    low[v] = min(low[v], disc[w])
                else:
                    if v == root:
                        root_children += 1
                    stack.append((w, v, 0))
            else:
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if parent != root and low[v] >= disc[parent]:
                        cut[parent] = True
        if root_children >= 2:
            cut[root] = True
    return [v for v in range(g.n) if cut[v]]


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph relabeled to 0..k-1.

    Returns (subgraph, order) where order[i] is the original id of the new
    vertex i; vertices are taken in ascending original id order.
    """
    order = sorted(set(vertices))
    index = {v: i for i, v in enumerate(order)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph(len(order), tuple(edges)), order
