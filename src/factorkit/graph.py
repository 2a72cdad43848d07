"""Simple undirected graphs on dense integer vertex ids.

Graph values are immutable after construction and every operation in this
module is a pure function of its inputs. A graph fills in its components and
block-cut tree on first use and keeps them; values stay safe to share between
threads, as two threads that race to fill one only store equal values.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
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
        # A dict keeps the input order, which callers mostly give near-sorted,
        # so the sort below runs in near-linear time; a set's order would not.
        seen: dict[tuple[int, int], None] = {}
        for pair in self.edges:
            u, v = operator.index(pair[0]), operator.index(pair[1])
            if not (0 <= u < self.n) or not (0 <= v < self.n):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{self.n - 1}"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            edge = (u, v) if u < v else (v, u)
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen[edge] = None
        self._freeze(tuple(sorted(seen)))

    @classmethod
    def _canonical(cls, n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
        """A graph from edges already canonical (sorted, u < v, in range, no
        repeats), as derived inside the package: no re-validation."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        g._freeze(edges)
        return g

    def _freeze(self, edges: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "edges", edges)
        # Appending in canonical order builds each list ascending: v's smaller
        # neighbours come from edges (u, v), which all sort before v's (v, w).
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))

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

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """connected_components(self), computed once and kept apart from the
        block-cut tree, which a decision settled by parity never builds."""
        return tuple(map(tuple, connected_components(self)))

    @cached_property
    def _block_tree(self) -> tuple[tuple, tuple, tuple, tuple]:
        """(blocks, order, attach, pieces), computed once. blocks are sorted
        vertex tuples. Each component is rooted at its largest block, the
        lowest index among equals; breadth first from the roots, every other
        block i hangs from cut vertex attach[i] (-1 at a root), and order
        lists each block before the blocks below it, whatever order the
        blocks are listed in. pieces[i] is (piece id, the graph block i
        induces, whose vertex j is blocks[i][j]): blocks that induce equal
        graphs share one piece. A block spanning the graph is the graph, held
        as None: a graph in its own cache would wait for the cycle collector."""
        blocks = [tuple(b) for b in biconnected_blocks(self)]
        if len(blocks) == 1 and len(blocks[0]) == self.n:
            return tuple(blocks), (0,), (-1,), ((0, None),)
        blocks_of: list[list[int]] = [[] for _ in range(self.n)]
        for i, block in enumerate(blocks):
            for v in block:
                blocks_of[v].append(i)
        order = [min({i for v in comp for i in blocks_of[v]}, key=lambda i: (-len(blocks[i]), i))
                 for comp in self._components if blocks_of[comp[0]]]
        attach = [-1] * len(blocks)
        for i in order:
            for v in blocks[i]:
                if v != attach[i]:
                    for j in blocks_of[v]:
                        if j != i:
                            attach[j] = v
                            order.append(j)
        shapes: dict[tuple, tuple[int, Graph]] = {}
        pieces = []
        for block in blocks:
            sub = induced_subgraph(self, block)
            pieces.append(shapes.setdefault((sub.n, sub.edges), (len(shapes), sub)))
        return tuple(blocks), tuple(order), tuple(attach), tuple(pieces)


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


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[list[int]]:
    """Connected components of g minus the removed vertices, in g's own ids,
    as sorted vertex lists ordered by least vertex."""
    seen = [False] * g.n
    for v in removed:
        if not 0 <= v < g.n:
            raise ValueError(f"removed vertices must lie in 0..{g.n - 1}")
        seen[v] = True
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    """True iff the graph has at most one connected component."""
    return len(g._components) <= 1


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose deletion disconnects the graph.

    The minimum degree delta bounds it. Below delta, each side of a minimum
    cut has a vertex with no neighbour across the cut (Matula 1987), so any
    dominating set D meets both sides. The i-th of |D|-1 unit-capacity max
    flows, cut off at the best value so far, runs from the grown source set
    {D[0], ..., D[i-1]} to D[i] (Matula 1987; Hao-Orlin 1994): the first
    D[i] across a minimum cut from D[0] has every earlier member on D[0]'s
    side, so its flow is that cut, and every flow is at least the edge
    connectivity.

    D is greedy by coverage: gain[v] counts v's uncovered closed neighbours
    and drops as they get covered, so a heap entry is checked in O(1). Each
    flow augments one depth-first path at a time, in O(cutoff * m); every
    flow shares one residual list and restores the arcs it used. No
    connectivity pass runs first: on a disconnected graph the first D[i]
    outside D[0]'s component gets flow 0, and a graph with an isolated vertex
    has delta = 0, which cuts every flow off at 0. Requires n >= 2.
    """
    if g.n < 2:
        raise ValueError("edge connectivity is defined for graphs with n >= 2")
    best = min(g.degrees())
    # Arcs 2i (u -> v) and 2i+1 (v -> u) for edge i = (u, v): the reverse of
    # arc a is a ^ 1. Sorted edges keep each arcs_of list in neighbor order.
    head = [w for u, v in g.edges for w in (v, u)]
    arcs_of: list[list[int]] = [[] for _ in range(g.n)]
    for a in range(len(head)):
        arcs_of[head[a ^ 1]].append(a)
    # Greedy by coverage, ties to the smallest id; a stale entry only overstates.
    gain = [1 + g.degree(v) for v in range(g.n)]
    covered = [False] * g.n
    uncovered = g.n
    heap = [(-gain[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    dominating: list[int] = []
    while uncovered:
        neg_gain, v = heapq.heappop(heap)
        if gain[v] < -neg_gain:
            heapq.heappush(heap, (-gain[v], v))
            continue
        dominating.append(v)
        for u in (v, *g.neighbors(v)):
            if not covered[u]:
                covered[u] = True
                uncovered -= 1
                gain[u] -= 1
                for w in g.neighbors(u):
                    gain[w] -= 1
    residual = [1] * len(head)
    source = [False] * g.n
    for s, t in zip(dominating, dominating[1:]):
        source[s] = True
        best = _unit_max_flow(head, arcs_of, residual, source, t, cutoff=best)
    return best


def _unit_max_flow(
    head: list[int], arcs_of: list[list[int]], residual: list[int], source: list[bool], t: int, cutoff: int
) -> int:
    # Undirected unit capacities: both arcs of an edge have residual 1 on entry,
    # and again on return. Augmenting paths (Ford-Fulkerson 1956), each found
    # by one depth-first search backwards from t that stops at the first
    # source it reaches, so no source is interior to a path. A search visits
    # each vertex once, under its own stamp, so it costs O(m), and at most
    # `cutoff` paths succeed before the flow stops: O(cutoff * m) per flow.
    seen = [0] * len(arcs_of)
    used: list[int] = []  # arcs augmented along, restored on return
    flow = 0
    while flow < cutoff:
        seen[t] = stamp = flow + 1
        path: list[int] = []  # arcs from each stacked vertex to the one below
        stack = [iter(arcs_of[t])]
        while stack:
            # Arc a leaves the top vertex; a ^ 1 enters it from head[a].
            for a in stack[-1]:
                w = head[a]
                if seen[w] != stamp and residual[a ^ 1]:
                    seen[w] = stamp
                    path.append(a ^ 1)
                    if source[w]:
                        stack.clear()
                    else:
                        stack.append(iter(arcs_of[w]))
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
        if not path:
            break
        for a in path:
            residual[a] -= 1
            residual[a ^ 1] += 1
        used += path
        flow += 1
    for a in used:
        residual[a] = residual[a ^ 1] = 1
    return flow


def biconnected_blocks(g: Graph) -> list[list[int]]:
    """Blocks (maximal biconnected subgraphs, bridges included) as sorted
    vertex lists; an isolated vertex lies in no block. One iterative lowlink
    DFS (Hopcroft-Tarjan 1973) per component, from its least vertex, lists a
    block when its top vertex finishes: after every block below it, so a
    component's blocks are consecutive and the last holds its least vertex.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    blocks: list[list[int]] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer = timer + 1
        visited = [root]
        # A frame holds v, its DFS parent, its neighbour iterator and v's place in visited.
        stack = [(root, -1, iter(g.neighbors(root)), 0)]
        while stack:
            v, parent, nbrs, at = stack[-1]
            for w in nbrs:
                if disc[w] == -1:
                    disc[w] = low[w] = timer = timer + 1
                    stack.append((w, v, iter(g.neighbors(w)), len(visited)))
                    visited.append(w)
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        blocks.append(sorted(visited[at:] + [parent]))
                        del visited[at:]
    return blocks


def articulation_points(g: Graph) -> list[int]:
    """Cut vertices, ascending: the vertices that lie in two or more blocks."""
    count = Counter(v for block in biconnected_blocks(g) for v in block)
    return sorted(v for v, k in count.items() if k >= 2)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the distinct chosen vertices, in O(sum of their
    degrees). New vertex i is the i-th smallest chosen id."""
    order = sorted(set(vertices))
    if order and not (0 <= order[0] and order[-1] < g.n):
        raise ValueError(f"induced vertices must lie in 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(order)}
    # Ascending ids and neighbour lists emit the pairs canonical: sorted, u < v.
    edges = tuple((i, index[w]) for i, v in enumerate(order) for w in g.neighbors(v) if w > v and w in index)
    return Graph._canonical(len(order), edges)
