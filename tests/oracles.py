"""Independent brute-force oracles and tiny corpus builders for the tests.

The oracles are deliberately naive: straight enumeration with no shared
code paths into the solver, so agreement is meaningful evidence. The
exceptions are `reference_maximum_matching`, a frozen earlier version of the
matching that pins its exact search order,
`reference_prescribed_factor_edges`, the earlier d - f core gadget, which
runs the solver's matching engine on a gadget of its own, and
`reference_euler_arcs`, the earlier Euler orientation that built the vertex
path, which pins the solver's walk order. `exact_cover_exists` decides the
exact-cover instances that `x3c_sets` draws and `x3c_graph` turns into
factor questions. `backtrack_factor` decides a degree set by taking or
leaving each edge with pruning, on graphs whose 2^m edge subsets are too
many for brute force.

The corpus builders `complete_graph`, `cycle_graph`, `path_graph`,
`complete_bipartite_graph` and `random_regular_graph` are the tests' own;
the package keeps only the builders the benchmark runs.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Sequence

from factorkit import solver
from factorkit.graph import Graph, is_connected, regularity

# Outer 5-cycle, inner pentagram, spokes.
PETERSEN_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
)


def petersen() -> Graph:
    return Graph(10, PETERSEN_EDGES)


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


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


def brute_max_matching_size(n: int, edges: list[tuple[int, int]]) -> int:
    best = 0

    def rec(i: int, used: frozenset, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if i == len(edges):
            return
        u, v = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, size + 1)
        rec(i + 1, used, size)

    rec(0, frozenset(), 0)
    return best


def matching_size(mate: Sequence[int]) -> int:
    return sum(1 for v, u in enumerate(mate) if u > v)


def components_after_deleting(g: Graph, removed_edges: set, removed_vertices: set) -> int:
    seen = set(removed_vertices)
    count = 0
    for start in range(g.n):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                e = (v, w) if v < w else (w, v)
                if w not in seen and e not in removed_edges:
                    seen.add(w)
                    stack.append(w)
    return count


def brute_min_cut(g: Graph) -> int:
    """Smallest edge set whose removal disconnects g (0 if already so)."""
    if components_after_deleting(g, set(), set()) > 1:
        return 0
    for size in range(1, g.m + 1):
        for subset in itertools.combinations(g.edges, size):
            if components_after_deleting(g, set(subset), set()) > 1:
                return size
    return g.m  # complete disconnection is impossible without all edges gone


def brute_articulation_points(g: Graph) -> list[int]:
    base = components_after_deleting(g, set(), set())
    out = []
    for v in range(g.n):
        isolated = 1 if g.degree(v) == 0 else 0
        if components_after_deleting(g, set(), {v}) > base - isolated:
            out.append(v)
    return out


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def all_connected_graphs(max_n: int):
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            if is_connected(g):
                yield g


def backtrack_factor(g: Graph, allowed: Sequence[int]) -> list[tuple[int, int]] | None:
    """Edges of a spanning subgraph with every degree in allowed, or None:
    each edge in canonical order is taken, then left out, and a branch is
    cut as soon as an endpoint's degree so far plus its undecided edges can
    no longer reach an allowed degree."""
    degree = [0] * g.n
    undecided = list(g.degrees())
    taken = [0] * g.m

    def reachable(v: int) -> bool:
        return any(degree[v] <= a <= degree[v] + undecided[v] for a in allowed)

    def search(i: int) -> bool:
        if i == g.m:
            return True
        u, v = g.edges[i]
        undecided[u] -= 1
        undecided[v] -= 1
        for take in (1, 0):
            taken[i] = take
            degree[u] += take
            degree[v] += take
            if reachable(u) and reachable(v) and search(i + 1):
                return True
            degree[u] -= take
            degree[v] -= take
        undecided[u] += 1
        undecided[v] += 1
        return False

    if all(map(reachable, range(g.n))) and search(0):
        return [e for e, take in zip(g.edges, taken) if take]
    return None


# The blossom matching before contraction became blossom-local, copied
# unchanged apart from its name: each contraction sorts and scans the whole
# search tree. Mates must agree with factorkit.matching list for list.
def reference_maximum_matching(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Return mate[v] for a maximum matching; -1 marks exposed vertices.

    adj[v] lists the neighbors of v; the caller fixes the scan order (sorted
    neighbor lists give the reference deterministic behavior).
    """
    mate = [-1] * n
    # Greedy seed: cuts the number of augmentation phases substantially.
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    # The current search's tree: the only vertices whose state is not reset.
    tree: list[int] = []
    # mark[v] == stamp flags v in the current lca walk or blossom.
    mark = [0] * n
    stamp = 0

    def lca(a: int, b: int) -> int:
        nonlocal stamp
        stamp += 1
        x = base[a]
        while True:
            mark[x] = stamp
            if mate[x] == -1:
                break
            x = base[parent[mate[x]]]
        y = base[b]
        while mark[y] != stamp:
            y = base[parent[mate[y]]]
        return y

    def mark_path(v: int, stop: int, child: int) -> None:
        while base[v] != stop:
            mark[base[v]] = stamp
            mark[base[mate[v]]] = stamp
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting_path(root: int) -> int:
        nonlocal stamp
        for i in tree:
            parent[i] = -1
            base[i] = i
            used[i] = False
        tree[:] = [root]
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # Both endpoints are even: contract the blossom, under a
                    # fresh stamp so lca's root-path marks are not read as its.
                    stop = lca(v, to)
                    stamp += 1
                    mark_path(v, stop, to)
                    mark_path(to, stop, v)
                    tree.sort()
                    for i in tree:
                        if mark[base[i]] == stamp:
                            base[i] = stop
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.append(to)
                    if mate[to] == -1:
                        return to
                    used[mate[to]] = True
                    tree.append(mate[to])
                    queue.append(mate[to])
        return -1

    for v in range(n):
        if mate[v] == -1:
            end = find_augmenting_path(v)
            while end != -1:
                prev = parent[end]
                next_end = mate[prev]
                mate[end] = prev
                mate[prev] = end
                end = next_end
    return mate


# The exact-degree gadget before it took the smaller side at each vertex,
# copied apart from its name, its docstring and the matching's lookup.
def reference_prescribed_factor_edges(g: Graph, targets: Sequence[int]):
    """Edges of a spanning subgraph with degree exactly targets[v] at each v,
    or None: vertex v gets d - f cores, each joined to all d endpoints of its
    edges. The matching is looked up on the solver module, so a test's spy on
    the solver's matching sees these gadgets too."""
    # Gadget layout: two endpoint vertices per edge, then per-vertex cores.
    num_ext = 2 * g.m
    ext_of: list[list[int]] = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edges):
        ext_of[u].append(2 * idx)
        ext_of[v].append(2 * idx + 1)
    core_start = [0] * g.n
    total = num_ext
    for v in range(g.n):
        core_start[v] = total
        total += g.degree(v) - targets[v]
    adj: list[list[int]] = [[] for _ in range(total)]
    for idx in range(g.m):
        a, b = 2 * idx, 2 * idx + 1
        adj[a].append(b)
        adj[b].append(a)
    for v in range(g.n):
        cores = range(core_start[v], core_start[v] + g.degree(v) - targets[v])
        for c in cores:
            for e in ext_of[v]:
                adj[c].append(e)
                adj[e].append(c)
    # Every list is built ascending (an endpoint's partner precedes all cores).
    mate, _ = solver.perfect_matching(total, adj)
    if mate is None:
        return None
    return tuple(
        g.edges[idx] for idx in range(g.m) if mate[2 * idx] == 2 * idx + 1
    )


# The Euler orientation when it returned arcs, copied apart from its name and
# its docstring.
def reference_euler_arcs(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Arcs of canonical edges oriented along Euler circuits, one per
    component, as consecutive vertices of the path Hierholzer's stack pops;
    the walk always continues along the smallest available neighbor id."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    used = [False] * len(edges)
    ptr = [0] * n
    arcs: list[tuple[int, int]] = []
    for start in range(n):
        if ptr[start] >= len(adj[start]):
            continue
        stack = [start]
        path: list[int] = []
        while stack:
            v = stack[-1]
            while ptr[v] < len(adj[v]) and used[adj[v][ptr[v]][1]]:
                ptr[v] += 1
            if ptr[v] == len(adj[v]):
                path.append(v)
                stack.pop()
            else:
                w, idx = adj[v][ptr[v]]
                used[idx] = True
                stack.append(w)
        arcs.extend(zip(path, path[1:]))
    return arcs


def random_even_graph(rng, max_n: int) -> Graph:
    """Edge-disjoint cycles on a vertex count drawn from 1..max_n, each of
    3..n distinct random vertices and kept only if it reuses no edge; so
    every degree is even, and hosts may be disconnected or have isolated
    vertices."""
    n = rng.randint(1, max_n)
    edges: set[tuple[int, int]] = set()
    for _ in range(rng.randint(0, 6) if n >= 3 else 0):
        cycle = rng.sample(range(n), rng.randint(3, n))
        new = {(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
        if not new & edges:
            edges |= new
    return Graph(n, tuple(edges))


def two_hub(triangles: int) -> Graph:
    """Hubs u, v (the two highest ids) and eight odd components: `triangles`
    triangles, each with one corner joined to u and another to v, and single
    vertices joined to both hubs. Biconnected, with no {1,3}-factor."""
    edges, attach, n = [], [], 0
    for c in range(8):
        if c < triangles:
            edges += [(n, n + 1), (n + 1, n + 2), (n, n + 2)]
            attach += [(0, n), (1, n + 1)]
            n += 3
        else:
            attach += [(0, n), (1, n)]
            n += 1
    edges += [(n + h, w) for h, w in attach]
    return Graph(n + 2, tuple(edges))


def random_block_tree(rng, max_n: int) -> Graph:
    """Cliques and cycles of 2-7 vertices, each glued at one random vertex of
    the graph so far, until the next block would pass a vertex count drawn
    from 2..max_n; then randomly relabeled. Every shared vertex is a cut
    vertex, so the block-cut tree is as deep as the draw makes it."""
    limit = rng.randint(2, max_n)
    n, edges = 1, []
    while True:
        size = rng.randint(2, 7)
        if n + size - 1 > limit:
            break
        block = [rng.randrange(n), *range(n, n + size - 1)]
        n += size - 1
        if size <= 3 or rng.random() < 0.5:
            edges += itertools.combinations(block, 2)
        else:
            edges += zip(block, block[1:] + block[:1])
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, tuple((perm[u], perm[v]) for u, v in edges))


def x3c_sets(q: int, rng) -> list[tuple[int, int, int]]:
    """q sets of 3 distinct elements out of 0..q-1, each element in exactly
    3 sets: the 3q stubs are shuffled into consecutive triples, redrawn until
    no triple repeats an element. A set may occur twice."""
    stubs = [e for e in range(q) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        sets = [tuple(sorted(stubs[i:i + 3])) for i in range(0, 3 * q, 3)]
        if all(len(set(s)) == 3 for s in sets):
            return sets


def exact_cover_exists(q: int, sets: Sequence[tuple[int, ...]]) -> bool:
    """Whether some of the sets partition 0..q-1: depth first, each level
    covers the least uncovered element by each set that fits."""
    containing = [[s for s in sets if e in s] for e in range(q)]
    covered = [False] * q

    def search() -> bool:
        e = next((e for e in range(q) if not covered[e]), None)
        if e is None:
            return True
        for s in containing[e]:
            if not any(covered[x] for x in s):
                for x in s:
                    covered[x] = True
                if search():
                    return True
                for x in s:
                    covered[x] = False
        return False

    return search()


def x3c_graph(q: int, sets: Sequence[tuple[int, ...]], pendants: bool) -> Graph:
    """Element e is vertex e and set i is vertex q + i, joined to its
    elements; with pendants, set i also gets a leaf 2q + i. The sets have
    an exact cover iff elements can take degree 1 and sets 0 or 3, which
    with pendants is a {1,4}-factor: each leaf takes its edge."""
    edges = [(e, q + i) for i, s in enumerate(sets) for e in s]
    if pendants:
        edges += [(q + i, 2 * q + i) for i in range(len(sets))]
    return Graph((3 if pendants else 2) * q, tuple(edges))
