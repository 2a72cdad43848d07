"""Exact decision procedures for degree-constrained spanning subgraphs.

A factor query asks for a spanning subgraph whose vertex degrees all lie in
a prescribed set of allowed values. Exact per-vertex prescriptions reduce to
perfect matching through the classical vertex-expansion gadget: vertex v
with degree d and target f becomes a complete bipartite gadget with d edge
endpoints and d - f core vertices, and the expanded graph has a perfect
matching iff the original graph has the prescribed factor.

Degree-set queries search over per-vertex target assignments on top of that
engine. The search decomposes at cut vertices when the graph has them,
enumerating the cross-edge subsets into each side and memoizing per-piece
feasibility, which is what makes hub-and-blocks families tractable; plain
biconnected pieces fall back to lexicographic assignment enumeration. A
"not exists" answer is only ever produced once the pruned space is provably
exhausted; hitting the node budget yields a distinct inconclusive verdict.

All functions are pure and the verdicts are deterministic across runs.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import Graph, articulation_points, connected_components, induced_subgraph, regularity
from .matching import maximum_matching

EXISTS = "exists"
NOT_EXISTS = "not-exists"
INCONCLUSIVE = "inconclusive"

METHOD_EXHAUSTED = "exhausted-assignments"
METHOD_PARITY = "parity"
METHOD_BRUTE_FORCE = "brute-force"
METHOD_SEARCH = "search"
METHOD_BUDGET = "budget"

DEFAULT_NODE_BUDGET = 10_000_000
BRUTE_FORCE_EDGE_CAP = 22

Edge = tuple[int, int]


@dataclass(frozen=True)
class FactorSpec:
    """A finite, nonempty set of allowed vertex degrees.

    Stored canonically as a sorted tuple without repeats, so {k, r-k} given
    in either order normalizes to the same spec and {k, k} collapses to {k}.
    """

    allowed: tuple[int, ...]

    def __post_init__(self) -> None:
        values = sorted(set(int(a) for a in self.allowed))
        if not values:
            raise ValueError("a factor spec needs at least one allowed degree")
        if values[0] < 0:
            raise ValueError("allowed degrees must be nonnegative")
        object.__setattr__(self, "allowed", tuple(values))

    @classmethod
    def of(cls, *values: int) -> "FactorSpec":
        return cls(tuple(values))

    @classmethod
    def complementary(cls, k: int, r: int) -> "FactorSpec":
        """The {k, r-k} degree pair for an r-regular host."""
        if not 0 <= k <= r:
            raise ValueError(f"need 0 <= k <= r, got k={k}, r={r}")
        return cls((k, r - k))

    def __contains__(self, degree: int) -> bool:
        return degree in self.allowed

    def all_odd(self) -> bool:
        return all(a % 2 == 1 for a in self.allowed)


@dataclass(frozen=True)
class Decision:
    """Outcome of a factor decision.

    verdict is "exists" (with a certificate), "not-exists" (only after a
    complete search or a valid parity argument; method records which), or
    "inconclusive" when the node budget ran out before the space was
    exhausted -- never a silently wrong answer.
    """

    verdict: str
    method: str
    certificate: tuple[Edge, ...] | None = None
    nodes_explored: int = 0

    @property
    def exists(self) -> bool:
        return self.verdict == EXISTS

    def to_json_dict(self) -> dict:
        payload: dict = {
            "verdict": self.verdict,
            "method": self.method,
            "nodes_explored": self.nodes_explored,
        }
        if self.certificate is not None:
            payload["certificate"] = [list(e) for e in self.certificate]
        return payload


def normalize_edges(edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    """Canonical sorted tuple of (u, v) pairs with u < v."""
    pairs = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        pairs.add((u, v) if u < v else (v, u))
    return tuple(sorted(pairs))


def subgraph_degrees(n: int, edges: Iterable[Edge]) -> list[int]:
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return degs


def verify_factor(g: Graph, certificate: Iterable[Sequence[int]], spec: FactorSpec) -> bool:
    """True iff the certificate's spanning subgraph has every degree in spec.

    Raises ValueError if the certificate references an edge not in the host.
    """
    edges = normalize_edges(certificate)
    host = g.edge_set()
    for e in edges:
        if e not in host:
            raise ValueError(f"certificate edge {e} is not an edge of the host graph")
    return all(d in spec.allowed for d in subgraph_degrees(g.n, edges))


# ---------------------------------------------------------------------------
# Exact-degree (per-vertex prescription) decision via gadget expansion


def _prescribed_factor_edges(g: Graph, targets: Sequence[int]) -> tuple[Edge, ...] | None:
    """Edges of a spanning subgraph with degree exactly targets[v] at each v,
    or None if no such subgraph exists. Callers validate targets."""
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
    mate = maximum_matching(total, adj)
    if any(u == -1 for u in mate):
        return None
    return tuple(
        g.edges[idx] for idx in range(g.m) if mate[2 * idx] == 2 * idx + 1
    )


def f_factor_decide(g: Graph, targets: Sequence[int]) -> Decision:
    """Exact decision: is there a spanning subgraph with degree targets[v]
    at every vertex? Exists carries the edge set; the reduction is exact,
    not heuristic."""
    targets = [int(t) for t in targets]
    if len(targets) != g.n:
        raise ValueError(f"expected {g.n} degree targets, got {len(targets)}")
    for v, t in enumerate(targets):
        if t < 0:
            raise ValueError(f"negative degree target at vertex {v}")
        if t > g.degree(v):
            raise ValueError(
                f"degree target {t} at vertex {v} exceeds its degree {g.degree(v)}"
            )
    if sum(targets) % 2 == 1:
        return Decision(NOT_EXISTS, METHOD_PARITY, None, 1)
    edges = _prescribed_factor_edges(g, targets)
    if edges is None:
        return Decision(NOT_EXISTS, METHOD_EXHAUSTED, None, 1)
    return Decision(EXISTS, METHOD_SEARCH, edges, 1)


# ---------------------------------------------------------------------------
# Degree-set decision: decomposition search over per-vertex assignments


class _BudgetExceeded(Exception):
    pass


class _SearchState:
    __slots__ = ("budget", "nodes", "memo")

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nodes = 0
        self.memo: dict = {}

    def charge(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.budget:
            raise _BudgetExceeded


def _parity_impossible(candidates: Sequence[Sequence[int]]) -> bool:
    """True when every vertex has parity-pure candidates and the forced total
    degree sum is odd (no subgraph can realize it, by handshake)."""
    total = 0
    for values in candidates:
        parities = {v % 2 for v in values}
        if len(parities) != 1:
            return False
        total += next(iter(parities))
    return total % 2 == 1


def _solve_vertices(
    g: Graph,
    vertices: Sequence[int],
    allowed: dict[int, tuple[int, ...]],
    state: _SearchState,
) -> list[Edge] | None:
    """Factor edges over the induced subgraph on `vertices` where each vertex
    v must end with internal degree in allowed[v], or None if impossible."""
    vset = set(vertices)
    if not vset:
        return []
    remaining = set(vset)
    out: list[Edge] = []
    while remaining:
        start = min(remaining)
        comp = [start]
        remaining.discard(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w in remaining:
                    remaining.discard(w)
                    comp.append(w)
                    queue.append(w)
        sub = _solve_component(g, sorted(comp), allowed, state)
        if sub is None:
            return None
        out.extend(sub)
    return out


def _solve_component(
    g: Graph,
    comp: list[int],
    allowed: dict[int, tuple[int, ...]],
    state: _SearchState,
) -> list[Edge] | None:
    sub, order = induced_subgraph(g, comp)
    candidates: list[tuple[int, ...]] = []
    for i, v in enumerate(order):
        values = tuple(a for a in allowed[v] if a <= sub.degree(i))
        if not values:
            return None
        candidates.append(values)
    if _parity_impossible(candidates):
        return None
    key = (sub.n, sub.edges, tuple(candidates))
    if key in state.memo:
        ranked = state.memo[key]
    else:
        cuts = articulation_points(sub)
        if cuts:
            ranked = _solve_at_cut_vertex(sub, candidates, cuts[0], state)
        else:
            ranked = _solve_by_enumeration(sub, candidates, state)
        state.memo[key] = ranked
    if ranked is None:
        return None
    return [
        (order[u], order[v]) if order[u] < order[v] else (order[v], order[u])
        for u, v in ranked
    ]


def _solve_at_cut_vertex(
    sub: Graph,
    candidates: list[tuple[int, ...]],
    cut: int,
    state: _SearchState,
) -> list[Edge] | None:
    """Decompose at a cut vertex: each side is solved independently per cross-
    edge subset, then the sides are combined so the cut vertex's own degree
    (the number of chosen cross edges) lands on an allowed value."""
    side_of = [-1] * sub.n
    sides: list[list[int]] = []
    for v in range(sub.n):
        if v == cut or side_of[v] != -1:
            continue
        comp = [v]
        side_of[v] = len(sides)
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for w in sub.neighbors(x):
                if w != cut and side_of[w] == -1:
                    side_of[w] = len(sides)
                    comp.append(w)
                    queue.append(w)
        sides.append(sorted(comp))

    allowed_map = {v: candidates[v] for v in range(sub.n)}
    max_cut_degree = max(candidates[cut])
    # feasible[i]: cross-edge count -> (chosen neighbor subset, side edges)
    feasible: list[dict[int, tuple[tuple[int, ...], list[Edge]]]] = []
    for side in sides:
        cross = [w for w in sub.neighbors(cut) if side_of[w] == side_of[side[0]]]
        by_size: dict[int, tuple[tuple[int, ...], list[Edge]]] = {}
        for size in range(min(len(cross), max_cut_degree) + 1):
            for subset in itertools.combinations(cross, size):
                state.charge()
                reduced = dict(allowed_map)
                ok = True
                for w in subset:
                    shifted = tuple(a - 1 for a in reduced[w] if a >= 1)
                    if not shifted:
                        ok = False
                        break
                    reduced[w] = shifted
                if not ok:
                    continue
                solved = _solve_vertices(sub, side, reduced, state)
                if solved is not None:
                    by_size[size] = (subset, solved)
                    break  # any one subset of this size is interchangeable
        if not by_size:
            return None
        feasible.append(by_size)

    # Combine: pick one cross-edge count per side summing to an allowed value.
    reachable: dict[int, list[int]] = {0: []}
    for i, by_size in enumerate(feasible):
        nxt: dict[int, list[int]] = {}
        for total, choice in sorted(reachable.items()):
            for size in sorted(by_size):
                t = total + size
                if t <= max_cut_degree and t not in nxt:
                    nxt[t] = choice + [size]
        reachable = nxt
        if not reachable:
            return None
    target = next((t for t in sorted(reachable) if t in candidates[cut]), None)
    if target is None:
        return None
    edges: list[Edge] = []
    for i, size in enumerate(reachable[target]):
        subset, solved = feasible[i][size]
        edges.extend(solved)
        for w in subset:
            edges.append((cut, w) if cut < w else (w, cut))
    return edges


def _solve_by_enumeration(
    sub: Graph,
    candidates: list[tuple[int, ...]],
    state: _SearchState,
) -> list[Edge] | None:
    """Depth-first over per-vertex target assignments in vertex id order,
    lowest value first; each parity-consistent assignment goes to the
    matching engine."""
    for assignment in itertools.product(*candidates):
        state.charge()
        if sum(assignment) % 2 == 1:
            continue
        edges = _prescribed_factor_edges(sub, assignment)
        if edges is not None:
            return list(edges)
    return None


def h_factor_decide(
    g: Graph, spec: FactorSpec, budget: int = DEFAULT_NODE_BUDGET
) -> Decision:
    """Exact decision: does g have a spanning subgraph with every vertex
    degree in spec? The search space is the set of per-vertex assignments
    drawn from spec, pruned by parity and cut-vertex decomposition; NotExists
    means that space was provably exhausted."""
    if spec.all_odd():
        # Handshake: a component of odd order cannot have all degrees odd.
        for comp in connected_components(g):
            if len(comp) % 2 == 1:
                return Decision(NOT_EXISTS, METHOD_PARITY, None, 0)
    allowed = {
        v: tuple(a for a in spec.allowed if a <= g.degree(v)) for v in range(g.n)
    }
    if any(not values for values in allowed.values()):
        return Decision(NOT_EXISTS, METHOD_EXHAUSTED, None, 0)
    state = _SearchState(budget)
    try:
        edges = _solve_vertices(g, range(g.n), allowed, state)
    except _BudgetExceeded:
        return Decision(INCONCLUSIVE, METHOD_BUDGET, None, state.nodes)
    if edges is None:
        return Decision(NOT_EXISTS, METHOD_EXHAUSTED, None, state.nodes)
    cert = normalize_edges(edges)
    if not verify_factor(g, cert, spec):
        raise AssertionError("internal error: search produced an invalid certificate")
    return Decision(EXISTS, METHOD_SEARCH, cert, state.nodes)


def brute_force_h_factor(g: Graph, spec: FactorSpec) -> Decision:
    """Independent oracle: enumerate every edge subset. Hard-capped at
    22 edges; intended for tests and cross-validation only."""
    if g.m > BRUTE_FORCE_EDGE_CAP:
        raise ValueError(
            f"brute force is capped at {BRUTE_FORCE_EDGE_CAP} edges, got {g.m}"
        )
    allowed = set(spec.allowed)
    incidence = [0] * g.n
    for idx, (u, v) in enumerate(g.edges):
        incidence[u] |= 1 << idx
        incidence[v] |= 1 << idx
    for mask in range(1 << g.m):
        ok = True
        for v in range(g.n):
            if (mask & incidence[v]).bit_count() not in allowed:
                ok = False
                break
        if ok:
            cert = tuple(g.edges[i] for i in range(g.m) if mask >> i & 1)
            return Decision(EXISTS, METHOD_BRUTE_FORCE, cert, mask + 1)
    return Decision(NOT_EXISTS, METHOD_BRUTE_FORCE, None, 1 << g.m)


# ---------------------------------------------------------------------------
# Constructive even-degree factors via Euler orientation


def _euler_orientation(n: int, edges: Sequence[Edge]) -> list[Edge]:
    """Orient the edges along Euler circuits, one per component; every vertex
    must have even degree. Ties always continue along the smallest available
    neighbor id."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    for a in adj:
        a.sort()
    used = [False] * len(edges)
    ptr = [0] * n
    arcs: list[Edge] = []
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


def _extract_two_factor(n: int, edges: tuple[Edge, ...]) -> tuple[Edge, ...]:
    """One 2-regular spanning subgraph of an even-regular edge set: orient
    along Euler circuits, then pick a perfect matching of the in/out
    bipartite double (out-copy v, in-copy n+v), i.e. a set of arcs with one
    head and one tail per vertex."""
    arcs = _euler_orientation(n, edges)
    adj: list[list[int]] = [[] for _ in range(2 * n)]
    for u, v in arcs:
        adj[u].append(n + v)
        adj[n + v].append(u)
    mate = maximum_matching(2 * n, [sorted(a) for a in adj])
    if any(u == -1 for u in mate):
        raise AssertionError("internal error: regular bipartite double lost its matching")
    chosen = []
    for v in range(n):
        w = mate[v] - n
        chosen.append((v, w) if v < w else (w, v))
    return tuple(sorted(set(chosen)))


def _two_factors(g: Graph, count: int) -> Iterator[tuple[Edge, ...]]:
    """Extract `count` pairwise edge-disjoint 2-factors of an even-regular
    graph in turn, each from the edges the previous ones left."""
    current = g.edges
    for _ in range(count):
        two_factor = _extract_two_factor(g.n, current)
        yield two_factor
        drop = set(two_factor)
        current = tuple(e for e in current if e not in drop)


def decompose_two_factors(g: Graph) -> list[tuple[Edge, ...]]:
    """Split an even-regular graph into r/2 pairwise edge-disjoint 2-regular
    spanning subgraphs whose union is the whole edge set."""
    r = regularity(g)
    if r is None:
        raise ValueError("graph must be regular to decompose into 2-factors")
    if r % 2 == 1:
        raise ValueError(f"degree must be even to decompose into 2-factors, got {r}")
    return list(_two_factors(g, r // 2))


def even_k_factor(g: Graph, k: int) -> tuple[Edge, ...]:
    """A spanning subgraph with every degree exactly k, for even k on an
    even-regular graph: union of k/2 extracted 2-factors. Always succeeds
    under the parity preconditions."""
    r = regularity(g)
    if r is None or r % 2 == 1:
        raise ValueError("even-degree factor extraction needs an even-regular graph")
    if k % 2 == 1 or not 0 <= k <= r:
        raise ValueError(f"need even k with 0 <= k <= {r}, got {k}")
    return tuple(sorted(e for factor in _two_factors(g, k // 2) for e in factor))
