"""Exact decision procedures for degree-constrained spanning subgraphs.

A factor query asks for a spanning subgraph whose vertex degrees all lie in
a prescribed set of allowed values. Exact per-vertex prescriptions reduce to
perfect matching through Tutte's vertex gadget, on the smaller side: vertex
v with degree d and target f is joined through its edges' endpoints to
min(f, d - f) gadget vertices (f copies that take used edges when 2f < d,
else d - f cores that take unused ones), and the expanded graph has a
perfect matching iff the original graph has the prescribed factor.

Degree-set queries search over per-vertex target assignments on top of that
engine. The search decomposes at cut vertices when the graph has them,
enumerating the cross-edge subsets into each side and memoizing per-piece
feasibility, which is what makes hub-and-blocks families tractable; plain
biconnected pieces fall back to lexicographic assignment enumeration. Each
search keeps a piece table: every distinct relabeled piece, keyed by its
(n, edges), is induced (without re-validation) and split at its least cut
vertex once, and the memo is keyed by (piece id, candidate degrees), so
identical blocks share entries. A parity summary per side (how many vertices
mix parities, how many are forced odd) screens each cross-edge subset in
O(|subset|). The cut-vertex search runs on an explicit stack, so deep
block-cut trees need no recursion. "Not exists" only ever follows a
provably exhausted space; running out of node budget yields "inconclusive".

Even-regular hosts get even-degree factors by construction instead
(Petersen 1891): one Euler orientation, then r/2 perfect matchings peeled
from its in/out bipartite double, on 2n vertices where a 2-factor's gadget
has 2n(r - 1).

All functions are pure and the verdicts are deterministic across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Iterable, Iterator, Sequence

from .graph import Graph, articulation_points, connected_components, induced_subgraph, regularity
from .matching import perfect_matching

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
    # Tutte's gadget on the smaller side: v of degree d and target f gets f
    # copies if 2f < d, each matched to a used edge's endpoint, else d - f
    # cores, each matched to an unused one's. An edge between vertices of one
    # kind has two adjacent endpoints, paired when unused at copies and used
    # at cores; a mixed edge is one vertex. Edge vertices precede gadget
    # vertices, so every list is built ascending; a vertex's gadget vertices
    # share one list of its endpoints, which the matching only reads.
    degrees = [g.degree(v) for v in range(g.n)]
    copies = [2 * f < d for f, d in zip(targets, degrees)]
    adj: list[list[int]] = []
    ext_of: list[list[int]] = [[] for _ in range(g.n)]
    lower_end = []
    for u, v in g.edges:
        a = b = len(adj)
        if copies[u] == copies[v]:
            b = a + 1
            adj += ([b], [a])
        else:
            adj.append([])
        lower_end.append(a)
        ext_of[u].append(a)
        ext_of[v].append(b)
    gadgets = []
    for v, ext in enumerate(ext_of):
        gadget = range(len(adj), len(adj) + min(targets[v], degrees[v] - targets[v]))
        gadgets.append(gadget)
        for e in ext:
            adj[e].extend(gadget)
        adj += [ext] * len(gadget)
    mate, _ = perfect_matching(len(adj), adj)
    if mate is None:
        return None
    # An edge (u, v) with u < v is used iff its endpoint at u is matched into
    # u's gadget exactly when u has copies.
    return tuple(
        e for e, a in zip(g.edges, lower_end) if (mate[a] in gadgets[e[0]]) == copies[e[0]]
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


class _Piece:
    """One relabeled piece of the decomposition: its memo id and, once split,
    its least cut vertex (None if it has none) and per side of that cut the
    side's piece, its vertex order in this piece and its cross neighbours
    (side-local ids of the cut's neighbours)."""

    __slots__ = ("index", "graph", "cut", "sides")

    def __init__(self, index: int, graph: Graph) -> None:
        self.index = index
        self.graph = graph
        self.cut: int | None = None
        self.sides: list[tuple[_Piece, list[int], list[int]]] | None = None


class _SearchState:
    __slots__ = ("budget", "nodes", "memo", "pieces")

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nodes = 0
        self.memo: dict = {}
        self.pieces: dict[tuple, _Piece] = {}

    def charge(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.budget:
            raise _BudgetExceeded

    def piece(self, graph: Graph) -> _Piece:
        """The table's record for this relabeled piece, added on first sight."""
        key = (graph.n, graph.edges)
        if key not in self.pieces:
            self.pieces[key] = _Piece(len(self.pieces), graph)
        return self.pieces[key]


def _split(piece: _Piece, state: _SearchState) -> None:
    """Fill in the piece's cut vertex and sides; done once per piece."""
    g = piece.graph
    cuts = articulation_points(g)
    piece.sides = []
    if not cuts:
        return
    cut = piece.cut = cuts[0]
    nbrs = set(g.neighbors(cut))
    for comp in connected_components(g, (cut,)):
        side, order = induced_subgraph(g, comp)
        cross = [i for i, v in enumerate(order) if v in nbrs]
        piece.sides.append((state.piece(side), order, cross))


@lru_cache(maxsize=1024)
def _parity_profile(values: tuple[int, ...]) -> tuple[int, int, int]:
    """One vertex's candidates as (empty, mixed parity, forced odd) flags; a
    search meets few distinct candidate tuples, so the flags are cached."""
    parities = {a % 2 for a in values}
    return (not parities, len(parities) == 2, parities == {1})


def _parity_summary(candidates: Sequence[Sequence[int]]) -> list[int]:
    """Per flag of `_parity_profile`, how many vertices raise it."""
    return [sum(flags) for flags in zip((0, 0, 0), *map(_parity_profile, candidates))]


def _parity_impossible(candidates: Sequence[Sequence[int]]) -> bool:
    """True when every vertex has parity-pure candidates and the forced total
    degree sum is odd (no subgraph can realize it, by handshake)."""
    empty, mixed, odd = _parity_summary(candidates)
    return not empty and not mixed and odd % 2 == 1


def _solve_vertices(
    g: Graph, comps: list[list[int]], allowed: Sequence[tuple[int, ...]], state: _SearchState
) -> list[Edge] | None:
    """Factor edges of g where each vertex v ends with degree in allowed[v],
    or None if impossible; each of g's components is solved as one piece."""
    out: list[Edge] = []
    for comp in comps:
        sub, order = (g, comp) if len(comp) == g.n else induced_subgraph(g, comp)
        candidates = tuple(allowed[v] for v in comp)
        if _parity_impossible(candidates):
            return None
        ranked = _solve_piece(state.piece(sub), candidates, state)
        if ranked is None:
            return None
        out.extend((order[u], order[v]) for u, v in ranked)
    return out


def _solve_piece(
    piece: _Piece, candidates: tuple[tuple[int, ...], ...], state: _SearchState
) -> list[Edge] | None:
    """Factor edges of a piece in its own labels, or None, memoized by
    (piece id, candidates). Cut-vertex pieces run as generators on an
    explicit stack, each suspended on the side sub-problem it yielded, so
    deep block-cut trees need no recursion."""
    stack: list = []
    while True:
        key = (piece.index, candidates)
        if key in state.memo:
            result = state.memo[key]
        else:
            if piece.sides is None:
                _split(piece, state)
            if piece.cut is None:
                result = state.memo[key] = _solve_by_enumeration(piece.graph, candidates, state)
            else:
                stack.append((key, _solve_at_cut_vertex(piece, candidates, state)))
                result = None
        while stack:
            key, solver = stack[-1]
            try:
                piece, candidates = solver.send(result)
                break
            except StopIteration as done:
                stack.pop()
                result = state.memo[key] = done.value
        else:
            return result


def _solve_at_cut_vertex(
    piece: _Piece,
    candidates: tuple[tuple[int, ...], ...],
    state: _SearchState,
) -> Generator[tuple[_Piece, tuple], list[Edge] | None, list[Edge] | None]:
    """Decompose at a cut vertex: each side is solved independently per cross-
    edge subset, then the sides are combined so the cut vertex's own degree
    (the number of chosen cross edges) lands on an allowed value. Yields each
    side sub-problem and receives its solution."""
    cut = piece.cut
    max_cut_degree = max(candidates[cut])
    # feasible[i]: cross-edge count -> side edges plus chosen cross edges
    feasible: list[dict[int, list[Edge]]] = []
    for side, order, cross in piece.sides:
        degree = side.graph.degree
        # Candidates never exceed a vertex's piece degree, so only cross vertices
        # (one edge short on the side) lose any. A subset's cross vertices take a
        # cut edge each, shifting candidates and parity summary: O(|subset|).
        base = [candidates[v] for v in order]
        shifted = {i: tuple(a - 1 for a in base[i] if a >= 1) for i in cross}
        for i in cross:
            base[i] = tuple(a for a in base[i] if a <= degree(i))
        delta = {i: [s - b for s, b in zip(*map(_parity_profile, (shifted[i], base[i])))] for i in cross}
        summary = _parity_summary(base)
        by_size: dict[int, list[Edge]] = {}
        for size in range(min(len(cross), max_cut_degree) + 1):
            for subset in itertools.combinations(cross, size):
                state.charge()
                empty, mixed, odd = summary
                for i in subset:
                    e, m, o = delta[i]
                    empty, mixed, odd = empty + e, mixed + m, odd + o
                if empty or (not mixed and odd % 2 == 1):
                    continue
                reduced = list(base)
                for i in subset:
                    reduced[i] = shifted[i]
                solved = yield side, tuple(reduced)
                if solved is not None:
                    by_size[size] = [(order[u], order[v]) for u, v in solved] + [
                        (cut, order[i]) if cut < order[i] else (order[i], cut) for i in subset
                    ]
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
        edges.extend(feasible[i][size])
    return edges


def _solve_by_enumeration(
    sub: Graph,
    candidates: Sequence[tuple[int, ...]],
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
    means that space was provably exhausted. A negative budget is a
    ValueError."""
    if budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {budget}")
    comps = connected_components(g)
    # Handshake: a component of odd order cannot have all degrees odd.
    if spec.all_odd() and any(len(comp) % 2 == 1 for comp in comps):
        return Decision(NOT_EXISTS, METHOD_PARITY, None, 0)
    allowed = [tuple(a for a in spec.allowed if a <= g.degree(v)) for v in range(g.n)]
    if not all(allowed):
        return Decision(NOT_EXISTS, METHOD_EXHAUSTED, None, 0)
    state = _SearchState(budget)
    try:
        edges = _solve_vertices(g, comps, allowed, state)
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
# Constructive even-degree factors via one Euler orientation


def _euler_orientation(n: int, edges: Sequence[Edge]) -> list[Edge]:
    """Orient canonical edges along Euler circuits, one per component; every
    vertex must have even degree. Ties always continue along the smallest
    available neighbor id (canonical order builds each list ascending)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
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


def _two_factors(g: Graph, count: int | None = None) -> Iterator[tuple[Edge, ...]]:
    """Yield `count` (default r/2) edge-disjoint 2-factors of an even-regular
    graph, else raise ValueError. An Euler orientation makes the in/out
    bipartite double (out-copy v, in-copy n+v) r/2-regular (Petersen 1891),
    so it is a union of perfect matchings (König 1916); each is a 2-factor
    of g, and peeling it leaves the double regular for the next."""
    r = regularity(g)
    if r is None or r % 2 == 1:
        raise ValueError("2-factors need an even-regular graph")
    count = r // 2 if count is None else count
    if not 0 <= count <= r // 2:
        raise ValueError(f"need 0 to {r // 2} 2-factors of a {r}-regular graph, got {count}")
    n = g.n
    adj: list[list[int]] = [[] for _ in range(2 * n)]
    for u, v in sorted(_euler_orientation(n, g.edges)):  # builds each list ascending
        adj[u].append(n + v)
        adj[n + v].append(u)
    for _ in range(count):
        mate, _ = perfect_matching(2 * n, adj)
        if mate is None:
            raise AssertionError("internal error: regular bipartite double lost its matching")
        heads = [mate[v] - n for v in range(n)]
        yield tuple(sorted((v, w) if v < w else (w, v) for v, w in enumerate(heads)))
        for v, w in enumerate(heads):
            adj[v].remove(n + w)
            adj[n + w].remove(v)


def decompose_two_factors(g: Graph) -> list[tuple[Edge, ...]]:
    """Split an even-regular graph into r/2 pairwise edge-disjoint 2-regular
    spanning subgraphs whose union is the whole edge set."""
    return list(_two_factors(g))


def even_k_factor(g: Graph, k: int) -> tuple[Edge, ...]:
    """A spanning subgraph with every degree exactly k, for even k on an
    even-regular graph: union of k/2 peeled 2-factors. Always succeeds
    under the parity preconditions."""
    if k % 2 == 1:
        raise ValueError(f"need even k, got {k}")
    return tuple(sorted(e for factor in _two_factors(g, k // 2) for e in factor))
