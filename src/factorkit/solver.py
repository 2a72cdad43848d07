"""Exact decision procedures for degree-constrained spanning subgraphs.

A factor query asks for a spanning subgraph whose vertex degrees all lie in
a prescribed set of allowed values. Per-vertex degree windows lo..hi reduce
to perfect matching through Tutte's vertex gadget (Lovasz 1972), on the
smaller side: vertex v of degree d gets hi copies that take used edges when
lo + hi < d, else d - lo cores that take unused ones, plus hi - lo slack
vertices, and the expanded graph has a perfect matching iff the original
graph has a factor in the windows. An exact target f is the window f..f.
Each edge endpoint lists its own vertex's gadget before its partner, so the
matcher's greedy seed is a greedy factor of the host and leaves few
vertices to augmenting searches (Magun 1998).

Degree-set queries search over per-vertex candidate degrees on top of that
engine. The search decomposes at cut vertices when the graph has them, which
is what makes hub-and-blocks families tractable: each side keeps the cut
vertex, every side but the largest is queried once per degree the cut vertex
can take in it, and the largest once, with the cut vertex's candidates
lowered by each total the other sides can reach. A piece with no cut vertex
is decided by branch and bound: a node tries every vertex at its lowest
candidate, then relaxes each vertex's candidates to their window, which is
exact when no gap exceeds 1 (Cornuejols 1988), and splits the candidates of
a vertex whose relaxed degree falls in a gap. Each search keeps a piece
table: every distinct relabeled piece, keyed by its (n, edges), is induced
(without re-validation) and split at its least cut vertex once, and the memo
is keyed by (piece id, candidate degrees), so identical blocks share
entries. The cut-vertex search runs on an explicit stack, so deep block-cut
trees need no recursion. "Not exists" only ever follows a provably exhausted
space; running out of node budget yields "inconclusive".

Even-regular hosts get even-degree factors by construction instead
(Petersen 1891): one Euler orientation, then r/2 perfect matchings peeled
from its in/out bipartite double, on 2n vertices where a 2-factor's gadget
has 2n(r - 1).

All functions are pure and the verdicts are deterministic across runs.
"""

from __future__ import annotations

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
# Degree-window gadget and the exact-degree decision


def _prescribed_factor_edges(
    g: Graph, lows: Sequence[int], highs: Sequence[int] | None = None, mixed: Sequence[bool] = ()
) -> tuple[Edge, ...] | None:
    """Edges of a spanning subgraph with each degree in lows[v]..highs[v]
    (default: exactly lows[v]), every value if mixed[v], else every other
    one; or None if there is none. Callers validate the windows."""
    # Tutte's gadget on the smaller side: v of degree d and window lo..hi gets
    # hi copies if lo + hi < d, each matched to a used edge's endpoint, else
    # d - lo cores, each matched to an unused one's; up to hi - lo of them are
    # left to slack vertices, in pairs bar one or two switches in a mixed
    # window, which join a pool clique that makes the vertex count even. An
    # edge between vertices of one kind has two adjacent endpoints, paired when
    # unused at copies and used at cores; a mixed edge is one vertex. Endpoints
    # list their vertex's gadget before their partner, so the matcher's greedy
    # seed is a greedy factor of g; a vertex's copies or cores share one list.
    highs = lows if highs is None else highs
    degrees = [g.degree(v) for v in range(g.n)]
    copies = [lo + hi < d for lo, hi, d in zip(lows, highs, degrees)]
    adj: list[list[int]] = []
    ext_of: list[list[int]] = [[] for _ in range(g.n)]
    lower_end = []
    for u, v in g.edges:
        a = b = len(adj)
        if copies[u] == copies[v]:
            b = a + 1
            adj += ([], [])
        else:
            adj.append([])
        lower_end.append(a)
        ext_of[u].append(a)
        ext_of[v].append(b)
    gadgets = []
    switches: list[int] = []
    for v, ext in enumerate(ext_of):
        lo, hi = lows[v], highs[v]
        gadget = range(len(adj), len(adj) + (hi if copies[v] else degrees[v] - lo))
        gadgets.append(gadget)
        for e in ext:
            adj[e].extend(gadget)
        adj += [ext] * len(gadget)
        if hi > lo:
            slack = range(len(adj), len(adj) + hi - lo)
            ext.extend(slack)
            pairs = len(slack) - (2 - len(slack) % 2 if mixed[v] else 0)
            for a in slack[:pairs:2]:
                adj += ([*gadget, a + 1], [*gadget, a])
            switches += slack[pairs:]
            adj += ([*gadget] for _ in slack[pairs:])
    for (u, v), a in zip(g.edges, lower_end):
        if copies[u] == copies[v]:
            adj[a].append(a + 1)
            adj[a + 1].append(a)
    if switches:
        pool = range(len(adj), len(adj) + len(switches) + (len(adj) + len(switches)) % 2)
        for s in switches:
            adj[s].extend(pool)
        adj += ([*switches, *(q for q in pool if q != p)] for p in pool)
    mate, _ = perfect_matching(len(adj), adj)
    if mate is None:
        return None
    # An edge (u, v) with u < v is used iff its endpoint at u is matched into
    # u's copies or cores exactly when u has copies.
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
    its least cut vertex (None if it has none) and per side of that cut (a
    component of the rest plus the cut vertex, largest side last) the side's
    piece, its vertex order in this piece and the cut vertex's id in it."""

    __slots__ = ("index", "graph", "cut", "sides")

    def __init__(self, index: int, graph: Graph) -> None:
        self.index = index
        self.graph = graph
        self.cut: int | None = None
        self.sides: list[tuple[_Piece, list[int], int]] | None = None


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
    for comp in connected_components(g, (cut,)):
        side, order = induced_subgraph(g, comp + [cut])
        piece.sides.append((state.piece(side), order, order.index(cut)))
    piece.sides.sort(key=lambda entry: entry[0].graph.n)


@lru_cache(maxsize=1024)
def _parity_profile(values: tuple[int, ...]) -> tuple[int, int, int]:
    """One vertex's candidates as (empty, mixed parity, forced odd) flags; a
    search meets few distinct candidate tuples, so the flags are cached."""
    parities = {a % 2 for a in values}
    return (not parities, len(parities) == 2, parities == {1})


def _parity_impossible(candidates: Sequence[Sequence[int]]) -> bool:
    """True when every vertex has parity-pure candidates and the forced total
    degree sum is odd (no subgraph can realize it, by handshake)."""
    empty, mixed, odd = (sum(flags) for flags in zip((0, 0, 0), *map(_parity_profile, candidates)))
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
                result = state.memo[key] = _solve_by_relaxation(piece.graph, candidates, state)
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
    """Decompose at a cut vertex c, which every side keeps: each side but the
    largest is solved once per degree c can take in it, and the largest once,
    with c's candidates lowered by every total the other sides can reach.
    Yields each side sub-problem and receives its solution."""
    cut = piece.cut
    max_cut_degree = max(candidates[cut])
    # reachable: c's degree summed over the sides so far -> its degree per side
    reachable: dict[int, list[int]] = {0: []}
    feasible: list[dict[int, list[Edge]]] = []  # per side: c's degree -> side edges
    for side, order, c in piece.sides[:-1]:
        reduced = [candidates[v] for v in order]
        by_degree: dict[int, list[Edge]] = {}
        for s in range(min(side.graph.degree(c), max_cut_degree) + 1):
            reduced[c] = (s,)
            state.charge()
            solved = yield side, tuple(reduced)
            if solved is not None:
                by_degree[s] = [(order[u], order[v]) for u, v in solved]
        nxt: dict[int, list[int]] = {}
        for total, choice in sorted(reachable.items()):
            for s in by_degree:
                if total + s <= max_cut_degree and total + s not in nxt:
                    nxt[total + s] = choice + [s]
        reachable = nxt
        if not reachable:
            return None
        feasible.append(by_degree)
    side, order, c = piece.sides[-1]
    degree = side.graph.degree(c)
    reduced = [candidates[v] for v in order]
    reduced[c] = tuple(sorted({a - t for a in candidates[cut] for t in reachable if 0 <= a - t <= degree}))
    if not reduced[c]:
        return None
    state.charge()
    solved = yield side, tuple(reduced)
    if solved is None:
        return None
    s = sum(c in e for e in solved)
    total = next(t for t in sorted(reachable) if s + t in candidates[cut])
    edges = [(order[u], order[v]) for u, v in solved]
    for by_degree, s in zip(feasible, reachable[total]):
        edges.extend(by_degree[s])
    return edges


def _solve_by_relaxation(
    sub: Graph, candidates: tuple[tuple[int, ...], ...], state: _SearchState
) -> list[Edge] | None:
    """Branch and bound, depth first. A node tries every vertex at its lowest
    candidate, then the hull: each vertex's candidates widened to a window.
    No hull factor prunes; one with every degree a candidate solves; else the
    first vertex whose degree d is in a gap splits below d, then above. The
    lower child keeps every lowest candidate, so it inherits whether that
    gadget already failed and skips it, or prunes when it is also the hull."""
    stack = [(candidates, False)]
    while stack:
        candidates, lows_failed = stack.pop()
        state.charge()
        if _parity_impossible(candidates):
            continue
        lows = [c[0] for c in candidates]
        single = all(len(c) == 1 for c in candidates)
        if lows_failed and single:
            continue
        if not lows_failed and not single and sum(lows) % 2 == 0:
            edges = _prescribed_factor_edges(sub, lows)
            if edges is not None:
                return list(edges)
            lows_failed = True
        highs = [c[-1] for c in candidates]
        mixed = [_parity_profile(c)[1] for c in candidates]
        edges = _prescribed_factor_edges(sub, lows, highs, mixed)
        if edges is None:
            continue
        degrees = subgraph_degrees(sub.n, edges)
        v = next((v for v, c in enumerate(candidates) if degrees[v] not in c), None)
        if v is None:
            return list(edges)
        d, c = degrees[v], candidates[v]
        stack += [(candidates[:v] + (tuple(a for a in c if a > d),) + candidates[v + 1:], False),
                  (candidates[:v] + (tuple(a for a in c if a < d),) + candidates[v + 1:], lows_failed)]
    return None


def h_factor_decide(
    g: Graph, spec: FactorSpec, budget: int = DEFAULT_NODE_BUDGET
) -> Decision:
    """Exact decision: does g have a spanning subgraph with every vertex
    degree in spec? The search space is the set of per-vertex assignments
    drawn from spec, pruned by parity, cut vertices and relaxation; NotExists
    means that space was provably exhausted. The budget counts each branch
    and bound node and each side query at a cut vertex; a negative budget
    is a ValueError."""
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
