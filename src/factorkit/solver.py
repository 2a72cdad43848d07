"""Exact decision procedures for degree-constrained spanning subgraphs.

A factor query asks for a spanning subgraph in which each vertex's degree
lies in its own set of allowed values. factor_decide is the one entry, and
h_factor_decide (one set everywhere) and f_factor_decide (one degree each)
call it: it clips each set to its vertex's degree, checks the handshake per
component, then searches. Per-vertex degree windows lo..hi reduce to perfect
matching through Tutte's vertex gadget (Lovasz 1972), on the smaller side:
vertex v of degree d gets hi copies that take used edges when lo + hi < d,
else d - lo cores that take unused ones, plus hi - lo slack vertices, and
the expanded graph has a perfect matching iff the original graph has a
factor in the windows. Exact targets (windows f..f) first try a greedy
factor of the host, lifting each short vertex in turn along an alternating
path of length 3, and build the gadget only when one stays short. Each edge
endpoint lists its own vertex's gadget before its partner, so the matcher's
greedy seed is a greedy factor too (Magun 1998).

The search runs over per-vertex candidate degrees on top of that engine, in
one pass over one block decomposition (Hopcroft and Tarjan 1973), which is
what makes hub-and-blocks families tractable: each component is rooted at
its largest block, and every other block keeps the cut vertex it hangs from.
Leaves first, each such block is queried once per degree s that vertex can
take in it, and the feasible s are folded into the vertex's candidates (each
candidate a becomes a - s), which the blocks beside and above it then see;
the root is queried once. Top down, each vertex undoes its folds in reverse,
giving each child block the least s that keeps its degree a candidate from
before that fold. A block is decided by branch and bound: a node tries every
vertex at its lowest candidate, then relaxes each vertex's candidates to
their window, which is exact when no gap exceeds 1 (Cornuejols 1988), and
splits the candidates of a vertex whose relaxed degree falls in a gap. The
host keeps its block-cut tree for later decisions: each block is induced
once per graph, equal blocks share one piece, and queries are memoized by
(piece id, candidate degrees). The pass is flat loops, so deep block-cut
trees need no recursion. "Not exists" only ever follows a provably exhausted
space; running out of node budget yields "inconclusive".

Even-regular hosts get even-degree factors by construction instead
(Petersen 1891): one Euler orientation, then r/2 perfect matchings peeled
from its in/out bipartite double, on 2n vertices where a 2-factor's gadget
has 2n(r - 1).

All functions are pure and the verdicts are deterministic across runs.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from operator import contains, index, lt
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph import Graph, regularity
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


class FactorSpec:
    """A finite, nonempty set of allowed vertex degrees.

    Stored canonically as a sorted tuple without repeats, so {k, r-k} given
    in either order normalizes to the same spec and {k, k} collapses to {k}.
    """

    allowed: tuple[int, ...]

    def __init__(self, allowed: Iterable[int]) -> None:
        values = sorted(set(map(index, allowed)))
        if not values:
            raise ValueError("a factor spec needs at least one allowed degree")
        if values[0] < 0:
            raise ValueError("allowed degrees must be nonnegative")
        object.__setattr__(self, "allowed", tuple(values))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.allowed == other.allowed

    def __hash__(self) -> int:
        return hash((self.allowed,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(allowed={self.allowed!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to attribute {name!r} of an immutable FactorSpec")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete attribute {name!r} of an immutable FactorSpec")

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


class Decision(NamedTuple):
    """Outcome of a factor decision.

    verdict is "exists" (with a certificate), "not-exists" (only after a
    complete search or a valid parity argument; method records which), or
    "inconclusive" when the node budget ran out before the space was
    exhausted -- never a silently wrong answer. exists reads the verdict
    as True, False or None.
    """

    verdict: str
    method: str
    certificate: tuple[Edge, ...] | None = None
    nodes_explored: int = 0

    @property
    def exists(self) -> bool | None:
        return None if self.verdict == INCONCLUSIVE else self.verdict == EXISTS

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
        u, v = index(e[0]), index(e[1])
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
    return _is_factor(g, normalize_edges(certificate), [spec.allowed] * g.n, ValueError)


def _is_factor(g: Graph, edges: tuple[Edge, ...], allowed: Sequence[tuple[int, ...]],
               error: Callable[[str], Exception]) -> bool:
    """Whether each v has its degree under `edges` in allowed[v]; raises error(why)
    naming the least edge not in g, or if `edges` is not strictly increasing."""
    host = g.edge_set()
    if not host.issuperset(edges):
        bad = next(e for e in edges if e not in host)
        raise error(f"certificate edge {bad} is not an edge of the host graph")
    if not all(map(lt, edges, edges[1:])):
        raise error("certificate edges are not strictly increasing")
    return all(map(contains, allowed, subgraph_degrees(g.n, edges)))


# ---------------------------------------------------------------------------
# Degree-window gadget and the exact-degree decision


def _prescribed_factor_edges(g: Graph, targets: Sequence[int]) -> tuple[Edge, ...] | None:
    """Edges of a spanning subgraph with exactly targets[v] edges at each v,
    or None if there is none: the greedy factor, else the gadget."""
    edges = _greedy_factor_edges(g, targets)
    return _gadget_factor_edges(g, targets) if edges is None else edges


def _greedy_factor_edges(g: Graph, targets: Sequence[int]) -> tuple[Edge, ...] | None:
    """A factor with exactly targets[v] edges at each v, or None when the
    greedy gets stuck, which proves nothing. Each edge in canonical order is
    taken when both its ends are short, so no unused edge joins two short
    vertices; then each short vertex u, ascending, flips an alternating path
    u-x (unused), x-y (used), y-w (unused) to a short w, or back to u when it
    needs two, until the first vertex that no such path lifts."""
    n, short = g.n, list(targets)
    used: set[int] = set()  # u * n + v and v * n + u for each used edge (u, v)
    for u, v in g.edges:
        if short[u] and short[v]:
            short[u] -= 1
            short[v] -= 1
            used.add(u * n + v)
            used.add(v * n + u)
    for u in range(n):
        while short[u]:
            path = next(((x, y, w) for x in g.neighbors(u) if u * n + x not in used
                         for y in g.neighbors(x) if x * n + y in used
                         for w in g.neighbors(y)
                         if short[w] and y * n + w not in used and (w != u or short[u] > 1)), None)
            if path is None:
                return None
            x, y, w = path
            used ^= {u * n + x, x * n + u, x * n + y, y * n + x, y * n + w, w * n + y}
            short[u] -= 1
            short[w] -= 1
    return tuple((u, v) for u, v in g.edges if u * n + v in used)


def _gadget_factor_edges(
    g: Graph, lows: Sequence[int], highs: Sequence[int] | None = None, mixed: Sequence[bool] = ()
) -> tuple[Edge, ...] | None:
    """Edges of a spanning subgraph with each degree in lows[v]..highs[v]
    (default: exactly lows[v]), every value if mixed[v], else every other
    one, by one perfect matching; or None. Callers validate the windows."""
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

    def charge(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetExceeded

    def query(self, piece: tuple[int, Graph], candidates: tuple[tuple[int, ...], ...]) -> list[Edge] | None:
        """Factor edges of a block-cut tree piece in its own labels, or None,
        memoized by (piece id, candidates), so identical blocks share entries."""
        key = (piece[0], candidates)
        if key not in self.memo:
            self.memo[key] = _solve_by_relaxation(piece[1], candidates, self)
        return self.memo[key]


@lru_cache(maxsize=1024)
def _mixed(values: tuple[int, ...]) -> bool:
    """Whether one vertex's candidates hold both parities; a search meets few
    distinct candidate tuples, so the flag is cached."""
    return len({a % 2 for a in values}) == 2


def _parity_impossible(candidates: Sequence[tuple[int, ...]]) -> bool:
    """True when no vertex has candidates of both parities and the lowest
    ones sum to odd, by handshake. Every tuple is nonempty: factor_decide
    rejects empty clipped sets first, _solve_blocks queries no block with
    one, and a split's hull degree lies strictly inside the window."""
    return not any(map(_mixed, candidates)) and sum(c[0] for c in candidates) % 2 == 1


def _solve_blocks(g: Graph, allowed: Sequence[tuple[int, ...]], state: _SearchState) -> list[Edge] | None:
    """Factor edges of g where each vertex v ends with degree in allowed[v],
    or None if impossible, over g's block-cut tree. Leaves first, every
    block but a root is queried once per degree the vertex it hangs from can
    take in it, and those degrees are folded into that vertex's candidates;
    a root is queried once. Top down, each vertex unfolds its child blocks
    in reverse, each at the least degree that keeps its total a candidate
    from before that child's fold."""
    blocks, order, attach, pieces = g._block_tree
    if pieces and pieces[0][1] is None:  # one block spans g: the decision's only query
        return _solve_by_relaxation(g, tuple(allowed), state)
    # by_degree[i]: attachment's degree in block i -> block edges in its labels;
    # folds[v]: (child block, v's candidates before folding it in), in order.
    allowed = list(allowed)
    by_degree: list[dict[int, list[Edge]]] = [{} for _ in blocks]
    folds: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(g.n)]
    chosen: list[list[Edge] | None] = [None] * len(blocks)
    for i in reversed(order):
        block, v, piece = blocks[i], attach[i], pieces[i]
        sub = piece[1]
        candidates = [allowed[u] if u == v else allowed[u][:bisect_right(allowed[u], sub.degree(j))]
                      for j, u in enumerate(block)]
        if not all(candidates):
            return None
        if v == -1:
            chosen[i] = state.query(piece, tuple(candidates))
            if chosen[i] is None:
                return None
            continue
        c = block.index(v)
        for s in range(min(sub.degree(c), allowed[v][-1]) + 1):
            candidates[c] = (s,)
            state.charge()
            edges = state.query(piece, tuple(candidates))
            if edges is not None:
                by_degree[i][s] = edges
        folds[v].append((i, allowed[v]))
        allowed[v] = tuple(sorted({a - s for a in allowed[v] for s in by_degree[i] if a >= s}))
        if not allowed[v]:
            return None
    out: list[Edge] = []
    for i in order:
        block = blocks[i]
        degrees = subgraph_degrees(len(block), chosen[i])
        for j, v in enumerate(block):
            if v != attach[i]:
                d = degrees[j]
                for child, before in reversed(folds[v]):
                    s = next(s for s in by_degree[child] if d + s in before)
                    chosen[child] = by_degree[child][s]
                    d += s
        out.extend((block[u], block[w]) for u, w in chosen[i])
    return out


def _solve_by_relaxation(
    sub: Graph, candidates: tuple[tuple[int, ...], ...], state: _SearchState
) -> list[Edge] | None:
    """Branch and bound, depth first. A node tries every vertex at its lowest
    candidate, which settles a node of single candidates, then the hull: each
    vertex's candidates widened to a window. No hull factor prunes; one with
    every degree a candidate solves; else the first vertex whose degree d is
    in a gap splits below d, then above. The lower child keeps every lowest
    candidate, so it inherits whether that attempt already failed and skips it."""
    stack = [(candidates, False)]
    while stack:
        candidates, lows_failed = stack.pop()
        state.charge()
        if _parity_impossible(candidates):
            continue
        lows = [c[0] for c in candidates]
        if not lows_failed and sum(lows) % 2 == 0:
            edges = _prescribed_factor_edges(sub, lows)
            if edges is not None:
                return list(edges)
            lows_failed = True
        if all(len(c) == 1 for c in candidates):
            continue
        highs = [c[-1] for c in candidates]
        edges = _gadget_factor_edges(sub, lows, highs, [_mixed(c) for c in candidates])
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


def factor_decide(g: Graph, allowed: Sequence[FactorSpec], budget: int = DEFAULT_NODE_BUDGET) -> Decision:
    """Exact decision: does g have a spanning subgraph with each vertex v's
    degree in allowed[v]? The search space is the per-vertex assignments
    from the sets clipped to each degree, pruned by parity, the block-cut
    tree and relaxation; NotExists means it was provably exhausted, by
    "parity" when the sets as given fail the handshake on a component. The
    budget counts each branch and bound node and each query of a non-root
    block; a length other than g.n or a negative budget is a ValueError, a
    non-integral budget a TypeError."""
    budget = index(budget)
    if budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {budget}")
    if len(allowed) != g.n:
        raise ValueError(f"expected {g.n} degree sets, got {len(allowed)}")
    sets = [spec.allowed for spec in allowed]
    clipped = [a[:bisect_right(a, d)] for a, d in zip(sets, g.degrees())]
    if not all(clipped) or any(_parity_impossible([clipped[v] for v in comp]) for comp in g._components):
        parity = any(_parity_impossible([sets[v] for v in comp]) for comp in g._components)
        return Decision(NOT_EXISTS, METHOD_PARITY if parity else METHOD_EXHAUSTED, None, 0)
    state = _SearchState(budget)
    try:
        edges = _solve_blocks(g, clipped, state)
    except _BudgetExceeded:
        return Decision(INCONCLUSIVE, METHOD_BUDGET, None, state.nodes)
    if edges is None:
        return Decision(NOT_EXISTS, METHOD_EXHAUSTED, None, state.nodes)
    cert = tuple(sorted(edges))  # blocks partition g's edges, so each is canonical and distinct
    if not _is_factor(g, cert, clipped, lambda why: AssertionError(f"internal error: {why}")):
        raise AssertionError("internal error: search produced an invalid certificate")
    return Decision(EXISTS, METHOD_SEARCH, cert, state.nodes)


def h_factor_decide(g: Graph, spec: FactorSpec, budget: int = DEFAULT_NODE_BUDGET) -> Decision:
    """Exact decision: does g have a spanning subgraph with every vertex
    degree in spec? factor_decide with spec at every vertex."""
    return factor_decide(g, [spec] * g.n, budget)


def f_factor_decide(g: Graph, targets: Sequence[int]) -> Decision:
    """Exact decision: is there a spanning subgraph with degree targets[v]
    at every vertex? factor_decide over the sets {targets[v]}; a target
    outside 0..deg(v), or a length other than g.n, is a ValueError."""
    targets = list(map(index, targets))
    if len(targets) != g.n:
        raise ValueError(f"expected {g.n} degree targets, got {len(targets)}")
    for v, t in enumerate(targets):
        if t < 0:
            raise ValueError(f"negative degree target at vertex {v}")
        if t > g.degree(v):
            raise ValueError(f"degree target {t} at vertex {v} exceeds its degree {g.degree(v)}")
    specs = {t: FactorSpec.of(t) for t in set(targets)}  # each validated once, then shared
    return factor_decide(g, [specs[t] for t in targets])


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


def _euler_orientation(n: int, edges: Sequence[Edge]) -> list[bool]:
    """Walk canonical edges along Euler circuits by Hierholzer's stack, one
    circuit per component; every vertex must have even degree. The walk
    always leaves along the smallest unused edge. Flag i is True when edge
    i = (u, v) runs from v to u: each edge runs against the direction it was
    walked, as in the vertex path the stack pops, so in-degree = out-degree."""
    # Canonical order lists each vertex's (edge, other end, flag) ascending.
    incident: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append((i, v, True))
        incident[v].append((i, u, False))
    backward: list[bool | None] = [None] * len(edges)  # None: not walked yet
    untried = [iter(triples) for triples in incident]
    for start in range(n):
        stack = [start]
        while stack:
            for i, w, flag in untried[stack[-1]]:
                if backward[i] is None:
                    backward[i] = flag
                    stack.append(w)
                    break
            else:
                stack.pop()
    return backward


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
    for (u, v), backward in zip(g.edges, _euler_orientation(n, g.edges)):
        u, v = (v, u) if backward else (u, v)  # canonical order appends each list ascending
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
