"""Machine checks for the three factor theorems on concrete graphs.

gallai_check tests the hypotheses of the Gallai bound (an m-edge-connected
r-regular graph of even order has a k-factor whenever r is even, k is odd,
and r/m <= k <= r(1 - 1/m)); verify_theorem2 confirms, on one instance, the
equivalence "an r/2-factor exists iff the order is even" for connected
r-regular graphs with r/2 odd; hub_parity_analysis builds the certificate
behind the negative results: when a hub set carries odd-order components and
only odd degrees are allowed, every component must send an odd number of
factor edges into the hubs, which pins each hub's achievable factor degree
to a small set computable from edge counts alone. If that set misses the
allowed degrees for some hub, no factor exists. The certificate is one flat
record, and check_certificate confirms it by deriving it again from the
graph, hubs and spec and comparing, without any factor search.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import index
from typing import Iterable

from .graph import Graph, connected_components, edge_connectivity, is_connected, regularity
from .solver import FactorSpec, h_factor_decide


@dataclass(frozen=True)
class GallaiReport:
    """Hypothesis report for the Gallai k-factor bound on one graph.

    applicable is the conjunction of all hypotheses: r even, k odd, even
    order, m >= 1, and r/m <= k <= r(1 - 1/m) (checked in exact integer
    arithmetic). reason names the first failing hypothesis, if any.
    """

    r: int | None
    m: int
    k: int
    n_even: bool
    bounds_ok: bool
    applicable: bool
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def gallai_check(g: Graph, k: int) -> GallaiReport:
    """Evaluate the Gallai bound's hypotheses for a k-factor of g.

    Never decides existence itself; when applicable is True, a factor
    search must succeed, which makes this a cross-check on the solver. A
    non-integral k is a TypeError, and a negative k a ValueError.
    """
    k = index(k)
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    n_even = g.n % 2 == 0
    r = regularity(g)
    if r is None:
        return GallaiReport(None, 0, k, n_even, False, False, "graph is not regular")
    m = edge_connectivity(g) if g.n >= 2 else 0
    bounds_ok = m >= 1 and k * m >= r and k * m <= r * (m - 1)
    reason = None
    if r % 2 == 1:
        reason = "degree r is odd"
    elif k % 2 == 0:
        reason = "k is even"
    elif not n_even:
        reason = "odd number of vertices"
    elif m < 1:
        reason = "graph is disconnected"
    elif not bounds_ok:
        reason = f"k={k} outside [r/m, r(1-1/m)] for r={r}, m={m}"
    applicable = reason is None
    return GallaiReport(r, m, k, n_even, bounds_ok, applicable, reason)


def verify_theorem2(g: Graph) -> bool | None:
    """Check both directions of "an r/2-factor exists iff the order is even"
    on a connected r-regular graph with r/2 odd.

    The positive direction demands an actual certificate from the solver,
    not just the Gallai hypotheses. Returns True iff the equivalence holds
    on this instance (anything else would be a counterexample), and None
    when the search uses up its node budget.
    """
    r = regularity(g)
    if r is None:
        raise ValueError("graph must be regular")
    if r % 2 == 1 or (r // 2) % 2 == 0:
        raise ValueError(f"need even r with r/2 odd, got r={r}")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    exists = h_factor_decide(g, FactorSpec.of(r // 2)).exists
    return None if exists is None else exists == (g.n % 2 == 0)


@dataclass(frozen=True)
class NoFactorCertificate:
    """A machine-checkable parity argument that no factor exists.

    hubs are sorted vertex ids; components are the components of the graph
    minus the hubs, each of odd order; cross_edges[i][j] counts the graph
    edges between component i and hub j. achievable_hub_degrees (aligned
    with hubs) follows from those counts and the spec alone, since each
    component must send an odd number of factor edges into the hubs.
    conclusion is True when some hub's achievable set misses every allowed
    degree, which rules the factor out without any search.
    """

    hubs: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    cross_edges: tuple[tuple[int, ...], ...]  # [component][hub index]
    spec: FactorSpec
    achievable_hub_degrees: tuple[tuple[int, ...], ...]
    conclusion: bool

    def to_json_dict(self) -> dict:
        return {
            "hubs": list(self.hubs),
            "components": [list(c) for c in self.components],
            "cross_edges": [list(row) for row in self.cross_edges],
            "spec": list(self.spec.allowed),
            "achievable": {
                str(h): list(degs) for h, degs in zip(self.hubs, self.achievable_hub_degrees)
            },
            "conclusion": self.conclusion,
        }


def _achievable_hub_degrees(
    g: Graph, hubs: tuple[int, ...], cross_edges: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Per hub, every factor degree consistent with the parity constraints:
    each component contributes some split of an odd total across the hubs,
    bounded by the available cross edges; edges between hubs may contribute
    freely. Exhaustive over per-component contributions (Minkowski sums)."""
    hub_set = set(hubs)
    result = []
    for j, h in enumerate(hubs):
        contributions: set[int] = {0}
        for row in cross_edges:
            here = row[j]
            elsewhere = sum(row) - here
            options = [t for t in range(here + 1) if t % 2 == 1 or elsewhere >= 1]
            contributions = {c + t for c in contributions for t in options}
        hub_hub = sum(1 for w in g.neighbors(h) if w in hub_set)
        result.append(
            tuple(sorted({c + b for c in contributions for b in range(hub_hub + 1)}))
        )
    return tuple(result)


def hub_parity_analysis(
    g: Graph, hubs: Iterable[int], spec: FactorSpec
) -> NoFactorCertificate | None:
    """Build a nonexistence certificate from the hub parity argument, or
    return None when its hypotheses fail (that is a result, not a fault).

    Hypotheses: every allowed degree is odd, and every component of the
    graph minus the hubs has an odd number of vertices. Then, within any
    factor, summing degrees over a component shows it sends an odd number
    of factor edges to the hubs; the certificate's conclusion is True when
    some hub's resulting achievable degree set is disjoint from the spec.
    """
    hubs = tuple(sorted(set(map(index, hubs))))
    if not hubs:
        raise ValueError("need at least one hub vertex")
    for h in hubs:
        if not 0 <= h < g.n:
            raise ValueError(f"hub {h} is not a vertex of the graph")
    if not spec.all_odd():
        return None
    components = tuple(tuple(comp) for comp in connected_components(g, hubs))
    if any(len(comp) % 2 == 0 for comp in components):
        return None
    cross = []
    for comp in components:
        comp_set = set(comp)
        cross.append(tuple(sum(1 for w in g.neighbors(h) if w in comp_set) for h in hubs))
    cross_edges = tuple(cross)
    achievable = _achievable_hub_degrees(g, hubs, cross_edges)
    allowed = set(spec.allowed)
    conclusion = any(not (set(degs) & allowed) for degs in achievable)
    return NoFactorCertificate(hubs, components, cross_edges, spec, achievable, conclusion)


def check_certificate(g: Graph, cert: NoFactorCertificate) -> bool:
    """Confirm a nonexistence certificate by deriving it again from the graph,
    its hubs and its spec, and comparing; no factor search is run. Any
    changed field, unsorted or duplicate hubs (the derivation sorts and
    dedupes them), or failed hypothesis makes it False."""
    try:
        return hub_parity_analysis(g, cert.hubs, cert.spec) == cert
    except (ValueError, IndexError, TypeError):
        return False
