"""Generators for the hub-and-blocks regular families G1 and G2.

The building block is the near-complete graph on r+1 vertices (the complete
graph minus one edge); its two degree-(r-1) endpoints are the "unsaturated"
pair. G1 links one hub vertex to every unsaturated vertex of r/2 disjoint
blocks (r/2 odd); G2 uses two hubs u, v and r blocks, with u covering the
first r/2 - 1 blocks plus one unsaturated vertex in each of the last two
blocks, and v symmetrically covering the rest. Both families are r-regular
and, for suitable odd k, admit no spanning subgraph with all degrees in
{k, r-k}: the blocks hang off the hubs by so few edges that parity pins the
hub degrees to values outside the set.

Both families come from one builder that takes, per block, the hubs its two
unsaturated vertices join. Vertex labeling is fixed: blocks occupy
consecutive id ranges in order, each block's unsaturated pair first (offsets
0 and 1), hubs take the highest ids. Same input, byte-identical output,
every run.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .graph import Graph


class CaseLabel(enum.Enum):
    """Which construction (if any) settles a given (r, k) query.

    For even r and odd k with 1 <= k <= r/2: k = r/2 is settled positively
    (every connected even-order instance has the factor, by the Gallai
    bound with m = 2); r/2 odd sends the rest to G1; r/2 even sends
    k <= r/2 - 3 to G2 and leaves k = r/2 - 1 to a separate published
    construction not generated here.
    """

    GALLAI_HALF = "gallai-half"
    G1 = "g1"
    G2 = "g2"
    EXTERNAL = "external"
    INVALID = "invalid"


class Block(NamedTuple):
    """A near-complete block: K_{r+1} minus one edge, plus its designated
    unsaturated pair (the two endpoints of the removed edge)."""

    graph: Graph
    unsaturated: tuple[int, int]


class ConstructionOutput(NamedTuple):
    """A generated family member with its labeling map.

    block_ranges lists (first id, last id, unsaturated pair) per block; the
    ranges partition the non-hub vertices.
    """

    graph: Graph
    hubs: tuple[int, ...]
    block_ranges: tuple[tuple[int, int, tuple[int, int]], ...]
    family: str
    r: int

    def to_descriptor(self) -> dict:
        """JSON-ready summary: {r, family, hubs, blocks}."""
        return {
            "r": self.r,
            "family": self.family,
            "hubs": list(self.hubs),
            "blocks": [
                {"range": [first, last], "unsaturated": list(pair)}
                for first, last, pair in self.block_ranges
            ],
        }


def near_complete_block(r: int) -> Block:
    """K_{r+1} minus the edge {0, 1}, for even r >= 2.

    Vertices 0 and 1 are the unsaturated pair (degree r-1, non-adjacent);
    the other r-1 vertices have degree r.
    """
    if r < 2 or r % 2 == 1:
        raise ValueError(f"block degree must be even and >= 2, got {r}")
    n = r + 1
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)
    ]
    return Block(Graph(n, tuple(edges)), (0, 1))


def classify_case(r: int, k: int) -> CaseLabel:
    """Deterministic case split for the (r, k) query; total on all integer
    inputs, with Invalid as the label for inputs violating the parity and
    range constraints (r even, k odd, 1 <= k <= r/2)."""
    if r <= 0 or r % 2 == 1 or k <= 0 or k % 2 == 0 or k > r // 2:
        return CaseLabel.INVALID
    half = r // 2
    if k == half:
        return CaseLabel.GALLAI_HALF
    if half % 2 == 1:
        return CaseLabel.G1
    if k == half - 1:
        return CaseLabel.EXTERNAL
    return CaseLabel.G2


def _hub_family(r: int, family: str, attach: list[tuple[int, int]]) -> ConstructionOutput:
    """Blocks of degree r in id order, block b's unsaturated pair joined to
    the hubs attach[b] (0-based hub indices); the hubs take the highest ids."""
    block = near_complete_block(r)
    size = r + 1
    hub_count = 1 + max(max(pair) for pair in attach)
    n = len(attach) * size + hub_count
    first_hub = n - hub_count
    edges: list[tuple[int, int]] = []
    ranges = []
    for b, pair in enumerate(attach):
        off = b * size
        edges.extend((off + x, off + y) for x, y in block.graph.edges)
        edges.extend((off + i, first_hub + hub) for i, hub in enumerate(pair))
        ranges.append((off, off + size - 1, (off, off + 1)))
    return ConstructionOutput(
        graph=Graph(n, tuple(edges)),
        hubs=tuple(range(first_hub, n)),
        block_ranges=tuple(ranges),
        family=family,
        r=r,
    )


def build_g1(r: int) -> ConstructionOutput:
    """The single-hub family: r/2 near-complete blocks with one hub vertex
    adjacent to all r unsaturated vertices. Requires even r >= 6 with r/2
    odd; the result is r-regular and connected on r(r+1)/2 + 1 vertices."""
    if r % 2 == 1 or r < 6 or (r // 2) % 2 == 0:
        raise ValueError(
            f"the single-hub family needs even r >= 6 with r/2 odd, got {r}"
        )
    return _hub_family(r, "G1", [(0, 0)] * (r // 2))


def build_g2(r: int) -> ConstructionOutput:
    """The two-hub family: r near-complete blocks and non-adjacent hubs u, v.
    Hub u takes both unsaturated vertices of blocks 1..r/2-1 plus the first
    unsaturated vertex of blocks r-1 and r; hub v symmetrically takes blocks
    r/2..r-2 plus the second unsaturated vertex of the last two blocks.
    Requires even r >= 8 with r/2 even; the result is r-regular and
    connected on r(r+1) + 2 vertices."""
    if r % 2 == 1 or r < 8 or (r // 2) % 2 == 1:
        raise ValueError(
            f"the two-hub family needs even r >= 8 with r/2 even, got {r}"
        )
    half = r // 2
    return _hub_family(r, "G2", [(0, 0)] * (half - 1) + [(1, 1)] * (half - 1) + [(0, 1)] * 2)
