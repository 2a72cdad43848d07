"""Maximum and perfect matching in general graphs (blossom contraction).

The algorithm grows an alternating BFS tree from each exposed vertex; an
edge joining two even-level vertices of the tree closes an odd cycle, which
is contracted by rebasing every cycle vertex onto the lowest common ancestor
of the two endpoints. O(V^3) worst case, entirely deterministic: vertices
are scanned in increasing id and the tree is grown in FIFO order. Each
search resets only its own tree, so its work follows the tree, not n. Each
blossom base keeps the list of tree vertices it holds, so a contraction
costs its blossom, not the tree (as in Gabow 1976); it rebases the members
in ascending id, the order of a scan over the whole tree.

`perfect_matching` stops at the first root whose search fails, since that
vertex stays exposed in every later matching (Edmonds 1965); the failed
tree's odd vertices outside any blossom form a Tutte barrier (Lovasz and
Plummer, Matching Theory, ch. 3), which `check_barrier` recounts by BFS.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def maximum_matching(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Return mate[v] for a maximum matching; -1 marks exposed vertices.

    adj[v] lists the neighbors of v; the caller fixes the scan order (sorted
    neighbor lists give the reference deterministic behavior).
    """
    return _match(n, adj, False)[0]


def perfect_matching(n: int, adj: Sequence[Sequence[int]]) -> tuple[list[int] | None, list[int] | None]:
    """(mate, None) for a perfect matching, else (None, barrier): a sorted
    Tutte barrier A, whose removal leaves more than |A| odd components.
    No search fails when a perfect matching exists, so mate is then
    maximum_matching's."""
    return _match(n, adj, True)


def _match(n: int, adj: Sequence[Sequence[int]], stop_on_failure: bool):
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

    def mark_path(v: int, stop: int, child: int, marked: list[int]) -> None:
        # Marks and records each base on the path from v up to stop once.
        while base[v] != stop:
            for b in (base[v], base[mate[v]]):
                if mark[b] != stamp:
                    mark[b] = stamp
                    marked.append(b)
            parent[v] = child
            child = mate[v]
            v = parent[child]

    def find_augmenting_path(root: int) -> int:
        nonlocal stamp
        for i in tree:
            parent[i] = -1
            base[i] = i
            used[i] = False
        tree[:] = [root]
        used[root] = True
        # held[b]: the tree vertices whose base is b, for each blossom base b;
        # any other tree vertex is its own base and holds only itself.
        held: dict[int, list[int]] = {}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            mate_v = mate[v]
            for to in adj[v]:
                if base[v] == base[to] or mate_v == to:
                    continue
                mate_to = mate[to]
                if to == root or (mate_to != -1 and parent[mate_to] != -1):
                    # Both endpoints are even: contract the blossom, under a
                    # fresh stamp so lca's root-path marks are not read as its.
                    stop = lca(v, to)
                    stamp += 1
                    marked: list[int] = []
                    mark_path(v, stop, to, marked)
                    mark_path(to, stop, v, marked)
                    # Ascending id, the order of a scan over the whole tree.
                    members = sorted([i for b in marked for i in held.pop(b, (b,))])
                    for i in members:
                        base[i] = stop
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
                    held.setdefault(stop, [stop]).extend(members)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.append(to)
                    if mate_to == -1:
                        return to
                    used[mate_to] = True
                    tree.append(mate_to)
                    queue.append(mate_to)
        return -1

    for v in range(n):
        if mate[v] == -1:
            end = find_augmenting_path(v)
            if end == -1 and stop_on_failure:
                return None, sorted(i for i in tree if not used[i])
            while end != -1:
                prev = parent[end]
                next_end = mate[prev]
                mate[end] = prev
                mate[prev] = end
                end = next_end
    return mate, None


def check_barrier(n: int, adj: Sequence[Sequence[int]], barrier: Sequence[int]) -> bool:
    """True iff barrier holds distinct vertices whose removal leaves more
    odd components than it has vertices (so no perfect matching exists)."""
    seen = [False] * n
    for a in barrier:
        if not 0 <= a < n or seen[a]:
            return False
        seen[a] = True
    odd = 0
    for s in range(n):
        if not seen[s]:
            seen[s] = True
            component = [s]
            for v in component:
                for u in adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        component.append(u)
            odd += len(component) % 2
    return odd > len(barrier)
