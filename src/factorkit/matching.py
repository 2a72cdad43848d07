"""Maximum cardinality matching in general graphs (blossom contraction).

The algorithm grows an alternating BFS tree from each exposed vertex; an
edge joining two even-level vertices of the tree closes an odd cycle, which
is contracted by rebasing every cycle vertex onto the lowest common ancestor
of the two endpoints. O(V^3) worst case, entirely deterministic: vertices
are scanned in increasing id and the tree is grown in FIFO order. Each
search resets, marks and contracts only its own tree, so its work follows
the tree, not n; contraction visits the tree in ascending id, the order of
a full scan.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def maximum_matching(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
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


def matching_size(mate: Sequence[int]) -> int:
    return sum(1 for v, u in enumerate(mate) if u > v)


def is_perfect(mate: Sequence[int]) -> bool:
    return all(u != -1 for u in mate)
