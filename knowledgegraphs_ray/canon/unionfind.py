"""Union-find (disjoint set) — the canonicalization core.

Reference: AAExpansion/source/util/UnionFind.py:30-71 (used by
NearDuplicates.py:53-79 to cluster near-duplicate strings). Plain, pure,
driver/worker agnostic — one instance per blocking key inside
``canonicalize.canonical_rows`` so no global mutable state exists.
"""

from __future__ import annotations


class UnionFind:
    def __init__(self, items=()):
        self.parent: dict = {}
        for it in items:
            self.parent.setdefault(it, it)

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # deterministic: smaller value becomes the root (stable canonical rep)
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra

    def groups(self) -> dict:
        out: dict = {}
        for x in list(self.parent):
            out.setdefault(self.find(x), []).append(x)
        return {k: sorted(v) for k, v in out.items()}
