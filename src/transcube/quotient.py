"""Deterministic union-find and quotient sets.

Coends, pushouts and latching objects are all computed here as quotients of
finite disjoint unions by generated identifications.  Elements are
registered in a fixed order and every class reports the least-recently
registered member as its canonical representative, so quotients are
reproducible run to run.
"""

from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    """Union-find over hashable elements with insertion-order canonical reps."""

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._order: dict[Hashable, int] = {}
        for e in elements:
            self.add(e)

    def add(self, e: Hashable) -> None:
        if e not in self._parent:
            self._parent[e] = e
            self._order[e] = len(self._order)

    def __contains__(self, e: Hashable) -> bool:
        return e in self._parent

    def find(self, e: Hashable) -> Hashable:
        root = e
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[e] != root:  # path compression
            self._parent[e], e = root, self._parent[e]
        return root

    def unite(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # Older element wins, keeping representatives stable.
        if self._order[rb] < self._order[ra]:
            ra, rb = rb, ra
        self._parent[rb] = ra

    def classes(self) -> list[list[Hashable]]:
        """Equivalence classes in registration order, members ordered too."""
        by_root: dict[Hashable, list[Hashable]] = {}
        for e in self._order:  # insertion order
            by_root.setdefault(self.find(e), []).append(e)
        return list(by_root.values())

    def representatives(self) -> list[Hashable]:
        return [cls[0] for cls in self.classes()]

    def class_count(self) -> int:
        """Number of classes: the elements that are their own root."""
        return sum(1 for e, parent in self._parent.items() if e == parent)


class QuotientSet:
    """A finite set presented as representatives of generated identifications."""

    def __init__(self, elements: Iterable[Hashable]) -> None:
        self._uf = UnionFind(elements)

    def identify(self, a: Hashable, b: Hashable) -> None:
        self._uf.unite(a, b)

    def class_of(self, e: Hashable) -> Hashable:
        # "Older root wins" makes the root the least-recently registered
        # member, i.e. the canonical representative.
        return self._uf.find(e)

    def classes(self) -> list[list[Hashable]]:
        return self._uf.classes()

    def representatives(self) -> list[Hashable]:
        return self._uf.representatives()

    def __len__(self) -> int:
        return self._uf.class_count()

    def is_empty(self) -> bool:
        return len(self) == 0
