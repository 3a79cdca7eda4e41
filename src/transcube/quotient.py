"""Deterministic quotient sets, computed by union-find.

Coends, pushouts and latching objects are all computed here as quotients of
finite disjoint unions by generated identifications.  Elements are
registered in a fixed order and every class reports the least-recently
registered member as its canonical representative, so quotients are
reproducible run to run.
"""

from __future__ import annotations

from typing import Hashable, Iterable


class QuotientSet:
    """A finite set presented as representatives of generated identifications."""

    def __init__(self, elements: Iterable[Hashable]) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._order: dict[Hashable, int] = {}
        for e in elements:
            if e not in self._parent:
                self._parent[e] = e
                self._order[e] = len(self._order)

    def identify(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.class_of(a), self.class_of(b)
        if ra == rb:
            return
        # Older element wins, keeping representatives stable.
        if self._order[rb] < self._order[ra]:
            ra, rb = rb, ra
        self._parent[rb] = ra

    def class_of(self, e: Hashable) -> Hashable:
        """The root of ``e``'s class.  "Older root wins" makes it the
        least-recently registered member, i.e. the canonical representative."""
        root = e
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[e] != root:  # path compression
            self._parent[e], e = root, self._parent[e]
        return root

    def classes(self) -> list[list[Hashable]]:
        """Equivalence classes in registration order, members ordered too."""
        by_root: dict[Hashable, list[Hashable]] = {}
        for e in self._order:  # insertion order
            by_root.setdefault(self.class_of(e), []).append(e)
        return list(by_root.values())

    def representatives(self) -> list[Hashable]:
        return [cls[0] for cls in self.classes()]

    def __len__(self) -> int:
        """Number of classes: the elements that are their own root."""
        return sum(1 for e, parent in self._parent.items() if e == parent)

    def is_empty(self) -> bool:
        return len(self) == 0
