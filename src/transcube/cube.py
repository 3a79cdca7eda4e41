"""Boolean cubes, the directed L1 metric, and cotransverse map tables.

The n-cube is the poset ``{0,1}^n`` under the coordinatewise order.  A
*cotransverse* map ``[m] -> [n]`` is a strictly increasing vertex map that
sends every pair at directed L1 distance 1 to a pair at directed L1
distance 1.  The cofaces (insertion of a constant coordinate), the adjacent
transpositions and the non-injective collapses such as
``(e1, e2) |-> (max(e1, e2), min(e1, e2))`` are all cotransverse, and the
cotransverse maps are closed under composition.

Vertices are stored as bit masks.  Coordinate ``i`` lives in bit ``i - 1``,
so coordinate 1 is the least significant bit.  A map ``[m] -> [n]`` is a
full table of ``2^m`` image masks, indexed by the source mask; tables are
validated at construction time and instances are immutable, so an invalid
table can never circulate as a :class:`CubeMap`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

#: Absorbing infinite value of the directed distance.
INF = float("inf")


def bit_height(bits: int) -> int:
    """Number of coordinates equal to 1 in a vertex mask."""
    return bits.bit_count()


def bits_leq(x: int, y: int) -> bool:
    """Coordinatewise order on vertex masks: every 1 of ``x`` is a 1 of ``y``."""
    return x & ~y == 0


@lru_cache(maxsize=4096)
def split_coordinates(lo: int, hi: int, n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Free and constant coordinates of the face of ``[n]`` spanned by ``lo <= hi``.

    The free positions (0-based) are those where the two vertices differ, in
    increasing order; every other position is constant at the value the two
    share and is reported as ``(position, value)``.  This is the one rule
    that places the coordinates of a coface composite: its free positions
    carry the source coordinates in order, the rest are constant 0 or 1.
    """
    free: list[int] = []
    consts: list[tuple[int, int]] = []
    for pos in range(n):
        if ((lo ^ hi) >> pos) & 1:
            free.append(pos)
        else:
            consts.append((pos, (lo >> pos) & 1))
    return tuple(free), tuple(consts)


def coface_table(base: int, free: tuple[int, ...]) -> tuple[int, ...]:
    """Table of the coface composite ``[len(free)] -> [n]`` that puts source
    coordinate ``k`` at position ``free[k]`` and holds every other position at
    its value in ``base``, which must be 0 on the free positions.

    Entry by entry, :func:`extract_bits` with the same positions inverts it.
    """
    table = [base]
    for pos in free:
        bit = 1 << pos
        table += [w | bit for w in table]
    return tuple(table)


def extract_bits(bits: int, positions: tuple[int, ...]) -> int:
    """Pack the bits of ``bits`` found at ``positions`` into a new mask, in order."""
    out = 0
    for k, pos in enumerate(positions):
        out |= ((bits >> pos) & 1) << k
    return out


@dataclass(frozen=True)
class Vertex:
    """A point of ``{0,1}^dim`` as a bit mask.  ``dim == 0`` encodes ``()``."""

    dim: int
    bits: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bits {self.bits} out of range for dimension {self.dim}")

    @classmethod
    def from_coords(cls, coords: tuple[int, ...]) -> Vertex:
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError("vertex coordinates must be 0 or 1")
            bits |= c << i
        return cls(len(coords), bits)

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.dim))

    def leq(self, other: Vertex) -> bool:
        self._check_dim(other)
        return bits_leq(self.bits, other.bits)

    def _check_dim(self, other: Vertex) -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords()) + ")"


def height(v: Vertex) -> int:
    """Coordinate sum of a vertex; strictly increases along the directed order."""
    return bit_height(v.bits)


def d1_vertex(x: Vertex, y: Vertex) -> int | float:
    """Directed L1 distance between vertices.

    Equals ``height(y) - height(x)`` when ``x <= y`` coordinatewise and is
    infinite otherwise.  Satisfies the Lawvere metric axioms (zero on the
    diagonal, triangle inequality with absorbing infinity) but is not
    symmetric.
    """
    x._check_dim(y)
    if bits_leq(x.bits, y.bits):
        return bit_height(y.bits) - bit_height(x.bits)
    return INF


@dataclass(frozen=True)
class Violation:
    """First axiom failure found while validating a map table."""

    axiom: str  # "shape" | "strictly-increasing" | "adjacency"
    pair: tuple[Vertex, Vertex] | None
    message: str

    def __bool__(self) -> bool:
        return False


@lru_cache(maxsize=16)
def _covering_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """The covering pairs ``(x, x | 1 << i)`` of ``[m]``, x ascending, then i."""
    return tuple((x, x | 1 << i) for x in range(1 << m) for i in range(m) if not (x >> i) & 1)


def validate_cotransverse(
    table: tuple[int, ...], m: int, n: int, pairwise: bool = False
) -> Violation | None:
    """Check a raw table against the cotransverse axioms.

    Returns ``None`` when the table is valid, otherwise a :class:`Violation`
    naming the first offending vertex pair.  The default check walks the
    covering pairs only, which suffices: strict monotonicity propagates along
    covering chains and every pair at distance 1 is a covering pair.  With
    ``pairwise=True`` all ``4^m`` vertex pairs are inspected instead; the
    quadratic mode exists as an oracle for the covering-pair optimisation.
    """
    if m > n:
        return Violation("shape", None, f"no cotransverse maps [{m}]->[{n}] with {m} > {n}")
    if len(table) != 1 << m:
        return Violation("shape", None, f"table must have {1 << m} entries, got {len(table)}")
    size = 1 << n
    for b in table:
        if not 0 <= b < size:
            return Violation("shape", None, f"image mask {b} out of range for [{n}]")

    def pair(x: int, y: int) -> tuple[Vertex, Vertex]:
        return (Vertex(m, x), Vertex(m, y))

    if pairwise:
        for x in range(1 << m):
            for y in range(1 << m):
                if x == y:
                    continue
                fx, fy = table[x], table[y]
                if bits_leq(x, y) and not (bits_leq(fx, fy) and fx != fy):
                    return Violation(
                        "strictly-increasing", pair(x, y), "x < y but not f(x) < f(y)"
                    )
                if bits_leq(x, y) and bit_height(y ^ x) == 1:
                    if not (bits_leq(fx, fy) and bit_height(fy) - bit_height(fx) == 1):
                        return Violation(
                            "adjacency", pair(x, y), "adjacent pair not sent to adjacent pair"
                        )
        return None

    # With d = f(x) ^ f(y): f(x) < f(y) iff d is nonzero and has no bit of
    # f(x); the images are then adjacent iff d is a single bit.
    for x, y in _covering_pairs(m):
        fx = table[x]
        d = fx ^ table[y]
        if d == 0 or d & fx:
            return Violation("strictly-increasing", pair(x, y), "x < y but not f(x) < f(y)")
        if d & (d - 1):
            return Violation(
                "adjacency", pair(x, y), "adjacent pair not sent to adjacent pair"
            )
    return None


@lru_cache(maxsize=4096)
def _preimages_of_one(m: int, n: int, table: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Preimage masks of each output coordinate of a table, memoised per table."""
    return tuple(tuple(x for x in range(1 << m) if (table[x] >> i) & 1) for i in range(n))


_LITERAL_RE = re.compile(r"^\s*(\d+)\s*>\s*(\d+)\s*:\s*(.*)$")


@dataclass(frozen=True)
class CubeMap:
    """A validated cotransverse map ``[dom_dim] -> [cod_dim]``.

    ``table[k]`` is the image mask of the vertex with mask ``k``.  Instances
    are immutable and hashable; construction fails on any table violating
    strict monotonicity or adjacency preservation.
    """

    dom_dim: int
    cod_dim: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        bad = validate_cotransverse(self.table, self.dom_dim, self.cod_dim)
        if bad is not None:
            raise ValueError(f"invalid cotransverse table: {bad.axiom}: {bad.message}")
        # Maps are set and dict keys everywhere; hash the table once.
        object.__setattr__(self, "_hash", hash((self.dom_dim, self.cod_dim, self.table)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CubeMap):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.table == other.table
            and self.dom_dim == other.dom_dim
            and self.cod_dim == other.cod_dim
        )

    # -- basic queries ----------------------------------------------------

    def is_endo(self) -> bool:
        return self.dom_dim == self.cod_dim

    def is_identity(self) -> bool:
        return self.is_endo() and all(self.table[k] == k for k in range(len(self.table)))

    def apply_bits(self, bits: int) -> int:
        return self.table[bits]

    def apply(self, v: Vertex) -> Vertex:
        if v.dim != self.dom_dim:
            raise ValueError(f"vertex of dimension {v.dim} fed to map from [{self.dom_dim}]")
        return Vertex(self.cod_dim, self.table[v.bits])

    def __call__(self, v: Vertex) -> Vertex:
        return self.apply(v)

    def preimages_of_one(self) -> tuple[tuple[int, ...], ...]:
        """For each output coordinate i, the source masks whose image has bit i set.

        Cached per table (bounded); the lists drive the max-min evaluation of
        the topologized map.
        """
        return _preimages_of_one(self.dom_dim, self.cod_dim, self.table)

    # -- literals ---------------------------------------------------------

    def literal(self) -> str:
        """Render as ``"m>n:a0,a1,..."`` with ``a_k`` the image mask of vertex ``k``."""
        return f"{self.dom_dim}>{self.cod_dim}:" + ",".join(str(b) for b in self.table)

    @classmethod
    def from_literal(cls, text: str) -> CubeMap:
        match = _LITERAL_RE.match(text)
        if match is None:
            raise ValueError(f"malformed map literal: {text!r}")
        m, n = int(match.group(1)), int(match.group(2))
        body = match.group(3).strip()
        entries = tuple(int(tok) for tok in body.split(",")) if body else ()
        return cls(m, n, entries)

    def __str__(self) -> str:
        return self.literal()


def compose(g: CubeMap, f: CubeMap) -> CubeMap:
    """Composite ``g o f``; requires ``f.cod_dim == g.dom_dim``."""
    if f.cod_dim != g.dom_dim:
        raise ValueError(
            f"cannot compose: inner map lands in [{f.cod_dim}], outer starts at [{g.dom_dim}]"
        )
    return CubeMap(f.dom_dim, g.cod_dim, tuple(map(g.table.__getitem__, f.table)))


def identity(n: int) -> CubeMap:
    return CubeMap(n, n, tuple(range(1 << n)))


def coface(i: int, alpha: int, n: int) -> CubeMap:
    """The coface ``[n-1] -> [n]`` inserting the constant ``alpha`` at coordinate ``i``."""
    if not 1 <= i <= n:
        raise ValueError(f"coface index {i} out of range for [{n}]")
    if alpha not in (0, 1):
        raise ValueError("coface value must be 0 or 1")
    return CubeMap(n - 1, n, coface_table(alpha << (i - 1), tuple(p for p in range(n) if p != i - 1)))


def symmetry(i: int, n: int) -> CubeMap:
    """The transposition of coordinates ``i`` and ``i+1`` of ``[n]``."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"symmetry index {i} out of range for [{n}]")

    def swap(x: int) -> int:
        a = (x >> (i - 1)) & 1
        b = (x >> i) & 1
        return x & ~(1 << (i - 1)) & ~(1 << i) | (b << (i - 1)) | (a << i)

    return CubeMap(n, n, tuple(swap(x) for x in range(1 << n)))


def max_min_collapse() -> CubeMap:
    """The square collapse ``(e1, e2) |-> (max(e1, e2), min(e1, e2))``.

    The archetypal transverse degeneracy: non-injective, yet strictly
    increasing and adjacency-preserving.  It crushes the square onto the
    lower staircase transversally to the diagonal flow of time.
    """
    return CubeMap(2, 2, (0, 1, 1, 3))


def min_max_collapse() -> CubeMap:
    """The mirror collapse ``(e1, e2) |-> (min(e1, e2), max(e1, e2))``."""
    return CubeMap(2, 2, (0, 2, 2, 3))


def vertices(n: int) -> Iterator[Vertex]:
    for bits in range(1 << n):
        yield Vertex(n, bits)
