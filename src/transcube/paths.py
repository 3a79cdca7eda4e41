"""Piecewise-linear directed paths in cubes and their transport.

A directed path of the solid cube is coordinatewise nondecreasing, starts
and ends at vertices, and is nonconstant.  Paths here are piecewise linear
with exact rational breakpoints, which keeps every check exact and is
closed under transport: the topologized extension of a cotransverse map
acts between coordinate crossings as a coordinate permutation, so inserting
breakpoints at the crossing times keeps the image piecewise linear.

A path is *natural* when its clock is its height: at parameter ``t`` the
coordinate sum exceeds the starting coordinate sum by exactly ``t``.  For
paths starting at the bottom vertex this says the coordinate sum equals the
time; a path up a proper face satisfies the same condition relative to the
face it spans.  Naturality is equivalent to the path being a quasi-isometry
from the directed interval, and every directed path can be reparametrized
onto it (:func:`naturalize`).

Multi-cube paths are Moore compositions of single-cube legs; the legs refer
to cubes of an ambient symmetric transverse set and consecutive legs must
meet at the same vertex of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cube import CubeMap, Vertex, bits_leq, coface_table, compose, split_coordinates
from .homsets import factorize
from .topo import point_height, t_eval

Point = tuple[Fraction, ...]
Breakpoint = tuple[Fraction, Point]


@dataclass(frozen=True)
class SegmentPath:
    """A piecewise-linear path in one cube: breakpoints with strictly
    increasing times, linearly interpolated in between."""

    dim: int
    breakpoints: tuple[Breakpoint, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) < 2:
            raise ValueError("a path needs at least two breakpoints")
        for t, pt in self.breakpoints:
            if len(pt) != self.dim:
                raise ValueError("breakpoint dimension mismatch")
            if any(not 0 <= c <= 1 for c in pt):
                raise ValueError("coordinates must lie in [0, 1]")
        times = [t for t, _ in self.breakpoints]
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")

    @property
    def start(self) -> Point:
        return self.breakpoints[0][1]

    @property
    def end(self) -> Point:
        return self.breakpoints[-1][1]

    @property
    def duration(self) -> Fraction:
        return self.breakpoints[-1][0] - self.breakpoints[0][0]

    def at(self, t: Fraction) -> Point:
        """Value at time ``t`` (linear interpolation between breakpoints)."""
        bps = self.breakpoints
        if not bps[0][0] <= t <= bps[-1][0]:
            raise ValueError("time outside the path domain")
        for (t0, p0), (t1, p1) in zip(bps, bps[1:]):
            if t <= t1:
                lam = (t - t0) / (t1 - t0)
                return tuple(a + lam * (b - a) for a, b in zip(p0, p1))
        return bps[-1][1]


def segment_path(dim: int, pairs: Sequence[tuple]) -> SegmentPath:
    """Build a path from ``(time, coords)`` pairs, coercing to fractions."""
    bps = tuple(
        (Fraction(t), tuple(Fraction(c) for c in pt)) for t, pt in pairs
    )
    return SegmentPath(dim, bps)


def _vertex_bits(pt: Point) -> int | None:
    bits = 0
    for i, c in enumerate(pt):
        if c == 1:
            bits |= 1 << i
        elif c != 0:
            return None
    return bits


@dataclass(frozen=True)
class DPathReport:
    ok: bool
    reason: str = ""
    segment: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_dpath(p: SegmentPath) -> DPathReport:
    """Directedness check: nondecreasing coordinates, vertex endpoints,
    nonconstant.  Reports the first offending segment."""
    for idx, ((_, a), (_, b)) in enumerate(zip(p.breakpoints, p.breakpoints[1:])):
        if any(x > y for x, y in zip(a, b)):
            return DPathReport(False, "a coordinate decreases", idx)
    if _vertex_bits(p.start) is None:
        return DPathReport(False, "path does not start at a vertex")
    if _vertex_bits(p.end) is None:
        return DPathReport(False, "path does not end at a vertex")
    if p.start == p.end and all(pt == p.start for _, pt in p.breakpoints):
        return DPathReport(False, "path is constant")
    return DPathReport(True)


def is_natural(p: SegmentPath) -> bool:
    """Whether the height climbed equals the time elapsed, exactly.

    Requires time to start at 0, every breakpoint to satisfy
    ``height(point) - height(start) == time``, the slopes on every segment
    to sum to 1, and the domain to be ``[0, d1(start, end)]``.  For a path
    from the bottom vertex this is literally "coordinate sum equals time".
    """
    if not is_dpath(p):
        return False
    t0, start = p.breakpoints[0]
    if t0 != 0:
        return False
    h0 = point_height(start)
    for t, pt in p.breakpoints:
        if point_height(pt) - h0 != t:
            return False
    # Breakpoint heights pin the segment slope sums; the explicit check
    # guards against a malformed interpolation convention.
    for (ta, a), (tb, b) in zip(p.breakpoints, p.breakpoints[1:]):
        if point_height(b) - point_height(a) != tb - ta:
            return False
    return True


def naturalize(p: SegmentPath) -> SegmentPath:
    """Reparametrize a directed path so that time equals height climbed.

    Intervals where the height is constant carry a constant path (the
    coordinates are nondecreasing with a constant sum) and are collapsed to
    a single breakpoint.  The image of the path is unchanged and the result
    is natural; naturalizing twice is the same as once.
    """
    report = is_dpath(p)
    if not report:
        raise ValueError(f"not a directed path: {report.reason}")
    h0 = point_height(p.start)
    bps: list[Breakpoint] = []
    for _, pt in p.breakpoints:
        t = point_height(pt) - h0
        if bps and bps[-1][0] == t:
            continue  # constant stretch: keep the first occurrence
        bps.append((t, pt))
    return SegmentPath(p.dim, tuple(bps))


def transport(f: CubeMap, p: SegmentPath) -> SegmentPath:
    """Push a path forward through the topologized extension of ``f``.

    Breakpoints are added wherever two coordinates cross inside a segment
    (exact rational roots of linear equations), after which the extension
    restricts to a fixed coordinate permutation on each piece, so mapping
    the refined breakpoints gives the exact image path.  Natural paths stay
    natural: the extension preserves finite directed distances, hence the
    height climbed from the start.
    """
    if p.dim != f.dom_dim:
        raise ValueError(f"path of dimension {p.dim} fed to map from [{f.dom_dim}]")
    refined: list[Breakpoint] = [p.breakpoints[0]]
    for (t0, a), (t1, b) in zip(p.breakpoints, p.breakpoints[1:]):
        cuts: set[Fraction] = set()
        for i in range(p.dim):
            for j in range(i + 1, p.dim):
                da = a[i] - a[j]
                db = b[i] - b[j]
                if da == db:
                    continue
                lam = da / (da - db)
                if 0 < lam < 1:
                    cuts.add(t0 + lam * (t1 - t0))
        for t in sorted(cuts):
            refined.append((t, p.at(t)))
        refined.append((t1, b))
    mapped = tuple((t, t_eval(f, pt)) for t, pt in refined)
    return SegmentPath(f.cod_dim, mapped)


@dataclass(frozen=True)
class DPath:
    """A Moore composition of single-cube legs inside an ambient symmetric
    transverse set.  Each leg is a ``(cube id, path)`` pair with the leg's
    own clock starting at 0."""

    legs: tuple[tuple[int, SegmentPath], ...]

    def __post_init__(self) -> None:
        if not self.legs:
            raise ValueError("a path needs at least one leg")
        for _, seg in self.legs:
            if seg.breakpoints[0][0] != 0:
                raise ValueError("each leg must start its clock at 0")

    @property
    def duration(self) -> Fraction:
        return sum((seg.duration for _, seg in self.legs), Fraction(0))


def dpath_endpoints(sts, p: DPath) -> tuple[int, int]:
    """Initial and final vertex ids of a multi-cube path."""
    first_cube, first = p.legs[0]
    last_cube, last = p.legs[-1]
    a = _vertex_bits(first.start)
    b = _vertex_bits(last.end)
    if a is None or b is None:
        raise ValueError("legs must start and end at vertices")
    return sts.vertex_of(first_cube, a), sts.vertex_of(last_cube, b)


def validate_dpath(sts, p: DPath) -> None:
    """Check leg directedness and endpoint compatibility through the ambient
    set: the end vertex of each leg must be the start vertex of the next."""
    for cube_id, seg in p.legs:
        if sts.dim_of[cube_id] != seg.dim:
            raise ValueError("leg dimension does not match its cube")
        report = is_dpath(seg)
        if not report:
            raise ValueError(f"leg is not a directed path: {report.reason}")
    for (c1, s1), (c2, s2) in zip(p.legs, p.legs[1:]):
        end = sts.vertex_of(c1, _vertex_bits(s1.end))
        start = sts.vertex_of(c2, _vertex_bits(s2.start))
        if end != start:
            raise ValueError("consecutive legs do not meet at a common vertex")


def moore_compose(sts, p: DPath, q: DPath) -> DPath:
    """Concatenate two composable paths.  Strictly associative, lengths add,
    and per-leg naturality is preserved."""
    _, p_end = dpath_endpoints(sts, p)
    q_start, _ = dpath_endpoints(sts, q)
    if p_end != q_start:
        raise ValueError("paths do not meet at a common vertex")
    return DPath(p.legs + q.legs)


@dataclass(frozen=True)
class NaturalityCertificate:
    """Per-leg naturality verification of a multi-cube path."""

    natural: bool
    total_length: Fraction
    legs: tuple[tuple[int, Fraction, bool], ...]  # (cube id, height climbed, natural)

    def __bool__(self) -> bool:
        return self.natural


def naturality_certificate(p: DPath) -> NaturalityCertificate:
    records = []
    total = Fraction(0)
    ok = True
    for cube_id, seg in p.legs:
        climbed = point_height(seg.end) - point_height(seg.start)
        nat = is_natural(seg)
        ok = ok and nat
        total += climbed
        records.append((cube_id, climbed, nat))
    return NaturalityCertificate(ok, total, tuple(records))


def induced_coface(alpha: Vertex, beta: Vertex) -> CubeMap:
    """The unique coface composite sending the bottom of ``[k]`` to ``alpha``
    and the top to ``beta``, where ``k`` is their directed distance.

    The coordinates where the two vertices differ become the free
    coordinates (in increasing order); the rest are constant at the shared
    value.  Requires ``alpha`` strictly below ``beta``.
    """
    alpha._check_dim(beta)
    if not (bits_leq(alpha.bits, beta.bits) and alpha.bits != beta.bits):
        raise ValueError(f"{alpha} is not strictly below {beta}")
    return _induced_coface(alpha.bits, beta.bits, alpha.dim)


@lru_cache(maxsize=4096)
def _induced_coface(lo: int, hi: int, n: int) -> CubeMap:
    free, _ = split_coordinates(lo, hi, n)
    return CubeMap(len(free), n, coface_table(lo, free))


def induced_path_map(f: CubeMap, alpha: Vertex, beta: Vertex) -> CubeMap:
    """The endomap of ``[k]`` a cotransverse map induces between the faces
    spanned by ``alpha < beta`` and by their images.

    Restrict ``f`` to the face through ``alpha`` and ``beta`` and factor the
    composite: the coface part lands on the face spanned by ``f(alpha)`` and
    ``f(beta)`` and the endomap part is the induced map.  Satisfies the
    cocycle law: composing maps composes the induced maps along matching
    endpoints.
    """
    if alpha.dim != f.dom_dim:
        raise ValueError("endpoints must live in the source cube")
    delta = induced_coface(alpha, beta)
    fac = factorize(compose(f, delta))
    fa, fb = f.table[alpha.bits], f.table[beta.bits]
    if fac.phi.table[0] != fa or fac.phi.table[-1] != fb:
        raise AssertionError("coface part does not span the image face")
    return fac.psi
