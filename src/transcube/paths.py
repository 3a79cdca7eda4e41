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

Every check, sum and comparison here runs on plain integers: a path's
times and coordinates are written over one common denominator by
:func:`transcube.topo.common_numerators`, the only conversion rule, and
only the results are built back into Fractions.  Times and coordinates
must be ints or Fractions; floats are refused.

Multi-cube paths are Moore compositions of single-cube legs; the legs refer
to cubes of an ambient symmetric transverse set and consecutive legs must
meet at the same vertex of it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import ge, gt
from typing import NamedTuple, Sequence

from .cube import CubeMap, Frozen, InputError, Vertex, bits_leq, compose
from .homsets import charge, coface_part, factorize, with_peak
from .topo import _constant_ones, _walk, common_numerators, point_height

Point = tuple[Fraction, ...]
Breakpoint = tuple[Fraction, Point]


class SegmentPath(Frozen):
    """A piecewise-linear path in one cube: breakpoints with strictly
    increasing times, linearly interpolated in between.  Times and
    coordinates are ints or Fractions, and coordinates lie in [0, 1]."""

    __slots__ = ("dim", "breakpoints")

    def __init__(self, dim: int, breakpoints: tuple[Breakpoint, ...]) -> None:
        if len(breakpoints) < 2:
            raise InputError("a path needs at least two breakpoints")
        den, (times, *points), _ = _numerators(breakpoints)
        for pt in points:
            if len(pt) != dim:
                raise InputError("breakpoint dimension mismatch")
            if any(not 0 <= c <= den for c in pt):
                raise InputError("coordinates must lie in [0, 1]")
        if any(map(ge, times, times[1:])):
            raise InputError("breakpoint times must be strictly increasing")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "breakpoints", breakpoints)

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


def _checked_path(dim: int, breakpoints: tuple[Breakpoint, ...]) -> SegmentPath:
    """A path whose breakpoints pass the checks of :class:`SegmentPath` by
    construction, built without running them again: :func:`naturalize` and
    :func:`transport` build theirs from a path that passed them, and running
    the checks again would cost about as much as the work itself."""
    p = object.__new__(SegmentPath)
    object.__setattr__(p, "dim", dim)
    object.__setattr__(p, "breakpoints", breakpoints)
    return p


def segment_path(dim: int, pairs: Sequence[tuple]) -> SegmentPath:
    """Build a path from ``(time, coords)`` pairs, coercing to fractions; a
    ``Fraction`` is kept as it is."""
    bps = tuple((_fraction(t), tuple([_fraction(c) for c in pt])) for t, pt in pairs)
    return SegmentPath(dim, bps)


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _numerators(breakpoints: Sequence[Breakpoint]) -> tuple[int, list[tuple[int, ...]], bool]:
    """:func:`common_numerators` of a path: the times first, then each point."""
    return common_numerators([[t for t, _ in breakpoints], *[pt for _, pt in breakpoints]])


def _vertex_bits(pt: Point) -> int | None:
    bits = 0
    for i, c in enumerate(pt):
        if c == 1:
            bits |= 1 << i
        elif c != 0:
            return None
    return bits


class DPathReport(NamedTuple):
    """Outcome of :func:`is_dpath`.  A tuple: it also compares equal to the
    plain tuple of its fields."""

    ok: bool
    reason: str = ""
    segment: int | None = None

    def __bool__(self) -> bool:
        return self.ok


_DIRECTED = DPathReport(True)


def is_dpath(p: SegmentPath) -> DPathReport:
    """Directedness check: nondecreasing coordinates, vertex endpoints,
    nonconstant.  Reports the first offending segment."""
    den, points, _ = common_numerators([pt for _, pt in p.breakpoints])
    return _dpath_report(points, den)


def _dpath_report(points: list[tuple[int, ...]], den: int) -> DPathReport:
    """:func:`is_dpath` on the points of a path as numerators over ``den``."""
    for idx, (a, b) in enumerate(zip(points, points[1:])):
        if any(map(gt, a, b)):
            return DPathReport(False, "a coordinate decreases", idx)
    start, end = points[0], points[-1]
    # At a vertex every numerator is 0 or den, and den is positive.
    if start.count(0) + start.count(den) != len(start):
        return DPathReport(False, "path does not start at a vertex")
    if end.count(0) + end.count(den) != len(end):
        return DPathReport(False, "path does not end at a vertex")
    if end == start and all(pt == start for pt in points):
        return DPathReport(False, "path is constant")
    return _DIRECTED


def is_natural(p: SegmentPath) -> bool:
    """Whether the height climbed equals the time elapsed, exactly.

    Requires time to start at 0 and every breakpoint to satisfy
    ``height(point) - height(start) == time``; that makes the slopes on
    every segment sum to 1 and the domain ``[0, d1(start, end)]``.  For a
    path from the bottom vertex this is literally "coordinate sum equals
    time".
    """
    den, (times, *points), _ = _numerators(p.breakpoints)
    if not _dpath_report(points, den) or times[0] != 0:
        return False
    h0 = sum(points[0])
    return all(sum(pt) - h0 == t for t, pt in zip(times, points))


def naturalize(p: SegmentPath) -> SegmentPath:
    """Reparametrize a directed path so that time equals height climbed.

    Intervals where the height is constant carry a constant path (the
    coordinates are nondecreasing with a constant sum) and are collapsed to
    a single breakpoint.  The image of the path is unchanged and the result
    is natural; naturalizing twice is the same as once.  The new times are
    Fractions when any coordinate is one, ints otherwise.
    """
    den, points, frac = common_numerators([pt for _, pt in p.breakpoints])
    report = _dpath_report(points, den)
    if not report:
        raise ValueError(f"not a directed path: {report.reason}")
    h0 = sum(points[0])
    bps: list[Breakpoint] = []
    last = None
    for (_, pt), num in zip(p.breakpoints, points):
        t = sum(num) - h0
        if t == last:
            continue  # constant stretch: keep the first occurrence
        last = t
        bps.append((Fraction(t, den) if frac else t, pt))
    return _checked_path(p.dim, tuple(bps))


def transport(f: CubeMap, p: SegmentPath) -> SegmentPath:
    """Push a path forward through the topologized extension of ``f``.

    Breakpoints are added wherever two coordinates cross inside a segment
    (exact rational roots of linear equations), after which the extension
    restricts to a fixed coordinate permutation on each piece, so mapping
    the refined breakpoints gives the exact image path.  Natural paths stay
    natural: the extension preserves finite directed distances, hence the
    height climbed from the start.

    The cuts are found on integer numerators.  On each refined piece the
    order of the coordinates at its midpoint holds on the whole closed
    piece, up to ties at its ends, so it fixes the order in which the walk
    of :func:`transcube.topo.t_eval_permutation` switches the coordinates
    on; that walk maps the piece's end.  Mapped input breakpoints keep
    their time and coordinate objects, and the types are those of
    :func:`transcube.topo.t_eval` at each refined breakpoint.
    """
    if p.dim != f.dom_dim:
        raise ValueError(f"path of dimension {p.dim} fed to map from [{f.dom_dim}]")
    ones = _constant_ones(f)
    bps = p.breakpoints
    den, points, _ = common_numerators([pt for _, pt in bps])
    n = p.dim
    mapped: list[Breakpoint] = []
    for s in range(len(bps) - 1):
        a, b = points[s], points[s + 1]
        # A pair whose difference changes sign crosses strictly inside the
        # segment, at the parameter |da| / |da - db| in (0, 1).
        lams = set()
        for i in range(n):
            for j in range(i + 1, n):
                da = a[i] - a[j]
                db = b[i] - b[j]
                if da * db < 0:
                    lams.add((abs(da), abs(da - db)))
        # The pieces end at the cuts and at 1, as numerators over ``scale``.
        if lams:
            scale = lcm(*[q for _, q in lams])
            ends = sorted({scale, *[num * (scale // q) for num, q in lams]})
            tden, ((t0, t1),), _ = common_numerators(((bps[s][0], bps[s + 1][0]),))
        else:
            scale, ends = 1, (1,)
        lo = 0
        for hi in ends:
            # The coordinates at the piece's midpoint, times 2 * scale.
            mid = lo + hi
            key = [(2 * scale - mid) * ai + mid * bi for ai, bi in zip(a, b)]
            order = sorted(range(n), key=key.__getitem__, reverse=True)
            if not mapped:
                mapped.append((bps[0][0], _walk(f, bps[0][1], order, ones)))
            if hi == scale:
                t, pt = bps[s + 1]
            else:
                t = Fraction((scale - hi) * t0 + hi * t1, scale * tden)
                d = scale * den
                pt = tuple([Fraction((scale - hi) * ai + hi * bi, d) for ai, bi in zip(a, b)])
            mapped.append((t, _walk(f, pt, order, ones)))
            lo = hi
    return _checked_path(f.cod_dim, tuple(mapped))


class DPath(Frozen):
    """A Moore composition of single-cube legs inside an ambient symmetric
    transverse set.  Each leg is a ``(cube id, path)`` pair with the leg's
    own clock starting at 0."""

    __slots__ = ("legs",)

    def __init__(self, legs: tuple[tuple[int, SegmentPath], ...]) -> None:
        if not legs:
            raise InputError("a path needs at least one leg")
        for _, seg in legs:
            if seg.breakpoints[0][0] != 0:
                raise InputError("each leg must start its clock at 0")
        object.__setattr__(self, "legs", legs)

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


class NaturalityCertificate(NamedTuple):
    """Per-leg naturality verification of a multi-cube path.  A tuple: it
    also compares equal to the plain tuple of its fields."""

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


def _check_below(alpha: Vertex, beta: Vertex) -> None:
    alpha._check_dim(beta)
    if not (bits_leq(alpha.bits, beta.bits) and alpha.bits != beta.bits):
        raise ValueError(f"{alpha} is not strictly below {beta}")


def induced_coface(alpha: Vertex, beta: Vertex) -> CubeMap:
    """The unique coface composite sending the bottom of ``[k]`` to ``alpha``
    and the top to ``beta``, where ``k`` is their directed distance.

    The coordinates where the two vertices differ become the free
    coordinates (in increasing order); the rest are constant at the shared
    value.  Requires ``alpha`` strictly below ``beta``.
    """
    _check_below(alpha, beta)
    return coface_part(alpha.bits, beta.bits, alpha.dim)[0]


def induced_path_map(f: CubeMap, alpha: Vertex, beta: Vertex) -> CubeMap:
    """The endomap of ``[k]`` a cotransverse map induces between the faces
    spanned by ``alpha < beta`` and by their images.

    Restrict ``f`` to the face through ``alpha`` and ``beta`` and factor the
    composite: the coface part lands on the face spanned by ``f(alpha)`` and
    ``f(beta)`` and the endomap part is the induced map.  Satisfies the
    cocycle law: composing maps composes the induced maps along matching
    endpoints.  The arguments are checked on every call; the result is
    memoized per ``f`` on ``(alpha.bits, beta.bits)`` with the peak charge
    of its cold computation, which every call charges again, so a warm
    call accepts the budgets a cold one does.
    """
    if alpha.dim != f.dom_dim:
        raise ValueError("endpoints must live in the source cube")
    _check_below(alpha, beta)
    memo = _induced_maps(f)
    key = alpha.bits << f.dom_dim | beta.bits
    found = memo.get(key)
    if found is None:
        found = memo[key] = with_peak(_induced_map, f, alpha.bits, beta.bits)
    charge(found[1], "induced_path_map(%s, %s, %s)", f, alpha, beta)
    return found[0]


def _induced_map(f: CubeMap, lo: int, hi: int) -> CubeMap:
    fac = factorize(compose(f, coface_part(lo, hi, f.dom_dim)[0]))
    if fac.phi.table[0] != f.table[lo] or fac.phi.table[-1] != f.table[hi]:
        raise AssertionError("coface part does not span the image face")
    return fac.psi


@lru_cache(maxsize=1 << 12)
def _induced_maps(f: CubeMap) -> dict[int, tuple[CubeMap, int]]:
    """The induced maps of ``f`` found so far, with the peak charge of each,
    by ``alpha.bits << m | beta.bits``; :func:`induced_path_map` fills it.
    One small dict per map keeps a memo entry near 100 bytes, against
    about 150 for a cache keyed on the triple ``(f, alpha.bits,
    beta.bits)``."""
    return {}
