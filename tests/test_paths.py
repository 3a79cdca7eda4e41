from __future__ import annotations

import random
from fractions import Fraction as F
from math import lcm

import pytest

from transcube.cube import InputError, Vertex, compose, coface, max_min_collapse, symmetry
from transcube.homsets import enumerate_homset, factorize
from transcube.paths import (
    DPath,
    DPathReport,
    SegmentPath,
    dpath_endpoints,
    induced_coface,
    induced_path_map,
    is_dpath,
    is_natural,
    moore_compose,
    naturality_certificate,
    naturalize,
    segment_path,
    transport,
    validate_dpath,
)
from transcube.sts import Precubical, free_sts
from transcube.topo import common_numerators, d1_point, t_eval


def diagonal(dim: int, duration=1) -> "SegmentPath":
    return segment_path(
        dim,
        [(0, tuple(0 for _ in range(dim))), (duration, tuple(1 for _ in range(dim)))],
    )


def staircase2():
    # (t, 0) then (1, t-1), the two edges of the square in sequence
    return segment_path(2, [(0, (0, 0)), (1, (1, 0)), (2, (1, 1))])


def test_is_dpath_examples():
    assert is_dpath(diagonal(2)).ok
    assert is_dpath(staircase2()).ok
    bad = segment_path(2, [(0, (0, 0)), (1, (F(1, 2), F(1, 2))), (2, (1, 0))])
    report = is_dpath(bad)
    assert not report.ok and report.segment == 1


def test_is_dpath_rejects_non_vertex_endpoints_and_constants():
    dangling = segment_path(1, [(0, (0,)), (1, (F(1, 2),))])
    assert not is_dpath(dangling).ok
    constant = segment_path(1, [(0, (0,)), (1, (0,))])
    assert not is_dpath(constant).ok


def test_is_natural_examples():
    half_speed = segment_path(2, [(0, (0, 0)), (2, (1, 1))])  # (t/2, t/2) on [0, 2]
    assert is_natural(half_speed)
    assert not is_natural(diagonal(2))  # (t, t) on [0, 1]: height 2 at time 1
    assert is_natural(staircase2())


def test_naturalize_examples():
    assert naturalize(diagonal(2)).breakpoints == ((F(0), (F(0), F(0))), (F(2), (F(1), F(1))))
    stair = staircase2()
    assert naturalize(stair) == stair
    with_constant = segment_path(
        1, [(0, (0,)), (1, (F(1, 2),)), (2, (F(1, 2),)), (3, (1,))]
    )
    out = naturalize(with_constant)
    assert out.breakpoints == ((F(0), (F(0),)), (F(1, 2), (F(1, 2),)), (F(1), (F(1),)))
    assert is_natural(out)
    assert naturalize(out) == out


def test_naturalize_requires_dpath():
    with pytest.raises(ValueError):
        naturalize(segment_path(1, [(0, (1,)), (1, (0,))]))


def test_transport_fixed_points():
    assert transport(symmetry(1, 2), diagonal(2)) == diagonal(2)
    half = segment_path(2, [(0, (0, 0)), (2, (1, 1))])
    assert transport(max_min_collapse(), half) == half
    stair = staircase2()
    assert transport(max_min_collapse(), stair) == stair


def test_transport_inserts_crossing_breakpoints():
    p = segment_path(
        2, [(0, (0, 0)), (1, (F(1, 4), F(3, 4))), (2, (1, F(3, 4))), (3, (1, 1))]
    )
    out = transport(max_min_collapse(), p)
    times = [t for t, _ in out.breakpoints]
    assert F(5, 3) in times  # the two coordinates cross inside the second segment
    assert out.at(F(5, 3)) == (F(3, 4), F(3, 4))
    # piecewise-linear faithfulness: midpoints of output segments agree with
    # pointwise evaluation of the input
    from transcube.topo import t_eval

    for (t0, _), (t1, _) in zip(out.breakpoints, out.breakpoints[1:]):
        mid = (t0 + t1) / 2
        assert out.at(mid) == t_eval(max_min_collapse(), p.at(mid))


def test_transport_preserves_naturality_for_height_preserving_maps():
    rnd = random.Random(2)
    for n in (1, 2, 3):
        for f in enumerate_homset(n, n):
            pts = [tuple(F(0) for _ in range(n))]
            for _ in range(2):
                pts.append(tuple(min(F(1), c + F(rnd.randrange(0, 4), 6)) for c in pts[-1]))
            pts.append(tuple(F(1) for _ in range(n)))
            p = naturalize(segment_path(n, list(zip(range(len(pts)), pts))))
            assert is_natural(transport(f, p))


def path_graph() -> Precubical:
    # two edges a -> b -> c
    return Precubical(
        1,
        {0: (0, 1, 2), 1: (3, 4)},
        {(3, 1, 0): 0, (3, 1, 1): 1, (4, 1, 0): 1, (4, 1, 1): 2},
    )


def test_moore_composition():
    k = free_sts(path_graph())
    # free 1-cells keep their generator ids in the labels
    e1 = next(c for c in k.cubes[1] if k.labels[c].base == 3)
    e2 = next(c for c in k.cubes[1] if k.labels[c].base == 4)
    p = DPath(((e1, diagonal(1)),))
    q = DPath(((e2, diagonal(1)),))
    validate_dpath(k, p)
    pq = moore_compose(k, p, q)
    validate_dpath(k, pq)
    assert pq.duration == 2
    a, c = dpath_endpoints(k, pq)
    assert (a, c) == (dpath_endpoints(k, p)[0], dpath_endpoints(k, q)[1])
    with pytest.raises(ValueError):
        moore_compose(k, q, p)
    # associativity on a composable triple built from the same edges
    r = DPath(((e1, diagonal(1)),))
    k2 = free_sts(
        Precubical(1, {0: (0,), 1: (9,)}, {(9, 1, 0): 0, (9, 1, 1): 0})
    )  # a loop, so everything composes
    loop = next(c for c in k2.cubes[1] if k2.labels[c].base == 9)
    lp = DPath(((loop, diagonal(1)),))
    left = moore_compose(k2, moore_compose(k2, lp, lp), lp)
    right = moore_compose(k2, lp, moore_compose(k2, lp, lp))
    assert left == right
    assert left.duration == 3


def test_naturality_certificate():
    k = free_sts(path_graph())
    e1 = next(c for c in k.cubes[1] if k.labels[c].base == 3)
    e2 = next(c for c in k.cubes[1] if k.labels[c].base == 4)
    nat = DPath(((e1, diagonal(1)), (e2, diagonal(1))))
    cert = naturality_certificate(nat)
    assert cert.natural and cert.total_length == 2
    slow = DPath(((e1, diagonal(1)), (e2, segment_path(1, [(0, (0,)), (2, (1,))]))))
    cert2 = naturality_certificate(slow)
    assert not cert2.natural and cert2.total_length == 2
    assert [rec[2] for rec in cert2.legs] == [True, False]


def test_induced_coface_examples():
    delta = induced_coface(Vertex.from_coords((0, 1, 0)), Vertex.from_coords((1, 1, 1)))
    assert delta.dom_dim == 2
    assert [delta.table[b] for b in range(4)] == [0b010, 0b011, 0b110, 0b111]
    assert induced_coface(Vertex(2, 0), Vertex(2, 3)).is_identity()
    assert induced_coface(Vertex.from_coords((0, 0)), Vertex.from_coords((0, 1))).table == (
        0b00,
        0b10,
    )
    with pytest.raises(ValueError):
        induced_coface(Vertex(2, 1), Vertex(2, 2))
    with pytest.raises(ValueError):
        induced_coface(Vertex(2, 3), Vertex(2, 3))


def test_induced_path_map_examples(cube3_collapse):
    for f in enumerate_homset(2, 2):
        assert induced_path_map(f, Vertex(2, 0), Vertex(2, 3)).table == f.table
    edge = induced_path_map(cube3_collapse, Vertex(3, 0), Vertex(3, 0b100))
    assert edge.is_identity() and edge.dom_dim == 1
    swap = symmetry(1, 2)
    out = induced_path_map(swap, Vertex(2, 0), Vertex(2, 0b01))
    assert out.is_identity()
    # the image face is the edge (0,0) -> (0,1)
    delta = induced_coface(Vertex(2, 0), Vertex(2, 0b01))
    fac_phi = compose(swap, delta)
    assert fac_phi.table == (0b00, 0b10)


def test_cocycle_sampled():
    rnd = random.Random(4)
    for _ in range(300):
        m = rnd.randint(1, 3)
        n = rnd.randint(m, 3)
        p = rnd.randint(n, 3)
        f = rnd.choice(enumerate_homset(m, n))
        g = rnd.choice(enumerate_homset(n, p))
        a = rnd.randrange(1 << m)
        b = a | rnd.randrange(1 << m)
        if a == b:
            continue
        alpha, beta = Vertex(m, a), Vertex(m, b)
        lhs = induced_path_map(compose(g, f), alpha, beta)
        rhs = compose(induced_path_map(g, f(alpha), f(beta)), induced_path_map(f, alpha, beta))
        assert lhs.table == rhs.table


def concat_segments(p, q):
    """Glue two segment paths of one cube end to start, shifting q's clock."""
    shift = p.breakpoints[-1][0] - q.breakpoints[0][0]
    assert p.end == q.start
    merged = p.breakpoints + tuple((t + shift, pt) for t, pt in q.breakpoints[1:])
    return segment_path(p.dim, merged)


def test_transport_commutes_with_concatenation():
    rnd = random.Random(13)
    for f in enumerate_homset(2, 2) + enumerate_homset(3, 3)[:10]:
        n = f.dom_dim
        mid = tuple(F(rnd.randrange(0, 2)) for _ in range(n))
        first = naturalize(
            segment_path(n, [(0, tuple(F(0) for _ in range(n))), (1, mid)])
        ) if any(mid) else None
        if first is None:
            continue
        second = segment_path(
            n, [(0, mid), (1, tuple(F(1) for _ in range(n)))]
        )
        whole = concat_segments(first, second)
        joined_then_moved = transport(f, whole)
        moved_then_joined = concat_segments(transport(f, first), transport(f, second))
        assert joined_then_moved == moved_then_joined


def test_transport_through_cofaces_keeps_naturality():
    # naturality is measured against the path's own start, so inserting a
    # constant coordinate (0 or 1) shifts every height by the same amount
    # and the clock stays correct
    for n in (1, 2):
        p = naturalize(diagonal(n, 1))
        assert is_natural(transport(coface(1, 0, n + 1), p))
        assert is_natural(transport(coface(1, 1, n + 1), p))
    lifted = transport(coface(1, 1, 2), naturalize(diagonal(1, 1)))
    assert lifted.start == (F(1), F(0)) and lifted.end == (F(1), F(1))
    assert is_natural(lifted)


def test_natural_iff_breakpointwise_quasi_isometry():
    rnd = random.Random(9)
    for _ in range(200):
        dim = rnd.randint(1, 3)
        pts = [tuple(F(0) for _ in range(dim))]
        for _ in range(rnd.randint(1, 3)):
            pts.append(tuple(min(F(1), c + F(rnd.randrange(0, 4), 6)) for c in pts[-1]))
        pts.append(tuple(F(1) if c > 0 or rnd.random() < 0.5 else F(0) for c in pts[-1]))
        if pts[-1] == pts[0]:
            pts[-1] = tuple(F(1) for _ in range(dim))
        times = [F(0)]
        for _ in range(len(pts) - 1):
            times.append(times[-1] + F(rnd.randrange(1, 4), 2))
        p = segment_path(dim, list(zip(times, pts)))
        bps = p.breakpoints
        qi = all(
            d1_point(bps[i][1], bps[j][1]) == bps[j][0] - bps[i][0]
            for i in range(len(bps))
            for j in range(i, len(bps))
        )
        assert is_natural(p) == qi
        assert is_natural(naturalize(p))


def test_induced_coface_checks_arguments_after_a_cached_call():
    alpha, beta = Vertex(3, 0b001), Vertex(3, 0b111)
    first = induced_coface(alpha, beta)
    assert induced_coface(alpha, beta) is first
    assert first.table == (0b001, 0b011, 0b101, 0b111)
    for lo, hi in [(beta, alpha), (alpha, alpha), (alpha, Vertex(4, 0b111))]:
        with pytest.raises(ValueError):
            induced_coface(lo, hi)


# -- Fraction references for the integer-numerator rewrites --------------------
#
# The bodies below are the Fraction arithmetic the paths ran on before they
# moved to integer numerators over one common denominator; the rewrite must
# give the same values of the same types.


def ref_height(x):
    return sum(x[1:], x[0]) if len(x) else 0


def ref_segment_error(dim, bps):
    """The message of the first check of ``SegmentPath`` a breakpoint tuple fails."""
    if len(bps) < 2:
        return "a path needs at least two breakpoints"
    for _, pt in bps:
        if len(pt) != dim:
            return "breakpoint dimension mismatch"
        if any(not 0 <= c <= 1 for c in pt):
            return "coordinates must lie in [0, 1]"
    times = [t for t, _ in bps]
    if any(a >= b for a, b in zip(times, times[1:])):
        return "breakpoint times must be strictly increasing"
    return None


def ref_vertex_bits(pt):
    bits = 0
    for i, c in enumerate(pt):
        if c == 1:
            bits |= 1 << i
        elif c != 0:
            return None
    return bits


def ref_is_dpath(p):
    for idx, ((_, a), (_, b)) in enumerate(zip(p.breakpoints, p.breakpoints[1:])):
        if any(x > y for x, y in zip(a, b)):
            return (False, "a coordinate decreases", idx)
    if ref_vertex_bits(p.start) is None:
        return (False, "path does not start at a vertex", None)
    if ref_vertex_bits(p.end) is None:
        return (False, "path does not end at a vertex", None)
    if p.start == p.end and all(pt == p.start for _, pt in p.breakpoints):
        return (False, "path is constant", None)
    return (True, "", None)


def ref_is_natural(p):
    if not ref_is_dpath(p)[0]:
        return False
    t0, start = p.breakpoints[0]
    if t0 != 0:
        return False
    h0 = ref_height(start)
    return all(ref_height(pt) - h0 == t for t, pt in p.breakpoints)


def ref_naturalize(p):
    """The breakpoints of the natural reparametrization."""
    h0 = ref_height(p.start)
    bps = []
    for _, pt in p.breakpoints:
        t = ref_height(pt) - h0
        if bps and bps[-1][0] == t:
            continue
        bps.append((t, pt))
    return tuple(bps)


def ref_transport(f, p):
    """The breakpoints of the image path: cut every segment where two
    coordinates cross, then ``t_eval`` every refined breakpoint.  The crossing
    parameter is a Fraction even on integer coordinates."""
    refined = [p.breakpoints[0]]
    for (t0, a), (t1, b) in zip(p.breakpoints, p.breakpoints[1:]):
        cuts = set()
        for i in range(p.dim):
            for j in range(i + 1, p.dim):
                da = a[i] - a[j]
                db = b[i] - b[j]
                if da == db:
                    continue
                lam = F(da) / (da - db)
                if 0 < lam < 1:
                    cuts.add(t0 + lam * (t1 - t0))
        for t in sorted(cuts):
            refined.append((t, p.at(t)))
        refined.append((t1, b))
    return tuple((t, t_eval(f, pt)) for t, pt in refined)


def same(a, b) -> bool:
    """Equal values of the same types, entry by entry."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


#: Denominators of the sampled coordinates and times, up to 2520 = lcm(1, ..., 10).
DENOMINATORS = (1, 2, 3, 4, 6, 7, 9, 12, 60, 840, 2520)


def random_breakpoints(rnd, dim, kind):
    """Breakpoints of a random path in ``[dim]``.  ``kind`` "int" gives int
    times and 0/1 coordinates, "fraction" Fractions throughout, "mixed" both.
    Most paths climb from a vertex to a vertex, through constant stretches,
    coordinates tied at a breakpoint and coordinates crossing inside a
    segment; the rest wander."""
    count = rnd.randint(2, 5)
    if kind == "int":
        pts = [tuple(rnd.randint(0, 1) for _ in range(dim))]
        for _ in range(count - 1):
            step = rnd.random()
            if step < 0.2:
                pts.append(pts[-1])
            elif step < 0.8:
                pts.append(tuple(c | rnd.randint(0, 1) for c in pts[-1]))
            else:
                pts.append(tuple(rnd.randint(0, 1) for _ in range(dim)))
        times = [rnd.randint(0, 1)]
        for _ in range(count - 1):
            times.append(times[-1] + rnd.randint(1, 3))
        return tuple(zip(times, pts))

    def frac(num, den):
        value = F(num, den)
        if kind == "mixed" and value.denominator == 1 and rnd.random() < 0.5:
            return int(value)
        return value

    def climb(c):
        den = rnd.choice(DENOMINATORS)
        return min(F(1), c + F(rnd.randrange(0, den + 1), den) / rnd.randint(1, 3))

    pts = [tuple(F(rnd.random() < 0.3) for _ in range(dim))]
    wander = rnd.random() < 0.15
    for _ in range(count - 2):
        prev = list(pts[-1])
        step = rnd.random()
        if wander:
            den = rnd.choice(DENOMINATORS)
            prev = [F(rnd.randrange(den + 1), den) for _ in range(dim)]
        elif step < 0.2:
            pass  # a constant stretch
        elif step < 0.4 and dim > 1:
            i, j = rnd.sample(range(dim), 2)
            prev[i] = prev[j] = max(prev[i], prev[j], climb(prev[i]))  # a tie at this breakpoint
        else:
            prev = [climb(c) for c in prev]
        pts.append(tuple(prev))
    if rnd.random() < 0.9:
        pts.append(tuple(F(1) if c > 0 or rnd.random() < 0.5 else F(0) for c in pts[-1]))
    else:
        pts.append(tuple(climb(c) for c in pts[-1]))
    if wander and rnd.random() < 0.5:
        pts[0] = pts[1]
    heights = [sum(pt) for pt in pts]
    if rnd.random() < 0.3 and all(a < b for a, b in zip(heights, heights[1:])):
        times = [h - heights[0] for h in heights]  # natural
    else:
        den = rnd.choice(DENOMINATORS)
        times = [F(rnd.randrange(0, 2 * den), den) if rnd.random() < 0.3 else F(0)]
        for _ in range(len(pts) - 1):
            den = rnd.choice(DENOMINATORS)
            times.append(times[-1] + F(rnd.randrange(1, 3 * den), den))
    return tuple((frac(t.numerator, t.denominator), tuple(frac(c.numerator, c.denominator) for c in pt))
                 for t, pt in zip(times, pts))


def sampled_paths():
    rnd = random.Random(23)
    for _ in range(400):
        dim = rnd.choice((0, 1, 2, 2, 3, 3))
        kind = rnd.choice(("int", "fraction", "fraction", "mixed"))
        yield kind, SegmentPath(dim, random_breakpoints(rnd, dim, kind))


def test_path_checks_match_their_fraction_references():
    seen = set()
    natural = 0
    for kind, p in sampled_paths():
        report = is_dpath(p)
        assert report == ref_is_dpath(p)
        assert type(report) is DPathReport
        assert is_natural(p) is ref_is_natural(p)
        natural += ref_is_natural(p)
        seen.add((report.ok, report.reason))
        if report:
            nat = naturalize(p)
            assert nat.dim == p.dim
            if kind == "mixed":  # each new time has the type of its own height gap
                assert nat.breakpoints == ref_naturalize(p)
            else:
                assert same(nat.breakpoints, ref_naturalize(p))
            assert is_natural(nat) and ref_is_natural(nat)
    # directed paths and each failure of is_dpath were all drawn, and so were natural ones
    assert {reason for _, reason in seen} == {
        "", "a coordinate decreases", "path does not start at a vertex", "path does not end at a vertex",
        "path is constant",
    }
    assert natural > 10


def test_transport_matches_its_fraction_reference():
    rnd = random.Random(29)
    crossings = ties = constants = lifted = 0
    for kind, p in sampled_paths():
        n = rnd.randint(p.dim, 4)
        maps = enumerate_homset(p.dim, n)
        for f in rnd.sample(maps, min(3, len(maps))):
            want = ref_transport(f, p)
            got = transport(f, p)
            assert got.dim == f.cod_dim
            if kind == "mixed":  # a tie of 1 and Fraction(1) may route either object
                assert got.breakpoints == want
            else:
                assert same(got.breakpoints, want)
            crossings += len(want) > len(p.breakpoints)
            lifted += not f.is_endo() and p.dim > 0
        bps = p.breakpoints
        constants += any(a == b for (_, a), (_, b) in zip(bps, bps[1:]))
        ties += any(len(set(pt)) < len(pt) for _, pt in bps[1:-1])
    assert min(crossings, ties, constants, lifted) > 10


def test_segment_path_checks_match_their_fraction_reference():
    rnd = random.Random(31)
    values = (F(-1, 3), F(0), F(1, 2520), F(1, 2), F(1), F(7, 6), 0, 1, 2)
    for _ in range(3000):
        dim = rnd.randint(0, 2)
        bps = tuple(
            (rnd.choice(values) + rnd.randrange(3), tuple(rnd.choice(values) for _ in range(rnd.choice((dim, dim, dim, dim + 1)))))
            for _ in range(rnd.randint(1, 4))
        )
        want = ref_segment_error(dim, bps)
        if want is None:
            assert SegmentPath(dim, bps).breakpoints == bps
        else:
            with pytest.raises(InputError) as err:
                SegmentPath(dim, bps)
            assert str(err.value) == want


def ref_segment_path(dim, pairs):
    """``segment_path`` as first written: a new ``Fraction`` from every value."""
    return SegmentPath(dim, tuple((F(t), tuple(F(c) for c in pt)) for t, pt in pairs))


class SubFraction(F):
    """A ``Fraction`` subclass, which ``segment_path`` turns into a plain one."""


def test_segment_path_matches_its_reference():
    rnd = random.Random(37)
    values = {
        "int": (0, 1, 2, 3),
        "fraction": (F(0), F(1, 3), F(1, 2), F(1), F(7, 4), SubFraction(1, 2)),
        "str": ("0", "1/3", "1/2", "1", "7/4", "0.25", "x"),
    }
    values["mixed"] = values["int"] + values["fraction"] + values["str"] + (0.5,)
    seen = set()
    for _ in range(2000):
        kind = rnd.choice(list(values))
        dim = rnd.randint(0, 3)
        pairs = [(rnd.choice(values[kind]), tuple(rnd.choice(values[kind]) for _ in range(dim)))
                 for _ in range(rnd.randint(2, 4))]
        try:
            want = ref_segment_path(dim, pairs)
        except (InputError, ValueError) as err:
            with pytest.raises(type(err)) as got:
                segment_path(dim, pairs)
            assert str(got.value) == str(err)
            seen.add((kind, False))
            continue
        assert same(segment_path(dim, pairs).breakpoints, want.breakpoints)
        seen.add((kind, True))
    assert seen == {(kind, ok) for kind in values for ok in (True, False)}


def test_paths_refuse_inexact_coordinates():
    for bps in [
        ((0.0, (0.0,)), (1.0, (1.0,))),
        ((0, (0,)), (F(1, 2), (0.5,))),
        ((0, (0,)), (0.5, (1,))),
    ]:
        with pytest.raises(InputError, match="not an exact rational"):
            SegmentPath(1, bps)
    # segment_path coerces through Fraction, as before
    assert segment_path(1, [(0.0, (0.0,)), (1.0, (1.0,))]) == diagonal(1)


# -- The factorizing transport --------------------------------------------------
#
# Before the permutation walk read a map's constant coordinates off its table,
# transport walked the endomap part of the factorization and copied the
# constants of its coface part from a base row, one of ints and one of
# Fractions.  The body below is that code; the walk must give the same
# breakpoints, objects and types included.

REF_FRACTION_BITS = (F(0), F(1))


def ref_transport_through_factorization(f, p):
    """The breakpoints of the image path, as the factorizing transport built them."""
    bps = p.breakpoints
    den, points, _ = common_numerators([pt for _, pt in bps])
    n = p.dim
    if f.is_endo():
        psi, free = f, range(n)
        base = fraction_base = [None] * n
    else:
        fac = factorize(f)
        psi, free = fac.psi, fac.free
        base = [0] * f.cod_dim
        for _, i, alpha in fac.steps:
            base[i - 1] = alpha
        fraction_base = [REF_FRACTION_BITS[c] for c in base]
    table = psi.table

    def image(pt, key):
        out = base
        for c in pt:
            if isinstance(c, F):
                out = fraction_base
                break
        out = out[:]
        mask = prev = 0
        for k in sorted(range(n), key=key.__getitem__, reverse=True):
            mask |= 1 << k
            img = table[mask]
            out[free[(img & ~prev).bit_length() - 1]] = pt[k]
            prev = img
        return tuple(out)

    mapped = []
    for s in range(len(bps) - 1):
        a, b = points[s], points[s + 1]
        lams = set()
        for i in range(n):
            for j in range(i + 1, n):
                da = a[i] - a[j]
                db = b[i] - b[j]
                if da * db < 0:
                    lams.add((abs(da), abs(da - db)))
        if lams:
            scale = lcm(*[q for _, q in lams])
            ends = sorted({scale, *[num * (scale // q) for num, q in lams]})
            tden, ((t0, t1),), _ = common_numerators(((bps[s][0], bps[s + 1][0]),))
        else:
            scale, ends = 1, (1,)
        lo = 0
        for hi in ends:
            mid = lo + hi
            key = [(2 * scale - mid) * ai + mid * bi for ai, bi in zip(a, b)]
            if not mapped:
                mapped.append((bps[0][0], image(bps[0][1], key)))
            if hi == scale:
                t, pt = bps[s + 1]
            else:
                t = F((scale - hi) * t0 + hi * t1, scale * tden)
                d = scale * den
                pt = tuple([F((scale - hi) * ai + hi * bi, d) for ai, bi in zip(a, b)])
            mapped.append((t, image(pt, key)))
            lo = hi
    return tuple(mapped)


def test_transport_matches_the_factorizing_reference():
    # every map into [n <= 3] on the first 120 sampled paths, and 4 sampled
    # maps into [4] on each of them
    rnd = random.Random(67)
    kinds = {"int": 0, "fraction": 0, "mixed": 0}
    lifted = 0
    for count, (kind, p) in enumerate(sampled_paths()):
        maps = rnd.sample(enumerate_homset(p.dim, 4), 4)
        if count < 120:
            maps += [f for n in range(p.dim, 4) for f in enumerate_homset(p.dim, n)]
        for f in maps:
            got = transport(f, p)
            assert got.dim == f.cod_dim
            assert same(got.breakpoints, ref_transport_through_factorization(f, p))
            kinds[kind] += 1
            lifted += f.table[0] != 0
    assert min(kinds.values()) > 300 and lifted > 500
