from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from transcube.cube import Vertex, compose, coface, max_min_collapse, symmetry
from transcube.homsets import enumerate_homset
from transcube.paths import (
    DPath,
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
from transcube.topo import d1_point


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
    assert [delta.apply_bits(b) for b in range(4)] == [0b010, 0b011, 0b110, 0b111]
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
