from __future__ import annotations

import heapq
import pickle
import random
import time
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from transcube.cube import INF, Vertex, d1_vertex
from transcube.geometry import (
    ChainBound,
    PointPresentation,
    SkeletonDigraph,
    chain_distance_sample,
    dpath_length,
    vertex_distance,
)
from transcube.paths import DPath, naturalize, segment_path
from transcube.sts import Sts, boundary, free_sts, representable, Precubical
from transcube.topo import d1_point


def vertex_ids(rep):
    return {rep.labels[c].table[0]: c for c in rep.cubes[0]}


def test_skeleton_arcs_orientation():
    rep = representable(1)
    graph = SkeletonDigraph.of(rep)
    v = vertex_ids(rep)
    assert graph.arcs == ((v[0], v[1]),)


def test_vertex_distance_on_square():
    rep = representable(2)
    v = vertex_ids(rep)
    assert vertex_distance(rep, v[0b00], v[0b11]) == 2
    assert vertex_distance(rep, v[0b10], v[0b01]) is INF
    assert vertex_distance(rep, v[0b01], v[0b01]) == 0
    with pytest.raises(ValueError):
        vertex_distance(rep, 10 ** 6, v[0b00])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_skeleton_matches_cube_metric(n):
    rep = representable(n)
    v = vertex_ids(rep)
    for xa, a in v.items():
        for xb, b in v.items():
            assert vertex_distance(rep, a, b) == d1_vertex(Vertex(n, xa), Vertex(n, xb))


def top_cube(rep):
    return next(c for c in rep.cubes[rep.max_dim] if rep.labels[c].is_identity())


def test_chain_same_cube_comparable_is_exact():
    rep = representable(2)
    top = top_cube(rep)
    p = PointPresentation(top, (F(1, 4), F(1, 4)))
    q = PointPresentation(top, (F(1, 2), F(3, 4)))
    assert chain_distance_sample(rep, p, q).value == F(3, 4)


def test_chain_above_is_infinite():
    rep = representable(2)
    top = top_cube(rep)
    p = PointPresentation(top, (F(1, 2), F(3, 4)))
    q = PointPresentation(top, (F(1, 4), F(1, 4)))
    for budget in (64, 4096):
        assert chain_distance_sample(rep, p, q, budget=budget).value is INF


def test_chain_vertices_match_skeleton():
    rep = representable(2)
    top = top_cube(rep)
    v = vertex_ids(rep)
    for xa in range(4):
        for xb in range(4):
            p = PointPresentation(top, tuple(F((xa >> i) & 1) for i in range(2)))
            q = PointPresentation(top, tuple(F((xb >> i) & 1) for i in range(2)))
            bound = chain_distance_sample(rep, p, q).value
            skel = vertex_distance(rep, v[xa], v[xb])
            assert bound == skel


def test_chain_through_shared_vertex():
    # two edges a -> b -> c: the only directed route crosses the middle vertex
    k = free_sts(
        Precubical(
            1,
            {0: (0, 1, 2), 1: (3, 4)},
            {(3, 1, 0): 0, (3, 1, 1): 1, (4, 1, 0): 1, (4, 1, 1): 2},
        )
    )
    e1 = next(c for c in k.cubes[1] if k.labels[c].base == 3)
    e2 = next(c for c in k.cubes[1] if k.labels[c].base == 4)
    p = PointPresentation(e1, (F(1, 2),))
    q = PointPresentation(e2, (F(1, 4),))
    assert chain_distance_sample(k, p, q).value == F(3, 4)
    assert chain_distance_sample(k, q, p).value is INF


def two_squares():
    """Two squares glued along the edge from vertex 1 to vertex 3."""
    return free_sts(
        Precubical(
            2,
            {0: (0, 1, 2, 3, 4, 5), 1: (10, 11, 12, 13, 14, 15, 16), 2: (20, 21)},
            {
                (10, 1, 0): 0, (10, 1, 1): 1,
                (11, 1, 0): 2, (11, 1, 1): 3,
                (12, 1, 0): 0, (12, 1, 1): 2,
                (13, 1, 0): 1, (13, 1, 1): 3,
                (14, 1, 0): 1, (14, 1, 1): 4,
                (15, 1, 0): 3, (15, 1, 1): 5,
                (16, 1, 0): 4, (16, 1, 1): 5,
                (20, 1, 0): 12, (20, 1, 1): 13, (20, 2, 0): 10, (20, 2, 1): 11,
                (21, 1, 0): 13, (21, 1, 1): 16, (21, 2, 0): 14, (21, 2, 1): 15,
            },
        )
    )


def pinched_square():
    """A square whose top edge is a loop: corners (0, 0) -> 0, (1, 0) -> 1
    and both (0, 1) and (1, 1) -> 2, so one pair of vertices meets in
    arcs of two weights."""
    return free_sts(
        Precubical(
            2,
            {0: (0, 1, 2), 1: (10, 11, 12, 13), 2: (20,)},
            {
                (10, 1, 0): 0, (10, 1, 1): 2,
                (11, 1, 0): 1, (11, 1, 1): 2,
                (12, 1, 0): 0, (12, 1, 1): 1,
                (13, 1, 0): 2, (13, 1, 1): 2,
                (20, 1, 0): 10, (20, 1, 1): 11, (20, 2, 0): 12, (20, 2, 1): 13,
            },
        )
    )


def test_chain_across_glued_squares():
    k = two_squares()
    s1 = next(c for c in k.cubes[2] if k.labels[c].base == 20 and k.labels[c].psi.is_identity())
    s2 = next(c for c in k.cubes[2] if k.labels[c].base == 21 and k.labels[c].psi.is_identity())
    center1 = PointPresentation(s1, (F(1, 2), F(1, 2)))
    # the only directed exit from the first square's interior is its top
    # corner, which is the second square's corner (0, 1); points of the
    # second square reachable from there sit on its top edge
    reachable = PointPresentation(s2, (F(1, 2), F(1)))
    bound = chain_distance_sample(k, center1, reachable)
    assert bound.value == F(3, 2)
    unreachable = PointPresentation(s2, (F(1, 2), F(1, 2)))
    assert chain_distance_sample(k, center1, unreachable).value is INF
    # gluing is directional: nothing leads back
    assert chain_distance_sample(k, reachable, center1).value is INF


def test_chain_refinement_never_increases():
    rep = representable(2)
    top = top_cube(rep)
    p = PointPresentation(top, (F(0), F(0)))
    q = PointPresentation(top, (F(1), F(1)))
    coarse = chain_distance_sample(rep, p, q, refinement=0).value
    fine = chain_distance_sample(rep, p, q, budget=10**6, refinement=2).value
    assert fine <= coarse == 2


def test_budget_reduces_refinement():
    rep = representable(2)
    top = top_cube(rep)
    p = PointPresentation(top, (F(0), F(0)))
    q = PointPresentation(top, (F(1), F(1)))
    bound = chain_distance_sample(rep, p, q, budget=30, refinement=3)
    assert bound.exhausted and bound.value == 2



@pytest.mark.parametrize("n, budget", [(2, 4096), (2, 0), (0, 4096), (0, 0)])
def test_a_huge_refinement_bounds_as_a_small_one(n, budget):
    # every refinement past the budget's bit length is cut alike; [0] has
    # only its vertex, which no refinement changes
    rep = representable(n)
    top = top_cube(rep)
    half, quarter = (F(1, 2),) * n, (F(1, 4),) * n
    p, q = PointPresentation(top, quarter), PointPresentation(top, half)
    start = time.perf_counter()
    huge = chain_distance_sample(rep, p, q, budget=budget, refinement=10**6)
    assert time.perf_counter() - start < 1
    assert huge == chain_distance_sample(rep, p, q, budget=budget, refinement=20)


def test_dpath_length():
    rep = representable(2)
    top = top_cube(rep)
    diagonal = segment_path(2, [(0, (0, 0)), (2, (1, 1))])
    assert dpath_length(DPath(((top, diagonal),))) == 2
    rep1 = representable(1)
    e = rep1.cubes[1][0]
    edge = segment_path(1, [(0, (0,)), (1, (1,))])
    two_edges = DPath(((e, edge), (e, edge)))
    assert dpath_length(two_edges) == 2
    skew = segment_path(2, [(0, (0, 0)), (1, (F(1, 3), F(2, 3))), (4, (1, 1))])
    nat = naturalize(skew)
    assert dpath_length(DPath(((top, nat),))) == nat.duration == 2


def test_dpath_length_dominates_skeleton_distance():
    rep = representable(3)
    top = top_cube(rep)
    v = vertex_ids(rep)
    path = segment_path(3, [(0, (0, 0, 0)), (1, (1, 0, 0)), (2, (1, 1, 0)), (3, (1, 1, 1))])
    length = dpath_length(DPath(((top, path),)))
    assert length >= vertex_distance(rep, v[0], v[0b111]) == 3


def reference_chain_distance(sts, p, q, budget=4096, refinement=0):
    """``chain_distance_sample`` as first written: ``Fraction`` waypoints,
    arcs scored by ``d1_point``.  The oracle for the integer-numerator path."""
    exhausted = False
    while refinement > 0:
        total = sum(((1 << refinement) + 1) ** sts.dim_of[c] for c in sts.all_cubes())
        if total <= budget:
            break
        refinement -= 1
        exhausted = True

    def node_of(cube_id, local):
        if all(c in (0, 1) for c in local):
            bits = sum(1 << i for i, c in enumerate(local) if c == 1)
            return ("vertex", sts.vertex_of(cube_id, bits))
        return ("interior", cube_id, local)

    steps = 1 << refinement
    axis = [F(i, steps) for i in range(steps + 1)]
    adj = {}
    for c in sts.all_cubes():
        pts = [tuple(x) for x in product(axis, repeat=sts.dim_of[c])]
        pts += [pres.local for pres in (p, q) if pres.cube_id == c]
        nodes = [(x, node_of(c, x)) for x in pts]
        for xa, na in nodes:
            for xb, nb in nodes:
                if na != nb:
                    d = d1_point(xa, xb)
                    if d is not INF:
                        adj.setdefault(na, []).append((nb, d))

    source, target = node_of(p.cube_id, p.local), node_of(q.cube_id, q.local)
    dist = {source: F(0)}
    heap = [(F(0), 0, source)]
    tie = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u == target:
            return ChainBound(d, exhausted)
        if d > dist.get(u, INF):
            continue
        for v, w in adj.get(u, ()):
            if d + w < dist.get(v, INF):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, tie, v))
                tie += 1
    return ChainBound(INF, exhausted)


def grid(shape):
    """Free set of the grid of unit boxes ``[0,a1] x ... x [0,ad]``.  A k-cube is
    a lower corner plus k free axes; its face ``(i, alpha)`` drops the i-th free
    axis and moves the corner by ``alpha`` along it."""
    d = len(shape)
    cells = [
        (k, axes, corner)
        for k in range(d + 1)
        for axes in combinations(range(d), k)
        for corner in product(*(range(a + (i not in axes)) for i, a in enumerate(shape)))
    ]
    ids = {cell: cid for cid, cell in enumerate(cells)}
    faces = {}
    for (k, axes, corner), cid in ids.items():
        for i, axis in enumerate(axes, start=1):
            rest = tuple(a for a in axes if a != axis)
            for alpha in (0, 1):
                moved = tuple(c + alpha * (a == axis) for a, c in enumerate(corner))
                faces[(cid, i, alpha)] = ids[(k - 1, rest, moved)]
    cubes = {k: tuple(cid for (j, _, _), cid in ids.items() if j == k) for k in range(d + 1)}
    return free_sts(Precubical(d, cubes, faces))


def complexes():
    return [representable(n) for n in range(4)] + [two_squares(), grid((1, 2))]


def random_presentation(rnd, sts):
    cube = rnd.choice(sorted(sts.all_cubes()))
    local = []
    for _ in range(sts.dim_of[cube]):
        den = rnd.randint(1, 12)
        local.append(F(rnd.randint(0, den), den))
    return PointPresentation(cube, tuple(local))


def assert_same_bound(got, want):
    assert got == want and type(got.value) is type(want.value)


def test_chain_distance_matches_fraction_reference():
    rnd = random.Random(53)
    for sts in complexes():
        for refinement, budget in product(range(4), (30, 200, 4096)):
            p, q = random_presentation(rnd, sts), random_presentation(rnd, sts)
            if rnd.random() < 0.3:
                q = p
            want = reference_chain_distance(sts, p, q, budget, refinement)
            assert_same_bound(chain_distance_sample(sts, p, q, budget, refinement), want)


def test_chain_distance_matches_reference_between_vertices():
    for sts in (two_squares(), grid((2, 2))):
        ends = [PointPresentation(v, ()) for v in sts.cubes[0]]
        for p in ends:
            for q in ends:
                want = reference_chain_distance(sts, p, q)
                assert_same_bound(chain_distance_sample(sts, p, q), want)


def test_chain_bound_shrinks_with_refinement_until_exhausted():
    rnd = random.Random(59)
    for sts in (representable(1), representable(2), two_squares(), grid((1, 2))):
        for _ in range(6):
            p, q = random_presentation(rnd, sts), random_presentation(rnd, sts)
            previous = INF
            for refinement in range(4):
                bound = chain_distance_sample(sts, p, q, budget=400, refinement=refinement)
                if bound.exhausted:
                    break
                assert bound.value <= previous
                previous = bound.value


def test_chain_bound_never_undercuts_vertex_distance():
    for sts in (representable(2), two_squares(), grid((1, 2)), grid((2, 2))):
        for a in sts.cubes[0]:
            for b in sts.cubes[0]:
                pa, pb = PointPresentation(a, ()), PointPresentation(b, ())
                for refinement in (0, 1):
                    bound = chain_distance_sample(sts, pa, pb, refinement=refinement)
                    assert bound.value >= vertex_distance(sts, a, b)


def effective_refinement(sts, budget, refinement):
    """The refinement a chain bound is sampled at, after the budget cut."""
    while refinement > 0 and sum(((1 << refinement) + 1) ** sts.dim_of[c] for c in sts.all_cubes()) > budget:
        refinement -= 1
    return refinement


def fresh(sts):
    """A new set with the same cubes and tables, and none of its memos."""
    return Sts(sts.max_dim, sts.cubes, sts.tables, sts.labels)


def query_point(rnd, sts, kind):
    """A presentation of the given kind: a random rational point, a waypoint
    of some refinement, a vertex of a cube, or a point on a face of one."""
    dim = rnd.choice(sorted({sts.dim_of[c] for c in sts.all_cubes()}))
    cube = rnd.choice(sts.cubes[dim])
    if kind == "rational":
        local = [F(rnd.randint(0, den), den) for den in (rnd.randint(1, 12) for _ in range(dim))]
    elif kind == "waypoint":
        steps = 1 << rnd.randint(0, 3)
        local = [F(rnd.randint(0, steps), steps) for _ in range(dim)]
    elif kind == "vertex":
        local = [rnd.choice((0, F(1), F(0), 1)) for _ in range(dim)]
    else:
        den = rnd.randint(2, 12)
        local = [rnd.choice((F(0), F(1))) if rnd.random() < 0.5 else F(rnd.randint(1, den - 1), den) for _ in range(dim)]
    return PointPresentation(cube, tuple(local))


def shared_sets():
    return [representable(n) for n in range(4)] + [boundary(2), two_squares(), pinched_square(), grid((1, 2)), grid((2, 2))]


def test_chain_distance_on_a_pinched_square_matches_the_reference():
    # a query point on a face below the loop reaches vertex 2 at two heights
    rnd = random.Random(27)
    sts = pinched_square()
    for _ in range(600):
        p, q = (query_point(rnd, sts, rnd.choice(("rational", "face", "vertex", "waypoint"))) for _ in range(2))
        refinement = rnd.randint(0, 2)
        assert_same_bound(chain_distance_sample(sts, p, q, 4096, refinement), reference_chain_distance(sts, p, q, 4096, refinement))


def test_one_set_answers_an_interleaved_query_sequence_as_the_reference():
    # every query on one instance per set, so each finds the graphs the
    # previous queries on it left: same refinement, another one, or none
    rnd = random.Random(24)
    sets = shared_sets()
    kinds = ("rational", "waypoint", "vertex", "face")
    seen = set()
    for _ in range(300):
        sts = rnd.choice(sets)
        refinement, budget = rnd.randint(0, 3), rnd.choice((30, 200, 4096))
        pk, qk = rnd.choice(kinds), rnd.choice(kinds)
        p = query_point(rnd, sts, pk)
        q = p if rnd.random() < 0.15 else query_point(rnd, sts, qk)
        want = reference_chain_distance(sts, p, q, budget, refinement)
        kept = sts._graphs.get("waypoint", (None,))[0]
        assert_same_bound(chain_distance_sample(sts, p, q, budget, refinement), want)
        assert set(sts._graphs) <= {"skeleton", "waypoint"}  # one waypoint graph at a time
        assert sts._graphs["waypoint"][0] == (effective_refinement(sts, budget, refinement),)
        seen.update({pk, qk, ("coincident", p == q), ("finite", want.value is not INF), ("cut", want.exhausted)})
        seen.add(("warm", kept == sts._graphs["waypoint"][0]))
        a, b = rnd.choice(sts.cubes[0]), rnd.choice(sts.cubes[0])
        assert vertex_distance(sts, a, b) == vertex_distance(fresh(sts), a, b)
    assert seen >= {*kinds, ("coincident", True), ("finite", True), ("finite", False), ("cut", True), ("warm", True), ("warm", False)}
    # the skeleton beside a waypoint graph, on the same instances
    for sts in sets:
        for a in sts.cubes[0]:
            for b in sts.cubes[0]:
                assert vertex_distance(sts, a, b) == vertex_distance(fresh(sts), a, b)


def test_a_pickled_set_answers_as_before():
    rnd = random.Random(26)
    for sts in (representable(2), two_squares(), grid((1, 2))):
        queries = [
            (query_point(rnd, sts, "rational"), query_point(rnd, sts, "face"), refinement)
            for refinement in (0, 1, 1, 2, 0)
        ]
        before = [chain_distance_sample(sts, p, q, 4096, r) for p, q, r in queries]
        vertices = [vertex_distance(sts, a, b) for a in sts.cubes[0] for b in sts.cubes[0]]
        back = pickle.loads(pickle.dumps(sts))
        assert back._graphs == sts._graphs
        for (p, q, r), want in zip(reversed(queries), reversed(before)):
            assert_same_bound(chain_distance_sample(back, p, q, 4096, r), want)
        assert [vertex_distance(back, a, b) for a in back.cubes[0] for b in back.cubes[0]] == vertices


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_bound_inside_a_top_cube_is_d1(n):
    rep = representable(n)
    top = top_cube(rep)
    rnd = random.Random(61 + n)
    for _ in range(12):
        x = tuple(F(rnd.randrange(13), 12) for _ in range(n))
        y = tuple(min(F(1), c + F(rnd.randrange(-2, 7), 12)) for c in x)
        y = tuple(max(F(0), c) for c in y)
        for refinement in (0, 1):
            bound = chain_distance_sample(rep, PointPresentation(top, x), PointPresentation(top, y), refinement=refinement)
            assert bound.value == d1_point(x, y)


def test_presentation_rejects_inexact_coordinates():
    with pytest.raises(ValueError, match="exact rationals"):
        PointPresentation(0, (0.5,))
    with pytest.raises(ValueError, match="lie in"):
        PointPresentation(0, (F(3, 2),))
    assert PointPresentation(0, (0, F(1, 3), 1)).local == (0, F(1, 3), 1)
