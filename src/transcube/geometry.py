"""Directed distances in realizations of finite symmetric transverse sets.

The vertex-to-vertex directed distance is modelled on the 1-skeleton: one
unit arc per edge, oriented from the face picked out by inserting 0 to the
face picked out by inserting 1.  Shortest directed arc paths agree with the
single-cube directed L1 metric on representables and are validated against
chain sampling; the identification with the realized coend metric is a
desk-scale modeling assumption, not a theorem, and the API documents it as
such.  Both distances are path metrics, found by one search, ``_shortest``.

Interior points are handled by :func:`chain_distance_sample`, which returns
a certified upper bound: it runs a shortest path over a waypoint graph
whose arcs are realizable directed segments (comparable pairs within one
cube, scored by the exact directed L1 distance).  Refining the waypoint
grid can only shrink the bound.

The sampling runs on integers and stays exact.  The waypoints of refinement
``r`` are integer numerators over ``2 ** r``.  One common denominator
``den`` is the least common multiple of ``2 ** r`` and the denominator
:func:`transcube.topo.common_numerators` gives the two query points, so
both queries are integer numerators over ``den`` and a waypoint arc weighs
``den // 2 ** r`` times its height gap.  The shortest path ``d`` is
reported as ``Fraction(d, den)``.

Each set keeps its distance graphs in one slot per kind: the skeleton
adjacency, and the waypoint graph of the last refinement it was asked at
(every cube's waypoints with their nodes and the arcs among them).  A
query adds only the arcs of its own two points.  Each graph is built
through :func:`transcube.homsets.with_peak`, and its peak charge is charged
again on every call, so a warm call accepts the budgets a cold one does.
As with :meth:`transcube.sts.Sts.vertex_of`, the slots assume the set is
not mutated once built.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product
from math import lcm
from operator import le
from typing import NamedTuple

from .cube import INF, Frozen, InputError
from .homsets import charge, with_peak
from .paths import DPath, naturality_certificate
from .sts import Sts
from .topo import common_numerators


class SkeletonDigraph(NamedTuple):
    """Vertices of a symmetric transverse set with one unit arc per edge.  A
    tuple: it also compares equal to the plain tuple of its fields."""

    nodes: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, sts: Sts) -> SkeletonDigraph:
        ends = (sts.tables.get((1, 1, alpha), ()) for alpha in (0, 1))  # the 0- and 1-end of each edge
        return cls(sts.cubes[0], tuple(zip(*ends)))


def _shortest(adj: dict, source, target, scale: int = 1, extra: dict | None = None) -> int | float:
    """Least total arc weight from ``source`` to ``target`` (Dijkstra), or
    ``INF``.  ``adj`` and ``extra`` map a node to its arcs, ``{head:
    weight}``; an arc of ``adj`` weighs ``scale`` times its weight."""
    extra = extra or {}
    dist = {source: 0}
    heap = [(0, 0, source)]
    tie = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u == target:
            return d
        if d > dist[u]:
            continue
        for arcs, k in ((adj.get(u), scale), (extra.get(u), 1)):
            if arcs:
                for v, w in arcs.items():
                    nd = d + k * w
                    if nd < dist.get(v, INF):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, tie, v))
                        tie += 1
    return INF


def _kept(sts: Sts, kind: str, build, *args):
    """``build(sts, *args)``, kept in the set's slot for ``kind`` until that
    kind is asked with other ``args``; the peak charge of the build is
    charged on every call, warm or cold."""
    found = sts._graphs.get(kind)
    if found is None or found[0] != args:
        found = sts._graphs[kind] = (args, *with_peak(build, sts, *args))
    charge(found[2], "the %s graph of a set", kind)
    return found[1]


def _skeleton(sts: Sts) -> dict[int, dict[int, int]]:
    adj: dict[int, dict[int, int]] = {}
    for u, v in SkeletonDigraph.of(sts).arcs:
        adj.setdefault(u, {})[v] = 1
    return adj


def vertex_distance(sts: Sts, a: int, b: int) -> int | float:
    """Length of the shortest directed arc path from ``a`` to ``b`` in the
    1-skeleton; infinite when no directed path exists."""
    if a not in sts.cubes[0] or b not in sts.cubes[0]:
        raise InputError("unknown vertex id")
    return _shortest(_kept(sts, "skeleton", _skeleton), a, b)


class PointPresentation(Frozen):
    """A point of the realization, presented in the coordinates of one cube."""

    __slots__ = ("cube_id", "local")

    def __init__(self, cube_id: int, local: tuple[Fraction, ...]) -> None:
        if not all(isinstance(c, (int, Fraction)) for c in local):
            raise InputError("local coordinates must be exact rationals (int or Fraction)")
        if any(not 0 <= c <= 1 for c in local):
            raise InputError("local coordinates must lie in [0, 1]")
        object.__setattr__(self, "cube_id", cube_id)
        object.__setattr__(self, "local", local)


class ChainBound(NamedTuple):
    """A certified upper bound on the realized directed distance.  A tuple:
    it also compares equal to the plain tuple of its fields."""

    value: Fraction | float
    exhausted: bool = False  # budget cut the waypoint refinement short

    def __bool__(self) -> bool:
        return self.value is not INF


class _Waypoints(NamedTuple):
    """The waypoint graph of a set at refinement ``r``: the waypoints of an
    ``n``-cube are ``grids[n]``, numerators over ``2 ** r`` in ``product``
    order, ``nodes[c]`` holds the node of each waypoint of cube ``c``, and
    ``adj`` the least weight of each arc, in units of ``2 ** -r``."""

    grids: dict[int, list[tuple[int, ...]]]
    nodes: dict[int, tuple]
    adj: dict[object, dict[object, int]]


def _node(sts: Sts, cube_id: int, local: tuple[int, ...], den: int):
    """The node of the point with numerators ``local`` over ``den`` in a
    cube: a vertex by its id in the set, so chains hop between cubes
    through it, and any other point by its cube and coordinates."""
    if all(c in (0, den) for c in local):
        return sts.vertex_of(cube_id, sum(1 << i for i, c in enumerate(local) if c))
    return (cube_id, local, den)


def _waypoints(sts: Sts, refinement: int) -> _Waypoints:
    """Vertex waypoints plus a dyadic grid in every cube, with an arc for
    every comparable pair of waypoints of one cube at distinct nodes."""
    steps = 1 << refinement
    grids, pairs = {}, {}
    for n, level in sts.cubes.items():
        if level:
            grid = grids[n] = list(product(range(steps + 1), repeat=n))
            pairs[n] = [
                (a, b, sum(xb) - sum(xa))
                for a, xa in enumerate(grid)
                for b, xb in enumerate(grid)
                if a != b and all(map(le, xa, xb))
            ]
    nodes, adj = {}, {}
    for c in sts.all_cubes():
        n = sts.dim_of[c]
        keys = nodes[c] = tuple([_node(sts, c, local, steps) for local in grids[n]])
        for a, b, w in pairs[n]:
            if keys[a] != keys[b]:
                _add_arc(adj, keys[a], keys[b], w)
    return _Waypoints(grids, nodes, adj)


def _add_arc(adj: dict, u, v, w: int) -> None:
    """An arc from ``u`` to ``v`` of weight ``w``, where ``adj`` keeps the
    least weight of each: two cubes, or two points of one cube glued to
    the same vertices, may give one pair of nodes arcs of other weights."""
    arcs = adj.setdefault(u, {})
    if w < arcs.get(v, INF):
        arcs[v] = w


def chain_distance_sample(
    sts: Sts,
    p: PointPresentation,
    q: PointPresentation,
    budget: int = 4096,
    refinement: int = 0,
) -> ChainBound:
    """Upper-bound the realized directed distance by chain enumeration.

    Builds a digraph over the two query points and sampled waypoints of
    every cube (vertices always; a dyadic grid at positive ``refinement``),
    with an arc for every comparable pair inside a common cube weighted by
    the exact directed L1 gap, waypoints being glued across cubes through
    the vertex action.  Returns the shortest-path value; any reported finite
    value is realized by an explicit chain, so it never undercuts the true
    distance.  ``budget`` caps the node count; when it bites, the refinement
    is reduced and the bound is flagged as exhausted.  The waypoint graph
    is kept on the set, and a call adds the arcs of its two points.
    """
    if refinement < 0:
        raise InputError(f"refinement must be nonnegative, got {refinement}")
    for pres in (p, q):
        if pres.cube_id not in sts.dim_of:
            raise InputError(f"no cube {pres.cube_id} in this set")
        if len(pres.local) != sts.dim_of[pres.cube_id]:
            raise InputError("presentation does not match its cube dimension")

    # Past the bit length of ``budget`` a cube of positive dimension alone
    # has more waypoints than that, and a set of vertices alone has as many
    # at every refinement: each refinement there is cut alike, so the cut
    # starts just above it.
    refinement = min(refinement, budget.bit_length() + 1)
    counts = [(n, len(level)) for n, level in sts.cubes.items()]
    exhausted = False
    while refinement > 0 and sum(k * ((1 << refinement) + 1) ** n for n, k in counts) > budget:
        refinement -= 1
        exhausted = True
    graph = _kept(sts, "waypoint", _waypoints, refinement)

    # Both queries are integer numerators over one common denominator.
    steps = 1 << refinement
    query_den, queries, _ = common_numerators((p.local, q.local))
    den = lcm(steps, query_den)
    scale = den // steps
    (source, p_num), (target, q_num) = (
        _query_node(sts, graph, pres.cube_id, [c * (den // query_den) for c in nums], scale, den)
        for pres, nums in zip((p, q), queries)
    )
    # Off the grid, a query point gets its arcs: out of the source to the
    # waypoints above it, into the target from those below it, and between
    # the two when they share a cube.
    extra: dict[object, dict[object, int]] = {}
    if p_num is not None:
        hp = sum(p_num)
        up = [-(-c // scale) for c in p_num]
        for x, v in zip(graph.grids[len(p_num)], graph.nodes[p.cube_id]):
            if all(map(le, up, x)):
                _add_arc(extra, source, v, sum(x) * scale - hp)
        if q_num is not None and q.cube_id == p.cube_id and all(map(le, p_num, q_num)):
            _add_arc(extra, source, target, sum(q_num) - hp)
    if q_num is not None:
        hq = sum(q_num)
        down = [c // scale for c in q_num]
        for x, u in zip(graph.grids[len(q_num)], graph.nodes[q.cube_id]):
            if all(map(le, x, down)):
                _add_arc(extra, u, target, hq - sum(x) * scale)
    d = _shortest(graph.adj, source, target, scale, extra)
    return ChainBound(INF if d is INF else Fraction(d, den), exhausted)


def _query_node(sts: Sts, graph: _Waypoints, cube_id: int, num: list[int], scale: int, den: int):
    """The node of a query point with numerators ``num`` over ``den``, and
    ``num`` itself when the point is no waypoint of its cube (else None)."""
    if any(c % scale for c in num):
        return _node(sts, cube_id, tuple(num), den), num
    index = 0
    for c in num:
        index = index * (den // scale + 1) + c // scale
    return graph.nodes[cube_id][index], None


def dpath_length(p: DPath) -> Fraction:
    """Total height climbed over the legs of a multi-cube directed path;
    for natural paths this is exactly the parametrization span."""
    return naturality_certificate(p).total_length
