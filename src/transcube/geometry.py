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

The sampling runs on integers and stays exact.  One common denominator
``den`` is the least common multiple of ``2 ** refinement`` and the
denominator :func:`transcube.topo.common_numerators` gives the two query
points, so every waypoint and both queries are integer numerators over
``den``.  Arcs are integer comparisons scored by integer height gaps, and
the shortest path ``d`` is reported as ``Fraction(d, den)``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product
from math import lcm
from operator import le
from typing import NamedTuple

from .cube import INF, Frozen, InputError
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


def _shortest(adj: dict[object, list[tuple[object, int]]], source, target) -> int | float:
    """Least total arc weight from ``source`` to ``target`` (Dijkstra), or ``INF``."""
    dist = {source: 0}
    heap = [(0, 0, source)]
    tie = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u == target:
            return d
        if d > dist.get(u, INF):
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, tie, v))
                tie += 1
    return INF


def vertex_distance(sts: Sts, a: int, b: int) -> int | float:
    """Length of the shortest directed arc path from ``a`` to ``b`` in the
    1-skeleton; infinite when no directed path exists."""
    graph = SkeletonDigraph.of(sts)
    if a not in graph.nodes or b not in graph.nodes:
        raise InputError("unknown vertex id")
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v in graph.arcs:
        adj.setdefault(u, []).append((v, 1))
    return _shortest(adj, a, b)


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


def _cube_waypoints(dim: int, refinement: int, den: int) -> list[tuple[int, ...]]:
    """Vertex waypoints plus an optional dyadic grid inside one cube, as
    numerators over ``den`` (a multiple of ``2 ** refinement``)."""
    steps = 1 << refinement
    return list(product([i * den // steps for i in range(steps + 1)], repeat=dim))


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
    is reduced and the bound is flagged as exhausted.
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
    exhausted = False
    while refinement > 0:
        total = sum(
            ((1 << refinement) + 1) ** sts.dim_of[c] for c in sts.all_cubes()
        )
        if total <= budget:
            break
        refinement -= 1
        exhausted = True

    # Every coordinate is an integer numerator over one common denominator.
    query_den, queries, _ = common_numerators((p.local, q.local))
    den = lcm(1 << refinement, query_den)
    p_num, q_num = (tuple([c * (den // query_den) for c in nums]) for nums in queries)

    # Node = ("pt", canonical key) where vertices of cubes are canonicalized
    # through the ambient vertex ids so chains can hop between cubes.
    def node_of(cube_id: int, local: tuple[int, ...]):
        if all(c in (0, den) for c in local):
            bits = sum(1 << i for i, c in enumerate(local) if c == den)
            return ("vertex", sts.vertex_of(cube_id, bits))
        return ("interior", cube_id, local)

    per_cube: dict[int, list[tuple]] = {}
    for c in sts.all_cubes():
        dim = sts.dim_of[c]
        pts = _cube_waypoints(dim, refinement, den)
        if c == p.cube_id:
            pts.append(p_num)
        if c == q.cube_id:
            pts.append(q_num)
        per_cube[c] = [(local, node_of(c, local), sum(local)) for local in pts]

    adj: dict[object, list[tuple[object, int]]] = {}
    for c, pts in per_cube.items():
        for (xa, na, ha) in pts:
            for (xb, nb, hb) in pts:
                if na != nb and all(map(le, xa, xb)):
                    adj.setdefault(na, []).append((nb, hb - ha))

    source = node_of(p.cube_id, p_num)
    target = node_of(q.cube_id, q_num)
    d = _shortest(adj, source, target)
    return ChainBound(INF if d is INF else Fraction(d, den), exhausted)


def dpath_length(p: DPath) -> Fraction:
    """Total height climbed over the legs of a multi-cube directed path;
    for natural paths this is exactly the parametrization span."""
    return naturality_certificate(p).total_length
