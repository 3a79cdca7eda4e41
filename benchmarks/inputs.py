"""Seeded input generators shared by the workloads.

Everything here builds plain data in the documented interchange formats
(map literals, precubical and build-script JSON, path breakpoints); the
program only ever sees what these functions return.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

#: Size of the endomap monoid of [m] for m <= 4, the constants of the
#: hom-set closed form (independent of the enumeration code).
END_SIZES = {0: 1, 1: 1, 2: 4, 3: 66, 4: 7128}

#: All dimension triples m <= n <= p <= 4 of composable pairs [m]->[n]->[p].
TRIPLES = tuple((m, n, p) for m in range(5) for n in range(m, 5) for p in range(n, 5))


def stratified(rnd: random.Random, items, count: int) -> list:
    """``count`` items in shuffled blocks, each block holding every item once,
    so every request list mixes the items in the same proportions."""
    out: list = []
    while len(out) < count:
        block = list(items)
        rnd.shuffle(block)
        out.extend(block)
    return out[:count]


def literal(m: int, n: int, table) -> str:
    return f"{m}>{n}:" + ",".join(str(b) for b in table)


def grid_complex(shape: tuple[int, ...]) -> dict:
    """Precubical JSON of the grid of unit boxes ``[0,a1] x ... x [0,ad]``.

    A k-cube is a lower corner plus k free axes, listed by dimension, then
    axes, then corner; its face ``(i, alpha)`` drops the i-th free axis and
    moves the corner by ``alpha`` along it.  Returns the JSON together with
    the corner of each vertex id.
    """
    d = len(shape)
    cells = []
    for k in range(d + 1):
        for axes in combinations(range(d), k):
            ranges = [range(shape[i] + (0 if i in axes else 1)) for i in range(d)]
            cells.extend((k, axes, corner) for corner in product(*ranges))
    ids = {cell: cid for cid, cell in enumerate(cells)}
    cubes: dict[str, list[int]] = {str(k): [] for k in range(d + 1)}
    faces: dict[str, dict[str, int]] = {}
    for (k, axes, corner), cid in ids.items():
        cubes[str(k)].append(cid)
        for i, axis in enumerate(axes, start=1):
            rest = tuple(a for a in axes if a != axis)
            for alpha in (0, 1):
                moved = tuple(c + alpha if a == axis else c for a, c in enumerate(corner))
                faces.setdefault(str(cid), {})[f"{i},{alpha}"] = ids[(k - 1, rest, moved)]
    return {"max_dim": d, "cubes": cubes, "faces": faces}


def grid_corners(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Corner of each vertex id of :func:`grid_complex`, in id order."""
    return list(product(*[range(a + 1) for a in shape]))


def graph_inputs(rnd: random.Random, vertices: int, edges: int) -> tuple[list, dict]:
    """A seeded directed graph as a build script and as precubical JSON."""
    arcs = [tuple(rnd.sample(range(vertices), 2)) for _ in range(edges)]
    script = [{"dim": 0, "attach": {}} for _ in range(vertices)]
    script += [{"dim": 1, "attach": {"0": s, "1": t}} for s, t in arcs]
    complex_ = {
        "max_dim": 1,
        "cubes": {"0": list(range(vertices)), "1": [vertices + j for j in range(edges)]},
        "faces": {str(vertices + j): {"1,0": s, "1,1": t} for j, (s, t) in enumerate(arcs)},
    }
    return script, complex_


def rational_point(rnd: random.Random, dim: int, denominator: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rnd.randrange(denominator + 1), denominator) for _ in range(dim))


def monotone_path(rnd: random.Random, dim: int, segments: int) -> list[tuple[Fraction, tuple]]:
    """Breakpoints of a PL directed path between two distinct vertices
    ``start < end``, with arbitrary (not natural) speeds."""
    end = rnd.randrange(1, 1 << dim)
    start = end & rnd.randrange(1 << dim)
    if start == end:
        start = end & (end - 1)  # drop the lowest coordinate of end
    climbs = [[Fraction(rnd.randrange(13), 12) for _ in range(segments - 1)] for _ in range(dim)]
    for column in climbs:
        column.sort()
    points = []
    for s in range(segments + 1):
        coords = []
        for i in range(dim):
            lo, hi = (start >> i) & 1, (end >> i) & 1
            if lo == hi:
                coords.append(Fraction(lo))
            elif s == 0:
                coords.append(Fraction(0))
            elif s == segments:
                coords.append(Fraction(1))
            else:
                coords.append(climbs[i][s - 1])
        points.append(tuple(coords))
    times = [Fraction(0)]
    for _ in range(segments):
        times.append(times[-1] + Fraction(rnd.randrange(1, 7), 4))
    return list(zip(times, points))
