"""Workload ``continuous``: exact evaluation on rational points, in-process and warm.

Every request runs five steps, each with its own seeded inputs: batched
evaluation of a composable pair on integer points, pointwise evaluation of
``Fraction`` points by both evaluators, naturalization and transport of a
directed path, chain and skeleton distances on small complexes, and one
continuous check suite.  Each step is checked against an independent
expectation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

import numpy as np

from harness import Checks, Tracer, Workload, digest
from inputs import TRIPLES, grid_complex, grid_corners, monotone_path, rational_point, stratified

DENOMINATOR = 2520
#: Continuous check suites and the sampled scale each runs at (None: the
#: suite's default), chosen so that no suite dominates a request.
SUITES = {
    "t-oracle": 150, "t-functoriality": None, "quasi-isometry": None,
    "natural-paths": 5, "skeleton-metric": 5,
}
REQUESTS = 70  # two blocks of the 35 dimension triples, fourteen rounds of the suites
BATCH_POINTS = 20000
POINTWISE_POINTS = 48
PATHS_PER_REQUEST = 2
GRIDS = ((1, 1), (1, 2), (2, 1), (2, 2))
# Chain bounds inside one cube: the square at refinement 0 and the interval
# at refinement 2 (the square at refinement 2 costs twenty times more).
INSIDE = ((2, 0), (1, 2))  # (dimension, refinement)
NON_ENDO_DIMS = tuple((m, n) for n in range(1, 5) for m in range(n))
PATH_SHAPES = tuple((d, n, s) for d in range(1, 4) for n in range(d, 5) for s in range(2, 5))


def api_table() -> dict:
    from transcube import batch, cube, formats, geometry, homsets, paths, sts, suites, topo

    return {
        "cube": {"compose": cube.compose},
        "homsets": {"enumerate_homset": homsets.enumerate_homset},
        "batch": {"t_eval_batch": batch.t_eval_batch},
        "topo": {
            "t_eval_maxmin": topo.t_eval_maxmin,
            "t_eval_permutation": topo.t_eval_permutation,
            "t_eval": topo.t_eval,
        },
        "paths": {
            "segment_path": paths.segment_path,
            "naturalize": paths.naturalize,
            "transport": paths.transport,
            "is_natural": paths.is_natural,
        },
        "geometry": {
            "chain_distance_sample": geometry.chain_distance_sample,
            "vertex_distance": geometry.vertex_distance,
        },
        "sts": {"free_sts": sts.free_sts, "representable": sts.representable},
        "formats": {"parse_precubical": formats.parse_precubical},
        "suites": {"run_suite": suites.run_suite},
    }


def height(point) -> Fraction:
    return sum(point, Fraction(0))


def d1(x, y):
    """Directed L1 distance on the solid cube, or None when ``x`` is not below ``y``."""
    if all(a <= b for a, b in zip(x, y)):
        return sum((b - a for a, b in zip(x, y)), Fraction(0))
    return None


def vertex_point(bits: int, dim: int) -> tuple[Fraction, ...]:
    return tuple(Fraction((bits >> i) & 1) for i in range(dim))


class Continuous(Workload):
    """Set-up enumerates the hom-sets up to [4], builds the representables
    and free grids, and draws the stratified request list with its points."""

    def __init__(self, api, seed: int, requests: int | None = None, inject: bool = False) -> None:
        from transcube.geometry import PointPresentation

        self.presentation = PointPresentation
        self.api = api
        self.inject = inject
        rnd = random.Random(seed)
        rng = np.random.default_rng(rnd.randrange(1 << 32))
        t0 = perf_counter()
        hom = {(m, n): api.homsets.enumerate_homset(m, n) for m in range(5) for n in range(m, 5)}
        self.enumerate_setup_ms = (perf_counter() - t0) * 1e3
        # Fixed structures: representables and one free grid complex per shape.
        self.reps = {}
        for dim, _ in INSIDE:
            rep = api.sts.representable(dim)
            self.reps[dim] = (rep, next(c for c in rep.cubes[dim] if rep.labels[c].is_identity()))
        self.grids = {}
        for shape in GRIDS:
            free = api.sts.free_sts(api.formats.parse_precubical(grid_complex(shape)))
            corners = grid_corners(shape)
            # vertex id of the free set -> corner, through the normal-form labels
            self.grids[shape] = (free, {c: corners[free.labels[c].base] for c in free.cubes[0]})
        count = requests or REQUESTS
        dims, grids, non_endo = (stratified(rnd, items, count) for items in (TRIPLES, GRIDS, NON_ENDO_DIMS))
        path_shapes = iter(stratified(rnd, PATH_SHAPES, count * PATHS_PER_REQUEST))
        self.requests = []
        for i in range(count):
            m, n, p = dims[i]
            req = {"index": i}
            f, g = rnd.choice(hom[m, n]), rnd.choice(hom[n, p])
            vertices = np.array([[DENOMINATOR * ((v >> k) & 1) for k in range(m)] for v in range(1 << m)],
                                dtype=np.int64).reshape(1 << m, m)
            points = rng.integers(0, DENOMINATOR + 1, size=(BATCH_POINTS, m), dtype=np.int64)
            req["batch"] = (f, g, np.concatenate([vertices, points]))
            d = 1 + i % 4
            k, n = non_endo[i]
            req["pointwise"] = (
                rnd.choice(hom[d, d]),
                [rational_point(rnd, d, DENOMINATOR) for _ in range(POINTWISE_POINTS)],
                rnd.choice(hom[k, n]),
                rational_point(rnd, k, DENOMINATOR),
            )
            req["transport"] = []
            for _ in range(PATHS_PER_REQUEST):
                d, n, segments = next(path_shapes)
                req["transport"].append((monotone_path(rnd, d, segments), rnd.choice(hom[d, n])))
            free, corner_of = self.grids[grids[i]]
            inside = []
            for dim, _ in INSIDE:
                x = rational_point(rnd, dim, 12)
                inside.append((x, tuple(min(Fraction(1), c + Fraction(rnd.randrange(7), 12)) for c in x)))
            req["distance"] = (grids[i], rnd.sample(sorted(corner_of), 2), inside)
            req["suite"] = (list(SUITES)[i % len(SUITES)], rnd.randrange(1 << 16))
            self.requests.append(req)
        self.warmup = self.requests  # one untimed pass: every timed pass is warm

    # -- steps ------------------------------------------------------------

    def batch(self, req: dict, chk: Checks):
        A = self.api
        f, g, pts = req["batch"]
        m = f.dom_dim
        tf = A.batch.t_eval_batch(f, pts, DENOMINATOR)
        tg_tf = A.batch.t_eval_batch(g, tf, DENOMINATOR)
        gf = A.cube.compose(g, f)
        tgf = A.batch.t_eval_batch(gf, pts, DENOMINATOR)
        chk.expect("batch", np.array_equal(tgf, tg_tf), f"T(g f) != T(g) T(f) for {g.literal()} o {f.literal()}")
        bits = 1 << np.arange(gf.cod_dim, dtype=np.int64)
        corners = ((tgf[: 1 << m] // DENOMINATOR) * bits).sum(axis=1)
        chk.expect("batch", corners.tolist() == list(gf.table), f"vertices not sent to the table of {gf.literal()}")
        if f.is_endo():
            chk.expect("batch", np.array_equal(tf.sum(axis=1), pts.sum(axis=1)), f"{f.literal()} moves heights")
        return digest(tgf)

    def pointwise(self, req: dict, chk: Checks):
        A = self.api
        endo, points, h, x = req["pointwise"]
        images = []
        for pt in points:
            a = A.topo.t_eval_maxmin(endo, pt)
            b = A.topo.t_eval_permutation(endo, pt)
            if a != b or height(a) != height(pt):
                chk.fail("topo", f"evaluators disagree on {endo.literal()} at {pt}")
            images.append(a)
        y = A.topo.t_eval(h, x)
        lifted = bin(h.table[0]).count("1")  # constant 1-coordinates of the coface part
        chk.expect("topo", len(y) == h.cod_dim and height(y) == height(x) + lifted and all(0 <= c <= 1 for c in y),
                   f"t_eval of {h.literal()} at {x} gives {y}")
        return tuple(images), y

    def transport(self, req: dict, chk: Checks):
        A = self.api
        out = []
        for breakpoints, f in req["transport"]:
            nat = A.paths.naturalize(A.paths.segment_path(f.dom_dim, breakpoints))
            h0 = height(nat.start)
            chk.expect("paths", all(height(pt) - h0 == t for t, pt in nat.breakpoints), "naturalize output not natural")
            chk.expect("paths", A.paths.is_natural(nat), "is_natural rejects a natural path")
            moved = A.paths.transport(f, nat)
            start = sum(1 << i for i, c in enumerate(nat.start) if c == 1)
            end = sum(1 << i for i, c in enumerate(nat.end) if c == 1)
            chk.expect("paths", moved.start == vertex_point(f.table[start], f.cod_dim)
                       and moved.end == vertex_point(f.table[end], f.cod_dim),
                       f"transport along {f.literal()} moves the endpoints wrongly")
            chk.expect("paths", A.paths.is_natural(moved), f"transport along {f.literal()} broke naturality")
            out.append((nat.breakpoints, moved.breakpoints))
        return tuple(out)

    def distance(self, req: dict, chk: Checks):
        A = self.api
        shape, (a, b), inside = req["distance"]
        free, corner_of = self.grids[shape]
        skeleton = A.geometry.vertex_distance(free, a, b)
        ca, cb = corner_of[a], corner_of[b]
        manhattan = sum(q - p for p, q in zip(ca, cb)) if all(p <= q for p, q in zip(ca, cb)) else float("inf")
        chk.expect("geometry", skeleton == manhattan, f"vertex distance {skeleton} != {manhattan} in grid {shape}")
        P = self.presentation
        chain = A.geometry.chain_distance_sample(free, P(a, ()), P(b, ()), refinement=0).value
        chk.expect("geometry", chain >= skeleton, f"chain bound {chain} undercuts the skeleton {skeleton}")
        bounds = []
        for (dim, refinement), (x, y) in zip(INSIDE, inside):
            rep, top = self.reps[dim]
            bound = A.geometry.chain_distance_sample(rep, P(top, x), P(top, y), refinement=refinement).value
            want = d1(x, y)
            if self.inject and req["index"] == 0:
                want += 1  # a deliberately wrong expectation
            chk.expect("geometry", bound == want, f"chain bound {bound} != d1 {want} inside [{dim}]")
            bounds.append(bound)
        return skeleton, chain, tuple(bounds)

    def suite(self, req: dict, chk: Checks):
        name, seed = req["suite"]
        report = self.api.suites.run_suite(name, max_dim=2, seed=seed, scale=SUITES[name])
        chk.expect("suites", report.ok and report.cases > 0 and not report.exhausted,
                   f"suite {name} seed {seed}: {report.machine_lines()[:2]}")
        return tuple(report.machine_lines())

    def execute(self, req: dict, chk: Checks):
        return (
            ("batch", chk.step("batch", self.batch, req, chk)),
            ("topo", chk.step("topo", self.pointwise, req, chk)),
            ("paths", chk.step("paths", self.transport, req, chk)),
            ("geometry", chk.step("geometry", self.distance, req, chk)),
            ("suites", chk.step("suites", self.suite, req, chk)),
        )

    def extras(self, tracer: Tracer) -> dict[str, float]:
        """Points per second through ``t_eval_batch``: every call of a request
        evaluates that request's rows."""
        rows = [len(req["batch"][2]) for req in self.requests]
        points = busy = 0.0
        for name, t0, t1, _, request in tracer.spans:
            if name == "batch.t_eval_batch":
                points += rows[request]
                busy += t1 - t0
        return {"batch.points_per_s": points / busy if busy else 0.0}
