"""Workload ``discrete``: the exact combinatorial kernel, in-process and warm.

Every request runs six steps, each with its own seeded inputs: composable
pairs (compose, factorize, the cocycle law of induced path maps), raw-table
validation, the action of a representable, free and cellular builds,
boundary hom quotients with one latching comparison, and one discrete
check suite.  Each step is checked against an independent expectation.
"""

from __future__ import annotations

import random
from math import comb
from time import perf_counter

from harness import Checks, Workload
from inputs import END_SIZES, TRIPLES, graph_inputs, grid_complex, literal, stratified

#: Discrete check suites and the sampled scale each runs at (None: the
#: suite's default), chosen so that no suite dominates a request.
SUITES = {
    "metric-axioms": 40, "cotransverse-validate": None, "factorization-unique": None,
    "free-iso": None, "boundary-hom": None, "latching": None, "cocycle": None,
}
REQUESTS = 70  # 32 blocks of the 35 dimension triples, ten rounds of the suites
PAIRS_PER_REQUEST = 16
TABLES_PER_REQUEST = 16
GRIDS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3))
# Boundary hom degrees (p, q, n): every n <= 2, and n = 3 up to q = 2; the
# quotients for q = n = 3 cost five times more than the rest of the step.
BOUNDARY_TRIPLES = tuple(
    (p, q, n) for p in range(3) for q in range(4) for n in range(1, 4) if n < 3 or q < 3
)
BOUNDARY_PER_REQUEST = 3
LATCHING = tuple((name, n) for name in ("point", "vertices") for n in range(3))
ACT_DIMS = tuple((m, n) for n in range(4) for m in range(n + 1))  # f: [m] -> [n] -> [3]
TABLE_DIMS = tuple((m, n) for n in range(1, 5) for m in range(n + 1))
GRAPHS = tuple((v, e) for v in range(2, 5) for e in range(1, 5))  # (vertices, edges)

#: Sizes of the latching object (and of the functor evaluated at the boundary
#: of [n]): the constant point sees the components of the boundary, the
#: vertices functor its vertices.
LATCHING_SIZES = {
    ("point", 0): 0, ("point", 1): 2, ("point", 2): 1,
    ("vertices", 0): 0, ("vertices", 1): 2, ("vertices", 2): 4,
}


def api_table() -> dict:
    from transcube import cube, formats, homsets, paths, reedy, sts, suites

    return {
        "cube": {
            "compose": cube.compose,
            "from_literal": cube.CubeMap.from_literal,
            "validate_cotransverse": cube.validate_cotransverse,
        },
        "homsets": {"factorize": homsets.factorize, "enumerate_homset": homsets.enumerate_homset},
        "paths": {"induced_path_map": paths.induced_path_map},
        "sts": {
            "act": sts.Sts.act,
            "free_sts": sts.free_sts,
            "certify_cellular": sts.certify_cellular,
            "graded_counts_equal": sts.graded_counts_equal,
            "representable": sts.representable,
        },
        "reedy": {
            "boundary_hom": reedy.boundary_hom,
            "boundary_hom_closed_form": reedy.boundary_hom_closed_form,
            "compare_latching_to_boundary": reedy.compare_latching_to_boundary,
            "constant_obj": reedy.constant_obj,
            "hom_obj": reedy.hom_obj,
        },
        "quotient": {"len": len},
        "formats": {"parse_precubical": formats.parse_precubical, "parse_script": formats.parse_script},
        "suites": {"run_suite": suites.run_suite},
    }


def boundary_hom_size(p: int, q: int, n: int) -> int:
    """Closed form of the boundary hom quotient from the endomap constants."""
    if p > q or n <= p:
        return 0
    return END_SIZES[p] * comb(q, p) * (1 << (q - p))


class Discrete(Workload):
    """Set-up enumerates the hom-sets up to [4], builds representable(3) and
    the latching objects, and draws the stratified request list."""

    def __init__(self, api, seed: int, requests: int | None = None, inject: bool = False) -> None:
        from transcube.cube import Vertex

        self.api = api
        self.inject = inject
        self.vertex = Vertex
        rnd = random.Random(seed)
        t0 = perf_counter()
        hom = {(m, n): api.homsets.enumerate_homset(m, n) for m in range(5) for n in range(m, 5)}
        self.enumerate_setup_ms = (perf_counter() - t0) * 1e3
        self.rep = api.sts.representable(3)
        self.objects = {
            "point": api.reedy.constant_obj(("*",), 2),
            "vertices": api.reedy.hom_obj(0, 2),
        }
        count = requests or REQUESTS
        pair_dims = iter(stratified(rnd, TRIPLES, count * PAIRS_PER_REQUEST))
        table_dims = iter(stratified(rnd, TABLE_DIMS, count * TABLES_PER_REQUEST))
        boundary = iter(stratified(rnd, BOUNDARY_TRIPLES, count * BOUNDARY_PER_REQUEST))
        act_dims, grids, graphs, latching = (
            stratified(rnd, items, count) for items in (ACT_DIMS, GRIDS, GRAPHS, LATCHING)
        )
        self.requests = []
        for i in range(count):
            req = {"index": i}
            req["pairs"] = []
            for _ in range(PAIRS_PER_REQUEST):
                m, n, p = next(pair_dims)
                req["pairs"].append((rnd.choice(hom[m, n]), rnd.choice(hom[n, p])))
            req["tables"] = [
                self._raw_table(rnd, hom, *next(table_dims), perturb=j % 2 == 0) for j in range(TABLES_PER_REQUEST)
            ]
            m, n = act_dims[i]
            req["act"] = (rnd.choice(hom[m, n]), rnd.choice(hom[n, 3]))
            req["complex"] = grid_complex(grids[i])
            req["script"], req["graph"] = graph_inputs(rnd, *graphs[i])
            req["boundary"] = [next(boundary) for _ in range(BOUNDARY_PER_REQUEST)]
            req["latching"] = latching[i]
            req["suite"] = (list(SUITES)[i % len(SUITES)], rnd.randrange(1 << 16))
            self.requests.append(req)
        # One untimed pass of the whole list, so that every timed pass finds
        # the caches warm.
        self.warmup = self.requests

    @staticmethod
    def _raw_table(rnd: random.Random, hom: dict, m: int, n: int, perturb: bool) -> tuple[int, int, tuple[int, ...]]:
        if not perturb:
            return m, n, tuple(rnd.randrange(1 << n) for _ in range(1 << m))
        table = list(rnd.choice(hom[m, n]).table)
        k = rnd.randrange(len(table))
        table[k] = rnd.choice([v for v in range(1 << n) if v != table[k]])
        return m, n, tuple(table)

    # -- steps ------------------------------------------------------------

    def pairs(self, req: dict, chk: Checks):
        A, V = self.api, self.vertex
        out = []
        for f, g in req["pairs"]:
            want = tuple(g.table[b] for b in f.table)
            gf = A.cube.compose(g, f)
            if (gf.dom_dim, gf.cod_dim, gf.table) != (f.dom_dim, g.cod_dim, want):
                chk.fail("cube", f"compose {g.literal()} o {f.literal()}")
            fac = A.homsets.factorize(gf)
            if fac.composite.table != want or fac.psi.cod_dim != f.dom_dim:
                chk.fail("homsets", f"factorization does not rebuild {gf.literal()}")
            m, n = f.dom_dim, f.cod_dim
            induced = []
            for a in range(1 << m):
                for b in range(1 << m):
                    if a == b or a & ~b:
                        continue
                    alpha, beta = V(m, a), V(m, b)
                    lhs = A.paths.induced_path_map(gf, alpha, beta)
                    outer = A.paths.induced_path_map(g, V(n, f.table[a]), V(n, f.table[b]))
                    rhs = A.cube.compose(outer, A.paths.induced_path_map(f, alpha, beta))
                    if lhs.table != rhs.table:
                        chk.fail("paths", f"cocycle fails for {g.literal()} o {f.literal()} at {a}<{b}")
                    induced.append(lhs.table)
            out.append((gf.table, fac.psi.table, fac.phi.table, tuple(induced)))
        return tuple(out)

    def validate(self, req: dict, chk: Checks):
        A = self.api
        verdicts = []
        for m, n, table in req["tables"]:
            text = literal(m, n, table)
            try:
                accepted = A.cube.from_literal(text).literal() == text
            except ValueError:
                accepted = False
            oracle = A.cube.validate_cotransverse(table, m, n, pairwise=True) is None
            if accepted != oracle:
                chk.fail("cube", f"verdict on {text} differs from the pairwise oracle")
            verdicts.append(accepted)
        return tuple(verdicts)

    def act(self, req: dict, chk: Checks):
        A = self.api
        f, g = req["act"]
        want = tuple(g.table[b] for b in f.table)
        gf = A.cube.compose(g, f)
        images = []
        for c in self.rep.cubes[3]:
            direct = A.sts.act(self.rep, gf, c)
            stepwise = A.sts.act(self.rep, f, A.sts.act(self.rep, g, c))
            h = self.rep.labels[c]
            if direct != stepwise:
                chk.fail("sts", f"act not functorial on cube {c} for {gf.literal()}")
            if self.rep.labels[direct].table != tuple(h.table[b] for b in want):
                chk.fail("sts", f"act on cube {c} is not precomposition")
            images.append(direct)
        return tuple(images)

    def build(self, req: dict, chk: Checks):
        A = self.api
        data = req["complex"]
        free = A.sts.free_sts(A.formats.parse_precubical(data))
        expected = {m: END_SIZES[m] * len(data["cubes"].get(str(m), ())) for m in range(data["max_dim"] + 1)}
        if self.inject and req["index"] == 0:
            expected[0] += 1  # a deliberately wrong expectation
        counts = free.counts()
        chk.expect("sts", counts == expected, f"free counts {counts} != {expected}")
        script = A.formats.parse_script(req["script"])
        cellular, cert, _ = A.sts.certify_cellular(script, 1)
        graph = A.sts.free_sts(A.formats.parse_precubical(req["graph"]))
        cells = {0: len(req["graph"]["cubes"]["0"]), 1: len(req["graph"]["cubes"]["1"])}
        chk.expect("sts", A.sts.graded_counts_equal(cellular, graph), "cellular and free graph counts differ")
        chk.expect("sts", cert.cell_counts == cells, f"cell counts {cert.cell_counts} != {cells}")
        return tuple(sorted(counts.items())), tuple(sorted(cellular.counts().items()))

    def quotient(self, req: dict, chk: Checks):
        A = self.api
        sizes = []
        for p, q, n in req["boundary"]:
            size = A.quotient.len(A.reedy.boundary_hom(p, q, n))
            closed = A.reedy.boundary_hom_closed_form(p, q, n)
            chk.expect("reedy", size == closed == boundary_hom_size(p, q, n),
                       f"boundary hom ({p},{q},{n}) has {size} classes, closed form {closed}")
            sizes.append(size)
        name, n = req["latching"]
        cmp = A.reedy.compare_latching_to_boundary(self.objects[name], n)
        want = LATCHING_SIZES[name, n]
        chk.expect("reedy", cmp.bijective and cmp.latching_size == cmp.boundary_eval_size == want,
                   f"latching of {name} at n={n}: {cmp}")
        return tuple(sizes), cmp.latching_size

    def suite(self, req: dict, chk: Checks):
        name, seed = req["suite"]
        report = self.api.suites.run_suite(name, max_dim=2, seed=seed, scale=SUITES[name])
        chk.expect("suites", report.ok and report.cases > 0 and not report.exhausted,
                   f"suite {name} seed {seed}: {report.machine_lines()[:2]}")
        return tuple(report.machine_lines())

    def execute(self, req: dict, chk: Checks):
        return (
            ("cube", chk.step("cube", self.pairs, req, chk)),
            ("cube", chk.step("cube", self.validate, req, chk)),
            ("sts", chk.step("sts", self.act, req, chk)),
            ("sts", chk.step("sts", self.build, req, chk)),
            ("reedy", chk.step("reedy", self.quotient, req, chk)),
            ("suites", chk.step("suites", self.suite, req, chk)),
        )
