"""Property-check suites over every subsystem.

Each suite drives one family of invariants at a configurable scale, records
failures as minimal reproductions (map literals, point strings), and
reports deterministically for a fixed seed.  Wall time is measured but kept
out of the machine-readable lines so that identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from operator import le

from .cube import (
    CubeMap,
    InputError,
    Slotted,
    Vertex,
    bit_height,
    compose,
    d1_vertex,
    validate_cotransverse,
    vertices,
)
from .geometry import PointPresentation, chain_distance_sample, dpath_length, vertex_distance
from .homsets import BudgetExceeded, composable_pairs, enumerate_cofaces, enumerate_homset, factorize
from .paths import (
    DPath,
    SegmentPath,
    induced_path_map,
    is_natural,
    naturalize,
    transport,
)
from .reedy import (
    boundary_hom,
    boundary_hom_cases,
    boundary_hom_closed_form,
    canonical_pairs,
    compare_latching_to_boundary,
    constant_obj,
    free_obj,
    hom_obj,
)
from .sts import (
    StsMap,
    boundary,
    boundary_precubical,
    cube_precubical,
    free_sts,
    graded_counts_equal,
    representable,
)
from .topo import common_numerators, d1_point, d1_sym, d1_sym_witness, t_eval_maxmin, t_eval_permutation

DENOMINATOR = 2520  # divisible by 1..10, so sampled rationals stay friendly


class CheckSuiteReport(Slotted):
    """Outcome of one suite run; zero failures is the success criterion.
    Mutable while the suite runs, and so unhashable."""

    __slots__ = ("suite", "cases", "failures", "seconds", "exhausted")
    __hash__ = None

    def __init__(
        self, suite: str, cases: int = 0, failures: list[str] | None = None,
        seconds: float = 0.0, exhausted: bool = False,
    ) -> None:
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.seconds = seconds
        self.exhausted = exhausted

    @property
    def ok(self) -> bool:
        return not self.failures

    def machine_lines(self) -> list[str]:
        lines = [f"suite={self.suite} cases={self.cases} failures={len(self.failures)}"]
        lines += [f"fail {msg}" for msg in self.failures]
        if self.exhausted:
            lines.append("note budget-exhausted")
        return lines

    def to_text(self) -> str:
        status = "ok" if self.ok else "FAIL"
        body = "\n".join(self.machine_lines())
        return f"{body}\n# {status} in {self.seconds:.2f}s"

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "cases": self.cases,
                "failures": self.failures,
                "exhausted": self.exhausted,
                "seconds": round(self.seconds, 3),
            },
            sort_keys=True,
        )


def _random_rational_point(rnd: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rnd.randrange(DENOMINATOR + 1), DENOMINATOR) for _ in range(dim))


def _all_maps(max_dim: int) -> list[CubeMap]:
    return [
        f
        for m in range(max_dim + 1)
        for n in range(m, max_dim + 1)
        for f in enumerate_homset(m, n)
    ]


# -- individual suites ------------------------------------------------------


def suite_metric_axioms(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    for n in range(max_dim + 1):
        vs = list(vertices(n))
        for x in vs:
            report.cases += 1
            if d1_vertex(x, x) != 0:
                report.failures.append(f"d1({x},{x}) != 0")
        for x in vs:
            for y in vs:
                dxy = d1_vertex(x, y)
                for z in vs:
                    report.cases += 1
                    if dxy > d1_vertex(x, z) + d1_vertex(z, y):
                        report.failures.append(f"triangle fails at {x},{z},{y} in [{n}]")
    for _ in range(scale):
        dim = rnd.randrange(1, max(max_dim, 1) + 1)
        x = _random_rational_point(rnd, dim)
        y = _random_rational_point(rnd, dim)
        report.cases += 1
        sym = d1_sym(x, y)
        z = d1_sym_witness(x, y)
        l1 = sum(abs(a - b) for a, b in zip(x, y))
        if sym != l1 or d1_point(z, x) + d1_point(z, y) != sym or sym != d1_sym(y, x):
            report.failures.append(f"symmetric distance broken at {x} {y}")


def suite_cotransverse_validate(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    for n in range(max_dim + 1):
        zero, one = 0, (1 << n) - 1
        for f in enumerate_homset(n, n):
            report.cases += 1
            if f.table[zero] != zero or f.table[one] != one:
                report.failures.append(f"endpoints move under {f.literal()}")
            for x in range(1 << n):
                if bit_height(f.table[x]) != bit_height(x):
                    report.failures.append(f"height not preserved by {f.literal()} at {x}")
                    break
    # Covering-pair validation must agree with the full pairwise oracle,
    # also on corrupted tables.
    for f in _all_maps(max_dim):
        report.cases += 1
        fast = validate_cotransverse(f.table, f.dom_dim, f.cod_dim)
        slow = validate_cotransverse(f.table, f.dom_dim, f.cod_dim, pairwise=True)
        if (fast is None) != (slow is None):
            report.failures.append(f"validators disagree on {f.literal()}")
    for _ in range(scale if max_dim >= 1 else 0):  # the sample needs a positive dimension
        m = rnd.randrange(1, max_dim + 1)
        n = rnd.randrange(m, max_dim + 1)
        table = tuple(rnd.randrange(1 << n) for _ in range(1 << m))
        report.cases += 1
        fast = validate_cotransverse(table, m, n)
        slow = validate_cotransverse(table, m, n, pairwise=True)
        if (fast is None) != (slow is None):
            report.failures.append(f"validators disagree on random table {m}>{n}:{table}")


def suite_factorization_unique(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    for m in range(max_dim + 1):
        endos = enumerate_homset(m, m)
        for n in range(m, max_dim + 1):
            cofaces = enumerate_cofaces(m, n)
            for f in enumerate_homset(m, n):
                report.cases += 1
                fac = factorize(f)
                matches = [
                    (psi, phi)
                    for phi in cofaces
                    for psi in endos
                    if compose(phi, psi).table == f.table
                ]
                if len(matches) != 1 or matches[0] != (fac.psi, fac.phi):
                    report.failures.append(f"factorization not unique for {f.literal()}")


def suite_t_oracle(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    for n in range(1, max_dim + 1):
        for f in enumerate_homset(n, n):
            for _ in range(scale):
                x = tuple(rnd.randrange(DENOMINATOR + 1) for _ in range(n))
                report.cases += 1
                if t_eval_maxmin(f, x) != t_eval_permutation(f, x):
                    report.failures.append(
                        f"evaluators disagree: map {f.literal()} point {x}"
                    )


def suite_t_functoriality(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    # numpy loads here, not at import, so commands that evaluate no batch start without it
    import numpy as np

    from . import batch

    rng = np.random.default_rng(rnd.randrange(2**32))
    for f, g in composable_pairs(max_dim):
        pts = batch.random_points(rng, f.dom_dim, scale, DENOMINATOR)
        report.cases += 1
        via_composite = batch.t_eval_batch(compose(g, f), pts, DENOMINATOR)
        via_stages = batch.t_eval_batch(g, batch.t_eval_batch(f, pts, DENOMINATOR), DENOMINATOR)
        if not np.array_equal(via_composite, via_stages):
            bad = int(np.argwhere((via_composite != via_stages).any(axis=1))[0][0])
            report.failures.append(
                f"T(g f) != T(g) T(f) for g={g.literal()} f={f.literal()} point={tuple(pts[bad])}"
            )


def suite_quasi_isometry(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    import numpy as np

    from . import batch

    rng = np.random.default_rng(rnd.randrange(2**32))
    for f in _all_maps(max_dim):
        if f.dom_dim == 0:
            continue
        xs, ys = batch.random_comparable_pairs(rng, f.dom_dim, scale, DENOMINATOR)
        fx = batch.t_eval_batch(f, xs, DENOMINATOR)
        fy = batch.t_eval_batch(f, ys, DENOMINATOR)
        report.cases += 1
        if not np.array_equal(batch.d1_batch(fx, fy), batch.d1_batch(xs, ys)):
            report.failures.append(f"finite distances not preserved by {f.literal()}")
        if f.is_endo():
            if not np.array_equal(fx.sum(axis=1), xs.sum(axis=1)):
                report.failures.append(f"height not preserved by {f.literal()}")


#: The coordinates of :func:`_random_monotone_path`, built once.
_EIGHTHS = tuple(Fraction(k, 8) for k in range(9))


def _random_monotone_path(rnd: random.Random, dim: int, segments: int):
    """A PL directed path from the bottom vertex to a random vertex above it,
    with arbitrary (generally non-natural) parametrization speeds.  Drawn as
    integer numerators: coordinates in eighths, times in thirds."""
    pts = [(0,) * dim]
    for _ in range(segments - 1):
        pts.append(tuple(min(8, c + rnd.randrange(0, 5)) for c in pts[-1]))
    end = tuple(8 if c > 0 or rnd.random() < 0.7 else 0 for c in pts[-1])
    if end == pts[0]:
        end = (8,) * dim
    pts.append(end)
    times = [0]
    for _ in range(len(pts) - 1):
        times.append(times[-1] + rnd.randrange(1, 5))
    return SegmentPath(dim, tuple((Fraction(t, 3), tuple(_EIGHTHS[c] for c in pt)) for t, pt in zip(times, pts)))


def _distinct_runs(p) -> list:
    """Breakpoint points with consecutive duplicates collapsed (the PL image
    is determined by this sequence)."""
    out = []
    for _, pt in p.breakpoints:
        if not out or out[-1] != pt:
            out.append(pt)
    return out


def _breakpointwise_quasi_isometry(p) -> bool:
    """Whether every pair of breakpoints, earlier first, lies as far apart in
    the directed metric as in time; compared on integer numerators."""
    bps = p.breakpoints
    _, (times, *points), _ = common_numerators([[t for t, _ in bps], *[pt for _, pt in bps]])
    heights = [sum(pt) for pt in points]
    for i, (ti, xi, hi) in enumerate(zip(times, points, heights)):
        for tj, xj, hj in zip(times[i:], points[i:], heights[i:]):
            if hj - hi != tj - ti or not all(map(le, xi, xj)):
                return False
    return True


def suite_natural_paths(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    dims = range(1, max(2, max_dim) + 1)
    for dim in dims:
        for _ in range(scale):
            p = _random_monotone_path(rnd, dim, rnd.randrange(2, 5))
            nat = naturalize(p)
            report.cases += 1
            if not is_natural(nat):
                report.failures.append(f"naturalize output not natural: {nat}")
            if naturalize(nat) != nat:
                report.failures.append(f"naturalize not idempotent on {p}")
            if _distinct_runs(nat) != _distinct_runs(p):
                report.failures.append(f"naturalize changed the image of {p}")
            for candidate in (p, nat):
                report.cases += 1
                if is_natural(candidate) != _breakpointwise_quasi_isometry(candidate):
                    report.failures.append(
                        f"naturality/quasi-isometry mismatch on {candidate}"
                    )
        for f in enumerate_homset(dim, dim):
            p = naturalize(_random_monotone_path(rnd, dim, 3))
            q = transport(f, p)
            report.cases += 1
            if not is_natural(q):
                report.failures.append(
                    f"transport along {f.literal()} broke naturality"
                )


def suite_free_iso(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    for n in range(max_dim + 1):
        rep = representable(n)
        k = cube_precubical(n)
        free = free_sts(k)
        report.cases += 1
        if not graded_counts_equal(rep, free):
            report.failures.append(f"free cube counts differ at n={n}")
            continue
        mapping = {}
        index = {g: c for c, g in rep.labels.items()}
        cof = {c: phi for m in range(n + 1) for phi, c in zip(enumerate_cofaces(m, n), k.cubes[m])}
        for c in free.all_cubes():
            cell = free.labels[c]
            mapping[c] = index[compose(cof[cell.base], cell.psi)]
        try:
            StsMap(free, rep, mapping)
        except ValueError as err:
            report.failures.append(f"free/representable comparison not equivariant at n={n}: {err}")
        report.cases += 1
        bfree = free_sts(boundary_precubical(n))
        if not graded_counts_equal(boundary(n), bfree):
            report.failures.append(f"free boundary counts differ at n={n}")


def suite_boundary_hom(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    for p, q, n in boundary_hom_cases(max_dim):
        report.cases += 1
        quot = boundary_hom(p, q, n)
        expected = boundary_hom_closed_form(p, q, n)
        if len(quot) != expected:
            report.failures.append(f"boundary hom ({p},{q},{n}): {len(quot)} classes, expected {expected}")
            continue
        if expected:
            for found in canonical_pairs(quot, p, q):
                if len(found) != 1:
                    report.failures.append(f"boundary hom ({p},{q},{n}): canonical pair not unique")
                    break


def suite_latching(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    battery = [
        ("constant point", constant_obj(("*",), max_dim)),
        ("constant pair", constant_obj(("a", "b"), max_dim)),
        ("vertices", hom_obj(0, max_dim)),
        ("edges", hom_obj(1, max_dim)),
        ("free interval pair", free_obj(1, ("s", "t"), max_dim)),
    ]
    if max_dim >= 2:
        battery.append(("squares", hom_obj(2, max_dim)))
    for name, obj in battery:
        for n in range(max_dim + 1):
            report.cases += 1
            cmp = compare_latching_to_boundary(obj, n)
            if not cmp:
                report.failures.append(
                    f"latching vs boundary evaluation fails for {name} at n={n}: {cmp.detail}"
                )


def suite_cocycle(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    for f, g in composable_pairs(max_dim):
        m = f.dom_dim
        if m == 0:
            continue
        for a in range(1 << m):
            for b in range(1 << m):
                if a == b or a & ~b:
                    continue
                alpha, beta = Vertex(m, a), Vertex(m, b)
                report.cases += 1
                lhs = induced_path_map(compose(g, f), alpha, beta)
                rhs = compose(
                    induced_path_map(g, f(alpha), f(beta)),
                    induced_path_map(f, alpha, beta),
                )
                if lhs.table != rhs.table:
                    report.failures.append(
                        f"cocycle fails: g={g.literal()} f={f.literal()} {alpha}<{beta}"
                    )


def suite_skeleton_metric(report: CheckSuiteReport, max_dim: int, rnd: random.Random, scale: int) -> None:
    reps = {}  # one set per dimension, so later queries find its distance graphs built
    for n in range(max_dim + 1):
        rep = reps[n] = representable(n)
        verts = {rep.labels[c].table[0]: c for c in rep.cubes[0]}
        for xa, a in verts.items():
            for xb, b in verts.items():
                report.cases += 1
                skel = vertex_distance(rep, a, b)
                direct = d1_vertex(Vertex(n, xa), Vertex(n, xb))
                if skel != direct:
                    report.failures.append(
                        f"skeleton distance differs at n={n}: {xa}->{xb} {skel} vs {direct}"
                    )
        if n >= 1:
            top = next(c for c in rep.cubes[n] if rep.labels[c].is_identity())
            bottom = PointPresentation(top, tuple(Fraction(0) for _ in range(n)))
            topp = PointPresentation(top, tuple(Fraction(1) for _ in range(n)))
            report.cases += 1
            bound = chain_distance_sample(rep, bottom, topp)
            if bound.value != n:
                report.failures.append(f"chain bound at n={n} is {bound.value}, expected {n}")
    # directed path length dominates the skeleton distance
    for _ in range(scale):
        dim = rnd.randrange(1, max(max_dim, 1) + 1)
        if dim not in reps:
            reps[dim] = representable(dim)
        rep = reps[dim]
        top = next(c for c in rep.cubes[dim] if rep.labels[c].is_identity())
        p = naturalize(_random_monotone_path(rnd, dim, 3))
        path = DPath(((top, p),))
        a = rep.vertex_of(top, 0)
        b = rep.vertex_of(top, sum(1 << i for i, c in enumerate(p.end) if c == 1))
        report.cases += 1
        if dpath_length(path) < vertex_distance(rep, a, b):
            report.failures.append(f"path length undercuts skeleton distance in [{dim}]")


_SUITES = {
    "metric-axioms": (suite_metric_axioms, 4, 200),
    "cotransverse-validate": (suite_cotransverse_validate, 3, 200),
    "factorization-unique": (suite_factorization_unique, 3, 0),
    "t-oracle": (suite_t_oracle, 3, 400),
    "t-functoriality": (suite_t_functoriality, 3, 200),
    "quasi-isometry": (suite_quasi_isometry, 3, 500),
    "natural-paths": (suite_natural_paths, 3, 40),
    "free-iso": (suite_free_iso, 3, 0),
    "boundary-hom": (suite_boundary_hom, 3, 0),
    "latching": (suite_latching, 3, 0),
    "cocycle": (suite_cocycle, 3, 0),
    "skeleton-metric": (suite_skeleton_metric, 3, 20),
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(
    name: str,
    max_dim: int | None = None,
    seed: int = 0,
    scale: int | None = None,
) -> CheckSuiteReport:
    """Run one named suite deterministically.

    ``max_dim`` bounds the exhaustive part, ``scale`` the sampled part
    (points per map, paths per dimension); both default per suite.  A
    negative ``scale`` is an :class:`~transcube.cube.InputError`.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
    if scale is not None and scale < 0:
        raise InputError(f"scale must be nonnegative, got {scale}")
    fn, default_dim, default_scale = _SUITES[name]
    report = CheckSuiteReport(suite=name)
    rnd = random.Random(seed)
    t0 = time.perf_counter()
    try:
        fn(
            report,
            default_dim if max_dim is None else max_dim,
            rnd,
            default_scale if scale is None else scale,
        )
    except BudgetExceeded:
        # An over-ambitious dimension is marked, not failed.
        report.exhausted = True
    report.seconds = time.perf_counter() - t0
    return report
