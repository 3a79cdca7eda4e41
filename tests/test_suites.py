from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from transcube import batch, suites
from transcube.cube import INF, identity
from transcube.geometry import ChainBound
from transcube.paths import SegmentPath, is_dpath, naturalize, segment_path
from transcube.reedy import LatchingComparison
from transcube.sts import representable
from transcube.suites import run_suite, suite_names
from transcube.topo import d1_point


def test_suite_roster():
    assert suite_names() == [
        "metric-axioms",
        "cotransverse-validate",
        "factorization-unique",
        "t-oracle",
        "t-functoriality",
        "quasi-isometry",
        "natural-paths",
        "free-iso",
        "boundary-hom",
        "latching",
        "cocycle",
        "skeleton-metric",
    ]


@pytest.mark.parametrize("name", suite_names())
def test_every_suite_is_green_at_small_scale(name):
    report = run_suite(name, max_dim=2, seed=42, scale=30)
    assert report.ok, report.failures[:3]
    assert report.cases > 0


def test_reports_are_deterministic():
    for name in ("t-oracle", "natural-paths", "quasi-isometry"):
        a = run_suite(name, max_dim=2, seed=5, scale=20)
        b = run_suite(name, max_dim=2, seed=5, scale=20)
        assert a.machine_lines() == b.machine_lines()


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("definitely-not-a-suite")


def test_budget_exhaustion_is_marked_not_failed(monkeypatch):
    from transcube.homsets import enumerate_homset

    enumerate_homset.cache_clear()  # warm caches would bypass the guard
    monkeypatch.setenv("TRANSCUBE_BUDGET", "40")
    report = run_suite("factorization-unique", max_dim=3, seed=0)
    assert report.exhausted and report.ok
    assert "note budget-exhausted" in report.machine_lines()


def test_machine_lines_golden_at_max_dim_2():
    # every suite of `check all` at seed 0 and default scales; the case
    # counts pin the work each suite does, so a refactor must keep them
    expected = [
        "suite=metric-axioms cases=280 failures=0",
        "suite=cotransverse-validate cases=222 failures=0",
        "suite=factorization-unique cases=16 failures=0",
        "suite=t-oracle cases=2000 failures=0",
        "suite=t-functoriality cases=70 failures=0",
        "suite=quasi-isometry cases=9 failures=0",
        "suite=natural-paths cases=245 failures=0",
        "suite=free-iso cases=6 failures=0",
        "suite=boundary-hom cases=27 failures=0",
        "suite=latching cases=18 failures=0",
        "suite=cocycle cases=101 failures=0",
        "suite=skeleton-metric cases=43 failures=0",
    ]
    lines = [line for name in suite_names() for line in run_suite(name, max_dim=2, seed=0).machine_lines()]
    assert lines == expected


def _reversed_maps(m, n):
    # one table per hom-set, reversed: above [0] it moves both endpoints and every height
    table = tuple(reversed(range(1 << m)))
    return [SimpleNamespace(table=table, dom_dim=m, cod_dim=n, literal=lambda: f"reversed {m}>{n}")]


def _lhs_only(real):
    # the cocycle suite asks for lhs, then the two rhs factors; the planted
    # rhs factors are the identity of [0], so the composite disagrees with lhs
    calls = itertools.count()
    return lambda f, a, b: real(f, a, b) if next(calls) % 3 == 0 else identity(0)


def _dropped_interior(p):
    # keep the ends only and shift time: not idempotent, and the image changes
    return segment_path(p.dim, [(t + 1, x) for t, x in (p.breakpoints[0], p.breakpoints[-1])])


_FAULTS = [
    ("metric-axioms", "suites.d1_vertex", lambda real: lambda x, y: 1),
    ("metric-axioms", "suites.d1_vertex", lambda real: lambda x, y: (x.bits ^ y.bits) ** 2),
    ("metric-axioms", "suites.d1_sym", lambda real: lambda x, y: 0),
    ("cotransverse-validate", "suites.validate_cotransverse", lambda real: lambda t, m, n, pairwise=False: pairwise or None),
    ("cotransverse-validate", "suites.enumerate_homset", lambda real: _reversed_maps),
    ("factorization-unique", "suites.compose", lambda real: lambda g, f: g),
    ("t-oracle", "suites.t_eval_permutation", lambda real: lambda f, x: None),
    ("t-functoriality", "batch.t_eval_batch", lambda real: lambda f, pts, den: pts + 1),
    ("quasi-isometry", "batch.t_eval_batch", lambda real: lambda f, pts, den: pts * 0),
    ("natural-paths", "suites.is_natural", lambda real: lambda p: False),
    ("natural-paths", "suites.naturalize", lambda real: _dropped_interior),
    ("free-iso", "suites.graded_counts_equal", lambda real: lambda a, b: False),
    ("free-iso", "suites.StsMap", lambda real: lambda *args: real(args[0], args[0], {})),
    ("free-iso", "suites.boundary", lambda real: representable),
    ("boundary-hom", "suites.boundary_hom_closed_form", lambda real: lambda p, q, n: -1),
    ("boundary-hom", "suites.canonical_pairs", lambda real: lambda quot, p, q: [[]]),
    ("latching", "suites.compare_latching_to_boundary", lambda real: lambda obj, n: LatchingComparison(False, 0, 1, "planted")),
    ("cocycle", "suites.induced_path_map", _lhs_only),
    ("skeleton-metric", "suites.vertex_distance", lambda real: lambda sts, a, b: INF),
    ("skeleton-metric", "suites.chain_distance_sample", lambda real: lambda *args: ChainBound(INF)),
]


@pytest.mark.parametrize(
    "name, target, fake", _FAULTS, ids=[f"{name} {target}" for name, target, _ in _FAULTS]
)
def test_every_suite_reports_a_planted_fault(monkeypatch, name, target, fake):
    # a detected fault must come out as a report, never as a traceback from
    # a failure message that cannot be formatted
    module, attr = target.split(".")
    owner = {"suites": suites, "batch": batch}[module]
    monkeypatch.setattr(owner, attr, fake(getattr(owner, attr)))
    report = run_suite(name, max_dim=2, seed=0, scale=5)
    lines = report.machine_lines()
    assert not report.ok and report.cases > 0
    assert any(line.startswith("fail ") for line in lines)
    assert lines[0] == f"suite={name} cases={report.cases} failures={len(report.failures)}"


def reference_breakpointwise_quasi_isometry(p) -> bool:
    """The check as first written: ``d1_point`` on every pair of breakpoints."""
    bps = p.breakpoints
    for i in range(len(bps)):
        for j in range(i, len(bps)):
            ti, xi = bps[i]
            tj, xj = bps[j]
            if d1_point(xi, xj) != tj - ti:
                return False
    return True


def random_path(rnd, kind):
    """A random path: int times and 0/1 coordinates for ``kind`` "int",
    Fractions for "fraction", both for "mixed".  Most climb, some wander, and
    about half are timed by height, so they are natural when they climb."""
    dim = rnd.randint(1, 3)
    den = 1 if kind == "int" else rnd.choice((2, 3, 4, 6, 12))
    pts = [tuple(rnd.randint(0, den // 2) for _ in range(dim))]
    for _ in range(rnd.randint(1, 4)):
        if rnd.random() < 0.15:
            pts.append(tuple(rnd.randint(0, den) for _ in range(dim)))
        else:
            pts.append(tuple(min(den, c + rnd.randint(0, 1 + den // 2)) for c in pts[-1]))
    heights = [sum(pt) for pt in pts]
    if rnd.random() < 0.5 and all(a < b for a, b in zip(heights, heights[1:])):
        times = [h - heights[0] for h in heights]
    else:
        times = [0]
        for _ in pts[1:]:
            times.append(times[-1] + rnd.randint(1, 2 * den))

    def value(num):
        if kind == "int" or (kind == "mixed" and num % den == 0 and rnd.random() < 0.5):
            return num // den if num % den == 0 else F(num, den)
        return F(num, den)

    return SegmentPath(dim, tuple((value(t), tuple(map(value, pt))) for t, pt in zip(times, pts)))


def test_breakpointwise_quasi_isometry_matches_its_reference():
    rnd = random.Random(24)
    seen, counts = set(), {True: 0, False: 0}
    for _ in range(1500):
        kind = rnd.choice(("int", "fraction", "mixed"))
        p = random_path(rnd, kind)
        for candidate in (p, naturalize(p)) if is_dpath(p) else (p,):
            want = reference_breakpointwise_quasi_isometry(candidate)
            assert suites._breakpointwise_quasi_isometry(candidate) is want
            seen.add((kind, want))
            counts[want] += 1
    assert seen == {(kind, answer) for kind in ("int", "fraction", "mixed") for answer in (True, False)}
    assert min(counts.values()) > 400

