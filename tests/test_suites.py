from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from transcube import batch, suites
from transcube.cube import INF, identity
from transcube.geometry import ChainBound
from transcube.paths import segment_path
from transcube.reedy import LatchingComparison
from transcube.sts import representable
from transcube.suites import run_suite, suite_names


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
