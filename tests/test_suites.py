from __future__ import annotations

import pytest

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
