"""The benchmark under ``benchmarks/`` reads transcube through fixed names:
the functions of each workload's ``api_table()`` and the ``cache_info()`` of
four ``homsets`` caches.  A refactor that renames one of them breaks the
benchmark, so tier-1 checks that they still resolve."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from transcube import cube, homsets

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench_module(monkeypatch):
    """Import a module of ``benchmarks/`` (they import each other as top-level
    names), then drop every such module again."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == BENCHMARKS:
            del sys.modules[name]


def test_factorization_caches_are_bounded():
    for cached in (homsets.factorize, homsets.decompose_coface, cube.interned):
        info = cached.cache_info()
        assert info.maxsize is not None and info.maxsize > 0
        assert info.currsize <= info.maxsize


def test_benchmark_cache_snapshot_resolves(bench_module):
    snapshot = bench_module("worker").cache_snapshot()
    assert set(snapshot) == {"enumerate_homset", "enumerate_cofaces", "factorize", "decompose_coface"}
    assert all({"hits", "misses", "maxsize", "currsize"} <= set(info) for info in snapshot.values())


@pytest.mark.parametrize("workload", ["continuous", "discrete"])
def test_benchmark_api_tables_resolve(bench_module, workload):
    table = bench_module(workload).api_table()  # raises if a name is gone
    assert table
    for layer, functions in table.items():
        for name, fn in functions.items():
            assert callable(fn), (layer, name)


def test_homset_caches_are_bounded():
    for gate in (homsets.enumerate_homset, homsets.enumerate_cofaces):
        info = gate.cache_info()
        assert info.maxsize == homsets.HOMSET_CACHE_MAXSIZE
        assert info.currsize <= info.maxsize
