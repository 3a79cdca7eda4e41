from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_records", Path(__file__).resolve().parent.parent / "tools" / "bench_records.py"
)
bench_records = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_records)


def _run(
    tmp_path: Path, name: str, seed: int, commit: str, ops: float, failed: int = 0, source: str = "abc123"
) -> Path:
    record = {
        "workload": "cli-cold",
        "seed": seed,
        "git_commit": commit,
        "environment": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "source_digest": source},
    }
    result = {
        "correct": failed == 0,
        "attempted": 110,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "req/s"}, "op_p50_ms": {"value": 1000 / ops, "unit": "ms"}},
    }
    path = tmp_path / name
    path.write_text(f"record {json.dumps(record)}\n{json.dumps(result)}\n", encoding="utf-8")
    return path


def test_runs_become_one_median_record_per_metric_and_commit(tmp_path):
    paths = [
        _run(tmp_path, "a1", 2, "f2a0a28", 8.0),
        _run(tmp_path, "a2", 1, "unknown (not a git checkout)", 9.0),
        _run(tmp_path, "a3", 3, "f2a0a28", 7.0),
        _run(tmp_path, "b1", 1, "unknown (not a git checkout)", 10.0, source="def456"),
    ]
    got = {(r["source"], r["metric"]): r for r in bench_records.records(paths)}
    assert set(got) == {
        ("abc123", "ops_per_s"), ("abc123", "op_p50_ms"), ("def456", "ops_per_s"), ("def456", "op_p50_ms")
    }
    assert got["abc123", "ops_per_s"] == {
        "workload": "cli-cold", "metric": "ops_per_s", "value": 8.0, "unit": "req/s", "seeds": [1, 2, 3],
        "source": "abc123", "commit": "f2a0a28", "python": "3.11.7", "numpy": "2.4.6", "nproc": 2,
    }
    assert got["def456", "op_p50_ms"]["value"] == 100.0
    assert got["def456", "op_p50_ms"]["commit"] is None


def test_one_source_from_two_commits_is_refused(tmp_path):
    paths = [_run(tmp_path, "a1", 1, "f2a0a28", 8.0), _run(tmp_path, "a2", 2, "0188082", 9.0)]
    with pytest.raises(SystemExit, match="different commits"):
        bench_records.records(paths)


def test_a_run_with_failed_requests_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="1 of 110 requests failed"):
        bench_records.records([_run(tmp_path, "bad", 1, "f2a0a28", 8.0, failed=1)])
