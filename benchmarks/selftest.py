"""Self-test of the benchmark: short runs of every workload.

    python3 -m pytest benchmarks/selftest.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit
and that a clean run has no failures (single-pass runs of ``run.py``), and,
on tiny request lists of a single worker, that the request and output digests
depend on the seed and only on the seed, and that a planted wrong
expectation is counted as a failed request instead of crashing the run.
The file is named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("discrete", "continuous", "cli-cold")
TINY = {"discrete": 8, "continuous": 6, "cli-cold": 5}  # requests per list


def output(script: str, workload: str, seed: int, trace: int, *extra: str) -> list[str]:
    """Output lines of a run of a single pass over the request list."""
    cmd = [
        sys.executable, str(HERE / script), "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@cache
def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Record and result of a run of the benchmark itself, as it is invoked."""
    lines = output("run.py", workload, seed, trace)
    assert lines[-2].startswith("record ")
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


@cache
def work(workload: str, seed: int, trace: int, *extra: str) -> dict:
    """Raw results of one worker on a tiny request list."""
    return json.loads(output("worker.py", workload, seed, trace, "--requests", str(TINY[workload]), *extra)[-1])


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present_and_no_failures(workload, trace):
    record, result = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert record["fail_frac"] == 0
    assert all(m["value"] > 0 for m in record["end_to_end"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_follow_the_seed(workload):
    first = work(workload, 1, 1)
    again = work(workload, 1, 0)
    other = work(workload, 2, 0)
    for key in ("requests_digest", "outputs_digest"):
        assert first[key] == again[key]
        assert first[key] != other[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expectation_is_a_counted_failure(workload):
    raw = work(workload, 1, 1, "--inject-fault")
    # the planted request fails in the warm-up, the untraced and the traced replay
    assert raw["failed"] == 3
    assert sum(v for name, v in raw["per_layer"].items() if name.endswith(".failed")) == 3
    assert raw["first_failures"]
