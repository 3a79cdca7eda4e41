"""Run one benchmark workload of transcube and print its metrics.

    python3 benchmarks/run.py --workload discrete --seed 1 --seconds 10 --trace 0

Workloads: ``discrete``, ``continuous`` and ``cli-cold`` (see README.md).
The run builds its inputs from ``--seed``, checks every request against an
independent expectation and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from a traced replay that follows an untraced one.  The line before
it, ``record {...}``, holds the run record: environment, digests, sample
counts, cache statistics and the failure fraction.

Set-up time is measured from spawning a worker process to the moment it is
ready to send its first timed request.  The run sets up ``SETUP_SAMPLES``
workers, one after another, and reports the median; the last one also runs
the timed replay.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from harness import END_TO_END, PER_LAYER, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # every worker is killed after this long
SETUP_SAMPLES = 5  # workers set up per run; the median is reported


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def spawn_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker, time it until it reports ``READY`` and collect the rest
    of its output.  The worker is killed at the deadline and always reaped."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "READY":
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return setup_s, rest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("discrete", "continuous", "cli-cold"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum timed replay, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "transcube" / "__init__.py").is_file():
        print(f"error: no transcube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = perf_counter() + DEADLINE_S
    try:
        setups = [spawn_worker(common + ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, output = spawn_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        raw = json.loads(output.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    values = dict(raw["end_to_end"], setup_s=median(setups), peak_rss_mb=raw["peak_rss_mb"])
    chosen = PER_LAYER if args.trace else END_TO_END
    source = raw["per_layer"] if args.trace else values
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in chosen}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "environment": raw["environment"],
        "requests_digest": raw["requests_digest"],
        "outputs_digest": raw["outputs_digest"],
        "passes": raw["passes"],
        "fail_frac": raw["failed"] / raw["attempted"],
        "first_failures": raw["first_failures"],
        "setup_samples_s": setups,
        "end_to_end": {
            name: {"value": values[name], "unit": unit,
                   "samples": len(setups) if name == "setup_s" else raw["samples"].get(name, 1)}
            for name, unit in END_TO_END
        },
        "samples_beyond": {name: raw["samples"][name + "_beyond"] for name in ("op_p50_ms", "op_p90_ms")},
        "caches": raw["caches"],
    }
    if args.trace:
        record["per_layer_samples"] = raw["layer_samples"]
        record["spans_file"] = raw["spans_file"]
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
