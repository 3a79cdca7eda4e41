"""Child process of the benchmark: set up one workload, then replay it.

The parent (``run.py``) times set-up from spawning this process to the
``READY`` line printed here; set-up ends with an untimed, checked replay of
the workload's warm-up requests.  Unless ``--setup-only`` is given, the
worker then replays the request list untraced for ``--seconds``; with
``--trace 1`` it replays again with every call into transcube wrapped in a
span.  The last line of its output is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

from harness import LAYERS, Tracer, digest, end_to_end, layer_api, per_layer, replay

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = {
    "discrete": ("discrete", "Discrete"),
    "continuous": ("continuous", "Continuous"),
    "cli-cold": ("cli_cold", "CliCold"),
}


def import_transcube():
    """Import transcube from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import transcube

    if Path(transcube.__file__).resolve().parent != (src / "transcube").resolve():
        raise ImportError(f"transcube came from {transcube.__file__}, not from {src}")
    return transcube


def cache_snapshot() -> dict[str, dict[str, int]]:
    from transcube import homsets

    return {
        name: getattr(homsets, name).cache_info()._asdict()
        for name in ("enumerate_homset", "enumerate_cofaces", "factorize", "decompose_coface")
    }


def write_spans(tracer: Tracer, traced, workload: str, seed: int) -> str:
    """Request spans and layer spans, one per line, as CSV."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
    with path.open("w", encoding="utf-8") as fh:
        fh.write("name,start_s,end_s,parent,request\n")
        for span, t0, t1 in traced.requests:
            fh.write(f"request.{span},{t0:.9f},{t1:.9f},,\n")
        for name, t0, t1, parent, request in tracer.spans:
            fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{request}\n")
    return str(path.relative_to(ROOT))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None, help="shorten the request list")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-fault", action="store_true", help="plant one wrong expectation")
    args = parser.parse_args(argv)

    transcube = import_transcube()
    import numpy

    module_name, class_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    workload = getattr(module, class_name)(
        layer_api(module.api_table(), None), args.seed, args.requests, args.inject_fault
    )
    try:
        # The hit ratio of the factorization cache over the warm-up, which
        # is the first pass over the list for the in-process workloads.
        before = cache_snapshot()["factorize"]
        warm = replay(workload.execute, workload.warmup, 0, None)
        after = cache_snapshot()["factorize"]
        print("READY", flush=True)
        if args.setup_only:
            return 0

        whole = workload.warmup is workload.requests
        untraced = replay(workload.execute, workload.requests, args.seconds, None, warm.outputs if whole else None)
        runs = [warm, untraced]
        payload = {
            "requests_digest": digest([sorted(r.items()) for r in workload.requests]),
            "outputs_digest": digest(untraced.outputs),
            "passes": untraced.attempted // len(workload.requests),
        }
        payload["end_to_end"], payload["samples"] = end_to_end(untraced)
        if args.trace:
            tracer = Tracer()
            workload.api = layer_api(module.api_table(), tracer)
            traced = replay(workload.execute, workload.requests, args.seconds, tracer, untraced.outputs)
            runs.append(traced)
            calls = after["hits"] + after["misses"] - before["hits"] - before["misses"]
            extras = {
                "homsets.factorize.hit_ratio": (after["hits"] - before["hits"]) / calls if calls else 0.0,
                "homsets.cache_entries": sum(c["currsize"] for c in cache_snapshot().values()),
                "homsets.enumerate_homset.setup_ms": workload.enumerate_setup_ms,
            }
            extras.update({f"{layer}.failed": sum(run.layer_failed[layer] for run in runs) for layer in LAYERS})
            extras.update(workload.extras(tracer))
            payload["per_layer"], payload["layer_samples"] = per_layer(tracer, traced, untraced, extras)
            payload["spans_file"] = write_spans(tracer, traced, args.workload, args.seed)
        payload["attempted"] = sum(run.attempted for run in runs)
        payload["failed"] = sum(run.failed for run in runs)
        payload["first_failures"] = [f for run in runs for f in run.first_failures]
        usage = resource.getrusage(workload.rusage_who)
        payload["peak_rss_mb"] = usage.ru_maxrss / 1024
        payload["caches"] = cache_snapshot()
        payload["environment"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "transcube": transcube.__version__,
            "source_digest": source_digest(),
        }
    finally:
        workload.close()
    print(json.dumps(payload, sort_keys=True))
    return 0


def source_digest() -> str:
    """Digest of the program under test, for checkouts that are not git repos."""
    files = sorted((ROOT / "src").rglob("*.py"))
    return digest([[str(p.relative_to(ROOT)), p.read_text(encoding="utf-8")] for p in files])


if __name__ == "__main__":
    sys.exit(main())
