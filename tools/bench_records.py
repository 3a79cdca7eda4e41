"""Turn benchmark outputs into the records of a ``BENCH_<n>.json`` file.

    python3 tools/bench_records.py OUT... > BENCH_<n>.json

Each ``OUT`` holds the printed output of one ``benchmarks/run.py`` run: its
``record {...}`` line and, last, its result line.  Runs are grouped by
workload and by the code they measured: the digest of ``src/`` that every
run record carries, so the change side of one file joins the parent side
of the next.  Every metric of a group becomes one record
``{workload, metric, value, unit, seeds, source, commit, python, numpy,
nproc}``: the median of the group's runs, with the seeds of those runs,
the source digest and the git commit (``null`` when no run of the group
was made in a git checkout).  A timing no request of a run sampled (a
layer the workload does not reach) is left out of that run.  A run whose
outputs were not all correct, or a group whose runs disagree on the
environment or name different commits, stops the script with an error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median

ENVIRONMENT = ("python", "numpy", "nproc")


def read_run(path: Path) -> tuple[dict, dict]:
    """The run record and the result line of one benchmark output."""
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line[len("record "):]) for line in lines if line.startswith("record ")]
    if len(records) != 1 or not lines[-1].startswith("{"):
        raise SystemExit(f"{path}: not the output of one benchmark run")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{path}: {result['failed']} of {result['attempted']} requests failed")
    return records[0], result


def records(paths: list[Path]) -> list[dict]:
    groups: dict[tuple[str, str], list[tuple[dict, dict]]] = {}
    for path in paths:
        record, result = read_run(path)
        groups.setdefault((record["workload"], record["environment"]["source_digest"]), []).append((record, result))
    out = []
    for (workload, source), runs in sorted(groups.items()):
        environments = {tuple(record["environment"][key] for key in ENVIRONMENT) for record, _ in runs}
        if len(environments) != 1:
            raise SystemExit(f"{workload} at {source}: runs from different environments {sorted(environments)}")
        environment = dict(zip(ENVIRONMENT, environments.pop()))
        commits = {record["git_commit"] for record, _ in runs if not record["git_commit"].startswith("unknown")}
        if len(commits) > 1:
            raise SystemExit(f"{workload} at {source}: runs from different commits {sorted(commits)}")
        commit = commits.pop() if commits else None
        by_metric: dict[str, list[tuple[int, float, str]]] = {}
        for record, result in runs:
            for metric, entry in result["metrics"].items():
                if record.get("per_layer_samples", {}).get(metric) == 0:
                    continue
                by_metric.setdefault(metric, []).append((record["seed"], entry["value"], entry["unit"]))
        for metric, values in sorted(by_metric.items()):
            out.append({
                "workload": workload,
                "metric": metric,
                "value": median(value for _, value, _ in values),
                "unit": values[0][2],
                "seeds": sorted(seed for seed, _, _ in values),
                "source": source,
                "commit": commit,
                **environment,
            })
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print("[\n" + ",\n".join(json.dumps(r) for r in records([Path(a) for a in argv])) + "\n]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
