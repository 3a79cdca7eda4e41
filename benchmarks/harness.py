"""Shared machinery of the benchmark: layer API, spans, checks, replay, metrics.

Workloads call transcube only through a layer API built here: a namespace
per module (``api.cube.compose``) holding the public functions.  Untraced,
the namespace holds the functions themselves; traced, each one is wrapped
so that every call records a span ``(name, start, end, parent, request)``
with ``name`` of the form ``<module>.<function>``, ``parent`` the request
span and ``request`` the index of the request in the fixed list.  Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

LAYERS = (
    "cube", "homsets", "paths", "topo", "batch", "sts", "reedy",
    "quotient", "geometry", "formats", "suites", "cli",
)

#: End-to-end metrics printed by an untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "req/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = (
    "eval", "factor", "compose", "dist_points", "dist_chain", "enumerate",
    "free", "cells", "dpath_transport", "reedy", "check", "malformed",
)

# Median span durations: (metric, unit, span names pooled into it).
_P50 = (
    ("cube.compose.p50_us", "us", ("cube.compose",)),
    ("cube.validate.p50_us", "us", ("cube.from_literal",)),
    ("homsets.factorize.p50_us", "us", ("homsets.factorize",)),
    ("paths.induced_path_map.p50_us", "us", ("paths.induced_path_map",)),
    ("paths.transport.p50_us", "us", ("paths.transport",)),
    ("paths.naturalize.p50_us", "us", ("paths.naturalize",)),
    ("topo.t_eval_maxmin.p50_us", "us", ("topo.t_eval_maxmin",)),
    ("topo.t_eval_permutation.p50_us", "us", ("topo.t_eval_permutation",)),
    ("topo.t_eval.p50_us", "us", ("topo.t_eval",)),
    ("batch.t_eval_batch.p50_us", "us", ("batch.t_eval_batch",)),
    ("sts.act.p50_us", "us", ("sts.act",)),
    ("sts.free_sts.p50_ms", "ms", ("sts.free_sts",)),
    ("sts.certify_cellular.p50_ms", "ms", ("sts.certify_cellular",)),
    ("reedy.boundary_hom.p50_ms", "ms", ("reedy.boundary_hom",)),
    ("reedy.compare_latching_to_boundary.p50_ms", "ms", ("reedy.compare_latching_to_boundary",)),
    ("quotient.len.p50_us", "us", ("quotient.len",)),
    ("geometry.chain_distance_sample.p50_ms", "ms", ("geometry.chain_distance_sample",)),
    ("geometry.vertex_distance.p50_us", "us", ("geometry.vertex_distance",)),
    ("formats.parse.p50_us", "us", ("formats.parse_precubical", "formats.parse_script")),
    ("suites.run_suite.p50_ms", "ms", ("suites.run_suite",)),
) + tuple((f"cli.{c}.p50_ms", "ms", (f"cli.{c}",)) for c in CLI_COMMANDS)

_SHARES = ("cube", "homsets", "paths", "topo", "batch", "sts", "reedy", "geometry")
_SCALE = {"us": 1e6, "ms": 1e3}

#: Per-layer metrics printed by a traced run: (name, unit).
PER_LAYER = (
    tuple((name, unit) for name, unit, _ in _P50)
    + (
        ("cube.compose.calls", "calls/req"),
        ("homsets.factorize.hit_ratio", "ratio"),
        ("homsets.cache_entries", "count"),
        ("homsets.enumerate_homset.setup_ms", "ms"),
        ("batch.points_per_s", "points/s"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_numpy_ms", "ms"),
        ("cli.import_transcube_ms", "ms"),
    )
    + tuple((f"{layer}.share", "ratio") for layer in _SHARES)
    + tuple((f"{layer}.failed", "count") for layer in LAYERS)
    + (("trace.overhead_frac", "ratio"),)
)


# -- layer API and spans -----------------------------------------------------


class Tracer:
    """Spans around calls into transcube, recorded from the benchmark's side."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.parent = -1  # id of the request span in flight
        self.request = -1  # index of that request in the fixed list

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, t0, perf_counter(), self.parent, self.request))

        return traced


def layer_api(table: dict[str, dict[str, Callable]], tracer: Tracer | None) -> SimpleNamespace:
    """``{"cube": {"compose": fn}}`` as ``api.cube.compose``, traced or not."""
    return SimpleNamespace(
        **{
            layer: SimpleNamespace(
                **{
                    fname: fn if tracer is None else tracer.wrap(f"{layer}.{fname}", fn)
                    for fname, fn in fns.items()
                }
            )
            for layer, fns in table.items()
        }
    )


class Workload:
    """What the worker needs from a workload besides its constructor, which
    does the whole set-up: ``requests``, ``warmup`` and ``execute``.

    ``warmup`` is replayed untimed at the end of set-up.  When it is the
    request list itself, the timed replays must reproduce its outputs.
    """

    rusage_who = resource.RUSAGE_SELF  # whose peak RSS is the workload's
    enumerate_setup_ms = 0.0  # cold hom-set enumeration during set-up
    warmup: list = []

    def extras(self, tracer: Tracer) -> dict[str, float]:
        """Per-layer metrics only the workload can compute."""
        return {}

    def close(self) -> None:
        """Release what set-up created."""


# -- checks and failure accounting -------------------------------------------


class Checks:
    """Failures of one request, each charged to the layer at fault."""

    def __init__(self) -> None:
        self.failures: list[tuple[str, str]] = []

    def fail(self, layer: str, what: str) -> None:
        self.failures.append((layer, what))

    def expect(self, layer: str, ok: bool, what: str) -> None:
        if not ok:
            self.fail(layer, what)

    def step(self, layer: str, fn: Callable, *args):
        """Run one step; an exception fails the request, never the run."""
        try:
            return fn(*args)
        except Exception as err:  # noqa: BLE001 - any program error is a failed request
            self.fail(layer, f"{type(err).__name__}: {err}")
            return ("error", type(err).__name__)


# -- digests -----------------------------------------------------------------


def canonical(obj):
    """A JSON-ready form with a fixed rendering for every value we emit."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return "inf" if math.isinf(obj) else repr(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "literal"):  # CubeMap
        return obj.literal()
    if hasattr(obj, "tobytes"):  # numpy array
        return [str(obj.dtype), list(obj.shape), hashlib.sha256(obj.tobytes()).hexdigest()]
    if hasattr(obj, "item"):  # numpy scalar
        return canonical(obj.item())
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- replay ------------------------------------------------------------------


@dataclass
class Replay:
    """One closed-loop replay of the fixed request list."""

    latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    failed: int = 0
    layer_failed: dict[str, int] = field(default_factory=lambda: {layer: 0 for layer in LAYERS})
    first_failures: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # per request, from the first pass
    requests: list[tuple[int, float, float]] = field(default_factory=list)  # span id, start, end

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def replay(
    execute: Callable, requests: list, seconds: float, tracer: Tracer | None, reference: list | None = None
) -> Replay:
    """Send the requests one after another, in whole passes over the list,
    until ``seconds`` have elapsed (at least one pass).

    ``execute(request, checks)`` returns the request's outputs as a tuple of
    ``(layer, value)`` pairs, one per step.  Every pass must reproduce
    ``reference`` (the outputs of an earlier replay of the same list) or,
    without one, the outputs of the first pass; a step that does not is
    charged to its layer.
    """
    out = Replay()
    span = 0
    start = perf_counter()
    while True:
        for index, request in enumerate(requests):
            checks = Checks()
            if tracer is not None:
                tracer.parent, tracer.request = span, index
            t0 = perf_counter()
            result = execute(request, checks)
            t1 = perf_counter()
            out.latencies.append(t1 - t0)
            out.requests.append((span, t0, t1))
            span += 1
            if len(out.outputs) < len(requests):
                out.outputs.append(result)
            expected = out.outputs[index] if reference is None else reference[index]
            if expected is not result:
                for (layer, value), (_, first) in zip(result, expected):
                    checks.expect(layer, value == first, "output differs between passes")
            if checks.failures:
                out.failed += 1
                for layer in sorted({layer for layer, _ in checks.failures}):
                    out.layer_failed[layer] += 1
                if len(out.first_failures) < 5:
                    out.first_failures.append(f"request {index}: {checks.failures[0]}")
        if perf_counter() - start >= seconds:
            break
    out.wall = perf_counter() - start
    return out


# -- metrics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values: list[float]) -> float:
    return percentile(values, 0.5)[0]


def end_to_end(run: Replay) -> tuple[dict[str, float], dict[str, int]]:
    """Throughput and latency of an untraced replay, with sample counts."""
    p50, beyond50 = percentile(run.latencies, 0.5)
    p90, beyond90 = percentile(run.latencies, 0.9)
    values = {
        "ops_per_s": run.attempted / run.wall,
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "fail_frac": run.failed / run.attempted,
    }
    samples = {"ops_per_s": run.attempted, "op_p50_ms": run.attempted, "op_p90_ms": run.attempted,
               "op_p50_ms_beyond": beyond50, "op_p90_ms_beyond": beyond90}
    return values, samples


def span_durations(tracer: Tracer) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for name, t0, t1, _, _ in tracer.spans:
        out.setdefault(name, []).append(t1 - t0)
    return out


def per_layer(
    tracer: Tracer, traced: Replay, untraced: Replay, extras: dict[str, float]
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of a traced replay, with the ones computed elsewhere
    (``extras``).  A layer the workload never calls reports 0: no calls, no
    time, no share."""
    durations = span_durations(tracer)
    request_time = sum(t1 - t0 for _, t0, t1 in traced.requests)
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    for metric, unit, names in _P50:
        pooled = [d for name in names for d in durations.get(name, ())]
        values[metric] = median(pooled) * _SCALE[unit] if pooled else 0.0
        samples[metric] = len(pooled)
    for layer in _SHARES:
        busy = sum(sum(ds) for name, ds in durations.items() if name.startswith(layer + "."))
        values[f"{layer}.share"] = busy / request_time
    values["cube.compose.calls"] = len(durations.get("cube.compose", ())) / traced.attempted
    traced_rate = traced.attempted / traced.wall
    untraced_rate = untraced.attempted / untraced.wall
    values["trace.overhead_frac"] = 1 - traced_rate / untraced_rate
    for name, _ in PER_LAYER:
        values.setdefault(name, 0.0)
    values.update(extras)
    return values, samples
