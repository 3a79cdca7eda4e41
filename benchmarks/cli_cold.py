"""Workload ``cli-cold``: one fresh ``python -m transcube.cli`` per request.

The mix holds every command ten times, once with a malformed argument that
must exit with code 2 and no traceback.  Well-formed outputs (the machine
readable ``--format json`` form) are compared with references computed
in-process during set-up.  At most one child process is alive at a time.
"""

from __future__ import annotations

import compileall
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path
from time import perf_counter

from harness import CLI_COMMANDS, Checks, Tracer, Workload, median
from inputs import graph_inputs, grid_complex, monotone_path, rational_point, stratified

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 60
PER_COMMAND = 10  # requests per command in the list: ten rounds
MALFORMED = 1  # of which malformed
PROBE_RUNS = 7
DENOMINATOR = 2520
GRIDS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))
SUITE_NAMES = (
    "metric-axioms", "cotransverse-validate", "factorization-unique", "t-oracle",
    "t-functoriality", "quasi-isometry", "natural-paths", "free-iso", "boundary-hom",
    "latching", "cocycle", "skeleton-metric",
)
COMMANDS = tuple(c for c in CLI_COMMANDS if c != "malformed")


@cache
def child_env() -> dict[str, str]:
    """An explicit environment: the checkout's ``src`` first on the path and
    a fixed hash seed, nothing else inherited but ``PATH``."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": os.pathsep.join(path),
        "PYTHONHASHSEED": "0",
    }


def run_python(argv: list[str]) -> tuple[int, str, str]:
    """Run the interpreter on ``argv`` with closed stdin; killed and reaped on timeout."""
    proc = subprocess.run(
        [sys.executable, *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    return run_python(["-m", "transcube.cli", "--format", "json", *argv])


def api_table() -> dict:
    return {"cli": {command: run_cli for command in CLI_COMMANDS}}


def point_text(point) -> str:
    return ",".join(str(c) for c in point)


class CliCold(Workload):
    rusage_who = resource.RUSAGE_CHILDREN

    def __init__(self, api, seed: int, requests: int | None = None, inject: bool = False) -> None:
        from transcube import homsets

        self.api = api
        self.work = WORK_DIR / f"cli-cold-seed{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        # Children load bytecode compiled here, never compile inside a request.
        compileall.compile_dir(ROOT / "src" / "transcube", quiet=1)
        t0 = perf_counter()
        self.hom = {(m, n): homsets.enumerate_homset(m, n) for m in range(5) for n in range(m, 5)}
        self.enumerate_setup_ms = (perf_counter() - t0) * 1e3
        rnd = random.Random(seed)
        suites = stratified(rnd, SUITE_NAMES, PER_COMMAND)
        by_command = []
        for command in COMMANDS:
            make = getattr(self, "_" + command)
            malformed = set(rnd.sample(range(PER_COMMAND), MALFORMED))
            by_command.append([make(rnd, f"{command}{k}", k in malformed, suites[k]) for k in range(PER_COMMAND)])
        # Round k holds the k-th request of every command, in shuffled order,
        # so that a slow spell of the machine falls on every command alike.
        listing = []
        for k in range(PER_COMMAND):
            round_ = [requests_of[k] for requests_of in by_command]
            rnd.shuffle(round_)
            listing.extend(round_)
        # One untimed invocation per command, well-formed, during set-up.
        self.warmup = [next(r for r in listing if r["command"] == c and r["expected"] is not None) for c in COMMANDS]
        self.requests = listing[:requests] if requests else listing
        for index, req in enumerate(self.requests):
            req["index"] = index
        if inject:
            first = next(r for r in self.requests if r["expected"] is not None)
            first["expected"] = ["deliberately", "wrong"]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _file(self, name: str, data) -> str:
        path = self.work / f"{name}.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
        return str(path.relative_to(ROOT))  # children run in ROOT

    def _map(self, rnd: random.Random, low: int = 0):
        n = rnd.randrange(max(low, 1), 5)
        return rnd.choice(self.hom[rnd.randrange(low, n + 1), n])

    # -- one generator per command: argv and the expected parsed output ----
    # Each returns {"command", "argv", "expected"}; expected None means the
    # request is malformed and must exit with code 2.

    def _eval(self, rnd, tag, malformed, suite):
        from transcube.topo import format_point, t_eval

        f = self._map(rnd, low=1)
        x = rational_point(rnd, f.dom_dim, DENOMINATOR)
        if malformed:  # a coordinate outside [0, 1]
            x = (Fraction(3, 2),) + x[1:]
            return _req("eval", ["eval", "--map", f.literal(), "--point", point_text(x)], None)
        return _req("eval", ["eval", "--map", f.literal(), "--point", point_text(x)],
                    {"point": format_point(t_eval(f, x))})

    def _factor(self, rnd, tag, malformed, suite):
        from transcube.homsets import factorize

        f = self._map(rnd)
        if malformed:  # one table entry too many
            return _req("factor", ["factor", "--map", f.literal() + ",0"], None)
        fac = factorize(f)
        return _req("factor", ["factor", "--map", f.literal()], {"psi": fac.psi.literal(), "phi": fac.phi.literal()})

    def _compose(self, rnd, tag, malformed, suite):
        from transcube.cube import compose

        dims = sorted(rnd.randrange(5) for _ in range(3))
        f, g = rnd.choice(self.hom[dims[0], dims[1]]), rnd.choice(self.hom[dims[1], dims[2]])
        if malformed:  # one table entry too many
            return _req("compose", ["compose", g.literal(), f.literal() + ",0"], None)
        return _req("compose", ["compose", g.literal(), f.literal()], {"map": compose(g, f).literal()})

    def _dist_points(self, rnd, tag, malformed, suite):
        from transcube.topo import d1_point, d1_sym, d1_sym_witness, format_point

        d = rnd.randrange(1, 5)
        a, b = rational_point(rnd, d, DENOMINATOR), rational_point(rnd, d, DENOMINATOR)
        if malformed:  # a coordinate outside [0, 1]
            b = (Fraction(3, 2),) + b[1:]
            return _req("dist_points", ["dist", "--points", point_text(a), point_text(b)], None)
        dist = d1_point(a, b)
        return _req("dist_points", ["dist", "--points", point_text(a), point_text(b)], {
            "d1": "inf" if dist == float("inf") else str(dist),
            "d1_sym": str(d1_sym(a, b)),
            "witness": format_point(d1_sym_witness(a, b)),
        })

    def _dist_chain(self, rnd, tag, malformed, suite):
        from transcube.formats import parse_precubical
        from transcube.geometry import PointPresentation, chain_distance_sample
        from transcube.sts import free_sts

        data = grid_complex(rnd.choice(GRIDS))
        path = self._file(tag, data)
        sts = free_sts(parse_precubical(data))
        ends = []
        for _ in range(2):
            cube = rnd.choice(list(sts.all_cubes()))
            ends.append(PointPresentation(cube, rational_point(rnd, sts.dim_of[cube], 12)))
        texts = [",".join([str(p.cube_id), *(str(c) for c in p.local)]) for p in ends]
        refinement = rnd.randrange(2)
        if malformed:  # --q missing
            return _req("dist_chain", ["dist", "--input", path, "--chain", "--p", texts[0]], None)
        bound = chain_distance_sample(sts, ends[0], ends[1], budget=4096, refinement=refinement)
        value = "inf" if bound.value == float("inf") else str(bound.value)
        return _req("dist_chain", ["dist", "--input", path, "--chain", "--p", texts[0], "--q", texts[1],
                                   "--refinement", str(refinement)],
                    {"chain_bound": value, "exhausted": bound.exhausted})

    def _enumerate(self, rnd, tag, malformed, suite):
        if malformed:  # a negative dimension
            return _req("enumerate", ["enumerate", "--dom", "-1", "--cod", "4", "--count-only"], None)
        return _req("enumerate", ["enumerate", "--dom", "4", "--cod", "4", "--count-only"], len(self.hom[4, 4]))

    def _free(self, rnd, tag, malformed, suite):
        from transcube.formats import parse_precubical
        from transcube.sts import free_sts

        data = grid_complex(rnd.choice(GRIDS))
        if malformed:  # truncated JSON
            return _req("free", ["free", "--input", self._file(tag, json.dumps(data)[:-7])], None)
        counts = free_sts(parse_precubical(data)).counts()
        return _req("free", ["free", "--input", self._file(tag, data)], {"counts": {str(n): c for n, c in counts.items()}})

    def _cells(self, rnd, tag, malformed, suite):
        from transcube.formats import parse_script
        from transcube.sts import certify_cellular

        script, _ = graph_inputs(rnd, rnd.randrange(2, 5), rnd.randrange(1, 4))
        if malformed:  # a vertex after the edges
            return _req("cells", ["cells", "--script", self._file(tag, script + [{"dim": 0, "attach": {}}])], None)
        parsed = parse_script(script)
        sts, cert, _ = certify_cellular(parsed, max_dim=max(e["dim"] for e in parsed))
        return _req("cells", ["cells", "--script", self._file(tag, script)], {
            "cells": {str(n): c for n, c in cert.cell_counts.items()},
            "cubes": {str(n): c for n, c in sts.counts().items()},
        })

    def _dpath_transport(self, rnd, tag, malformed, suite):
        from transcube.formats import dpath_to_dict, parse_dpath
        from transcube.paths import DPath, transport

        d = rnd.randrange(1, 4)
        f = rnd.choice(self.hom[d, rnd.randrange(d, 5)])
        legs = [{"cube": 0, "dim": d, "breakpoints": [[str(t)] + [str(c) for c in pt]
                                                      for t, pt in monotone_path(rnd, d, rnd.randrange(2, 5))]}]
        path = self._file(tag, {"legs": legs})
        if malformed:  # --map missing
            return _req("dpath_transport", ["dpath", "transport", "--input", path], None)
        moved = DPath(tuple((cube, transport(f, seg)) for cube, seg in parse_dpath({"legs": legs}).legs))
        return _req("dpath_transport", ["dpath", "transport", "--input", path, "--map", f.literal()],
                    dpath_to_dict(moved))

    def _reedy(self, rnd, tag, malformed, suite):
        from transcube.reedy import boundary_hom, boundary_hom_closed_form

        if malformed:  # an unknown check
            return _req("reedy", ["reedy", "--check", "boundary-homs", "--max-dim", "2"], None)
        rows = [
            {"case": f"({p},{q},{n})", "computed": len(boundary_hom(p, q, n)),
             "expected": boundary_hom_closed_form(p, q, n)}
            for p in range(3) for q in range(3) for n in range(3)
        ]
        ok = all(r["computed"] == r["expected"] for r in rows)
        return _req("reedy", ["reedy", "--check", "boundary-hom", "--max-dim", "2"], {"rows": rows, "ok": ok})

    def _check(self, rnd, tag, malformed, suite):
        from transcube.suites import run_suite

        seed = rnd.randrange(1 << 16)
        if malformed:  # an unknown suite
            return _req("check", ["check", suite + "s", "--max-dim", "2", "--seed", str(seed)], None)
        report = run_suite(suite, max_dim=2, seed=seed)
        expected = {"suite": suite, "cases": report.cases, "failures": report.failures, "exhausted": report.exhausted}
        return _req("check", ["check", suite, "--max-dim", "2", "--seed", str(seed)], expected)

    # -- requests ---------------------------------------------------------

    def execute(self, req: dict, chk: Checks):
        return (("cli", chk.step("cli", self.invoke, req, chk)),)

    def invoke(self, req: dict, chk: Checks):
        kind = req["command"] if req["expected"] is not None else "malformed"
        code, out, err = getattr(self.api.cli, kind)(req["argv"])
        chk.expect("cli", "Traceback" not in err, f"{req['argv']} printed a traceback")
        if req["expected"] is None:
            chk.expect("cli", code == 2, f"malformed {req['argv']} exited with {code}, not 2")
            return code
        chk.expect("cli", code == 0, f"{req['argv']} exited with {code}: {err.strip()[-200:]}")
        try:
            got = json.loads(out)
        except ValueError:
            got = out
        if isinstance(got, dict):
            got.pop("seconds", None)  # the check report's wall time
        chk.expect("cli", got == req["expected"], f"{req['argv']} printed {out.strip()[:200]}")
        return code, got

    def extras(self, tracer: Tracer) -> dict[str, float]:
        """Start-up probes, run after the mix: a bare interpreter (wall time
        of the child) and the imports of numpy and of the CLI (timed inside
        a fresh interpreter)."""
        timer = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
        bare, numpy_s, cli_s = [], [], []
        for _ in range(PROBE_RUNS):
            t0 = perf_counter()
            run_python(["-c", "pass"])
            bare.append(perf_counter() - t0)
            numpy_s.append(float(run_python(["-c", timer.format("numpy")])[1]))
            cli_s.append(float(run_python(["-c", timer.format("transcube.cli")])[1]))
        return {
            "cli.interpreter_ms": median(bare) * 1e3,
            "cli.import_numpy_ms": median(numpy_s) * 1e3,
            "cli.import_transcube_ms": median(cli_s) * 1e3,
        }


def _req(command: str, argv: list[str], expected) -> dict:
    return {"command": command, "argv": argv, "expected": expected}
