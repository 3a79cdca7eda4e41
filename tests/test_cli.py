from __future__ import annotations

import hashlib
import json

import pytest

from transcube.cli import main
from transcube.cube import CubeMap
from transcube.suites import run_suite, suite_names
from transcube.topo import parse_point


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_literals(capsys):
    code, out = run(capsys, "enumerate", "--dom", "2", "--cod", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["2>2:0,1,1,3", "2>2:0,1,2,3", "2>2:0,2,1,3", "2>2:0,2,2,3"]
    # every printed literal re-parses to an identical table
    for line in lines:
        assert CubeMap.from_literal(line).literal() == line


def test_enumerate_count_only(capsys):
    code, out = run(capsys, "enumerate", "--dom", "2", "--cod", "2", "--count-only")
    assert (code, out.strip()) == (0, "4")


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--dom", "1", "--cod", "1", "--format", "json")
    assert code == 0 and json.loads(out) == ["1>1:0,1"]


def test_enumerate_json_from_global_format(capsys):
    code, out = run(capsys, "--format", "json", "enumerate", "--dom", "1", "--cod", "1")
    assert code == 0 and json.loads(out) == ["1>1:0,1"]


def test_factor_prints_parts(capsys):
    code, out = run(capsys, "factor", "--map", "2>3:0,2,2,6")
    assert code == 0
    assert out.splitlines() == ["psi 2>2:0,1,1,3", "phi 2>3:0,2,4,6"]


def test_eval_pinned(capsys):
    code, out = run(capsys, "eval", "--map", "2>2:0,1,1,3", "--point", "1/3,2/3")
    assert (code, out.strip()) == (0, "2/3,1/3")
    # printed rationals re-parse exactly
    assert parse_point(out.strip()) == parse_point("2/3,1/3")


def test_compose(capsys):
    code, out = run(capsys, "compose", "2>2:0,1,1,3", "2>2:0,2,1,3")
    assert (code, out.strip()) == (0, "2>2:0,1,1,3")


def test_dist_points(capsys):
    code, out = run(capsys, "dist", "--points", "0,1", "1,0")
    assert code == 0
    assert out.splitlines() == ["d1 inf", "d1_sym 2", "witness 0,0"]


def test_golden_collapse3(capsys):
    # the 3-cube collapse: validates, factors as an endomap, and evaluates
    code, out = run(capsys, "factor", "--map", "3>3:0,4,4,6,4,5,6,7")
    assert code == 0
    assert out.splitlines() == [
        "psi 3>3:0,4,4,6,4,5,6,7",
        "phi 3>3:0,1,2,3,4,5,6,7",
    ]
    code, out = run(capsys, "eval", "--map", "3>3:0,4,4,6,4,5,6,7", "--point", "1,1/2,1/4")
    assert (code, out.strip()) == (0, "1/4,1/2,1")


def test_usage_error_exit_code(capsys):
    code = main(["eval", "--map", "nonsense", "--point", "0"])
    assert code == 2


def test_factor_rejects_non_cotransverse_table(capsys):
    # jumps two height levels along covering pairs, so it is not a valid map
    code = main(["factor", "--map", "2>3:0,6,6,7"])
    assert code == 2


def test_budget_exit_code(capsys):
    code = main(["--budget", "1000", "enumerate", "--dom", "4", "--cod", "6", "--count-only"])
    assert code == 3


def test_budget_guards_vertex_enumeration(capsys):
    code, out = run(capsys, "--budget", "100", "enumerate", "--dom", "0", "--cod", "12", "--count-only")
    assert (code, out) == (3, "")


def interval_json(tmp_path):
    data = {
        "max_dim": 1,
        "cubes": {"0": [0, 1], "1": [2]},
        "faces": {"2": {"1,0": 0, "1,1": 1}},
    }
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(data))
    return path


def test_free_and_dist_over_complex(tmp_path, capsys):
    path = interval_json(tmp_path)
    code, out = run(capsys, "free", "--input", str(path))
    assert code == 0 and out.splitlines() == ["dim 0: 2", "dim 1: 1"]
    code, out = run(capsys, "dist", "--input", str(path), "--from", "0", "--to", "1")
    assert (code, out.strip()) == (0, "1")
    code, out = run(capsys, "dist", "--input", str(path), "--from", "1", "--to", "0")
    assert (code, out.strip()) == (0, "inf")


def test_dist_chain(tmp_path, capsys):
    path = interval_json(tmp_path)
    code, out = run(
        capsys, "dist", "--input", str(path), "--chain", "--p", "2,1/4", "--q", "2,3/4"
    )
    assert (code, out.strip()) == (0, "chain-bound 1/2")


def path_json(tmp_path, rows):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"legs": [{"cube": 0, "dim": 2, "breakpoints": rows}]}))
    return path


def test_dpath_verify(tmp_path, capsys):
    good = path_json(tmp_path, [["0", "0", "0"], ["2", "1", "1"]])
    code, out = run(capsys, "dpath", "verify", "--input", str(good))
    assert code == 0 and "natural=yes" in out
    bad = path_json(tmp_path, [["0", "0", "1"], ["1", "1", "0"]])
    code, out = run(capsys, "dpath", "verify", "--input", str(bad))
    assert code == 1 and "dpath=no" in out


def test_dpath_naturalize_and_transport(tmp_path, capsys):
    slow = path_json(tmp_path, [["0", "0", "0"], ["1", "1", "1"]])
    code, out = run(capsys, "dpath", "naturalize", "--input", str(slow))
    assert code == 0
    assert json.loads(out)["legs"][0]["breakpoints"] == [["0", "0", "0"], ["2", "1", "1"]]
    code, out = run(
        capsys, "dpath", "transport", "--input", str(slow), "--map", "2>2:0,2,1,3"
    )
    assert code == 0
    assert json.loads(out)["legs"][0]["breakpoints"] == [["0", "0", "0"], ["1", "1", "1"]]


def test_cells_script(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            [
                {"dim": 0, "attach": {}},
                {"dim": 0, "attach": {}},
                {"dim": 1, "attach": {"0": 0, "1": 1}},
            ]
        )
    )
    code, out = run(capsys, "cells", "--script", str(script))
    assert code == 0
    assert "cells dim 1: 1" in out and "cubes dim 0: 2" in out


def test_malformed_complex_names_the_missing_face(tmp_path, capsys):
    # the square with the face (2, 1) of its top cube 8 left out
    faces = {"4": {"1,0": 0, "1,1": 1}, "5": {"1,0": 0, "1,1": 2}, "6": {"1,0": 1, "1,1": 3}}
    faces["7"] = {"1,0": 2, "1,1": 3}
    faces["8"] = {"1,0": 5, "1,1": 6, "2,0": 4}
    data = {"max_dim": 2, "cubes": {"0": [0, 1, 2, 3], "1": [4, 5, 6, 7], "2": [8]}, "faces": faces}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(data))
    for argv in (["free"], ["dist", "--from", "0", "--to", "3"]):
        code = main([*argv, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "cube 8" in err and "face (2, 1)" in err


def test_script_attaching_to_a_missing_cube_is_named(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            [
                {"dim": 0, "attach": {}},
                {"dim": 0, "attach": {}},
                {"dim": 1, "attach": {"0": 0, "1": 7}},
            ]
        )
    )
    code = main(["cells", "--script", str(script)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "cube 1 to 7" in err and "not a cube" in err


def test_reedy_table(capsys):
    code, out = run(capsys, "reedy", "--check", "boundary-hom", "--max-dim", "2")
    assert code == 0 and "all checks passed" in out
    code, out = run(capsys, "reedy", "--check", "latching", "--max-dim", "1")
    assert code == 0


@pytest.mark.parametrize("check", ["boundary-hom", "latching"])
def test_reedy_below_dimension_zero_prints_only_the_verdict(capsys, check):
    assert run(capsys, "reedy", "--check", check, "--max-dim", "-1") == (0, "all checks passed\n")
    json_out = run(capsys, "--format", "json", "reedy", "--check", check, "--max-dim", "-1")
    assert json_out == (0, '{"ok": true, "rows": []}\n')


def test_check_suite_and_determinism(capsys):
    code, out = run(capsys, "check", "metric-axioms", "--max-dim", "2", "--seed", "7")
    assert code == 0 and "failures=0" in out
    a = run_suite("metric-axioms", max_dim=2, seed=7).machine_lines()
    b = run_suite("metric-axioms", max_dim=2, seed=7).machine_lines()
    assert a == b


def test_check_all_small(capsys):
    code, out = run(capsys, "check", "all", "--max-dim", "1", "--scale", "5")
    assert code == 0
    assert out.count("suite=") == 12


def test_machine_output_stable_across_processes():
    # different hash seeds must not change the machine-readable lines
    import os
    import subprocess
    import sys

    import transcube

    # the children import the same transcube as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(transcube.__file__)))
    cmd = [
        sys.executable,
        "-c",
        "from transcube.suites import run_suite;"
        "print('\\n'.join(run_suite('natural-paths', max_dim=2, seed=9, scale=15).machine_lines()))",
    ]
    outs = set()
    for seed in ("0", "354961"):
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    # this process draws its own hash seed, a third one
    expected = "\n".join(run_suite("natural-paths", max_dim=2, seed=9, scale=15).machine_lines()) + "\n"
    assert outs == {expected}


def test_budget_leaves_the_chain_node_cap_alone(tmp_path, capsys):
    argv = ["dist", "--input", str(interval_json(tmp_path)), "--chain", "--p", "2,1/4", "--q", "2,3/4"]
    argv += ["--refinement", "2"]
    for budget in ([], ["--budget", "5"]):
        code, out = run(capsys, *budget, "--format", "json", *argv)
        assert code == 0 and json.loads(out) == {"chain_bound": "1/2", "exhausted": False}


def test_check_all_machine_lines_golden(capsys):
    # the refactor gate: every suite at its default scale, byte for byte
    code, out = run(capsys, "check", "all")
    machine = "".join(line + "\n" for line in out.splitlines() if not line.startswith("#"))
    assert code == 0
    assert hashlib.sha256(machine.encode()).hexdigest() == (
        "ac6b5786bcbb935c5483561ec25769b21131a02f182529fee371b6aa1001fcbc"
    )


def test_check_json_mode(capsys):
    code, out = run(capsys, "--format", "json", "check", "cotransverse-validate", "--max-dim", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "cotransverse-validate" and payload["failures"] == []


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-suite"])
    assert exc.value.code == 2


def test_script_attaching_a_cube_the_boundary_lacks_is_named(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            [
                {"dim": 0},
                {"dim": 0},
                {"dim": 1, "attach": {"0": 0, "1": 1, "5": 0}},
            ]
        )
    )
    code = main(["cells", "--script", str(script)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "mapping names cube 5, which is not a cube of the source" in err


_BAD_JSON = {
    "list": [1, 2],
    "string": "abc",
    "object": {"dim": 0},
    "zero": {"legs": [{"dim": 1, "breakpoints": [["0", "0"], ["1", "1/0"]]}]},
    "null_top": {"max_dim": None},
    "list_top": {"max_dim": [1]},
    "null_id": {"max_dim": 1, "cubes": {"0": [0, None]}},
    "null_dim": [{"dim": None}],
    "float_dim": [{"dim": 0.5}],
    "inf_dim": [{"dim": float("inf")}],
    "null_leg": {"legs": [{"dim": None, "breakpoints": [["0"], ["1"]]}]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--map", "1>1:0,1", "--point", "1/0"],
        ["dist", "--points", "1/0", "1"],
        ["dpath", "verify", "--input", "{zero}"],
        ["factor", "--map", "100000000000>100000000000:0"],
        *(["free", "--input", f] for f in ("{list}", "{string}", "{dir}")),
        *(["dist", "--input", f, "--from", "0", "--to", "0"] for f in ("{list}", "{string}", "{dir}")),
        *(["dpath", "verify", "--input", f] for f in ("{list}", "{string}", "{dir}")),
        *(["cells", "--script", f] for f in ("{object}", "{string}", "{dir}")),
        *(["free", "--input", f] for f in ("{null_top}", "{list_top}", "{null_id}")),
        *(["cells", "--script", f] for f in ("{null_dim}", "{float_dim}", "{inf_dim}")),
        ["dpath", "verify", "--input", "{null_leg}"],
        *(["check", suite, "--scale", "-1"] for suite in ("t-functoriality", "quasi-isometry", "skeleton-metric", "all")),
    ],
    ids=" ".join,
)
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv):
    # zero denominators, a huge literal dimension, JSON of the wrong shape
    # and a directory in place of a file: exit 2 with a one-line message
    files = {"dir": str(tmp_path)}
    for name, data in _BAD_JSON.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    code = main([arg.format(**files) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("max_dim", [0, -1])
@pytest.mark.parametrize("suite", suite_names())
def test_every_suite_runs_below_dimension_one(capsys, suite, max_dim):
    assert main(["check", suite, f"--max-dim={max_dim}"]) == 0


def _child(*args: str):
    """Run ``python args...`` in a fresh interpreter that imports the same
    transcube as this process, installed or not."""
    import os
    import subprocess
    import sys

    import transcube

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(transcube.__file__)))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def _imported(importtime_log: str) -> set[str]:
    # ``-X importtime`` writes one "import time: self | cumulative | name" line per module
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines() if line.startswith("import time:")}


def test_cli_starts_without_numpy():
    proc = _child("-c", "import sys, transcube, transcube.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

    proc = _child("-X", "importtime", "-m", "transcube.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
    assert "numpy" not in _imported(proc.stderr)

    # the suites load without numpy too; only the batch suites need it
    proc = _child("-X", "importtime", "-m", "transcube.cli", "check", "t-oracle", "--max-dim", "1")
    assert proc.returncode == 0, proc.stderr
    modules = _imported(proc.stderr)
    assert "transcube.suites" in modules and "numpy" not in modules

    # the batch suites import numpy when they run
    proc = _child("-X", "importtime", "-m", "transcube.cli", "--format", "json", "check", "t-functoriality", "--max-dim", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failures"] == []
    assert "numpy" in _imported(proc.stderr)


def test_cli_starts_without_dataclasses():
    # no class on the import path is built by dataclasses, whose import
    # also pulls in inspect, ast, dis and tokenize
    proc = _child("-c", "import sys, transcube; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

    proc = _child("-X", "importtime", "-m", "transcube.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    modules = _imported(proc.stderr)
    assert not {"dataclasses", "inspect"} & modules

    proc = _child("-X", "importtime", "-m", "transcube.cli", "check", "t-oracle", "--max-dim", "1")
    assert proc.returncode == 0, proc.stderr
    modules = _imported(proc.stderr)
    assert "transcube.suites" in modules
    assert not {"dataclasses", "inspect"} & modules


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["free", "--input"], {"max_dim": True}, "integer expected for max_dim, got a boolean"),
        (["free", "--input"], {"max_dim": 0, "cubes": {"0": [1, 1]}}, "cube id 1 is listed twice"),
        (["free", "--input"], {"max_dim": 1, "cubes": {"0": [0, 1], "1": [1]}}, "cube id 1 is listed twice"),
        (["cells", "--script"], [{"dim": True, "attach": {}}], "integer expected for the dim of a script entry"),
        (
            ["dpath", "verify", "--input"],
            {"legs": [{"dim": True, "breakpoints": [["0", "0"], ["1", "1"]]}]},
            "integer expected for the dim of a leg",
        ),
    ],
    ids=["boolean max_dim", "id twice in a level", "id in two levels", "boolean script dim", "boolean leg dim"],
)
def test_booleans_and_repeated_ids_are_named(tmp_path, capsys, argv, data, message):
    # a JSON true is not the integer 1, and a cube id names one cube
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main([*argv, str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["free", "--input"], {"max_dim": 0, "cubes": {"0": [True]}}, "integer expected for a cube id, got a boolean"),
        (
            ["free", "--input"],
            {"max_dim": 1, "cubes": {"0": [0, 1], "1": [2]}, "faces": {"2": {"1,0": False, "1,1": True}}},
            "integer expected for a face target, got a boolean",
        ),
        (
            ["cells", "--script"],
            [{"dim": 0}, {"dim": 0}, {"dim": 1, "attach": {"0": 0, "1": True}}],
            "integer expected for an attach value, got a boolean",
        ),
        (
            ["dpath", "verify", "--input"],
            {"legs": [{"cube": False, "dim": 1, "breakpoints": [["0", "0"], ["1", "1"]]}]},
            "integer expected for the cube of a leg, got a boolean",
        ),
    ],
    ids=["boolean cube id", "boolean face target", "boolean attach value", "boolean leg cube"],
)
def test_booleans_in_id_fields_are_refused(tmp_path, capsys, argv, data, message):
    # a JSON true inside a list or table is no more the integer 1 than a scalar one
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main([*argv, str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


_HUGE_JSON = {"levels": {"max_dim": 10**12}, "cells": [{"dim": 0}, {"dim": 10**12}]}


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--map", "0>100000000000:0"],
        ["eval", "--map", "0>100000000000:0", "--point", ""],
        ["free", "--input", "{levels}"],
        ["cells", "--script", "{cells}"],
        ["reedy", "--check", "latching", "--max-dim", "100000000000"],
        ["reedy", "--check", "boundary-hom", "--max-dim", "100000000000"],
        ["enumerate", "--dom", "0", "--cod", "100000000000"],
        ["enumerate", "--dom", "0", "--cod", "100000000000", "--count-only"],
        ["enumerate", "--dom", "3", "--cod", "100000000000", "--count-only"],
    ],
    ids=" ".join,
)
def test_huge_dimension_is_over_budget(tmp_path, argv):
    # well-formed but huge dimensions exit 3 with a one-line message; the
    # child's address space is capped at 1 GiB, so code that lists every
    # coordinate or level fails in seconds instead of allocating tens of GB
    files = {}
    for name, data in _HUGE_JSON.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
        "from transcube.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = _child("-c", code, *(arg.format(**files) for arg in argv))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("budget: ") and proc.stderr.count("\n") == 1



@pytest.mark.parametrize("suite", ["cocycle", "t-functoriality"])
@pytest.mark.parametrize("max_dim", ["4", "100000000000"])
def test_checks_past_the_budget_are_noted_not_failed(suite, max_dim):
    # the composable pairs are charged before any is listed: 55,665,406 up
    # to [4], which a 1 GiB address space cannot hold
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
        "from transcube.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = _child("-c", code, "check", suite, "--max-dim", max_dim)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == [f"suite={suite} cases=0 failures=0", "note budget-exhausted"]


def test_boundary_hom_check_past_the_budget_is_noted_not_failed():
    # the (p, q, n) cases are charged before any is run: (10**11 + 1)**3
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30));"
        "from transcube.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = _child("-c", code, "check", "boundary-hom", "--max-dim", "100000000000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["suite=boundary-hom cases=0 failures=0", "note budget-exhausted"]


_MISSING_KEY = {
    "no max_dim": (["free", "--input"], {"cubes": {"0": [0]}}, "a precubical set has no 'max_dim' key"),
    "no script dim": (["cells", "--script"], [{"attach": {}}], "a script entry has no 'dim' key"),
    "no legs": (["dpath", "verify", "--input"], {"paths": []}, "a path has no 'legs' key"),
    "no leg dim": (["dpath", "verify", "--input"], {"legs": [{"breakpoints": [["0"], ["1"]]}]}, "a leg has no 'dim' key"),
    "no breakpoints": (["dpath", "verify", "--input"], {"legs": [{"dim": 1}]}, "a leg has no 'breakpoints' key"),
}


@pytest.mark.parametrize("argv, data, message", _MISSING_KEY.values(), ids=_MISSING_KEY)
def test_missing_keys_are_named(tmp_path, capsys, argv, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main([*argv, str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: {message}\n"


@pytest.mark.parametrize("p, q", [("99,1/2", "2,1"), ("2,1/2", "99")])
def test_chain_from_an_unknown_cube_is_named(tmp_path, capsys, p, q):
    path = interval_json(tmp_path)
    code = main(["dist", "--input", str(path), "--chain", "--p", p, "--q", q])
    err = capsys.readouterr().err
    assert code == 2 and err == "error: no cube 99 in this set\n"


def test_internal_key_error_is_not_a_usage_error(tmp_path):
    # a KeyError raised inside the kernel is a bug: it ends in a traceback
    # and exit 1, not in exit 2 with a one-line message blaming the input
    path = interval_json(tmp_path)
    code = (
        "import sys; from transcube import sts\n"
        "def act(self, f, cube_id): raise KeyError('planted')\n"
        "sts.Sts.act = act\n"
        "from transcube.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    proc = _child("-c", code, "dist", "--input", str(path), "--chain", "--p", "2,1/4", "--q", "2,3/4")
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "KeyError: 'planted'" in proc.stderr


def test_cubes_above_max_dim_are_refused(tmp_path, capsys):
    # the file lists the edge 0 -> 1, so dropping it would make 1 unreachable
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"max_dim": 0, "cubes": {"0": [0, 1], "1": [2]}, "faces": {"2": {"1,0": 0, "1,1": 1}}}))
    for argv in (["free", "--input", str(path)], ["dist", "--input", str(path), "--from", "0", "--to", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: cube 2 is in level 1, but max_dim is 0\n"
    interval = str(interval_json(tmp_path))
    for max_dim, cube in (("0", "cube 2 is in level 1"), ("-1", "cube 0 is in level 0")):
        assert main(["free", "--input", interval, "--max-dim", max_dim]) == 2
        assert capsys.readouterr().err == f"error: {cube}, but max_dim is {max_dim}\n"
    # a bound above the data adds empty levels
    code, out = run(capsys, "free", "--input", interval, "--max-dim", "3")
    assert code == 0 and out.splitlines() == ["dim 0: 2", "dim 1: 1", "dim 2: 0", "dim 3: 0"]


_UNNAMED = {
    "empty breakpoint": (
        ["dpath", "verify", "--input", "{path}"],
        {"legs": [{"dim": 1, "breakpoints": [[], ["1", "1"]]}]},
        "a breakpoint is empty; it needs a time and coordinates",
    ),
    "face key without alpha": (
        ["free", "--input", "{path}"],
        {"max_dim": 1, "cubes": {"0": [0, 1], "1": [2]}, "faces": {"2": {"1": 0, "1,1": 1}}},
        "face key '1' is not of the form 'i,alpha'",
    ),
    "negative refinement": (
        ["dist", "--input", "{interval}", "--chain", "--p", "2,1/2", "--q", "2,1", "--refinement", "-1"],
        None,
        "refinement must be nonnegative, got -1",
    ),
    "presentation without a cube id": (
        ["dist", "--input", "{interval}", "--chain", "--p", "x,1/2", "--q", "2,1"],
        None,
        "presentation 'x,1/2' does not start with a cube id, as in \"cube,x1,x2,...\"",
    ),
}


@pytest.mark.parametrize("argv, data, message", _UNNAMED.values(), ids=_UNNAMED)
def test_malformed_fields_are_named(tmp_path, capsys, argv, data, message):
    # each of these used to reach the user as a bare Python message
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    files = {"path": str(path), "interval": str(interval_json(tmp_path))}
    code = main([arg.format(**files) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "target, argv",
    [
        ("transcube.sts.action_tables", ["free", "--input", "{interval}"]),
        ("transcube.sts.Sts.act", ["dist", "--input", "{interval}", "--chain", "--p", "2,1/2", "--q", "2,1"]),
    ],
    ids=["action_tables", "Sts.act"],
)
def test_an_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch, target, argv):
    # only InputError, CliError and BudgetExceeded become exit codes; a bug propagates
    def planted(*args, **kwargs):
        raise ValueError("planted internal bug")

    monkeypatch.setattr(target, planted)
    files = {"interval": str(interval_json(tmp_path))}
    with pytest.raises(ValueError, match="planted internal bug"):
        main([arg.format(**files) for arg in argv])


_MISFITS = {
    "eval point of the wrong dimension": (
        ["eval", "--map", "2>2:0,1,1,3", "--point", "1/2"],
        "point of dimension 1 fed to map from [2]",
    ),
    "points of two dimensions": (["dist", "--points", "1/2", "1/2,1"], "dimension mismatch: 1 != 2"),
    "maps that do not compose": (
        ["compose", "2>2:0,1,1,3", "1>3:0,1"],
        "cannot compose: inner map lands in [3], outer starts at [2]",
    ),
    "path through a map from another cube": (
        ["dpath", "transport", "--input", "{path}", "--map", "2>2:0,1,1,3"],
        "path of dimension 1 fed to map from [2]",
    ),
    "naturalizing a path that goes down": (
        ["dpath", "naturalize", "--input", "{back}"],
        "not a directed path: a coordinate decreases",
    ),
    "unknown vertex": (["dist", "--input", "{interval}", "--from", "0", "--to", "9"], "unknown vertex id"),
    "coordinate that is not a rational": (["eval", "--map", "1>1:0,1", "--point", "x"], None),
    "file that is not JSON": (["free", "--input", "{broken}"], None),
}


@pytest.mark.parametrize("argv, message", _MISFITS.values(), ids=_MISFITS)
def test_arguments_that_do_not_fit_are_usage_errors(tmp_path, capsys, argv, message):
    # the library raises ValueError for these; the CLI checks them as input
    files = {"interval": str(interval_json(tmp_path))}
    for name, breakpoints in (("path", [["0", "0"], ["1", "1"]]), ("back", [["0", "1"], ["1", "0"]])):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps({"legs": [{"dim": 1, "breakpoints": breakpoints}]}))
    files["broken"] = str(tmp_path / "broken.json")
    (tmp_path / "broken.json").write_text('{"max_dim": 1, "cubes"')
    code = main([arg.format(**files) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert message is None or err == f"error: {message}\n"


def test_count_only_refuses_a_negative_dimension(capsys):
    assert main(["enumerate", "--dom", "-1", "--cod", "4", "--count-only"]) == 2
    assert capsys.readouterr().err == "error: dimensions must be nonnegative\n"


def test_a_factored_map_is_charged_again(capsys):
    # the face of [2] it spans costs its 2 coordinates, warm as cold
    assert main(["factor", "--map", "1>2:0,1"]) == 0
    assert main(["--budget", "0", "factor", "--map", "1>2:0,1"]) == 3
    assert capsys.readouterr().err == "budget: factorize(1>2:0,1) needs 2 cells, over the budget of 0\n"


def _accepts(argv: list[str], budget: int, cold) -> bool:
    cold()
    code = main(["--budget", str(budget), *argv])
    assert code in (0, 3)
    return code == 0


def _cold_homsets() -> None:
    from transcube import homsets

    homsets.enumerate_homset.cache_clear()
    homsets.count_endomaps.cache_clear()


@pytest.mark.parametrize("dom, cod", [(2, 2), (3, 4), (4, 4), (4, 6), (0, 12)])
def test_count_only_accepts_the_budgets_of_the_listing(capsys, dom, cod):
    # binary search for the least budget --count-only accepts, cold and warm
    count_only = ["enumerate", "--dom", str(dom), "--cod", str(cod), "--count-only"]
    least = {}
    for state, cold in (("cold", _cold_homsets), ("warm", lambda: None)):
        main(count_only)
        lo, hi = 0, 10_000_000
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _accepts(count_only, mid, cold) else (mid + 1, hi)
        least[state] = lo
    assert least["cold"] == least["warm"]
    # A cold listing makes the charges of a warm one and more, so one accepted
    # cold at the least budget and refused warm a cell below accepts exactly
    # the budgets of --count-only, cold and warm.
    listing = count_only[:-1]
    assert _accepts(listing, least["cold"], _cold_homsets)
    assert not _accepts(listing, least["cold"] - 1, lambda: None)
    capsys.readouterr()
    _cold_homsets()  # drop the listing's maps


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["factor", "--map", "2>2:0,1,1,3"],
        ["eval", "--map", "2>2:0,1,1,3", "--point", "1/2,1/3"],
        ["enumerate", "--dom", "4", "--cod", "4", "--count-only"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_imports_only_what_it_uses(argv):
    proc = _child("-X", "importtime", "-m", "transcube.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    modules = _imported(proc.stderr)
    assert "transcube" in modules
    assert not {"transcube.suites", "numpy"} & modules


def test_import_transcube_loads_no_submodule():
    proc = _child("-c", "import sys, transcube; print(sorted(m for m in sys.modules if m.startswith('transcube.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_export_resolves_to_its_module_object():
    import importlib

    import transcube

    assert len(set(transcube.__all__)) == len(transcube.__all__)
    for name in transcube.__all__:
        module = importlib.import_module(f"transcube.{transcube._MODULE_OF[name]}")
        assert getattr(transcube, name) is getattr(module, name), name
    namespace = {}
    exec("from transcube import *", namespace)
    assert set(transcube.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        transcube.no_such_name


@pytest.mark.parametrize(
    "env, option",
    [("abc", []), ("-5", []), ("1.5", []), (None, ["--budget", "-1"])],
    ids=["letters", "negative", "fraction", "negative option"],
)
@pytest.mark.parametrize("command", [["factor", "--map", "1>2:0,1"], ["compose", "1>1:0,1"]], ids=" ".join)
def test_a_malformed_budget_is_a_usage_error(monkeypatch, capsys, env, option, command):
    if env is None:
        monkeypatch.delenv("TRANSCUBE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("TRANSCUBE_BUDGET", env)
    assert main([*option, *command]) == 2
    subject, value = ("TRANSCUBE_BUDGET", repr(env)) if env else ("the budget", "-1")
    assert capsys.readouterr().err == f"error: {subject} must be a nonnegative integer, got {value}\n"


def test_count_only_of_an_empty_hom_set_is_zero_at_any_codomain(capsys):
    # no map [30] -> [25]: nothing is charged, however far 2**25 is over the budget
    assert run(capsys, "--budget", "100", "enumerate", "--dom", "30", "--cod", "25", "--count-only") == (0, "0\n")
