from __future__ import annotations

import json

import pytest

from transcube.cli import main
from transcube.cube import CubeMap
from transcube.suites import run_suite
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
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    # this process draws its own hash seed, a third one
    expected = "\n".join(run_suite("natural-paths", max_dim=2, seed=9, scale=15).machine_lines()) + "\n"
    assert outs == {expected}


def test_check_json_mode(capsys):
    code, out = run(capsys, "--format", "json", "check", "cotransverse-validate", "--max-dim", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "cotransverse-validate" and payload["failures"] == []


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-suite"])
    assert exc.value.code == 2
