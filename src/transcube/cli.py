"""Command-line front end.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 budget guard.
The cell budget of every materialized table can be overridden with the
TRANSCUBE_BUDGET environment variable or per invocation with ``--budget``.

Each command imports the modules it uses when it runs, so a process pays
only for its own command: ``--help``, ``factor`` or ``enumerate
--count-only`` load neither the suites nor numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

USAGE_ERROR = 2
CHECK_FAILURE = 1
BUDGET_ERROR = 3


class CliError(Exception):
    """Usage-level error: reported on stderr, exit code 2."""


def _print(args: argparse.Namespace, text_value: str, json_value) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _dist_str(d) -> str:
    return "inf" if d == float("inf") else str(d)


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .cube import InputError
    from .homsets import charge, charge_cofaces, count_homset, enumerate_homset

    if args.dom < 0 or args.cod < 0:
        raise InputError("dimensions must be nonnegative")
    if args.count_only:
        # Counted without building a map, and charged as the listing is: its
        # coface composites first, then the tables of every map.
        what = "enumerate_homset(%s, %s)"
        charge_cofaces(args.dom, args.cod, what, args.dom, args.cod)
        count = count_homset(args.dom, args.cod)
        charge(count << args.dom, what, args.dom, args.cod)
        print(count)
        return 0
    maps = enumerate_homset(args.dom, args.cod)
    if args.format == "json":
        print(json.dumps([f.literal() for f in maps]))
    else:
        for f in maps:
            print(f.literal())
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    from .cube import CubeMap
    from .homsets import factorize

    fac = factorize(CubeMap.from_literal(args.map))
    _print(
        args,
        f"psi {fac.psi.literal()}\nphi {fac.phi.literal()}",
        {"psi": fac.psi.literal(), "phi": fac.phi.literal()},
    )
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    from .cube import CubeMap, InputError, compose

    maps = [CubeMap.from_literal(lit) for lit in args.maps]
    result = maps[0]
    for f in maps[1:]:  # written left to right: first literal is outermost
        if f.cod_dim != result.dom_dim:
            raise InputError(f"cannot compose: inner map lands in [{f.cod_dim}], outer starts at [{result.dom_dim}]")
        result = compose(result, f)
    _print(args, result.literal(), {"map": result.literal()})
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .cube import CubeMap, InputError
    from .topo import format_point, parse_point, t_eval

    f = CubeMap.from_literal(args.map)
    x = parse_point(args.point)
    if len(x) != f.dom_dim:
        raise InputError(f"point of dimension {len(x)} fed to map from [{f.dom_dim}]")
    y = t_eval(f, x)
    _print(args, format_point(y), {"point": format_point(y)})
    return 0


def _reject_float(literal: str):
    raise CliError(f"JSON number {literal} is not an integer; rationals travel as strings")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float, parse_constant=_reject_float)
    except OSError as err:  # a missing file, a directory, no permission: a usage error
        raise CliError(str(err)) from err
    except ValueError as err:  # not JSON, or not UTF-8
        raise CliError(str(err)) from err


def cmd_dist(args: argparse.Namespace) -> int:
    from .cube import InputError
    from .topo import d1_point, d1_sym, d1_sym_witness, format_point, parse_point

    if args.points:
        a = parse_point(args.points[0])
        b = parse_point(args.points[1])
        if len(a) != len(b):
            raise InputError(f"dimension mismatch: {len(a)} != {len(b)}")
        d = d1_point(a, b)
        sym = d1_sym(a, b)
        witness = d1_sym_witness(a, b)
        _print(
            args,
            f"d1 {_dist_str(d)}\nd1_sym {sym}\nwitness {format_point(witness)}",
            {"d1": _dist_str(d), "d1_sym": str(sym), "witness": format_point(witness)},
        )
        return 0
    if args.input is None:
        raise CliError("dist needs either --points or --input")
    from .formats import parse_precubical
    from .geometry import chain_distance_sample, vertex_distance
    from .sts import free_sts

    sts = free_sts(parse_precubical(_load_json(args.input)))
    if args.chain:
        if args.p is None or args.q is None:
            raise CliError("--chain needs --p and --q presentations")
        p = _parse_presentation(args.p)
        q = _parse_presentation(args.q)
        bound = chain_distance_sample(sts, p, q, refinement=args.refinement)
        flag = " (budget exhausted)" if bound.exhausted else ""
        _print(
            args,
            f"chain-bound {_dist_str(bound.value)}{flag}",
            {"chain_bound": _dist_str(bound.value), "exhausted": bound.exhausted},
        )
        return 0
    if args.src is None or args.dst is None:
        raise CliError("dist over a complex needs --from and --to vertex ids")
    d = vertex_distance(sts, args.src, args.dst)
    _print(args, _dist_str(d), {"distance": _dist_str(d)})
    return 0


def _parse_presentation(text: str):
    from .cube import InputError
    from .geometry import PointPresentation
    from .topo import parse_point

    cube, _, coords = text.partition(",")
    try:
        cube_id = int(cube)
    except ValueError:
        raise InputError(
            f"presentation {text!r} does not start with a cube id, as in \"cube,x1,x2,...\""
        ) from None
    return PointPresentation(cube_id, parse_point(coords))


def cmd_dpath(args: argparse.Namespace) -> int:
    from .cube import CubeMap, InputError
    from .formats import dpath_to_dict, parse_dpath
    from .paths import DPath, is_dpath, is_natural, naturalize, transport

    path = parse_dpath(_load_json(args.input))
    if args.action == "verify":
        reports = [(cube, is_dpath(seg), is_natural(seg)) for cube, seg in path.legs]
        ok = all(r.ok for _, r, _ in reports)
        lines = [
            f"leg cube={cube} dpath={'yes' if rep.ok else 'no: ' + rep.reason} natural={'yes' if nat else 'no'}"
            for cube, rep, nat in reports
        ]
        _print(
            args,
            "\n".join(lines),
            [
                {"cube": cube, "dpath": rep.ok, "reason": rep.reason, "natural": nat}
                for cube, rep, nat in reports
            ],
        )
        return 0 if ok else CHECK_FAILURE
    if args.action == "naturalize":
        for _, seg in path.legs:
            if not (report := is_dpath(seg)):
                raise InputError(f"not a directed path: {report.reason}")
        out = DPath(tuple((cube, naturalize(seg)) for cube, seg in path.legs))
    elif args.action == "transport":
        if args.map is None:
            raise CliError("transport needs --map")
        f = CubeMap.from_literal(args.map)
        for _, seg in path.legs:
            if seg.dim != f.dom_dim:
                raise InputError(f"path of dimension {seg.dim} fed to map from [{f.dom_dim}]")
        out = DPath(tuple((cube, transport(f, seg)) for cube, seg in path.legs))
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown dpath action {args.action}")
    print(json.dumps(dpath_to_dict(out)))
    return 0


def cmd_free(args: argparse.Namespace) -> int:
    from .formats import parse_precubical
    from .sts import free_sts

    k = parse_precubical(data := _load_json(args.input))
    if args.max_dim is not None and args.max_dim != k.max_dim:
        k = parse_precubical({**data, "max_dim": args.max_dim})
    sts = free_sts(k)
    counts = sts.counts()
    _print(
        args,
        "\n".join(f"dim {n}: {c}" for n, c in counts.items()),
        {"counts": {str(n): c for n, c in counts.items()}},
    )
    return 0


def cmd_cells(args: argparse.Namespace) -> int:
    from .formats import parse_script
    from .sts import certify_cellular

    script = parse_script(_load_json(args.script))
    sts, cert, _ = certify_cellular(script, max_dim=max((e["dim"] for e in script), default=0))
    _print(
        args,
        "\n".join(
            [f"cells dim {n}: {c}" for n, c in cert.cell_counts.items()]
            + [f"cubes dim {n}: {c}" for n, c in sts.counts().items()]
        ),
        {
            "cells": {str(n): c for n, c in cert.cell_counts.items()},
            "cubes": {str(n): c for n, c in sts.counts().items()},
        },
    )
    return 0


def cmd_reedy(args: argparse.Namespace) -> int:
    from .reedy import boundary_hom, boundary_hom_cases, boundary_hom_closed_form
    from .reedy import compare_latching_to_boundary, constant_obj, hom_obj

    top = args.max_dim
    rows = []
    ok = True
    if args.check == "boundary-hom":
        for p, q, n in boundary_hom_cases(top):
            got = len(boundary_hom(p, q, n))
            want = boundary_hom_closed_form(p, q, n)
            ok = ok and got == want
            rows.append((f"({p},{q},{n})", got, want))
    else:
        battery = [("constant", constant_obj(("*",), top)), ("vertices", hom_obj(0, top))]
        for name, obj in battery:
            for n in range(top + 1):
                cmp = compare_latching_to_boundary(obj, n)
                ok = ok and cmp.bijective
                rows.append((f"{name} n={n}", cmp.latching_size, cmp.boundary_eval_size))
    lines = [f"{label:16s} computed={got:4d} expected={want:4d}" for label, got, want in rows]
    _print(
        args,
        "\n".join(lines + ["all checks passed" if ok else "MISMATCH"]),
        {"rows": [{"case": l, "computed": g, "expected": w} for l, g, w in rows], "ok": ok},
    )
    return 0 if ok else CHECK_FAILURE


def cmd_check(args: argparse.Namespace) -> int:
    from .suites import run_suite, suite_names

    names = suite_names() if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        report = run_suite(name, max_dim=args.max_dim, seed=args.seed, scale=args.scale)
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.to_text())
        failed = failed or not report.ok
    return CHECK_FAILURE if failed else 0


class _SuiteChoices:
    """The choices of ``check``: every suite name, then ``all``.  Read from
    :mod:`transcube.suites` when a suite name is parsed or listed, so that
    no other command imports it."""

    def __iter__(self):
        from .suites import suite_names

        return iter(suite_names() + ["all"])

    def __contains__(self, name: object) -> bool:
        return name in iter(self)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transcube",
        description="Exact computations with cotransverse cube maps and symmetric transverse sets",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--budget", type=int, default=None, help="budget in table cells for every materialized table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a hom-set of cotransverse maps")
    p.add_argument("--dom", type=int, required=True)
    p.add_argument("--cod", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("factor", help="endomap/coface factorization of a map literal")
    p.add_argument("--map", required=True)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("compose", help="compose map literals, outermost first")
    p.add_argument("maps", nargs="+")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("eval", help="evaluate the topologized map at a rational point")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("dist", help="directed distances: points, skeleton, or chain bound")
    p.add_argument("--points", nargs=2, metavar=("A", "B"))
    p.add_argument("--input", help="precubical JSON; distances in its free symmetric transverse set")
    p.add_argument("--from", dest="src", type=int)
    p.add_argument("--to", dest="dst", type=int)
    p.add_argument("--chain", action="store_true")
    p.add_argument("--p", help='presentation "cube,x1,x2,..."')
    p.add_argument("--q", help='presentation "cube,x1,x2,..."')
    p.add_argument("--refinement", type=int, default=0)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("dpath", help="verify, naturalize or transport a path file")
    p.add_argument("action", choices=["verify", "naturalize", "transport"])
    p.add_argument("--input", required=True)
    p.add_argument("--map")
    p.set_defaults(fn=cmd_dpath)

    p = sub.add_parser("free", help="free symmetric transverse set on a precubical JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--max-dim", type=int, default=None)
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("cells", help="assemble a cellular set from a build script")
    p.add_argument("--script", required=True)
    p.set_defaults(fn=cmd_cells)

    p = sub.add_parser("reedy", help="verify boundary hom-sets or latching objects")
    p.add_argument("--check", choices=["boundary-hom", "latching"], required=True)
    p.add_argument("--max-dim", type=int, default=3)
    p.set_defaults(fn=cmd_reedy)

    p = sub.add_parser("check", help="run a property-check suite")
    # A metavar keeps add_argument from listing the choices; help and errors
    # list them once it is reset.
    p.add_argument("suite", choices=_SuiteChoices(), metavar="SUITE").metavar = None
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=None)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Only :class:`transcube.cube.InputError`,
    :class:`CliError` and :class:`transcube.homsets.BudgetExceeded` are
    reported as exit codes; any other error is a bug and propagates."""
    args = build_parser().parse_args(argv)
    from .cube import InputError
    from .homsets import BudgetExceeded, cell_budget, set_cell_budget

    try:
        if args.budget is None:
            cell_budget()  # a malformed TRANSCUBE_BUDGET is refused whatever the command charges
        else:
            set_cell_budget(args.budget)
        return args.fn(args)
    except BudgetExceeded as err:
        print(f"budget: {err}", file=sys.stderr)
        return BUDGET_ERROR
    except (CliError, InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if args.budget is not None:
            set_cell_budget(None)


if __name__ == "__main__":
    sys.exit(main())
