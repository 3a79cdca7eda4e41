"""JSON interchange for precubical sets, build scripts and paths.

Rationals travel as strings ("1/2", "3"); integers are accepted too.
Precubical sets: ``{"max_dim": N, "cubes": {"0": [ids], ...},
"faces": {"<id>": {"i,alpha": id, ...}, ...}}``.
Build scripts: ordered list of ``{"dim": n, "attach": {"<boundary id>":
skeleton id, ...}}``.
Paths: ``{"legs": [{"cube": id, "dim": n, "breakpoints":
[["t", "x1", ...], ...]}, ...]}``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .paths import DPath, segment_path
from .sts import Precubical


def _rat(value: Any) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"rational expected, got {value!r}")
    return Fraction(str(value))


def parse_precubical(data: dict) -> Precubical:
    max_dim = int(data["max_dim"])
    cubes = {
        int(dim): tuple(int(c) for c in ids)
        for dim, ids in data.get("cubes", {}).items()
    }
    for n in range(max_dim + 1):
        cubes.setdefault(n, ())
    faces = {}
    for cid, table in data.get("faces", {}).items():
        for key, target in table.items():
            i, alpha = (int(tok) for tok in key.split(","))
            faces[(int(cid), i, alpha)] = int(target)
    return Precubical(max_dim, cubes, faces)


def parse_script(data: list) -> list[dict]:
    script = []
    for entry in data:
        script.append(
            {
                "dim": int(entry["dim"]),
                "attach": {int(k): int(v) for k, v in entry.get("attach", {}).items()},
            }
        )
    return script


def parse_dpath(data: dict) -> DPath:
    legs = []
    for leg in data["legs"]:
        dim = int(leg["dim"])
        pairs = []
        for row in leg["breakpoints"]:
            t, *coords = row
            pairs.append((_rat(t), tuple(_rat(c) for c in coords)))
        legs.append((int(leg.get("cube", 0)), segment_path(dim, pairs)))
    return DPath(tuple(legs))


def dpath_to_dict(p: DPath) -> dict:
    legs = []
    for cube, seg in p.legs:
        legs.append(
            {
                "cube": cube,
                "dim": seg.dim,
                "breakpoints": [
                    [str(t)] + [str(c) for c in pt] for t, pt in seg.breakpoints
                ],
            }
        )
    return {"legs": legs}
