"""JSON interchange for precubical sets, build scripts and paths.

Rationals travel as strings ("1/2", "3"); integers are accepted too.
Precubical sets: ``{"max_dim": N, "cubes": {"0": [ids], ...},
"faces": {"<id>": {"i,alpha": id, ...}, ...}}``.
Build scripts: ordered list of ``{"dim": n, "attach": {"<boundary id>":
skeleton id, ...}}``.
Paths: ``{"legs": [{"cube": id, "dim": n, "breakpoints":
[["t", "x1", ...], ...]}, ...]}``.

Every refusal of malformed data raises :class:`transcube.cube.InputError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .cube import InputError
from .homsets import charge
from .paths import DPath, segment_path
from .sts import Precubical


def _rat(value: Any) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"rational expected, got {value!r}")
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {value!r}") from None
    except ValueError as err:
        raise InputError(str(err)) from None


def _of(kind: type, value: Any, what: str) -> Any:
    """``value`` when it has the container type ``kind`` (dict or list)."""
    if not isinstance(value, kind):
        raise InputError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


#: The JSON types that are not integers, by the name an error gives them.
_NOT_INT = {bool: "a boolean", type(None): "null", float: "a float", list: "an array", dict: "an object"}


def _key(table: Any, key: str, what: str) -> Any:
    """``table[key]`` of the JSON object ``table``; a missing key is named."""
    if key not in _of(dict, table, what):
        raise InputError(f"{what} has no {key!r} key")
    return table[key]


def _int(value: Any, what: str) -> int:
    """``value`` as an integer.  JSON booleans, null, floats, arrays and
    objects are refused; strings (object keys) are parsed."""
    kind = _NOT_INT.get(type(value))
    if kind:
        raise InputError(f"integer expected for {what}, got {kind}")
    try:
        return int(value)
    except ValueError as err:
        raise InputError(str(err)) from None


def parse_precubical(data: dict) -> Precubical:
    max_dim = _int(_key(data, "max_dim", "a precubical set"), "max_dim")
    cubes = {
        _int(dim, "a level"): tuple(_int(c, "a cube id") for c in _of(list, ids, "cube ids"))
        for dim, ids in _of(dict, data.get("cubes", {}), "cubes").items()
    }
    faces = {}
    for cid, table in _of(dict, data.get("faces", {}), "faces").items():
        for key, target in _of(dict, table, "a face table").items():
            i, _, alpha = key.partition(",")
            try:
                i, alpha = int(i), int(alpha)
            except ValueError:
                raise InputError(f"face key {key!r} is not of the form 'i,alpha'") from None
            faces[(_int(cid, "a cube id"), i, alpha)] = _int(target, "a face target")
    if len(set().union(*cubes.values())) != sum(map(len, cubes.values())):
        ids = [c for level in cubes.values() for c in level]
        raise InputError(f"cube id {next(c for c in ids if ids.count(c) > 1)} is listed twice")
    charge(max_dim + 1, "the levels of a precubical set of dimension %s", max_dim)
    for n in range(max_dim + 1):
        cubes.setdefault(n, ())
    return Precubical(max_dim, cubes, faces)


def parse_script(data: list) -> list[dict]:
    script = []
    for entry in _of(list, data, "a build script"):
        dim = _int(_key(entry, "dim", "a script entry"), "the dim of a script entry")
        attach = _of(dict, entry.get("attach", {}), "attach")
        attach = {_int(k, "an attach key"): _int(v, "an attach value") for k, v in attach.items()}
        script.append({"dim": dim, "attach": attach})
    return script


def parse_dpath(data: dict) -> DPath:
    legs = []
    for leg in _of(list, _key(data, "legs", "a path"), "legs"):
        dim = _int(_key(leg, "dim", "a leg"), "the dim of a leg")
        cube = _int(leg.get("cube", 0), "the cube of a leg")
        pairs = []
        for row in _of(list, _key(leg, "breakpoints", "a leg"), "breakpoints"):
            if not _of(list, row, "a breakpoint"):
                raise InputError("a breakpoint is empty; it needs a time and coordinates")
            t, *coords = row
            pairs.append((_rat(t), tuple(_rat(c) for c in coords)))
        legs.append((cube, segment_path(dim, pairs)))
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
