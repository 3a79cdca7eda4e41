"""Finite symmetric transverse sets: presheaves on the cotransverse category.

A symmetric transverse set is a graded family of cube sets together with a
contravariant action of every cotransverse map.  Since every map factors
uniquely as a coface composite after an endomap, storing one table per
elementary coface and per endomap of each dimension determines the whole
action; :meth:`Sts.act` extends by factorization on demand.

Builders cover the standard constructions: representables (all maps into a
fixed cube, acting by precomposition) and boundaries, free generation from
a precubical set via normal forms, dimensionwise pushouts, and cell-by-cell
assembly with a certificate.  Completed values are immutable in use:
nothing here mutates a built object, and every action table is a tuple
indexed by position in its source level, so none can be written into.

The fixed objects are built once per key: the tables of
:func:`representable` and :func:`boundary` and the action of each
generator on the normal forms of a free set sit in bounded caches that
charge the cell budget the same way warm or cold
(:func:`transcube.homsets.charged_cache`).  The public builders return a
new :class:`Sts` on every call, since a set is compared by identity; it
shares the cached tuples.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .cube import CubeMap, Frozen, InputError, coface, compose, identity
from .homsets import (
    charge,
    charged_cache,
    composable_pairs,
    enumerate_cofaces,
    enumerate_homset,
    factorize,
    generating_family,
)
from .quotient import QuotientSet


class Sts:
    """Graded cube sets plus the contravariant action of a generating family.

    ``cubes[n]`` lists the cube ids of dimension ``n`` in construction
    order, and ``pos[c]`` is the position of ``c`` in its level.
    ``tables[key]`` is the pullback along the generator ``(key, u)`` of
    :func:`~transcube.homsets.generating_family`, a tuple whose ``i``-th
    entry is the image of ``cubes[u.cod_dim][i]`` among the cubes of
    dimension ``u.dom_dim``: the key of an elementary coface is its step
    ``(n, i, alpha)`` of :attr:`~transcube.homsets.Factorization.steps`,
    that of an endomap the endomap itself.  ``labels`` optionally carries a
    descriptive payload per cube (the hom element of a representable, the
    normal form of a free cell, ...).
    """

    def __init__(
        self,
        max_dim: int,
        cubes: Mapping[int, tuple[int, ...]],
        tables: Mapping[Hashable, tuple[int, ...]],
        labels: Mapping[int, object] | None = None,
    ) -> None:
        self.max_dim = max_dim
        self.cubes = {n: tuple(cubes.get(n, ())) for n in range(max_dim + 1)}
        self.tables = dict(tables)
        self.labels = dict(labels or {})
        self.dim_of = {c: n for n, ids in self.cubes.items() for c in ids}
        self.pos = {c: i for ids in self.cubes.values() for i, c in enumerate(ids)}
        self._vertex_ids: dict[int, tuple[int, ...]] = {}  # per cube, filled by vertex_of
        self._graphs: dict[str, tuple] = {}  # the distance graphs transcube.geometry keeps, one per kind

    # -- queries ----------------------------------------------------------

    def counts(self) -> dict[int, int]:
        return {n: len(ids) for n, ids in self.cubes.items()}

    def all_cubes(self) -> Iterable[int]:
        for n in range(self.max_dim + 1):
            yield from self.cubes[n]

    def act(self, f: CubeMap, cube_id: int) -> int:
        """Contravariant action: the ``f``-indexed face of a cube.

        ``f: [m] -> [n]`` acts on dimension ``n`` cubes and lands in
        dimension ``m``.  General maps factor as coface-after-endo, so the
        pullback runs the elementary coface tables top down and finishes
        with the endomap table.
        """
        n = self.dim_of[cube_id]
        if f.cod_dim != n:
            raise ValueError(f"map into [{f.cod_dim}] cannot act on a {n}-cube")
        fac = factorize(f)
        c = cube_id
        for step in reversed(fac.steps):
            c = self.tables[step][self.pos[c]]
        if f.dom_dim > 0:
            c = self.tables[fac.psi][self.pos[c]]
        return c

    def vertex_of(self, cube_id: int, bits: int) -> int:
        """A vertex of a cube as a vertex of the whole set: computed once per cube, charged every call."""
        vertices = enumerate_homset(0, self.dim_of[cube_id])  # vertices[bits].table == (bits,)
        ids = self._vertex_ids.get(cube_id)
        if ids is None:
            ids = self._vertex_ids[cube_id] = tuple(self.act(v, cube_id) for v in vertices)
        if not 0 <= bits < len(ids):
            raise ValueError(f"{bits} is not a vertex of cube {cube_id}")
        return ids[bits]


def check_functoriality(sts: Sts, exhaustive_dim: int = 3) -> None:
    """Assert ``(g o f)^* = f^* o g^*`` and ``id^* = id``.

    Exhaustive over all composable pairs with dimensions at most
    ``exhaustive_dim``.  Raises ``AssertionError`` on the first failure.
    """
    check_action(sts.cubes, sts.act, True, min(sts.max_dim, exhaustive_dim))


def action_tables(
    graded: Sequence[Sequence[Hashable]],
    act: Callable[[CubeMap, Hashable], Hashable],
    contravariant: bool,
) -> dict[Hashable, dict]:
    """Materialize the action of the generating family from one rule.

    ``graded[n]`` lists the elements of level ``n``.  A generator
    ``(key, u)`` of :func:`generating_family`, ``u: [m] -> [n]``, gets the
    tuple ``tables[key]`` of the ``act(u, x)`` for ``x`` in level ``n`` when
    ``contravariant`` (the results lie at level ``m``) and in level ``m``
    otherwise (the results lie at level ``n``), in level order.  Contravariant
    (:class:`Sts`) and covariant (:class:`transcube.reedy.CotransverseSetObj`)
    actions share this layout.  The entries about to be written are charged
    against the cell budget first: the endomap monoids grow fast enough
    that materializing dimension 4 representables would need tens of
    millions of entries.
    """
    family = generating_family(len(graded) - 1)
    sources = [graded[u.cod_dim if contravariant else u.dom_dim] for _, u in family]
    charge(sum(len(level) for level in sources), "action tables")
    return {key: tuple([act(u, x) for x in level]) for (key, u), level in zip(family, sources)}


def check_action(
    graded: Sequence[Sequence], act: Callable[[CubeMap, Hashable], Hashable], contravariant: bool, top: int
) -> None:
    """Assert that ``act`` is functorial up to level ``top``: ``id`` acts as
    the identity, and ``(g o f)^* = f^* o g^*`` on level ``cod g`` when
    ``contravariant``, ``(g o f)_* = g_* o f_*`` on level ``dom f``
    otherwise.  Both variances of :func:`action_tables` are checked here;
    raises ``AssertionError`` on the first failure."""
    for n in range(top + 1):
        for x in graded[n]:
            if act(identity(n), x) != x:
                raise AssertionError(f"identity action moved {x!r}")
    for f, g in composable_pairs(top):
        gf = compose(g, f)
        first, then = (g, f) if contravariant else (f, g)
        for x in graded[g.cod_dim if contravariant else f.dom_dim]:
            if act(gf, x) != act(then, act(first, x)):
                raise AssertionError(f"action not functorial at {x!r} for {g.literal()} o {f.literal()}")


def _number(graded: Sequence[Sequence[object]]) -> tuple[dict[int, tuple[int, ...]], dict[int, object]]:
    """Cube ids in grading order: the ids of each level and the payload of each id."""
    cubes: dict[int, tuple[int, ...]] = {}
    labels: dict[int, object] = {}
    for n, row in enumerate(graded):
        cubes[n] = tuple(range(len(labels), len(labels) + len(row)))
        labels.update(zip(cubes[n], row))
    return cubes, labels


def _build(graded: list[list[object]], act: Callable[[CubeMap, object], object]) -> Sts:
    """Materialize an Sts from per-dimension payload lists and an action rule.

    Payloads may be arbitrary hashables and are kept as labels; ``act(u, x)``
    is the payload of the pullback of ``x`` along ``u``.
    """
    cubes, labels = _number(graded)
    ids = {(n, labels[c]): c for n, row in cubes.items() for c in row}
    tables = action_tables(
        list(cubes.values()), lambda u, c: ids[(u.dom_dim, act(u, labels[c]))], contravariant=True
    )
    return Sts(len(graded) - 1, cubes, tables, labels)


def empty_sts(max_dim: int) -> Sts:
    return _build([[] for _ in range(max_dim + 1)], lambda u, x: None)


#: Bound on the entries of each build cache here.  The default cell budget
#: refuses the representable of ``[4]`` and any level above ``[4]``, so every
#: key a build can reach fits several times over.
BUILD_CACHE_MAXSIZE = 64


@charged_cache(BUILD_CACHE_MAXSIZE)
def _hom_sts(n: int, top: int, below: int) -> Sts:
    """Levels ``m < below`` of the representable of ``[n]`` up to ``[top]``."""
    graded = [list(enumerate_homset(m, n)) if m < below else [] for m in range(top + 1)]
    return _build(graded, lambda u, g: compose(g, u))


def _new(sts: Sts) -> Sts:
    """A new set sharing the read-only tables of a cached one."""
    return Sts(sts.max_dim, sts.cubes, sts.tables, sts.labels)


def representable(n: int, max_dim: int | None = None) -> Sts:
    """The symmetric transverse set of all cotransverse maps into ``[n]``.

    Dimension ``m`` holds the hom-set ``[m] -> [n]`` and every map acts by
    precomposition.  Labels are the hom elements themselves.
    """
    return _new(_hom_sts(n, n if max_dim is None else max_dim, n + 1))


def boundary(n: int, max_dim: int | None = None) -> Sts:
    """All maps into ``[n]`` of dimension strictly below ``n``; empty for
    ``n == 0``.  The truncation of :func:`representable` below ``n``."""
    return _new(_hom_sts(n, n if max_dim is None else max_dim, n))


class StsMap(Frozen):
    """A dimension-preserving map of symmetric transverse sets, given on
    cube ids and required to commute with the generating actions.  Equality
    and hash read ``src`` and ``dst`` only."""

    __slots__ = ("src", "dst", "mapping")

    def __init__(self, src: Sts, dst: Sts, mapping: dict[int, int]) -> None:
        for c, n in src.dim_of.items():
            if c not in mapping:
                raise InputError(f"mapping misses cube {c}")
            if mapping[c] not in dst.dim_of:
                raise InputError(f"mapping sends cube {c} to {mapping[c]}, which is not a cube of the target")
            if n != dst.dim_of[mapping[c]]:
                raise InputError(f"mapping does not preserve dimension at cube {c}")
        for c in mapping:
            if c not in src.dim_of:
                raise InputError(f"mapping names cube {c}, which is not a cube of the source")
        # A source cube above dst.max_dim already failed the dimension check.
        # A generator acting on an empty level has nothing to check, but the
        # whole family is read, and charged, all the same.
        for key, u in generating_family(min(src.max_dim, dst.max_dim)):
            level = src.cubes[u.cod_dim]
            if not level:
                continue
            dst_table = dst.tables[key]
            for c, uc in zip(level, src.tables[key]):
                if dst_table[dst.pos[mapping[c]]] != mapping[uc]:
                    kind = "endomap" if key is u else "face"
                    raise InputError(f"mapping not equivariant at {kind} of cube {c}")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "mapping", mapping)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not StsMap:
            return NotImplemented
        return self.src == other.src and self.dst == other.dst

    def __hash__(self) -> int:
        return hash((self.src, self.dst))

    def __call__(self, cube_id: int) -> int:
        return self.mapping[cube_id]


def inclusion_map(sub: Sts, ambient: Sts) -> StsMap:
    """Inclusion of a truncation (or other id-preserving subobject)."""
    return StsMap(sub, ambient, {c: c for c in sub.all_cubes()})


def yoneda_map(f: CubeMap, src: Sts, dst: Sts) -> StsMap:
    """The map of representables induced by postcomposition with ``f``.

    ``src`` must be (a truncation of) the representable of the source cube
    of ``f`` and ``dst`` of the target cube; labels carry the hom elements,
    so the mapping is computed by table lookup.
    """
    index = {dst.labels[c]: c for c in dst.all_cubes()}
    return StsMap(src, dst, {c: index[compose(f, src.labels[c])] for c in src.all_cubes()})


class FreeCell(NamedTuple):
    """Normal form of a cube of a freely generated set: an endomap applied
    to a generating cube of the same dimension.  A tuple: it also compares
    equal to the plain tuple of its fields."""

    psi: CubeMap
    base: int


class Precubical(Frozen):
    """A finite presheaf on the coface-only category.

    ``faces[(c, i, alpha)]`` is the face of cube ``c`` along the elementary
    coface; the usual coface exchange relations are validated.  Unhashable:
    its fields are dicts.
    """

    __slots__ = ("max_dim", "cubes", "faces")
    __hash__ = None

    def __init__(
        self, max_dim: int, cubes: dict[int, tuple[int, ...]], faces: dict[tuple[int, int, int], int]
    ) -> None:
        object.__setattr__(self, "max_dim", max_dim)
        object.__setattr__(self, "cubes", cubes)
        object.__setattr__(self, "faces", faces)
        for n, ids in cubes.items():
            if ids and not 0 <= n <= max_dim:
                raise InputError(f"cube {ids[0]} is in level {n}, but max_dim is {max_dim}")
        dim_of = self.dim_of
        for (c, i, alpha), d in self.faces.items():
            if c not in dim_of:
                raise InputError(f"face ({i}, {alpha}) given for {c}, which is not a cube")
            n = dim_of[c]
            if not (1 <= i <= n and alpha in (0, 1)):
                raise InputError(f"face index ({i}, {alpha}) invalid for {n}-cube {c}")
            if d not in dim_of:
                raise InputError(f"face ({i}, {alpha}) of cube {c} is {d}, which is not a cube")
            if dim_of[d] != n - 1:
                raise InputError(f"face of {n}-cube {c} must have dimension {n - 1}")
        for c, n in dim_of.items():
            for i in range(1, n + 1):
                for alpha in (0, 1):
                    if (c, i, alpha) not in self.faces:
                        raise InputError(f"{n}-cube {c} lacks face ({i}, {alpha})")
        for n in range(2, self.max_dim + 1):
            for c in self.cubes.get(n, ()):
                for j in range(1, n + 1):
                    for i in range(1, j):
                        for beta in (0, 1):
                            for alpha in (0, 1):
                                # Insert at j then drop to i, versus insert at
                                # i then drop at j-1: both orders must agree.
                                left = self.faces[(self.faces[(c, j, beta)], i, alpha)]
                                right = self.faces[(self.faces[(c, i, alpha)], j - 1, beta)]
                                if left != right:
                                    raise InputError(
                                        f"coface relations fail at cube {c} ({i},{alpha}),({j},{beta})"
                                    )

    @property
    def dim_of(self) -> dict[int, int]:
        out = {}
        for n, ids in self.cubes.items():
            for c in ids:
                out[c] = n
        return out


@charged_cache(BUILD_CACHE_MAXSIZE)
def _free_rows(n: int) -> dict[CubeMap, tuple[tuple[int, ...], tuple]]:
    """The action of the generators into ``[n]`` on normal forms, whatever
    the cells.

    One row ``(targets, steps)`` per generator ``u: [m] -> [n]``.  For the
    ``j``-th endomap ``psi`` of ``[n]``, ``psi o u`` factors as the
    ``targets[j]``-th endomap of ``[m]`` followed by at most one coface,
    ``steps[j]``, given as ``(i, alpha)`` (``()`` for none).  One cell per
    ``(u, j)``, charged before any row is built.
    """
    endos = enumerate_homset(n, n)
    charge((2 * n + len(endos)) * len(endos), "_free_rows(%s)", n)  # the 2n elementary cofaces and the endomaps
    index = {psi: j for m in (n - 1, n) for j, psi in enumerate(enumerate_homset(m, m))}
    rows = {}
    for _, u in generating_family(n):
        if u.cod_dim == n:
            facs = [factorize(compose(psi, u)) for psi in endos]
            steps = tuple(fac.steps[0][1:] if fac.steps else () for fac in facs)
            rows[u] = (tuple(index[fac.psi] for fac in facs), steps)
    return rows


def _cellular(levels: Sequence[Sequence[int]], faces: Mapping[tuple[int, int, int], tuple], top: int) -> Sts:
    """The set with the ``n``-cells ``levels[n]`` up to ``[top]``, the face of
    cell ``c`` along the coface ``(i, alpha)`` being the normal form
    ``(psi, d) = faces[(c, i, alpha)]``.  Its ``n``-cubes are the normal forms
    ``FreeCell(psi, c)``, the ``j``-th endomap on the ``b``-th cell being
    ``cubes[n][b * |End([n])| + j]``.  A generator ``u`` acts through the row
    of ``psi o u`` (:func:`_free_rows`): an endomap stays on the cell, one
    after a coface acts on that face of the cell."""
    endos = [enumerate_homset(m, m) for m in range(top + 1)]
    cubes, labels = _number([[FreeCell(psi, c) for c in levels[m] for psi in endos[m]] for m in range(top + 1)])
    rows = {n: _free_rows(n) for n in range(1, top + 1) if levels[n]}
    pos = {c: b for level in levels for b, c in enumerate(level)}
    index = {psi: j for m in range(top + 1) if levels[m] for j, psi in enumerate(endos[m])}
    at = {key: (pos[c], index[psi]) for key, (psi, c) in faces.items()}  # (cell position, endomap index)

    def act(u: CubeMap, x: int) -> int:
        n, m = u.cod_dim, u.dom_dim
        b, j = divmod(x - cubes[n][0], len(endos[n]))
        targets, steps = rows[n][u]
        if m == n:
            return cubes[n][b * len(endos[n]) + targets[j]]
        b, e = at[(levels[n][b], *steps[j])]
        return cubes[m][b * len(endos[m]) + (rows[m][endos[m][targets[j]]][0][e] if m else 0)]

    return Sts(top, cubes, action_tables(list(cubes.values()), act, contravariant=True), labels)


def free_sts(k: Precubical) -> Sts:
    """The symmetric transverse set freely generated by a precubical set.

    Dimension ``m`` consists of normal forms ``(psi, c)`` with ``psi`` an
    endomap of ``[m]`` and ``c`` a generating ``m``-cube: one cell per cube
    of ``k``, its faces the precubical ones under the identity.
    """
    levels = [k.cubes.get(m, ()) for m in range(k.max_dim + 1)]
    dim_of, units = k.dim_of, [identity(m) for m in range(k.max_dim)]
    faces = {key: (units[dim_of[key[0]] - 1], d) for key, d in k.faces.items()}
    return _cellular(levels, faces, k.max_dim)


def cube_precubical(n: int) -> Precubical:
    """The precubical cube: all coface composites into ``[n]``, acting by
    precomposition.  Generating ids are assigned in enumeration order."""
    cubes, labels = _number([enumerate_cofaces(m, n) for m in range(n + 1)])
    ids = {phi: c for c, phi in labels.items()}
    faces = {
        (c, i, alpha): ids[compose(phi, coface(i, alpha, m))]
        for m in range(1, n + 1)
        for c, phi in zip(cubes[m], enumerate_cofaces(m, n))
        for i in range(1, m + 1)
        for alpha in (0, 1)
    }
    return Precubical(n, cubes, faces)


def boundary_precubical(n: int) -> Precubical:
    """The precubical cube with its top cube removed."""
    full = cube_precubical(n)
    cubes = {m: (full.cubes.get(m, ()) if m < n else ()) for m in range(full.max_dim + 1)}
    keep = {c for m, ids in cubes.items() for c in ids}
    faces = {key: v for key, v in full.faces.items() if key[0] in keep}
    return Precubical(full.max_dim, cubes, faces)


class PushoutResult(NamedTuple):
    """The glued set and the two maps into it.  A tuple: it also compares
    equal to the plain tuple of its fields."""

    sts: Sts
    from_left: StsMap
    from_right: StsMap


def pushout(j: StsMap, l: StsMap) -> PushoutResult:
    """Dimensionwise pushout of ``left <- common -> right``.

    Glues the disjoint union of the two targets along the images of the
    common source, rebuilds the generating action on classes, and checks
    the result is well defined (it always is when the inputs are genuinely
    equivariant) and functorial on generators.
    """
    if j.src is not l.src:
        raise ValueError("pushout legs must share their source")
    left, right = j.dst, l.dst
    max_dim = max(left.max_dim, right.max_dim)

    quot = QuotientSet([("L", c) for c in left.all_cubes()] + [("R", c) for c in right.all_cubes()])
    for a in j.src.all_cubes():
        quot.identify(("L", j(a)), ("R", l(a)))

    sides = {"L": left, "R": right}
    graded: list[list[tuple]] = [[] for _ in range(max_dim + 1)]
    for cls in quot.classes():
        dims = {sides[side].dim_of[c] for side, c in cls}
        if len(dims) != 1:
            raise ValueError("glued cubes of different dimensions")
        graded[dims.pop()].append(tuple(cls))
    cubes, labels = _number(graded)
    new_id: dict[str, dict[int, int]] = {side: {} for side in sides}
    for c, cls in labels.items():
        for side, t in cls:
            new_id[side][t] = c
    keys = {u: key for key, u in generating_family(max_dim)}  # act is passed the map, not its key

    def act(u: CubeMap, c: int) -> int:
        # Any member will do: the two maps into the result below check that
        # every member of every class lands on the same image.
        side, t = labels[c][0]
        return new_id[side][sides[side].tables[keys[u]][sides[side].pos[t]]]

    out = Sts(max_dim, cubes, action_tables(list(cubes.values()), act, contravariant=True), labels)
    return PushoutResult(out, StsMap(left, out, new_id["L"]), StsMap(right, out, new_id["R"]))


class CellCertificate(NamedTuple):
    """Witness that a set was assembled cell by cell: per-dimension cell
    counts plus the expected graded cube counts they force.  A tuple: it
    also compares equal to the plain tuple of its fields."""

    cell_counts: dict[int, int]
    cube_counts: dict[int, int]


def certify_cellular(
    script: list[dict], max_dim: int
) -> tuple[Sts, CellCertificate, StsMap | None]:
    """Assemble a symmetric transverse set from an attachment script.

    Each entry ``{"dim": n, "attach": {boundary cube id -> skeleton cube
    id}}`` glues one copy of the full ``n``-cube along an equivariant map
    from its boundary to the skeleton of the cells below ``n`` (for ``n = 0``
    the boundary is empty and the attach table must be too).  Entries must
    come in nondecreasing dimension.  Returns the built set, the
    certificate, and the injection of the final attached cube (useful to
    locate fresh cells).

    Every ``n``-cube of the result arises from exactly one attached
    ``n``-cell and one endomap, so the graded counts are forced to
    ``|endos| * cells``; a set violating that is not cellular and no script
    can produce it.  Labels are ``FreeCell(psi, i)`` with ``i`` the index
    of the script entry; ids are those of one pushout per entry.
    """
    charge(max_dim + 1, "the levels of a cellular set of dimension %s", max_dim)
    levels: list[list[int]] = [[] for _ in range(max_dim + 1)]
    faces: dict[tuple[int, int, int], FreeCell] = {}
    cell_dim = None
    for e, entry in enumerate(script):
        n = int(entry["dim"])
        if n < (cell_dim or 0):
            raise InputError("script entries must have nondecreasing dimension")
        if n > max_dim:
            raise InputError(f"cell dimension {n} above the ambient bound {max_dim}")
        if n != cell_dim:  # the cells of one dimension attach to the skeleton of those below
            cell_dim, bnd, skeleton = n, boundary(n, max_dim), _cellular(levels, faces, max_dim)
            index = {bnd.labels[c]: c for c in bnd.cubes.get(n - 1, ())}
            sides = [((i, alpha), index[coface(i, alpha, n)]) for i in range(1, n + 1) for alpha in (0, 1)]
        attach = {int(k): int(v) for k, v in entry.get("attach", {}).items()}
        StsMap(bnd, skeleton, attach)  # validates equivariance
        faces.update(((e, *side), skeleton.labels[attach[c]]) for side, c in sides)
        levels[n].append(e)
    out = _cellular(levels, faces, max_dim)
    counts = {n: len(level) for n, level in enumerate(levels)}
    cert = CellCertificate(counts, {n: len(enumerate_homset(n, n)) * cells for n, cells in counts.items()})
    if not script:
        return out, cert, None
    cell = representable(cell_dim, max_dim)  # the last cell is the last |End([n])| cubes of its level
    fresh = zip(cell.cubes[cell_dim], out.cubes[cell_dim][-len(cell.cubes[cell_dim]) :])
    return out, cert, StsMap(cell, out, {**attach, **dict(fresh)})


def terminal_sts(max_dim: int) -> Sts:
    """One cube per dimension with every action collapsing onto it."""
    return _build([[("t", n)] for n in range(max_dim + 1)], lambda u, x: ("t", u.dom_dim))


def endo_fixed_cubes(sts: Sts, n: int) -> dict[CubeMap, tuple[int, ...]]:
    """For each non-identity endomap of ``[n]``, the cubes it fixes.

    In a freshly attached free cell the generating cube is fixed by no
    non-identity endomap (its normal form composes the endomap on), whereas
    the terminal set fixes its unique cube under every endomap.  This is
    the obstruction that rules out a cellular structure on the terminal
    set, alongside the forced graded counts.
    """
    out: dict[CubeMap, tuple[int, ...]] = {}
    for e in enumerate_homset(n, n):
        if e.is_identity():
            continue
        fixed = tuple(c for c, d in zip(sts.cubes[n], sts.tables[e]) if d == c)
        if fixed:
            out[e] = fixed
    return out


def graded_counts_equal(a: Sts, b: Sts) -> bool:
    na = {n: c for n, c in a.counts().items() if c}
    nb = {n: c for n, c in b.counts().items() if c}
    return na == nb


def find_iso(a: Sts, b: Sts) -> StsMap | None:
    """Search for an action-equivariant bijection, dimension by dimension.

    Backtracking with forced propagation through the generating actions;
    intended for the small objects exercised in tests, not as a general
    presheaf isomorphism decision procedure.
    """
    if not graded_counts_equal(a, b):
        return None
    order = [c for n in range(a.max_dim, -1, -1) for c in a.cubes[n]]
    assignment: dict[int, int] = {}
    used: set[int] = set()

    # Generator tables of a and b, by the dimension of the cubes they act on.
    gens: dict[int, list[tuple[tuple, tuple]]] = {}
    for key, u in generating_family(min(a.max_dim, b.max_dim)):
        gens.setdefault(u.cod_dim, []).append((a.tables[key], b.tables[key]))

    def pin(c: int, d: int) -> list[tuple[int, int]] | None:
        """Pin ``c -> d`` and every image it forces through the generating
        actions; return the new pins, or undo them all on a conflict."""
        pins: list[tuple[int, int]] = []
        stack = [(c, d)]
        while stack:
            x, y = stack.pop()
            if x in assignment or y in used:
                if assignment.get(x) == y:
                    continue
                undo(pins)
                return None
            assignment[x] = y
            used.add(y)
            pins.append((x, y))
            stack += [(a_table[a.pos[x]], b_table[b.pos[y]]) for a_table, b_table in gens.get(a.dim_of[x], ())]
        return pins

    def undo(pins: list[tuple[int, int]]) -> None:
        for x, y in pins:
            del assignment[x]
            used.discard(y)

    def search(k: int) -> bool:
        while k < len(order) and order[k] in assignment:
            k += 1
        if k == len(order):
            return True
        for d in b.cubes[a.dim_of[order[k]]]:
            pins = pin(order[k], d)
            if pins is not None:
                if search(k + 1):
                    return True
                undo(pins)
        return False

    if search(0):
        return StsMap(a, b, dict(assignment))
    return None
