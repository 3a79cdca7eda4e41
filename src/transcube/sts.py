"""Finite symmetric transverse sets: presheaves on the cotransverse category.

A symmetric transverse set is a graded family of cube sets together with a
contravariant action of every cotransverse map.  Since every map factors
uniquely as a coface composite after an endomap, storing the action of the
elementary cofaces and of the endomaps of each dimension determines the
whole action; :meth:`Sts.act` extends by factorization on demand.

Builders cover the standard constructions: representables (all maps into a
fixed cube, acting by precomposition), truncations and boundaries, free
generation from a precubical set via normal forms, dimensionwise pushouts,
and cell-by-cell assembly with a certificate.  Completed values are
immutable in use: nothing here mutates a built object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .cube import CubeMap, compose, identity
from .homsets import (
    BudgetExceeded,
    cell_budget,
    composable_pairs,
    decompose_coface,
    enumerate_homset,
    factorize,
    generating_family,
)
from .quotient import UnionFind


class Sts:
    """Graded cube sets plus the contravariant action of a generating family.

    ``cubes[n]`` lists the cube ids of dimension ``n`` in construction
    order.  ``face[(n, i, alpha)]`` is the pullback along the elementary
    coface inserting ``alpha`` at coordinate ``i`` (a map from dimension
    ``n`` cubes to dimension ``n-1`` cubes) and ``endo[n][e]`` the pullback
    along the endomap ``e``.  ``labels`` optionally carries a descriptive
    payload per cube (the hom element of a representable, the normal form
    of a free cell, ...).
    """

    def __init__(
        self,
        max_dim: int,
        cubes: Mapping[int, tuple[int, ...]],
        face: Mapping[tuple[int, int, int], Mapping[int, int]],
        endo: Mapping[int, Mapping[CubeMap, Mapping[int, int]]],
        labels: Mapping[int, object] | None = None,
    ) -> None:
        self.max_dim = max_dim
        self.cubes = {n: tuple(cubes.get(n, ())) for n in range(max_dim + 1)}
        self.face = {k: dict(v) for k, v in face.items()}
        self.endo = {n: {e: dict(t) for e, t in by.items()} for n, by in endo.items()}
        self.labels = dict(labels or {})
        self.dim_of: dict[int, int] = {}
        for n, ids in self.cubes.items():
            for c in ids:
                self.dim_of[c] = n

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
        for dim, i, alpha in reversed(decompose_coface(fac.phi)):
            c = self.face[(dim, i, alpha)][c]
        if f.dom_dim > 0:
            c = self.endo[f.dom_dim][fac.psi][c]
        return c

    def vertex_of(self, cube_id: int, bits: int) -> int:
        """A vertex of a cube as a vertex of the whole set."""
        return self.act(CubeMap(0, self.dim_of[cube_id], (bits,)), cube_id)


def check_functoriality(sts: Sts, exhaustive_dim: int = 3) -> None:
    """Assert ``(g o f)^* = f^* o g^*`` and ``id^* = id``.

    Exhaustive over all composable pairs with dimensions at most
    ``exhaustive_dim``.  Raises ``AssertionError`` on the first failure.
    """
    top = min(sts.max_dim, exhaustive_dim)
    for n in range(top + 1):
        for c in sts.cubes[n]:
            if sts.act(identity(n), c) != c:
                raise AssertionError(f"identity action moved cube {c}")
    for f, g in composable_pairs(top):
        gf = compose(g, f)
        for c in sts.cubes[g.cod_dim]:
            if sts.act(gf, c) != sts.act(f, sts.act(g, c)):
                raise AssertionError(
                    f"action not functorial on cube {c} for {g.literal()} o {f.literal()}"
                )


def family_table(face: Mapping, endo: Mapping, key: tuple[int, int, int] | None, u: CubeMap) -> dict:
    """The stored table of a generator ``(key, u)`` of :func:`generating_family`:
    ``face[key]`` for an elementary coface, ``endo[n][u]`` for an endomap of
    ``[n]``.  Contravariant (:class:`Sts`) and covariant
    (:class:`transcube.reedy.CotransverseSetObj`) actions share this layout."""
    return endo[u.cod_dim][u] if key is None else face[key]


def action_tables(
    graded: Sequence[Sequence[Hashable]],
    act: Callable[[CubeMap, Hashable], Hashable],
    contravariant: bool,
) -> tuple[dict, dict]:
    """Materialize the action of the generating family from one rule.

    ``graded[n]`` lists the elements of level ``n``.  A generator
    ``u: [m] -> [n]`` gets the table ``x -> act(u, x)`` over level ``n``
    when ``contravariant`` (the results lie at level ``m``) and over level
    ``m`` otherwise (the results lie at level ``n``).  Returns ``(face,
    endo)`` in the layout read by :func:`family_table`.  The entries about
    to be written are charged against the cell budget first: the endomap
    monoids grow fast enough that materializing dimension 4 representables
    would need tens of millions of entries.
    """
    family = generating_family(len(graded) - 1)
    sources = [graded[u.cod_dim if contravariant else u.dom_dim] for _, u in family]
    budget = cell_budget()
    projected = sum(len(level) for level in sources)
    if projected > budget:
        raise BudgetExceeded(
            f"action tables would need {projected} entries, over the budget of {budget}"
        )
    face: dict[tuple[int, int, int], dict] = {}
    endo: dict[int, dict[CubeMap, dict]] = {n: {} for n in range(1, len(graded))}
    for (key, u), level in zip(family, sources):
        table = {x: act(u, x) for x in level}
        if key is None:
            endo[u.cod_dim][u] = table
        else:
            face[key] = table
    return face, endo


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
    face, endo = action_tables(
        list(cubes.values()), lambda u, c: ids[(u.dom_dim, act(u, labels[c]))], contravariant=True
    )
    return Sts(len(graded) - 1, cubes, face, endo, labels)


def empty_sts(max_dim: int) -> Sts:
    return _build([[] for _ in range(max_dim + 1)], lambda u, x: None)


def representable(n: int, max_dim: int | None = None) -> Sts:
    """The symmetric transverse set of all cotransverse maps into ``[n]``.

    Dimension ``m`` holds the hom-set ``[m] -> [n]`` and every map acts by
    precomposition.  Labels are the hom elements themselves.
    """
    top = n if max_dim is None else max_dim
    return _build([list(enumerate_homset(m, n)) for m in range(top + 1)], lambda u, g: compose(g, u))


def truncate(sts: Sts, n: int) -> Sts:
    """Kill every cube of dimension above ``n``; the action restricts."""
    cubes = {m: (sts.cubes.get(m, ()) if m <= n else ()) for m in range(sts.max_dim + 1)}
    face = {
        key: dict(table)
        for key, table in sts.face.items()
        if key[0] <= n
    }
    endo = {m: sts.endo[m] for m in sts.endo if m <= n}
    out = Sts(sts.max_dim, cubes, face, endo, {c: sts.labels.get(c) for m, ids in cubes.items() for c in ids})
    return out


def boundary(n: int, max_dim: int | None = None) -> Sts:
    """All maps into ``[n]`` of dimension strictly below ``n``; empty for
    ``n == 0``."""
    return truncate(representable(n, max_dim), n - 1)


@dataclass(frozen=True)
class StsMap:
    """A dimension-preserving map of symmetric transverse sets, given on
    cube ids and required to commute with the generating actions."""

    src: Sts
    dst: Sts
    mapping: dict[int, int] = field(compare=False)

    def __post_init__(self) -> None:
        for c in self.src.all_cubes():
            if c not in self.mapping:
                raise ValueError(f"mapping misses cube {c}")
            if self.mapping[c] not in self.dst.dim_of:
                raise ValueError(
                    f"mapping sends cube {c} to {self.mapping[c]}, which is not a cube of the target"
                )
            if self.src.dim_of[c] != self.dst.dim_of[self.mapping[c]]:
                raise ValueError(f"mapping does not preserve dimension at cube {c}")
        for key, u in generating_family(self.src.max_dim):
            if not self.src.cubes[u.cod_dim]:
                continue
            dst_table = family_table(self.dst.face, self.dst.endo, key, u)
            for c, uc in family_table(self.src.face, self.src.endo, key, u).items():
                if dst_table[self.mapping[c]] != self.mapping[uc]:
                    kind = "endomap" if key is None else "face"
                    raise ValueError(f"mapping not equivariant at {kind} of cube {c}")

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
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    for c in dst.all_cubes():
        g = dst.labels[c]
        index[(g.dom_dim, g.table)] = c
    mapping = {}
    for c in src.all_cubes():
        g = src.labels[c]
        fg = compose(f, g)
        mapping[c] = index[(fg.dom_dim, fg.table)]
    return StsMap(src, dst, mapping)


@dataclass(frozen=True)
class FreeCell:
    """Normal form of a cube of a freely generated set: an endomap applied
    to a generating cube of the same dimension."""

    psi: CubeMap
    base: int


@dataclass(frozen=True)
class Precubical:
    """A finite presheaf on the coface-only category.

    ``faces[(c, i, alpha)]`` is the face of cube ``c`` along the elementary
    coface; the usual coface exchange relations are validated.
    """

    max_dim: int
    cubes: dict[int, tuple[int, ...]]
    faces: dict[tuple[int, int, int], int]

    def __post_init__(self) -> None:
        dim_of = self.dim_of
        for (c, i, alpha), d in self.faces.items():
            if c not in dim_of:
                raise ValueError(f"face ({i}, {alpha}) given for {c}, which is not a cube")
            n = dim_of[c]
            if not (1 <= i <= n and alpha in (0, 1)):
                raise ValueError(f"face index ({i}, {alpha}) invalid for {n}-cube {c}")
            if d not in dim_of:
                raise ValueError(f"face ({i}, {alpha}) of cube {c} is {d}, which is not a cube")
            if dim_of[d] != n - 1:
                raise ValueError(f"face of {n}-cube {c} must have dimension {n - 1}")
        for c, n in dim_of.items():
            for i in range(1, n + 1):
                for alpha in (0, 1):
                    if (c, i, alpha) not in self.faces:
                        raise ValueError(f"{n}-cube {c} lacks face ({i}, {alpha})")
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
                                    raise ValueError(
                                        f"coface relations fail at cube {c} ({i},{alpha}),({j},{beta})"
                                    )

    @property
    def dim_of(self) -> dict[int, int]:
        out = {}
        for n, ids in self.cubes.items():
            for c in ids:
                out[c] = n
        return out

    def face(self, c: int, i: int, alpha: int) -> int:
        return self.faces[(c, i, alpha)]

    def pull_coface(self, phi: CubeMap, c: int) -> int:
        """Pullback along a coface composite, one elementary step at a time."""
        for dim, i, alpha in reversed(decompose_coface(phi)):
            c = self.faces[(c, i, alpha)]
        return c


def free_sts(k: Precubical) -> Sts:
    """The symmetric transverse set freely generated by a precubical set.

    Dimension ``m`` consists of normal forms ``(psi, c)`` with ``psi`` an
    endomap of ``[m]`` and ``c`` a generating ``m``-cube; the count is
    always ``|endos of [m]| * |K_m|``.  A map ``f`` acts by factorizing
    ``psi o f``: the coface part pulls the generator back through the
    precubical faces and the endomap part becomes the new normal form.
    """
    graded: list[list[object]] = []
    for m in range(k.max_dim + 1):
        row: list[object] = []
        for c in k.cubes.get(m, ()):
            for psi in enumerate_homset(m, m):
                row.append(FreeCell(psi, c))
        graded.append(row)

    def act(u: CubeMap, cell: FreeCell) -> FreeCell:
        if u.dom_dim == u.cod_dim:
            return FreeCell(compose(cell.psi, u), cell.base)
        fac = factorize(compose(cell.psi, u))
        return FreeCell(fac.psi, k.pull_coface(fac.phi, cell.base))

    return _build(graded, act)


def cube_precubical(n: int, max_dim: int | None = None) -> Precubical:
    """The precubical cube: all coface composites into ``[n]``, acting by
    precomposition.  Generating ids are assigned in enumeration order."""
    from .homsets import enumerate_cofaces

    top = n if max_dim is None else max_dim
    ids: dict[tuple[int, tuple[int, ...]], int] = {}
    cubes: dict[int, tuple[int, ...]] = {}
    counter = 0
    for m in range(top + 1):
        row = []
        for phi in enumerate_cofaces(m, n):
            ids[(m, phi.table)] = counter
            row.append(counter)
            counter += 1
        cubes[m] = tuple(row)
    faces = {}
    from .cube import coface as elementary_coface

    for m in range(1, top + 1):
        for phi in enumerate_cofaces(m, n):
            c = ids[(m, phi.table)]
            for i in range(1, m + 1):
                for alpha in (0, 1):
                    sub = compose(phi, elementary_coface(i, alpha, m))
                    faces[(c, i, alpha)] = ids[(m - 1, sub.table)]
    return Precubical(top, cubes, faces)


def boundary_precubical(n: int) -> Precubical:
    """The precubical cube with its top cube removed."""
    full = cube_precubical(n)
    cubes = {m: (full.cubes.get(m, ()) if m < n else ()) for m in range(full.max_dim + 1)}
    keep = {c for m, ids in cubes.items() for c in ids}
    faces = {key: v for key, v in full.faces.items() if key[0] in keep}
    return Precubical(full.max_dim, cubes, faces)


@dataclass(frozen=True)
class PushoutResult:
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

    uf = UnionFind()
    for c in left.all_cubes():
        uf.add(("L", c))
    for c in right.all_cubes():
        uf.add(("R", c))
    for a in j.src.all_cubes():
        uf.unite(("L", j(a)), ("R", l(a)))

    sides = {"L": left, "R": right}
    graded: list[list[tuple]] = [[] for _ in range(max_dim + 1)]
    for cls in uf.classes():
        dims = {sides[side].dim_of[c] for side, c in cls}
        if len(dims) != 1:
            raise ValueError("glued cubes of different dimensions")
        graded[dims.pop()].append(tuple(cls))
    cubes, labels = _number(graded)
    new_id = {member: c for c, cls in labels.items() for member in cls}

    face: dict[tuple[int, int, int], dict[int, int]] = {}
    endo: dict[int, dict[CubeMap, dict[int, int]]] = {n: {} for n in range(1, max_dim + 1)}
    for key, u in generating_family(max_dim):
        n = u.cod_dim
        tables = {
            side: family_table(obj.face, obj.endo, key, u)
            for side, obj in sides.items()
            if obj.cubes.get(n)
        }
        table: dict[int, int] = {}
        for c in cubes[n]:
            results = {new_id[(side, tables[side][t])] for side, t in labels[c]}
            if len(results) != 1:
                kind = "endo" if key is None else "face"
                raise ValueError(f"inputs not action-equivariant: {kind} action ill-defined")
            table[c] = results.pop()
        if key is None:
            endo[n][u] = table
        else:
            face[key] = table

    out = Sts(max_dim, cubes, face, endo, labels)
    lmap = StsMap(left, out, {c: new_id[("L", c)] for c in left.all_cubes()})
    rmap = StsMap(right, out, {c: new_id[("R", c)] for c in right.all_cubes()})
    return PushoutResult(out, lmap, rmap)


@dataclass(frozen=True)
class CellCertificate:
    """Witness that a set was assembled cell by cell: per-dimension cell
    counts plus the expected graded cube counts they force."""

    cell_counts: dict[int, int]
    cube_counts: dict[int, int]


def certify_cellular(
    script: list[dict], max_dim: int
) -> tuple[Sts, CellCertificate, StsMap | None]:
    """Assemble a symmetric transverse set from an attachment script.

    Each entry ``{"dim": n, "attach": {boundary cube id -> skeleton cube
    id}}`` glues one copy of the full ``n``-cube along an equivariant map
    from its boundary to the current skeleton (for ``n = 0`` the boundary is
    empty and the attach table must be too).  Entries must come in
    nondecreasing dimension.  Returns the built set, the certificate, and
    the injection of the final attached cube (useful to locate fresh cells).

    Every ``n``-cube of the result arises from exactly one attached
    ``n``-cell and one endomap, so the graded counts are forced to
    ``|endos| * cells``; a set violating that is not cellular and no script
    can produce it.
    """
    current = empty_sts(max_dim)
    cell_counts = {n: 0 for n in range(max_dim + 1)}
    last_injection: StsMap | None = None
    prev_dim = 0
    for entry in script:
        n = int(entry["dim"])
        if n < prev_dim:
            raise ValueError("script entries must have nondecreasing dimension")
        if n > max_dim:
            raise ValueError(f"cell dimension {n} above the ambient bound {max_dim}")
        prev_dim = n
        bnd = boundary(n, max_dim)
        cell = representable(n, max_dim)
        attach_raw = entry.get("attach", {})
        attach = {int(k): int(v) for k, v in attach_raw.items()}
        to_skeleton = StsMap(bnd, current, attach)  # validates equivariance
        to_cell = inclusion_map(bnd, cell)
        result = pushout(to_skeleton, to_cell)
        current = result.sts
        last_injection = result.from_right
        cell_counts[n] += 1
    cube_counts = {
        n: len(enumerate_homset(n, n)) * cell_counts[n] for n in range(max_dim + 1)
    }
    if current.counts() != cube_counts:
        raise AssertionError("cellular assembly produced unexpected graded counts")
    return current, CellCertificate(cell_counts, cube_counts), last_injection


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
        fixed = tuple(c for c in sts.cubes[n] if sts.endo[n][e][c] == c)
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
    gens: dict[int, list[tuple[dict, dict]]] = {}
    for key, u in generating_family(a.max_dim):
        if a.cubes[u.cod_dim]:
            gens.setdefault(u.cod_dim, []).append(
                (family_table(a.face, a.endo, key, u), family_table(b.face, b.endo, key, u))
            )

    def propagate(c: int, d: int) -> list[tuple[int, int]] | None:
        """Force images of faces/endo-images of c; return new pins or None."""
        pins = []
        stack = [(c, d)]
        while stack:
            x, y = stack.pop()
            for a_table, b_table in gens.get(a.dim_of[x], ()):
                ax, by_ = a_table[x], b_table[y]
                if ax in assignment:
                    if assignment[ax] != by_:
                        return None
                elif by_ in used:
                    return None
                else:
                    assignment[ax] = by_
                    used.add(by_)
                    pins.append((ax, by_))
                    stack.append((ax, by_))
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
        c = order[k]
        n = a.dim_of[c]
        for d in b.cubes[n]:
            if d in used:
                continue
            assignment[c] = d
            used.add(d)
            pins = propagate(c, d)
            if pins is not None and search(k + 1):
                return True
            if pins is not None:
                undo(pins)
            del assignment[c]
            used.discard(d)
        return False

    if search(0):
        return StsMap(a, b, dict(assignment))
    return None
