"""The caches of the fixed objects: each keeps an independent oracle, hands
out results equal to a cold build, charges the cell budget the same way
warm or cold, and is bounded."""

from __future__ import annotations

import importlib
import pkgutil
from fractions import Fraction

import pytest

import transcube
from transcube import homsets, paths, reedy, sts
from transcube.cube import CubeMap, Vertex, compose
from transcube.geometry import PointPresentation, chain_distance_sample, vertex_distance
from transcube.homsets import BudgetExceeded, enumerate_homset, factorize, set_cell_budget
from transcube.paths import induced_coface, induced_path_map
from transcube.reedy import boundary_hom, boundary_weight
from transcube.sts import (
    FreeCell,
    Precubical,
    Sts,
    boundary,
    boundary_precubical,
    certify_cellular,
    cube_precubical,
    free_sts,
    representable,
)


def reference_free_sts(k: Precubical) -> Sts:
    """The per-cell rule that :func:`free_sts` reads from its cached rows:
    factorize ``psi o u`` for every cell and generator, pull the base back
    through the precubical faces, and number the results through ``_build``."""
    endos = [enumerate_homset(m, m) for m in range(k.max_dim + 1)]
    graded = [[FreeCell(psi, c) for c in k.cubes.get(m, ()) for psi in endos[m]] for m in range(k.max_dim + 1)]

    def act(u, cell):
        if u.dom_dim == u.cod_dim:
            return FreeCell(compose(cell.psi, u), cell.base)
        fac = factorize(compose(cell.psi, u))
        c = cell.base
        for _, i, alpha in reversed(fac.steps):
            c = k.faces[(c, i, alpha)]
        return FreeCell(fac.psi, c)

    return sts._build(graded, act)


def dump(s: Sts) -> tuple:
    """Everything a set holds, in order: ids, labels and every table entry."""
    return (
        s.max_dim,
        list(s.cubes.items()),
        list(s.labels.items()),
        [(key, list(table)) for key, table in s.tables.items()],
    )


def square_grid(a: int, b: int) -> Precubical:
    """The grid of ``a x b`` unit squares: vertices, then horizontal and
    vertical edges, then squares; coordinate 1 runs along x."""
    ids: dict[tuple, int] = {}
    for key in (
        [("v", x, y) for x in range(a + 1) for y in range(b + 1)]
        + [("h", x, y) for x in range(a) for y in range(b + 1)]
        + [("u", x, y) for x in range(a + 1) for y in range(b)]
        + [("s", x, y) for x in range(a) for y in range(b)]
    ):
        ids[key] = len(ids)
    faces = {}
    for (kind, x, y), c in ids.items():
        for alpha in (0, 1):
            if kind == "h":
                faces[(c, 1, alpha)] = ids[("v", x + alpha, y)]
            elif kind == "u":
                faces[(c, 1, alpha)] = ids[("v", x, y + alpha)]
            elif kind == "s":
                faces[(c, 1, alpha)] = ids[("u", x + alpha, y)]
                faces[(c, 2, alpha)] = ids[("h", x, y + alpha)]
    levels = {0: "v", 1: "hu", 2: "s"}
    cubes = {n: tuple(c for key, c in ids.items() if key[0] in kinds) for n, kinds in levels.items()}
    return Precubical(2, cubes, faces)


_FREE_INPUTS = {
    **{f"cube {n}": (lambda n=n: cube_precubical(n)) for n in range(4)},
    **{f"boundary {n}": (lambda n=n: boundary_precubical(n)) for n in range(4)},
    "3x3 grid": lambda: square_grid(3, 3),
    "no level 1, empty level 2": lambda: Precubical(2, {0: (0, 1, 2), 2: ()}, {}),
    "path up to [3]": lambda: Precubical(3, {0: (0, 1, 2), 1: (3, 4)}, {(3, 1, 0): 0, (3, 1, 1): 1, (4, 1, 0): 1, (4, 1, 1): 2}),
    "max_dim 0": lambda: Precubical(0, {0: (7, 3)}, {}),
}


@pytest.mark.parametrize("build", _FREE_INPUTS.values(), ids=_FREE_INPUTS)
def test_free_sts_matches_the_per_cell_rule(build):
    k = build()
    assert dump(free_sts(k)) == dump(reference_free_sts(k))


def free_script(k: Precubical) -> list[dict]:
    """One cell per cube of ``k``, in level order.  Each boundary cube ``u``
    of a cell ``c`` is attached to the free cube of ``factorize(u)``: its
    endomap part on ``c`` pulled back through the coface part."""
    free = free_sts(k)
    ids = {label: x for x, label in free.labels.items()}
    script = []
    for n in range(k.max_dim + 1):
        bnd = boundary(n, k.max_dim)
        for c in k.cubes.get(n, ()):
            attach = {}
            for b, u in bnd.labels.items():
                fac, d = factorize(u), c
                for _, i, alpha in reversed(fac.steps):
                    d = k.faces[(d, i, alpha)]
                attach[b] = ids[FreeCell(fac.psi, d)]
            script.append({"dim": n, "attach": attach})
    return script


@pytest.mark.parametrize("build", _FREE_INPUTS.values(), ids=_FREE_INPUTS)
def test_free_sets_are_cellular(build):
    # the same ids and tables; labels name script entries, not cubes of k
    k = build()
    without_labels = lambda s: dump(s)[:2] + dump(s)[3:]
    assert without_labels(certify_cellular(free_script(k), k.max_dim)[0]) == without_labels(free_sts(k))


@pytest.mark.parametrize("builder", [representable, boundary], ids=lambda b: b.__name__)
@pytest.mark.parametrize("n, max_dim", [(n, None) for n in range(4)] + [(0, 2), (1, 3), (2, 3)])
def test_cached_builds_equal_cold_ones(builder, n, max_dim):
    warm = builder(n, max_dim)
    assert builder(n, max_dim) is not warm and builder(n, max_dim).tables is not warm.tables
    sts._hom_sts.cache_clear()
    assert dump(builder(n, max_dim)) == dump(warm)


@pytest.mark.parametrize("build", [representable, boundary, boundary_weight], ids=lambda b: b.__name__)
def test_a_caller_cannot_change_the_cached_tables(build):
    s = build(2)
    expected = dump(s)
    with pytest.raises(TypeError):
        s.tables[(1, 1, 0)][0] = s.tables[(1, 1, 0)][-1]
    with pytest.raises(AttributeError):
        s.tables[(1, 1, 1)].clear()
    s.tables.clear()
    s.labels.clear()
    s.cubes[0] = ()
    assert dump(build(2)) == expected


@pytest.mark.parametrize("n", range(4))
def test_cached_weight_equals_a_cold_one(n):
    warm = boundary_weight(n)
    assert boundary_weight(n) is not warm
    reedy._weight.cache_clear()
    assert dump(boundary_weight(n)) == dump(warm)


def _induced_maps() -> list:
    return [
        induced_path_map(f, Vertex(m, a), Vertex(m, b))
        for n in range(4)
        for m in range(n + 1)
        for f in enumerate_homset(m, n)
        for b in range(1 << m)
        for a in range(b)
        if a & ~b == 0
    ]


def test_cached_induced_path_maps_equal_cold_ones():
    warm = _induced_maps()
    paths._induced_maps.cache_clear()
    assert _induced_maps() == warm


def test_bad_induced_path_map_arguments_raise_on_every_call():
    f = enumerate_homset(2, 2)[0]
    for _ in range(2):
        before = paths._induced_maps.cache_info().currsize
        for alpha, beta in [(Vertex(2, 3), Vertex(2, 1)), (Vertex(2, 1), Vertex(2, 1)), (Vertex(1, 0), Vertex(1, 1))]:
            with pytest.raises(ValueError):
                induced_path_map(f, alpha, beta)
        with pytest.raises(ValueError):
            induced_path_map(f, Vertex(2, 0), Vertex(3, 7))
        assert paths._induced_maps.cache_info().currsize == before


def _smallest_budget(call, cold) -> int:
    """The least cell budget under which ``call()`` succeeds, with ``cold()``
    run before every try (warm otherwise: the call has succeeded once)."""
    call()
    lo, hi = 0, 10_000_000
    while lo < hi:
        mid = (lo + hi) // 2
        cold()
        set_cell_budget(mid)
        try:
            call()
            hi = mid
        except BudgetExceeded:
            lo = mid + 1
        finally:
            set_cell_budget(None)
    return lo


_CACHED_BUILDS = {
    "representable(2)": (lambda: representable(2), sts._hom_sts),
    # no action tables: the hom-set of a level is the largest charge
    "representable(2, 0)": (lambda: representable(2, 0), sts._hom_sts),
    "boundary_weight(1)": (lambda: boundary_weight(1), reedy._weight),
    "boundary(3)": (lambda: boundary(3), sts._hom_sts),
    "boundary_weight(3)": (lambda: boundary_weight(3), reedy._weight),
    "free rows of [3]": (lambda: sts._free_rows(3), sts._free_rows),
    "latching frame of [3]": (lambda: reedy._weight_to_boundary(3), reedy._weight_to_boundary),
    "factorize(1>2:0,1)": (lambda: factorize(CubeMap.from_literal("1>2:0,1")), homsets.factorize),
    "induced_coface(0, 1 in [3])": (lambda: induced_coface(Vertex(3, 0), Vertex(3, 1)), homsets.coface_part),
}


@pytest.mark.parametrize("call, cache", _CACHED_BUILDS.values(), ids=_CACHED_BUILDS)
def test_warm_and_cold_calls_accept_the_same_budgets(call, cache):
    warm = _smallest_budget(call, lambda: None)
    assert warm > 0
    assert _smallest_budget(call, cache.cache_clear) == warm


def test_warm_vertex_of_charges_as_a_cold_one():
    # the 2^3 vertices of the top cube of [3] are charged on every call
    r3 = [representable(3)]
    top = r3[0].cubes[3][-1]

    def fresh():
        r3[0] = representable(3)

    warm = _smallest_budget(lambda: r3[0].vertex_of(top, 5), lambda: None)
    assert warm == 8
    assert _smallest_budget(lambda: r3[0].vertex_of(top, 5), fresh) == warm


@pytest.mark.parametrize("n, refinement", [(1, 2), (2, 0), (2, 1), (3, 0)])
def test_warm_chain_distance_charges_as_a_cold_one(n, refinement):
    # the vertex waypoints of the 2^n corners of [n] are charged on every
    # call, whether the set's waypoint graph is built or kept
    rep = [representable(n)]
    top = rep[0].cubes[n][-1]
    p = PointPresentation(top, (Fraction(1, 3),) * n)
    q = PointPresentation(top, (Fraction(5, 6),) * n)

    def fresh():
        rep[0] = representable(n)

    def call():
        chain_distance_sample(rep[0], p, q, refinement=refinement)

    warm = _smallest_budget(call, lambda: None)
    assert warm == 1 << n
    assert _smallest_budget(call, fresh) == warm
    # the skeleton charges nothing, warm or cold
    a, b = rep[0].cubes[0][0], rep[0].cubes[0][-1]
    assert _smallest_budget(lambda: vertex_distance(rep[0], a, b), lambda: None) == 0


def test_warm_induced_path_map_charges_as_a_cold_one():
    # a cold call charges coface_part(0, 3, 2), then the 3 coordinates of
    # the target that the factorization of the restricted map reads
    f = enumerate_homset(2, 3)[5]

    def call():
        induced_path_map(f, Vertex(2, 0), Vertex(2, 3))

    warm = _smallest_budget(call, lambda: None)
    assert warm == 3
    assert _smallest_budget(call, paths._induced_maps.cache_clear) == warm


def test_generating_family_charges_warm_and_cold_alike():
    # the endomaps of [3], 66 << 3 cells, are charged whether or not the family is cached
    def cold():
        homsets.generating_family.cache_clear()
        homsets.enumerate_homset.cache_clear()
        sts._hom_sts.cache_clear()

    warm = _smallest_budget(lambda: representable(1, 3), lambda: None)
    assert warm == 66 << 3
    assert _smallest_budget(lambda: representable(1, 3), cold) == warm


def test_boundary_hom_charges_warm_and_cold_alike():
    warm = _smallest_budget(lambda: boundary_hom(2, 3, 3), lambda: None)
    assert warm > 0
    assert _smallest_budget(lambda: boundary_hom(2, 3, 3), reedy._maps_into.cache_clear) == warm


@pytest.mark.parametrize("p, q, n", [(0, 0, 0), (2, 0, 1), (1, 0, 1), (0, 2, 3), (2, 3, 3), (3, 3, 3)])
def test_boundary_hom_reads_the_maps_out_of_p_warm_and_cold_alike(p, q, n):
    def cold():
        reedy._maps_out_of.cache_clear()
        reedy._maps_into.cache_clear()

    top = min(n - 1, q)
    for call in (lambda: reedy._maps_out_of(p, top), lambda: boundary_hom(p, q, n)):
        warm = _smallest_budget(call, lambda: None)
        assert _smallest_budget(call, reedy._maps_out_of.cache_clear) == warm
        assert _smallest_budget(call, cold) == warm


def test_free_sts_charges_as_its_tables():
    # the rows of a level are never charged above the tables built from them
    k = cube_precubical(3)
    needed = _smallest_budget(lambda: free_sts(k), sts._free_rows.cache_clear)
    expected = free_sts(k)
    entries = sum(map(len, expected.tables.values()))
    assert needed == entries


def _cold_homsets() -> None:
    for gate in (
        homsets.enumerate_homset, homsets.count_endomaps, homsets.generating_family, homsets.enumerate_cofaces
    ):
        gate.cache_clear()


#: The least budget each gate of :mod:`transcube.homsets` accepts, warm or cold.
_HOMSETS_BUDGETS = {
    "enumerate_homset(3, 3)": (lambda: homsets.enumerate_homset(3, 3), 528),
    "enumerate_homset(2, 4)": (lambda: homsets.enumerate_homset(2, 4), 384),
    "enumerate_homset(0, 5)": (lambda: homsets.enumerate_homset(0, 5), 32),
    "count_endomaps(3)": (lambda: homsets.count_endomaps(3), 528),
    "count_endomaps(4)": (lambda: homsets.count_endomaps(4), 114048),
    "enumerate_cofaces(2, 4)": (lambda: homsets.enumerate_cofaces(2, 4), 96),
    "generating_family(3)": (lambda: homsets.generating_family(3), 528),
}


@pytest.mark.parametrize("call, least", _HOMSETS_BUDGETS.values(), ids=_HOMSETS_BUDGETS)
def test_homsets_gates_accept_their_pinned_budgets(call, least):
    assert _smallest_budget(call, lambda: None) == least
    assert _smallest_budget(call, _cold_homsets) == least


def _cold_builds() -> None:
    _cold_homsets()
    for gate in (
        sts._hom_sts, sts._free_rows, reedy._maps_into, reedy._maps_out_of, reedy._weight, reedy._weight_to_boundary
    ):
        gate.cache_clear()


def test_a_refused_or_failed_cold_build_leaves_no_peak_behind():
    _cold_builds()
    with pytest.raises(BudgetExceeded):
        representable(4)  # its action tables are refused inside the cold build of its hom-sets
    with pytest.raises(ValueError):
        enumerate_homset(-1, 2)
    assert homsets._peaks == []
    assert _smallest_budget(lambda: representable(2), lambda: None) == 44
    assert _smallest_budget(lambda: representable(2), _cold_builds) == 44


_INNER_CACHES = {
    "latching frame of [3]": (lambda: reedy._weight_to_boundary(3), reedy._weight_to_boundary),
    "representable(1, 3)": (lambda: representable(1, 3), sts._hom_sts),
    "free rows of [3]": (lambda: sts._free_rows(3), sts._free_rows),
}


@pytest.mark.parametrize("call, outer", _INNER_CACHES.values(), ids=_INNER_CACHES)
def test_a_cold_build_over_warm_inner_caches_records_the_full_peak(call, outer):
    # the first call of each search builds cold: everything, then the outer build alone
    _cold_builds()
    full = _smallest_budget(call, lambda: None)
    outer.cache_clear()
    assert _smallest_budget(call, lambda: None) == full


#: Every cache of the package, by module and name; each must be bounded.
EXPECTED_CACHES = {
    "cube._covering_pairs",
    "cube._minimal_preimages",
    "cube._preimages_of_one",
    "cube.interned",
    "homsets.coface_part",
    "homsets.count_endomaps",
    "homsets.decompose_coface",
    "homsets.enumerate_cofaces",
    "homsets.enumerate_homset",
    "homsets.factorize",
    "homsets.generating_family",
    "paths._induced_maps",
    "reedy._maps_into",
    "reedy._maps_out_of",
    "reedy._weight",
    "reedy._weight_to_boundary",
    "sts._free_rows",
    "sts._hom_sts",
}


def test_every_cache_is_bounded():
    found = {}
    for info in pkgutil.iter_modules(transcube.__path__):
        module = importlib.import_module(f"transcube.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and getattr(obj, "__module__", None) == module.__name__:
                found[f"{info.name}.{name}"] = obj.cache_info()
    assert set(found) == EXPECTED_CACHES
    for name, info in found.items():
        assert info.maxsize is not None and 0 < info.maxsize < 1 << 20, name
        assert info.currsize <= info.maxsize, name
