from __future__ import annotations

import itertools
import pickle
import random

import pytest

from transcube import cube, homsets, reedy
from transcube import sts as sts_module
from transcube.cube import coface, compose, identity, max_min_collapse, min_max_collapse
from transcube.cube import InputError
from transcube.homsets import BudgetExceeded, enumerate_cofaces, enumerate_homset, set_cell_budget
from transcube.sts import (
    FreeCell,
    Precubical,
    Sts,
    StsMap,
    boundary,
    boundary_precubical,
    certify_cellular,
    check_functoriality,
    cube_precubical,
    empty_sts,
    endo_fixed_cubes,
    find_iso,
    free_sts,
    graded_counts_equal,
    inclusion_map,
    pushout,
    representable,
    terminal_sts,
    yoneda_map,
)


def truncate(s: Sts, n: int) -> Sts:
    """The reference truncation: kill every cube of dimension above ``n``,
    and restrict the action, read through :meth:`Sts.act`."""
    graded = [s.cubes[m] if m <= n else () for m in range(s.max_dim + 1)]
    tables = sts_module.action_tables(graded, s.act, contravariant=True)
    labels = {c: s.labels.get(c) for row in graded for c in row}
    return Sts(s.max_dim, dict(enumerate(graded)), tables, labels)


def test_representable_counts():
    assert representable(2).counts() == {0: 4, 1: 4, 2: 4}
    assert representable(3).counts() == {0: 8, 1: 12, 2: 24, 3: 66}


def test_boundary_counts():
    assert boundary(2).counts() == {0: 4, 1: 4, 2: 0}
    assert boundary(0).counts() == {0: 0}


def test_truncate_at_max_dim_is_identity():
    r2 = representable(2)
    t = truncate(r2, 2)
    assert t.counts() == r2.counts()
    assert t.tables == r2.tables


@pytest.mark.parametrize("n", [0, 1, 2])
def test_representable_functorial(n):
    check_functoriality(representable(n), 3)


def test_action_by_precomposition():
    r2 = representable(2)
    gamma = max_min_collapse()
    cube_ids = {r2.labels[c].table: c for c in r2.cubes[2]}
    # pulling the identity square back along the collapse gives the collapse
    assert r2.act(gamma, cube_ids[identity(2).table]) == cube_ids[gamma.table]
    # vertices of the identity square are the four vertices
    top = cube_ids[identity(2).table]
    for bits in range(4):
        v = r2.vertex_of(top, bits)
        assert r2.labels[v].table == (bits,)


def test_act_dimension_guard():
    r2 = representable(2)
    with pytest.raises(ValueError):
        r2.act(coface(1, 0, 3), r2.cubes[2][0])


def test_free_counts_formula():
    k = path_graph()
    f = free_sts(k)
    endo_sizes = {m: len(enumerate_homset(m, m)) for m in range(2)}
    for m, ids in k.cubes.items():
        assert len(f.cubes[m]) == endo_sizes[m] * len(ids)
    check_functoriality(f, 1)


def path_graph() -> Precubical:
    return Precubical(
        1,
        {0: (0, 1, 2), 1: (3, 4)},
        {(3, 1, 0): 0, (3, 1, 1): 1, (4, 1, 0): 1, (4, 1, 1): 2},
    )


def test_precubical_validates_coface_relations():
    with pytest.raises(ValueError):
        # a square whose mixed double faces disagree
        Precubical(
            2,
            {0: (0, 1), 1: (2, 3, 4, 5), 2: (6,)},
            {
                (6, 1, 0): 2,
                (6, 1, 1): 3,
                (6, 2, 0): 4,
                (6, 2, 1): 5,
                (2, 1, 0): 0,
                (2, 1, 1): 0,
                (3, 1, 0): 0,
                (3, 1, 1): 1,
                (4, 1, 0): 0,
                (4, 1, 1): 1,
                (5, 1, 0): 1,
                (5, 1, 1): 0,
            },
        )


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_free_cube_is_representable(n):
    free = free_sts(cube_precubical(n))
    rep = representable(n)
    assert graded_counts_equal(free, rep)
    # explicit comparison map: compose the coface label of the base with the
    # endomap of the normal form
    cofaces_by_id = {}
    k = cube_precubical(n)
    for m in range(n + 1):
        for phi, cid in zip(enumerate_cofaces(m, n), k.cubes[m]):
            cofaces_by_id[cid] = phi
    index = {(g.dom_dim, g.table): c for c, g in rep.labels.items()}
    mapping = {}
    for c in free.all_cubes():
        cell = free.labels[c]
        mapping[c] = index[(cell.psi.dom_dim, compose(cofaces_by_id[cell.base], cell.psi).table)]
    iso = StsMap(free, rep, mapping)  # raises if not equivariant
    assert len(set(iso.mapping.values())) == len(iso.mapping)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_free_boundary_is_boundary(n):
    free = free_sts(boundary_precubical(n))
    assert graded_counts_equal(free, boundary(n))
    if n <= 2:
        assert find_iso(free, boundary(n)) is not None


def test_free_single_vertex():
    k = Precubical(0, {0: (7,)}, {})
    f = free_sts(k)
    assert f.counts() == {0: 1}


def test_pushout_along_identities_is_identity():
    r2 = representable(2)
    res = pushout(inclusion_map(r2, r2), inclusion_map(r2, r2))
    assert graded_counts_equal(res.sts, r2)
    assert find_iso(res.sts, r2) is not None


def collapse_pushout(cube3_collapse):
    r3 = representable(3)
    b3 = boundary(3)
    incl = inclusion_map(b3, r3)
    bf = yoneda_map(cube3_collapse, b3, b3)
    return r3, b3, incl, bf, pushout(incl, bf)


def test_pushout_of_boundary_collapse(cube3_collapse):
    r3, b3, incl, bf, res = collapse_pushout(cube3_collapse)
    x = res.sts
    assert x.counts() == {0: 8, 1: 12, 2: 24, 3: 66}
    check_functoriality(x, 2)

    # the bottom face (*,*,0) of the glued 3-cube is a transverse degeneracy
    # of the square (0,*,*): the square collapses onto two concatenated edges
    top = next(res.from_left(c) for c in r3.cubes[3] if r3.labels[c].is_identity())
    bottom_face = x.act(coface(3, 0, 3), top)
    side_square = next(
        res.from_right(c) for c in b3.cubes[2] if b3.labels[c].table == coface(1, 0, 3).table
    )
    assert bottom_face == x.act(min_max_collapse(), side_square)
    edges = [
        x.act(coface(1, 0, 2), bottom_face),
        x.act(coface(1, 1, 2), bottom_face),
        x.act(coface(2, 0, 2), bottom_face),
        x.act(coface(2, 1, 2), bottom_face),
    ]
    assert edges[0] == edges[2] and edges[1] == edges[3] and edges[0] != edges[1]


def test_equivariance_is_enforced():
    r1 = representable(1)
    v0, v1 = r1.cubes[0]
    (e,) = r1.cubes[1]
    with pytest.raises(ValueError):
        StsMap(r1, r1, {v0: v1, v1: v0, e: e})
    with pytest.raises(ValueError):
        StsMap(r1, r1, {v0: v0, v1: v1})  # misses the edge


def test_certify_point():
    sts, cert, _ = certify_cellular([{"dim": 0, "attach": {}}], max_dim=0)
    assert sts.counts() == {0: 1}
    assert cert.cell_counts == {0: 1}


def test_certify_interval():
    script = [
        {"dim": 0, "attach": {}},
        {"dim": 0, "attach": {}},
        {"dim": 1, "attach": {0: 0, 1: 1}},
    ]
    sts, cert, inj = certify_cellular(script, max_dim=1)
    assert sts.counts() == {0: 2, 1: 1}
    assert cert.cell_counts == {0: 2, 1: 1}
    assert inj is not None


def cellular_script_for_cube(n: int):
    """Build the attachment script reproducing the representable of [n],
    one cell per coface composite, mirroring the assembly step for step."""
    current = empty_sts(n)
    script = []
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    for m in range(n + 1):
        for phi in enumerate_cofaces(m, n):
            bnd = boundary(m, n)
            cell = representable(m, n)
            attach = {}
            for b in bnd.all_cubes():
                u = bnd.labels[b]
                attach[b] = index[(u.dom_dim, compose(phi, u).table)]
            script.append({"dim": m, "attach": dict(attach)})
            res = pushout(StsMap(bnd, current, attach), inclusion_map(bnd, cell))
            current = res.sts
            index = {
                key: res.from_left(v) for key, v in index.items()
            }
            for c in cell.all_cubes():
                u = cell.labels[c]
                index[(u.dom_dim, compose(phi, u).table)] = res.from_right(c)
    return script, current


@pytest.mark.parametrize("n", [0, 1, 2])
def test_certify_reproduces_representable(n):
    script, manual = cellular_script_for_cube(n)
    sts, cert, _ = certify_cellular(script, max_dim=n)
    assert sts.counts() == representable(n).counts() == manual.counts()
    assert cert.cell_counts == {
        m: len(enumerate_cofaces(m, n)) for m in range(n + 1)
    }
    assert find_iso(sts, representable(n)) is not None


def test_cellular_counts_are_forced():
    # every assembled set has its graded counts pinned by the cell counts
    script = [
        {"dim": 0, "attach": {}},
        {"dim": 0, "attach": {}},
        {"dim": 1, "attach": {0: 0, 1: 1}},
    ]
    sts, cert, _ = certify_cellular(script, max_dim=1)
    for m, cell_count in cert.cell_counts.items():
        assert len(sts.cubes[m]) == len(enumerate_homset(m, m)) * cell_count


def test_terminal_is_not_cellular():
    t = terminal_sts(2)
    check_functoriality(t, 2)
    assert t.counts() == {0: 1, 1: 1, 2: 1}
    # counting obstruction: a cellular set has |squares| = 4 * (2-cells),
    # never 1
    endo_count = len(enumerate_homset(2, 2))
    assert all(endo_count * k != 1 for k in range(0, 5))
    # fixed-point obstruction: the terminal square is fixed by every endomap
    fixed = endo_fixed_cubes(t, 2)
    assert max_min_collapse() in fixed and fixed[max_min_collapse()] == (t.cubes[2][0],)
    # ... but a fresh free generator never is
    free = free_sts(cube_precubical(2))
    top_base = cube_precubical(2).cubes[2][0]
    generator = next(
        c
        for c in free.cubes[2]
        if free.labels[c] == FreeCell(identity(2), top_base)
    )
    for e, cubes in endo_fixed_cubes(free, 2).items():
        assert generator not in cubes


def test_free_preserves_gluing():
    # glue two intervals end to start, freely generate, and compare with the
    # free set of the glued precubical path
    p1 = Precubical(1, {0: (0, 1), 1: (2,)}, {(2, 1, 0): 0, (2, 1, 1): 1})
    p2 = Precubical(1, {0: (10, 11), 1: (12,)}, {(12, 1, 0): 10, (12, 1, 1): 11})
    point = Precubical(0, {0: (5,)}, {})
    f1, f2, fp = free_sts(p1), free_sts(p2), free_sts(point)

    def vertex_cube(sts: Sts, base: int) -> int:
        return next(c for c in sts.cubes[0] if sts.labels[c].base == base)

    j = StsMap(fp, f1, {vertex_cube(fp, 5): vertex_cube(f1, 1)})
    l = StsMap(fp, f2, {vertex_cube(fp, 5): vertex_cube(f2, 10)})
    glued = pushout(j, l).sts
    expected = free_sts(path_graph())
    assert graded_counts_equal(glued, expected)
    assert find_iso(glued, expected) is not None


def test_build_budget_guard(monkeypatch):
    from transcube.homsets import BudgetExceeded

    monkeypatch.setenv("TRANSCUBE_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        representable(3)


def test_pushout_charges_its_table_entries(monkeypatch):
    r2, b2 = representable(2), boundary(2)
    legs = inclusion_map(b2, r2), inclusion_map(b2, r2)
    glued = pushout(*legs).sts  # the square doubled along its boundary
    needed = sum(len(t) for t in glued.tables.values())
    monkeypatch.setenv("TRANSCUBE_BUDGET", str(needed))
    assert pushout(*legs).sts.counts() == glued.counts()
    monkeypatch.setenv("TRANSCUBE_BUDGET", str(needed - 1))
    with pytest.raises(BudgetExceeded):
        pushout(*legs)


def test_pickled_sets_act_as_before():
    # a repr shows no table, so compare the action on every (map, cube) pair up to [2]
    r2, b2 = representable(2), boundary(2)
    glued = pushout(inclusion_map(b2, r2), inclusion_map(b2, r2))
    free = free_sts(cube_precubical(2))
    back, back_free = pickle.loads(pickle.dumps((glued, free)))
    assert back.from_left.dst is back.sts is back.from_right.dst
    assert back.from_left.mapping == glued.from_left.mapping and back.from_right.mapping == glued.from_right.mapping
    for before, after in ((glued.sts, back.sts), (free, back_free)):
        assert after.cubes == before.cubes and after.labels == before.labels
        for m, n in itertools.combinations_with_replacement(range(3), 2):
            for f in enumerate_homset(m, n):
                assert [after.act(f, c) for c in after.cubes[n]] == [before.act(f, c) for c in before.cubes[n]]


def test_warm_vertex_of_validates_no_map(monkeypatch):
    r3 = representable(3)
    top = r3.cubes[3][-1]
    expected = [r3.vertex_of(top, bits) for bits in range(8)]
    calls = []
    real = cube.validate_cotransverse

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cube, "validate_cotransverse", counting)
    assert [r3.vertex_of(top, bits) for bits in range(8)] == expected
    assert calls == []
    for bits in (-1, 8):
        with pytest.raises(ValueError):
            r3.vertex_of(top, bits)


def test_truncation_commutes_with_pushout(cube3_collapse):
    r3, b3, incl, bf, res = collapse_pushout(cube3_collapse)
    truncated_after = truncate(res.sts, 2)

    r3t, b3t = truncate(r3, 2), truncate(b3, 2)
    incl_t = StsMap(b3t, r3t, {c: c for c in b3t.all_cubes()})
    bf_t = StsMap(b3t, b3t, {c: bf.mapping[c] for c in b3t.all_cubes()})
    truncated_before = pushout(incl_t, bf_t).sts

    assert graded_counts_equal(truncated_after, truncated_before)
    # both pushouts glue the same tags in dimensions <= 2, so matching the
    # class labels gives the canonical comparison map
    by_label = {frozenset(lbl): c for c, lbl in truncated_before.labels.items() if lbl}
    mapping = {
        c: by_label[frozenset(truncated_after.labels[c])]
        for c in truncated_after.all_cubes()
    }
    iso = StsMap(truncated_after, truncated_before, mapping)
    assert len(set(iso.mapping.values())) == len(iso.mapping)


def _free_graph(edges: tuple[int, ...], arcs: dict[int, tuple[int, int]]) -> Sts:
    """The free set on a directed graph: vertices 0, 1, 2, edges in ``edges`` order."""
    faces = {(e, 1, alpha): arcs[e][alpha] for e in edges for alpha in (0, 1)}
    return free_sts(Precubical(1, {0: (0, 1, 2), 1: edges}, faces))


def test_find_iso_backtracks_and_reports_no_iso():
    path = {3: (0, 1), 4: (1, 2)}
    forward, backward = _free_graph((3, 4), path), _free_graph((4, 3), path)
    # the first guess sends edge 0->1 onto edge 1->2, its faces then clash
    # with the second edge, and the search must undo and try again
    iso = find_iso(forward, backward)
    assert iso is not None and iso.mapping == {3: 4, 4: 3, 0: 0, 1: 1, 2: 2}
    # equal graded counts, no isomorphism: a face is already pinned to
    # another image (the fork) or lands on a vertex already taken (the join)
    fork = _free_graph((3, 4), {3: (0, 1), 4: (0, 2)})
    join = _free_graph((3, 4), {3: (0, 2), 4: (1, 2)})
    assert graded_counts_equal(forward, fork) and graded_counts_equal(join, forward)
    assert find_iso(forward, fork) is None
    assert find_iso(join, forward) is None
    assert find_iso(forward, _free_graph((3,), path)) is None


def _relabelled(x: Sts, seed: int) -> tuple[Sts, dict[int, int]]:
    """``x`` with its cube ids permuted within each level and every level
    listed in a shuffled order, and the relabelling itself."""
    rnd = random.Random(seed)
    new: dict[int, int] = {}
    for ids in x.cubes.values():
        new.update(zip(ids, rnd.sample(ids, len(ids))))
    cubes = {n: tuple(rnd.sample([new[c] for c in ids], len(ids))) for n, ids in x.cubes.items()}
    tables = {}
    for key, u in homsets.generating_family(x.max_dim):
        image = {new[c]: new[d] for c, d in zip(x.cubes[u.cod_dim], x.tables[key])}
        tables[key] = tuple(image[c] for c in cubes[u.cod_dim])
    return Sts(x.max_dim, cubes, tables), new


_RELABELLED = {
    "representable(2)": lambda: representable(2),
    "boundary(3)": lambda: boundary(3),
    "representable(3)": lambda: representable(3),
    "free boundary of [3]": lambda: free_sts(boundary_precubical(3)),
}


@pytest.mark.parametrize("build", _RELABELLED.values(), ids=_RELABELLED)
def test_find_iso_finds_every_relabelling(build):
    x = build()
    for seed in range(20):
        y, relabelling = _relabelled(x, seed)
        StsMap(x, y, relabelling)  # raises unless equivariant
        assert find_iso(x, y) is not None, seed


def _with_trivial_endo_action(x: Sts, n: int) -> Sts:
    """``x`` with every endomap of ``[n]`` acting as the identity on its ``n``-cubes."""
    trivial = {u: x.cubes[n] for u in enumerate_homset(n, n)}
    return Sts(x.max_dim, x.cubes, {**x.tables, **trivial})


def _graph(edges: dict[int, tuple[int, int]]) -> Sts:
    """The free set on a directed graph with vertices 0-3."""
    faces = {(e, 1, alpha): ends[alpha] for e, ends in edges.items() for alpha in (0, 1)}
    return free_sts(Precubical(1, {0: (0, 1, 2, 3), 1: tuple(edges)}, faces))


_ISO_PAIRS = {
    "boundary(2), relabelled": lambda: (boundary(2), _relabelled(boundary(2), 1)[0]),
    "boundary(2), free square": lambda: (boundary(2), free_sts(boundary_precubical(2))),
    "boundary(2), path with a shortcut": lambda: (boundary(2), _graph({4: (0, 1), 5: (1, 2), 6: (2, 3), 7: (0, 3)})),
    "boundary(2), out-star": lambda: (boundary(2), _graph({4: (0, 1), 5: (0, 2), 6: (0, 3), 7: (1, 2)})),
    "representable(2), relabelled": lambda: (representable(2), _relabelled(representable(2), 1)[0]),
    "representable(2), free cube": lambda: (representable(2), free_sts(cube_precubical(2))),
    "representable(2), trivial endomaps": lambda: (representable(2), _with_trivial_endo_action(representable(2), 2)),
}


@pytest.mark.parametrize("build", _ISO_PAIRS.values(), ids=_ISO_PAIRS)
def test_find_iso_agrees_with_every_graded_bijection(build):
    x, y = build()
    levels = [n for n in x.cubes if x.cubes[n]]
    accepted = []
    for images in itertools.product(*(itertools.permutations(y.cubes[n]) for n in levels)):
        mapping = {c: d for n, row in zip(levels, images) for c, d in zip(x.cubes[n], row)}
        try:
            accepted.append(StsMap(x, y, mapping).mapping)
        except ValueError:
            pass
    iso = find_iso(x, y)
    assert (iso is not None) == bool(accepted)
    assert iso is None or iso.mapping in accepted


def test_precubical_refuses_cubes_above_max_dim():
    with pytest.raises(ValueError, match="cube 2 is in level 1, but max_dim is 0"):
        Precubical(0, {0: (0, 1), 1: (2,)}, {(2, 1, 0): 0, (2, 1, 1): 1})
    with pytest.raises(ValueError, match="cube 0 is in level 0, but max_dim is -1"):
        Precubical(-1, {0: (0,)}, {})
    # empty levels outside the range are harmless
    assert Precubical(0, {0: (0,), 1: ()}, {}).dim_of == {0: 0}


def pushout_assembly(script: list[dict], max_dim: int) -> tuple[Sts, StsMap | None, list[dict[int, int]]]:
    """The reference for :func:`certify_cellular`: one pushout per entry,
    ``pushout(StsMap(bnd, current, attach), inclusion_map(bnd, cell))``.
    Returns the set, the injection of the last cell and, per entry, the
    final id of each cube of its cell."""
    current, injection, cells = empty_sts(max_dim), None, []
    for entry in script:
        n = entry["dim"]
        bnd, cell = boundary(n, max_dim), representable(n, max_dim)
        res = pushout(StsMap(bnd, current, entry.get("attach", {})), inclusion_map(bnd, cell))
        cells = [{c: res.from_left(d) for c, d in ids.items()} for ids in cells] + [dict(res.from_right.mapping)]
        current, injection = res.sts, res.from_right
    return current, injection, cells


def ids_and_tables(s: Sts) -> tuple:
    """A set without its labels: ids and every table entry, in order."""
    return (
        s.max_dim,
        list(s.cubes.items()),
        [(key, list(table)) for key, table in s.tables.items()],
    )


def twisted_cube_script(n: int) -> list[dict]:
    """:func:`cellular_script_for_cube` plus one ``n``-cell for each of the
    first six endomaps ``psi`` of ``[n]``, attached along ``u -> psi o u``."""
    script, _ = cellular_script_for_cube(n)
    _, _, cells = pushout_assembly(script, n)
    composites = [phi for m in range(n + 1) for phi in enumerate_cofaces(m, n)]  # one per entry
    cell_labels = {m: representable(m, n).labels for m in range(n + 1)}
    index = {
        compose(phi, cell_labels[phi.dom_dim][c]): d for phi, ids in zip(composites, cells) for c, d in ids.items()
    }
    bnd = boundary(n, n)
    for psi in enumerate_homset(n, n)[:6]:
        script.append({"dim": n, "attach": {b: index[compose(psi, u)] for b, u in bnd.labels.items()}})
    return script


def graph_script(vertices: int, edges: int, seed: int) -> list[dict]:
    """A random directed multigraph, loops allowed: vertices, then edges."""
    rnd = random.Random(seed)
    script = [{"dim": 0, "attach": {}} for _ in range(vertices)]
    for _ in range(edges):
        script.append({"dim": 1, "attach": {0: rnd.randrange(vertices), 1: rnd.randrange(vertices)}})
    return script


_SCRIPTS = {
    **{f"cube {n}": (lambda n=n: (cellular_script_for_cube(n)[0], n)) for n in range(4)},
    **{f"twisted cube {n}": (lambda n=n: (twisted_cube_script(n), n)) for n in (2, 3)},
    "loop": lambda: ([{"dim": 0, "attach": {}}, {"dim": 1, "attach": {0: 0, 1: 0}}], 1),
    **{f"graph {v}+{e}": (lambda v=v, e=e: (graph_script(v, e, v + e), 1)) for v, e in [(3, 2), (6, 9), (40, 80)]},
    "point at max_dim 2": lambda: ([{"dim": 0}], 2),
    "empty": lambda: ([], 2),
}


@pytest.mark.parametrize("build", _SCRIPTS.values(), ids=_SCRIPTS)
def test_certify_matches_one_pushout_per_entry(build):
    script, max_dim = build()
    expected, injection, _ = pushout_assembly(script, max_dim)
    got, cert, got_injection = certify_cellular(script, max_dim)
    assert ids_and_tables(got) == ids_and_tables(expected)
    assert (got_injection is None) == (injection is None) == (not script)
    assert got_injection is None or got_injection.mapping == injection.mapping
    assert cert.cell_counts == {n: sum(e["dim"] == n for e in script) for n in range(max_dim + 1)}
    # the j-th endomap on entry e, in entry order, which is also id order
    labels = [FreeCell(psi, e) for e, entry in enumerate(script) for psi in enumerate_homset(entry["dim"], entry["dim"])]
    assert [got.labels[c] for c in got.all_cubes()] == labels


def test_certify_glues_no_pushout(monkeypatch):
    script = twisted_cube_script(2)

    def refuse(*args):
        raise AssertionError("cellular assembly glued a pushout")

    for name in ("pushout", "inclusion_map", "QuotientSet"):
        monkeypatch.setattr(sts_module, name, refuse)
    built = []
    real = sts_module.representable
    monkeypatch.setattr(sts_module, "representable", lambda *args: built.append(args) or real(*args))
    certify_cellular(script, 2)
    assert built == [(2, 2)]  # once, for the injection of the last cell


def test_attaching_to_a_cell_of_the_same_dimension_is_refused():
    # cube 2 is the first edge: a later edge attaches to the skeleton below it
    script = [{"dim": 0}, {"dim": 0}, {"dim": 1, "attach": {0: 0, 1: 1}}, {"dim": 1, "attach": {0: 2, 1: 1}}]
    with pytest.raises(InputError, match="sends cube 0 to 2, which is not a cube of the target"):
        certify_cellular(script, 1)


def _cold_cellular_caches() -> None:
    for gate in (
        homsets.enumerate_homset,
        homsets.count_endomaps,
        homsets.generating_family,
        homsets.enumerate_cofaces,
        sts_module._hom_sts,
        sts_module._free_rows,
    ):
        gate.cache_clear()


#: The least cell budget each script is assembled under, warm or cold.
_CELLULAR_BUDGETS = {
    "cube 1": (lambda: cellular_script_for_cube(1)[0], 1, 3),
    "cube 2": (lambda: cellular_script_for_cube(2)[0], 2, 44),
    "cube 3": (lambda: cellular_script_for_cube(3)[0], 3, 4980),
    "twisted cube 2": (lambda: twisted_cube_script(2), 2, 172),
}


@pytest.mark.parametrize("build, max_dim, least", _CELLULAR_BUDGETS.values(), ids=_CELLULAR_BUDGETS)
def test_cellular_assembly_accepts_its_pinned_budget(build, max_dim, least):
    script = build()
    certify_cellular(script, max_dim)
    for cold in (lambda: None, _cold_cellular_caches):
        for budget in (least, least - 1):
            cold()
            set_cell_budget(budget)
            try:
                if budget == least:
                    certify_cellular(script, max_dim)
                else:
                    with pytest.raises(BudgetExceeded):
                        certify_cellular(script, max_dim)
            finally:
                set_cell_budget(None)


def _doubled_square() -> Sts:
    r2, b2 = representable(2), boundary(2)
    return pushout(inclusion_map(b2, r2), inclusion_map(b2, r2)).sts


#: Every builder of a set or of a covariant object, each storing its action.
_LAYOUTS = {
    "representable(2)": lambda: representable(2),
    "representable(1, 3)": lambda: representable(1, 3),
    "boundary(3)": lambda: boundary(3),
    "terminal_sts(2)": lambda: terminal_sts(2),
    "empty_sts(2)": lambda: empty_sts(2),
    "free_sts": lambda: free_sts(boundary_precubical(3)),
    "certify_cellular": lambda: certify_cellular(twisted_cube_script(2), 2)[0],
    "pushout": _doubled_square,
    "boundary_weight(3)": lambda: reedy.boundary_weight(3),
    "_maps_into(2, 1)": lambda: reedy._maps_into(2, 1),
    "hom_obj(1, 3)": lambda: reedy.hom_obj(1, 3),
    "constant_obj": lambda: reedy.constant_obj(("a", "b"), 2),
    "free_obj": lambda: reedy.free_obj(1, ("a", "b"), 2),
}


@pytest.mark.parametrize("build", _LAYOUTS.values(), ids=_LAYOUTS)
def test_every_builder_stores_one_table_per_generator(build):
    # keyed like Factorization.steps and psi, in family order, each a tuple
    # with one entry per element of the level it acts on
    x = build()
    family = homsets.generating_family(x.max_dim)
    assert list(x.tables) == [key for key, _ in family]
    for key, u in family:
        if isinstance(x, Sts):
            level, image = x.cubes[u.cod_dim], x.cubes[u.dom_dim]
        else:
            level, image = x.values[u.dom_dim], x.values[u.cod_dim]
        assert type(x.tables[key]) is tuple and len(x.tables[key]) == len(level), key
        assert set(x.tables[key]) <= set(image), key
