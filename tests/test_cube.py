from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from transcube import cube
from transcube.cube import (
    INF,
    CubeMap,
    Vertex,
    Violation,
    bit_height,
    bits_leq,
    coface,
    compose,
    d1_vertex,
    height,
    identity,
    max_min_collapse,
    min_max_collapse,
    symmetry,
    validate_cotransverse,
    vertices,
)
from transcube.homsets import composable_pairs, enumerate_homset, factorize
from transcube.paths import induced_path_map


def test_height_examples():
    assert height(Vertex(3, 0b000)) == 0
    assert height(Vertex(3, 0b111)) == 3
    assert height(Vertex(3, 0b101)) == 2


def test_d1_vertex_examples():
    assert d1_vertex(Vertex(2, 0b00), Vertex(2, 0b11)) == 2
    # (0,1) and (1,0) are incomparable: the directed distance is infinite.
    assert d1_vertex(Vertex.from_coords((0, 1)), Vertex.from_coords((1, 0))) is INF
    assert d1_vertex(Vertex.from_coords((1, 0, 0)), Vertex.from_coords((1, 1, 0))) == 1


def test_d1_vertex_dimension_mismatch():
    with pytest.raises(ValueError):
        d1_vertex(Vertex(1, 0), Vertex(2, 0))


def test_validate_max_min_table():
    # (0,0)->(0,0), (1,0)->(1,0), (0,1)->(1,0), (1,1)->(1,1)
    assert validate_cotransverse((0, 1, 1, 3), 2, 2) is None


def test_validate_constant_map_rejected():
    bad = validate_cotransverse((0, 0, 0, 0), 2, 2)
    assert bad is not None and bad.axiom == "strictly-increasing"


def test_validate_collapse3(cube3_collapse):
    assert validate_cotransverse(cube3_collapse.table, 3, 3) is None


def test_validate_adjacency_violation():
    # monotone but jumps two levels along a covering pair
    bad = validate_cotransverse((0, 3), 1, 2)
    assert bad is not None and bad.axiom == "adjacency"


def test_validate_shape_errors():
    assert validate_cotransverse((0,), 1, 0).axiom == "shape"
    assert validate_cotransverse((0, 1, 2), 2, 2).axiom == "shape"
    assert validate_cotransverse((0, 1, 4, 5), 2, 2).axiom == "shape"


def test_invalid_cubemap_cannot_exist():
    with pytest.raises(ValueError):
        CubeMap(2, 2, (0, 0, 0, 0))


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
def test_validator_agrees_with_pairwise_oracle(m, n):
    for f in enumerate_homset(m, n):
        assert validate_cotransverse(f.table, m, n, pairwise=True) is None
    # corrupt single entries of valid tables and compare both modes
    for f in enumerate_homset(m, n)[:8]:
        for k in range(len(f.table)):
            for new in range(1 << n):
                table = f.table[:k] + (new,) + f.table[k + 1 :]
                fast = validate_cotransverse(table, m, n)
                slow = validate_cotransverse(table, m, n, pairwise=True)
                assert (fast is None) == (slow is None)


def test_compose_identity_and_involution(cube3_collapse):
    assert compose(identity(3), cube3_collapse).table == cube3_collapse.table
    assert compose(cube3_collapse, identity(3)).table == cube3_collapse.table
    s = symmetry(1, 2)
    assert compose(s, s).table == identity(2).table


def test_compose_gamma_sigma():
    # four table lookups: swapping the square first changes nothing
    gamma = max_min_collapse()
    assert compose(gamma, symmetry(1, 2)).table == gamma.table


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(symmetry(1, 2), coface(1, 0, 3))


def test_coface_examples():
    assert coface(1, 0, 1).table == (0b0,)  # point into the 0 end of the edge
    assert coface(2, 1, 2).table == (0b10, 0b11)  # (e) -> (e, 1)
    assert symmetry(1, 2).apply(Vertex.from_coords((0, 1))).coords() == (1, 0)


def test_generator_index_errors():
    with pytest.raises(ValueError):
        coface(3, 0, 2)
    with pytest.raises(ValueError):
        symmetry(2, 2)


def test_collapse_tables():
    gamma = max_min_collapse()
    for a in (0, 1):
        for b in (0, 1):
            v = Vertex.from_coords((a, b))
            assert gamma.apply(v).coords() == (max(a, b), min(a, b))
    mirror = min_max_collapse()
    assert mirror.apply(Vertex.from_coords((1, 0))).coords() == (0, 1)


def test_literal_round_trip(cube3_collapse):
    for f in [cube3_collapse, max_min_collapse(), coface(2, 1, 3), identity(0)]:
        assert CubeMap.from_literal(f.literal()).table == f.table
    with pytest.raises(ValueError):
        CubeMap.from_literal("not a literal")


@pytest.mark.parametrize("n", range(5))
def test_lawvere_axioms_exhaustive(n):
    vs = list(vertices(n))
    for x in vs:
        assert d1_vertex(x, x) == 0
    for x in vs:
        for y in vs:
            dxy = d1_vertex(x, y)
            for z in vs:
                assert dxy <= d1_vertex(x, z) + d1_vertex(z, y)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_endos_preserve_height_and_endpoints(n):
    for f in enumerate_homset(n, n):
        assert f.table[0] == 0
        assert f.table[-1] == (1 << n) - 1
        for v in vertices(n):
            assert height(f.apply(v)) == height(v)


def test_vertex_quasi_isometry_all_maps():
    for m in range(4):
        for n in range(m, 4):
            for f in enumerate_homset(m, n):
                for x in vertices(m):
                    for y in vertices(m):
                        d = d1_vertex(x, y)
                        if d is not INF:
                            assert d1_vertex(f.apply(x), f.apply(y)) == d


def test_compose_associative_exhaustive_dims_le_3():
    homs = {(m, n): enumerate_homset(m, n) for m in range(4) for n in range(m, 4)}
    for m in range(4):
        for n in range(m, 4):
            for p in range(n, 4):
                gf_cache = {
                    (g, f): compose(g, f) for g in homs[(n, p)] for f in homs[(m, n)]
                }
                for q in range(p, 4):
                    hg_cache = {
                        (h, g): compose(h, g) for h in homs[(p, q)] for g in homs[(n, p)]
                    }
                    for f in homs[(m, n)]:
                        for g in homs[(n, p)]:
                            gf = gf_cache[(g, f)]
                            for h in homs[(p, q)]:
                                assert compose(h, gf).table == compose(hg_cache[(h, g)], f).table


def test_compose_unital_all_maps():
    for m in range(4):
        for n in range(m, 4):
            for f in enumerate_homset(m, n):
                assert compose(f, identity(m)).table == f.table
                assert compose(identity(n), f).table == f.table


@given(st.integers(0, 3), st.data())
def test_random_tables_validator_oracle(n, data):
    m = data.draw(st.integers(0, n))
    table = tuple(
        data.draw(st.integers(0, (1 << n) - 1)) for _ in range(1 << m)
    )
    fast = validate_cotransverse(table, m, n)
    slow = validate_cotransverse(table, m, n, pairwise=True)
    assert (fast is None) == (slow is None)


def helper_covering_walk(table: tuple[int, ...], m: int) -> Violation | None:
    """The covering-pair walk written with the vertex helpers: the reference
    for the bitwise walk of :func:`validate_cotransverse` on shape-valid tables."""
    for x in range(1 << m):
        fx = table[x]
        for i in range(m):
            if (x >> i) & 1:
                continue
            y = x | (1 << i)
            fy = table[y]
            pair = (Vertex(m, x), Vertex(m, y))
            if not (bits_leq(fx, fy) and fx != fy):
                return Violation("strictly-increasing", pair, "x < y but not f(x) < f(y)")
            if bit_height(fy) - bit_height(fx) != 1:
                return Violation("adjacency", pair, "adjacent pair not sent to adjacent pair")
    return None


def test_bitwise_walk_reports_the_helper_walks_first_violation():
    seen = set()
    for n in range(4):
        for m in range(n + 1):
            for f in enumerate_homset(m, n):
                for k in range(len(f.table)):
                    for new in range(1 << n):
                        table = f.table[:k] + (new,) + f.table[k + 1 :]
                        fast = validate_cotransverse(table, m, n)
                        assert fast == helper_covering_walk(table, m)
                        slow = validate_cotransverse(table, m, n, pairwise=True)
                        assert (fast is None) == (slow is None)
                        seen.add(None if fast is None else fast.axiom)
    assert seen == {None, "strictly-increasing", "adjacency"}


def test_cubemap_hash_and_equality():
    for n in range(4):
        for m in range(n + 1):
            for f in enumerate_homset(m, n):
                g = CubeMap(m, n, tuple(list(f.table)))
                assert g is not f and g == f and not (g != f)
                assert hash(f) == hash(g) == hash((m, n, f.table))
                keys = {f: "f"}
                keys[g] = "g"
                assert len(keys) == 1 and keys[f] == "g" and len({f, g}) == 1
    assert CubeMap(0, 1, (0,)) != CubeMap(0, 2, (0,))
    assert CubeMap(1, 1, (0, 1)) != CubeMap(1, 2, (0, 1))
    f = identity(2)
    assert f != "x" and not (f == "x") and f == f


@pytest.fixture
def validations(monkeypatch):
    """An empty intern, and the ``(m, n, table)`` of every validation from here on."""
    monkeypatch.setattr(cube, "_interned", {})
    calls = []
    real = cube.validate_cotransverse

    def counting(table, m, n, pairwise=False):
        calls.append((m, n, table))
        return real(table, m, n, pairwise)

    monkeypatch.setattr(cube, "validate_cotransverse", counting)
    return calls


def test_every_map_is_validated_once_at_construction(monkeypatch, validations):
    built = []
    post_init = CubeMap.__post_init__

    def recording(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(CubeMap, "__post_init__", recording)
    for _ in range(2):
        for f, g in composable_pairs(2):
            gf = compose(g, f)
            factorize(gf).composite
            for a, b in product(range(1 << gf.dom_dim), repeat=2):
                if a != b and bits_leq(a, b):
                    induced_path_map(gf, Vertex(gf.dom_dim, a), Vertex(gf.dom_dim, b))
        identity(2)
        coface(1, 0, 2)
    assert built
    assert validations == [(f.dom_dim, f.cod_dim, f.table) for f in built]
    assert len(set(validations)) == len(built)
    assert all(cube._interned[f.dom_dim, f.cod_dim, f.table] is f for f in built)


def test_repeated_compose_returns_the_object_validated_once(validations):
    f, g = max_min_collapse(), symmetry(1, 2)
    del validations[:]
    gf = compose(f, g)
    assert validations == [(2, 2, gf.table)]
    assert compose(f, g) is gf and compose(f, g) is gf
    assert len(validations) == 1


def test_compose_returns_the_homset_object_exhaustive_dims_le_3():
    homs: dict[tuple[int, int], dict[tuple[int, ...], CubeMap]] = {}
    pairs = composable_pairs(3)
    assert len(pairs) == 7662
    for f, g in pairs:
        m, p = f.dom_dim, g.cod_dim
        if (m, p) not in homs:
            homs[m, p] = {h.table: h for h in enumerate_homset(m, p)}
        table = tuple(g.table[x] for x in f.table)
        assert validate_cotransverse(table, m, p, pairwise=True) is None
        gf = compose(g, f)
        assert gf is homs[m, p][table]
        assert gf == CubeMap(m, p, table)


def test_intern_is_bounded(monkeypatch, validations):
    monkeypatch.setattr(cube, "INTERN_MAXSIZE", 4)
    for f, g in composable_pairs(2):
        key = (f.dom_dim, g.cod_dim, tuple(g.table[x] for x in f.table))
        kept = cube._interned.get(key)
        before = len(validations)
        gf = compose(g, f)
        assert len(cube._interned) <= 4
        if kept is None:
            assert validations[before:] == [key]
            assert gf in enumerate_homset(f.dom_dim, g.cod_dim)
        else:
            assert gf is kept and len(validations) == before
    assert cube.interned.cache_info() == (4, 4)
    del validations[:]
    literals = [CubeMap.from_literal("2>2:0,1,1,3") for _ in range(3)]
    assert len(validations) == 3 and literals[0] is not literals[1]
    with pytest.raises(ValueError):
        CubeMap.from_literal("2>2:0,1,1,2")
    assert len(validations) == 4


def test_preimage_cache_is_bounded(cube3_collapse):
    info = cube._preimages_of_one.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    pre = cube3_collapse.preimages_of_one()
    assert pre == ((0b101, 0b111), (0b011, 0b110, 0b111), tuple(range(1, 8)))
    assert CubeMap.from_literal("3>3:0,4,4,6,4,5,6,7").preimages_of_one() is pre
