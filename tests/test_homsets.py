from __future__ import annotations

from itertools import product
from math import comb

import numpy as np
import pytest

from transcube.cube import (
    CubeMap,
    coface,
    coface_table,
    compose,
    extract_bits,
    identity,
    max_min_collapse,
    min_max_collapse,
    split_coordinates,
    validate_cotransverse,
)
from transcube.homsets import (
    BudgetExceeded,
    check_factorization_final,
    composable_pairs,
    count_endomaps,
    count_homset,
    decompose_coface,
    enumerate_cofaces,
    enumerate_homset,
    factorize,
    is_coface,
    set_cell_budget,
)


def oracle_homset(m: int, n: int) -> list[tuple[int, ...]]:
    """Brute force over all set maps, filtered by the quadratic validator."""
    tables = []
    for table in product(range(1 << n), repeat=1 << m):
        if validate_cotransverse(table, m, n, pairwise=True) is None:
            tables.append(table)
    return sorted(tables)


@pytest.mark.parametrize(
    "m,n",
    [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3)],
)
def test_enumeration_matches_brute_force(m, n):
    assert [f.table for f in enumerate_homset(m, n)] == oracle_homset(m, n)


def test_enumeration_empty_above_diagonal():
    assert enumerate_homset(2, 1) == ()
    assert count_homset(2, 1) == 0


def test_three_cube_endos_brute_force():
    """All 8^8 set maps of the 3-cube vertices, vectorized, checked against
    the full pairwise axioms.  Freezes the endo count at 66."""
    strict_ok = np.zeros((8, 8), dtype=bool)
    adj_ok = np.zeros((8, 8), dtype=bool)
    for a in range(8):
        for b in range(8):
            below = (a & ~b) == 0
            strict_ok[a, b] = below and a != b
            adj_ok[a, b] = below and (bin(b).count("1") - bin(a).count("1") == 1)
    strict_pairs = [
        (x, y)
        for x in range(8)
        for y in range(8)
        if x != y and (x & ~y) == 0
    ]
    adj_pairs = [(x, y) for (x, y) in strict_pairs if bin(x ^ y).count("1") == 1]

    total = 0
    chunk = 1 << 21
    for start in range(0, 8**8, chunk):
        idx = np.arange(start, min(start + chunk, 8**8), dtype=np.int64)
        ok = np.ones(idx.shape, dtype=bool)
        digits = [(idx >> (3 * v)) & 7 for v in range(8)]
        for x, y in strict_pairs:
            ok &= strict_ok[digits[x], digits[y]]
        for x, y in adj_pairs:
            ok &= adj_ok[digits[x], digits[y]]
        total += int(ok.sum())
    assert total == 66
    assert len(enumerate_homset(3, 3)) == 66


@pytest.mark.parametrize("m,n", [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (2, 3), (3, 3), (0, 4), (1, 4), (2, 4), (3, 4), (4, 4)])
def test_count_formula_matches_enumeration(m, n):
    assert count_homset(m, n) == len(enumerate_homset(m, n))


@pytest.mark.parametrize("m,n", [(m, n) for n in range(5) for m in range(n + 1)])
def test_count_from_a_cold_cache_matches_enumeration(m, n):
    count_endomaps.cache_clear()
    assert count_homset(m, n) == len(enumerate_homset(m, n))


def test_counting_builds_no_map(monkeypatch):
    import transcube.homsets as homsets

    def no_maps(*args):
        raise AssertionError("a map was built")

    count_endomaps.cache_clear()
    monkeypatch.setattr(homsets, "interned", no_maps)
    assert [count_endomaps(m) for m in range(5)] == [1, 1, 4, 66, 7128]
    assert count_homset(3, 5) == 66 * comb(5, 3) * 4


def test_known_counts():
    assert count_homset(1, 2) == 4
    assert count_homset(0, 3) == 8
    assert count_homset(2, 2) == 4
    assert len(enumerate_homset(4, 4)) == 7128


def test_square_endos_are_the_expected_four():
    tables = [f.table for f in enumerate_homset(2, 2)]
    assert tables == [
        (0, 1, 1, 3),  # max/min collapse
        (0, 1, 2, 3),  # identity
        (0, 2, 1, 3),  # coordinate swap
        (0, 2, 2, 3),  # min/max collapse
    ]


def test_enumeration_deterministic_order():
    first = [f.literal() for f in enumerate_homset(2, 3)]
    second = [f.literal() for f in enumerate_homset(2, 3)]
    assert first == second == sorted(first, key=lambda s: CubeMap.from_literal(s).table)


def test_cofaces_enumeration():
    assert len(enumerate_cofaces(1, 3)) == 12
    assert all(is_coface(phi) for phi in enumerate_cofaces(1, 3))
    assert not is_coface(max_min_collapse())


def test_factorize_endo_is_trivial(cube3_collapse):
    fac = factorize(cube3_collapse)
    assert fac.phi.is_identity()
    assert fac.psi.table == cube3_collapse.table


def test_factorize_composite():
    f = compose(coface(1, 0, 3), max_min_collapse())
    fac = factorize(f)
    assert fac.psi.table == max_min_collapse().table
    assert fac.phi.table == coface(1, 0, 3).table
    assert fac.composite.table == f.table


def test_factorize_coface():
    f = coface(2, 1, 2)
    fac = factorize(f)
    assert fac.psi.is_identity()
    assert fac.phi.table == f.table


def test_factorization_unique_exhaustive():
    for m in range(4):
        endos = enumerate_homset(m, m)
        for n in range(m, 4):
            cofaces = enumerate_cofaces(m, n)
            for f in enumerate_homset(m, n):
                fac = factorize(f)
                matches = [
                    (psi, phi)
                    for phi in cofaces
                    for psi in endos
                    if compose(phi, psi).table == f.table
                ]
                assert matches == [(fac.psi, fac.phi)]


def test_factorization_functorial():
    # the normal form of a composite is reconstructible from the parts
    for m in range(3):
        for n in range(m, 3):
            for p in range(n, 4):
                for g in enumerate_homset(m, n):
                    fg = factorize(g)
                    for f in enumerate_homset(n, p):
                        ff = factorize(f)
                        middle = factorize(compose(ff.psi, fg.phi))
                        whole = factorize(compose(f, g))
                        assert whole.psi.table == compose(middle.psi, fg.psi).table
                        assert whole.phi.table == compose(ff.phi, middle.phi).table


def test_decompose_coface_round_trip():
    for m in range(3):
        for n in range(m, 4):
            for phi in enumerate_cofaces(m, n):
                rebuilt = identity(m)
                for dim, i, alpha in decompose_coface(phi):
                    rebuilt = compose(coface(i, alpha, dim), rebuilt)
                assert rebuilt.table == phi.table


def test_finality_of_canonical_factorization(cube3_collapse):
    gamma = max_min_collapse()
    report = check_factorization_final(gamma)
    assert report.ok and report.factorizations == 6
    assert check_factorization_final(coface(2, 1, 2)).ok
    assert check_factorization_final(cube3_collapse).ok
    assert check_factorization_final(compose(coface(1, 0, 3), min_max_collapse())).ok


def test_finality_every_map_dims_le_2():
    for m in range(3):
        for n in range(m, 3):
            for f in enumerate_homset(m, n):
                assert check_factorization_final(f).ok


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("TRANSCUBE_BUDGET", "1000")
    with pytest.raises(BudgetExceeded):
        enumerate_homset(4, 5)


@pytest.fixture
def budget():
    """Sets the process-wide cell budget and restores the default afterwards."""
    yield set_cell_budget
    set_cell_budget(None)


@pytest.mark.parametrize(
    "enumerate_maps, m, n", [(enumerate_homset, 4, 4), (enumerate_homset, 0, 10), (enumerate_cofaces, 0, 10)]
)
def test_warm_call_honours_a_smaller_budget(budget, enumerate_maps, m, n):
    maps = enumerate_maps(m, n)  # cached under the default budget
    budget((len(maps) << m) - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_maps(m, n)
    budget(len(maps) << m)
    assert enumerate_maps(m, n) is maps
    budget(100)
    with pytest.raises(BudgetExceeded):
        enumerate_maps(m, n)


@pytest.mark.parametrize("top, expected", [(0, 1), (1, 6), (2, 70), (3, 7662)])
def test_composable_pairs_count(top, expected):
    # closed form: a pair is a map [m] -> [n] and a map [n] -> [p]
    closed = sum(
        count_homset(m, n) * count_homset(n, p)
        for m in range(top + 1)
        for n in range(m, top + 1)
        for p in range(n, top + 1)
    )
    pairs = composable_pairs(top)
    assert len(pairs) == closed == expected
    assert all(f.cod_dim == g.dom_dim and g.cod_dim <= top for f, g in pairs)



@pytest.mark.parametrize("top, least", [(2, 70), (3, 7662)])
def test_composable_pairs_charges_one_cell_per_pair(budget, top, least):
    budget(least - 1)
    with pytest.raises(BudgetExceeded):
        composable_pairs(top)
    budget(least)
    assert len(composable_pairs(top)) == least


def test_composable_pairs_are_refused_before_a_hom_set_is_listed():
    enumerate_homset.cache_clear()
    for top in (4, 10**11):  # 55,665,406 pairs up to [4]
        with pytest.raises(BudgetExceeded):
            composable_pairs(top)
    assert enumerate_homset.cache_info().currsize == 0


def test_coface_insertion_round_trip():
    for n in range(5):
        for m in range(n + 1):
            cofaces = enumerate_cofaces(m, n)
            assert len(cofaces) == comb(n, m) << (n - m)
            for phi in cofaces:
                base = phi.table[0]
                free, consts = split_coordinates(base, phi.table[-1], n)
                assert len(free) == m
                assert sorted(free + tuple(pos for pos, _ in consts)) == list(range(n))
                assert coface_table(base, free) == phi.table
                for x, w in enumerate(phi.table):
                    # bitwise oracle: source bit k sits at free[k], the rest
                    # are the constants
                    assert all((w >> pos) & 1 == (x >> k) & 1 for k, pos in enumerate(free))
                    assert all((w >> pos) & 1 == alpha for pos, alpha in consts)
                    assert extract_bits(w, free) == x


def test_factorization_fields_follow_the_cube_rules():
    # free and steps of every map up to [4], against composed elementary
    # cofaces and the cube-level insertion and extraction rules
    for n in range(5):
        for m in range(n + 1):
            for f in enumerate_homset(m, n):
                fac = factorize(f)
                assert len(fac.free) == m and list(fac.free) == sorted(set(fac.free))
                rebuilt = identity(m)
                for dim, i, alpha in fac.steps:
                    rebuilt = compose(coface(i, alpha, dim), rebuilt)
                assert rebuilt == fac.phi
                assert coface_table(f.table[0], fac.free) == fac.phi.table
                assert all(extract_bits(f.table[x], fac.free) == fac.psi.table[x] for x in range(1 << m))
