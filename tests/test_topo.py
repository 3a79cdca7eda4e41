from __future__ import annotations

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transcube import batch
from transcube.cube import INF, InputError, coface, compose, max_min_collapse, symmetry
from transcube.homsets import enumerate_homset
from transcube.topo import (
    common_numerators,
    d1_point,
    d1_sym,
    d1_sym_witness,
    format_point,
    parse_point,
    point_height,
    t_eval,
    t_eval_maxmin,
    t_eval_permutation,
)

rationals = st.fractions(min_value=0, max_value=1, max_denominator=60)


def vertex_coords(bits: int, n: int) -> tuple[int, ...]:
    return tuple((bits >> i) & 1 for i in range(n))


def eval_at_vertex(f, bits: int) -> tuple[int, ...]:
    """The reference evaluation at a vertex: the coordinates of its table entry."""
    return vertex_coords(f.table[bits], f.cod_dim)


def test_collapse3_components_match_hand_expansion(cube3_collapse):
    # Read the component formulas off the table: coordinate 1 turns on only
    # above (1,0,1); coordinate 2 above (1,1,0), (0,1,1), (1,1,1); coordinate
    # 3 above every nonzero vertex.
    pre = cube3_collapse.preimages_of_one()
    assert set(pre[0]) == {0b101, 0b111}
    assert set(pre[1]) == {0b011, 0b110, 0b111}
    assert set(pre[2]) == set(range(1, 8))

    def by_hand(x):
        c1 = max(min(x[0], x[2]), min(x[0], x[1], x[2]))
        c2 = max(min(x[0], x[1]), min(x[1], x[2]), min(x[0], x[1], x[2]))
        c3 = max(x[0], x[1], x[2])
        return (c1, c2, c3)

    rnd = random.Random(7)
    for _ in range(300):
        x = tuple(F(rnd.randrange(0, 25), 24) for _ in range(3))
        assert t_eval_maxmin(cube3_collapse, x) == by_hand(x)


def test_collapse3_pinned_point(cube3_collapse):
    x = (F(1), F(1, 2), F(1, 4))
    assert t_eval_maxmin(cube3_collapse, x) == (F(1, 4), F(1, 2), F(1))
    assert t_eval_permutation(cube3_collapse, x) == (F(1, 4), F(1, 2), F(1))


def test_collapse3_permutation_chain(cube3_collapse):
    # descending sort of (1, 1/2, 1/4) is the identity permutation and the
    # chain images force the output order (3, 2, 1)
    assert cube3_collapse.table[0b001] == 0b100
    assert cube3_collapse.table[0b011] == 0b110
    assert cube3_collapse.table[0b111] == 0b111


def test_gamma_evaluates_to_max_min():
    gamma = max_min_collapse()
    assert t_eval(gamma, (F(1, 3), F(2, 3))) == (F(2, 3), F(1, 3))
    assert t_eval(gamma, (F(1, 2), F(1, 2))) == (F(1, 2), F(1, 2))


def test_identity_and_symmetry_evaluation():
    assert t_eval_permutation(symmetry(1, 2), (F(1, 3), F(2, 3))) == (F(2, 3), F(1, 3))
    ident = enumerate_homset(1, 1)[0]
    assert t_eval(ident, (F(2, 5),)) == (F(2, 5),)


def test_coface_evaluation_inserts_constants():
    assert t_eval(coface(1, 0, 2), (F(1, 2),)) == (F(0), F(1, 2))
    f = compose(coface(1, 0, 3), max_min_collapse())
    assert t_eval(f, (F(1, 3), F(2, 3))) == (F(0), F(2, 3), F(1, 3))
    assert t_eval(coface(1, 1, 1), ()) == (F(1),)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertex_restriction(n):
    for m in range(n + 1):
        for f in enumerate_homset(m, n):
            for bits in range(1 << m):
                x = vertex_coords(bits, m)
                assert t_eval(f, x) == eval_at_vertex(f, bits)


@settings(max_examples=300)
@given(st.integers(1, 3), st.data())
def test_oracle_equivalence_random_rationals(n, data):
    maps = enumerate_homset(n, n)
    f = maps[data.draw(st.integers(0, len(maps) - 1))]
    x = tuple(data.draw(rationals) for _ in range(n))
    assert t_eval_maxmin(f, x) == t_eval_permutation(f, x)


def test_height_preservation_and_strict_monotonicity():
    rnd = random.Random(11)
    for n in (1, 2, 3):
        for f in enumerate_homset(n, n):
            for _ in range(40):
                x = tuple(F(rnd.randrange(0, 13), 12) for _ in range(n))
                y = tuple(min(F(1), c + F(rnd.randrange(0, 7), 12)) for c in x)
                fx, fy = t_eval(f, x), t_eval(f, y)
                assert point_height(fx) == point_height(x)
                assert all(a <= b for a, b in zip(fx, fy))
                if x != y:
                    assert fx != fy and all(a <= b for a, b in zip(fx, fy))


def test_functoriality_sampled():
    rnd = random.Random(3)
    for m in range(3):
        for n in range(m, 3):
            for p in range(n, 3):
                for f in enumerate_homset(m, n):
                    for g in enumerate_homset(n, p):
                        for _ in range(10):
                            x = tuple(F(rnd.randrange(0, 9), 8) for _ in range(m))
                            assert t_eval(compose(g, f), x) == t_eval(g, t_eval(f, x))


def test_quasi_isometry_of_extension():
    rnd = random.Random(5)
    for m in range(1, 4):
        for n in range(m, 4):
            for f in enumerate_homset(m, n)[:12]:
                for _ in range(25):
                    x = tuple(F(rnd.randrange(0, 13), 12) for _ in range(m))
                    y = tuple(min(F(1), c + F(rnd.randrange(0, 7), 12)) for c in x)
                    assert d1_point(t_eval(f, x), t_eval(f, y)) == d1_point(x, y)


def test_d1_point_examples():
    assert d1_point((F(0), F(0)), (F(1, 2), F(1, 2))) == 1
    assert d1_point((F(1, 2), F(0)), (F(0), F(1))) is INF
    assert d1_point((F(1, 4), F(1, 4)), (F(1, 2), F(3, 4))) == F(3, 4)
    with pytest.raises(ValueError):
        d1_point((F(0),), (F(0), F(0)))


def test_d1_sym_examples():
    x, y = (F(0), F(1)), (F(1), F(0))
    assert d1_sym(x, y) == 2
    assert d1_sym_witness(x, y) == (F(0), F(0))
    assert d1_sym(x, x) == 0
    assert d1_sym((F(1, 4), F(1, 4)), (F(1, 2), F(3, 4))) == F(3, 4)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.tuples(*[rationals] * n), st.tuples(*[rationals] * n), st.tuples(*[rationals] * n)
        )
    )
)
def test_d1_sym_is_a_pseudometric(triple):
    x, y, z = triple
    assert d1_sym(x, y) == d1_sym(y, x) >= 0
    assert d1_sym(x, x) == 0
    assert d1_sym(x, y) <= d1_sym(x, z) + d1_sym(z, y)
    assert d1_sym(x, y) <= d1_point(x, y)
    w = d1_sym_witness(x, y)
    assert d1_point(w, x) + d1_point(w, y) == d1_sym(x, y)


def test_point_parsing_round_trip():
    x = parse_point("1/3, 2/3, 1")
    assert x == (F(1, 3), F(2, 3), F(1))
    assert parse_point(format_point(x)) == x
    assert parse_point("") == ()
    with pytest.raises(ValueError):
        parse_point("3/2")


def test_batch_matches_pointwise():
    rng = np.random.default_rng(17)
    for m in range(4):
        for n in range(m, 4):
            maps = enumerate_homset(m, n)
            for f in maps[:: max(1, len(maps) // 8)]:
                pts = batch.random_points(rng, m, 64, 360)
                out = batch.t_eval_batch(f, pts, 360)
                for r in range(0, 64, 7):
                    x = tuple(F(int(c), 360) for c in pts[r])
                    expected = tuple(c * 360 for c in t_eval(f, x))
                    assert tuple(int(c) for c in out[r]) == expected
    # exhaustive on vertices
    for f in enumerate_homset(3, 3):
        verts = np.array([[(b >> i) & 1 for i in range(3)] for b in range(8)], dtype=np.int64)
        out = batch.t_eval_batch(f, verts, 1)
        for b in range(8):
            assert tuple(int(c) for c in out[b]) == eval_at_vertex(f, b)


def test_batch_d1():
    xs = np.array([[0, 0], [1, 0], [2, 2]], dtype=np.int64)
    ys = np.array([[1, 1], [0, 1], [2, 2]], dtype=np.int64)
    assert list(batch.d1_batch(xs, ys)) == [2, -1, 0]


def test_oracle_equivalence_under_ties():
    # repeated coordinates exercise the sort tie-breaking: equal values may
    # be routed to different output slots, but the outputs stay equal
    alphabet = (F(0), F(1, 3), F(1, 3), F(1))
    for n in (2, 3):
        for f in enumerate_homset(n, n):
            for code in range(len(alphabet) ** n):
                x, k = [], code
                for _ in range(n):
                    x.append(alphabet[k % len(alphabet)])
                    k //= len(alphabet)
                x = tuple(x)
                assert t_eval_maxmin(f, x) == t_eval_permutation(f, x)


def test_evaluators_accept_integer_coordinates(cube3_collapse):
    # comparisons only: integer numerators over a common denominator are an
    # exact encoding of rational points
    x_int = (24, 12, 6)
    x_frac = (F(24, 24), F(12, 24), F(6, 24))
    scaled = tuple(c * 24 for c in t_eval_maxmin(cube3_collapse, x_frac))
    assert tuple(t_eval_maxmin(cube3_collapse, x_int)) == scaled
    assert tuple(t_eval_permutation(cube3_collapse, x_int)) == scaled


def maxmin_all_masks(f, x):
    """The max-min formula read literally: every preimage mask, every coordinate."""
    return tuple(
        max(min(x[k] for k in range(f.dom_dim) if (mask >> k) & 1) for mask in masks)
        for masks in f.preimages_of_one()
    )


def up_closure(masks, m):
    return [x for x in range(1 << m) if any(y | x == x for y in masks)]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_minimal_preimages_generate_the_preimage_up_sets(n):
    for m in range(n + 1):
        for f in enumerate_homset(m, n):
            for pre, mins in zip(f.preimages_of_one(), f.minimal_preimages(), strict=True):
                assert all(a == b or a | b != b for a in mins for b in mins)  # an antichain
                assert up_closure(mins, m) == list(pre)
                assert list(mins) == [x for x in pre if x in mins]  # ascending


def sampled_endos_of_4():
    return random.Random(41).sample(enumerate_homset(4, 4), 300)


def test_maxmin_matches_all_masks_and_permutation_under_ties():
    quarters = [F(k, 4) for k in range(5)]
    rnd = random.Random(43)
    for n in (1, 2, 3):
        points = [tuple(quarters[k] for k in c) for c in np.ndindex(*(5,) * n)]
        for f in enumerate_homset(n, n):
            for x in points:
                assert t_eval_maxmin(f, x) == maxmin_all_masks(f, x) == t_eval_permutation(f, x)
    for f in sampled_endos_of_4():
        for _ in range(12):
            x = tuple(rnd.choice(quarters) for _ in range(4))
            assert t_eval_maxmin(f, x) == maxmin_all_masks(f, x) == t_eval_permutation(f, x)


def test_batch_endomaps_match_all_masks_and_permutation():
    for n in (1, 2, 3, 4):
        pts = np.array(list(np.ndindex(*(4,) * n)), dtype=np.int64)
        maps = enumerate_homset(n, n) if n < 4 else sampled_endos_of_4()
        rows = range(len(pts)) if n < 4 else range(0, len(pts), 5)
        for f in maps:
            out = batch.t_eval_batch(f, pts)
            assert out.dtype == pts.dtype
            for r in rows:
                x = tuple(int(c) for c in pts[r])
                got = tuple(int(c) for c in out[r])
                assert got == maxmin_all_masks(f, x) == t_eval_permutation(f, x)


def test_batch_non_endomaps_match_pointwise_rows():
    rnd = random.Random(47)
    for n in range(1, 5):
        for m in range(n):
            cells = list(np.ndindex(*(4,) * m))
            pts = np.array(cells, dtype=np.int64).reshape(len(cells), m)
            maps = enumerate_homset(m, n)
            for f in rnd.sample(maps, min(len(maps), 24)):
                out = batch.t_eval_batch(f, pts, 3)
                for row, pt in zip(out, pts):
                    want = tuple(c * 3 for c in t_eval(f, tuple(F(int(c), 3) for c in pt)))
                    assert tuple(int(c) for c in row) == want


# -- Fraction references for the integer-numerator rewrites --------------------
#
# The bodies below are the Fraction arithmetic the metric ran on before it
# moved to integer numerators over one common denominator; the rewrite must
# give the same values of the same types.


def ref_zero(x):
    return F(0) if any(isinstance(c, F) for c in x) else 0


def ref_point_height(x):
    return sum(x[1:], x[0]) if len(x) else 0


def ref_d1_point(x, y):
    if all(a <= b for a, b in zip(x, y)):
        return sum((b - a for a, b in zip(x, y)), ref_zero(x))
    return INF


def ref_d1_sym(x, y):
    return sum((b - a if b >= a else a - b for a, b in zip(x, y)), ref_zero(x))


def ref_d1_sym_witness(x, y):
    return tuple(min(a, b) for a, b in zip(x, y))


def same(a, b) -> bool:
    """Equal values of the same types, entry by entry."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


#: Exact coordinates in [0, 1]: ints, and Fractions with denominators up to
#: 2520 = lcm(1, ..., 10).
exact = st.one_of(st.sampled_from([0, 1]), st.fractions(min_value=0, max_value=1, max_denominator=2520))


def point_pairs(coords):
    return st.integers(0, 4).flatmap(lambda n: st.tuples(*[st.tuples(coords, coords)] * n)).map(
        lambda pairs: (tuple(a for a, _ in pairs), tuple(b for _, b in pairs))
    )


@settings(max_examples=400)
@given(st.one_of(point_pairs(exact), point_pairs(st.sampled_from([0, 1]))))
def test_metric_matches_its_fraction_reference(pair):
    x, y = pair
    assert same(point_height(x), ref_point_height(x))
    assert same(d1_point(x, y), ref_d1_point(x, y))
    assert same(d1_sym(x, y), ref_d1_sym(x, y))
    witness = d1_sym_witness(x, y)
    assert same(witness, ref_d1_sym_witness(x, y))
    assert all(w is a or w is b for w, a, b in zip(witness, x, y))  # the input objects themselves


def test_metric_matches_its_fraction_reference_on_pinned_points():
    cases = [
        ((), ()),
        ((0, 1), (1, 1)),  # integer coordinates only
        ((1, 0), (0, 1)),
        ((F(1, 2520), F(1, 7)), (F(1, 9), F(1, 8))),  # denominators up to 2520
        ((F(1, 2), 1), (F(1, 2), F(1))),  # ties, int against Fraction
        ((F(1), F(0)), (F(1), F(0))),  # Fractions with denominator 1
    ]
    for x, y in cases:
        for a, b in ((x, y), (y, x)):
            assert same(d1_point(a, b), ref_d1_point(a, b))
            assert same(d1_sym(a, b), ref_d1_sym(a, b))
            assert same(d1_sym_witness(a, b), ref_d1_sym_witness(a, b))
            assert same(point_height(a), ref_point_height(a))


def test_common_numerators():
    assert common_numerators([(F(1, 2), 1), (F(1, 3),)]) == (6, [(3, 6), (2,)], True)
    assert common_numerators([(0, 1), (True,)]) == (1, [(0, 1), (True,)], False)
    assert common_numerators([(F(1), F(0))]) == (1, [(1, 0)], True)
    assert common_numerators([]) == (1, [], False)


@pytest.mark.parametrize("fn", [d1_point, d1_sym, d1_sym_witness])
def test_metric_refuses_inexact_coordinates(fn):
    for x, y in [((0.5,), (0.75,)), ((F(1, 2),), (0.75,)), ((0, 1), (1, 1.0)), (("1",), (1,))]:
        with pytest.raises(InputError, match="not an exact rational"):
            fn(x, y)
    with pytest.raises(ValueError, match="dimension mismatch"):  # checked first, as before
        fn((0.5,), (0.5, 0.5))
