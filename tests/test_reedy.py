from __future__ import annotations

import pytest

from transcube.cube import compose
from transcube.homsets import BudgetExceeded, count_homset, enumerate_homset
from transcube.quotient import QuotientSet
from transcube.reedy import (
    boundary_hom,
    boundary_hom_closed_form,
    boundary_weight,
    canonical_pairs,
    compare_latching_to_boundary,
    constant_obj,
    free_obj,
    hom_obj,
    latching,
    matching_emptiness_check,
    weighted_coend_eval,
)
from transcube.sts import StsMap, boundary, check_action, empty_sts, representable


def test_boundary_hom_examples():
    assert len(boundary_hom(1, 2, 2)) == 4 == count_homset(1, 2)
    assert boundary_hom(2, 1, 3).is_empty()  # source above target
    assert boundary_hom(2, 3, 2).is_empty()  # degree bound at or below source


def test_boundary_hom_closed_form_everywhere():
    for p in range(4):
        for q in range(4):
            for n in range(4):
                assert len(boundary_hom(p, q, n)) == boundary_hom_closed_form(p, q, n)


def test_boundary_hom_canonical_representatives():
    for (p, q, n) in [(0, 1, 1), (0, 2, 2), (1, 2, 2), (1, 3, 3), (2, 3, 3), (2, 2, 3)]:
        quot = boundary_hom(p, q, n)
        for found in canonical_pairs(quot, p, q):
            assert len(found) == 1


def _boundary_hom_by_every_map(p: int, q: int, n: int) -> QuotientSet:
    """The boundary hom quotient glued along every connecting map ``k: [m]
    -> [m']`` with ``m <= m' < n``, not only the generating family:
    ``(m, h o k, g)`` to ``(m', h, k o g)``."""
    into, out_of = [enumerate_homset(p, m) for m in range(n)], [enumerate_homset(m, q) for m in range(n)]
    quot = QuotientSet([(m, h, g) for m in range(n) for h in out_of[m] for g in into[m]])
    for m in range(n):
        for m2 in range(m, n):
            for k in enumerate_homset(m, m2):
                for h in out_of[m2]:
                    for g in into[m]:
                        quot.identify((m, compose(h, k), g), (m2, h, compose(k, g)))
    return quot


def test_boundary_hom_matches_the_quotient_by_every_map():
    # same classes, members and order, hence the same representatives
    for p in range(4):
        for q in range(4):
            for n in range(4):
                assert boundary_hom(p, q, n).classes() == _boundary_hom_by_every_map(p, q, n).classes(), (p, q, n)


def test_matching_emptiness():
    assert matching_emptiness_check(2, 2)
    assert matching_emptiness_check(2, 3)
    assert matching_emptiness_check(3, 1)
    for n in range(4):
        for m in range(4):
            assert matching_emptiness_check(n, m)


def test_functor_plumbing():
    for obj in [constant_obj(("*",), 3), hom_obj(0, 3), hom_obj(1, 3), free_obj(1, ("a", "b"), 3)]:
        obj.check_functorial(2)


def test_weighted_coend_constant_on_connected():
    singleton = constant_obj(("*",), 2)
    assert len(weighted_coend_eval(singleton, representable(1))) == 1
    assert len(weighted_coend_eval(singleton, representable(2))) == 1


def test_weighted_coend_empty():
    assert weighted_coend_eval(constant_obj(("*",), 2), empty_sts(2)).is_empty()


def test_weighted_coend_co_yoneda():
    # evaluating the hom functor out of [k] recovers the k-cubes
    for k in range(3):
        for n in range(3):
            rep = representable(n)
            ev = weighted_coend_eval(hom_obj(k, max(k, n)), rep)
            assert len(ev) == len(rep.cubes.get(k, ()))


def test_latching_small_values():
    singleton = constant_obj(("*",), 3)
    assert latching(singleton, 0).is_empty()
    # the boundary of the interval is two disconnected points, so the
    # constant functor keeps two classes
    assert len(latching(singleton, 1)) == 2
    # the boundary of the square is connected
    assert len(latching(singleton, 2)) == 1


def test_latching_matches_boundary_evaluation():
    battery = [
        constant_obj(("*",), 3),
        constant_obj(("a", "b"), 3),
        hom_obj(0, 3),
        hom_obj(1, 3),
        hom_obj(2, 3),
        free_obj(0, ("s", "t"), 3),
        free_obj(1, ("s", "t"), 3),
    ]
    for obj in battery:
        for n in range(4):
            cmp = compare_latching_to_boundary(obj, n)
            assert cmp.bijective, (obj, n, cmp)


def test_latching_of_hom_functor_is_boundary_cubes():
    # the colimit extension of the hom functor out of [k] evaluates any set
    # at its k-cubes, so the latching object counts boundary k-cubes
    for k in range(3):
        for n in range(4):
            lat = latching(hom_obj(k, 3), n)
            expected = len(boundary(n).cubes.get(k, ()))
            assert len(lat) == expected


def test_covariant_build_charges_budget(monkeypatch):
    hom_obj(1, 3)  # warm hom-set caches: only the table charge can refuse now
    monkeypatch.setenv("TRANSCUBE_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        hom_obj(1, 3)


def _entries(tables) -> int:
    return sum(len(t) for t in tables.values())


def test_budget_charge_is_the_entries_written(monkeypatch):
    # both variances are charged exactly the number of entries they store
    builds = [
        (lambda: hom_obj(1, 3), lambda o: _entries(o.tables)),
        (lambda: representable(2), lambda s: _entries(s.tables)),
    ]
    for build, entries in builds:
        needed = entries(build())
        monkeypatch.setenv("TRANSCUBE_BUDGET", str(needed))
        build()
        monkeypatch.setenv("TRANSCUBE_BUDGET", str(needed - 1))
        with pytest.raises(BudgetExceeded):
            build()
        monkeypatch.delenv("TRANSCUBE_BUDGET")


def test_check_action_rejects_a_non_functorial_action():
    # one swap per non-identity map: composing two of them swaps back
    swap = {"a": "b", "b": "a"}
    levels = [("a", "b")] * 3
    for contravariant in (True, False):
        with pytest.raises(AssertionError, match="not functorial"):
            check_action(levels, lambda u, x: x if u.is_identity() else swap[x], contravariant, 2)
        with pytest.raises(AssertionError, match="identity action moved"):
            check_action(levels, lambda u, x: swap[x], contravariant, 2)


@pytest.mark.parametrize("n", range(4))
def test_boundary_weight_is_isomorphic_to_the_boundary(n):
    # (m, h, g) -> the cube h o g of the truncated representable
    weight, bnd = boundary_weight(n), boundary(n)
    index = {bnd.labels[c]: c for c in bnd.all_cubes()}
    mapping = {c: index[compose(h, g)] for c, (m, h, g) in weight.labels.items()}
    StsMap(weight, bnd, mapping)  # raises unless equivariant
    assert sorted(mapping.values()) == sorted(bnd.all_cubes())
    assert weight.counts() == bnd.counts()


# the battery of test_latching_matches_boundary_evaluation
_BATTERY = [
    constant_obj(("*",), 3),
    constant_obj(("a", "b"), 3),
    hom_obj(0, 3),
    hom_obj(1, 3),
    hom_obj(2, 3),
    free_obj(0, ("s", "t"), 3),
    free_obj(1, ("s", "t"), 3),
]


def _coend_by_definition(a_obj, k_sts) -> set[frozenset]:
    """The coend's classes from its definition: every map ``u: [m] -> [n]``,
    not only the generating family, glues ``(m, u^* c, a)`` to ``(n, c,
    u_* a)``; classes are the components found by breadth-first search."""
    top = min(a_obj.max_dim, k_sts.max_dim)
    edges = {(n, c, a): [] for n in range(top + 1) for c in k_sts.cubes[n] for a in a_obj.values[n]}
    for n in range(top + 1):
        for m in range(n + 1):
            for u in enumerate_homset(m, n):
                pushed = {a: a_obj.apply(u, a) for a in a_obj.values[m]}
                for c in k_sts.cubes[n]:
                    uc = k_sts.act(u, c)
                    for a, ua in pushed.items():
                        edges[(m, uc, a)].append((n, c, ua))
                        edges[(n, c, ua)].append((m, uc, a))
    classes, seen = set(), set()
    for e in edges:
        if e in seen:
            continue
        seen.add(e)
        component, frontier = {e}, [e]
        while frontier:
            for x in edges[frontier.pop()]:
                if x not in seen:
                    seen.add(x)
                    component.add(x)
                    frontier.append(x)
        classes.add(frozenset(component))
    return classes


@pytest.mark.parametrize("weight", [boundary, boundary_weight, representable], ids=lambda w: w.__name__)
def test_coend_eval_matches_the_coend_by_definition(weight):
    for n in range(4):
        k_sts = weight(n)
        for obj in _BATTERY:
            got = {frozenset(cls) for cls in weighted_coend_eval(obj, k_sts).classes()}
            assert got == _coend_by_definition(obj, k_sts), (obj, n)
