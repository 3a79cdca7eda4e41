"""Set-level boundary hom quotients and latching objects.

For dimensions ``p, q`` and a degree bound ``n``, the boundary hom-set is
the coend over intermediate cubes of dimension below ``n`` of pairs
``(h: [m] -> [q], g: [p] -> [m])``, two pairs being identified whenever a
connecting map rewrites one into the other.  It collapses onto a closed
form: empty when ``p > q`` or ``n <= p``, and in bijection with the full
hom-set ``[p] -> [q]`` otherwise, every class containing exactly one pair
whose outer leg is a coface composite out of ``[p]``.

Latching objects of set-valued cotransverse objects are coends weighted by
these boundary hom-sets, gathered into a symmetric transverse set.  Every
coend here, boundary hom-set, latching object or evaluation, is computed
by the one union-find loop :func:`weighted_coend_eval`, which glues along
the generating family.  What stays independent is the weight: it comes
from those coends, while the boundary of the representable comes from
truncating it.  Matching the two coends is the identification that reduces
the degreewise model structure to the projective one (matching objects
being forced terminal by the emptiness of the diagonal boundary hom-sets).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from .cube import CubeMap, compose
from .homsets import (
    charge,
    charged_cache,
    count_homset,
    enumerate_homset,
    factorize,
    generating_family,
    is_coface,
)
from .quotient import QuotientSet
from .sts import (
    BUILD_CACHE_MAXSIZE,
    Sts,
    _build,
    _new,
    action_tables,
    boundary,
    check_action,
)


def boundary_hom(p: int, q: int, n: int) -> QuotientSet:
    """The degree-``n`` boundary hom quotient between ``[p]`` and ``[q]``:
    the coend of the maps out of ``[p]`` against the maps into ``[q]``, below
    ``[n]``.  Elements are triples ``(m, h, g)`` with ``m < n``, and
    ``(m, h o k, g)`` glues to ``(m', h, k o g)`` for ``k: [m] -> [m']``.
    """
    top = min(n - 1, q)  # no map into [q] comes from a level above it
    return weighted_coend_eval(_maps_out_of(p, top), _maps_into(q, top))


def boundary_hom_closed_form(p: int, q: int, n: int) -> int:
    """Cardinality the quotient must have: 0 off the admissible range,
    otherwise the size of the full hom-set ``[p] -> [q]``."""
    if p > q or n <= p:
        return 0
    return count_homset(p, q)


def boundary_hom_cases(top: int) -> Iterable[tuple[int, int, int]]:
    """Every ``(p, q, n)`` up to ``top``, one cell each, charged before any is listed."""
    charge((top + 1) ** 3, "the boundary hom cases up to [%s]", top)
    return product(range(top + 1), repeat=3)


def canonical_pairs(quot: QuotientSet, p: int, q: int) -> list[tuple]:
    """Members of shape ``(p, coface composite, endomap)``, one per class
    when the quotient is in its expected form."""
    return [[(m, h, g) for (m, h, g) in cls if m == p and is_coface(h)] for cls in quot.classes()]


def matching_emptiness_check(n: int, m: int) -> bool:
    """The diagonal boundary hom-set out of ``[n]`` is empty, so weighted
    limits over it are terminal: the degreewise matching data is trivial."""
    return boundary_hom(n, m, n).is_empty()


class CotransverseSetObj:
    """A covariant set-valued functor on cubes and cotransverse maps.

    ``values[n]`` is a finite set (tuple), ``pos[n][a]`` the position of
    ``a`` in it, and the action is stored on the generating family in the
    layout of :class:`transcube.sts.Sts`, one tuple per generator, indexed
    by position in its source level: ``tables[(n, i, alpha)]`` sends level
    ``n - 1`` values to level ``n`` ones along the elementary coface,
    ``tables[e]`` acts on level ``n`` by the endomap ``e`` of ``[n]``.  A
    general map applies its endomap part first, then the elementary cofaces
    bottom-up.
    """

    def __init__(
        self,
        max_dim: int,
        values: Mapping[int, tuple[Hashable, ...]],
        tables: Mapping[Hashable, tuple[Hashable, ...]],
    ) -> None:
        self.max_dim = max_dim
        self.values = {n: tuple(values.get(n, ())) for n in range(max_dim + 1)}
        self.pos = {n: {a: i for i, a in enumerate(vals)} for n, vals in self.values.items()}
        self.tables = dict(tables)

    def apply(self, f: CubeMap, a: Hashable) -> Hashable:
        fac = factorize(f)
        if f.dom_dim > 0:
            a = self.tables[fac.psi][self.pos[f.dom_dim][a]]
        for step in fac.steps:  # (n, i, alpha) acts on level n - 1
            a = self.tables[step][self.pos[step[0] - 1][a]]
        return a

    def check_functorial(self, exhaustive_dim: int) -> None:
        check_action(self.values, self.apply, False, min(self.max_dim, exhaustive_dim))


def built_obj(
    max_dim: int,
    values: Callable[[int], list[Hashable]],
    act: Callable[[CubeMap, Hashable], Hashable],
) -> CotransverseSetObj:
    """Materialize the generating-family tables from an action rule."""
    charge(max_dim + 1, "the levels of a cotransverse object of dimension %s", max_dim)
    vals = [tuple(values(n)) for n in range(max_dim + 1)]
    return CotransverseSetObj(max_dim, dict(enumerate(vals)), action_tables(vals, act, contravariant=False))


def constant_obj(points: tuple[Hashable, ...], max_dim: int) -> CotransverseSetObj:
    """The constant functor: same set everywhere, all maps act as identity."""
    return built_obj(max_dim, lambda n: list(points), lambda f, a: a)


def hom_obj(k: int, max_dim: int) -> CotransverseSetObj:
    """The covariant hom functor out of ``[k]``: level ``n`` is the hom-set
    ``[k] -> [n]`` with maps acting by postcomposition.  ``k = 0`` gives the
    vertices functor."""
    return built_obj(
        max_dim,
        lambda n: list(enumerate_homset(k, n)),
        lambda f, u: compose(f, u),
    )


def free_obj(k: int, tags: tuple[Hashable, ...], max_dim: int) -> CotransverseSetObj:
    """Copies of the hom functor out of ``[k]``, one per tag."""
    return built_obj(
        max_dim,
        lambda n: [(u, t) for t in tags for u in enumerate_homset(k, n)],
        lambda f, ut: (compose(f, ut[0]), ut[1]),
    )


def weighted_coend_eval(a_obj: CotransverseSetObj, k_sts: Sts) -> QuotientSet:
    """Evaluation of the colimit-preserving extension of ``a_obj`` at a
    symmetric transverse set: the coend of ``cubes x values`` where pulling
    a cube back matches pushing a value forward."""
    top = min(a_obj.max_dim, k_sts.max_dim)
    elements = [
        (n, c, a)
        for n in range(top + 1)
        for c in k_sts.cubes[n]
        for a in a_obj.values[n]
    ]
    quot = QuotientSet(elements)
    for key, u in generating_family(top):
        m, n = u.dom_dim, u.cod_dim
        cubes, values = k_sts.cubes[n], a_obj.values[m]
        if not (cubes and values):
            continue  # the generator acts on an empty level: nothing to identify
        amap = a_obj.tables[key]
        for c, uc in zip(cubes, k_sts.tables[key]):
            for a, ua in zip(values, amap):
                quot.identify((m, uc, a), (n, c, ua))
    return quot


@charged_cache(BUILD_CACHE_MAXSIZE)
def _maps_into(q: int, top: int) -> Sts:
    """The maps into ``[q]`` from levels up to ``[top]``, acting by
    precomposition, with the maps themselves as cube ids."""
    graded = [enumerate_homset(m, q) for m in range(top + 1)]
    return Sts(top, dict(enumerate(graded)), action_tables(graded, lambda u, h: compose(h, u), contravariant=True))


@charged_cache(BUILD_CACHE_MAXSIZE)
def _maps_out_of(p: int, top: int) -> CotransverseSetObj:
    """:func:`hom_obj` ``(p, top)``, built once: the maps out of ``[p]`` into
    levels up to ``[top]``, acting by postcomposition.  Its readers never
    change it."""
    return hom_obj(p, top)


@charged_cache(BUILD_CACHE_MAXSIZE)
def _weight(n: int) -> Sts:
    """The cached set behind :func:`boundary_weight`."""
    quots = [boundary_hom(p, n, n) for p in range(n)]
    graded = [q.representatives() for q in quots] + [[]]
    return _build(graded, lambda u, w: quots[u.dom_dim].class_of((w[0], w[1], compose(w[2], u))))


def boundary_weight(n: int) -> Sts:
    """The degree-``n`` boundary-hom weight as a symmetric transverse set.

    Level ``p < n`` holds the canonical representatives ``(m, h, g)`` of
    :func:`boundary_hom` ``(p, n, n)`` and level ``n`` is empty, so the
    weight has the shape of :func:`transcube.sts.boundary`.  A map ``u``
    acts by ``(m, h, g) -> class of (m, h, g o u)``; labels carry the
    representatives.  Built once per ``n``; each call returns a new set
    sharing the cached tables.
    """
    return _new(_weight(n))


def latching(a_obj: CotransverseSetObj, n: int) -> QuotientSet:
    """Degree-``n`` latching object: the coend of the boundary-hom weight
    against the functor, evaluated by :func:`weighted_coend_eval`.

    Elements are ``(p, c, a)`` with ``c`` a cube id of
    :func:`boundary_weight` ``(n)`` and ``a`` a level-``p`` value; the
    weight's ``labels[c]`` gives back the boundary-hom triple ``(m, h, g)``.
    """
    return weighted_coend_eval(a_obj, _weight(n))


@charged_cache(BUILD_CACHE_MAXSIZE)
def _weight_to_boundary(n: int) -> tuple[Sts, Sts, dict[int, int]]:
    """The weight, the boundary of ``[n]``, and the cube of ``h o g`` in the
    boundary for each weight cube labelled ``(m, h, g)``."""
    weight, bnd = _weight(n), boundary(n)
    cube_index = {bnd.labels[c]: c for c in bnd.all_cubes()}
    to_boundary = {c: cube_index[compose(h, g)] for c, (m, h, g) in weight.labels.items()}
    return weight, bnd, to_boundary


class LatchingComparison(NamedTuple):
    """Outcome of matching a latching object against boundary evaluation.  A
    tuple: it also compares equal to the plain tuple of its fields."""

    bijective: bool
    latching_size: int
    boundary_eval_size: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.bijective


def compare_latching_to_boundary(a_obj: CotransverseSetObj, n: int) -> LatchingComparison:
    """Exhibit the canonical bijection between the latching object and the
    functor evaluated at the boundary of the representable.

    Both are coends evaluated by :func:`weighted_coend_eval`.  A weight
    cube ``c`` labelled ``(m, h, g)`` goes to the cube of ``h o g``, so
    ``(p, c, a)`` maps to the class of ``(p, cube of h o g, a)``; the map
    must be well defined on classes and a bijection.
    """
    weight, bnd, to_boundary = _weight_to_boundary(n)
    lat = weighted_coend_eval(a_obj, weight)
    ev = weighted_coend_eval(a_obj, bnd)

    image_classes: dict[tuple, tuple] = {}
    for cls in lat.classes():
        targets = {ev.class_of((p, to_boundary[c], a)) for (p, c, a) in cls}
        if len(targets) != 1:
            return LatchingComparison(False, len(lat), len(ev), "map not well defined")
        image_classes[cls[0]] = targets.pop()

    injective = len(set(image_classes.values())) == len(image_classes)
    surjective = set(image_classes.values()) == set(ev.representatives())
    ok = injective and surjective and len(lat) == len(ev)
    return LatchingComparison(ok, len(lat), len(ev), "" if ok else "not bijective")
