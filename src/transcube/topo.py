"""Exact evaluation of topologized cube maps on rational points.

A cotransverse map ``f: [m] -> [n]`` extends to the solid cubes
``[0,1]^m -> [0,1]^n`` by the max-min formula: output coordinate ``i`` is
the maximum, over the source vertices whose image has coordinate ``i``
equal to 1, of the minimum of the point coordinates selected by that
vertex.  An empty maximum is 0 and an empty minimum is 1, so a coordinate
no vertex reaches is constant 0 and one the bottom vertex already reaches
is constant 1: these are the coordinates a coface inserts.  On vertices
this recovers ``f`` itself; on the whole cube it is continuous, strictly
increasing, raises the coordinate sum by the height of ``f.table[0]`` and
preserves all finite directed L1 distances.

A cotransverse map is monotone, so the source vertices whose image has
coordinate ``i`` equal to 1 form an up-set: the up-closure of its minimal
vertices.  A minimum over a larger vertex (more coordinates) is never
larger, so the maximum over the whole up-set equals the maximum over its
minimal vertices alone (:meth:`CubeMap.minimal_preimages`); on the
endomaps of ``[4]`` that is 9.6 masks instead of 32 on average.

Two independent evaluators are provided.  :func:`t_eval_maxmin` (also
:func:`t_eval`) computes the formula over the minimal vertices; the tests
hold it against the literal all-vertices formula.
:func:`t_eval_permutation` sorts the coordinates in descending order and
reads the output permutation off the images of the corresponding chain of
vertices; the two must agree exactly on every input.  Neither factorizes:
both read the constant coordinates off the table, after charging a map
into a larger cube its ``n`` coordinates, as its factorization is.  Both
use comparisons only, so they work verbatim on ``Fraction`` coordinates.
A constant is the int 0 or 1 unless the point has a ``Fraction``
coordinate, so integer coordinates over an implicit denominator are exact
for endomaps only; scaled points of other maps go through
:func:`transcube.batch.t_eval_batch` with their ``denominator``.

The directed metric sums and compares plain integers.
:func:`common_numerators` writes a group of points over one common
denominator, the ``math.lcm`` of every coordinate's denominator, and the
sums and comparisons run on the integer numerators: on CPython 3.11 a
Fraction comparison takes about 1 us and an addition 2.5 us, against tens
of nanoseconds for ints.  Results keep the type of the input: all-int
points give an int, and a point group with a ``Fraction`` anywhere gives a
``Fraction``.  Floats are refused, since they would make every comparison
inexact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import le, sub
from typing import Sequence, TypeVar

from .cube import INF, CubeMap, InputError
from .homsets import charge

Coord = TypeVar("Coord", Fraction, int)


def _check_point(f: CubeMap, x: Sequence) -> None:
    if len(x) != f.dom_dim:
        raise ValueError(f"point of dimension {len(x)} fed to map from [{f.dom_dim}]")


def t_eval_maxmin(f: CubeMap, x: Sequence[Coord]) -> tuple[Coord, ...]:
    """Max-min evaluation of any cotransverse map at a point; exact, no
    tolerances.  The maximum runs over the minimal preimage masks only (see
    the module docstring); an empty maximum is 0, and the minimum over the
    empty mask is 1."""
    if _constant_ones(f) is not None:  # charges a map into a larger cube
        zero, one = _constants_like(x)
    _check_point(f, x)
    out = []
    for masks in f.minimal_preimages():
        if not masks or not masks[0]:  # never for an endomap: it fixes the bottom and the top
            out.append(one if masks else zero)
            continue
        best = None
        for mask in masks:
            m = mask
            k = (m & -m).bit_length() - 1
            low = x[k]
            m &= m - 1
            while m:
                k = (m & -m).bit_length() - 1
                if x[k] < low:
                    low = x[k]
                m &= m - 1
            if best is None or low > best:
                best = low
        out.append(best)
    return tuple(out)


def t_eval_permutation(f: CubeMap, x: Sequence[Coord]) -> tuple[Coord, ...]:
    """Chain-of-sorted-coordinates evaluation of any cotransverse map: the
    walk of :func:`_walk` with the coordinates in descending order (ties
    keep the smaller index first)."""
    ones = _constant_ones(f)
    _check_point(f, x)
    return _walk(f, x, sorted(range(f.dom_dim), key=x.__getitem__, reverse=True), ones)


t_eval = t_eval_maxmin


def _constant_ones(f: CubeMap) -> tuple[int, ...] | None:
    """The output coordinates ``f`` holds at 1, the bits of ``f.table[0]``,
    or ``None`` for an endomap, which holds none.  A map into a larger cube
    is charged its ``cod_dim`` coordinates first, as its factorization is."""
    if f.dom_dim == f.cod_dim:
        return None
    charge(f.cod_dim, "evaluating %s", f)
    base = f.table[0]
    return tuple([i for i in range(base.bit_length()) if (base >> i) & 1])


def _walk(f: CubeMap, x: Sequence[Coord], order: Sequence[int], ones: tuple[int, ...] | None) -> tuple[Coord, ...]:
    """Switch the coordinates of ``x`` on in ``order``, from the bottom
    vertex, and write ``x[k]`` to the output coordinate that the image of
    the chain gains at coordinate ``k``.  Every other output coordinate is
    constant: 1 at ``ones`` (see :func:`_constant_ones`), 0 elsewhere."""
    if ones is None:
        out = [None] * f.cod_dim
    else:
        zero, one = _constants_like(x)
        out = [zero] * f.cod_dim
        for i in ones:
            out[i] = one
    table = f.table
    mask, prev = 0, table[0]
    for k in order:
        mask |= 1 << k
        img = table[mask]
        out[(img & ~prev).bit_length() - 1] = x[k]
        prev = img
    return tuple(out)


_FRACTION_CONSTANTS = (Fraction(0), Fraction(1))


def _constants_like(x: Sequence) -> tuple:
    """The constants 0 and 1 as a point's coordinates: Fractions when any
    coordinate of ``x`` is one, ints otherwise."""
    for c in x:
        if isinstance(c, Fraction):
            return _FRACTION_CONSTANTS
    return 0, 1


def common_numerators(points: Sequence[Sequence]) -> tuple[int, list[tuple[int, ...]], bool]:
    """One common denominator for a group of points, the integer numerators
    of each point over it, and whether any coordinate is a ``Fraction``.

    The denominator is the ``math.lcm`` of every coordinate's denominator,
    so it is 1 when every coordinate is an int.  A coordinate that is
    neither an int nor a ``Fraction`` raises :class:`InputError`.
    """
    frac = False
    for pt in points:
        for c in pt:
            if not isinstance(c, int):
                if not isinstance(c, Fraction):
                    raise InputError(f"{c!r} is not an exact rational: give an int or a Fraction")
                frac = True
    if not frac:
        return 1, [tuple(pt) for pt in points], False
    den = lcm(*[c.denominator for pt in points for c in pt])
    return den, [tuple([c.numerator * (den // c.denominator) for c in pt]) for pt in points], True


def point_height(x: Sequence[Coord]) -> Coord:
    """Coordinate sum of a point of the solid cube."""
    den, (xs,), frac = common_numerators((x,))
    return Fraction(sum(xs), den) if frac else sum(xs)


def d1_point(x: Sequence[Coord], y: Sequence[Coord]):
    """Directed L1 distance on the solid cube: the coordinate-sum gap when
    ``x <= y`` coordinatewise, infinite otherwise."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} != {len(y)}")
    den, (xs, ys), frac = common_numerators((x, y))
    if all(map(le, xs, ys)):
        gap = sum(ys) - sum(xs)
        return Fraction(gap, den) if frac else gap
    return INF


def d1_sym(x: Sequence[Coord], y: Sequence[Coord]) -> Coord:
    """Symmetric reflection of the directed distance: plain L1.

    On a single cube the reflected pseudometric collapses to the ordinary L1
    distance; :func:`d1_sym_witness` exhibits a common lower bound realizing
    it as a two-leg directed trip.
    """
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} != {len(y)}")
    den, (xs, ys), frac = common_numerators((x, y))
    total = sum(map(abs, map(sub, xs, ys)))
    return Fraction(total, den) if frac else total


def d1_sym_witness(x: Sequence[Coord], y: Sequence[Coord]) -> tuple[Coord, ...]:
    """The coordinatewise minimum ``z``: it sits below both points and
    attains ``d1(z, x) + d1(z, y) == d1_sym(x, y)``.  Each coordinate is the
    smaller input coordinate itself, the one of ``x`` on a tie."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} != {len(y)}")
    _, (xs, ys), _ = common_numerators((x, y))
    return tuple([b if bn < an else a for a, b, an, bn in zip(x, y, xs, ys)])


def parse_point(text: str) -> tuple[Fraction, ...]:
    """Parse ``"p1/q1,p2/q2,..."`` into exact rational coordinates in [0, 1]."""
    text = text.strip()
    if not text:
        return ()
    try:
        coords = tuple(Fraction(tok.strip()) for tok in text.split(","))
    except ZeroDivisionError:
        raise InputError(f"zero denominator in point {text!r}") from None
    except ValueError as err:
        raise InputError(str(err)) from None
    for c in coords:
        if not 0 <= c <= 1:
            raise InputError(f"coordinate {c} outside [0, 1]")
    return coords


def format_point(x: Sequence) -> str:
    return ",".join(str(c) for c in x)
