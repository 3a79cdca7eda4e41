"""Enumeration and unique coface/endo factorization of cotransverse maps.

Every cotransverse map ``f: [m] -> [n]`` factors *uniquely* as an endomap
``psi`` of ``[m]`` followed by a composite of cofaces ``phi: [m] -> [n]``.
This normal form drives almost everything downstream: hom-set counting,
free generation of symmetric transverse sets, coend quotients and the
induced maps on path spaces.

Enumeration proceeds level by level over vertex heights: the image of the
bottom vertex fixes the height of every level (covering pairs go to
covering pairs, so heights shift uniformly), and the image of a vertex must
cover the images of all vertices it covers.  The search is depth-first and
the result is sorted lexicographically on tables, so outputs are stable
across runs.  The candidate images of a vertex depend only on the union of
the images below it and the height still missing, and are memoised on that
pair.  One search serves both the listing and the count, which builds no
map.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial, wraps
from itertools import combinations
from math import comb
from typing import NamedTuple

from .cube import CubeMap, InputError, bit_height, coface, coface_table, compose, extract_bits, interned, split_coordinates

DEFAULT_BUDGET = 10_000_000
_BUDGET_ENV = "TRANSCUBE_BUDGET"
_BUDGET_KEY = os.environ.encodekey(_BUDGET_ENV)
_budget_override: int | None = None


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would overrun the configured cell budget."""


def set_cell_budget(value: int | None) -> None:
    """Process-wide budget override; ``None`` restores env/default lookup.
    A negative budget raises :class:`transcube.cube.InputError`."""
    global _budget_override
    if value is not None and value < 0:
        raise InputError(f"the budget must be a nonnegative integer, got {value}")
    _budget_override = value


def cell_budget() -> int:
    """Enumeration budget in table cells; the explicit override wins, then
    the TRANSCUBE_BUDGET environment variable, then the default.  A value of
    the variable that is not a nonnegative integer raises
    :class:`transcube.cube.InputError`."""
    if _budget_override is not None:
        return _budget_override
    if _BUDGET_KEY not in os.environ._data:  # os.environ.get raises KeyError twice when unset
        return DEFAULT_BUDGET
    raw = os.environ[_BUDGET_ENV]
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise InputError(f"{_BUDGET_ENV} must be a nonnegative integer, got {raw!r}")
    return value


#: The peaks of the cold builds running now, innermost last: each
#: :func:`charged_cache` gate pushes one before its body runs and pops it
#: after, and :func:`charge` raises the innermost.
_peaks: list[int] = []


def charge(cells: int, what: str, *args: object) -> None:
    """The one budget rule: materializing ``cells`` table cells for
    ``what % args`` raises :class:`BudgetExceeded` when ``cells`` exceeds
    :func:`cell_budget`.  Hom-sets, coface sets and action tables all charge
    through here; the label is formatted only when the charge is refused.
    An accepted charge raises the peak of the innermost cold build."""
    budget = cell_budget()
    if cells > budget:
        raise BudgetExceeded(f"{what % args} needs {cells} cells, over the budget of {budget}")
    if _peaks and cells > _peaks[-1]:
        _peaks[-1] = cells


def charge_cofaces(m: int, n: int, what: str, *args: object) -> None:
    """Charge the ``C(n, m) << n`` cells the coface composites ``[m] -> [n]``
    fill, as :func:`charge` does.  When there are any, ``1 << n`` alone is
    over the budget once ``n`` reaches its bit length, and is refused there:
    the product would not fit in memory for a huge ``n``."""
    budget = cell_budget()
    if m <= n and n >= budget.bit_length():
        raise BudgetExceeded(f"{what % args} needs at least 2**{n} cells, over the budget of {budget}")
    charge(comb(n, m) << n, what, *args)


#: Bound on the ``(m, n)`` entries each hom-set cache keeps; every pair with
#: ``m, n < 16`` fits, far beyond what any cell budget lets a search reach.
HOMSET_CACHE_MAXSIZE = 256


def with_peak(body, *args) -> tuple:
    """``(body(*args), peak)``, where ``peak`` is the largest charge the call
    made (see :data:`_peaks`); a memo that replays ``peak`` on every hit
    charges warm what it charged cold."""
    _peaks.append(0)
    try:
        return body(*args), _peaks[-1]
    finally:
        _peaks.pop()


def charged_cache(maxsize: int):
    """Decorator: keep ``body(*args)`` in an ``lru_cache`` of ``maxsize``
    entries behind a gate that charges, on every call, warm or cold, the
    peak of the cold build: the largest charge its body made.

    The gate records that peak itself (see :data:`_peaks`).  A gate called
    inside a cold body charges its own peak again, so the peak is the same
    whether the caches the body reads were warm or cold, and the smallest
    budget a call accepts does not depend on whether its result was cached.
    The gate keeps the body's name and exposes ``cache_info`` and
    ``cache_clear``; a refused charge names the call, as in
    ``enumerate_homset(4, 4)``.
    """

    def wrap(body):
        cached = lru_cache(maxsize=maxsize)(partial(with_peak, body))
        label = body.__name__ + "(" + ", ".join(["%s"] * body.__code__.co_argcount) + ")"

        @wraps(body)
        def gate(*args):
            value, peak = cached(*args)
            charge(peak, label, *args)
            return value

        gate.cache_info, gate.cache_clear = cached.cache_info, cached.cache_clear
        return gate

    return wrap


def _search(m: int, n: int, what: str, found: list[tuple[int, ...]] | None = None) -> int:
    """The one search for the cotransverse maps ``[m] -> [n]``, as the module
    docstring describes it: returns how many there are and, when ``found``
    is a list, appends the table of each.  Charges ``C(n, m) << n`` cells
    first (the coface composites alone fill that many), then the maps found
    so far each time their count doubles, so a refused search holds at most
    twice the budget, and last the exact total, ``count << m``."""
    if m < 0 or n < 0:
        raise ValueError("dimensions must be nonnegative")
    if m > n:
        return 0
    charge_cofaces(m, n, what)
    order = sorted(range(1 << m), key=lambda x: (bit_height(x), x))
    below = [[x & ~(1 << i) for i in range(m) if (x >> i) & 1] for x in order]
    rise = [bit_height(x) for x in order]
    last = len(order) - 1
    image = [0] * (1 << m)
    memo: dict[tuple[int, int], tuple[int, ...]] = {}
    count = 0

    def candidates(union: int, missing: int) -> tuple[int, ...]:
        # Every lower cover lies one level down, so a valid image is the
        # union of their images plus enough fresh bits to land one level
        # above it: ``missing`` of them.
        free = [1 << i for i in range(n) if not (union >> i) & 1]
        cands = tuple(sorted(union | sum(extra) for extra in combinations(free, missing))) if missing >= 0 else ()
        memo[union, missing] = cands
        return cands

    def leaf() -> None:
        nonlocal count
        count += 1
        if found is not None:
            found.append(tuple(image))
        if count & (count - 1) == 0:
            charge(count << m, what)

    def dfs(k: int, base: int) -> None:
        x = order[k]
        union = 0
        for y in below[k]:
            union |= image[y]
        missing = base + rise[k] - union.bit_count()
        cands = memo.get((union, missing))
        for w in candidates(union, missing) if cands is None else cands:
            image[x] = w
            if k == last:
                leaf()
            else:
                dfs(k + 1, base)

    # Bottom vertex: any image low enough that m more height levels fit above.
    for bottom in range(1 << n):
        base = bottom.bit_count()
        if base <= n - m:
            image[0] = bottom
            if last:
                dfs(1, base)
            else:
                leaf()
    charge(count << m, what)
    return count


@charged_cache(HOMSET_CACHE_MAXSIZE)
def enumerate_homset(m: int, n: int) -> tuple[CubeMap, ...]:
    """All cotransverse maps ``[m] -> [n]`` in lexicographic table order,
    each built and validated by :class:`CubeMap`.

    Empty when ``m > n``.  Raises :class:`BudgetExceeded` once the tables
    would exceed the configured cell budget; the guard keeps desk scale
    exhaustive searches from blowing up past dimension 5 or so.  Charged
    as :func:`_search` charges, ``len << m`` cells at most.
    """
    tables: list[tuple[int, ...]] = []
    _search(m, n, f"enumerate_homset({m}, {n})", tables)
    tables.sort()
    return tuple(interned(m, n, t) for t in tables)


@charged_cache(HOMSET_CACHE_MAXSIZE)
def count_endomaps(m: int) -> int:
    """``|End([m])|``, found by the search of :func:`enumerate_homset` without
    building a map, and charged as ``enumerate_homset(m, m)`` is."""
    return _search(m, m, f"count_endomaps({m})")


def composable_pairs(top: int) -> list[tuple[CubeMap, CubeMap]]:
    """Every composable pair ``(f: [m] -> [n], g: [n] -> [p])`` with
    ``m <= n <= p <= top``, ordered by ``m``, ``n``, ``p``, then ``f``, then ``g``.
    Charges one cell per pair, counted before any hom-set is listed."""
    pairs = 0
    for m in range(top + 1):
        for n in range(m, top + 1):
            for p in range(n, top + 1):
                pairs += count_homset(m, n) * count_homset(n, p)
                charge(pairs, "composable_pairs(%s)", top)
    homs = {(m, n): enumerate_homset(m, n) for m in range(top + 1) for n in range(m, top + 1)}
    return [
        (f, g)
        for m in range(top + 1)
        for n in range(m, top + 1)
        for p in range(n, top + 1)
        for f in homs[m, n]
        for g in homs[n, p]
    ]


@charged_cache(16)
def generating_family(max_dim: int) -> tuple[tuple[tuple[int, int, int] | CubeMap, CubeMap], ...]:
    """The maps whose actions determine every action, up to ``[max_dim]``.

    For each ``1 <= n <= max_dim``: the elementary cofaces into ``[n]``, then
    the endomaps of ``[n]`` in enumeration order.  Entries are ``(key, u)``:
    a coface is keyed by its step ``(n, i, alpha)``, as
    :attr:`Factorization.steps` holds it, and an endomap by itself, as
    :attr:`Factorization.psi`, so one dict ``tables[key]`` holds a set's
    whole generating action and a factorization reads it directly.  Every
    map is an endomap followed by a composite of cofaces, which is why acting
    by these few maps determines the rest.  Charges the largest endomap
    hom-set, ``|End([n])| << n`` cells.
    """
    family: list[tuple[tuple[int, int, int] | CubeMap, CubeMap]] = []
    for n in range(1, max_dim + 1):
        family += [((n, i, a), coface(i, a, n)) for i in range(1, n + 1) for a in (0, 1)]
        family += [(e, e) for e in enumerate_homset(n, n)]
    return tuple(family)


@charged_cache(HOMSET_CACHE_MAXSIZE)
def enumerate_cofaces(m: int, n: int) -> tuple[CubeMap, ...]:
    """All coface composites ``[m] -> [n]``: choose the m free coordinates and
    the constant value of each remaining one.  Lexicographic table order."""
    if m > n:
        return ()
    charge_cofaces(m, n, "enumerate_cofaces(%s, %s)", m, n)
    # The constants of the fixed coordinates range over the table of the
    # coface that inserts them into the all-zero base.
    tables = sorted(
        coface_table(base, free)
        for free in combinations(range(n), m)
        for base in coface_table(0, tuple(i for i in range(n) if i not in free))
    )
    return tuple(interned(m, n, t) for t in tables)


def is_coface(f: CubeMap) -> bool:
    """True when ``f`` inserts constant coordinates only (identity on the rest)."""
    return factorize(f).psi.is_identity()


def count_homset(m: int, n: int) -> int:
    """Size of the hom-set ``[m] -> [n]`` by the closed form
    ``|End([m])| * C(n, m) * 2^(n-m)``: pick the coface part, then the
    endomap part of the unique factorization.  Builds no map."""
    if m > n:
        return 0
    return count_endomaps(m) * comb(n, m) << (n - m)


class Factorization(NamedTuple):
    """Unique normal form ``f = phi o psi`` with ``psi`` an endomap of the
    source cube and ``phi`` a composite of cofaces.  ``free`` holds the
    positions of ``[n]`` carrying ``psi`` (0-based, ascending); ``steps``
    writes ``phi`` as insertions ``(n1, i1, a1), (n2, i2, a2), ...``, at
    ``i1`` into ``[n1]`` first and upward from there, so every ``i - 1`` is
    also the position of a constant coordinate of ``[n]``.  A tuple: it
    also compares equal to the plain tuple of its fields."""

    psi: CubeMap
    phi: CubeMap
    free: tuple[int, ...]
    steps: tuple[tuple[int, int, int], ...]

    @property
    def composite(self) -> CubeMap:
        return compose(self.phi, self.psi)


@charged_cache(4096)
def coface_part(lo: int, hi: int, n: int) -> tuple[CubeMap, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """``phi``, ``free`` and ``steps`` of :class:`Factorization` for the face
    of ``[n]`` from ``lo`` up to ``hi``, charging the ``n`` coordinates first."""
    charge(n, "coface_part(%s, %s, %s)", lo, hi, n)
    free, consts = split_coordinates(lo, hi, n)
    m = len(free)
    steps = tuple((m + k + 1, pos + 1, alpha) for k, (pos, alpha) in enumerate(consts))
    return interned(m, n, coface_table(lo, free)), free, steps


@charged_cache(1 << 16)
def factorize(f: CubeMap) -> Factorization:
    """Split ``f`` into its endomap and coface parts.

    The constant coordinates of ``phi`` are the ones where the images of the
    bottom and top vertices agree (with that shared value); the remaining m
    coordinates, in increasing order, carry ``psi``, which is ``f`` read off
    on those coordinates.  Reconstruction is checked and a failure raises,
    which can only happen on a table that is not actually cotransverse.
    Results are memoised, since normal forms are requested constantly
    downstream, and every call, warm or cold, charges the ``n`` coordinates
    of :func:`coface_part`.
    """
    m = f.dom_dim
    phi, free, steps = coface_part(f.table[0], f.table[-1], f.cod_dim)
    if len(free) != m:
        raise ValueError("map does not span a face of the expected dimension")
    psi = interned(m, m, tuple(extract_bits(fx, free) for fx in f.table))

    if compose(phi, psi).table != f.table:
        raise ValueError(f"factorization failed to reconstruct {f.literal()}")
    return Factorization(psi, phi, free, steps)


@charged_cache(4096)
def decompose_coface(phi: CubeMap) -> tuple[tuple[int, int, int], ...]:
    """The elementary insertions of a coface composite, the ``steps`` of its
    factorization; raises when ``phi`` is not a composite of cofaces."""
    fac = factorize(phi)
    if not fac.psi.is_identity():
        raise ValueError(f"{phi.literal()} is not a composite of cofaces")
    return fac.steps


class FinalityReport(NamedTuple):
    """Outcome of checking that the canonical factorization is final among
    all (endomap, arbitrary) factorizations of a map.  A tuple: it also
    compares equal to the plain tuple of its fields."""

    ok: bool
    factorizations: int
    counterexample: tuple[CubeMap, CubeMap] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_factorization_final(f: CubeMap) -> FinalityReport:
    """Verify finality of the canonical factorization of ``f``.

    Enumerates every way of writing ``f = h o g`` with ``g`` an endomap of
    the source and ``h`` cotransverse, and checks that exactly one endomap
    ``k`` connects it to the canonical pair ``(phi, psi)``: ``psi = k o g``
    and ``h = phi o k``.
    """
    m, n = f.dom_dim, f.cod_dim
    canonical = factorize(f)
    endos = enumerate_homset(m, m)
    homs = enumerate_homset(m, n)

    count = 0
    for g in endos:
        for h in homs:
            if compose(h, g).table != f.table:
                continue
            count += 1
            connecting = [
                k
                for k in endos
                if compose(k, g).table == canonical.psi.table
                and compose(canonical.phi, k).table == h.table
            ]
            if len(connecting) != 1:
                return FinalityReport(
                    False,
                    count,
                    (h, g),
                    f"{len(connecting)} connecting endomaps instead of 1",
                )
    return FinalityReport(True, count)
