"""Vectorized exact evaluation over batches of integer-scaled points.

The check suites exercise millions of evaluations, far more than the
pointwise ``Fraction`` path can absorb.  Since both evaluators use only
comparisons, a batch of rational points with a common denominator can be
evaluated on the integer numerators without any loss of exactness: numpy
``min``/``max`` on int64 arrays never rounds.  Results agree entry for
entry with the pointwise evaluators, which the test suite asserts.

The max-min formula runs over the minimal preimage masks only: each
preimage list is an up-set of the source cube, and a minimum over a larger
mask never exceeds one over a smaller mask, so the smaller masks decide the
maximum (see :mod:`transcube.topo`).  Each mask's minimum is taken over
column views into one scratch buffer and folded into the output column in
place, so no fancy-indexed copy of the points is made.
"""

from __future__ import annotations

import numpy as np

from .cube import CubeMap
from .topo import _constant_ones


def t_eval_batch(f: CubeMap, pts: np.ndarray, denominator: int = 1) -> np.ndarray:
    """Evaluate ``f`` on every row of an integer coordinate array.

    ``pts`` has shape ``(N, dom_dim)``; coordinates are numerators over the
    common ``denominator``, also the value of a coordinate held at 1.
    Returns shape ``(N, cod_dim)``.
    """
    if pts.ndim != 2 or pts.shape[1] != f.dom_dim:
        raise ValueError(f"expected shape (N, {f.dom_dim}), got {pts.shape}")
    _constant_ones(f)  # charges a map into a larger cube
    out = np.empty((pts.shape[0], f.cod_dim), dtype=pts.dtype)
    scratch = np.empty(pts.shape[0], dtype=pts.dtype)
    for col, masks in zip(out.T, f.minimal_preimages()):
        if not masks or not masks[0]:
            col[...] = denominator if masks else 0
            continue
        for j, mask in enumerate(masks):
            cols = [k for k in range(f.dom_dim) if (mask >> k) & 1]
            term = pts[:, cols[0]]
            if len(cols) > 1:
                term = np.minimum(term, pts[:, cols[1]], out=scratch)
                for k in cols[2:]:
                    np.minimum(term, pts[:, k], out=term)
            if j:
                np.maximum(col, term, out=col)
            else:
                col[...] = term
    return out


def d1_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Directed L1 distances of row pairs; -1 marks the infinite case."""
    comparable = (xs <= ys).all(axis=1)
    sums = (ys - xs).sum(axis=1)
    return np.where(comparable, sums, -1)


def random_points(rng: np.random.Generator, n: int, count: int, denominator: int) -> np.ndarray:
    """Uniform integer-coordinate points of the scaled cube ``[0, D]^n``."""
    return rng.integers(0, denominator + 1, size=(count, n), dtype=np.int64)


def random_comparable_pairs(
    rng: np.random.Generator, n: int, count: int, denominator: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``x <= y`` drawn by lifting a random point by random slack."""
    xs = rng.integers(0, denominator + 1, size=(count, n), dtype=np.int64)
    slack = rng.integers(0, denominator + 1, size=(count, n), dtype=np.int64)
    ys = np.minimum(xs + slack, denominator)
    return xs, ys
