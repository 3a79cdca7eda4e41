"""From vertex tables to maps of the solid cube, exactly.

A cotransverse endomap extends to [0,1]^n by a max-min formula; the result
permutes the coordinates of every single point (which coordinates go where
depends on their relative order), so it preserves the coordinate sum and
all finite directed L1 distances.  Everything below is exact rational
arithmetic; there are no tolerances anywhere.
"""

from fractions import Fraction as F

from transcube import (
    CubeMap,
    coface,
    compose,
    d1_point,
    d1_sym,
    d1_sym_witness,
    max_min_collapse,
    t_eval,
    t_eval_maxmin,
    t_eval_permutation,
)

# The square collapse becomes (x1, x2) |-> (max(x1, x2), min(x1, x2)).
gamma = max_min_collapse()
print("collapse at (1/3, 2/3):", t_eval(gamma, (F(1, 3), F(2, 3))))

# A 3-cube endomap that folds two faces onto an edge path.  Its components,
# read off the table, are max-min expressions in the coordinates.
fold = CubeMap.from_literal("3>3:0,4,4,6,4,5,6,7")
x = (F(1), F(1, 2), F(1, 4))
print("fold at (1, 1/2, 1/4):", t_eval(fold, x))

# Two independent evaluators: the literal max-min formula, and a sort-based
# one that walks the chain of vertices in coordinate order.  They agree on
# every input, exactly.
print("max-min:    ", t_eval_maxmin(fold, x))
print("permutation:", t_eval_permutation(fold, x))

# Non-endomaps evaluate by the same formula, read off the same table: an
# empty maximum is 0 and an empty minimum is 1, the constants a coface inserts.
print("\ncoface insertion:", t_eval(coface(1, 0, 2), (F(1, 2),)))
print(
    "composite:       ",
    t_eval(compose(coface(1, 0, 3), gamma), (F(1, 3), F(2, 3))),
)

# Functoriality: evaluating a composite equals evaluating in stages.
stagewise = t_eval(gamma, t_eval(gamma, x[:2]))
composite = t_eval(compose(gamma, gamma), x[:2])
print("\nfunctorial:", stagewise == composite)

# Directed and symmetric distances on the solid cube.
p, q = (F(0), F(1)), (F(1), F(0))
print("\nd1((0,1) -> (1,0)):", d1_point(p, q))
print("symmetric distance:", d1_sym(p, q), "through", d1_sym_witness(p, q))
