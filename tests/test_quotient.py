from __future__ import annotations

import random

import pytest

from transcube.quotient import QuotientSet


@pytest.mark.parametrize("seed", range(25))
def test_len_counts_the_classes(seed):
    rnd = random.Random(seed)
    size = rnd.randint(0, 40)
    q = QuotientSet(range(size))
    assert len(q) == len(q.classes()) == size
    for _ in range(rnd.randint(0, 2 * size)):
        q.identify(rnd.randrange(size), rnd.randrange(size))
        assert len(q) == len(q.classes())
    assert q.is_empty() == (size == 0)
