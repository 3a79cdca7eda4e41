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


@pytest.mark.parametrize("seed", range(25))
def test_classes_match_connected_components(seed):
    # Oracle: breadth-first search over the identification graph.
    rnd = random.Random(seed)
    elements = rnd.sample(range(1000), rnd.randint(0, 40))
    q = QuotientSet(elements)
    edges: dict[int, list[int]] = {e: [] for e in elements}
    for _ in range(rnd.randint(0, len(elements))):
        a, b = rnd.choice(elements), rnd.choice(elements)
        q.identify(a, b)
        edges[a].append(b)
        edges[b].append(a)
    components, seen = [], set()
    for e in elements:  # first members in registration order
        if e in seen:
            continue
        seen.add(e)
        component, frontier = {e}, [e]
        while frontier:
            frontier = [y for x in frontier for y in edges[x] if y not in seen]
            seen.update(frontier)
            component.update(frontier)
        components.append([x for x in elements if x in component])
    assert q.classes() == components
    assert q.representatives() == [c[0] for c in components]
    assert len(q) == len(components)
    for c in components:
        assert all(q.class_of(e) == c[0] for e in c)
