import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from gtexchange import Instance, SegmentSet
from gtexchange.harness import gen_instance

settings.register_profile("dev", max_examples=60, deadline=None)
settings.load_profile("dev")


def build_instance(n, *raw_sets):
    """Instance from 0-based member lists, e.g. build_instance(3, [0], [1, 2])."""
    return Instance(
        m=len(raw_sets),
        n=n,
        initial_sets=tuple(SegmentSet.from_iterable(s) for s in raw_sets),
    )


@st.composite
def instances(draw, min_m=2, max_m=5, min_n=2, max_n=6):
    """Random instances in which every node gets a nonempty proper subset."""
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    sets = tuple(
        SegmentSet.from_iterable(
            draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        )
        for _ in range(m)
    )
    return Instance(m=m, n=n, initial_sets=sets)


@st.composite
def relaxed_instances(draw, max_m=7, max_n=6):
    """Random instances in which nodes may also start empty or with the
    whole universe."""
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    sets = tuple(SegmentSet(draw(st.integers(0, (1 << n) - 1))) for _ in range(m))
    return Instance(m=m, n=n, initial_sets=sets)


def no_initial_universe_holder(instance):
    """True when no node starts out already holding the realized universe."""
    union = instance.realized_universe.mask
    return all(s.mask != union for s in instance.initial_sets)


def deep_instance():
    """An instance whose oracle search runs past its budget, hundreds of
    activations deep: gen_instance(60, 100, 2, 27) plus a shared segment
    every node holds and a 61st node holding only that segment.  That node
    never links, so no schedule meets the parity bound and the search cannot
    stop early.  Its first 800 states reach a leaf at 4261, above all five
    heuristics (at most 4253), along a 318-step path."""
    base = gen_instance(60, 100, 2, 27)
    shared = 1 << base.n
    sets = tuple(SegmentSet(s.mask | shared) for s in base.initial_sets)
    return Instance(m=base.m + 1, n=base.n + 1, initial_sets=sets + (SegmentSet(shared),))


@pytest.fixture
def low_recursion_limit():
    """Python's recursion limit, lowered to 250 for one test and then restored:
    a search that went deeper by recursion would die with RecursionError."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    yield 250
    sys.setrecursionlimit(old)


def criterion_03_grid():
    """The 200 small instances acceptance criterion 03 checks the oracle
    on: two to four nodes over two to five segments, each node holding a
    nonempty proper subset."""
    rng = random.Random(31337)
    for _ in range(200):
        m = rng.choice([2, 3, 4])
        n = rng.randint(2, 5)
        sets = tuple(
            SegmentSet.from_iterable(rng.sample(range(n), rng.randint(1, n - 1)))
            for _ in range(m)
        )
        yield Instance(m=m, n=n, initial_sets=sets)
