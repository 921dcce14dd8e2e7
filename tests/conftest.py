import random

import hypothesis.strategies as st
from hypothesis import settings

from gtexchange import Instance, SegmentSet

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
