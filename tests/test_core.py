import pytest
from hypothesis import given
import hypothesis.strategies as st

from gtexchange import (
    Instance,
    InvalidActivationError,
    Link,
    SegmentSet,
    SystemState,
    activate,
    activate_traced,
    aggregate_cardinality,
    apply_schedule,
    gt_satisfied,
    initial_state,
    is_maximal,
    links,
    solve_optimal,
    upper_bound,
)
from gtexchange.core import exchange
from conftest import build_instance, instances, relaxed_instances
from oracles import brute_force_optimal, chain_by_inclusion, pair_scan_links


def state_of(n, *raw_sets):
    return SystemState(sets=tuple(SegmentSet.from_iterable(s) for s in raw_sets))


# ---------------------------------------------------------------- SegmentSet


def test_segment_set_basics():
    s = SegmentSet.from_iterable([2, 0, 2])
    assert len(s) == 2
    assert 0 in s and 2 in s and 1 not in s
    assert list(s) == [0, 2]
    assert s.to_list() == [0, 2]
    assert repr(s) == "SegmentSet([0, 2])"
    t = SegmentSet.from_iterable([1, 2])
    assert (s | t).to_list() == [0, 1, 2]
    assert (s & t).to_list() == [2]
    assert (s - t).to_list() == [0]
    assert not SegmentSet()
    assert SegmentSet().issubset(s) and s.issubset(s)
    assert not t.issubset(s)


def test_segment_set_rejects_negative_index():
    with pytest.raises(ValueError):
        SegmentSet.from_iterable([-1])


# ---------------------------------------------------------------------- Link


def test_link_canonical_order():
    assert Link(3, 1) == Link(1, 3)
    assert Link(1, 3).i == 1 and Link(3, 1).j == 3
    assert sorted([Link(2, 3), Link(0, 5), Link(0, 1)]) == [
        Link(0, 1),
        Link(0, 5),
        Link(2, 3),
    ]


def test_link_rejects_degenerate_pairs():
    with pytest.raises(ValueError):
        Link(2, 2)
    with pytest.raises(ValueError):
        Link(-1, 2)


# ------------------------------------------------------------------ Instance


def test_instance_validation():
    with pytest.raises(ValueError):
        build_instance(3, [0])  # m < 2
    with pytest.raises(ValueError):
        Instance(m=2, n=0, initial_sets=(SegmentSet(), SegmentSet()))
    with pytest.raises(ValueError):
        build_instance(2, [0], [5], [1])  # member outside the universe


def test_instance_set_count_must_match_m():
    with pytest.raises(ValueError):
        Instance(m=3, n=4, initial_sets=(SegmentSet.from_iterable([0]),) * 2)


def test_instance_strict_mode_rejects_empty_and_full():
    with pytest.raises(ValueError):
        build_instance(2, [], [0])
    with pytest.raises(ValueError):
        build_instance(2, [0, 1], [0])
    relaxed = build_instance(2, [0, 1], [0], strict=False)
    assert relaxed.m == 2


def test_instance_universe_cap():
    with pytest.raises(ValueError):
        Instance(
            m=2,
            n=5000,
            initial_sets=(
                SegmentSet.from_iterable([0]),
                SegmentSet.from_iterable([1]),
            ),
        )


def test_instance_derived_properties():
    inst = build_instance(5, [0, 1], [1, 2], [3])
    assert inst.realized_universe.to_list() == [0, 1, 2, 3]
    assert inst.equal_cardinality is None
    inst2 = build_instance(4, [0, 1], [2, 3])
    assert inst2.equal_cardinality == 2


# -------------------------------------------------------------- gt_satisfied


def test_gt_satisfied_examples():
    st_ = state_of(3, [0, 1], [1, 2])
    assert gt_satisfied(st_, 0, 1)
    st_ = state_of(2, [0], [0, 1])  # subset pairs never link
    assert not gt_satisfied(st_, 0, 1)
    st_ = state_of(2, [0, 1], [0, 1])  # identical sets never link
    assert not gt_satisfied(st_, 0, 1)


def test_gt_satisfied_argument_errors():
    st_ = state_of(2, [0], [1])
    with pytest.raises(ValueError):
        gt_satisfied(st_, 0, 2)
    with pytest.raises(ValueError):
        gt_satisfied(st_, 1, 1)


# --------------------------------------------------------------------- links


def test_links_examples():
    assert links(state_of(2, [0], [1])) == {Link(0, 1)}
    assert links(state_of(1, [0], [0], [0])) == set()
    # node 2 is a superset of both others, so only (0,1) links
    assert links(state_of(3, [0, 1], [1, 2], [0, 1, 2])) == {Link(0, 1)}


@given(instances())
def test_links_match_pair_scan(instance):
    state = initial_state(instance)
    assert {(l.i, l.j) for l in links(state)} == pair_scan_links(state)


# ------------------------------------------------------------------ activate


def test_activate_union_semantics():
    st_ = state_of(3, [0, 1], [1, 2])
    out = activate(st_, Link(0, 1))
    assert out.sets[0].to_list() == [0, 1, 2]
    assert out.sets[1].to_list() == [0, 1, 2]
    assert out.step == 1


def test_activate_is_order_insensitive():
    st_ = state_of(3, [0, 1], [1, 2])
    assert activate(st_, Link(0, 1)) == activate(st_, Link(1, 0))


def test_activate_rejects_subset_pair():
    st_ = state_of(2, [0], [0, 1])
    with pytest.raises(InvalidActivationError) as err:
        activate(st_, Link(0, 1))
    assert "(0,1)" in str(err.value)


def test_activate_leaves_other_nodes_alone():
    st_ = state_of(4, [0], [1], [2, 3])
    out = activate(st_, Link(0, 1))
    assert out.sets[2] == st_.sets[2]


def test_exchange_orders_the_pair_and_updates_both_masks_in_place():
    masks = [0b0001, 0b0010, 0b0110, 0b1000, 0b0100, 0b1001]
    # the record orders the pair: node 2 held {1,2} and gains node 5's {0,3};
    # node 5 gains {1,2}
    assert exchange(masks, 5, 2) == (2, 5, 0b1001, 0b0110)
    assert masks == [0b0001, 0b0010, 0b1111, 0b1000, 0b0100, 0b1111]


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (1, 2)])
def test_exchange_rejects_subset_and_equal_pairs_untouched(pair):
    masks = [0b01, 0b11, 0b11]
    with pytest.raises(InvalidActivationError):
        exchange(masks, *pair)
    assert masks == [0b01, 0b11, 0b11]


def test_traced_gains_follow_the_canonical_link():
    state = state_of(3, [0], [1, 2])
    out, step = activate_traced(state, Link(1, 0))
    assert step.link == Link(0, 1)
    assert step.gained_i == SegmentSet.from_iterable([1, 2])  # what node 0 gained
    assert step.gained_j == SegmentSet.from_iterable([0])
    assert out.sets[0] == out.sets[1] == SegmentSet.from_iterable([0, 1, 2])


def test_out_of_range_nodes_are_value_errors():
    state = state_of(3, [0], [1])
    with pytest.raises(ValueError, match="out of range"):
        activate_traced(state, Link(0, 2))
    with pytest.raises(ValueError, match="out of range"):
        apply_schedule(build_instance(3, [0], [1]), [Link(0, 2)])


@given(instances())
def test_activation_invariants(instance):
    """Endpoints strictly grow, others stay, realized universe is conserved,
    and the aggregate cardinality gains at least 2 per activation."""
    state = initial_state(instance)
    universe = instance.realized_universe.mask
    for link in sorted(links(state)):
        out, step = activate_traced(state, link)
        assert len(step.gained_i) >= 1 and len(step.gained_j) >= 1
        assert state.sets[link.i].issubset(out.sets[link.i])
        assert state.sets[link.j].issubset(out.sets[link.j])
        assert len(out.sets[link.i]) > len(state.sets[link.i])
        assert len(out.sets[link.j]) > len(state.sets[link.j])
        for t in range(instance.m):
            if t not in (link.i, link.j):
                assert out.sets[t] == state.sets[t]
        union = 0
        for s in out.sets:
            union |= s.mask
        assert union == universe
        gain = aggregate_cardinality(out) - aggregate_cardinality(state)
        assert gain == len(step.gained_i) + len(step.gained_j) >= 2


# ---------------------------------------------------------------- is_maximal


def test_is_maximal_examples():
    assert is_maximal(state_of(2, [0], [0, 1]))
    assert not is_maximal(state_of(2, [0], [1]))


def test_saturating_any_state_reaches_a_maximal_chain():
    state = initial_state(build_instance(5, [0, 4], [1], [2, 3], [0, 2]))
    while not is_maximal(state):
        state = activate(state, min(links(state)))
    assert chain_by_inclusion(state)


# ------------------------------------------------------- aggregate & replay


def test_aggregate_cardinality_examples():
    assert aggregate_cardinality(state_of(3, [0, 1], [1, 2], [2])) == 5
    full = [0, 1, 2, 3, 4]
    assert aggregate_cardinality(state_of(5, full, full, full, full)) == 20


def test_apply_schedule_empty_is_identity():
    inst = build_instance(2, [0], [1])
    final, trace = apply_schedule(inst, [])
    assert final == initial_state(inst)
    assert len(trace) == 0


def test_apply_schedule_single_link():
    inst = build_instance(2, [0], [1])
    final, trace = apply_schedule(inst, [Link(0, 1)])
    assert aggregate_cardinality(final) == 4
    assert trace.steps[0].gained_i.to_list() == [1]


def test_apply_schedule_reports_failing_step():
    inst = build_instance(3, [0], [1], [2])
    with pytest.raises(InvalidActivationError) as err:
        apply_schedule(inst, [Link(0, 1), Link(0, 1)])
    assert "step 2" in str(err.value)


# --------------------------------------------------------------- upper_bound


def test_upper_bound_examples():
    assert upper_bound(build_instance(5, [0], [1], [2], [3, 4])) == 20
    assert upper_bound(build_instance(3, [0], [1], [2])) == 8
    assert upper_bound(build_instance(2, [0], [0], strict=False)) == 2


def test_upper_bound_counts_initial_universe_holders():
    """Node 0 holds the realized universe from the start and never changes,
    so the other two may both reach it: the optimum is 3 * 2."""
    instance = build_instance(2, [0, 1], [0], [1], strict=False)
    optimum = solve_optimal(instance)
    assert optimum.exact
    assert upper_bound(instance) == 6 == optimum.alpha


@given(relaxed_instances(max_m=5, max_n=4))
def test_upper_bound_caps_the_optimum_of_relaxed_instances(instance):
    assert brute_force_optimal(instance) <= upper_bound(instance)


@given(instances())
def test_schedule_length_is_bounded(instance):
    """Every activation gains >= 2, so schedules cannot exceed the slack."""
    state = initial_state(instance)
    u = len(instance.realized_universe)
    slack = (instance.m * u - aggregate_cardinality(state)) / 2
    count = 0
    while not is_maximal(state):
        state = activate(state, min(links(state)))
        count += 1
    assert count <= slack
