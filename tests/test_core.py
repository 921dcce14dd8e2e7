import pytest
from hypothesis import given
import hypothesis.strategies as st

from gtexchange import (
    Instance,
    InvalidActivationError,
    Link,
    SegmentSet,
    apply_schedule,
    solve_optimal,
    upper_bound,
)
from gtexchange.core import exchange, node_pairs, set_links
from conftest import build_instance, instances, relaxed_instances
from oracles import (
    brute_force_optimal,
    chain_by_inclusion,
    gt_masks,
    pair_scan_links,
    set_table,
)


def masks_of(*raw_sets):
    return [SegmentSet.from_iterable(s).mask for s in raw_sets]


# ---------------------------------------------------------------- SegmentSet


def test_segment_set_basics():
    s = SegmentSet.from_iterable([2, 0, 2])
    assert len(s) == 2
    assert 0 in s and 2 in s and 1 not in s
    assert list(s) == [0, 2]
    assert s.to_list() == [0, 2]
    assert repr(s) == "SegmentSet([0, 2])"
    assert s.mask == 0b101
    assert not SegmentSet() and len(SegmentSet()) == 0


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


@pytest.mark.parametrize("m, n", [(2.0, 5), (2, 5.0), (True, 5), (2, True), ("2", 5)])
def test_instance_sizes_must_be_exact_ints(m, n):
    # a bool would be written to a file as true, which no loader takes back
    sets = (SegmentSet.from_iterable([0]), SegmentSet.from_iterable([1]))
    with pytest.raises(ValueError, match="must be integers"):
        Instance(m=m, n=n, initial_sets=sets)


def test_instance_set_count_must_match_m():
    with pytest.raises(ValueError):
        Instance(m=3, n=4, initial_sets=(SegmentSet.from_iterable([0]),) * 2)


def test_instance_accepts_empty_and_full_sets():
    # any subset of the universe is a valid initial set
    inst = build_instance(2, [], [0, 1])
    assert [len(s) for s in inst.initial_sets] == [0, 2]
    assert build_instance(2, [], []).realized_universe.mask == 0


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
    assert {len(s) for s in inst.initial_sets} == {1, 2}
    inst2 = build_instance(4, [0, 1], [2, 3])
    assert {len(s) for s in inst2.initial_sets} == {2}


# ------------------------------------------------------------ give-and-take


def test_gt_satisfied_examples():
    linked = masks_of([0, 1], [1, 2])
    subset = masks_of([0], [0, 1])  # subset pairs never link
    same = masks_of([0, 1], [0, 1])  # identical sets never link
    assert gt_masks(*linked) and list(set_links(linked)) == [tuple(linked)]
    for masks in (subset, same):
        assert not gt_masks(*masks) and not list(set_links(masks))


# --------------------------------------------------------------------- links


def test_links_examples():
    assert node_pairs(*set_table(masks_of([0], [1]))) == [(0, 1)]
    assert node_pairs(*set_table(masks_of([0], [0], [0]))) == []
    # node 2 is a superset of both others, so only (0,1) links
    assert node_pairs(*set_table(masks_of([0, 1], [1, 2], [0, 1, 2]))) == [(0, 1)]


@given(instances())
def test_links_match_pair_scan(instance):
    masks = [s.mask for s in instance.initial_sets]
    assert sorted(node_pairs(*set_table(masks))) == pair_scan_links(masks)


# ------------------------------------------------------------------ activate


def test_activate_union_semantics():
    masks = masks_of([0, 1], [1, 2])
    exchange(masks, 0, 1)
    assert masks == masks_of([0, 1, 2], [0, 1, 2])


def test_activate_is_order_insensitive():
    forward, backward = masks_of([0, 1], [1, 2]), masks_of([0, 1], [1, 2])
    assert exchange(forward, 0, 1) == exchange(backward, 1, 0)
    assert forward == backward


def test_activate_rejects_subset_pair():
    masks = masks_of([0], [0, 1])
    with pytest.raises(InvalidActivationError) as err:
        exchange(masks, 1, 0)
    assert "(0,1)" in str(err.value)


def test_activate_leaves_other_nodes_alone():
    masks = masks_of([0], [1], [2, 3])
    exchange(masks, 0, 1)
    assert masks[2] == 0b1100


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
    inst = build_instance(3, [0], [1, 2])
    final, trace = apply_schedule(inst, [Link(1, 0)])
    # node 0 gained {1,2}, node 1 gained {0}
    assert trace.records == ((0, 1, 0b110, 0b001),)
    assert trace.link_list() == [Link(0, 1)]
    assert final[0] == final[1] == SegmentSet.from_iterable([0, 1, 2])


def test_out_of_range_nodes_are_value_errors():
    with pytest.raises(ValueError, match="out of range"):
        apply_schedule(build_instance(3, [0], [1]), [Link(0, 2)])


@given(instances())
def test_activation_invariants(instance):
    """Endpoints strictly grow, others stay, realized universe is conserved,
    and the aggregate cardinality gains at least 2 per activation."""
    masks = [s.mask for s in instance.initial_sets]
    universe = instance.realized_universe.mask
    for i, j in node_pairs(*set_table(masks)):
        out = list(masks)
        _, _, gained_i, gained_j = exchange(out, i, j)
        assert gained_i and gained_j
        assert out[i] == out[j] == masks[i] | masks[j]
        assert out[i] == masks[i] | gained_i and out[j] == masks[j] | gained_j
        assert not masks[i] & gained_i and not masks[j] & gained_j
        for t in range(instance.m):
            if t not in (i, j):
                assert out[t] == masks[t]
        union = 0
        for mask in out:
            union |= mask
        assert union == universe
        gain = sum(x.bit_count() for x in out) - sum(x.bit_count() for x in masks)
        assert gain == gained_i.bit_count() + gained_j.bit_count() >= 2


# ---------------------------------------------------------------- maximality


def test_is_maximal_examples():
    assert next(set_links(masks_of([0], [0, 1])), None) is None
    assert next(set_links(masks_of([0], [1])), None) == (0b01, 0b10)


def test_saturating_any_state_reaches_a_maximal_chain():
    masks = masks_of([0, 4], [1], [2, 3], [0, 2])
    while pairs := node_pairs(*set_table(masks)):
        exchange(masks, *pairs[0])
    assert not pair_scan_links(masks)
    assert chain_by_inclusion(tuple(map(SegmentSet, masks)))


# ---------------------------------------------------------------- replay


def test_apply_schedule_empty_is_identity():
    inst = build_instance(2, [0], [1])
    final, trace = apply_schedule(inst, [])
    assert final == inst.initial_sets
    assert len(trace) == 0


def test_apply_schedule_single_link():
    inst = build_instance(2, [0], [1])
    final, trace = apply_schedule(inst, [Link(0, 1)])
    assert sum(map(len, final)) == 4 and len(trace) == 1
    assert trace.records == ((0, 1, 0b10, 0b01),)


def test_apply_schedule_reports_failing_step():
    inst = build_instance(3, [0], [1], [2])
    with pytest.raises(InvalidActivationError) as err:
        apply_schedule(inst, [Link(0, 1), Link(0, 1)])
    assert "step 2" in str(err.value)


# --------------------------------------------------------------- upper_bound


def test_upper_bound_examples():
    assert upper_bound(build_instance(5, [0], [1], [2], [3, 4])) == 20
    assert upper_bound(build_instance(3, [0], [1], [2])) == 8
    assert upper_bound(build_instance(2, [0], [0])) == 2
    # node 0 starts with the realized universe, so the bound is not m*u = 4
    assert upper_bound(build_instance(5, [0, 1], [0])) == 3


def test_upper_bound_counts_initial_universe_holders():
    """Node 0 holds the realized universe from the start and never changes,
    so the other two may both reach it: the optimum is 3 * 2."""
    instance = build_instance(2, [0, 1], [0], [1])
    optimum = solve_optimal(instance)
    assert optimum.exact
    assert upper_bound(instance) == 6 == optimum.alpha


@given(relaxed_instances(max_m=5, max_n=4))
def test_upper_bound_caps_the_optimum_of_relaxed_instances(instance):
    assert brute_force_optimal(instance) <= upper_bound(instance)


@given(instances())
def test_schedule_length_is_bounded(instance):
    """Every activation gains >= 2, so schedules cannot exceed the slack."""
    masks = [s.mask for s in instance.initial_sets]
    u = len(instance.realized_universe)
    slack = (instance.m * u - sum(map(len, instance.initial_sets))) / 2
    count = 0
    while pairs := node_pairs(*set_table(masks)):
        exchange(masks, *pairs[0])
        count += 1
    assert count <= slack
