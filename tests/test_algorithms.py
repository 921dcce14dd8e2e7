import itertools
import random

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from gtexchange import (
    ALGORITHM_IDS,
    Link,
    apply_schedule,
    find_unique_set,
    run_algorithm,
    run_greedy_incremental,
    run_greedy_links,
    run_polygon,
    run_randomized,
    run_rarest_first,
    solve_optimal,
    upper_bound,
)
from gtexchange.core import exchange
from conftest import build_instance, instances, no_initial_universe_holder
from oracles import chain_by_inclusion, pair_scan_links, rarest_first_rows


def run_all(instance, seed=0):
    return [run_algorithm(alg, instance, seed=seed) for alg in ALGORITHM_IDS]


# ---------------------------------------------------------------- randomized


def test_randomized_two_nodes_any_seed():
    inst = build_instance(2, [0], [1])
    for seed in (0, 1, 99):
        assert run_randomized(inst, seed).alpha == 4


def test_randomized_identical_sets_do_nothing():
    inst = build_instance(2, [0], [0], [0])
    run = run_randomized(inst, 7)
    assert len(run.schedule) == 0
    assert run.alpha == 3 * 1
    assert run.rounds == 0


def test_randomized_is_deterministic_given_seed():
    inst = build_instance(6, [0, 1], [2, 3], [4, 5], [1, 2], [3, 4])
    a = run_randomized(inst, 1234)
    b = run_randomized(inst, 1234)
    assert a.schedule == b.schedule
    assert repr(a.schedule) == repr(b.schedule)
    assert a.final_state == b.final_state


# -------------------------------------------------------------- greedy links


def test_greedy_links_takes_the_only_link():
    inst = build_instance(3, [0, 1], [1, 2], [1])
    run = run_greedy_links(inst)
    assert run.schedule.link_list()[0] == Link(0, 1)


def test_greedy_links_first_choice_maximizes_resulting_links():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(3, 6)
        sets = []
        for _ in range(rng.randint(3, 5)):
            size = rng.randint(1, n - 1)
            sets.append(sorted(rng.sample(range(n), size)))
        inst = build_instance(n, *sets)
        masks = [s.mask for s in inst.initial_sets]
        available = pair_scan_links(masks)
        if not available:
            continue
        chosen = run_greedy_links(inst).schedule.records[0][:2]
        counts = {}
        for pair in available:
            after = list(masks)
            exchange(after, *pair)
            counts[pair] = len(pair_scan_links(after))
        assert counts[chosen] == max(counts.values())
        # ties go to the largest gain, then to the canonically smallest pair
        best = max(counts.values())
        tied = [p for p, c in counts.items() if c == best]
        gains = {p: _gain(masks, p) for p in tied}
        assert chosen == min(p for p in tied if gains[p] == max(gains.values()))


def _gain(masks, pair):
    a, b = (masks[i] for i in pair)
    return 2 * (a | b).bit_count() - a.bit_count() - b.bit_count()


def test_greedy_links_breaks_link_count_ties_by_gain():
    # after the first step three pairs leave no link alive; the lowest of
    # them ends at 17, the one with the largest gain at the optimum 18
    inst = build_instance(5, [0, 1, 2], [0, 1, 2], [0, 1, 3], [2, 3, 4])
    optimum = solve_optimal(inst)
    assert optimum.exact
    assert run_greedy_links(inst).alpha == 18 == optimum.alpha


def test_greedy_links_is_optimal_at_four_nodes_with_equal_k():
    # every sorted tuple of four k-subsets of n <= 5 segments, 1 <= k < n
    checked = 0
    for n in (4, 5):
        for k in range(1, n):
            subsets = list(itertools.combinations(range(n), k))
            for sets in itertools.combinations_with_replacement(subsets, 4):
                inst = build_instance(n, *sets)
                optimum = solve_optimal(inst)
                assert optimum.exact, sets
                assert run_greedy_links(inst).alpha == optimum.alpha, sets
                checked += 1
    assert checked == 1766


def test_greedy_links_reaches_full_coverage_when_optimum_does():
    # optimum is 4u here (singletons merge pairwise, then across)
    inst = build_instance(4, [0], [1], [2], [3])
    run = run_greedy_links(inst)
    optimum = solve_optimal(inst)
    assert optimum.exact
    assert run.alpha == 16 == optimum.alpha


# --------------------------------------------------------- greedy incremental


def test_greedy_incremental_weight_examples():
    # sets {0,1} and {1,2}: union 3, weight 2*3-2-2 = 2 segments gained
    inst = build_instance(3, [0, 1], [1, 2])
    _, _, gained_i, gained_j = run_greedy_incremental(inst).schedule.records[0]
    assert gained_i.bit_count() + gained_j.bit_count() == 2
    # disjoint pair of sizes a, b gains a + b
    inst = build_instance(5, [0, 1], [2, 3, 4])
    _, _, gained_i, gained_j = run_greedy_incremental(inst).schedule.records[0]
    assert gained_i.bit_count() + gained_j.bit_count() == 5


@given(instances(max_m=4, max_n=5))
def test_greedy_incremental_each_step_takes_the_max_gain(instance):
    run = run_greedy_incremental(instance)
    masks = [s.mask for s in instance.initial_sets]
    for i, j, _, _ in run.schedule.records:
        gains = {pair: _gain(masks, pair) for pair in pair_scan_links(masks)}
        assert gains[i, j] == max(gains.values())
        exchange(masks, i, j)


def test_two_nodes_all_algorithms_agree():
    inst = build_instance(4, [0, 1], [2, 3])
    assert {run.alpha for run in run_all(inst)} == {8}


# -------------------------------------------------------------- rarest first


def test_rarest_first_rows_hand_checked():
    # three nodes over four segments: {0,1}, {1,2}, {2,3}
    inst = build_instance(4, [0, 1], [1, 2], [2, 3])
    rows = rarest_first_rows([s.mask for s in inst.initial_sets], inst.n)
    assert rows == {
        Link(0, 1): (1, 1, 1, 0),
        Link(0, 2): (0, 2, 2, 0),
        Link(1, 2): (1, 1, 1, 0),
    }
    # (0,1) and (1,2) tie on the largest row; deterministic rule takes (0,1)
    run = run_rarest_first(inst)
    assert run.schedule.link_list()[0] == Link(0, 1)


def test_rarest_first_takes_the_only_link():
    inst = build_instance(3, [0, 1], [1, 2], [1])
    run = run_rarest_first(inst)
    assert run.schedule.link_list()[0] == Link(0, 1)


@given(instances(max_m=4, max_n=5))
def test_rarest_first_never_shrinks_availability(instance):
    run = run_rarest_first(instance)
    masks = [s.mask for s in instance.initial_sets]
    for i, j, _, _ in run.schedule.records:
        before = [sum(x >> e & 1 for x in masks) for e in range(instance.n)]
        exchange(masks, i, j)
        after = [sum(x >> e & 1 for x in masks) for e in range(instance.n)]
        assert all(b <= a for b, a in zip(before, after))


# ------------------------------------------------------------ unique holders


def test_find_unique_set_examples():
    # third node's contribution vanishes inside the union of the first two
    assert find_unique_set([0b011, 0b110, 0b101]) == [0, 1]
    # pairwise disjoint nonempty sets admit everyone
    assert find_unique_set([0b1, 0b110, 0b1000, 0b110000]) == [0, 1, 2, 3]
    # a duplicate contributes nothing new
    assert find_unique_set([0b1, 0b1]) == [0]


# ------------------------------------------------------------------- polygon


def test_polygon_even_singletons_reach_everything():
    inst = build_instance(4, [0], [1], [2], [3])
    run = run_polygon(inst)
    assert run.alpha == 16
    assert all(len(s) == 4 for s in run.final_state)


def test_polygon_odd_singletons_leave_one_node_short():
    inst = build_instance(7, [0], [1], [2], [3], [4], [5], [6])
    run = run_polygon(inst)
    assert run.alpha == 48
    short = [s for s in run.final_state if len(s) < 7]
    assert len(short) == 1 and len(short[0]) == 6
    assert not pair_scan_links([s.mask for s in run.final_state])


def test_polygon_without_enough_unique_holders_just_sweeps():
    inst = build_instance(3, [0], [0, 1])
    run = run_polygon(inst)
    assert run.alpha == 3
    assert run.rounds == 0
    assert len(run.schedule) == 0


def test_polygon_post_sweep_finishes_leftover_links():
    # unique-holder scan admits only nodes 0 and 2; the twin pair (1,3)
    # still links afterwards and must be mopped up by the sweep
    inst = build_instance(4, [0, 1], [0, 1], [2, 3], [2, 3])
    run = run_polygon(inst)
    assert run.alpha == 16
    assert run.post_sweep_steps == 1
    assert not pair_scan_links([s.mask for s in run.final_state])


def test_polygon_is_optimal_when_every_node_holds_a_unique_segment():
    rng = random.Random(11)
    checked = 0
    while checked < 120:
        m = rng.choice([2, 3, 4, 5])
        n = rng.randint(m, 7)
        sets = []
        for i in range(m):
            size = rng.randint(1, n - 1)
            sets.append(set(rng.sample(range(n), size)))
        inst = build_instance(n, *sets)
        masks = [s.mask for s in inst.initial_sets]
        unique_everywhere = all(
            masks[i] & ~_union_of_others(masks, i) for i in range(m)
        )
        if not unique_everywhere:
            continue
        checked += 1
        optimum = solve_optimal(inst)
        assert optimum.exact
        assert run_polygon(inst).alpha == optimum.alpha


def _union_of_others(masks, i):
    union = 0
    for j, mask in enumerate(masks):
        if j != i:
            union |= mask
    return union


# ------------------------------------------------------------------ tie rule


def test_tie_rule_validation():
    inst = build_instance(3, [0], [1])
    with pytest.raises(ValueError):
        run_greedy_links(inst, "coin-flip")
    for alg in ALGORITHM_IDS:
        with pytest.raises(ValueError, match="coin-flip"):
            run_algorithm(alg, inst, tie_mode="coin-flip")


def test_seeded_random_ties_are_reproducible():
    inst = build_instance(5, [0, 1], [1, 2], [2, 3], [3, 4])
    a = run_greedy_links(inst, "random", 42)
    b = run_greedy_links(inst, "random", 42)
    assert a.schedule == b.schedule
    assert not pair_scan_links([s.mask for s in a.final_state])


# ------------------------------------------------- shared run-level contracts


@given(instances(), st.integers(0, 2**32))
def test_every_run_is_maximal_and_replays_exactly(instance, seed):
    u = len(instance.realized_universe)
    slack = (instance.m * u - sum(map(len, instance.initial_sets))) // 2
    for run in run_all(instance, seed=seed):
        assert not pair_scan_links([s.mask for s in run.final_state])
        assert run.alpha == sum(map(len, run.final_state))
        assert len(run.schedule) <= slack
        replay_state, replay_trace = apply_schedule(instance, run.schedule.link_list())
        assert replay_state == run.final_state
        assert replay_trace == run.schedule


@given(instances())
def test_final_states_chain_and_crown_at_least_two_holders(instance):
    assume(no_initial_universe_holder(instance))
    universe = instance.realized_universe
    initial_sizes = sorted(len(s) for s in instance.initial_sets)
    floor = (
        2 * len(universe)
        + sum(initial_sizes)
        - initial_sizes[-1]
        - (initial_sizes[-2] if instance.m >= 2 else 0)
    )
    for run in run_all(instance, seed=3):
        holders = sum(1 for s in run.final_state if s == universe)
        assert holders >= 2
        assert chain_by_inclusion(run.final_state)
        assert run.alpha >= floor


@given(instances(), st.integers(0, 2**16))
def test_universe_holder_appears_iff_the_union_covers_it(instance, seed):
    """A node can end a maximal schedule holding all n segments exactly when
    the group collectively held all n segments to begin with."""
    covered = len(instance.realized_universe) == instance.n
    for run in run_all(instance, seed=seed):
        holder = any(len(s) == instance.n for s in run.final_state)
        assert holder == covered


@given(instances(max_m=4, max_n=5), st.integers(0, 2**16))
def test_no_run_beats_the_oracle(instance, seed):
    optimum = solve_optimal(instance)
    assert optimum.exact
    best = optimum.alpha
    for run in run_all(instance, seed=seed):
        assert run.alpha <= best
    if no_initial_universe_holder(instance):
        assert best <= upper_bound(instance)


def test_run_algorithm_rejects_unknown_id():
    inst = build_instance(2, [0], [1])
    with pytest.raises(ValueError):
        run_algorithm("magic", inst)
