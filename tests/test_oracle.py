import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from gtexchange import (
    ALGORITHM_IDS,
    Instance,
    Link,
    SearchLimits,
    SegmentSet,
    apply_schedule,
    canonical_key,
    run_algorithm,
    solve_optimal,
    upper_bound,
)
import gtexchange.oracle as oracle_module
from gtexchange.core import exchange, set_links, set_table
from gtexchange.harness import derive_seed, gen_instance
from conftest import (
    build_instance,
    criterion_03_grid,
    deep_instance,
    instances,
    no_initial_universe_holder,
    relaxed_instances,
)
from oracles import (
    brute_force_optimal,
    chain_by_inclusion,
    counted_ranks,
    enumerate_maximal_schedules,
    enumeration_optimal,
    pair_scan_links,
)

# greedy-links reaches 18 here while the optimum is 20, so the presolve
# cannot certify this instance and the full search must run
GREEDY_SUBOPTIMAL = ([0, 1], [0, 2], [0, 1, 3], [2, 3, 4])


def test_optimal_examples():
    result = solve_optimal(build_instance(2, [0], [1]))
    assert result.exact and result.alpha == 4
    assert result.witness.link_list() == [Link(0, 1)]

    result = solve_optimal(build_instance(3, [0], [1], [2]))
    assert result.exact
    assert result.alpha == 8  # odd node count: one node always stays short

    result = solve_optimal(build_instance(3, [0], [0, 1]))
    assert result.exact and result.alpha == 3
    assert len(result.witness) == 0


def test_search_goes_beyond_the_greedy_presolve():
    inst = build_instance(5, *GREEDY_SUBOPTIMAL)
    assert run_algorithm("glink", inst).alpha == 18
    result = solve_optimal(inst)
    assert result.exact and result.alpha == 20
    final, _ = apply_schedule(inst, result.witness.link_list())
    assert sum(map(len, final)) == 20
    assert not pair_scan_links([s.mask for s in final])


@given(instances(max_m=4, max_n=5))
def test_memoized_equals_brute_force_and_enumeration(instance):
    result = solve_optimal(instance)
    assert result.exact
    assert result.alpha == brute_force_optimal(instance)
    assert result.alpha == enumeration_optimal(instance)


@given(instances(max_m=4, max_n=5))
def test_witness_replays_to_the_optimum(instance):
    result = solve_optimal(instance)
    assert result.exact
    final, _ = apply_schedule(instance, result.witness.link_list())
    assert sum(map(len, final)) == result.alpha
    assert not pair_scan_links([s.mask for s in final])


@given(instances(max_m=4, max_n=5), st.integers(0, 2**16))
def test_oracle_dominates_every_algorithm(instance, seed):
    result = solve_optimal(instance)
    assert result.exact
    for alg in ALGORITHM_IDS:
        assert run_algorithm(alg, instance, seed=seed).alpha <= result.alpha


@given(instances(max_m=4, max_n=5), st.randoms(use_true_random=False))
def test_relabelled_nodes_share_a_key_and_an_optimum(instance, rng):
    order = list(range(instance.m))
    rng.shuffle(order)
    permuted = Instance(
        m=instance.m,
        n=instance.n,
        initial_sets=tuple(instance.initial_sets[i] for i in order),
    )
    assert canonical_key(s.mask for s in permuted.initial_sets) == canonical_key(
        s.mask for s in instance.initial_sets
    )
    relabelled, original = solve_optimal(permuted), solve_optimal(instance)
    assert relabelled.exact and original.exact
    assert relabelled.alpha == original.alpha


@given(instances(max_m=4, max_n=5))
def test_oracle_bounds(instance):
    assume(no_initial_universe_holder(instance))
    result = solve_optimal(instance)
    assert result.exact
    alpha = result.alpha
    assert alpha <= upper_bound(instance)
    sizes = sorted(len(s) for s in instance.initial_sets)
    floor = 2 * len(instance.realized_universe) + sum(sizes) - sizes[-1] - sizes[-2]
    assert alpha >= floor


# -------------------------------------------------------------------- limits


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        SearchLimits(max_states=0)
    with pytest.raises(ValueError):
        SearchLimits(max_seconds=0)
    with pytest.raises(ValueError):
        SearchLimits(max_seconds=float("nan"))  # would never expire
    # a bool is an int to Python, but no budget
    with pytest.raises(ValueError):
        SearchLimits(max_states=True)
    with pytest.raises(ValueError):
        SearchLimits(max_seconds=True)
    with pytest.raises(ValueError):
        SearchLimits(max_states=2.5)
    # the deadline is a float: an int past float range is no budget either
    with pytest.raises(ValueError, match="too large"):
        SearchLimits(max_seconds=10**400)
    assert SearchLimits(max_seconds=float("inf")).max_seconds == float("inf")


def test_budget_overrun_reports_a_lower_bound():
    inst = build_instance(5, *GREEDY_SUBOPTIMAL)
    result = solve_optimal(inst, SearchLimits(max_states=1, max_seconds=60))
    assert result.exact is False
    assert result.visited == 2  # the root, then the state past the budget
    assert result.alpha == 18  # the greedy presolve's value
    final, _ = apply_schedule(inst, result.witness.link_list())
    assert sum(map(len, final)) == 18
    assert not pair_scan_links([s.mask for s in final])


def test_solve_optimal_flags_inexact_results():
    inst = build_instance(5, *GREEDY_SUBOPTIMAL)
    result = solve_optimal(inst, SearchLimits(max_states=1, max_seconds=60))
    assert not result.exact
    assert result.alpha == 18
    exact = solve_optimal(inst)
    assert exact.exact and exact.alpha == 20


# (alpha, exact) of solve_optimal(gen_instance(15, 20, 5, seed)) for seeds
# 0-39, recorded with the search as it was before the incumbent and the child
# order, which tried children in mask order, at max_states=1_500_000; on
# seeds 12 and 33 it stopped at the lower bounds shown
UNORDERED_OPTIMA = [
    (299, True), (299, True), (284, True), (299, True), (299, True),
    (299, True), (299, True), (269, True), (299, True), (299, True),
    (299, True), (284, True), (297, False), (299, True), (284, True),
    (299, True), (284, True), (284, True), (284, True), (299, True),
    (299, True), (299, True), (284, True), (299, True), (299, True),
    (299, True), (284, True), (299, True), (299, True), (299, True),
    (299, True), (299, True), (299, True), (296, False), (299, True),
    (299, True), (299, True), (299, True), (284, True), (299, True),
]


def test_certified_optima_match_the_unordered_search():
    limits = SearchLimits(max_states=50_000)
    for seed, (recorded, recorded_exact) in enumerate(UNORDERED_OPTIMA):
        inst = gen_instance(15, 20, 5, seed)
        result = solve_optimal(inst, limits)
        assert result.exact, seed
        if recorded_exact:
            assert result.alpha == recorded, seed
        else:
            assert recorded < result.alpha <= upper_bound(inst), seed


@given(st.one_of(instances(max_m=6, max_n=6), relaxed_instances()), st.randoms())
def test_upper_bound_is_the_same_along_random_maximal_schedules(instance, rng):
    # holders of the realized universe appear two at a time, and exchanges
    # keep the realized universe, so one bound serves every state of a search
    bound = upper_bound(instance)
    masks = [s.mask for s in instance.initial_sets]
    while available := pair_scan_links(masks):
        exchange(masks, *rng.choice(available))
        sets = tuple(map(SegmentSet, masks))
        assert upper_bound(Instance(instance.m, instance.n, sets)) == bound


def _best_heuristic_run(instance):
    runs = [run_algorithm(alg, instance) for alg in ALGORITHM_IDS]
    return max(runs, key=lambda run: run.alpha)


def test_seeded_and_unseeded_searches_agree_on_the_criterion_03_grid():
    for instance in criterion_03_grid():
        seeded = solve_optimal(instance, incumbent=_best_heuristic_run(instance))
        unseeded = solve_optimal(instance)
        assert seeded.exact and unseeded.exact
        assert seeded.alpha == unseeded.alpha
        final, _ = apply_schedule(instance, seeded.witness.link_list())
        assert sum(map(len, final)) == seeded.alpha


def test_overrun_reports_no_less_than_the_incumbent():
    # on this instance the batch's rand run reaches 298, one more than
    # greedy-links and one short of the bound, and the search seeded with
    # it does not finish within 2000 states
    instance = gen_instance(15, 20, 5, derive_seed(0, 99, "instance"))
    rand = run_algorithm("rand", instance, seed=derive_seed(0, 99, "alg", "rand"))
    assert rand.alpha > run_algorithm("glink", instance).alpha
    for max_states in (1, 2000):
        result = solve_optimal(
            instance, SearchLimits(max_states=max_states), incumbent=rand
        )
        assert not result.exact
        assert result.alpha >= rand.alpha
        final, _ = apply_schedule(instance, result.witness.link_list())
        assert sum(map(len, final)) == result.alpha


def test_search_aborts_past_its_deadline_with_a_replayable_witness(monkeypatch):
    # run 654 of master seed 0 takes 9,251 states to certify; the clock
    # jumps past the deadline once the search has read it, so the first
    # deadline check, at the 1,024th state, aborts
    instance = gen_instance(15, 20, 5, 2369061248348532987)
    readings = iter([0.0])
    monkeypatch.setattr(
        "gtexchange.oracle.time.monotonic", lambda: next(readings, float("inf"))
    )
    result = solve_optimal(instance)
    assert result.exact is False
    assert result.visited == 1024
    assert result.alpha >= run_algorithm("glink", instance).alpha
    final, _ = apply_schedule(instance, result.witness.link_list())
    assert sum(map(len, final)) == result.alpha


def test_search_without_an_incumbent_still_certifies():
    # with no incumbent the search starts from its greedy-links presolve
    for t in range(10):
        instance = gen_instance(15, 20, 5, derive_seed(0, t, "instance"))
        assert solve_optimal(instance).exact


def test_deep_search_reports_an_overrun_instead_of_overflowing_the_stack(
    low_recursion_limit,
):
    # the search's best leaf beats its greedy-links presolve, so the witness
    # is the search's own path, and it is deeper than the recursion limit
    instance = deep_instance()
    result = solve_optimal(instance, SearchLimits(max_states=800))
    assert not result.exact
    assert result.visited == 801
    assert result.alpha > run_algorithm("glink", instance).alpha
    assert len(result.witness) > low_recursion_limit
    final, _ = apply_schedule(instance, result.witness.link_list())
    assert sum(map(len, final)) == result.alpha


def test_run_19_of_the_small_preset_certifies_at_the_parity_bound():
    # the instance a pair-order child ranking could not certify in 60 s
    instance = gen_instance(15, 20, 5, derive_seed(0, 19, "instance"))
    result = solve_optimal(instance, incumbent=_best_heuristic_run(instance))
    assert result.exact
    assert result.alpha == upper_bound(instance) == 284
    final, _ = apply_schedule(instance, result.witness.link_list())
    assert sum(map(len, final)) == 284
    assert not pair_scan_links([s.mask for s in final])


# (run of master seed 0 at (15,20,5), state budget) -> (visited, memo, exact,
# alpha) of a search with its greedy-links presolve, recorded while every
# state counted its links-alive scores afresh on the search's return path
SIBLING_SEARCHES = {
    (19, 2000): (33, 33, True, 284),
    (53, 300): (301, 271, False, 297),
    (53, 1500): (1501, 1473, False, 297),
    (99, 300): (301, 268, False, 297),
    (99, 6000): (5278, 5278, True, 299),
}


@pytest.mark.parametrize("run, max_states", sorted(SIBLING_SEARCHES))
def test_searches_that_come_back_visit_the_states_recorded(run, max_states):
    # the search order end to end, later children included; at these sizes
    # a wrong first choice inside a later child's subtree leaves the visited
    # states as they are, so the next test checks the ranks themselves
    instance = gen_instance(15, 20, 5, derive_seed(0, run, "instance"))
    result = solve_optimal(instance, SearchLimits(max_states=max_states))
    outcome = (result.visited, result.memo, result.exact, result.alpha)
    assert outcome == SIBLING_SEARCHES[run, max_states]


# (m, n, k, run) -> (visited, memo, exact, alpha) of a search from
# gen_instance(m, n, k, derive_seed(3, run, m, n, k)) with no incumbent and a
# 20,000-state budget, recorded while later children went by links kept
# alive, ties in pair order; ordering them by the full rank, gain after
# links, takes 231 states on the first and overruns on the second
LATER_CHILD_ORDER = {
    (8, 6, 3, 133): (179, 179, True, 48),
    (10, 8, 4, 175): (16708, 16708, True, 80),
}


@pytest.mark.parametrize("mnk_run", sorted(LATER_CHILD_ORDER))
def test_later_children_go_by_links_kept_alive_ties_in_pair_order(mnk_run):
    m, n, k, run = mnk_run
    instance = gen_instance(m, n, k, derive_seed(3, run, m, n, k))
    result = solve_optimal(instance, SearchLimits(max_states=20000))
    outcome = (result.visited, result.memo, result.exact, result.alpha)
    assert outcome == LATER_CHILD_ORDER[mnk_run]


def test_a_deep_search_holds_little_data_per_level():
    # the descent keeps O(m) data per suspended level and walks one table
    # down and back, so the traced peak of a 100-state deep search stays
    # near 0.4 MiB; keeping a copy of the ranks alive at each level takes
    # it past 5 MiB, and a set table per level past 8 MiB
    instance = deep_instance()
    incumbent = run_algorithm("glink", instance)  # the presolve, untraced
    tracemalloc.start()
    try:
        result = solve_optimal(instance, SearchLimits(max_states=100), incumbent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.visited == 101 and not result.exact
    assert peak < 2 * 2**20


def test_the_walked_table_is_a_fresh_count_after_every_step(monkeypatch):
    # the one table the search walks, its holders, pairs, slot ranks and
    # union counts, must be those of the state reached, counted afresh,
    # after every step down and every step back, first children and later
    # siblings alike
    walk = oracle_module._Search._step
    backs = 0

    def checked(search, x, y, i, j, sign):
        nonlocal backs
        walk(search, x, y, i, j, sign)
        masks[i], masks[j] = (x | y, x | y) if sign > 0 else (x, y)
        holders, pairs = set_table(masks)
        assert {mask: sorted(held) for mask, held in search.holders.items()} == holders
        assert all(a < b for a, b in search.pairs)
        assert search.pairs.keys() == pairs.keys()
        slots = search.slots
        assert all(w is slots[a | b] for (a, b), (_, _, w) in search.pairs.items())
        assert {key: s[0] for key, s in slots.items()} == counted_ranks(masks)
        unions = Counter(a | b for a, b in set_links(masks))
        assert {key: s[1] for key, s in slots.items()} == {key: unions[key] for key in slots}
        backs += sign < 0

    monkeypatch.setattr(oracle_module._Search, "_step", checked)
    for run in (53, 99):
        instance = gen_instance(15, 20, 5, derive_seed(0, run, "instance"))
        masks = list(canonical_key(s.mask for s in instance.initial_sets))
        solve_optimal(instance, SearchLimits(max_states=1500))
    # the search came back to states often and tried their later children
    assert backs > 1000


# --------------------------------------------------------------- enumeration


def test_enumerate_single_link_instance():
    stream = enumerate_maximal_schedules(build_instance(2, [0], [1]))
    schedules = list(stream)
    assert len(schedules) == 1
    assert not stream.truncated


def test_enumerate_identical_sets_yield_only_the_empty_schedule():
    stream = enumerate_maximal_schedules(build_instance(2, [0], [0], [0]))
    schedules = list(stream)
    assert len(schedules) == 1
    assert len(schedules[0][0]) == 0


def test_enumerate_singletons_m3():
    inst = build_instance(3, [0], [1], [2])
    stream = enumerate_maximal_schedules(inst)
    outcomes = list(stream)
    assert len(outcomes) == 6  # 3 first choices x 2 second choices
    universe = inst.realized_universe
    for schedule, final in outcomes:
        assert not pair_scan_links([s.mask for s in final])
        assert sum(map(len, final)) == 8
        assert sum(1 for s in final if s == universe) >= 2
        assert chain_by_inclusion(final)
        replayed, _ = apply_schedule(inst, schedule.link_list())
        assert replayed == final


@pytest.mark.parametrize("cap,expect_truncated", [(4, True), (6, False), (10, False)])
def test_enumerate_cap_semantics(cap, expect_truncated):
    inst = build_instance(3, [0], [1], [2])
    stream = enumerate_maximal_schedules(inst, cap=cap)
    outcomes = list(stream)
    assert len(outcomes) == min(cap, 6)
    assert stream.truncated is expect_truncated


def test_enumerate_rejects_bad_cap():
    with pytest.raises(ValueError):
        enumerate_maximal_schedules(build_instance(2, [0], [1]), cap=0)
