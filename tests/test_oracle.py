import hashlib

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from gtexchange import (
    ALGORITHM_IDS,
    Instance,
    Link,
    OracleLimitError,
    SearchLimits,
    aggregate_cardinality,
    apply_schedule,
    canonical_key,
    enumerate_maximal_schedules,
    initial_state,
    is_maximal,
    optimal_alpha,
    run_algorithm,
    solve_optimal,
    upper_bound,
)
from gtexchange.harness import gen_instance
from gtexchange.oracle import _Abort, _Search
from conftest import build_instance, instances, no_initial_universe_holder
from oracles import brute_force_optimal, chain_by_inclusion, enumeration_optimal

# greedy-links reaches 18 here while the optimum is 20, so the presolve
# shortcut cannot certify this instance and the full search must run
GREEDY_SUBOPTIMAL = ([0, 1], [0, 2], [0, 1, 3], [2, 3, 4])


def test_optimal_examples():
    alpha, witness = optimal_alpha(build_instance(2, [0], [1]))
    assert alpha == 4
    assert witness.link_list() == [Link(0, 1)]

    alpha, witness = optimal_alpha(build_instance(3, [0], [1], [2]))
    assert alpha == 8  # odd node count: one node always stays short

    alpha, witness = optimal_alpha(build_instance(3, [0], [0, 1]))
    assert alpha == 3
    assert len(witness) == 0


def test_search_goes_beyond_the_greedy_presolve():
    inst = build_instance(5, *GREEDY_SUBOPTIMAL)
    assert run_algorithm("glink", inst).alpha == 18
    alpha, witness = optimal_alpha(inst)
    assert alpha == 20
    final, _ = apply_schedule(inst, witness.link_list())
    assert aggregate_cardinality(final) == 20
    assert is_maximal(final)


@given(instances(max_m=4, max_n=5))
def test_memoized_equals_brute_force_and_enumeration(instance):
    alpha, _ = optimal_alpha(instance)
    assert alpha == brute_force_optimal(instance)
    assert alpha == enumeration_optimal(instance)


@given(instances(max_m=4, max_n=5))
def test_witness_replays_to_the_optimum(instance):
    alpha, witness = optimal_alpha(instance)
    final, _ = apply_schedule(instance, witness.link_list())
    assert aggregate_cardinality(final) == alpha
    assert is_maximal(final)


@given(instances(max_m=4, max_n=5), st.integers(0, 2**16))
def test_oracle_dominates_every_algorithm(instance, seed):
    alpha, _ = optimal_alpha(instance)
    for alg in ALGORITHM_IDS:
        assert run_algorithm(alg, instance, seed=seed).alpha <= alpha


@given(instances(max_m=4, max_n=5), st.randoms(use_true_random=False))
def test_relabelled_nodes_share_a_key_and_an_optimum(instance, rng):
    order = list(range(instance.m))
    rng.shuffle(order)
    permuted = Instance(
        m=instance.m,
        n=instance.n,
        initial_sets=tuple(instance.initial_sets[i] for i in order),
    )
    assert canonical_key(initial_state(permuted)) == canonical_key(
        initial_state(instance)
    )
    assert optimal_alpha(permuted)[0] == optimal_alpha(instance)[0]


@given(instances(max_m=4, max_n=5))
def test_oracle_bounds(instance):
    assume(no_initial_universe_holder(instance))
    alpha, _ = optimal_alpha(instance)
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


def test_budget_overrun_raises_with_a_lower_bound():
    inst = build_instance(5, *GREEDY_SUBOPTIMAL)
    with pytest.raises(OracleLimitError) as err:
        optimal_alpha(inst, SearchLimits(max_states=1, max_seconds=60))
    assert "limit exceeded" in str(err.value)
    assert err.value.best_alpha == 18  # the greedy presolve's value
    final, _ = apply_schedule(inst, err.value.witness.link_list())
    assert aggregate_cardinality(final) == 18


def test_solve_optimal_flags_inexact_results():
    inst = build_instance(5, *GREEDY_SUBOPTIMAL)
    result = solve_optimal(inst, SearchLimits(max_states=1, max_seconds=60))
    assert not result.exact
    assert result.alpha == 18
    exact = solve_optimal(inst)
    assert exact.exact and exact.alpha == 20


# solve_optimal(...).visited on gen_instance(15, 20, 5, seed), seeds 0-39,
# max_states=2000, recorded with the recursive search
PINNED_VISITED = [0] * 9 + [2001, 0, 0, 2001] + [0] * 20 + [2001] + [0] * 6
# the search alone from each root (no presolve), same budget: visited
# states, best leaf and memo size, then sha256 over every memo's items
PINNED_SEARCHES = [
    (2001, 295, 1975), (2001, 298, 1973), (2001, 275, 1974), (2001, 296, 1978),
    (32, 299, 32), (30, 299, 30), (2001, 290, 1974), (2001, 262, 1974),
    (2001, 294, 1974), (2001, 296, 1974), (2001, 297, 1965), (2001, 273, 1977),
    (2001, 284, 1976), (2001, 296, 1966), (2001, 281, 1976), (2001, 291, 1975),
    (2001, 270, 1980), (2001, 283, 1977), (37, 284, 37), (2001, 289, 1972),
    (140, 299, 140), (2001, 289, 1972), (976, 284, 976), (34, 299, 34),
    (2001, 285, 1973), (2001, 288, 1970), (23, 284, 23), (2001, 294, 1975),
    (2001, 297, 1971), (2001, 291, 1978), (35, 299, 35), (28, 299, 28),
    (2001, 280, 1977), (2001, 290, 1978), (2001, 292, 1974), (2001, 292, 1976),
    (2001, 295, 1975), (28, 299, 28), (2001, 274, 1968), (33, 299, 33),
]
PINNED_MEMO_DIGEST = "ff7481ea9be17db8c5c3b1e0cf73859a487fdc652540297def4f11117f1e1127"


def test_search_visits_states_in_the_recorded_order():
    limits = SearchLimits(max_states=2000)
    visited, searches = [], []
    digest = hashlib.sha256()
    for seed in range(40):
        inst = gen_instance(15, 20, 5, seed)
        visited.append(solve_optimal(inst, limits).visited)
        search = _Search(inst.realized_universe.mask, limits)
        try:
            search.best_from(canonical_key(initial_state(inst)))
        except _Abort:
            pass
        searches.append((search.visited, search.best_leaf, len(search.memo)))
        digest.update(repr(sorted(search.memo.items())).encode())
    assert visited == PINNED_VISITED
    assert searches == PINNED_SEARCHES
    assert digest.hexdigest() == PINNED_MEMO_DIGEST


def test_deep_search_reports_an_overrun_instead_of_overflowing_the_stack():
    # the first descent runs more activations deep than Python's default
    # recursion limit, which the recursive search could not survive
    result = solve_optimal(gen_instance(120, 200, 2, 12), SearchLimits(max_states=1200))
    assert not result.exact
    assert result.visited == 1201


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
        assert is_maximal(final)
        assert aggregate_cardinality(final) == 8
        assert sum(1 for s in final.sets if s == universe) >= 2
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
