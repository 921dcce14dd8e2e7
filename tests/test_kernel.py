"""Behaviour pins for the distinct-set link scan and the kept set table.

The schedulers score pairs of distinct sets and keep the linked pairs and
counts across steps instead of rescanning every node pair; these tests
check the kept table against a fresh scan after every exchange and hold
the schedulers to schedulers written from the definitions
(``tests/oracles.py``) step for step, to batch CSV digests recorded with
the per-step node-pair scans, and to bound-table and full-run digests
recorded while the schedulers still built a new state per activation.
"""

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from gtexchange import (
    ALGORITHM_IDS,
    InvalidActivationError,
    Link,
    TieRule,
    activate,
    activate_traced,
    apply_schedule,
    initial_state,
    is_maximal,
    links,
    run_algorithm,
    run_greedy_incremental,
    run_greedy_links,
    run_polygon,
    run_randomized,
    run_rarest_first,
)
from gtexchange.algorithms import _permute
from gtexchange.core import (
    exchange,
    exchange_kept,
    node_pairs,
    set_links,
    set_table,
)
from gtexchange.harness import (
    BatchConfig,
    gen_instance,
    reference_bound_configs,
    rows_to_csv,
    run_batch,
)
from conftest import instances, relaxed_instances
from oracles import (
    pair_scan_links,
    rarest_first_rows,
    reference_greedy_incremental,
    reference_greedy_links,
    reference_lowest_pair_sweep,
    reference_randomized,
    reference_rarest_first,
)


any_instances = st.one_of(instances(max_m=9, max_n=8), relaxed_instances())
# many nodes over few segments: pair unions that contain other sets
crowded_instances = st.builds(
    lambda mnk, seed: gen_instance(*mnk, seed),
    st.sampled_from([(10, 6, 3), (10, 8, 4)]),
    st.integers(0, 2**32),
)
tie_rules = st.one_of(
    st.just(TieRule()),
    st.integers(0, 2**32).map(lambda seed: TieRule(mode="random", seed=seed)),
)


def grouped(masks):
    """The nodes holding each distinct mask, by a plain pass over the masks."""
    holders = {}
    for i, mask in enumerate(masks):
        holders.setdefault(mask, []).append(i)
    return holders


def pairs_of(run):
    return [(link.i, link.j) for link in run.schedule.link_list()]


@given(any_instances, tie_rules)
def test_greedy_links_matches_the_third_node_scan(instance, tie):
    expected = reference_greedy_links(instance, tie.mode, tie.seed)
    assert pairs_of(run_greedy_links(instance, tie)) == expected


@given(any_instances, tie_rules)
def test_rarest_first_matches_the_full_row_argmax(instance, tie):
    expected = reference_rarest_first(instance, tie.mode, tie.seed)
    assert pairs_of(run_rarest_first(instance, tie)) == expected


@given(st.one_of(any_instances, crowded_instances), tie_rules)
def test_greedy_incremental_matches_the_pair_rescan(instance, tie):
    expected = reference_greedy_incremental(instance, tie.mode, tie.seed)
    assert pairs_of(run_greedy_incremental(instance, tie)) == expected


@given(st.one_of(any_instances, crowded_instances))
def test_polygon_final_sweep_takes_the_lowest_pair_each_step(instance):
    run = run_polygon(instance)
    pairs = pairs_of(run)
    rounds = len(pairs) - run.post_sweep_steps
    masks = [s.mask for s in instance.initial_sets]
    for i, j in pairs[:rounds]:
        masks[i] = masks[j] = masks[i] | masks[j]
    assert pairs[rounds:] == reference_lowest_pair_sweep(masks)


@given(any_instances, st.integers(0, 2**32))
def test_randomized_matches_a_link_rescan_per_phase(instance, seed):
    run = run_randomized(instance, seed)
    assert (pairs_of(run), run.rounds) == reference_randomized(instance, seed)


def test_randomized_draws_are_the_draws_of_random_shuffle():
    """rand permutes each phase from ``getrandbits`` directly; every order,
    and the generator state after five phases, must match ``random.shuffle``
    at every m up to 130, across the 64- and 128-bit draw widths."""
    for m in range(2, 131):
        for seed in (0, 1, m, 2**40 + m):
            drawn, shuffled = list(range(m)), list(range(m))
            source, reference = random.Random(seed), random.Random(seed)
            for _ in range(5):
                _permute(drawn, source.getrandbits)
                reference.shuffle(shuffled)
                assert drawn == shuffled, (m, seed)
            assert source.getrandbits(32) == reference.getrandbits(32), (m, seed)


@pytest.mark.parametrize("mnk", [(10, 6, 3), (10, 8, 4)])
def test_schedulers_match_the_references_on_crowded_instances(mnk):
    """Many nodes over few segments make pair unions that contain other
    sets, the case where glink's cached counts drop the activated
    endpoints; such a miscount changes a few percent of these schedules."""
    for seed in range(150):
        instance = gen_instance(*mnk, seed)
        for tie in (TieRule(), TieRule(mode="random", seed=seed)):
            assert pairs_of(run_greedy_links(instance, tie)) == reference_greedy_links(
                instance, tie.mode, tie.seed
            )
            assert pairs_of(run_rarest_first(instance, tie)) == reference_rarest_first(
                instance, tie.mode, tie.seed
            )
        run = run_randomized(instance, seed)
        assert (pairs_of(run), run.rounds) == reference_randomized(instance, seed)


@given(any_instances, tie_rules)
def test_every_rarest_first_step_takes_a_maximal_row(instance, tie):
    state = initial_state(instance)
    for link in run_rarest_first(instance, tie).schedule.link_list():
        rows = rarest_first_rows(state, instance.n)
        assert rows[link] == max(rows.values())
        state = activate(state, link)
    assert rarest_first_rows(state, instance.n) == {}


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_set_scan_matches_a_pair_scan_along_a_random_walk(instance, seed):
    rng = random.Random(seed)
    state = initial_state(instance)
    while True:
        expected = sorted(pair_scan_links(state))
        masks = state.masks()
        set_pairs = list(set_links(masks))
        assert len({frozenset(p) for p in set_pairs}) == len(set_pairs)
        assert node_pairs(grouped(masks), set_pairs) == expected
        chosen = rng.sample(set_pairs, rng.randint(0, len(set_pairs)))
        wanted = {frozenset(p) for p in chosen}
        assert node_pairs(grouped(masks), chosen) == [
            (i, j) for i, j in expected if frozenset((masks[i], masks[j])) in wanted
        ]
        expected_links = {Link(i, j) for i, j in expected}
        assert links(state) == expected_links
        assert set(rarest_first_rows(state, instance.n)) == expected_links
        assert is_maximal(state) == (not expected)
        if not expected:
            break
        state = activate(state, Link(*rng.choice(expected)))


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_kept_set_table_matches_a_fresh_scan_after_every_exchange(instance, seed):
    rng = random.Random(seed)
    masks = [s.mask for s in instance.initial_sets]
    holders, pairs = set_table(masks)
    while True:
        assert {mask: sorted(held) for mask, held in holders.items()} == grouped(masks)
        scanned = {frozenset(p): p[0] | p[1] for p in set_links(masks)}
        assert {frozenset(p): union for p, union in pairs.items()} == scanned
        assert len(pairs) == len(scanned)
        if not pairs:
            break
        i, j = rng.choice(node_pairs(holders, list(pairs)))
        before = list(masks)
        step = exchange_kept(masks, holders, pairs, i, j)
        assert step == exchange(before, i, j) and masks == before


@given(any_instances, tie_rules, st.integers(0, 2**32))
def test_schedule_views_match_a_traced_replay(instance, tie, seed):
    """A run keeps raw records; its step and link views, built on reading,
    are what replaying its links through the state-based API yields."""
    for algorithm in ALGORITHM_IDS:
        run = run_algorithm(algorithm, instance, seed=seed, tie=tie)
        state, traced = initial_state(instance), []
        for link in run.schedule.link_list():
            state, step = activate_traced(state, link)
            traced.append(step)
        assert run.schedule.steps == tuple(traced)
        assert state == run.final_state
        assert apply_schedule(instance, run.schedule.link_list())[1] == run.schedule
    masks = [s.mask for s in instance.initial_sets]
    with pytest.raises(InvalidActivationError):
        exchange(masks, 1, 1)
    assert masks == [s.mask for s in instance.initial_sets]


# sha256 of run_batch's CSV for seed 20261018, oracle skipped, all five
# algorithms, recorded with per-step pair scans, before any cached link state.
CSV_DIGESTS = {
    ("lowest", 4, 5, 2, 40): "e5608d23caae39cb41c0e776bb8cbaef297c0b793e5106e84e8772e4350f5cf3",
    ("lowest", 15, 20, 5, 10): "5d2a36ad453827e158238a1090595c698e372a73a05662dd8ffc3d8251c25550",
    ("lowest", 40, 50, 5, 2): "a852c86a34f1ef83719a2b9b3073f963ca9adce2ffd59a05a479788cf196c56f",
    ("random", 4, 5, 2, 40): "ec2fe2559cdfd18470c0c91516e6ec385b4299e00555fdb2acf995ae05f2e8b7",
    ("random", 15, 20, 5, 10): "8b8fcdce2585f7d0c7aff0ac4bf062d5114c0c8748ad0a0f4b268a30f3b16b3d",
    ("random", 40, 50, 5, 2): "9976cd74204b188fd471b1abd4d3fef27f64abb68bba6238729cf2d6a72ff7fb",
}


@pytest.mark.parametrize("key", sorted(CSV_DIGESTS))
def test_batch_csv_is_byte_identical_to_the_pair_scan_schedulers(key):
    tie, m, n, k, runs = key
    config = BatchConfig(
        m=m, n=n, k=k, runs=runs, seed=20261018, oracle="skip", tie_mode=tie
    )
    csv_text = rows_to_csv(list(run_batch(config).rows))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == CSV_DIGESTS[key]


# sha256 of rows_to_csv over reference_bound_configs(runs=2, seed=20261018):
# rand at the bound table's five rows (m = 60..100), recorded before the
# schedulers ran on raw masks.
BOUND_TABLE_DIGEST = "97157eec09c2523aca4929a1aeef1bb6a0cb83ebf702dd1515772905c58cbb9b"


def test_bound_table_csv_is_byte_identical_to_the_state_based_rand():
    configs = reference_bound_configs(runs=2, seed=20261018)
    csv_text = rows_to_csv([row for config in configs for row in run_batch(config).rows])
    assert hashlib.sha256(csv_text.encode()).hexdigest() == BOUND_TABLE_DIGEST


# sha256 over every field of the runs below (links, gains, final masks,
# alpha, rounds, post-sweep steps), recorded before the schedulers ran on
# raw masks.
RUNS_DIGEST = "dc318f409f4730321854e2b0737a7666bc0e2261d970c3f3774ae55200cb69b2"


def test_full_runs_are_identical_to_the_state_based_schedulers():
    digest = hashlib.sha256()
    for mnk, seeds in (((15, 20, 5), range(4)), ((100, 300, 15), range(1))):
        for seed in seeds:
            instance = gen_instance(*mnk, seed)
            for tie in (TieRule(), TieRule(mode="random", seed=seed)):
                for algorithm in ALGORITHM_IDS:
                    run = run_algorithm(algorithm, instance, seed=seed, tie=tie)
                    record = (
                        run.algorithm,
                        [
                            (s.link.i, s.link.j, s.gained_i.mask, s.gained_j.mask)
                            for s in run.schedule.steps
                        ],
                        run.final_state.masks(),
                        run.final_state.step,
                        run.alpha,
                        run.rounds,
                        run.post_sweep_steps,
                    )
                    digest.update(repr(record).encode())
    assert digest.hexdigest() == RUNS_DIGEST
