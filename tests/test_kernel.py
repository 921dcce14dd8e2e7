"""Behaviour pins for the incremental link kernel the schedulers share.

The schedulers keep link state across steps instead of rescanning every
pair; these tests hold them to schedulers written from the definitions
(``tests/oracles.py``) step for step, and to batch CSV digests recorded
before the kernel existed.
"""

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from gtexchange import (
    Link,
    TieRule,
    activate,
    initial_state,
    is_maximal,
    links,
    rarest_first_rows,
    run_greedy_links,
    run_randomized,
    run_rarest_first,
)
from gtexchange.core import _LinkKernel
from gtexchange.harness import BatchConfig, gen_instance, rows_to_csv, run_batch
from conftest import instances, relaxed_instances
from oracles import (
    pair_scan_links,
    reference_greedy_links,
    reference_randomized,
    reference_rarest_first,
)


any_instances = st.one_of(instances(max_m=9, max_n=8), relaxed_instances())
tie_rules = st.one_of(
    st.just(TieRule()),
    st.integers(0, 2**32).map(lambda seed: TieRule(mode="random", seed=seed)),
)


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


@given(any_instances, st.integers(0, 2**32))
def test_randomized_matches_a_link_rescan_per_phase(instance, seed):
    run = run_randomized(instance, seed)
    assert (pairs_of(run), run.rounds) == reference_randomized(instance, seed)


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


@given(any_instances, st.integers(0, 2**32))
def test_kernel_updates_match_a_fresh_scan(instance, seed):
    rng = random.Random(seed)
    state = initial_state(instance)
    kernel = _LinkKernel(state.masks())
    while True:
        fresh = _LinkKernel(state.masks())
        assert (kernel.masks, kernel.nbr, kernel.live) == (fresh.masks, fresh.nbr, fresh.live)
        assert set(kernel.pairs()) == pair_scan_links(state)
        assert kernel.pairs() == sorted(kernel.pairs())
        assert {Link(i, j) for i, j in kernel.pairs()} == links(state)
        assert is_maximal(state) == (kernel.live == 0)
        if not kernel.live:
            break
        i, j = rng.choice(kernel.pairs())
        state = activate(state, Link(i, j))
        kernel.activate(i, j)


# sha256 of run_batch's CSV for seed 20261018, oracle skipped, all five
# algorithms, recorded with the per-step pair scans the kernel replaced.
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
