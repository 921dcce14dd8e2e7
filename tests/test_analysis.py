import statistics
from fractions import Fraction
from itertools import product
from math import factorial, gcd, sqrt

import pytest
from hypothesis import given
import hypothesis.strategies as st

from gtexchange import (
    MAX_SEGMENTS,
    Instance,
    SegmentSet,
    approx_condition_holds,
    derive_seed,
    gen_instance,
    pmnk_exact,
    randomized_lower_bound,
    run_randomized,
    upper_bound,
)
from gtexchange.analysis import check_pmnk_size
from gtexchange.harness import TABLE_PRESETS, preset_configs
from oracles import (
    coverage_by_composition,
    coverage_by_enumeration,
    coverage_by_inclusion_exclusion,
    expected_rand,
    pmnk_montecarlo,
)

REFERENCE_ROWS = [
    (60, 100, 3, 3867.4),
    (60, 100, 5, 4829.2),
    (60, 100, 7, 5318.0),
    (80, 200, 15, 15106.0),
    (100, 300, 15, 27486.0),
]


# ------------------------------------------------------------------- pmnk


def test_pmnk_small_cases():
    assert pmnk_exact(2, 2, 1) == Fraction(1, 2)
    assert pmnk_exact(2, 2, 1) == coverage_by_enumeration(2, 2, 1)
    assert pmnk_exact(2, 4, 1) == 0  # too few picks to cover
    assert pmnk_exact(2, 3, 3) == 1  # everyone holds everything
    assert pmnk_exact(1, 4, 4) == 1
    assert pmnk_exact(1, 4, 3) == 0


def test_pmnk_fraction_is_reduced_and_in_range():
    prob = pmnk_exact(3, 4, 2)
    assert gcd(prob.numerator, prob.denominator) == 1
    assert 0 <= prob <= 1


def test_pmnk_argument_errors():
    with pytest.raises(ValueError):
        pmnk_exact(0, 3, 1)
    with pytest.raises(ValueError):
        pmnk_exact(2, 3, 4)
    with pytest.raises(ValueError):
        pmnk_exact(2, 3, 0)
    with pytest.raises(ValueError, match="universe needs at least one segment"):
        pmnk_exact(2, 0, 1)
    with pytest.raises(ValueError, match="cap"):
        pmnk_exact(2, MAX_SEGMENTS + 1, 1)


def test_pmnk_sizes_must_be_exact_ints():
    # (2, True, True) == (2, 1, 1), but a bool is no size
    assert pmnk_exact(2, 1, 1) == 1
    for mnk in [(2, True, True), (True, 1, 1), (2, 1.0, 1), (2.0, 1, 1)]:
        with pytest.raises(ValueError, match="must be integers"):
            pmnk_exact(*mnk)
        with pytest.raises(ValueError, match="must be integers"):
            randomized_lower_bound(*mnk)


def test_pmnk_covers_the_universe_cap_and_deep_groups():
    assert pmnk_exact(1, MAX_SEGMENTS, MAX_SEGMENTS) == 1
    # m = 1200 nodes: far deeper than the composition sum could recurse
    prob = pmnk_exact(1200, 1200, 1)
    assert prob == Fraction(factorial(1200), 1200**1200)
    assert float(prob) == 0.0


def test_pmnk_size_caps_keep_every_size_in_use():
    # the benchmark, table presets, README and tests use these sizes
    in_use = [(4, 5, 2), (15, 20, 5), (40, 50, 5), (200, 300, 15), (1200, 1200, 1)]
    in_use += [
        (c.m, c.n, c.k) for p in TABLE_PRESETS for c in preset_configs(p, runs=1)
    ]
    for mnk in in_use:
        check_pmnk_size(*mnk)
    # too few picks to cover: no sum is taken, whatever m is
    assert pmnk_exact(100, MAX_SEGMENTS, 40) == 0
    for mnk in [(1000, 4096, 50), (400, 4096, 50), (100, 4096, 2048), (400000, 4, 2)]:
        with pytest.raises(ValueError, match="too large"):
            pmnk_exact(*mnk)


def test_pmnk_matches_enumeration_small_grid():
    for m in range(1, 4):
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert pmnk_exact(m, n, k) == coverage_by_enumeration(m, n, k)


def test_pmnk_matches_inclusion_exclusion_wider_grid():
    for m in range(1, 7):
        for n in range(2, 9):
            for k in range(1, n + 1):
                assert pmnk_exact(m, n, k) == coverage_by_inclusion_exclusion(
                    m, n, k
                )


def test_pmnk_matches_composition_sum():
    for m in range(1, 7):
        for n in range(2, 9):
            for k in range(1, n + 1):
                assert pmnk_exact(m, n, k) == coverage_by_composition(m, n, k)
    # the batch sizes whose coverage used to be sampled
    for m, n, k, _ in REFERENCE_ROWS:
        assert pmnk_exact(m, n, k) == coverage_by_composition(m, n, k)
    for m, n, k in [(15, 20, 5), (40, 50, 5)]:
        assert pmnk_exact(m, n, k) == coverage_by_composition(m, n, k)


def test_pmnk_is_monotone_in_m_and_k():
    for n in range(2, 9):
        for k in range(1, min(n, 6) + 1):
            values = [pmnk_exact(m, n, k) for m in range(1, 7)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        for m in range(1, 7):
            values = [pmnk_exact(m, n, k) for k in range(1, min(n, 6) + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))


def test_montecarlo_degenerate_cases():
    assert pmnk_montecarlo(3, 4, 4, trials=50, seed=1) == (1.0, 0.0)
    estimate, _ = pmnk_montecarlo(2, 5, 1, trials=50, seed=1)
    assert estimate == 0.0
    with pytest.raises(ValueError):
        pmnk_montecarlo(2, 2, 1, trials=0, seed=1)


def test_montecarlo_agrees_with_exact():
    estimate, stderr = pmnk_montecarlo(2, 2, 1, trials=20_000, seed=11)
    assert abs(estimate - 0.5) <= 4 * stderr


def test_montecarlo_is_deterministic_given_seed():
    assert pmnk_montecarlo(3, 5, 2, trials=500, seed=9) == pmnk_montecarlo(
        3, 5, 2, trials=500, seed=9
    )


# ------------------------------------------------------------------- bound


def test_lower_bound_reproduces_reference_rows():
    for m, n, k, expected in REFERENCE_ROWS:
        bound, _ = randomized_lower_bound(m, n, k)
        assert abs(bound - expected) / expected <= 1e-3


def test_lower_bound_trace_shape():
    bound, trace = randomized_lower_bound(60, 100, 3)
    assert trace.expected_sizes[0] == 3.0
    assert bound == 60 * trace.expected_sizes[-1]
    assert len(trace.phase_factors) == len(trace.expected_sizes) - 1
    assert all(0 < f <= 1 for f in trace.phase_factors)
    # the recursion stops at the first zeroed factor: 2^(p-1) >= m
    phases = len(trace.expected_sizes)
    assert 2 ** (phases - 1) >= 60 > 2 ** (phases - 2)


def test_lower_bound_full_initial_sets():
    bound, trace = randomized_lower_bound(5, 7, 7)
    assert bound == 35.0
    assert all(s == 7.0 for s in trace.expected_sizes)


def test_recursion_exceeds_the_exact_mean_and_every_instance_at_3_2_1():
    """At (3,2,1) every instance with two distinct sets ends at 5 and the two
    constant ones at 3, so the exact mean is 9/2, and the paper's recursion
    (5.0625) is above it and above every instance."""
    alphas = []
    for picks in product(range(2), repeat=3):
        instance = Instance(
            m=3, n=2, initial_sets=tuple(SegmentSet.from_iterable([e]) for e in picks)
        )
        assert upper_bound(instance) <= 5
        alphas.append(run_randomized(instance, seed=0).alpha)
    assert len(alphas) == 8
    assert Fraction(sum(alphas), len(alphas)) == Fraction(9, 2)
    assert randomized_lower_bound(3, 2, 1)[0] > 5


def test_exact_rand_means_and_the_side_the_recursion_falls_on():
    """Rand's exact mean from the chain in :func:`oracles.expected_rand`; the
    paper's recursion lies above it, below it or on it depending on the size."""
    cases = [
        ((4, 5, 3), Fraction(2304, 125), "above"),  # recursion 18.592
        ((4, 4, 2), Fraction(127, 9), "below"),  # recursion 14.0
        ((2, 3, 1), Fraction(10, 3), "equal"),
        ((3, 2, 1), Fraction(9, 2), "above"),  # as enumerated above; recursion 5.0625
    ]
    for (m, n, k), exact, side in cases:
        assert expected_rand(m, n, k) == exact
        diff = randomized_lower_bound(m, n, k)[0] - exact
        assert {"above": diff > 0.1, "below": diff < -0.1, "equal": abs(diff) < 1e-9}[
            side
        ], (m, n, k, diff)


def test_the_recursion_against_rand_exact_mean_on_every_small_row():
    """Every row with 2 <= m <= 4, n <= 6 and k < n: the recursion is rand's
    exact mean at m = 2, above it at every m = 3 row, and above it at seven
    m = 4 rows, so it is not a lower bound there."""
    above = set()
    for m in (2, 3, 4):
        for n in range(2, 7):
            for k in range(1, n):
                diff = randomized_lower_bound(m, n, k)[0] - expected_rand(m, n, k)
                if m == 2:
                    assert abs(diff) < 1e-9, (n, k, diff)
                elif diff > 0:
                    above.add((m, n, k))
    assert above == {(3, n, k) for n in range(2, 7) for k in range(1, n)} | {
        (4, 2, 1), (4, 3, 2), (4, 4, 3), (4, 5, 3), (4, 5, 4), (4, 6, 4), (4, 6, 5)
    }


def test_program_rand_mean_matches_the_exact_chain_at_4_5_3():
    alphas = [
        run_randomized(
            gen_instance(4, 5, 3, derive_seed(0, i, "instance")),
            seed=derive_seed(0, i, "alg", "rand"),
        ).alpha
        for i in range(4000)
    ]
    mean = statistics.fmean(alphas)
    stderr = statistics.stdev(alphas) / sqrt(len(alphas))
    assert abs(mean - float(expected_rand(4, 5, 3))) < 4 * stderr, (mean, stderr)


def test_lower_bound_argument_errors():
    with pytest.raises(ValueError):
        randomized_lower_bound(1, 5, 2)
    with pytest.raises(ValueError):
        randomized_lower_bound(4, 5, 6)


@given(
    st.integers(2, 40),
    st.integers(2, 60),
    st.integers(1, 60),
)
def test_lower_bound_trace_invariants(m, n, k):
    if k > n:
        k = n
    bound, trace = randomized_lower_bound(m, n, k)
    sizes = trace.expected_sizes
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert all(s <= n + 1e-9 for s in sizes)
    assert bound <= m * n + 1e-9


def test_asymptotic_ratio_climbs_toward_one():
    ratios = []
    for exponent in range(4, 15):
        m = 2**exponent
        bound, _ = randomized_lower_bound(m, 100, 5)
        ratios.append(bound / (m * 100))
    assert all(r <= 1 + 1e-9 for r in ratios)
    assert all(a <= b + 1e-9 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 0.99


# --------------------------------------------------------- approx condition


def test_approx_condition_examples():
    assert approx_condition_holds(16, 100, 25)  # boundary: min(25, 25) <= 25
    assert not approx_condition_holds(1024, 100, 9)  # 9 < min(10, 25)
    assert not approx_condition_holds(16, 100, 100)  # k must stay below n
    with pytest.raises(ValueError):
        approx_condition_holds(1, 100, 10)
