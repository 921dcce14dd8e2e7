from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from gtexchange import (
    MAX_SEGMENTS,
    approx_condition_holds,
    pmnk_exact,
    randomized_lower_bound,
)
from gtexchange.analysis import check_pmnk_size
from gtexchange.harness import reference_bound_configs
from oracles import (
    coverage_by_composition,
    coverage_by_enumeration,
    coverage_by_inclusion_exclusion,
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
    assert pmnk_exact(2, 2, 1).fraction == Fraction(1, 2)
    assert pmnk_exact(2, 2, 1).fraction == coverage_by_enumeration(2, 2, 1)
    assert pmnk_exact(2, 4, 1).fraction == 0  # too few picks to cover
    assert pmnk_exact(2, 3, 3).fraction == 1  # everyone holds everything
    assert pmnk_exact(1, 4, 4).fraction == 1
    assert pmnk_exact(1, 4, 3).fraction == 0


def test_pmnk_fraction_is_reduced_and_in_range():
    prob = pmnk_exact(3, 4, 2)
    assert gcd(prob.numerator, prob.denominator) == 1
    assert 0 <= prob.value <= 1


def test_pmnk_argument_errors():
    with pytest.raises(ValueError):
        pmnk_exact(0, 3, 1)
    with pytest.raises(ValueError):
        pmnk_exact(2, 3, 4)
    with pytest.raises(ValueError):
        pmnk_exact(2, 3, 0)
    with pytest.raises(ValueError, match="cap"):
        pmnk_exact(2, MAX_SEGMENTS + 1, 1)


def test_pmnk_covers_the_universe_cap_and_deep_groups():
    assert pmnk_exact(1, MAX_SEGMENTS, MAX_SEGMENTS).fraction == 1
    # m = 1200 nodes: far deeper than the composition sum could recurse
    prob = pmnk_exact(1200, 1200, 1)
    assert prob.fraction == Fraction(factorial(1200), 1200**1200)
    assert prob.value == 0.0


def test_pmnk_size_caps_keep_every_size_in_use():
    # the benchmark, scripts, README and tests use these sizes
    in_use = [(4, 5, 2), (15, 20, 5), (40, 50, 5), (200, 300, 15), (1200, 1200, 1)]
    in_use += [(c.m, c.n, c.k) for c in reference_bound_configs(runs=1)]
    for mnk in in_use:
        check_pmnk_size(*mnk)
    # too few picks to cover: no sum is taken, whatever m is
    assert pmnk_exact(100, MAX_SEGMENTS, 40).fraction == 0
    for mnk in [(1000, 4096, 50), (400, 4096, 50), (100, 4096, 2048), (400000, 4, 2)]:
        with pytest.raises(ValueError, match="too large"):
            pmnk_exact(*mnk)


def test_pmnk_matches_enumeration_small_grid():
    for m in range(1, 4):
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert pmnk_exact(m, n, k).fraction == coverage_by_enumeration(m, n, k)


def test_pmnk_matches_inclusion_exclusion_wider_grid():
    for m in range(1, 7):
        for n in range(2, 9):
            for k in range(1, n + 1):
                assert pmnk_exact(m, n, k).fraction == coverage_by_inclusion_exclusion(
                    m, n, k
                )


def test_pmnk_matches_composition_sum():
    for m in range(1, 7):
        for n in range(2, 9):
            for k in range(1, n + 1):
                assert pmnk_exact(m, n, k).fraction == coverage_by_composition(m, n, k)
    # the batch sizes whose coverage used to be sampled
    for m, n, k, _ in REFERENCE_ROWS:
        assert pmnk_exact(m, n, k).fraction == coverage_by_composition(m, n, k)
    for m, n, k in [(15, 20, 5), (40, 50, 5)]:
        assert pmnk_exact(m, n, k).fraction == coverage_by_composition(m, n, k)


def test_pmnk_is_monotone_in_m_and_k():
    for n in range(2, 9):
        for k in range(1, min(n, 6) + 1):
            values = [pmnk_exact(m, n, k).fraction for m in range(1, 7)]
            assert all(a <= b for a, b in zip(values, values[1:]))
        for m in range(1, 7):
            values = [pmnk_exact(m, n, k).fraction for k in range(1, min(n, 6) + 1)]
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
    assert bound == trace.bound == 60 * trace.expected_sizes[-1]
    assert len(trace.phase_factors) == len(trace.expected_sizes) - 1
    assert all(0 < f <= 1 for f in trace.phase_factors)
    # the recursion stops at the first zeroed factor: 2^(p-1) >= m
    phases = len(trace.expected_sizes)
    assert 2 ** (phases - 1) >= 60 > 2 ** (phases - 2)


def test_lower_bound_full_initial_sets():
    bound, trace = randomized_lower_bound(5, 7, 7)
    assert bound == 35.0
    assert all(s == 7.0 for s in trace.expected_sizes)


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
