"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance and
runtime budget is pinned here; seeds are fixed so reruns are reproducible.
"""

import random
import time
from fractions import Fraction

from gtexchange import (
    ALGORITHM_IDS,
    BatchConfig,
    Instance,
    SegmentSet,
    aggregate_cardinality,
    find_unique_set,
    gen_instance,
    initial_state,
    is_maximal,
    pmnk_exact,
    randomized_lower_bound,
    run_algorithm,
    run_batch,
    run_greedy_links,
    run_polygon,
    solve_optimal,
)
from gtexchange.core import gt_masks
from conftest import criterion_03_grid
from oracles import (
    brute_force_optimal,
    chain_by_inclusion,
    coverage_by_enumeration,
    enumerate_maximal_schedules,
    pmnk_montecarlo,
)

MASTER_SEED = 20260809

REFERENCE_ROWS = [
    (60, 100, 3, 3867.4),
    (60, 100, 5, 4829.2),
    (60, 100, 7, 5318.0),
    (80, 200, 15, 15106.0),
    (100, 300, 15, 27486.0),
]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_lower_bound_regression():
    worst_rel = 0.0
    worst_time = 0.0
    for m, n, k, expected in REFERENCE_ROWS:
        elapsed = min(
            _timed(randomized_lower_bound, m, n, k) for _ in range(3)
        )
        bound, _ = randomized_lower_bound(m, n, k)
        worst_rel = max(worst_rel, abs(bound - expected) / expected)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel <= 1e-3 and worst_time < 1e-3
    _report(
        1,
        ok,
        f"five reference bounds within 0.1% (worst rel err {worst_rel:.2e}), "
        f"each call < 1 ms (worst {worst_time * 1e6:.0f} us)",
    )


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_criterion_02_randomized_simulation_matches_reference():
    start = time.perf_counter()
    report = run_batch(
        BatchConfig(
            m=60,
            n=100,
            k=3,
            runs=100,
            seed=MASTER_SEED,
            algorithms=("rand",),
            oracle="skip",
        )
    )
    elapsed = time.perf_counter() - start
    mean = report.stats["rand"].mean_alpha
    ok = abs(mean - 5027.0) <= 347.9 and mean >= 3867.4 and elapsed < 30.0
    _report(
        2,
        ok,
        f"(60,100,3) x100 seeds: mean alpha {mean:.1f} within 5027.0 +/- 347.9 "
        f"and >= 3867.4, in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    for instance in criterion_03_grid():
        optimum = solve_optimal(instance)
        assert optimum.exact
        memoized = optimum.alpha
        reference = brute_force_optimal(instance)
        enumerated = max(
            aggregate_cardinality(final)
            for _, final in enumerate_maximal_schedules(instance)
        )
        assert memoized == reference == enumerated, (
            f"disagreement on {[s.to_list() for s in instance.initial_sets]}: "
            f"{memoized} / {reference} / {enumerated}"
        )
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(
        3,
        ok,
        f"memoized = memo-free DFS = enumeration max on 200 instances, "
        f"in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_maximal_state_invariants():
    rng = random.Random(MASTER_SEED)
    violations = 0
    checked = 0
    while checked < 500:
        m = rng.randint(2, 5)
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        instance = gen_instance(m, n, k, seed=rng.getrandbits(48))
        universe = instance.realized_universe
        if any(s == universe for s in instance.initial_sets):
            continue  # the two-holders guarantee needs no initial holder
        checked += 1
        sizes = sorted(len(s) for s in instance.initial_sets)
        floor = 2 * len(universe) + sum(sizes) - sizes[-1] - sizes[-2]
        finals = [
            run_algorithm(alg, instance, seed=rng.getrandbits(32)).final_state
            for alg in ALGORITHM_IDS
        ]
        finals.extend(
            final for _, final in enumerate_maximal_schedules(instance, cap=50)
        )
        for state in finals:
            holders = sum(1 for s in state.sets if s == universe)
            if not (
                is_maximal(state)
                and holders >= 2
                and chain_by_inclusion(state)
                and aggregate_cardinality(state) >= floor
            ):
                violations += 1
    _report(
        4,
        violations == 0,
        f"500 instances x (5 algorithms + <=50 enumerated maximal schedules): "
        f"maximality, >=2 full-coverage holders, inclusion chain, and the "
        f"aggregate floor all hold ({violations} violations)",
    )


def _greedy_links_alphas_over_all_ties(instance):
    """Final aggregate cardinalities over every path the tie rule can take.

    Greedy-links keeps the pairs that leave the most links alive, then those
    with the largest immediate gain; the tie rule (lowest or random) picks
    among what is left, so each of those pairs is followed here.
    """

    def explore(masks):
        m = len(masks)
        available = [
            (i, j)
            for i in range(m - 1)
            for j in range(i + 1, m)
            if gt_masks(masks[i], masks[j])
        ]
        if not available:
            return {sum(x.bit_count() for x in masks)}
        degree = [0] * m
        for i, j in available:
            degree[i] += 1
            degree[j] += 1
        total = len(available)
        keys = {}
        for i, j in available:
            union = masks[i] | masks[j]
            third = sum(
                1 for t in range(m) if t not in (i, j) and gt_masks(union, masks[t])
            )
            alive = total - degree[i] - degree[j] + 1 + 2 * third
            gain = 2 * union.bit_count() - masks[i].bit_count() - masks[j].bit_count()
            keys[(i, j)] = (alive, gain)
        best = max(keys.values())
        out = set()
        for (i, j), key in keys.items():
            if key == best:
                child = list(masks)
                child[i] = child[j] = masks[i] | masks[j]
                out |= explore(tuple(child))
        return out

    return explore(tuple(s.mask for s in instance.initial_sets))


def test_criterion_05_greedy_links_matches_oracle_at_m4_equal_k():
    rng = random.Random(MASTER_SEED + 5)
    mismatches = []
    tie_path_misses = 0
    for _ in range(300):
        n = rng.choice([4, 5, 6])
        k = rng.choice([1, 2, 3])
        instance = gen_instance(4, n, k, seed=rng.getrandbits(48))
        greedy = run_greedy_links(instance).alpha
        optimum = solve_optimal(instance)
        assert optimum.exact
        best = optimum.alpha
        if greedy != best:
            mismatches.append((n, k, [s.to_list() for s in instance.initial_sets], greedy, best))
        if min(_greedy_links_alphas_over_all_ties(instance)) != best:
            tie_path_misses += 1
    detail = (
        f"greedy-links (ties by gain, then lowest pair) = oracle on "
        f"{300 - len(mismatches)}/300 m=4 equal-k instances; some random-tie "
        f"path misses the optimum on {tie_path_misses}"
    )
    if mismatches:
        detail += f"; {len(mismatches)} mismatches, e.g. {mismatches[:2]}"
    _report(5, len(mismatches) == 0, detail)


def test_criterion_06_greedy_links_attains_full_coverage_optima():
    rng = random.Random(MASTER_SEED + 6)
    qualifying = 0
    misses = 0
    for _ in range(300):
        n = rng.choice([4, 5, 6])
        k = rng.choice([1, 2, 3])
        instance = gen_instance(4, n, k, seed=rng.getrandbits(48))
        u = len(instance.realized_universe)
        optimum = solve_optimal(instance)
        assert optimum.exact
        best = optimum.alpha
        if best != 4 * u:
            continue
        qualifying += 1
        if run_greedy_links(instance).alpha != 4 * u:
            misses += 1
    ok = qualifying >= 100 and misses == 0
    _report(
        6,
        ok,
        f"on all {qualifying} m=4 instances whose optimum is full coverage, "
        f"greedy-links attains it ({misses} misses)",
    )


def test_criterion_07_polygon_parity_optimum_with_unique_segments():
    rng = random.Random(MASTER_SEED + 7)
    misses = 0
    for trial in range(300):
        m = 3 + trial % 6  # m in 3..8
        pool = list(range(m, m + rng.randint(1, 6)))
        n = m + len(pool)
        sets = []
        for i in range(m):
            # node 0 keeps only its private segment so the odd-m shortfall
            # is exactly one segment; everyone owns a private segment, so
            # the unique-holder scan admits the whole group
            extras = [] if i == 0 else rng.sample(pool, rng.randint(0, len(pool)))
            sets.append(SegmentSet.from_iterable([i] + extras))
        instance = Instance(m=m, n=n, initial_sets=tuple(sets), strict=False)
        assert find_unique_set(initial_state(instance)) == list(range(m))
        u = len(instance.realized_universe)
        target = m * u if m % 2 == 0 else m * u - 1
        if run_polygon(instance).alpha != target:
            misses += 1
    _report(
        7,
        misses == 0,
        f"polygon reaches m*u (even m) / m*u-1 (odd m) on 300 all-unique "
        f"instances, m in 3..8 ({misses} misses)",
    )


def test_criterion_08_coverage_probability_exactness():
    start = time.perf_counter()
    for m in range(1, 4):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert pmnk_exact(m, n, k).fraction == coverage_by_enumeration(m, n, k)
    assert pmnk_exact(2, 2, 1).fraction == Fraction(1, 2)
    sampled = [
        (2, 2, 1),
        (2, 3, 2),
        (3, 3, 1),
        (3, 4, 2),
        (2, 4, 3),
        (4, 4, 1),
        (3, 5, 3),
        (4, 5, 2),
        (2, 5, 4),
        (5, 6, 2),
    ]
    for m, n, k in sampled:
        exact = pmnk_exact(m, n, k).value
        estimate, stderr = pmnk_montecarlo(m, n, k, trials=100_000, seed=MASTER_SEED)
        assert abs(estimate - exact) <= 4 * stderr, (m, n, k, estimate, exact, stderr)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(
        8,
        ok,
        f"exact = enumeration on the full m<=3, n<=6 grid; 10 sampled configs "
        f"within 4 stderr at 1e5 trials, in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_09_qualitative_ordering_at_15_20_5():
    start = time.perf_counter()
    report = run_batch(
        BatchConfig(
            m=15,
            n=20,
            k=5,
            runs=100,
            seed=MASTER_SEED,
            algorithms=("rand", "glink", "rare"),
            oracle="skip",
        )
    )
    elapsed = time.perf_counter() - start
    greedy = report.stats["glink"].mean_alpha
    rarest = report.stats["rare"].mean_alpha
    randomized = report.stats["rand"]
    ok = (
        greedy >= rarest
        and rarest >= randomized.mean_alpha - randomized.ci95
        and greedy >= 0.99 * report.mean_upper_bound
        and elapsed < 120.0
    )
    _report(
        9,
        ok,
        f"(15,20,5) x100: greedy-links {greedy:.1f} >= rarest-first {rarest:.1f} "
        f">= randomized {randomized.mean_alpha:.1f} - {randomized.ci95:.1f}, and "
        f"greedy-links within 1% of the mean parity bound "
        f"{report.mean_upper_bound:.1f}, in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_10_batches_are_byte_deterministic(tmp_path):
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        run_batch(
            BatchConfig(
                m=4,
                n=5,
                k=2,
                runs=20,
                seed=MASTER_SEED,
                out_csv=str(path),
            )
        )
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    _report(10, ok, "repeating a batch with the same master seed is byte-identical")


def test_criterion_11_bound_becomes_tight_for_large_groups():
    ratios = {}
    for exponent in range(1, 15):
        m = 2**exponent
        bound, _ = randomized_lower_bound(m, 100, 5)
        ratios[m] = bound / (100 * m)
    best_m = max(ratios, key=lambda m: ratios[m])
    ok = any(r >= 0.99 for r in ratios.values())
    _report(
        11,
        ok,
        f"bound(m,100,5)/(100m) reaches {ratios[best_m]:.4f} at m={best_m} "
        f"(>= 0.99 within m <= 2^14)",
    )
