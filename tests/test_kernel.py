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
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from gtexchange import (
    ALGORITHM_IDS,
    InvalidActivationError,
    Link,
    TIE_MODES,
    apply_schedule,
    run_algorithm,
    run_greedy_incremental,
    run_greedy_links,
    run_polygon,
    run_randomized,
    run_rarest_first,
)
from gtexchange.algorithms import _lift, _permute, _shuffle_draws
from gtexchange.core import (
    MAX_SEGMENTS,
    GainBuckets,
    RANK_WIDTH,
    argmax,
    exchange,
    move_ranked,
    move_table,
    node_pairs,
    pair_ranks,
    rank_table,
    set_holders,
    set_links,
)
from gtexchange.harness import (
    BatchConfig,
    _sample_mask,
    gen_instance,
    reference_bound_configs,
    rows_to_csv,
    run_batch,
)
from conftest import instances, relaxed_instances
from oracles import (
    best_set_pairs,
    counted_ranks,
    pair_scan_links,
    rarest_first_rows,
    reference_greedy_incremental,
    reference_greedy_links,
    reference_lowest_pair_sweep,
    reference_polygon,
    reference_randomized,
    reference_rarest_first,
    set_table,
)


any_instances = st.one_of(instances(max_m=9, max_n=8), relaxed_instances())
# many nodes over few segments: pair unions that contain other sets
crowded_instances = st.builds(
    lambda mnk, seed: gen_instance(*mnk, seed),
    st.sampled_from([(10, 6, 3), (10, 8, 4)]),
    st.integers(0, 2**32),
)
# (tie mode, seed) pairs
tie_rules = st.one_of(
    st.just(("lowest", 0)),
    st.integers(0, 2**32).map(lambda seed: ("random", seed)),
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
    expected = reference_greedy_links(instance, *tie)
    assert pairs_of(run_greedy_links(instance, *tie)) == expected


@given(st.one_of(any_instances, crowded_instances), tie_rules)
def test_rarest_first_matches_the_full_row_argmax(instance, tie):
    expected = reference_rarest_first(instance, *tie)
    assert pairs_of(run_rarest_first(instance, *tie)) == expected


@given(st.one_of(any_instances, crowded_instances), tie_rules)
def test_greedy_incremental_matches_the_pair_rescan(instance, tie):
    expected = reference_greedy_incremental(instance, *tie)
    assert pairs_of(run_greedy_incremental(instance, *tie)) == expected


@given(st.one_of(any_instances, crowded_instances))
def test_polygon_final_sweep_takes_the_lowest_pair_each_step(instance):
    run = run_polygon(instance)
    pairs = pairs_of(run)
    rounds = len(pairs) - run.post_sweep_steps
    masks = [s.mask for s in instance.initial_sets]
    for i, j in pairs[:rounds]:
        masks[i] = masks[j] = masks[i] | masks[j]
    assert pairs[rounds:] == reference_lowest_pair_sweep(masks)


@given(st.one_of(any_instances, crowded_instances))
def test_polygon_matches_the_round_robin_written_from_its_definition(instance):
    run = run_polygon(instance)
    expected = reference_polygon(instance)
    assert (pairs_of(run), run.rounds, run.post_sweep_steps) == expected


@given(any_instances, st.integers(0, 2**32))
def test_randomized_matches_a_link_rescan_per_phase(instance, seed):
    run = run_randomized(instance, seed)
    assert (pairs_of(run), run.rounds) == reference_randomized(instance, seed)


def test_randomized_draws_are_the_draws_of_random_shuffle():
    """rand permutes each phase from ``getrandbits`` directly, with the draw
    widths computed once per run; every order, and the generator state after
    five phases, must match ``random.shuffle`` at every m up to 130, across
    the 64- and 128-bit draw widths."""
    for m in range(2, 131):
        draws = _shuffle_draws(m)
        for seed in (0, 1, m, 2**40 + m):
            drawn, shuffled = list(range(m)), list(range(m))
            source, reference = random.Random(seed), random.Random(seed)
            for _ in range(5):
                _permute(drawn, draws, source.getrandbits)
                reference.shuffle(shuffled)
                assert drawn == shuffled, (m, seed)
            assert source.getrandbits(32) == reference.getrandbits(32), (m, seed)


# (n, k) on both sides of ``random.sample``'s switch from a pool of the
# population to a set of picks: the set wins once n exceeds 21 for k <= 5,
# and 85 for 6 <= k <= 21; past k = 341 the pool wins at every n <= 4096.
SAMPLE_SIZES = [
    (1, 1), (5, 2), (5, 5), (20, 5), (21, 5), (21, 21), (22, 5), (22, 1),
    (50, 5), (84, 6), (85, 6), (86, 6), (85, 21), (86, 21), (100, 3),
    (100, 7), (200, 15), (300, 15), (4096, 1), (4096, 50), (4096, 400),
    (4096, 4096),
]


@pytest.mark.parametrize("n, k", SAMPLE_SIZES)
def test_instance_sets_are_the_draws_of_random_sample(n, k):
    """Instances sample each set from ``getrandbits`` directly; the mask and
    the generator state after it must match ``random.sample(range(n), k)``."""
    for seed in (0, 1, n, 2**40 + k):
        source, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            expected = sum(1 << e for e in reference.sample(range(n), k))
            assert _sample_mask(source.getrandbits, n, k) == expected, seed
        assert source.getrandbits(32) == reference.getrandbits(32), seed


@pytest.mark.parametrize("mnk", [(10, 6, 3), (10, 8, 4)])
def test_schedulers_match_the_references_on_crowded_instances(mnk):
    """Many nodes over few segments make pair unions that contain other
    sets, the case where glink's cached counts drop the activated
    endpoints; such a miscount changes a few percent of these schedules."""
    for seed in range(150):
        instance = gen_instance(*mnk, seed)
        for tie in (("lowest", 0), ("random", seed)):
            assert pairs_of(run_greedy_links(instance, *tie)) == reference_greedy_links(
                instance, *tie
            )
            assert pairs_of(run_rarest_first(instance, *tie)) == reference_rarest_first(
                instance, *tie
            )
        run = run_randomized(instance, seed)
        assert (pairs_of(run), run.rounds) == reference_randomized(instance, seed)


@given(st.one_of(any_instances, crowded_instances), tie_rules)
def test_every_rarest_first_step_takes_a_maximal_row(instance, tie):
    masks = [s.mask for s in instance.initial_sets]
    for link in run_rarest_first(instance, *tie).schedule.link_list():
        rows = rarest_first_rows(masks, instance.n)
        assert rows[link] == max(rows.values())
        exchange(masks, link.i, link.j)
    assert rarest_first_rows(masks, instance.n) == {}


def holder_classes(masks, n):
    """``classes[p]``: the segments that exactly p of ``masks`` hold, by a
    fresh count per segment."""
    classes = [0] * (len(masks) + 1)
    for e in range(n):
        classes[sum(mask >> e & 1 for mask in masks)] |= 1 << e
    return classes


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_lifted_holder_classes_match_a_fresh_count_along_a_random_walk(instance, seed):
    """Rarest-first's holder classes, lifted by every initial mask from
    class 0 and then by both gains of each exchange, each from the lowest
    non-empty class past 0 or, if higher, the number of nodes holding the
    set it came from, equal a fresh per-segment count."""
    rng = random.Random(seed)
    masks = [s.mask for s in instance.initial_sets]
    classes = [(1 << instance.n) - 1] + [0] * instance.m
    for mask in masks:
        _lift(classes, mask, 0)
    while True:
        assert classes == holder_classes(masks, instance.n)
        links = pair_scan_links(masks)
        if not links:
            break
        i, j = rng.choice(links)
        low = min(p for p in range(1, instance.m + 1) if classes[p])
        starts = max(low, masks.count(masks[j])), max(low, masks.count(masks[i]))
        for gained, start in zip(exchange(masks, i, j)[2:], starts):
            _lift(classes, gained, start)


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_set_scan_matches_a_pair_scan_along_a_random_walk(instance, seed):
    rng = random.Random(seed)
    masks = [s.mask for s in instance.initial_sets]
    while True:
        expected = pair_scan_links(masks)
        set_pairs = list(set_links(masks))
        assert len({frozenset(p) for p in set_pairs}) == len(set_pairs)
        assert sorted(node_pairs(grouped(masks), set_pairs)) == expected
        chosen = rng.sample(set_pairs, rng.randint(0, len(set_pairs)))
        wanted = {frozenset(p) for p in chosen}
        assert sorted(node_pairs(grouped(masks), chosen)) == [
            (i, j) for i, j in expected if frozenset((masks[i], masks[j])) in wanted
        ]
        assert sorted(node_pairs(*set_table(masks))) == expected
        assert set(rarest_first_rows(masks, instance.n)) == {
            Link(i, j) for i, j in expected
        }
        assert (next(set_links(masks), None) is None) == (not expected)
        if not expected:
            break
        exchange(masks, *rng.choice(expected))


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
        move_table(holders, pairs, masks[i], masks[j], i, j)
        exchange(masks, i, j)


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_gain_buckets_match_a_fresh_scan_after_every_exchange(instance, seed):
    """ginc's pairs filed by gain, moved by the set table's one move
    function along a random walk: each kept pair sits in the bucket of its
    gain, no bucket is empty, and the buckets together hold the pairs of a
    fresh scan."""
    rng = random.Random(seed)
    masks = [s.mask for s in instance.initial_sets]
    holders = set_holders(masks)
    table = GainBuckets(set_links(holders))
    while True:
        assert {mask: sorted(held) for mask, held in holders.items()} == grouped(masks)
        buckets = table.buckets
        assert all(buckets.values())
        for gain, bucket in buckets.items():
            assert all((a ^ b).bit_count() == gain for a, b in bucket)
        kept = [pair for bucket in buckets.values() for pair in bucket]
        assert sorted(kept) == sorted(lesser_first(set_links(masks)))
        if not kept:
            break
        i, j = rng.choice(node_pairs(holders, kept))
        move_table(holders, table, masks[i], masks[j], i, j)
        exchange(masks, i, j)


def linked_unions(masks):
    """The number of linked set pairs behind each union, by a set scan."""
    return Counter(a | b for a, b in set_links(masks))


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_moved_links_alive_matches_a_fresh_count_after_every_exchange(instance, seed):
    """The slot ranks and union counts handed on from the state before and
    moved in place past its activation equal those counted afresh, key for
    key; each kept pair's rank, divided by RANK_WIDTH, is what activating it
    on its first holders does to the number of live links, less one, and its
    remainder is the pair's gain."""
    rng = random.Random(seed)
    masks = [s.mask for s in instance.initial_sets]
    holders, pairs, slots = rank_table(masks)
    while pairs:
        rank = pair_ranks(pairs)
        _, fresh_pairs, fresh = rank_table(masks)
        assert dict(zip(pairs, rank)) == dict(zip(fresh_pairs, pair_ranks(fresh_pairs)))
        ranks = {key: s[0] for key, s in slots.items()}
        assert ranks == {key: s[0] for key, s in fresh.items()} == counted_ranks(masks)
        counted = linked_unions(masks)
        assert {key: s[1] for key, s in slots.items()} == {
            key: s[1] for key, s in fresh.items()
        } == {key: counted[key] for key in ranks}
        live = len(pair_scan_links(masks))
        for (a, b), value in zip(pairs, rank):
            after = list(masks)
            exchange(after, after.index(a), after.index(b))
            assert value // RANK_WIDTH == len(pair_scan_links(after)) - live - 1
            assert value % RANK_WIDTH == (a ^ b).bit_count()
        i, j = rng.choice(node_pairs(holders, list(pairs)))
        move_ranked(holders, pairs, slots, masks[i], masks[j], i, j, 1)
        exchange(masks, i, j)


def root_slots_match_a_fresh_count(masks):
    """Every slot of a fresh rank table holds the rank counted key by key
    and the number of linked set pairs behind its key, and each pair, keyed
    (lesser, greater), holds the slots of its sets and its union."""
    holders, pairs, slots = rank_table(masks)
    assert {key: s[0] for key, s in slots.items()} == counted_ranks(masks)
    behind = linked_unions(masks)
    assert {key: s[1] for key, s in slots.items()} == {key: behind[key] for key in slots}
    assert Counter(a | b for a, b in pairs) == behind
    assert all(a < b for a, b in pairs)
    slots_shared_and_counted(holders, pairs, slots, masks)


# more distinct sets than the root pass tries one by one, of any sizes, so
# that it looks split sets up through its segment index
many_sets = relaxed_instances(max_m=16, max_n=7)


@given(st.one_of(any_instances, crowded_instances, many_sets))
def test_the_root_pass_counts_every_slot(instance):
    root_slots_match_a_fresh_count([s.mask for s in instance.initial_sets])


# (0-based masks, {key: (N(key), linked pairs behind it)}), each key's rank
# being N*RANK_WIDTH + |key|
ROOT_CASES = {
    # {0,1} lies inside {0}|{1,2}, in neither {0} nor {1,2}: a split set
    "split set": ([0b001, 0b011, 0b110], {1: (1, 0), 3: (1, 0), 6: (2, 0), 7: (0, 2)}),
    # {0} lies inside {0,1} and {3} inside {2,3}, so both lie inside {0,1}|{2,3}
    "sets inside others": (
        [0b0011, 0b1100, 0b0001, 0b1000],
        {3: (2, 0), 12: (2, 0), 1: (2, 0), 8: (2, 0), 15: (0, 1), 11: (1, 1), 13: (1, 1), 9: (2, 1)},
    ),
    # {0,1}|{2,3} = {0,2}|{1,3}: the first pair meets the other two as split sets
    "two pairs, one union": (
        [0b0011, 0b1100, 0b0101, 0b1010],
        {3: (3, 0), 12: (3, 0), 5: (3, 0), 10: (3, 0),
         7: (2, 1), 11: (2, 1), 13: (2, 1), 14: (2, 1), 15: (0, 2)},
    ),
    # the empty set is inside every key
    "empty set": ([0, 0b01, 0b10], {0: (0, 0), 1: (1, 0), 2: (1, 0), 3: (0, 1)}),
    # the full set is above {0}|{1}, which is not a set; {0} has two holders
    "full set": ([0b111, 0b001, 0b001, 0b010], {7: (0, 0), 1: (1, 0), 2: (2, 0), 3: (0, 1)}),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_the_root_pass_on_small_cases(case):
    masks, expected = ROOT_CASES[case]
    _, _, slots = rank_table(masks)
    assert {key: list(s) for key, s in slots.items()} == {
        key: [n * RANK_WIDTH + key.bit_count(), behind] for key, (n, behind) in expected.items()
    }
    root_slots_match_a_fresh_count(masks)


def one_argmax_choice(masks):
    """Greedy-links' choice from a fresh rank table: one argmax over the ranks."""
    _, pairs, _ = rank_table(masks)
    return argmax(pairs, pair_ranks(pairs))


def lesser_first(set_pairs):
    """Each set pair as the set table keys it, (lesser, greater), in order."""
    return [(a, b) if a < b else (b, a) for a, b in set_pairs]


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_one_argmax_over_ranks_makes_the_two_pass_choice(instance, seed):
    """Along a random walk, the highest-ranked set pairs are those the two
    passes choose (most links left alive, then the largest gain): in the
    same order from a fresh table, and as the same pairs from the kept
    table with ranks moved from step to step."""
    rng = random.Random(seed)
    masks = [s.mask for s in instance.initial_sets]
    holders, pairs, slots = rank_table(masks)
    while pairs:
        expected = best_set_pairs(masks)
        assert one_argmax_choice(masks) == lesser_first(expected)
        assert {frozenset(p) for p in argmax(pairs, pair_ranks(pairs))} == {
            frozenset(p) for p in expected
        }
        i, j = rng.choice(node_pairs(holders, list(pairs)))
        move_ranked(holders, pairs, slots, masks[i], masks[j], i, j, 1)
        exchange(masks, i, j)


def walk_round_trips(instance, seed, check=None):
    """Walk the rank table along a random path of exchanges.  At every step,
    step down and then back (``sign = -1``), and check that the holders (as
    multisets), the pairs with their three slots' values and the slots come
    back exactly; then step down for real.  ``check(holders, pairs, slots,
    masks)`` runs on the table after every step.  Returns the cases the
    steps met."""
    rng = random.Random(seed)
    masks = [s.mask for s in instance.initial_sets]
    holders, pairs, slots = rank_table(masks)

    def table():
        held = {mask: sorted(nodes) for mask, nodes in holders.items()}
        values = {pair: [list(s) for s in triple] for pair, triple in pairs.items()}
        return held, values, {key: list(s) for key, s in slots.items()}

    def step(x, y, i, j, sign):
        move_ranked(holders, pairs, slots, x, y, i, j, sign)
        if check is not None:
            after = list(masks)
            after[i], after[j] = (x | y, x | y) if sign > 0 else (x, y)
            check(holders, pairs, slots, after)

    cases = set()
    while pairs:
        i, j = rng.choice(node_pairs(holders, list(pairs)))
        x, y = masks[i], masks[j]
        alone = [len(holders[x]) == 1, len(holders[y]) == 1]
        if all(alone):
            cases.add("x and y vanish")
        if any(alone):
            cases.add("x or y reappears on the way back")
        if x | y in holders:
            cases.add("u already exists")
        before = table()
        for sign in (1, -1):
            step(x, y, i, j, sign)
        assert table() == before
        step(x, y, i, j, 1)
        exchange(masks, i, j)
    return cases


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_a_step_back_inverts_the_step_down_exactly(instance, seed):
    walk_round_trips(instance, seed)


def slots_shared_and_counted(holders, pairs, slots, masks):
    """Each pair (a, b) holds the slots of a, b and a|b themselves, each
    slot counts the linked pairs behind its key, and every slot key is a
    live set or a live union."""
    for (a, b), (sa, sb, w) in pairs.items():
        assert sa is slots[a] and sb is slots[b] and w is slots[a | b]
    behind = Counter(a | b for a, b in pairs)
    assert {key: s[1] for key, s in slots.items()} == {key: behind[key] for key in slots}
    assert slots.keys() == {*holders, *behind} == {*masks, *linked_unions(masks)}


@given(st.one_of(any_instances, crowded_instances), st.integers(0, 2**32))
def test_the_slots_are_shared_and_counted_after_every_step(instance, seed):
    walk_round_trips(instance, seed, slots_shared_and_counted)


def test_the_round_trip_walks_meet_every_case():
    cases = set()
    for seed in range(3):
        cases |= walk_round_trips(gen_instance(10, 6, 3, seed), seed)
    assert cases == {
        "x and y vanish",
        "x or y reappears on the way back",
        "u already exists",
    }


def test_a_full_gain_one_link_below_loses_to_the_smallest_gain():
    """Complementary halves gain all n = MAX_SEGMENTS segments, but keep one
    link fewer alive than the pair that gains half of them: the gain must
    never carry into the links-alive part of a rank, which it would with a
    rank width of MAX_SEGMENTS or less."""
    block = MAX_SEGMENTS // 4
    ones = (1 << block) - 1

    def widen(mask):  # each of 4 bits becomes a block of segments
        return sum(ones << (block * b) for b in range(4) if mask >> b & 1)

    masks = [widen(mask) for mask in (0b0001, 0b1110, 0b1101, 0b1001, 0b1011)]
    a, b, c, _, e = masks
    assert best_set_pairs(masks) == [(c, e)]
    assert a < b and e < c  # the set table keys a pair (lesser, greater)
    assert one_argmax_choice(masks) == [(e, c)]
    _, pairs, _ = rank_table(masks)
    rank = dict(zip(pairs, pair_ranks(pairs)))
    halves, winner = rank[a, b], rank[e, c]
    assert (halves // RANK_WIDTH, halves % RANK_WIDTH) == (
        winner // RANK_WIDTH - 1,
        MAX_SEGMENTS,
    )
    assert winner % RANK_WIDTH == MAX_SEGMENTS // 2


@given(any_instances, st.sampled_from(TIE_MODES), st.integers(0, 2**32))
def test_schedule_views_match_a_traced_replay(instance, tie_mode, seed):
    """A run keeps raw records; its link view, built on reading, replays
    through the kernel to the same records and the run's final state."""
    for algorithm in ALGORITHM_IDS:
        run = run_algorithm(algorithm, instance, seed=seed, tie_mode=tie_mode)
        masks = [s.mask for s in instance.initial_sets]
        traced = [exchange(masks, link.i, link.j) for link in run.schedule.link_list()]
        assert run.schedule.records == tuple(traced)
        assert masks == [s.mask for s in run.final_state]
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
            for tie_mode in TIE_MODES:
                for algorithm in ALGORITHM_IDS:
                    run = run_algorithm(algorithm, instance, seed=seed, tie_mode=tie_mode)
                    record = (
                        run.algorithm,
                        list(run.schedule.records),
                        tuple(s.mask for s in run.final_state),
                        len(run.schedule),
                        run.alpha,
                        run.rounds,
                        run.post_sweep_steps,
                    )
                    digest.update(repr(record).encode())
    assert digest.hexdigest() == RUNS_DIGEST
