"""Independent reference computations the tests check the library against.

Everything here is deliberately brute force and shares no code path with
the implementations under test: it imports only value types from the
package and runs every exchange as an inline union.  A memo-free recursive
optimum, an enumerator of every maximal schedule,
coverage probability by exhaustive tuple enumeration, by
inclusion-exclusion over rationals, by a composition sum and by sampling,
a pair-scan link finder, rarest-first's preference rows, schedulers
written straight from their definitions (every step rescans every pair, with
no cached link state), and the randomized scheduler's exact mean by a chain
over mask multisets.
"""

import random
from functools import cache
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, sqrt

from gtexchange import Link, Schedule, SegmentSet


def brute_force_optimal(instance):
    """Memo-free depth-first maximum over all activation sequences."""

    def rec(masks):
        best = None
        m = len(masks)
        for i in range(m - 1):
            for j in range(i + 1, m):
                a, b = masks[i], masks[j]
                if (a & ~b) and (b & ~a):
                    union = a | b
                    child = list(masks)
                    child[i] = union
                    child[j] = union
                    value = rec(tuple(child))
                    if best is None or value > best:
                        best = value
        if best is None:
            return sum(x.bit_count() for x in masks)
        return best

    return rec(tuple(s.mask for s in instance.initial_sets))


class MaximalScheduleStream:
    """Iterator over ``(Schedule, final sets)`` for distinct maximal schedules.

    Yields every activation sequence whose prefixes are all legal and whose
    final state has no link left, in lexicographic link order, up to ``cap``
    schedules.  After exhaustion, ``truncated`` tells whether the cap cut the
    enumeration short.  It recurses once per activation, so it suits the
    small instances tests use.
    """

    def __init__(self, instance, cap=None):
        if cap is not None and cap < 1:
            raise ValueError("cap must be positive when given")
        self.truncated = False
        self._cap = cap
        self._count = 0
        self._walk = self._generate([s.mask for s in instance.initial_sets], [])

    def __iter__(self):
        return self

    def __next__(self) -> tuple[Schedule, tuple[SegmentSet, ...]]:
        if self._cap is not None and self._count >= self._cap:
            # Probe whether anything remained beyond the cap.
            try:
                next(self._walk)
            except StopIteration:
                raise
            else:
                self.truncated = True
                raise StopIteration
        item = next(self._walk)
        self._count += 1
        return item

    def _generate(self, masks, records):
        available = pair_scan_links(masks)
        if not available:
            yield Schedule(records=tuple(records)), tuple(map(SegmentSet, masks))
            return
        for i, j in available:
            a, b = masks[i], masks[j]
            masks[i] = masks[j] = a | b
            records.append((i, j, b & ~a, a & ~b))
            yield from self._generate(masks, records)
            records.pop()
            masks[i], masks[j] = a, b


def enumerate_maximal_schedules(instance, cap=None):
    """Stream all maximal schedules of ``instance`` (up to ``cap``)."""
    return MaximalScheduleStream(instance, cap)


def enumeration_optimal(instance):
    """Maximum aggregate cardinality over every enumerated maximal schedule."""
    return max(
        sum(map(len, final)) for _, final in enumerate_maximal_schedules(instance)
    )


def coverage_by_enumeration(m, n, k):
    """Coverage probability by iterating all C(n,k)^m subset tuples."""
    subsets = [
        sum(1 << e for e in combo) for combo in combinations(range(n), k)
    ]
    full = (1 << n) - 1
    favourable = 0
    for tup in product(subsets, repeat=m):
        union = 0
        for mask in tup:
            union |= mask
        if union == full:
            favourable += 1
    return Fraction(favourable, len(subsets) ** m)


def coverage_by_inclusion_exclusion(m, n, k):
    """Coverage probability via the miss-count sieve, exact rationals."""
    total = comb(n, k)
    acc = Fraction(0)
    for miss in range(n + 1):
        if k > n - miss:
            break
        acc += (-1) ** miss * comb(n, miss) * Fraction(comb(n - miss, k), total) ** m
    return acc


def coverage_by_composition(m, n, k):
    """Coverage probability by summing over how many of each node's picks
    repeat segments already held, exact rationals.

    Nodes are added one by one; ``overlap`` is how many of a node's picks
    land inside the union built so far, and all overlaps together must
    absorb exactly the ``m*k - n`` repeated picks.  Memoized on
    (node, union size, picks left to absorb).
    """
    if m * k < n:
        return Fraction(0)

    @cache
    def extend(node, union_size, remaining):
        if node > m:
            return 1 if remaining == 0 else 0
        lo = max(0, remaining - (m - node) * k)
        hi = min(k, union_size, remaining)
        return sum(
            comb(union_size, overlap)
            * comb(n - union_size, k - overlap)
            * extend(node + 1, union_size + k - overlap, remaining - overlap)
            for overlap in range(lo, hi + 1)
        )

    return Fraction(comb(n, k) * extend(2, k, m * k - n), comb(n, k) ** m)


def pmnk_montecarlo(m, n, k, trials, seed):
    """Sampling estimate of the coverage probability, with its standard error."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    population = range(n)
    full = (1 << n) - 1
    hits = 0
    for _ in range(trials):
        union = 0
        for _ in range(m):
            for e in rng.sample(population, k):
                union |= 1 << e
        if union == full:
            hits += 1
    estimate = hits / trials
    return estimate, sqrt(estimate * (1.0 - estimate) / trials)


def chain_by_inclusion(sets):
    """True when the node sets are totally ordered by inclusion."""
    ordered = sorted((s.mask for s in sets), key=int.bit_count)
    return all(a & ~b == 0 for a, b in zip(ordered, ordered[1:]))


def gt_masks(a, b):
    """Give-and-take criterion on raw bit masks: each side offers something new."""
    return (a & ~b) != 0 and (b & ~a) != 0


def pair_scan_links(masks):
    """Every (i, j), i < j, whose masks satisfy the exchange criterion, in
    ascending order, testing one node pair at a time."""
    m = len(masks)
    return [
        (i, j)
        for i in range(m - 1)
        for j in range(i + 1, m)
        if masks[i] & ~masks[j] and masks[j] & ~masks[i]
    ]


def _tie_picker(mode, seed):
    if mode == "lowest":
        return lambda candidates: candidates[0]
    return random.Random(seed).choice


def _argmax_pairs(pairs, key):
    """The pairs with the largest key, in their given order."""
    keys = [key(i, j) for i, j in pairs]
    best = max(keys)
    return [p for p, k in zip(pairs, keys) if k == best]


def reference_greedy_links(instance, mode="lowest", seed=None):
    """Greedy-Links schedule as (i, j) pairs: most links left alive, then the
    largest gain, then the tie rule; each pair's count scans every third node."""
    pick = _tie_picker(mode, seed)
    masks = [s.mask for s in instance.initial_sets]
    m = len(masks)
    schedule = []
    while True:
        available = pair_scan_links(masks)
        if not available:
            return schedule
        degree = [sum(1 for p in available if t in p) for t in range(m)]

        def links_left(i, j):
            union = masks[i] | masks[j]
            third = sum(
                1
                for t in range(m)
                if t not in (i, j) and union & ~masks[t] and masks[t] & ~union
            )
            return len(available) - degree[i] - degree[j] + 1 + 2 * third

        def gain(i, j):
            union = masks[i] | masks[j]
            return 2 * bin(union).count("1") - bin(masks[i]).count("1") - bin(masks[j]).count("1")

        candidates = _argmax_pairs(_argmax_pairs(available, links_left), gain)
        i, j = pick(candidates)
        masks[i] = masks[j] = masks[i] | masks[j]
        schedule.append((i, j))


def _preference_rows(masks, n):
    """Rarest-first's preference row of every available (i, j), i < j.

    Row layout: first an indicator that the activation would *not* hand the
    full ``n``-segment universe to the pair, then, for each holder count
    p = 1..m, how many segments currently held by exactly p nodes are held
    by exactly one endpoint (their availability would grow).  Rows compare
    lexicographically, larger is preferred.
    """
    m = len(masks)
    full = (1 << n) - 1
    holders = [sum(1 for x in masks if x >> e & 1) for e in range(n)]
    rows = {}
    for i, j in pair_scan_links(masks):
        sym = masks[i] ^ masks[j]
        rows[i, j] = (int(masks[i] | masks[j] != full),) + tuple(
            sum(1 for e in range(n) if holders[e] == p and sym >> e & 1)
            for p in range(1, m + 1)
        )
    return rows


def rarest_first_rows(masks, n):
    """Preference row for every available link among the node ``masks``,
    keyed by link."""
    rows = _preference_rows(masks, n)
    return {Link(i, j): row for (i, j), row in rows.items()}


def reference_rarest_first(instance, mode="lowest", seed=None):
    """Rarest-first schedule as (i, j) pairs: the full preference row of every
    available pair (universe indicator, then one count per holder class),
    maximized lexicographically, then the tie rule."""
    pick = _tie_picker(mode, seed)
    masks = [s.mask for s in instance.initial_sets]
    schedule = []
    while True:
        rows = _preference_rows(masks, instance.n)
        if not rows:
            return schedule
        i, j = pick(_argmax_pairs(list(rows), lambda i, j: rows[i, j]))
        masks[i] = masks[j] = masks[i] | masks[j]
        schedule.append((i, j))


def reference_randomized(instance, seed):
    """Randomized phase pairing as ((i, j) pairs, phase count): a phase runs
    while any link is left, found by rescanning every pair."""
    rng = random.Random(seed)
    masks = [s.mask for s in instance.initial_sets]
    m = len(masks)
    order = list(range(m))
    schedule = []
    phases = 0
    while pair_scan_links(masks):
        phases += 1
        rng.shuffle(order)
        for at in range(0, m - 1, 2):
            i, j = order[at], order[at + 1]
            if masks[i] & ~masks[j] and masks[j] & ~masks[i]:
                masks[i] = masks[j] = masks[i] | masks[j]
                schedule.append((min(i, j), max(i, j)))
    return schedule, phases


def _phase_pairings(m):
    """Every way one phase can pair ``range(m)``: each perfect matching, and
    with odd m each one of the other nodes after a sitter-out.  A uniform
    permutation read two at a time gives each of them the same chance."""

    def match(rest):
        if len(rest) < 2:
            yield ()
            return
        first = rest[0]
        for at in range(1, len(rest)):
            for tail in match(rest[1:at] + rest[at + 1:]):
                yield ((first, rest[at]),) + tail

    nodes = tuple(range(m))
    if m % 2 == 0:
        return list(match(nodes))
    return [p for out in nodes for p in match(nodes[:out] + nodes[out + 1:])]


def expected_rand(m, n, k):
    """Exact mean alpha of the randomized scheduler over m independent
    uniform k-subsets of an n-universe, as a Fraction.

    Rand is a chain over the sorted mask multiset: each phase pairs the
    nodes uniformly (:func:`_phase_pairings`) and unions every linked pair.
    A phase that changes nothing repeats, so a state's mean is the plain
    average over the pairings that change it.  The initial multisets are
    weighted by their multinomial counts out of C(n,k)^m tuples.
    """
    pairings = _phase_pairings(m)

    @cache
    def mean(state):
        children = []
        for pairing in pairings:
            masks = list(state)
            for i, j in pairing:
                a, b = masks[i], masks[j]
                if a & ~b and b & ~a:
                    masks[i] = masks[j] = a | b
            if masks != list(state):
                children.append(tuple(sorted(masks)))
        if not children:
            return Fraction(sum(x.bit_count() for x in state))
        return sum(map(mean, children), Fraction(0)) / len(children)

    # ascending, so that each multiset comes out sorted, as the memo keys are
    subsets = sorted(sum(1 << e for e in c) for c in combinations(range(n), k))
    total = Fraction(0)
    for multiset in combinations_with_replacement(subsets, m):
        weight = factorial(m)
        for mask in set(multiset):
            weight //= factorial(multiset.count(mask))
        total += weight * mean(multiset)
    return total / len(subsets) ** m


def reference_greedy_incremental(instance, mode="lowest", seed=None):
    """Greedy-Incremental schedule as (i, j) pairs: the largest gain
    ``2|S_i | S_j| - |S_i| - |S_j|`` over every linked node pair, then the
    tie rule."""
    pick = _tie_picker(mode, seed)
    masks = [s.mask for s in instance.initial_sets]
    schedule = []
    while True:
        available = pair_scan_links(masks)
        if not available:
            return schedule

        def gain(i, j):
            union = masks[i] | masks[j]
            return 2 * bin(union).count("1") - bin(masks[i]).count("1") - bin(masks[j]).count("1")

        i, j = pick(_argmax_pairs(available, gain))
        masks[i] = masks[j] = masks[i] | masks[j]
        schedule.append((i, j))


def reference_lowest_pair_sweep(masks):
    """Polygon's final sweep as (i, j) pairs: from the given node masks,
    activate the smallest linked pair until no link is left."""
    masks = list(masks)
    schedule = []
    while True:
        available = pair_scan_links(masks)
        if not available:
            return schedule
        i, j = min(available)
        masks[i] = masks[j] = masks[i] | masks[j]
        schedule.append((i, j))


def reference_polygon(instance):
    """Polygon as ((i, j) pairs, rounds, post-sweep steps).

    While the greedy scan in node order admits at least two nodes (each
    admitted node holds a segment outside the members so far, and every
    member so far holds one outside it): sort them by how many of their
    segments lie outside the union of the other members, most first, ties
    by index; then for (size - 1) // 2 + 1 rounds exchange each linked pair
    at positions 1-2, 3-4, ... and shift the order left by one.  The lowest
    linked pair then goes until no link is left.
    """
    masks = [s.mask for s in instance.initial_sets]
    schedule = []
    rounds = 0
    while True:
        members = []
        union = 0
        for i, mask in enumerate(masks):
            if mask & ~union and all(masks[j] & ~mask for j in members):
                members.append(i)
                union |= mask
        if len(members) < 2:
            break
        unique = {}
        for i in members:
            others = 0
            for j in members:
                if j != i:
                    others |= masks[j]
            unique[i] = bin(masks[i] & ~others).count("1")
        order = sorted(members, key=lambda i: (-unique[i], i))
        for _ in range((len(members) - 1) // 2 + 1):
            for at in range(0, len(order) - 1, 2):
                i, j = order[at], order[at + 1]
                if masks[i] & ~masks[j] and masks[j] & ~masks[i]:
                    masks[i] = masks[j] = masks[i] | masks[j]
                    schedule.append((min(i, j), max(i, j)))
            order = order[1:] + order[:1]
            rounds += 1
    sweep = reference_lowest_pair_sweep(masks)
    return schedule + sweep, rounds, len(sweep)
