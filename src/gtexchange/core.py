"""Value model for give-and-take segment exchange.

A group of nodes each holds a subset of a fixed universe of data segments.
Two nodes may run a *full exchange* only when each offers at least one
segment the other lacks (the give-and-take criterion); afterwards both hold
the union of their two sets.  This module provides the substrate everything
else runs on: segment sets as bit masks, problem instances, system states,
links, activation, schedule replay, and the parity-aware upper bound on the
aggregate cardinality.

The public values are immutable after construction, and :func:`activate`
returns a fresh state.  Underneath, every activation in the library runs
through one kernel on a list of raw node masks, :func:`exchange`, which
updates the list in place and returns a raw record
``(i, j, gained_i, gained_j)`` of ints: the schedulers, schedule replay and
the oracle's witness replay keep such a list, collect the records into a
:class:`Schedule`, and build a :class:`SystemState` only at the end.  The
:class:`Link`, :class:`SegmentSet` and :class:`ScheduleStep` views of a
schedule are built when they are read (:attr:`Schedule.steps`,
:meth:`Schedule.link_list`), so no activation constructs them.

Links are found over the *distinct* node sets: the oracle and the stopping
tests scan them lazily (:func:`set_links`), while the greedy schedulers
keep a set table, the holders of each distinct set and every linked set
pair with its union, built once (:func:`set_table`) and moved in O(D) per
activation (:func:`exchange_kept`).  Greedy-links and the oracle count
the links an activation keeps alive through :func:`move_incomparable` and
:func:`count_incomparable`, and the schedulers expand only the set pairs
they choose into node pairs (:func:`node_pairs`).

Node and segment indices are 0-based throughout the library; file formats
and CLI output use 1-based ids (see the harness module).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator, Sequence

MAX_SEGMENTS = 4096  # fixed mask width; larger universes are rejected at load


class InvalidActivationError(ValueError):
    """A link activation was attempted where the exchange criterion fails."""


def gt_masks(a: int, b: int) -> bool:
    """Give-and-take criterion on raw bit masks: each side offers something new."""
    return (a & ~b) != 0 and (b & ~a) != 0


@dataclass(frozen=True)
class SegmentSet:
    """An immutable set of segment indices backed by a single bit mask."""

    mask: int = 0

    @classmethod
    def from_iterable(cls, indices: Iterable[int]) -> "SegmentSet":
        mask = 0
        for idx in indices:
            if idx < 0:
                raise ValueError(f"segment index must be non-negative, got {idx}")
            mask |= 1 << idx
        return cls(mask)

    def __contains__(self, idx: int) -> bool:
        return idx >= 0 and (self.mask >> idx) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        idx = 0
        while mask:
            if mask & 1:
                yield idx
            mask >>= 1
            idx += 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "SegmentSet") -> "SegmentSet":
        return SegmentSet(self.mask | other.mask)

    def __and__(self, other: "SegmentSet") -> "SegmentSet":
        return SegmentSet(self.mask & other.mask)

    def __sub__(self, other: "SegmentSet") -> "SegmentSet":
        return SegmentSet(self.mask & ~other.mask)

    def issubset(self, other: "SegmentSet") -> bool:
        return self.mask & ~other.mask == 0

    def to_list(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"SegmentSet({self.to_list()})"


@dataclass(frozen=True)
class Instance:
    """A problem instance: ``m`` nodes over an ``n``-segment universe.

    With ``strict=True`` (the default) every node must start with a
    non-empty proper subset of the universe; relaxing the check keeps all
    operations well-defined (a node holding everything simply never links).
    """

    m: int
    n: int
    initial_sets: tuple[SegmentSet, ...]
    strict: InitVar[bool] = True

    def __post_init__(self, strict: bool) -> None:
        object.__setattr__(self, "initial_sets", tuple(self.initial_sets))
        if self.m < 2:
            raise ValueError(f"need at least two nodes, got m={self.m}")
        if self.n < 1:
            raise ValueError(f"universe needs at least one segment, got n={self.n}")
        if self.n > MAX_SEGMENTS:
            raise ValueError(
                f"universe size {self.n} exceeds the {MAX_SEGMENTS}-segment cap"
            )
        if len(self.initial_sets) != self.m:
            raise ValueError(
                f"expected {self.m} initial sets, got {len(self.initial_sets)}"
            )
        full = (1 << self.n) - 1
        for i, s in enumerate(self.initial_sets):
            if s.mask & ~full:
                raise ValueError(
                    f"node {i} holds segments outside the {self.n}-segment universe"
                )
            if strict and s.mask == 0:
                raise ValueError(f"node {i} starts empty (relax validation to allow)")
            if strict and s.mask == full:
                raise ValueError(
                    f"node {i} already holds the whole universe "
                    f"(relax validation to allow)"
                )

    @property
    def realized_universe(self) -> SegmentSet:
        """Union of all initial sets: the coverage actually present in the group."""
        mask = 0
        for s in self.initial_sets:
            mask |= s.mask
        return SegmentSet(mask)

    @property
    def equal_cardinality(self) -> int | None:
        """Common initial set size when all nodes start equal-sized, else None."""
        sizes = {len(s) for s in self.initial_sets}
        return sizes.pop() if len(sizes) == 1 else None


@dataclass(frozen=True, order=True)
class Link:
    """An unordered node pair, stored canonically with ``i < j``."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError(f"a link needs two distinct nodes, got ({self.i},{self.j})")
        if self.i < 0 or self.j < 0:
            raise ValueError(f"node indices must be non-negative, got ({self.i},{self.j})")
        if self.i > self.j:
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)

    def __repr__(self) -> str:
        return f"Link({self.i}, {self.j})"


@dataclass(frozen=True)
class SystemState:
    """Current segment set of every node after ``step`` activations."""

    sets: tuple[SegmentSet, ...]
    step: int = 0

    def masks(self) -> tuple[int, ...]:
        return tuple(s.mask for s in self.sets)


@dataclass(frozen=True)
class ScheduleStep:
    """One activation together with what each endpoint gained from it."""

    link: Link
    gained_i: SegmentSet
    gained_j: SegmentSet


Record = tuple[int, int, int, int]  # one activation: (i, j, gained_i, gained_j), i < j


def _step(record: Record) -> ScheduleStep:
    i, j, gained_i, gained_j = record
    return ScheduleStep(Link(i, j), SegmentSet(gained_i), SegmentSet(gained_j))


@dataclass(frozen=True)
class Schedule:
    """An ordered activation trace; nonempty gains certify every step was legal.

    It keeps the raw records :func:`exchange` returns; the :class:`ScheduleStep`
    and :class:`Link` views are built when they are read.
    """

    records: tuple[Record, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    @property
    def steps(self) -> tuple[ScheduleStep, ...]:
        return tuple(map(_step, self.records))

    def link_list(self) -> list[Link]:
        return [Link(i, j) for i, j, _, _ in self.records]


def initial_state(instance: Instance) -> SystemState:
    return SystemState(sets=instance.initial_sets, step=0)


def _check_node(m: int, idx: int) -> None:
    if not 0 <= idx < m:
        raise ValueError(f"node index {idx} out of range for {m} nodes")


def gt_satisfied(state: SystemState, i: int, j: int) -> bool:
    """True iff nodes ``i`` and ``j`` may exchange: each holds a segment the other lacks."""
    _check_node(len(state.sets), i)
    _check_node(len(state.sets), j)
    if i == j:
        raise ValueError(f"a link needs two distinct nodes, got ({i},{j})")
    return gt_masks(state.sets[i].mask, state.sets[j].mask)


def set_links(masks: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Every linked pair (x, y) of *distinct* masks among ``masks``.

    An exchange's outcome depends only on the two sets involved, and nodes
    holding the same set never link, so the schedulers score set pairs and
    expand only the ones they choose (:func:`node_pairs`).  Pairs come in a
    fixed order: by first appearance of ``x``, then of ``y``.  The scan is
    lazy, so ``next(set_links(masks), None)`` stops at the first link.
    """
    distinct = list(dict.fromkeys(masks))
    for at, x in enumerate(distinct):
        outside = ~x
        for y in distinct[at + 1 :]:
            if y & outside and x & ~y:
                yield x, y


Holders = dict[int, list[int]]  # distinct mask -> the nodes holding it
SetPairs = dict[tuple[int, int], int]  # linked pair of distinct masks -> union


def node_pairs(
    holders: Holders, set_pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Every node pair (i, j), i < j, whose two masks form one of ``set_pairs``,
    in ascending order.  ``set_pairs`` holds unordered pairs of distinct masks,
    each at most once (as :func:`set_links` yields them)."""
    pairs = [
        (i, j) if i < j else (j, i)
        for x, y in set_pairs
        for i in holders[x]
        for j in holders[y]
    ]
    pairs.sort()
    return pairs


def set_table(masks: Sequence[int]) -> tuple[Holders, SetPairs]:
    """The kept set table of ``masks``: the holders of each distinct mask and
    every linked pair of distinct masks, in :func:`set_links` order, with its
    union.  :func:`exchange_kept` keeps it current, so a scheduler picking
    one set pair per step scores the kept pairs instead of scanning again."""
    holders: Holders = {}
    pairs: SetPairs = {}
    for i, mask in enumerate(masks):
        _join(holders, pairs, mask, [i])
    return holders, pairs


def _join(holders: Holders, pairs: SetPairs, u: int, nodes: list[int]) -> None:
    """Make ``nodes`` holders of u; a new set links to every incomparable set."""
    held = holders.get(u)
    if held is None:
        outside = ~u
        for z in holders:
            if z & outside and u & ~z:
                pairs[z, u] = z | u
        holders[u] = nodes
    else:
        held += nodes


def exchange_kept(
    masks: list[int], holders: Holders, pairs: SetPairs, i: int, j: int
) -> Record:
    """:func:`exchange`, moving the set table of ``masks`` along in O(D) for
    D distinct sets: a set left with no holder drops its pairs, and the
    union, when it is a new set, gains its own."""
    x, y = masks[i], masks[j]
    record = exchange(masks, i, j)
    for old, node in ((x, i), (y, j)):
        held = holders[old]
        held.remove(node)
        if not held:
            del holders[old]
            for z in holders:
                pairs.pop((old, z), None)
                pairs.pop((z, old), None)
    _join(holders, pairs, x | y, [i, j])
    return record


def move_incomparable(
    incomparable: dict[int, int], keys: Iterable[int], x: int, y: int
) -> None:
    """Move ``N(K)``, the number of nodes holding a set incomparable (``~``)
    with K, past one activation of the set pair (x, y) for every K in
    ``keys``, in place.  One node moves from x and one from y to x|y, so K
    moves by ``2*[x|y ~ K] - [x ~ K] - [y ~ K]``: only keys comparable with
    x, y or x|y can move."""
    u = x | y
    for key in keys:
        outside = ~key
        if not key & ~u:
            incomparable[key] -= (key & ~x != 0 and x & outside != 0) + (
                key & ~y != 0 and y & outside != 0
            )
        elif not x & outside or not y & outside:
            if u & outside:  # K holds x or y but not u
                incomparable[key] += 2 - (x & outside != 0) - (y & outside != 0)


def count_incomparable(
    incomparable: dict[int, int], distinct: list[tuple[int, int]], keys: Iterable[int]
) -> None:
    """Count ``N(K)`` afresh for every K in ``keys``, in place, over the
    ``distinct`` (set, holder count) pairs: O(D) per key."""
    for key in keys:
        outside = ~key
        value = 0
        for z, c in distinct:
            if z & outside and key & ~z:
                value += c
        incomparable[key] = value


def links(state: SystemState) -> set[Link]:
    """All currently available links, as canonical (i < j) pairs."""
    holders, pairs = set_table(state.masks())
    return {Link(i, j) for i, j in node_pairs(holders, pairs)}


def is_maximal(state: SystemState) -> bool:
    """True iff no further activation is possible anywhere in the group."""
    return next(set_links(state.masks()), None) is None


def exchange(masks: list[int], i: int, j: int) -> Record:
    """Full exchange between nodes ``i`` and ``j`` of ``masks``, in place.

    Both entries become the union of the two; the returned record
    ``(i, j, gained_i, gained_j)`` orders the pair ``i < j`` and gives what
    each endpoint gained as a mask.  Raises :class:`InvalidActivationError`
    and leaves ``masks`` unchanged when the give-and-take criterion fails
    (as it does for ``i == j``).  Callers pass in-range node ids.
    """
    if i > j:
        i, j = j, i
    a, b = masks[i], masks[j]
    gained_i, gained_j = b & ~a, a & ~b
    if not (gained_i and gained_j):
        raise InvalidActivationError(
            f"invalid activation: link ({i},{j}) does not satisfy "
            f"the give-and-take criterion"
        )
    masks[i] = masks[j] = a | b
    return i, j, gained_i, gained_j


def activate_traced(state: SystemState, link: Link) -> tuple[SystemState, ScheduleStep]:
    """Activate ``link`` and return the new state plus the traced step."""
    _check_node(len(state.sets), link.i)
    _check_node(len(state.sets), link.j)
    masks = [s.mask for s in state.sets]
    record = exchange(masks, link.i, link.j)
    sets = list(state.sets)
    sets[link.i] = sets[link.j] = SegmentSet(masks[link.i])
    return SystemState(sets=tuple(sets), step=state.step + 1), _step(record)


def activate(state: SystemState, link: Link) -> SystemState:
    """Full exchange across ``link``: both endpoints end up with the union."""
    new_state, _ = activate_traced(state, link)
    return new_state


def aggregate_cardinality(state: SystemState) -> int:
    """Sum of per-node set sizes: the social objective."""
    return sum(s.mask.bit_count() for s in state.sets)


def apply_schedule(
    instance: Instance, schedule: Iterable[Link]
) -> tuple[SystemState, Schedule]:
    """Replay ``schedule`` from the instance's initial state.

    Returns the final state and the enriched trace with per-step gains.
    Raises :class:`InvalidActivationError` naming the first step whose link
    was not available at its activation time.
    """
    masks = [s.mask for s in instance.initial_sets]
    records: list[Record] = []
    for idx, link in enumerate(schedule):
        _check_node(instance.m, link.i)
        _check_node(instance.m, link.j)
        try:
            records.append(exchange(masks, link.i, link.j))
        except InvalidActivationError:
            raise InvalidActivationError(
                f"invalid activation at step {idx + 1}: link ({link.i},{link.j})"
            ) from None
    state = SystemState(sets=tuple(map(SegmentSet, masks)), step=len(records))
    return state, Schedule(records=tuple(records))


def _state_bound(masks: Sequence[int], u_mask: int, u_size: int) -> int:
    """Largest final aggregate cardinality reachable from a state's masks.

    ``holders`` nodes already have the whole realized universe ``u_mask``
    and never change; new holders appear in pairs (a node's last activation
    hands the union to its partner as well), so at most an even number of
    the rest can still join them, and whoever does not tops out at
    ``u_size - 1`` segments.
    """
    m = len(masks)
    holders = sum(1 for mask in masks if mask == u_mask)
    reachable = holders + ((m - holders) // 2) * 2
    return u_size * reachable + (u_size - 1) * (m - reachable)


def upper_bound(instance: Instance) -> int:
    """Parity-aware cap on the aggregate cardinality: the state bound of the root.

    With ``u`` the realized-universe size and no node starting with the whole
    realized universe (every strict instance), this is ``m*u`` for even ``m``
    and ``m*u - 1`` for odd ``m``: nodes reaching full coverage appear in
    pairs, so with an odd node count one node always falls short.
    """
    u_mask = instance.realized_universe.mask
    masks = [s.mask for s in instance.initial_sets]
    return _state_bound(masks, u_mask, u_mask.bit_count())
