"""Exact social optimum over maximal schedules.

Depth-first search over all activation sequences, memoized on the
*canonical state*: the sorted multiset of per-node masks.  Canonicalization
is sound because an activation's outcome depends only on the two sets
involved, never on node identities, so every state with the same multiset
reaches the same best final aggregate cardinality.

Two admissible devices keep the search exact while pruning hard:

* a per-state bound: nodes already holding the realized universe never
  change, new full-coverage nodes appear in pairs (a node's last activation
  hands the union to its partner as well), and every other node tops out
  one segment short; the search stops expanding a state once it matches
  its bound;
* a greedy presolve seeds the incumbent, so instances where the heuristic
  already meets the initial state's bound never enter the search at all.

Budgets are enforced per search; exceeding one raises
:class:`OracleLimitError` carrying the best certified lower bound found.
A single search runs on one thread; independent instances may be solved
in parallel, one search each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Generator, Iterator

from .algorithms import run_greedy_links
from .core import (
    Instance,
    Link,
    Schedule,
    SystemState,
    _state_bound,
    activate_traced,
    gt_masks,
    initial_state,
    links,
    upper_bound,
)


@dataclass(frozen=True)
class SearchLimits:
    """Visited-state and wall-clock budgets for one optimum search."""

    max_states: int = 10_000_000
    max_seconds: float = 60.0

    def __post_init__(self) -> None:
        # phrased so that a NaN budget fails too
        if not (self.max_states > 0 and self.max_seconds > 0):
            raise ValueError("search limits must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an optimum computation; ``exact`` is False on budget overrun."""

    alpha: int
    witness: Schedule
    exact: bool
    visited: int


class OracleLimitError(RuntimeError):
    """Search budget exceeded; carries the best lower bound found so far."""

    def __init__(self, message: str, best_alpha: int, witness: Schedule, visited: int):
        super().__init__(message)
        self.best_alpha = best_alpha
        self.witness = witness
        self.visited = visited


class _Abort(Exception):
    pass


def canonical_key(state: SystemState) -> tuple[int, ...]:
    """Memo key for a state: its node masks as a sorted multiset.

    States that agree up to node relabelling share a key, and both the
    available-link structure and the best reachable aggregate cardinality
    are functions of the key alone.
    """
    return tuple(sorted(state.masks()))


# a state's best final aggregate cardinality and the set pair activated first
_Result = tuple[int, tuple[int, int] | None]


class _Search:
    def __init__(self, u_mask: int, limits: SearchLimits):
        self.u_mask = u_mask
        self.u_size = u_mask.bit_count()
        self.limits = limits
        self.memo: dict[tuple[int, ...], _Result] = {}
        self.visited = 0
        self.best_leaf = 0
        self.deadline = time.monotonic() + limits.max_seconds

    def best_from(self, root: tuple[int, ...]) -> _Result:
        """Best final aggregate cardinality from ``root`` and the set pair to
        activate first.

        Depth-first: each state's expansion is suspended while a child it
        asks for is expanded, on an explicit stack rather than the Python
        call stack, so schedule length is not capped by the recursion limit.
        """
        # suspended expansions, innermost last
        stack: list[Generator[tuple[int, ...], _Result, _Result]] = []
        key: tuple[int, ...] | None = root  # the state asked for; None once answered
        reply = None  # what the innermost expansion receives when resumed
        while True:
            if key is not None:
                reply = self.memo.get(key)
                if reply is None:
                    self.visited += 1
                    if self.visited > self.limits.max_states:
                        raise _Abort("visited-state budget exceeded")
                    if self.visited % 1024 == 0 and time.monotonic() > self.deadline:
                        raise _Abort("wall-clock budget exceeded")
                    stack.append(self._expand(key))
                elif not stack:
                    return reply
            try:
                key = stack[-1].send(reply)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                key, reply = None, done.value

    def _expand(
        self, key: tuple[int, ...]
    ) -> Generator[tuple[int, ...], _Result, _Result]:
        """Expansion of one state: yields each child key and receives the
        child's result; stores the state's own result in the memo."""
        m = len(key)
        bound = _state_bound(key, self.u_mask, self.u_size)
        seen_pairs: set[tuple[int, int]] = set()
        best = -1
        best_action: tuple[int, int] | None = None
        for ai in range(m - 1):
            a = key[ai]
            for bi in range(ai + 1, m):
                b = key[bi]
                if (a, b) in seen_pairs:
                    continue
                seen_pairs.add((a, b))
                if not gt_masks(a, b):
                    continue
                union = a | b
                child = list(key)
                del child[bi]
                del child[ai]
                child.append(union)
                child.append(union)
                child.sort()
                value, _ = yield tuple(child)
                if value > best:
                    best = value
                    best_action = (a, b)
                    if best == bound:
                        break
            if best == bound:
                break
        if best_action is None and best < 0:
            best = sum(mask.bit_count() for mask in key)
            if best > self.best_leaf:
                self.best_leaf = best
        self.memo[key] = (best, best_action)
        return best, best_action


def _witness_from_memo(instance: Instance, search: _Search) -> Schedule:
    """Rebuild an achieving schedule by walking stored best actions."""
    state = initial_state(instance)
    steps = []
    while True:
        key = canonical_key(state)
        _, action = search.memo[key]
        if action is None:
            break
        a, b = action
        masks = state.masks()
        i = masks.index(a)
        j = next(t for t in range(len(masks)) if t != i and masks[t] == b)
        state, step = activate_traced(state, Link(i, j))
        steps.append(step)
    return Schedule(steps=tuple(steps))


def _solve(instance: Instance, limits: SearchLimits) -> OracleResult:
    presolve = run_greedy_links(instance)
    u_mask = instance.realized_universe.mask
    root = tuple(sorted(instance.initial_sets[i].mask for i in range(instance.m)))
    if presolve.alpha == upper_bound(instance):
        return OracleResult(
            alpha=presolve.alpha, witness=presolve.schedule, exact=True, visited=0
        )
    search = _Search(u_mask, limits)
    try:
        best, _ = search.best_from(root)
    except _Abort as abort:
        best_alpha = max(search.best_leaf, presolve.alpha)
        witness = presolve.schedule if presolve.alpha == best_alpha else Schedule()
        raise OracleLimitError(
            f"limit exceeded ({abort}); best lower bound found: {best_alpha}",
            best_alpha=best_alpha,
            witness=witness,
            visited=search.visited,
        ) from None
    if best == presolve.alpha:
        witness = presolve.schedule
    else:
        witness = _witness_from_memo(instance, search)
    return OracleResult(alpha=best, witness=witness, exact=True, visited=search.visited)


def optimal_alpha(
    instance: Instance, limits: SearchLimits = SearchLimits()
) -> tuple[int, Schedule]:
    """Maximum aggregate cardinality over all maximal schedules, with a witness.

    Raises :class:`OracleLimitError` when the budget runs out first.
    """
    result = _solve(instance, limits)
    return result.alpha, result.witness


def solve_optimal(
    instance: Instance, limits: SearchLimits = SearchLimits()
) -> OracleResult:
    """Like :func:`optimal_alpha` but never raises on budget overrun;
    the result is flagged ``exact=False`` instead."""
    try:
        return _solve(instance, limits)
    except OracleLimitError as err:
        return OracleResult(
            alpha=err.best_alpha, witness=err.witness, exact=False, visited=err.visited
        )


class MaximalScheduleStream:
    """Iterator over ``(Schedule, final_state)`` for distinct maximal schedules.

    Yields every activation sequence whose prefixes are all legal and whose
    final state has no link left, in lexicographic link order, up to ``cap``
    schedules.  After exhaustion, ``truncated`` tells whether the cap cut the
    enumeration short.
    """

    def __init__(self, instance: Instance, cap: int | None = None):
        if cap is not None and cap < 1:
            raise ValueError("cap must be positive when given")
        self.truncated = False
        self._cap = cap
        self._count = 0
        self._walk = self._generate(initial_state(instance), [])

    def __iter__(self) -> "MaximalScheduleStream":
        return self

    def __next__(self) -> tuple[Schedule, SystemState]:
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

    def _generate(self, state, steps) -> Iterator[tuple[Schedule, SystemState]]:
        available = sorted(links(state))
        if not available:
            yield Schedule(steps=tuple(steps)), state
            return
        for link in available:
            next_state, step = activate_traced(state, link)
            steps.append(step)
            yield from self._generate(next_state, steps)
            steps.pop()


def enumerate_maximal_schedules(
    instance: Instance, cap: int | None = None
) -> MaximalScheduleStream:
    """Stream all maximal schedules of ``instance`` (up to ``cap``)."""
    return MaximalScheduleStream(instance, cap)
