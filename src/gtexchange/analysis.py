"""Closed-form analysis: coverage probability and the randomized-run recursion.

* ``pmnk_exact`` -- probability that m independent uniform k-subsets of an
  n-segment universe jointly cover it, evaluated exactly over big integers
  by inclusion-exclusion over the segments no subset holds.
* ``randomized_lower_bound`` -- the paper's recursion for the expected
  per-node set size of the randomized scheduler, phase by phase: a node
  paired with a so-far-uninfluenced partner gains ``s*(1 - s/n)`` segments
  in expectation, and the chance of such a pairing is taken as
  ``max(m - 2^(p-1), 0) / (m - 1)`` in phase p.  The paper presents m times
  the final iterate as a lower bound on the mean aggregate cardinality.  It
  is not one at every size: at (m, n, k) = (3, 2, 1) it gives 5.0625, while
  no instance of that size ends above 5 and the exact mean is 4.5.
* ``approx_condition_holds`` -- the initial-set-size window in which the
  randomized scheduler is guaranteed a quarter of the optimum.

All functions here are pure; the exact sum is integer arithmetic, so the
coverage probability is the same reduced fraction on every platform.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2

from .core import MAX_SEGMENTS, is_int

# Size caps on the exact coverage sum: each of its n-k+1 powers C(n-i,k)^m
# has up to m*log2 C(n,k) bits.  Within both, one evaluation takes at most
# about 1 s on a 2-core x86-64 host; past them the cost grows without bound.
PMNK_MAX_POWER_BITS = 2**18
PMNK_MAX_SUM_BITS = 2**25


def check_mnk(m: int, n: int, k: int) -> None:
    """Raise ValueError unless m, n and k are integers with m, n >= 1 and 1 <= k <= n."""
    if not (is_int(m) and is_int(n) and is_int(k)):
        raise ValueError(f"m, n and k must be integers, got ({m!r}, {n!r}, {k!r})")
    if m < 1:
        raise ValueError(f"need at least one node, got m={m}")
    if n < 1:
        raise ValueError(f"universe needs at least one segment, got n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"initial set size k={k} must satisfy 1 <= k <= n={n}")


def check_pmnk_size(m: int, n: int, k: int) -> None:
    """Raise ValueError unless :func:`pmnk_exact` takes (m, n, k): the
    arguments must be valid and the sum within the size caps above."""
    check_mnk(m, n, k)
    if n > MAX_SEGMENTS:
        raise ValueError(f"universe size {n} exceeds the {MAX_SEGMENTS}-segment cap")
    bits = m * comb(n, k).bit_length()
    if m * k >= n and (
        bits > PMNK_MAX_POWER_BITS or bits * (n - k + 1) > PMNK_MAX_SUM_BITS
    ):
        raise ValueError(
            f"exact coverage sum for (m={m}, n={n}, k={k}) is too large: "
            f"{n - k + 1} powers of {bits} bits, over the caps of "
            f"{PMNK_MAX_POWER_BITS} bits per power and {PMNK_MAX_SUM_BITS} in all"
        )


def pmnk_exact(m: int, n: int, k: int) -> Fraction:
    """Exact probability that m uniform k-subsets of an n-universe cover it,
    as a reduced fraction.

    Inclusion-exclusion over the segments left uncovered:
    ``sum_i (-1)^i C(n,i) C(n-i,k)^m / C(n,k)^m``, in integers.  Sizes past
    the caps above are refused (:func:`check_pmnk_size`).
    """
    check_pmnk_size(m, n, k)
    if m * k < n:
        return Fraction(0)
    favourable = sum(
        (-1) ** miss * comb(n, miss) * comb(n - miss, k) ** m
        for miss in range(n - k + 1)
    )
    return Fraction(favourable, comb(n, k) ** m)


@dataclass(frozen=True)
class BoundTrace:
    """Phase-by-phase expected per-node set sizes behind the recursion's value."""

    expected_sizes: tuple[float, ...]
    phase_factors: tuple[float, ...]


def randomized_lower_bound(m: int, n: int, k: int) -> tuple[float, BoundTrace]:
    """The paper's recursion for the randomized scheduler's mean aggregate
    cardinality, which the paper calls a lower bound.

    Iterates ``s <- s + s*(1 - s/n) * max(m - 2^(p-1), 0)/(m - 1)`` from
    ``s = k``, stopping at the first phase whose factor is zero; the value
    is ``m`` times the final iterate.  Each iterate stays at most ``n``, so
    ``m*n`` must be a finite float.  The value can exceed the mean, and for
    ``k < n`` even ``m*n - m%2``, the most any instance of the size reaches
    (for example at (3, 2, 1) and (15, 20, 15)), so it bounds the mean from
    below only where that has been checked.
    """
    check_mnk(m, n, k)
    if m < 2:
        raise ValueError(f"need at least two nodes, got m={m}")
    if m * n >= sys.float_info.max:
        raise ValueError("the bound needs m*n below the largest float, about 1.8e308")
    sizes = [float(k)]
    factors: list[float] = []
    phase = 1
    while True:
        factor = max(m - 2 ** (phase - 1), 0) / (m - 1)
        if factor == 0.0:
            break
        s = sizes[-1]
        sizes.append(s + s * (1.0 - s / n) * factor)
        factors.append(factor)
        phase += 1
    return m * sizes[-1], BoundTrace(
        expected_sizes=tuple(sizes), phase_factors=tuple(factors)
    )


def approx_condition_holds(m: int, n: int, k: int) -> bool:
    """Whether k sits in the window guaranteeing the 4-approximation:
    ``min(n/log2(m), n/4) <= k <= n - 1`` (real-valued comparison)."""
    check_mnk(m, n, k)
    if m < 2:
        raise ValueError(f"need at least two nodes, got m={m}")
    return min(n / log2(m), n / 4) <= k <= n - 1
