"""Closed-form analysis: coverage probability and the randomized-run bound.

* ``pmnk_exact`` -- probability that m independent uniform k-subsets of an
  n-segment universe jointly cover it, evaluated exactly over big integers
  by inclusion-exclusion over the segments no subset holds.
* ``randomized_lower_bound`` -- recursion for the expected per-node set
  size of the randomized scheduler, phase by phase: a node paired with a
  so-far-uninfluenced partner gains ``s*(1 - s/n)`` segments in
  expectation, and the chance of such a pairing is at least
  ``max(m - 2^(p-1), 0) / (m - 1)`` in phase p.  The bound on the mean
  aggregate cardinality is m times the final iterate.
* ``approx_condition_holds`` -- the initial-set-size window in which the
  randomized scheduler is guaranteed a quarter of the optimum.

All functions here are pure; the exact sum is integer arithmetic, so the
coverage probability is the same reduced fraction on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2

from .core import MAX_SEGMENTS

# Size caps on the exact coverage sum: each of its n-k+1 powers C(n-i,k)^m
# has up to m*log2 C(n,k) bits.  Within both, one evaluation takes at most
# about 1 s on a 2-core x86-64 host; past them the cost grows without bound.
PMNK_MAX_POWER_BITS = 2**18
PMNK_MAX_SUM_BITS = 2**25


@dataclass(frozen=True)
class ExactProbability:
    """A probability as an exact reduced fraction plus its float rendering."""

    numerator: int
    denominator: int

    @classmethod
    def from_fraction(cls, value: Fraction) -> "ExactProbability":
        return cls(numerator=value.numerator, denominator=value.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator


def _check_mnk(m: int, n: int, k: int) -> None:
    if m < 1:
        raise ValueError(f"need at least one node, got m={m}")
    if n < 1:
        raise ValueError(f"universe needs at least one segment, got n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"initial set size k={k} must satisfy 1 <= k <= n={n}")


def check_pmnk_size(m: int, n: int, k: int) -> None:
    """Raise ValueError unless :func:`pmnk_exact` takes (m, n, k): the
    arguments must be valid and the sum within the size caps above."""
    _check_mnk(m, n, k)
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


def pmnk_exact(m: int, n: int, k: int) -> ExactProbability:
    """Exact probability that m uniform k-subsets of an n-universe cover it.

    Inclusion-exclusion over the segments left uncovered:
    ``sum_i (-1)^i C(n,i) C(n-i,k)^m / C(n,k)^m``, in integers.  Sizes past
    the caps above are refused (:func:`check_pmnk_size`).
    """
    check_pmnk_size(m, n, k)
    if m * k < n:
        return ExactProbability.from_fraction(Fraction(0))
    favourable = sum(
        (-1) ** miss * comb(n, miss) * comb(n - miss, k) ** m
        for miss in range(n - k + 1)
    )
    return ExactProbability.from_fraction(Fraction(favourable, comb(n, k) ** m))


@dataclass(frozen=True)
class BoundTrace:
    """Phase-by-phase expected per-node set sizes behind a lower bound."""

    expected_sizes: tuple[float, ...]
    phase_factors: tuple[float, ...]
    bound: float


def randomized_lower_bound(m: int, n: int, k: int) -> tuple[float, BoundTrace]:
    """Lower bound on the randomized scheduler's mean aggregate cardinality.

    Iterates ``s <- s + s*(1 - s/n) * max(m - 2^(p-1), 0)/(m - 1)`` from
    ``s = k``, stopping at the first phase whose factor is zero; the bound
    is ``m`` times the final iterate.
    """
    if m < 2:
        raise ValueError(f"need at least two nodes, got m={m}")
    _check_mnk(m, n, k)
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
    bound = m * sizes[-1]
    return bound, BoundTrace(
        expected_sizes=tuple(sizes), phase_factors=tuple(factors), bound=bound
    )


def approx_condition_holds(m: int, n: int, k: int) -> bool:
    """Whether k sits in the window guaranteeing the 4-approximation:
    ``min(n/log2(m), n/4) <= k <= n - 1`` (real-valued comparison)."""
    if m < 2:
        raise ValueError(f"need at least two nodes, got m={m}")
    _check_mnk(m, n, k)
    return min(n / log2(m), n / 4) <= k <= n - 1
