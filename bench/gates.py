"""Correctness gates the benchmark applies to every batch it runs.

The reference values here are computed by the benchmark itself: coverage
probability by inclusion-exclusion, the randomized scheduler's lower bound
by its phase recursion, and the parity bound from each instance's realized
universe.  None of them calls ``gtexchange.analysis``, and none depends on
settings that simplifications of the program are expected to remove.
"""

from __future__ import annotations

import hashlib
from math import comb, sqrt

import gtexchange

# Bound here, before a traced run interposes on harness names, so that the
# benchmark's own digests are not counted as program calls.
from gtexchange.harness import rows_to_csv

# A Monte-Carlo estimate may sit this many standard errors (plus one trial's
# worth of resolution) from the exact probability before the gate fails.
COVERAGE_SIGMAS = 5.0


def coverage_exact(m: int, n: int, k: int) -> float:
    """P(m uniform k-subsets of an n-universe cover it), by inclusion-exclusion."""
    hits = sum((-1) ** i * comb(n, i) * comb(n - i, k) ** m for i in range(n - k + 1))
    return hits / comb(n, k) ** m


def rand_lower_bound(m: int, n: int, k: int) -> float:
    """Phase recursion bounding the randomized scheduler's mean aggregate cardinality."""
    size = float(k)
    phase = 1
    while m > 2 ** (phase - 1):
        size += size * (1.0 - size / n) * (m - 2 ** (phase - 1)) / (m - 1)
        phase += 1
    return m * size


def parity_bound(m: int, universe: int) -> int:
    """Largest aggregate cardinality m nodes over a realized universe can reach."""
    return m * universe - m % 2


def overrun_instances(rows: list[dict]) -> int:
    """Instances of one batch whose oracle ran out of budget."""
    return len({row["run"] for row in rows if row["exact_flag"] is False})


def csv_digest(text: str) -> str:
    """sha256 of a batch CSV text (information, not a gate)."""
    return hashlib.sha256(text.encode()).hexdigest()


def rows_digest(rows: list[dict]) -> str:
    """sha256 of rows rendered as the batch CSV file the program writes for them."""
    return csv_digest(rows_to_csv(rows))


class Gates:
    """Collects gate failures so that one run reports all of them."""

    def __init__(self, stored_optima: dict[str, int] | None = None):
        self.failures: list[str] = []
        self.stored_optima = stored_optima or {}
        self.stored_checked = 0
        self._coverage: dict[tuple[int, int, int], float] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def _universe(self, m: int, n: int, k: int, seed: int) -> int:
        return len(gtexchange.gen_instance(m, n, k, seed).realized_universe)

    def rows(self, m: int, n: int, k: int, rows: list[dict]) -> None:
        """alpha <= certified optimum <= parity bound, row by row; stored optima agree."""
        bounds: dict[int, int] = {}
        for row in rows:
            seed, optimal = row["seed"], row["optimal"]
            if row["exact_flag"] is True and optimal is None:
                self.fail(f"({m},{n},{k}) seed {seed}: certified row without an optimum")
                continue
            if seed not in bounds:
                bounds[seed] = parity_bound(m, self._universe(m, n, k, seed))
                stored = self.stored_optima.get(str(seed))
                if row["exact_flag"] is True and stored is not None:
                    self.stored_checked += 1
                    if optimal != stored:
                        self.fail(f"seed {seed}: certified optimum {optimal} != stored {stored}")
            ub = bounds[seed]
            cap = ub if optimal is None else optimal
            if not row["alpha"] <= cap <= ub:
                self.fail(
                    f"({m},{n},{k}) seed {seed} {row['algorithm']}: "
                    f"alpha {row['alpha']} <= optimal {optimal} <= bound {ub} fails"
                )

    def coverage(self, m: int, n: int, k: int, value: float, trials: int | None) -> None:
        """Reported p(m,n,k) within a binomial tolerance of inclusion-exclusion (exact when trials is None)."""
        key = (m, n, k)
        if key not in self._coverage:
            self._coverage[key] = coverage_exact(m, n, k)
        p = self._coverage[key]
        tol = 1e-12 if trials is None else COVERAGE_SIGMAS * sqrt(p * (1 - p) / trials) + 1 / trials
        if abs(value - p) > tol:
            self.fail(f"p({m},{n},{k}) reported {value}, inclusion-exclusion {p}, tolerance {tol:.3g}")

    def rand_mean(self, m: int, n: int, k: int, rows: list[dict]) -> None:
        """Mean rand alpha between the analytic lower bound and the mean parity bound."""
        rand = [row for row in rows if row["algorithm"] == "rand"]
        if not rand:
            return
        mean = sum(row["alpha"] for row in rand) / len(rand)
        upper = sum(parity_bound(m, self._universe(m, n, k, row["seed"])) for row in rand) / len(rand)
        lower = rand_lower_bound(m, n, k)
        if not lower <= mean <= upper:
            self.fail(f"({m},{n},{k}) rand mean {mean} outside [{lower:.1f}, {upper:.1f}]")
