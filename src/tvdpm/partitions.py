"""Random partitions of n, the Ewens sampling formula, and categorical draws.

Everything else in the package is ultimately checked against this module:
the urn processes must leave the partition law invariant, and that law is
computable here exactly (small n, by enumeration) or in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CountsVector",
    "enumerate_partitions",
    "esf_log_prob",
    "sample_categorical",
    "sample_log_categorical",
    "sample_log_categorical_rows",
]

MAX_ENUMERATION_N = 25


@dataclass(frozen=True)
class CountsVector:
    """Partition of ``n`` encoded by box-size counts.

    ``counts[j-1]`` is the number of boxes holding exactly ``j`` balls, so
    ``sum(j * counts[j-1]) == n``.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("counts must be non-empty")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        n = self.n
        if sum(j * c for j, c in enumerate(self.counts, start=1)) != n:
            raise ValueError(f"counts {self.counts} do not encode a partition of {n}")

    @property
    def n(self) -> int:
        """Number of balls (length of the counts vector by convention)."""
        return len(self.counts)

    def box_sizes(self) -> tuple[int, ...]:
        """Box sizes in descending order, e.g. (2, 2, 1) for n = 5."""
        sizes = []
        for j, c in enumerate(self.counts, start=1):
            sizes.extend([j] * c)
        return tuple(sorted(sizes, reverse=True))


def esf_log_prob(a: CountsVector, theta: float) -> float:
    """Log-probability of a partition under the Ewens sampling formula.

    log P_n(a) = log n! - sum_{i=1}^{n} log(theta + i - 1)
               + sum_j [a_j log theta - a_j log j - log a_j!]

    Evaluated via log-gamma so n in the thousands is fine.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    n = a.n
    out = math.lgamma(n + 1) - (math.lgamma(theta + n) - math.lgamma(theta))
    for j, aj in enumerate(a.counts, start=1):
        if aj:
            out += aj * (np.log(theta) - np.log(j)) - math.lgamma(aj + 1)
    return float(out)


def _inverse_cdf(weights: Sequence[float], total: float, rng: np.random.Generator) -> int:
    """Every categorical draw in the package goes through here or through
    its array form `_inverse_cdf_rows`: one uniform per draw, scaled by
    `total` (the sum of the weights) and scanned against the running sum
    with an early exit.  If rounding leaves the uniform at or past the
    total, the last index is returned."""
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def _inverse_cdf_rows(weights: np.ndarray, rng: np.random.Generator):
    """`_inverse_cdf` on each row of an (R, C) weight matrix, row r taking
    the r-th uniform of one `rng.random(R)`.  The row cumsum adds left to
    right as the scalar loop does, and a zero weight leaves it unchanged, so
    the pick (the first index whose running sum exceeds the uniform, else the
    last index) and the row total are the scalar draw's.  Returns (picks, totals)."""
    acc = np.cumsum(weights, axis=1)
    total = acc[:, -1]
    u = rng.random(len(total)) * total
    picks = np.count_nonzero(~(u[:, None] < acc), axis=1)
    return np.minimum(picks, weights.shape[1] - 1), total


def sample_categorical(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Index i with probability weights[i] / sum(weights), by inverse CDF."""
    return _inverse_cdf(weights, sum(weights), rng)


def sample_log_categorical(log_scores: Sequence[float], rng: np.random.Generator) -> tuple[int, float]:
    """`sample_categorical` on unnormalised log-scores (shifted by their max).

    Returns the drawn index and the log-normaliser log(sum(exp(log_scores))),
    from the one sum the draw already needs.
    """
    top = max(log_scores)
    weights = [math.exp(s - top) for s in log_scores]
    total = sum(weights)
    return _inverse_cdf(weights, total, rng), top + math.log(total)


def sample_log_categorical_rows(log_scores: np.ndarray, rng: np.random.Generator):
    """`sample_log_categorical` on each row of an (R, C) matrix of log-scores,
    all R uniforms from one `rng.random(R)`.  A -inf cell (padding) has weight
    zero and is never picked, unless its whole row is -inf: that row's
    normaliser is nan and its pick the last index, as in the scalar draw.
    Returns the (R,) picks and log-normalisers."""
    top = log_scores.max(axis=1)
    with np.errstate(invalid="ignore"):
        weights = np.exp(log_scores - top[:, None])
    picks, total = _inverse_cdf_rows(weights, rng)
    return picks, top + np.log(total)


def enumerate_partitions(n: int) -> list[CountsVector]:
    """All partitions of n as counts vectors, lexicographic in the counts.

    Guarded at n <= 25 (p(25) = 1958) to keep exhaustive tests honest about
    their own cost.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"enumeration capped at n = {MAX_ENUMERATION_N}")

    results: list[CountsVector] = []

    def descend(remaining: int, max_part: int, parts: list[int]):
        if remaining == 0:
            counts = [0] * n
            for p in parts:
                counts[p - 1] += 1
            results.append(CountsVector(tuple(counts)))
            return
        for p in range(min(remaining, max_part), 0, -1):
            parts.append(p)
            descend(remaining - p, p, parts)
            parts.pop()

    descend(n, n, [])
    results.sort(key=lambda cv: cv.counts)
    return results
