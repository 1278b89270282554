"""Random partitions of n, the Ewens sampling formula, and the static Polya urn.

Everything else in the package is ultimately checked against this module:
the urn processes must leave the partition law invariant, and that law is
computable here exactly (small n, by enumeration) or in closed form.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CountsVector",
    "counts_of",
    "enumerate_partitions",
    "esf_log_prob",
    "polya_urn_sample",
    "sample_categorical",
    "sample_log_categorical",
    "validate_allocation",
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

    @property
    def num_boxes(self) -> int:
        return sum(self.counts)

    @classmethod
    def from_box_sizes(cls, sizes: Iterable[int]) -> "CountsVector":
        sizes = list(sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("box sizes must be positive and non-empty")
        n = sum(sizes)
        counts = [0] * n
        for s in sizes:
            counts[s - 1] += 1
        return cls(tuple(counts))

    def box_sizes(self) -> tuple[int, ...]:
        """Box sizes in descending order, e.g. (2, 2, 1) for n = 5."""
        sizes = []
        for j, c in enumerate(self.counts, start=1):
            sizes.extend([j] * c)
        return tuple(sorted(sizes, reverse=True))


def validate_allocation(labels: Sequence[int]) -> None:
    """Check order-of-appearance labelling: c_1 = 1, each new label = max + 1."""
    seen_max = 0
    for c in labels:
        if c == seen_max + 1:
            seen_max += 1
        elif not (1 <= c <= seen_max):
            raise ValueError(f"label {c} breaks order-of-appearance labelling")


def counts_of(labels: Sequence) -> CountsVector:
    """Partition induced by an allocation vector (any hashable labels)."""
    if not labels:
        raise ValueError("empty allocation")
    freq = Counter(labels)
    return CountsVector.from_box_sizes(freq.values())


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
    """Every categorical draw in the package goes through here: one uniform
    per draw, scaled by `total` (the sum of the weights) and scanned against
    the running sum with an early exit.  If rounding leaves the uniform at or
    past the total, the last index is returned."""
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def sample_categorical(weights: Sequence[float], rng: np.random.Generator) -> int:
    """Index i with probability weights[i] / sum(weights), by inverse CDF."""
    return _inverse_cdf(weights, sum(weights), rng)


def sample_log_categorical(log_scores: Sequence[float], rng: np.random.Generator) -> tuple[int, float]:
    """`sample_categorical` on unnormalised log-scores (shifted by their max).

    Returns the drawn index and its normalised probability; the weights are
    summed once, for the draw and the probability both.
    """
    top = max(log_scores)
    weights = [math.exp(s - top) for s in log_scores]
    total = sum(weights)
    i = _inverse_cdf(weights, total, rng)
    return i, weights[i] / total


def polya_urn_sample(n: int, theta: float, rng: np.random.Generator) -> list[int]:
    """One draw of n seatings from the standard Polya urn (CRP).

    Returns an allocation vector with labels in order of appearance: the
    k-th ball joins box i with probability m_i / (k - 1 + theta) and opens
    a new box with probability theta / (k - 1 + theta).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta <= 0:
        raise ValueError("theta must be positive")
    labels = [1]
    weights = [1, theta]  # box sizes, then the new-box weight
    for _ in range(2, n + 1):
        chosen = sample_categorical(weights, rng) + 1
        if chosen == len(weights):
            weights.insert(-1, 1)
        else:
            weights[chosen - 1] += 1
        labels.append(chosen)
    return labels


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
