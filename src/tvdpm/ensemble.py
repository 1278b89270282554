"""Vectorized bank of independent urn replicas for Monte Carlo estimation.

The object-level chain in `urn` is the reference semantics; this engine runs
many replicas of the same chain as padded numpy arrays so the statistical
test suites (ESF marginals, correlation curves) finish within their wall
clock budgets on a single core.  Tests pin the two implementations against
each other policy by policy.

Layout: one row per replica, one column per (currently or formerly alive)
box.  Column identity is meaningful only within a row, which is what lets
rows be compacted independently.  When unit ages matter (sliding windows,
possibly mixed with random deletion), counts are resolved into per-age
slots: index a < depth holds units born a batches ago, and the final
overflow slot pools everything older (any in-range window kill removes the
whole overflow, so pooling loses nothing).
"""

from __future__ import annotations

import numpy as np

from .urn import (
    ComposePolicy,
    DeletionPolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
    policy_uses_walk,
    policy_window,
)

__all__ = ["UrnEnsemble", "batch_partition_distribution", "batch_partition_keys"]


class UrnEnsemble:
    def __init__(
        self,
        n_replicates: int,
        theta: float,
        policy: DeletionPolicy,
        *,
        track_locations: bool = False,
        kernel_phi: float | None = None,
    ):
        """Replicas with empty urns.  With track_locations each box carries
        a location drawn from the standard-normal base, moved at every step
        by the stationary AR(1) with coefficient kernel_phi when given."""
        if theta <= 0:
            raise ValueError("theta must be positive")
        if policy_uses_walk(policy):
            raise ValueError('the rho walk ("rho": "walk") is for smc only')
        if kernel_phi is not None and not -1.0 <= kernel_phi <= 1.0:
            raise ValueError("kernel_phi must lie in [-1, 1]")
        self.R = n_replicates
        self.theta = float(theta)
        self.policy = policy
        self.time = 0
        self._window = policy_window(policy)
        # Age slots: [current batch, 1 ago, ..., window ago, overflow]; a
        # single slot suffices when no sliding window can ever fire.
        self._depth = self._window + 2 if self._window else 1
        B = 16  # initial columns; `_ensure_capacity` grows them on demand
        self._slots = [np.zeros((self.R, B), dtype=np.int64) for _ in range(self._depth)]
        self._agg = np.zeros((self.R, B), dtype=np.int64)
        self._rows = np.arange(self.R)
        self.track_locations = track_locations
        self.kernel_phi = kernel_phi
        self._loc = np.zeros((self.R, B), dtype=np.float64) if track_locations else None

    # -- column bookkeeping -------------------------------------------------

    @property
    def columns(self) -> int:
        return self._agg.shape[1]

    def _refresh_agg(self) -> None:
        if self._depth == 1:
            self._agg = self._slots[0].copy()
        else:
            self._agg = np.sum(self._slots, axis=0)

    def _compact(self) -> None:
        order = np.argsort(-self._agg, axis=1, kind="stable")
        for i, slot in enumerate(self._slots):
            self._slots[i] = np.take_along_axis(slot, order, axis=1)
        self._agg = np.take_along_axis(self._agg, order, axis=1)
        if self._loc is not None:
            self._loc = np.take_along_axis(self._loc, order, axis=1)

    def _ensure_capacity(self, n: int) -> None:
        free = (self._agg == 0).sum(axis=1).min()
        if free >= n:
            return
        self._compact()
        free = (self._agg == 0).sum(axis=1).min()
        if free >= n:
            return
        grow = max(n - free, self.columns // 2, 8)
        pad = ((0, 0), (0, grow))
        self._slots = [np.pad(s, pad) for s in self._slots]
        self._agg = np.pad(self._agg, pad)
        if self._loc is not None:
            self._loc = np.pad(self._loc, pad)

    # -- deletion phase -----------------------------------------------------

    def _apply(self, policy: DeletionPolicy, mask: np.ndarray, rng: np.random.Generator):
        if isinstance(policy, UniformDeletion):
            if policy.rho < 1.0:
                for i, slot in enumerate(self._slots):
                    thinned = rng.binomial(slot, policy.rho)
                    self._slots[i] = np.where(mask[:, None], thinned, slot)
            self._refresh_agg()
        elif isinstance(policy, SizeBiasedDeletion):
            for _ in range(policy.count):
                masses = self._agg.sum(axis=1)
                u = rng.random(self.R) * masses
                cum = np.cumsum(self._agg, axis=1)
                col = np.minimum((u[:, None] >= cum).sum(axis=1), self.columns - 1)
                hit = mask & (masses > 0)
                rows = self._rows[hit]
                for slot in self._slots:
                    slot[rows, col[hit]] = 0
            self._refresh_agg()
        elif isinstance(policy, MixturePolicy):
            pick_a = rng.random(self.R) < policy.alpha
            self._apply(policy.policy_a, mask & pick_a, rng)
            self._apply(policy.policy_b, mask & ~pick_a, rng)
        elif isinstance(policy, ComposePolicy):
            for sub in policy.policies:
                self._apply(sub, mask, rng)
        elif isinstance(policy, SlidingWindow):
            # Keep units born within the last r batches (slot index < r).
            for slot in self._slots[policy.r :]:
                slot[mask, :] = 0
            self._refresh_agg()
        else:
            raise TypeError(f"unknown deletion policy {policy!r}")

    def _shift_ages(self) -> None:
        if self._depth == 1:
            return
        self._slots[-1] += self._slots[-2]
        tail = self._slots[-1]
        self._slots = (
            [np.zeros_like(tail)] + self._slots[:-2] + [tail]
        )

    # -- one full step ------------------------------------------------------

    def step(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Deletion, location transition, then an n-draw batch.

        Returns the column index each of the n draws joined, shape (R, n);
        equal columns within a row mean same box.
        """
        self._apply(self.policy, np.ones(self.R, dtype=bool), rng)
        self._shift_ages()
        if self._loc is not None and self.kernel_phi is not None:
            phi = self.kernel_phi
            noise = rng.normal(0.0, 1.0, size=self._loc.shape)
            self._loc = phi * self._loc + np.sqrt(1.0 - phi * phi) * noise
        self._ensure_capacity(n)
        agg = self._agg
        current = self._slots[0]
        ids = np.empty((self.R, n), dtype=np.int64)
        for k in range(n):
            total = agg.sum(axis=1)
            u = rng.random(self.R) * (total + self.theta)
            cum = np.cumsum(agg, axis=1)
            col = (u[:, None] >= cum).sum(axis=1)
            fresh = u >= total
            free = (agg == 0).argmax(axis=1)
            col = np.where(fresh, free, np.minimum(col, self.columns - 1))
            if self._loc is not None:
                draws = rng.normal(0.0, 1.0, size=self.R)
                rows = self._rows[fresh]
                self._loc[rows, col[fresh]] = draws[fresh]
            agg[self._rows, col] += 1
            current[self._rows, col] += 1
            ids[:, k] = col
        self.time += 1
        return ids

    # -- observables ----------------------------------------------------------

    def total_mass(self) -> np.ndarray:
        return self._agg.sum(axis=1)

    def predictive_mean(self) -> np.ndarray:
        """Mean of the urn-induced predictive: boxes weighted m_k/(M+theta)
        at their locations plus theta/(M+theta) at the base mean, 0."""
        if self._loc is None:
            raise ValueError("ensemble built without track_locations")
        total = self._agg.sum(axis=1)
        return (self._agg * self._loc).sum(axis=1) / (total + self.theta)


def batch_partition_keys(ids: np.ndarray) -> np.ndarray:
    """Per-replica canonical partition signature of a batch: the block size
    of each draw, sorted descending within the row."""
    sizes = (ids[:, :, None] == ids[:, None, :]).sum(axis=2)
    return -np.sort(-sizes, axis=1)


def batch_partition_distribution(ids: np.ndarray) -> dict[tuple[int, ...], float]:
    """Empirical law of the batch partition across replicas.

    Keys are descending box-size tuples, e.g. (2, 2, 1) for n = 5.
    """
    R, n = ids.shape
    keys = batch_partition_keys(ids)
    uniq, counts = np.unique(keys, axis=0, return_counts=True)
    out: dict[tuple[int, ...], float] = {}
    for row, c in zip(uniq, counts):
        parts: list[int] = []
        i = 0
        row = list(row)
        while i < n:
            parts.append(row[i])
            i += row[i]
        out[tuple(parts)] = c / R
    return out
