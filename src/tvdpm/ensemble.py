"""Vectorized bank of independent urn replicas for Monte Carlo estimation.

The object-level chain in `urn` is the reference semantics; this engine runs
many replicas of the same chain as padded numpy arrays so the statistical
checks (ESF marginals, the one-step moment identities, correlation curves)
finish within their wall clock budgets on a single core.  Tests pin the two
implementations against each other policy by policy.

A step is its two phases, `delete` then `allocate`, with the locations
moved in between; a check that needs them in another order (the moment
identities allocate into given boxes, then delete) calls them itself on
an ensemble made by `from_counts`.

Layout: one row per replica, one column per (currently or formerly alive)
box.  Column identity is meaningful only within a row, which is what lets
rows be compacted independently.  When unit ages matter (sliding windows,
possibly mixed with random deletion), counts are resolved into per-age
slots: index a < depth holds units born a batches ago, and the final
overflow slot pools everything older (any in-range window kill removes the
whole overflow, so pooling loses nothing).  Box locations, when the
ensemble has a kernel, sit in an (R, B) array of the same layout; a
kernel's `transition` steps a float or an array, so one call moves them
all (free columns too).

Stream invariant: a step reads the generator exactly as a plain
whole-array step does (that version is kept as the test reference), so a
seed gives the same draws, arrays and reports.  The fast step does less
work, never different draws:

- Uniform thinning draws a binomial only for the nonzero cells, in the
  row-major order of `rng.binomial(slot, rho)` over the whole array, rows
  that a mixture branch masks out included (their draws are made and
  thrown away).  NumPy's binomial returns 0 for n = 0 without touching the
  stream, so the numbers are the same.
- An allocation draw takes one uniform u per replica (and, with locations,
  one normal per replica).  With the row's boxes laid end to end in column
  order, u picks the box of unit floor(u), or a new box when u is past the
  row's mass: the same box as counting the running column sums <= u, as
  those sums are integers.  Finding that unit by a search instead of a scan
  over every column reads nothing more from the generator.
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
        kernel=None,
    ):
        """Replicas with empty urns.  Given a kernel, each box carries a
        location drawn from the standard-normal base, and every step moves
        all locations with one `kernel.transition` call on the array; the
        kernel must leave that base invariant (`StaticKernel()`, or a
        `GaussianAR1` over `GaussianKnownVar(0, 1)`)."""
        if n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        if theta <= 0:
            raise ValueError("theta must be positive")
        if policy_uses_walk(policy):
            raise ValueError('the rho walk ("rho": "walk") is for smc only')
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
        self.kernel = kernel
        self._loc = None if kernel is None else np.zeros((self.R, B), dtype=np.float64)
        # `from_counts`: columns 0..k0-1 name the given boxes, so never reorder
        self._keep_columns = False

    @classmethod
    def from_counts(cls, n_replicates: int, theta: float, policy: DeletionPolicy, counts):
        """Replicas that all start from the given box sizes, which keep
        columns 0..len(counts)-1 of every row for the ensemble's life.  The
        units carry no ages, so a policy with a sliding window is refused."""
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if (counts < 1).any():
            raise ValueError("initial box sizes must be positive")
        if policy_window(policy):
            raise ValueError("given boxes have no unit ages: a sliding window cannot apply")
        ens = cls(n_replicates, theta, policy)
        ens._keep_columns = True
        ens._grow(len(counts) - ens.columns)
        ens._slots[0][:, : len(counts)] = counts
        ens._refresh_agg()
        return ens

    # -- column bookkeeping -------------------------------------------------

    @property
    def columns(self) -> int:
        return self._agg.shape[1]

    @property
    def counts(self) -> np.ndarray:
        """Read-only (R, columns) view of every box's alive units."""
        view = self._agg.view()
        view.flags.writeable = False
        return view

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

    def _grow(self, extra: int) -> None:
        if extra <= 0:
            return
        pad = ((0, 0), (0, extra))
        self._slots = [np.pad(s, pad) for s in self._slots]
        self._agg = np.pad(self._agg, pad)
        if self._loc is not None:
            self._loc = np.pad(self._loc, pad)

    def _ensure_capacity(self, n: int) -> None:
        free = (self._agg == 0).sum(axis=1).min()
        if free >= n:
            return
        # Compacting frees no column (a new box takes any empty one); it only
        # reorders them, which the seeded draws of a plain ensemble depend on.
        if not self._keep_columns:
            self._compact()
        self._grow(max(n - free, self.columns // 2, 8))

    # -- deletion phase -----------------------------------------------------

    def _laid_out(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All units laid end to end, row after row and within a row in
        column order: `ends` counts the units up to and including each
        flat cell, and each row's units begin at `start` and number
        `total`.  Unit x < total[r] of row r lies in the flat cell
        `searchsorted(ends, start[r] + x, side="right")`."""
        ends = np.cumsum(self._agg.reshape(-1))
        last = ends[self.columns - 1 :: self.columns]
        total = np.diff(last, prepend=0)
        return ends, last - total, total

    def _apply(self, policy: DeletionPolicy, mask: np.ndarray, rng: np.random.Generator):
        if isinstance(policy, UniformDeletion):
            if policy.rho < 1.0:
                all_rows = mask.all()
                for slot in self._slots:
                    # the nonzero cells in the row-major order of a
                    # whole-array draw (n = 0 draws nothing); rows outside
                    # the mask draw too, and keep their counts
                    cells = np.flatnonzero(slot != 0)
                    thinned = rng.binomial(slot.take(cells), policy.rho)
                    if not all_rows:
                        keep = mask[cells // self.columns]
                        cells, thinned = cells[keep], thinned[keep]
                    np.put(slot, cells, thinned)
            self._refresh_agg()
        elif isinstance(policy, SizeBiasedDeletion):
            # each pick reads the counts the previous pick left, as
            # `urn.apply_policy` does; a row emptied by a pick draws no more
            for _ in range(policy.count):
                ends, start, masses = self._laid_out()
                hit = mask & (masses > 0)
                rows = self._rows[hit]
                u = rng.random(self.R) * masses
                unit = start[hit] + u[hit].astype(np.int64)
                col = np.searchsorted(ends, unit, side="right") - rows * self.columns
                for slot in self._slots:
                    slot[rows, col] = 0
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

    def delete(self, rng: np.random.Generator) -> None:
        """The deletion phase: the policy acts on every replica, then every
        unit ages by one batch."""
        self._apply(self.policy, np.ones(self.R, dtype=bool), rng)
        self._shift_ages()

    # -- allocation phase -----------------------------------------------------

    def allocate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """An n-draw Pólya batch into every replica, born at age 0.

        Returns the column index each of the n draws joined, shape (R, n);
        equal columns within a row mean same box.
        """
        _check_batch(n)
        self._ensure_capacity(n)
        agg = self._agg
        R, B = agg.shape
        # Draw k picks unit floor(u) of its row, the row's units laid end to
        # end in column order.  The k earlier draws of the batch sit among
        # the row's old units at positions `placed`, so a pick lands either
        # on one of those or on old unit floor(u) - (earlier draws below
        # it), which the layout of the counts before the batch locates.
        ends, start, total = self._laid_out()
        # with several draws a table of every unit's cell beats a search
        # per draw; for one draw the table costs more than the search
        cell = np.cumsum(np.bincount(ends)) if n > 1 else None
        row_base = self._rows * B
        # flat views: the count arrays are always C-contiguous
        flat_counts = (agg.reshape(-1), self._slots[0].reshape(-1))
        ids = np.empty((n, R), dtype=np.int64)
        placed = np.empty((n, R), dtype=np.int64)
        for k in range(n):
            u = rng.random(R) * (total + self.theta)
            fresh = u >= total
            unit = u.astype(np.int64)
            if k:
                on_draw = placed[:k] == unit
                unit -= (placed[:k] < unit).sum(axis=0)
            unit += start
            if cell is None:
                col = np.searchsorted(ends, unit, side="right") - row_base
            else:
                col = cell.take(unit, mode="clip") - row_base
            if k:
                joined = on_draw.any(axis=0)
                col[joined] = (ids[:k] * on_draw).sum(axis=0)[joined]
            opened = self._rows[fresh]
            col[opened] = (agg[opened] == 0).argmax(axis=1)
            if self._loc is not None:
                draws = rng.normal(0.0, 1.0, size=R)
                self._loc[opened, col[opened]] = draws[opened]
            cells = row_base + col
            if k < n - 1:
                # this draw goes after every unit in columns <= col
                at = ends.take(cells) - start + (ids[:k] <= col).sum(axis=0)
                placed[:k] += placed[:k] >= at
                placed[k] = at
            for flat in flat_counts:
                flat[cells] += 1
            ids[k] = col
            total += 1
        self.time += 1
        return ids.T.copy()

    # -- one full step ------------------------------------------------------

    def step(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Deletion, location transition, then an n-draw batch; returns
        what `allocate` returns."""
        _check_batch(n)
        self.delete(rng)
        if self._loc is not None:
            self._loc = self.kernel.transition(self._loc, rng)
        return self.allocate(n, rng)

    # -- observables ----------------------------------------------------------

    def predictive_mean(self) -> np.ndarray:
        """Mean of the urn-induced predictive: boxes weighted m_k/(M+theta)
        at their locations plus theta/(M+theta) at the base mean, 0."""
        if self._loc is None:
            raise ValueError("ensemble built without a kernel: it has no locations")
        total = self._agg.sum(axis=1)
        return (self._agg * self._loc).sum(axis=1) / (total + self.theta)


def _check_batch(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


def batch_partition_keys(ids: np.ndarray) -> np.ndarray:
    """Per-replica canonical partition signature of a batch: the block size
    of each draw, sorted descending within the row."""
    sizes = (ids[:, :, None] == ids[:, None, :]).sum(axis=2)
    return -np.sort(-sizes, axis=1)


def batch_partition_distribution(ids: np.ndarray) -> dict[tuple[int, ...], float]:
    """Empirical law of the batch partition across replicas.

    Keys are descending box-size tuples, e.g. (2, 2, 1) for n = 5.  Each
    row's sorted sizes, digits 1..n, are tallied as one base-(n+1) integer.
    """
    R, n = ids.shape
    if (n + 1) ** n > np.iinfo(np.int64).max:
        raise ValueError("partition codes overflow int64 beyond n = 15")
    keys = batch_partition_keys(ids)
    codes = keys @ (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    out: dict[tuple[int, ...], float] = {}
    for row, c in zip(keys[first].tolist(), counts):
        # a box of size m fills m consecutive draws of the sorted row
        parts: list[int] = []
        i = 0
        while i < n:
            parts.append(row[i])
            i += row[i]
        out[tuple(parts)] = c / R
    return out
