"""Batch Gibbs sampling under the death-time parametrization.

The per-step survivor vectors are replaced by a death time for every
allocation unit: unit (k, t) is alive for batches t .. min(d, T), with
d in {t, ..., T, T+1} and d = T+1 standing for "still alive at the
horizon" (the unbounded geometric tail collapsed into one value).  A sweep
resamples, time step by time step, each allocation from its full
conditional, each death time from its full conditional, and then cluster
locations (unless they are integrated out, the default for the static
kernel with a conjugate model).

Both conditionals are computed on the canonical state space where every
box's alive interval is contiguous in time.  Moves that would strand a
later unit of the box (leave it joined to a box that is dead at its birth)
get zero conditional mass, so contiguity is preserved by construction;
`from_tables` restores it with `relabel`, which splits a box at its gaps.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .kernels import GaussianAR1, StaticKernel, sample_base
from .models import stats_of
from .partitions import sample_log_categorical
from .urn import UrnState, allocate_batch

__all__ = [
    "MCMCState",
    "reconstruct_counts",
    "gibbs_allocation",
    "gibbs_death_time",
    "gibbs_locations",
    "relabel",
    "sweep",
]

NEG_INF = float("-inf")


def reconstruct_counts(c, d):
    """Per-time alive-count maps implied by allocation and death tables.

    `c[t-1][k]` and `d[t-1][k]` describe unit (k, t) for t = 1..T.  Returns
    (after_batch, after_deletion): after_batch[u-1] maps label -> count of
    units with t <= u <= min(d, T); after_deletion[u-1] counts units with
    t < u <= d (the state the batch at u is drawn against).  The sampler
    keeps these counts in place; this is the independent rebuild that
    `MCMCState.check_caches` compares them against.
    """
    T = len(c)
    after_batch = [defaultdict(int) for _ in range(T)]
    after_deletion = [defaultdict(int) for _ in range(T)]
    for ti, row in enumerate(c):
        t = ti + 1
        for k, lab in enumerate(row):
            dk = d[ti][k]
            if dk < t:
                raise ValueError(f"death time {dk} before birth {t} at unit ({k}, {t})")
            last = min(dk, T)
            for u in range(t, last + 1):
                after_batch[u - 1][lab] += 1
            for u in range(t + 1, min(dk, T) + 1):
                after_deletion[u - 1][lab] += 1
    return (
        [dict(m) for m in after_batch],
        [dict(m) for m in after_deletion],
    )


class MCMCState:
    """Mutable sampler state: tables, alive-count caches, per-box unit sets
    and sufficient statistics, and (in explicit modes) locations.

    The alive-count caches are kept up to date in place: `m_post[v-1]` maps
    label -> units alive after the batch at v, `pre[v-1]` label -> units
    alive before it (born earlier, surviving the deletion at v), and
    `pre_total[v-1]` is the sum of `pre[v-1]`.

    mode is one of "collapsed" (locations integrated out; static kernel +
    conjugate model), "static" (one explicit shared location per box), or
    "ar1" (a location per box and alive time, moved by a GaussianAR1
    kernel over the model's base).
    """

    def __init__(
        self,
        T: int,
        n: int,
        theta: float,
        rho: float,
        *,
        observations=None,
        model=None,
        mode: str = "collapsed",
        kernel=None,
    ):
        if T < 1 or n < 1:
            raise ValueError("T and n must be >= 1")
        if theta <= 0:
            raise ValueError("theta must be positive")
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if mode not in ("collapsed", "static", "ar1"):
            raise ValueError("mode must be collapsed, static or ar1")
        if mode == "ar1" and not isinstance(kernel, GaussianAR1):
            raise ValueError("ar1 mode needs a GaussianAR1 kernel")
        if mode != "ar1" and kernel not in (None, StaticKernel()):
            raise ValueError(f"{mode} mode keeps locations static: it takes no {kernel!r}")
        # the moves read both bases: the kernel's must be the model's
        if mode == "ar1" and model is not None and kernel.base != model.base:
            raise ValueError(f"the kernel's base {kernel.base!r} is not the model's {model.base!r}")
        if mode == "static" and model is None:
            raise ValueError("static explicit-location mode needs a model")
        if observations is not None and model is None:
            raise ValueError("observations need a model")
        self.T = T
        self.n = n
        self.theta = float(theta)
        self.rho = float(rho)
        self.model = model
        self.mode = mode
        self.kernel = kernel if kernel is not None else StaticKernel()
        self.obs = observations
        self.c: list[list[int]] = [[0] * n for _ in range(T)]
        self.d: list[list[int]] = [[T + 1] * n for _ in range(T)]
        self.next_label = 1
        self.m_post: list[dict[int, int]] = [dict() for _ in range(T)]
        self.pre: list[dict[int, int]] = [dict() for _ in range(T)]
        self.pre_total: list[int] = [0] * T
        self.blocks: dict[int, set] = {}
        self.stats: dict[int, object] = {}
        self.locs: dict[int, object] = {}
        # Fixed for the whole run, so the moves read them instead of
        # recomputing: log x for counts x up to n*T (-inf at 0, never read);
        # by pre-batch total x, log(x + theta) - log(x + n + theta), what a
        # unit alive through a batch adds to its urn probability; the
        # lifetime prior by offset u - t of a death time u <= T, and the
        # alive-at-horizon cap by offset T + 1 - t; and per unit, the score
        # of opening a fresh box.
        top = n * T
        self.log_count = [NEG_INF] + [math.log(x) for x in range(1, top + 1)]
        self.batch_gain = [
            math.log(x + self.theta) - math.log(x + n + self.theta) for x in range(top + 1)
        ]
        self.lifetime_prior = [_lifetime_log_prior(self.rho, 1, 1 + j, T) for j in range(T)]
        self.cap_prior = [_lifetime_log_prior(self.rho, T + 1 - j, T + 1, T) for j in range(T + 1)]
        log_theta = math.log(self.theta)
        if observations is None:
            self.new_box_score = [[log_theta] * n for _ in range(T)]
        else:
            empty = model.empty_stats()
            self.new_box_score = [
                [log_theta + model.predictive_logp(empty, z) for z in row] for row in observations
            ]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_prior(
        cls,
        T: int,
        n: int,
        theta: float,
        rho: float,
        rng: np.random.Generator,
        *,
        observations=None,
        model=None,
        mode: str = "collapsed",
        kernel=None,
    ) -> "MCMCState":
        """Forward-simulate (c, d) from the uniform-deletion prior: each
        batch is drawn against the units still alive, and each of its units
        draws its death time at birth, as its lifetime does not depend on the
        allocations: last alive at t + G - 1, G ~ Geometric(1 - rho), capped
        at T + 1 (alive at the horizon).  Units are placed as they are
        drawn, so the alive counts are the urn the next batch draws from."""
        state = cls(
            T, n, theta, rho,
            observations=observations, model=model, mode=mode, kernel=kernel,
        )
        for t in range(1, T + 1):
            # labels are born in increasing order, so sorting restores the
            # urn's order of its alive boxes
            urn = UrnState(theta, dict(sorted(state.pre[t - 1].items())), state.next_label)
            urn, batch = allocate_batch(urn, n, rng)
            state.next_label = urn.next_label
            if rho < 1.0:
                deaths = np.minimum(t - 1 + rng.geometric(1.0 - rho, n), T + 1).tolist()
            else:
                deaths = [T + 1] * n
            for k, (lab, u) in enumerate(zip(batch, deaths)):
                state._place(lab, k, t, u)
        state._finish(rng)
        return state

    @classmethod
    def from_tables(
        cls,
        c,
        d,
        theta: float,
        rho: float,
        *,
        observations=None,
        model=None,
        mode: str = "collapsed",
        kernel=None,
        rng: np.random.Generator | None = None,
    ) -> "MCMCState":
        """State from allocation and death tables, every box split at its
        gaps into contiguous ones; static and AR1 modes draw the box
        locations from `rng`, which they require."""
        state = cls(
            len(c), len(c[0]), theta, rho,
            observations=observations, model=model, mode=mode, kernel=kernel,
        )
        if state.mode != "collapsed" and rng is None:
            raise ValueError(f"{state.mode} mode draws box locations: from_tables needs an rng")
        state.next_label = max(max(row) for row in c) + 1
        for ti, row in enumerate(c):
            for k, lab in enumerate(row):
                state._place(lab, k, ti + 1, d[ti][k])
        for lab in list(state.blocks):
            while (gap := _first_gap(state, lab)) is not None:
                relabel(state, lab, gap)
        state._finish(rng)
        return state

    def _place(self, label: int, k: int, t: int, death: int):
        """Put unit (k, t), dying at `death` (t <= death <= T + 1, where
        T + 1 is alive at the horizon), into box `label`: the tables,
        the box's unit set and the alive counts over its lifetime.  Every
        unit enters a box through here; statistics and locations are the
        caller's."""
        if death < t:
            raise ValueError(f"death time {death} before birth {t} at unit ({k}, {t})")
        if death > self.T + 1:
            raise ValueError(f"death time {death} past the horizon cap {self.T + 1} at unit ({k}, {t})")
        self.c[t - 1][k] = label
        self.d[t - 1][k] = death
        self.blocks.setdefault(label, set()).add((t, k))
        _shift(self, label, t, min(death, self.T), 1, t)

    def _finish(self, rng):
        """Statistics of every placed box, and in explicit modes its
        location: one shared value (static), or a base draw at the box's
        first alive time extended over its alive interval (AR1)."""
        if self.obs is not None:
            self.stats = {lab: self._stats_of(units) for lab, units in self.blocks.items()}
        for lab in self.blocks:
            if self.mode == "static":
                self.locs[lab] = _fresh_location(self, lab, rng)
            elif self.mode == "ar1":
                self.locs[lab] = {self.alive_interval(lab)[0]: sample_base(self.kernel.base, rng)}
                _fit_trajectory(self, lab, rng)

    # -- small helpers --------------------------------------------------------

    def _alive_times(self, label: int) -> list[int]:
        """The times at which box `label` has units alive after the batch."""
        return [u + 1 for u in range(self.T) if self.m_post[u].get(label, 0) > 0]

    def alive_interval(self, label: int) -> tuple[int, int]:
        """First and last time box `label` has units alive, read off its
        units' births and death times (`check_caches` checks it against the
        alive-count scan)."""
        units = self.blocks[label]
        d = self.d
        return min(t for t, _k in units), min(max(d[t - 1][k] for t, k in units), self.T)

    def _stats_of(self, units):
        return stats_of(self.model, (self.obs[t - 1][k] for (t, k) in units))

    def _obs_at(self, label: int, v: int) -> list:
        return [self.obs[v - 1][k] for k in range(self.n) if self.c[v - 1][k] == label]

    def check_caches(self):
        """Debug invariant: incremental caches match a from-scratch rebuild,
        every box's alive interval is contiguous, and (AR1 mode) every box's
        trajectory covers exactly that interval."""
        after_batch, after_deletion = reconstruct_counts(self.c, self.d)
        for u in range(self.T):
            if self.m_post[u] != after_batch[u]:
                raise AssertionError(f"alive-count cache diverged at time {u + 1}")
            if self.pre[u] != after_deletion[u] or self.pre_total[u] != sum(after_deletion[u].values()):
                raise AssertionError(f"pre-batch cache diverged at time {u + 1}")
        for lab in self.blocks:
            alive = self._alive_times(lab)
            if alive != list(range(alive[0], alive[-1] + 1)):
                raise AssertionError(f"box {lab} alive interval not contiguous: {alive}")
            if self.alive_interval(lab) != (alive[0], alive[-1]):
                raise AssertionError(f"box {lab} alive interval {self.alive_interval(lab)} is not {alive}")
            if self.mode == "ar1" and sorted(self.locs[lab]) != alive:
                raise AssertionError(f"box {lab} trajectory does not cover its alive times {alive}")
        if self.obs is not None:
            for lab, units in self.blocks.items():
                if not _stats_close(self._stats_of(units), self.stats[lab]):
                    raise AssertionError(f"stats cache diverged for box {lab}")

    # -- summaries ------------------------------------------------------------

    def alive_boxes_per_time(self) -> list[int]:
        return [len(self.m_post[u]) for u in range(self.T)]

    def log_marginal_likelihood(self) -> float:
        """Log density of the observations given the allocations, box by
        box in closed form."""
        if self.obs is None:
            return 0.0
        return sum(self.model.log_marginal(st) for st in self.stats.values())

    def to_checkpoint(self) -> dict:
        ck = {
            "T": self.T,
            "n": self.n,
            "theta": self.theta,
            "rho": self.rho,
            "mode": self.mode,
            "c": [list(row) for row in self.c],
            "d": [list(row) for row in self.d],
        }
        if self.mode == "static":
            ck["locations"] = {str(k): _loc_json(v) for k, v in self.locs.items()}
        elif self.mode == "ar1":
            ck["locations"] = {
                str(k): {str(t): float(x) for t, x in v.items()} for k, v in self.locs.items()
            }
        return ck


def _loc_json(v):
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, tuple):
        return [float(x) for x in v]
    return float(v)


def _stats_close(a, b) -> bool:
    if isinstance(a, list) and len(a) == 2 and isinstance(a[0], np.ndarray):
        return np.array_equal(a[0], b[0]) and a[1] == b[1]
    return np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


# -- conditional likelihood hooks ---------------------------------------------


def _move_loglik(state: MCMCState, label, z, t):
    """Log-likelihood weight of putting observation z (at time t) into the
    given box (a fresh box's is in `state.new_box_score`)."""
    if state.obs is None:
        return 0.0
    if state.mode == "collapsed":
        return state.model.predictive_logp(state.stats[label], z)
    if state.mode == "static":
        return state.model.log_likelihood(z, state.locs[label])
    return state.model.log_likelihood(z, state.locs[label][t])


def _shift(state: MCMCState, label: int, lo: int, hi: int, step: int, t: int):
    """Add `step` units of `label`, born at time t, to the alive counts of
    times lo..hi: the post-batch counts at each time, the pre-batch counts
    and their totals at the times after t."""
    for u in range(lo, hi + 1):
        maps = [state.m_post[u - 1]]
        if u > t:
            maps.append(state.pre[u - 1])
            state.pre_total[u - 1] += step
        for counts in maps:
            m = counts.get(label, 0) + step
            if m:
                counts[label] = m
            else:
                del counts[label]


# -- the allocation move --------------------------------------------------------


def gibbs_allocation(state: MCMCState, k: int, t: int, rng: np.random.Generator):
    """Resample c_{k,t} from its full conditional.

    Candidates are the boxes alive at the unit's draw position (excluding
    the unit itself), in the order of the post-batch counts, plus a fresh
    box.  Candidate b starts from its mass at the draw position.  Every
    later stretch of draws inside the unit's lifetime that joined b (the
    rest of batch t, then each batch v up to the death time) adds one term:
    with m_{b,v} the mass b had before that stretch without this unit and
    c_{b,v} the draws it got, the urn numerators (m+1)...(m+c) against
    m...(m+c-1) give log(m_{b,v} + c_{b,v}) - log(m_{b,v}).  If box a, the
    unit's own, would be empty before one of its later draws (m_{a,v} = 0
    < c_{a,v}), the unit is pinned where it is.
    """
    a = state.c[t - 1][k]
    dd = min(state.d[t - 1][k], state.T)
    z = state.obs[t - 1][k] if state.obs is not None else None
    row = state.c[t - 1]
    log = state.log_count

    pre = state.pre[t - 1]
    entry = {b: pre[b] for b in state.m_post[t - 1] if b in pre}
    for b in row[:k]:
        entry[b] = entry.get(b, 0) + 1
    adj = dict.fromkeys(entry, 0.0)
    adj.setdefault(a, 0.0)

    # the rest of batch t, then whole batches up to the death time
    rest = row[k + 1:]
    for b in adj:
        m, drawn = entry.get(b, 0), rest.count(b)
        for v in range(t, dd + 1):
            if v > t:
                m = state.pre[v - 1].get(b, 0)
                drawn = state.m_post[v - 1].get(b, 0) - m
                m -= b == a
            if drawn:
                if not m:
                    return
                adj[b] += log[m + drawn] - log[m]

    if state.obs is not None and state.mode == "collapsed":
        state.model.stats_remove(state.stats[a], z)

    labels = list(entry)
    scores = [log[entry[b]] + adj[b] + _move_loglik(state, b, z, t) for b in labels]
    scores.append(state.new_box_score[t - 1][k])
    pick, _ = sample_log_categorical(scores, rng)
    target = labels[pick] if pick < len(labels) else None

    if target == a:
        if state.obs is not None and state.mode == "collapsed":
            state.model.stats_add(state.stats[a], z)
        return
    _detach_unit(state, a, k, t, dd, z, rng)
    if target is None:
        target = state.next_label
        state.next_label += 1
        _attach_new_box(state, target, k, t, z, rng)
    else:
        _attach_unit(state, target, k, t, z, rng)


def _detach_unit(state: MCMCState, a: int, k: int, t: int, dd: int, z, rng):
    state.blocks[a].discard((t, k))
    _shift(state, a, t, dd, -1, t)
    if not state.blocks[a]:
        del state.blocks[a]
        state.stats.pop(a, None)
        state.locs.pop(a, None)
        return
    # collapsed-mode stats were already reduced by the caller; explicit modes
    # keep stats in sync here
    if state.obs is not None and state.mode != "collapsed":
        state.model.stats_remove(state.stats[a], z)
    if state.mode == "ar1":
        _fit_trajectory(state, a, rng)


def _attach_unit(state: MCMCState, b: int, k: int, t: int, z, rng):
    state._place(b, k, t, state.d[t - 1][k])
    if state.obs is not None:
        state.model.stats_add(state.stats[b], z)
    if state.mode == "ar1":
        _fit_trajectory(state, b, rng)


def _attach_new_box(state: MCMCState, b: int, k: int, t: int, z, rng):
    state._place(b, k, t, state.d[t - 1][k])
    if state.obs is not None:
        state.stats[b] = stats_of(state.model, [z])
    if state.mode == "static":
        state.locs[b] = _fresh_location(state, b, rng)
    elif state.mode == "ar1":
        state.locs[b] = {t: _fresh_location(state, b, rng)}
        _fit_trajectory(state, b, rng)


def _fresh_location(state: MCMCState, label: int, rng):
    """A new location for box `label` (its birth value in AR1 mode): a draw
    from the conjugate posterior of the box's statistics when there is data,
    else from the base (the kernel's in AR1 mode, the model's otherwise)."""
    if state.obs is not None:
        return state.model.posterior_sample_from_stats(state.stats[label], rng)
    return sample_base(state.kernel.base if state.mode == "ar1" else state.model.base, rng)


def _fit_trajectory(state: MCMCState, label: int, rng):
    """Restore the AR1 invariant for box `label`: its trajectory covers
    exactly the box's alive interval.  Values outside the interval are
    dropped and the end is extended by kernel transitions from the last kept
    value.  The first alive time of a box never moves while it has units, so
    the start needs no new value."""
    lo, hi = state.alive_interval(label)
    traj = state.locs[label]
    for v in [v for v in traj if not lo <= v <= hi]:
        del traj[v]
    for v in range(max(traj) + 1, hi + 1):
        traj[v] = state.kernel.transition(traj[v - 1], rng)


# -- the death-time move ----------------------------------------------------------


def _lifetime_log_prior(rho: float, t: int, u: int, T: int) -> float:
    """Truncated-geometric prior of death time u for a unit born at t:
    rho^(u-t)*(1-rho) for u <= T, rho^(T+1-t) for the alive-at-horizon cap."""
    if u == T + 1:
        return NEG_INF if rho == 0.0 else (T + 1 - t) * math.log(rho)
    if rho == 1.0:
        return NEG_INF
    tail = 0.0 if u == t else (NEG_INF if rho == 0.0 else (u - t) * math.log(rho))
    return tail + math.log(1.0 - rho)


def gibbs_death_time(state: MCMCState, k: int, t: int, rng: np.random.Generator):
    """Resample d_{k,t} from its full conditional.

    The truncated-geometric prior is reweighted by the urn probabilities of
    the later batches, and only the batches v the unit lives through differ
    between candidates.  With M_v the pre-batch total and m_{a,v} the
    pre-batch mass of the unit's box a, both without the unit, and c_{a,v}
    the draws a gets in batch v, the unit alive at v changes the batch's
    probability by

        Delta[v] = log(M_v + theta) - log(M_v + n + theta)
                   + log(m_{a,v} + c_{a,v}) - log(m_{a,v})   (if c_{a,v} > 0)

    (the n denominators and a's c numerators telescope), so candidate u
    scores prior(u) + sum of Delta[v] over t < v <= min(u, T).  A batch v
    with m_{a,v} = 0 < c_{a,v} would see box a empty before its own draws:
    the unit is stranded there unless alive, so candidates below v score
    -inf.
    """
    a = state.c[t - 1][k]
    d_old = state.d[t - 1][k]
    T = state.T
    pre, pre_total, m_post = state.pre, state.pre_total, state.m_post
    log, batch_gain, prior = state.log_count, state.batch_gain, state.lifetime_prior

    alive_last = min(d_old, T)
    scores = [prior[0]]
    gain = 0.0
    for v in range(t + 1, T + 1):
        own = v <= alive_last  # the caches count the unit at v
        m = pre[v - 1].get(a, 0)
        drawn = m_post[v - 1].get(a, 0) - m
        m -= own
        gain += batch_gain[pre_total[v - 1] - own]
        if drawn:
            if m:
                gain += log[m + drawn] - log[m]
            else:
                scores = [NEG_INF] * len(scores)
        scores.append(prior[v - t] + gain)
    scores.append(state.cap_prior[T + 1 - t] + gain)
    if max(scores) == NEG_INF:
        return
    d_new = t + sample_log_categorical(scores, rng)[0]
    if d_new == d_old:
        return
    state.d[t - 1][k] = d_new
    lo, hi = min(d_old, T), min(d_new, T)
    if hi != lo:
        _shift(state, a, min(lo, hi) + 1, max(lo, hi), 1 if hi > lo else -1, t)
        if state.mode == "ar1":
            _fit_trajectory(state, a, rng)


# -- location moves ------------------------------------------------------------


def gibbs_locations(state: MCMCState, j: int, t: int, rng: np.random.Generator):
    """Resample the location of box j (at time t for the AR1 mode).

    Static mode redraws the box's single shared value from the conjugate
    posterior of all its lifetime observations; AR1 mode draws from the
    kernel bridge times the likelihood of the observations assigned at
    (j, t).  Collapsed mode has no locations to sample.
    """
    if state.mode == "collapsed":
        raise ValueError("locations are integrated out in collapsed mode")
    if state.mode == "static":
        state.locs[j] = _fresh_location(state, j, rng)
        return
    kernel = state.kernel
    mu0, sigma0 = kernel.base.mu0, kernel.base.sigma0
    s2 = kernel.noise_scale ** 2
    phi = kernel.phi
    # the trajectory covers exactly the alive interval, so its keys say
    # whether t has a left and a right neighbour
    traj = state.locs[j]
    # prior factor from the left neighbour (or the base at birth)
    if t - 1 in traj:
        mean, var = mu0 + phi * (traj[t - 1] - mu0), s2
    else:
        mean, var = mu0, sigma0 * sigma0
    prec = 1.0 / var
    mean_p = mean * prec
    # prior factor from the right neighbour
    if t + 1 in traj and abs(phi) > 0:
        prec_r = phi * phi / s2
        mean_r = mu0 + (traj[t + 1] - mu0) / phi
        prec += prec_r
        mean_p += mean_r * prec_r
    if state.obs is not None:
        ov = state.model.obs_sigma ** 2
        for z in state._obs_at(j, t):
            prec += 1.0 / ov
            mean_p += z / ov
    var_post = 1.0 / prec
    traj[t] = float(rng.normal(mean_p * var_post, math.sqrt(var_post)))


# -- relabelling ---------------------------------------------------------------


def _first_gap(state: MCMCState, label: int):
    """First time u with the box dead at u but alive again later, or None."""
    alive = state._alive_times(label)
    for prev, nxt in zip(alive, alive[1:]):
        if nxt > prev + 1:
            return prev + 1
    return None


def relabel(state: MCMCState, label: int, from_time: int):
    """Split the segment of `label` that restarts after the gap at
    `from_time` off into a fresh box (up to the next gap), restoring the
    contiguous-alive-interval invariant.  No-op for contiguous boxes."""
    alive = state._alive_times(label)
    restart = [u for u in alive if u >= from_time]
    if not restart or alive[-1] - alive[0] + 1 == len(alive):
        return
    seg_start = restart[0]
    seg_end = seg_start
    while seg_end + 1 in restart:
        seg_end += 1
    moved = [(t, k) for (t, k) in state.blocks[label] if seg_start <= t <= seg_end]
    if not moved:
        return
    fresh = state.next_label
    state.next_label += 1
    for (t, k) in moved:
        state.blocks[label].discard((t, k))
        _shift(state, label, t, min(state.d[t - 1][k], state.T), -1, t)
        state._place(fresh, k, t, state.d[t - 1][k])
    if not state.blocks[label]:
        del state.blocks[label]
    if state.obs is not None:
        for lab in (label, fresh):
            if lab in state.blocks:
                state.stats[lab] = state._stats_of(state.blocks[lab])
            else:
                state.stats.pop(lab)
    if label in state.locs:
        # both parts keep the locations they had; an AR1 trajectory already
        # spans both parts' alive intervals, so fitting it only trims
        loc = state.locs[label]
        state.locs[fresh] = dict(loc) if state.mode == "ar1" else loc
        if label not in state.blocks:
            del state.locs[label]
        for lab in (label, fresh):
            if state.mode == "ar1" and lab in state.blocks:
                _fit_trajectory(state, lab, None)


# -- one sweep -----------------------------------------------------------------


def sweep(state: MCMCState, rng: np.random.Generator):
    """One systematic scan: for each time step, all allocation moves, then
    all death-time moves, then location moves for the boxes alive there
    (AR1 mode); static mode resamples each box once at the end."""
    for t in range(1, state.T + 1):
        for k in range(state.n):
            gibbs_allocation(state, k, t, rng)
        for k in range(state.n):
            gibbs_death_time(state, k, t, rng)
        if state.mode == "ar1":
            for j in list(state.m_post[t - 1]):
                gibbs_locations(state, j, t, rng)
    if state.mode == "static":
        for j in list(state.blocks):
            gibbs_locations(state, j, 1, rng)
    return state
