import copy
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

import tvdpm.mcmc as mcmc
from tvdpm.kernels import (
    GaussianAR1,
    GaussianKnownVar,
    NormalInverseGamma,
    StaticKernel,
    SymmetricDirichlet,
)
from tvdpm.models import GaussianModel, KnownVarGaussianModel, TopicModel, stats_of
from tvdpm.mcmc import (
    MCMCState,
    gibbs_allocation,
    gibbs_death_time,
    gibbs_locations,
    reconstruct_counts,
    relabel,
    sweep,
)
from tvdpm.partitions import enumerate_partitions, esf_log_prob

from . import oracles
from .oracles import (
    AtomicGaussianModel,
    FiniteAtomic,
    canonical_state_key,
    counts_of,
    enumerate_toy_posterior,
    forward_alive_counts,
    tv,
)


class TestReconstructCounts:
    def test_single_unit_lifetime(self):
        after_batch, after_deletion = reconstruct_counts([[1], [2], [2]], [[2], [2], [3]])
        # unit (0, t=1) with d=2: alive at times 1 and 2, gone at 3
        assert after_batch[0] == {1: 1}
        assert after_batch[1] == {1: 1, 2: 1}
        assert after_batch[2] == {2: 1}
        assert after_deletion[1] == {1: 1}
        assert after_deletion[2] == {}

    def test_immediate_deaths(self):
        after_batch, after_deletion = reconstruct_counts([[1], [2]], [[1], [2]])
        assert after_batch[0] == {1: 1} and after_batch[1] == {2: 1}
        assert after_deletion[1] == {}

    def test_death_before_birth_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_counts([[1], [1]], [[0], [2]])

    def test_forward_replay_oracle(self, rng):
        for _ in range(1000):
            rho = float(rng.random())
            state = MCMCState.from_prior(3, 2, 1.2, rho, rng)
            after_batch, _ = reconstruct_counts(state.c, state.d)
            assert after_batch == forward_alive_counts(state.c, state.d, 3)


class TestPriorSimulation:
    def test_caches_consistent(self, rng):
        for _ in range(50):
            state = MCMCState.from_prior(4, 3, 1.0, 0.5, rng)
            state.check_caches()

    def test_corrupt_pre_batch_cache_detected(self, rng):
        state = MCMCState.from_prior(4, 3, 1.0, 0.9, rng)
        v = next(u for u in range(state.T) if state.pre[u])
        label = next(iter(state.pre[v]))
        state.pre[v][label] += 1
        with pytest.raises(AssertionError, match="pre-batch"):
            state.check_caches()
        state.pre[v][label] -= 1
        state.pre_total[v] += 1
        with pytest.raises(AssertionError, match="pre-batch"):
            state.check_caches()

    def test_rho_one_all_capped(self, rng):
        state = MCMCState.from_prior(3, 2, 1.0, 1.0, rng)
        assert all(d == 4 for row in state.d for d in row)

    def test_rho_zero_all_die_at_birth(self, rng):
        state = MCMCState.from_prior(3, 2, 1.0, 0.0, rng)
        assert all(state.d[t][k] == t + 1 for t in range(3) for k in range(2))

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, 2, 1.0, 0.5), "T and n must be >= 1"),
            ((2, 0, 1.0, 0.5), "T and n must be >= 1"),
            ((2, 2, 0.0, 0.5), "theta must be positive"),
            ((2, 2, -1.0, 0.5), "theta must be positive"),
            ((2, 2, 1.0, -0.1), r"rho must lie in \[0, 1\]"),
            ((2, 2, 1.0, 1.5), r"rho must lie in \[0, 1\]"),
        ],
        ids=["T0", "n0", "theta0", "theta-neg", "rho-neg", "rho-above-one"],
    )
    def test_bad_arguments_rejected_before_any_draw(self, rng, args, message):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            MCMCState.from_prior(*args, rng)
        assert rng.bit_generator.state == state


    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 1.0])
    def test_draw_equals_reference_loop(self, rho):
        """Placing units as they are drawn consumes the generator exactly as
        the dying-map loop it replaced (`oracles.reference_prior_tables`)."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            T, n = 1 + seed % 7, 1 + seed % 4
            state = MCMCState.from_prior(T, n, 1.3, rho, rng)
            assert (state.c, state.d) == oracles.reference_prior_tables(T, n, 1.3, rho, ref)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("with_data", [False, True], ids=["prior", "data"])
    def test_caches_equal_from_tables(self, rng, with_data):
        """A drawn state and the state `from_tables` builds from its tables
        agree on every cache, key order included: the allocation move takes
        its candidates in the order of `m_post`."""
        nig = GaussianModel(NormalInverseGamma(0.0, 0.1, 2.0, 1.0))
        for _ in range(50):
            kw = {}
            if with_data:
                kw = dict(observations=[tuple(rng.normal(0.0, 2.0, 3).tolist()) for _ in range(5)], model=nig)
            state = MCMCState.from_prior(5, 3, 1.0, 0.7, rng, **kw)
            again = MCMCState.from_tables(state.c, state.d, 1.0, 0.7, **kw)
            assert [list(m.items()) for m in state.m_post] == [list(m.items()) for m in again.m_post]
            assert [list(m.items()) for m in state.pre] == [list(m.items()) for m in again.pre]
            assert state.pre_total == again.pre_total
            assert state.blocks == again.blocks and state.next_label == again.next_label
            assert list(state.stats) == list(again.stats)
            for lab, st in state.stats.items():
                assert st == again.stats[lab]

    def test_from_tables_rejects_death_before_birth(self):
        with pytest.raises(ValueError, match=r"death time 1 before birth 2 at unit \(1, 2\)"):
            MCMCState.from_tables([[1, 1], [1, 2]], [[2, 2], [2, 1]], 1.0, 0.5)

    def test_from_tables_rejects_death_past_horizon(self):
        # T = 2: a unit alive at the horizon dies at T + 1 = 3, never later
        with pytest.raises(ValueError, match=r"death time 9 past the horizon cap 3 at unit \(0, 2\)"):
            MCMCState.from_tables([[1], [1]], [[3], [9]], 1.0, 0.5)
        state = MCMCState.from_tables([[1], [1]], [[3], [3]], 1.0, 0.5)
        assert state.d == [[3], [3]]


PRIOR_DRAWS = 100_000


def _from_prior_tables(T, n, theta, rho, rng):
    state = MCMCState.from_prior(T, n, theta, rho, rng)
    return state.c, state.d


@pytest.mark.parametrize("rho", [0.3, 0.9])
@pytest.mark.parametrize(
    "draw",
    [_from_prior_tables, oracles.unit_survival_prior_tables],
    ids=["from_prior", "unit-survival-replay"],
)
def test_prior_draw_matches_exact_prior(draw, rho):
    """At T = n = 2 the toy enumeration with one atom and equal observations
    has a flat likelihood, so it is the exact prior over canonical (c, d).
    Negative control: the same draws against the prior at theta = 1.8."""
    theta = 1.2
    rng = np.random.default_rng(int(rho * 10))
    freq = Counter(oracles.canonical_table_key(*draw(2, 2, theta, rho, rng)) for _ in range(PRIOR_DRAWS))
    emp = {key: count / PRIOR_DRAWS for key, count in freq.items()}
    flat = ([0.0, 0.0], [0.0, 0.0])
    assert tv(emp, enumerate_toy_posterior(flat, theta, rho, (0.0,), (1.0,), 1.0)) < 0.03
    assert tv(emp, enumerate_toy_posterior(flat, 1.8, rho, (0.0,), (1.0,), 1.0)) > 0.1


class TestDeathTimeMove:
    def test_rho_one_forces_cap(self, rng):
        state = MCMCState.from_prior(3, 2, 1.0, 1.0, rng)
        for t in range(1, 4):
            for k in range(2):
                gibbs_death_time(state, k, t, rng)
        assert all(d == 4 for row in state.d for d in row)

    def test_rho_zero_forces_birth_death(self, rng):
        state = MCMCState.from_prior(3, 2, 1.0, 0.0, rng)
        for t in range(1, 4):
            for k in range(2):
                gibbs_death_time(state, k, t, rng)
        assert all(state.d[t][k] == t + 1 for t in range(3) for k in range(2))

    def test_lifetime_prior_geometric(self, rng):
        # no data: d - t for unit (0, 1) follows the truncated geometric
        T, rho = 3, 0.6
        state = MCMCState.from_prior(T, 3, 1.0, rho, rng)
        hist = Counter()
        n_sweeps = 30_000
        for _ in range(n_sweeps):
            sweep(state, rng)
            hist[state.d[0][0] - 1] += 1
        emp = {k: v / n_sweeps for k, v in hist.items()}
        exact = {j: rho**j * (1 - rho) for j in range(T)}
        exact[T] = rho**T
        assert tv(emp, exact) < 0.02


class TestAllocationMove:
    def test_t1_reduces_to_crp_gibbs(self, rng):
        # reference: textbook collapsed CRP Gibbs on one batch
        theta = 1.0
        model = KnownVarGaussianModel(GaussianKnownVar(0.0, 2.0), 1.0)
        obs = (-1.0, -0.8, 1.2, 1.4)
        n = len(obs)

        def reference_chain(n_sweeps, rng):
            labels = [1, 1, 1, 1]
            freq = Counter()
            for _ in range(n_sweeps):
                for i in range(n):
                    others = [labels[j] for j in range(n) if j != i]
                    masses = Counter(others)
                    cands = list(masses)
                    scores = [
                        masses[c]
                        * math.exp(
                            model.predictive_logp(
                                stats_of(model, [obs[j] for j in range(n) if j != i and labels[j] == c]),
                                obs[i],
                            )
                        )
                        for c in cands
                    ]
                    scores.append(theta * math.exp(model.predictive_logp(stats_of(model, []), obs[i])))
                    u = rng.random() * sum(scores)
                    acc = 0.0
                    pick = len(scores) - 1
                    for ci, sc in enumerate(scores):
                        acc += sc
                        if u < acc:
                            pick = ci
                            break
                    labels[i] = cands[pick] if pick < len(cands) else max(labels) + 1
                freq[tuple(sorted(Counter(labels).values(), reverse=True))] += 1
            return {k: v / n_sweeps for k, v in freq.items()}

        n_sweeps = 30_000
        ref = reference_chain(n_sweeps, rng)
        state = MCMCState.from_prior(
            1, n, theta, 0.5, rng, observations=[obs], model=model, mode="collapsed"
        )
        freq = Counter()
        for _ in range(n_sweeps):
            sweep(state, rng)
            freq[counts_of(state.c[0]).box_sizes()] += 1
        ours = {k: v / n_sweeps for k, v in freq.items()}
        assert tv(ours, ref) < 0.02

    def test_caches_survive_data_sweeps(self, rng):
        model = AtomicGaussianModel(FiniteAtomic((-1.0, 1.0)), 0.8)
        obs = [(-0.9, 1.1), (0.2, -1.3), (1.0, 0.9)]
        state = MCMCState.from_prior(
            3, 2, 1.0, 0.5, rng, observations=obs, model=model, mode="collapsed"
        )
        for _ in range(200):
            sweep(state, rng)
        state.check_caches()


class _Scored(Exception):
    pass


def _sampler_scores(move, state, k, t, monkeypatch):
    """Log-scores a move hands to its categorical draw, or None if it
    returns without drawing; the move runs on a copy of the state."""
    seen = []

    def capture(scores, rng):
        seen.append(list(scores))
        raise _Scored

    monkeypatch.setattr(mcmc, "sample_log_categorical", capture)
    try:
        move(copy.deepcopy(state), k, t, None)
    except _Scored:
        pass
    monkeypatch.undo()
    return seen[0] if seen else None


def _normalised(scores):
    top = max(scores)
    w = [math.exp(s - top) for s in scores]
    return np.array(w) / sum(w)


def _same_conditional(fast, slow):
    assert [s == -math.inf for s in fast] == [s == -math.inf for s in slow]
    if max(slow) == -math.inf:
        return
    np.testing.assert_allclose(_normalised(fast), _normalised(slow), rtol=0, atol=1e-12)


PIN_T, PIN_N = 6, 4


def _pin_setups(rng, extra=False):
    """(rho, from_prior keywords): prior-only, collapsed topic, and
    known-variance Gaussian with static and AR1 locations, at each rho;
    with `extra`, also collapsed NIG and the atomic base."""
    T, n = PIN_T, PIN_N
    gauss = KnownVarGaussianModel(GaussianKnownVar(0.0, 2.0), 1.0)
    topic = TopicModel(SymmetricDirichlet(2.0, 6))
    nig = GaussianModel(NormalInverseGamma(0.0, 0.1, 2.0, 1.0))
    atomic = AtomicGaussianModel(FiniteAtomic((-2.0, 0.0, 1.5), (0.3, 0.3, 0.4)), 0.8)
    for rho in (0.0, 0.3, 0.9, 1.0):
        words = [tuple(int(w) for w in rng.integers(0, 6, n)) for _ in range(T)]
        values = [tuple(float(x) for x in rng.normal(0.0, 2.0, n)) for _ in range(T)]
        yield rho, dict()
        yield rho, dict(observations=words, model=topic, mode="collapsed")
        yield rho, dict(observations=values, model=gauss, mode="static")
        yield rho, dict(observations=values, model=gauss, mode="ar1", kernel=GaussianAR1(0.8, gauss.base))
        if extra:
            yield rho, dict(observations=values, model=nig, mode="collapsed")
            yield rho, dict(observations=values, model=atomic, mode="collapsed")


def _pin_states(rng):
    """States reached by sweeping each `_pin_setups` setup."""
    for rho, kw in _pin_setups(rng):
        state = MCMCState.from_prior(PIN_T, PIN_N, 0.8, rho, rng, **kw)
        for _ in range(6):
            sweep(state, rng)
            yield state


def _assert_same_chain(fast, slow, fast_rng, slow_rng):
    assert fast.c == slow.c and fast.d == slow.d
    assert fast.blocks == slow.blocks and fast.next_label == slow.next_label
    assert fast.locs == slow.locs
    assert list(fast.stats) == list(slow.stats)
    for lab, st in fast.stats.items():
        ref = slow.stats[lab]
        if isinstance(st[0], np.ndarray):
            assert np.array_equal(st[0], ref[0]) and st[1] == ref[1]
        else:
            assert st == ref
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class TestMovesAgainstOracle:
    def test_conditionals_match_per_draw_replay(self, rng, monkeypatch):
        stranded = forced = drawn = 0
        for state in _pin_states(rng):
            for t in range(1, state.T + 1):
                for k in range(state.n):
                    slow = oracles.death_time_scores(state, k, t)
                    fast = _sampler_scores(gibbs_death_time, state, k, t, monkeypatch)
                    if fast is None:
                        assert max(slow) == -math.inf
                    else:
                        _same_conditional(fast, slow)
                    priors = [oracles.lifetime_log_prior(state.rho, t, u, state.T) for u in range(t, state.T + 2)]
                    stranded += any(p > -math.inf and s == -math.inf for p, s in zip(priors, slow))

                    slow = oracles.allocation_scores(state, k, t)
                    fast = _sampler_scores(gibbs_allocation, state, k, t, monkeypatch)
                    assert (fast is None) == (slow is None)
                    if slow is None:
                        forced += 1
                        continue
                    _same_conditional(fast, slow[1])
                    drawn += 1
            state.check_caches()
        assert stranded > 0 and forced > 0 and drawn > 0


class TestMovesAgainstReference:
    """The table-driven moves and the closed-form record against the moves
    and record they replaced (tests/oracles.py)."""

    def test_chains_equal_reference_moves(self, rng, monkeypatch):
        for i, (rho, kw) in enumerate(_pin_setups(rng, extra=True)):
            fast = MCMCState.from_prior(PIN_T, PIN_N, 0.8, rho, rng, **kw)
            slow = copy.deepcopy(fast)
            fast_rng, slow_rng = np.random.default_rng(i), np.random.default_rng(i)
            for _ in range(20):
                sweep(fast, fast_rng)
                with monkeypatch.context() as m:
                    m.setattr(mcmc, "gibbs_allocation", oracles.reference_gibbs_allocation)
                    m.setattr(mcmc, "gibbs_death_time", oracles.reference_gibbs_death_time)
                    sweep(slow, slow_rng)
                _assert_same_chain(fast, slow, fast_rng, slow_rng)
            fast.check_caches()

    def test_record_matches_replay(self, rng):
        for rho, kw in _pin_setups(rng, extra=True):
            if "observations" not in kw:
                continue
            state = MCMCState.from_prior(PIN_T, PIN_N, 0.8, rho, rng, **kw)
            for _ in range(5):
                sweep(state, rng)
                assert state.log_marginal_likelihood() == pytest.approx(
                    oracles.reference_log_marginal_likelihood(state), rel=1e-10
                )

    def test_alive_interval_matches_scan(self):
        rng = np.random.default_rng(11)
        seen = 0
        for state in _pin_states(rng):
            if state.mode != "ar1":
                continue
            for lab in state.blocks:
                alive = state._alive_times(lab)
                assert state.alive_interval(lab) == (alive[0], alive[-1])
                seen += 1
        assert seen > 0


class TestRelabel:
    @staticmethod
    def raw_state(c, d):
        """The tables placed unit by unit and left as they are: unlike
        `from_tables`, nothing splits a box at its gaps."""
        state = MCMCState(len(c), len(c[0]), 1.0, 0.5)
        for ti, row in enumerate(c):
            for k, lab in enumerate(row):
                state._place(lab, k, ti + 1, d[ti][k])
        state.next_label = max(max(row) for row in c) + 1
        return state

    def make_gapped_state(self):
        # box 1 used at t=1 (dies at 1) and again at t=3: a gap at t=2
        return self.raw_state([[1], [2], [1]], [[1], [2], [3]])

    def test_contiguous_label_noop(self):
        state = self.raw_state([[1], [1]], [[2], [2]])
        before = [list(r) for r in state.c]
        relabel(state, 1, 2)
        assert state.c == before

    def test_gap_splits_second_segment(self):
        state = self.make_gapped_state()
        relabel(state, 1, 2)
        assert state.c[0][0] == 1
        assert state.c[2][0] not in (1, 2)
        state.check_caches()

    def test_from_tables_canonicalizes(self):
        state = MCMCState.from_tables([[1], [2], [1]], [[1], [2], [3]], 1.0, 0.5)
        state.check_caches()

    def test_sweeps_preserve_contiguity(self, rng):
        state = MCMCState.from_prior(4, 2, 1.0, 0.5, rng)
        for _ in range(1000):
            sweep(state, rng)
            state.check_caches()


class TestPriorInvariance:
    def test_partition_marginals_stay_esf(self, rng):
        # reduced version of the acceptance criterion
        n, T, theta, rho = 2, 2, 1.0, 0.6
        state = MCMCState.from_prior(T, n, theta, rho, rng)
        per_t = [Counter() for _ in range(T)]
        n_sweeps = 30_000
        for _ in range(n_sweeps):
            sweep(state, rng)
            for t in range(T):
                per_t[t][counts_of(state.c[t]).box_sizes()] += 1
        exact = {p.box_sizes(): math.exp(esf_log_prob(p, theta)) for p in enumerate_partitions(n)}
        for t in range(T):
            emp = {k: v / n_sweeps for k, v in per_t[t].items()}
            assert tv(emp, exact) < 0.05


def _prior_share_z_scores(rho, rng, shift_prior=False, n_sweeps=6000, batches=50):
    """Prior-only chain at T=30, n=2, theta=1.5: batch-means z-scores of the
    share of batches whose two units share a box (Ewens: 1/(1+theta)) and
    of the share of units with t < T that die at birth (1 - rho).  At T=30
    the death-time move reads prior-table offsets up to 29."""
    T, n, theta = 30, 2, 1.5
    state = MCMCState.from_prior(T, n, theta, rho, rng)
    if shift_prior:
        # death time u > t scored with the prior of u - 1
        state.lifetime_prior = state.lifetime_prior[:1] + state.lifetime_prior[:-1]
    same = np.empty(n_sweeps)
    at_birth = np.empty(n_sweeps)
    for s in range(n_sweeps):
        sweep(state, rng)
        same[s] = sum(row[0] == row[1] for row in state.c) / T
        at_birth[s] = sum(
            state.d[t][k] == t + 1 for t in range(T - 1) for k in range(n)
        ) / ((T - 1) * n)
    z = []
    for x, exact in ((same, 1.0 / (1.0 + theta)), (at_birth, 1.0 - rho)):
        means = x.reshape(batches, -1).mean(axis=1)
        z.append((x.mean() - exact) / (means.std(ddof=1) / math.sqrt(batches)))
    return z


class TestPriorInvarianceLongHorizon:
    @pytest.mark.parametrize("rho", [0.3, 0.9])
    def test_box_sharing_and_lifetimes_match_prior(self, rho):
        z = _prior_share_z_scores(rho, np.random.default_rng(30))
        assert all(abs(x) < 4.0 for x in z), z

    def test_shifted_lifetime_prior_detected(self):
        # negative control
        z = _prior_share_z_scores(0.3, np.random.default_rng(30), shift_prior=True)
        assert max(abs(x) for x in z) > 4.0, z


class TestToyPosterior:
    def test_matches_enumeration_smoke(self, rng):
        # reduced version of the acceptance criterion
        theta, rho, sigma = 1.0, 0.5, 0.7
        atoms, weights = (-1.0, 1.5), (0.5, 0.5)
        obs = [(-0.8, 1.2), (1.4, -1.1)]
        exact = enumerate_toy_posterior(obs, theta, rho, atoms, weights, sigma)
        model = AtomicGaussianModel(FiniteAtomic(atoms, weights), sigma)
        state = MCMCState.from_prior(
            2, 2, theta, rho, rng, observations=obs, model=model, mode="collapsed"
        )
        freq = Counter()
        n_sweeps = 30_000
        for _ in range(n_sweeps):
            sweep(state, rng)
            freq[canonical_state_key(state)] += 1
        emp = {k: v / n_sweeps for k, v in freq.items()}
        assert tv(emp, exact) < 0.08


class TestLocations:
    def test_collapsed_mode_rejects(self, rng):
        state = MCMCState.from_prior(2, 2, 1.0, 0.5, rng)
        with pytest.raises(ValueError):
            gibbs_locations(state, 1, 1, rng)

    def test_static_single_obs_conjugate(self, rng):
        # sigma0 == obs_sigma: posterior mean z/2, variance obs_var/2
        model = KnownVarGaussianModel(GaussianKnownVar(0.0, 1.0), 1.0)
        obs = [(2.0,)]
        state = MCMCState.from_tables(
            [[1]], [[2]], 1.0, 0.5, observations=obs, model=model, mode="static",
            rng=rng,
        )
        draws = []
        for _ in range(20_000):
            gibbs_locations(state, 1, 1, rng)
            draws.append(state.locs[1])
        draws = np.array(draws)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) < 3 * se
        assert draws.var() == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("mode", ["static", "ar1"])
    def test_from_tables_locations_follow_rng(self, mode):
        base = GaussianKnownVar(0.0, 1.0)
        kwargs = dict(
            observations=[(0.5,), (1.0,)],
            model=KnownVarGaussianModel(base, 1.0),
            mode=mode,
            kernel=GaussianAR1(0.8, base) if mode == "ar1" else None,
        )
        tables = ([[1], [1]], [[2], [2]], 1.0, 0.5)
        first = MCMCState.from_tables(*tables, rng=np.random.default_rng(3), **kwargs)
        again = MCMCState.from_tables(*tables, rng=np.random.default_rng(3), **kwargs)
        assert first.locs == again.locs
        with pytest.raises(ValueError, match="rng"):
            MCMCState.from_tables(*tables, **kwargs)

    @pytest.mark.parametrize("mode", ["collapsed", "static"])
    def test_static_modes_reject_a_moving_kernel(self, rng, mode):
        # the kernel was taken and never read
        base = GaussianKnownVar(0.0, 1.0)
        model = KnownVarGaussianModel(base, 1.0)
        with pytest.raises(ValueError, match="takes no GaussianAR1"):
            MCMCState.from_prior(2, 2, 1.0, 0.5, rng, model=model, mode=mode, kernel=GaussianAR1(0.8, base))
        MCMCState.from_prior(2, 2, 1.0, 0.5, rng, model=model, mode=mode, kernel=StaticKernel())

    def test_ar1_kernel_base_must_be_the_models(self, rng):
        # the birth prior read the kernel's base, the posterior draws the model's
        model = KnownVarGaussianModel(GaussianKnownVar(0.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="is not the model's"):
            MCMCState.from_prior(
                2, 2, 1.0, 0.5, rng, model=model, mode="ar1", kernel=GaussianAR1(0.8, GaussianKnownVar(0.0, 2.0))
            )
        MCMCState.from_prior(
            2, 2, 1.0, 0.5, rng, model=model, mode="ar1", kernel=GaussianAR1(0.8, GaussianKnownVar(0.0, 1.0))
        )

    def test_ar1_no_data_marginal_stays_base(self, rng):
        # prior-invariance of the location bridge moves
        base = GaussianKnownVar(0.0, 1.0)
        kernel = GaussianAR1(0.7, base)
        state = MCMCState.from_prior(3, 2, 1.0, 0.7, rng, mode="ar1", kernel=kernel)
        pooled = []
        for _ in range(10_000):
            sweep(state, rng)
            lab = next(iter(state.m_post[1]), None)
            if lab is not None:
                pooled.append(state.locs[lab][2])
        assert sps.kstest(np.array(pooled), sps.norm.cdf).pvalue > 0.01

    def test_ar1_trajectories_cover_alive_interval(self, rng):
        base = GaussianKnownVar(0.0, 1.0)
        kernel = GaussianAR1(0.9, base)
        model = KnownVarGaussianModel(base, 1.0)
        obs = [(0.5, -0.5), (1.0, 0.0), (-1.0, 0.3), (0.1, 0.2)]
        state = MCMCState.from_prior(
            4, 2, 1.0, 0.6, rng, observations=obs, model=model, mode="ar1", kernel=kernel
        )
        for _ in range(100):
            sweep(state, rng)
            for lab in state.blocks:
                lo, hi = state.alive_interval(lab)
                assert set(state.locs[lab]) == set(range(lo, hi + 1))

    def test_short_trajectory_detected(self, rng):
        # negative control for the invariant the AR1 location move relies on
        base = GaussianKnownVar(0.0, 1.0)
        state = MCMCState.from_prior(
            5, 2, 1.0, 0.9, rng, mode="ar1", kernel=GaussianAR1(0.9, base)
        )
        state.check_caches()
        traj = state.locs[next(iter(state.blocks))]
        del traj[max(traj)]
        with pytest.raises(AssertionError, match="trajectory"):
            state.check_caches()


class TestSummaries:
    def test_alive_boxes_and_loglik(self, rng):
        model = AtomicGaussianModel(FiniteAtomic((-1.0, 1.0)), 0.8)
        obs = [(-0.9, 1.1), (0.2, -1.3)]
        state = MCMCState.from_prior(
            2, 2, 1.0, 0.5, rng, observations=obs, model=model, mode="collapsed"
        )
        ks = state.alive_boxes_per_time()
        assert len(ks) == 2 and all(k >= 1 for k in ks)
        assert np.isfinite(state.log_marginal_likelihood())

    def test_checkpoint_shape(self, rng):
        state = MCMCState.from_prior(2, 2, 1.0, 0.5, rng)
        ck = state.to_checkpoint()
        assert ck["T"] == 2 and ck["n"] == 2
        assert len(ck["c"]) == 2 and len(ck["d"]) == 2
