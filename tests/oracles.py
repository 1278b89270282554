"""Independent oracles the library is tested against.

Everything here is deliberately brute force (exhaustive enumeration, direct
convolution quadrature, unit-level replay) and shares no code path with the
implementations it checks.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter, defaultdict

import numpy as np
from scipy import integrate
from scipy.stats import norm


def crp_partition_law(n: int, theta: float) -> dict[tuple[int, ...], float]:
    """Exact partition law of n CRP customers by explicit enumeration of
    every seating sequence; keys are descending box-size tuples."""
    out: dict[tuple[int, ...], float] = {}

    def seat(k, sizes, prob):
        if k == n:
            key = tuple(sorted(sizes, reverse=True))
            out[key] = out.get(key, 0.0) + prob
            return
        denom = k + theta
        for i in range(len(sizes)):
            seat(k + 1, sizes[:i] + [sizes[i] + 1] + sizes[i + 1 :], prob * sizes[i] / denom)
        seat(k + 1, sizes + [1], prob * theta / denom)

    seat(1, [1], 1.0)
    return out


def binomial_then_uniform_removal(box_sizes, rho, rng):
    """Alternate uniform-deletion route: draw the death count from a
    binomial, then remove that many units uniformly without replacement."""
    total = sum(box_sizes)
    deaths = rng.binomial(total, 1.0 - rho)
    removed = rng.multivariate_hypergeometric(list(box_sizes), deaths)
    return tuple(int(m - r) for m, r in zip(box_sizes, removed))


def nig_prior_predictive(z, mu0, kappa0, nu0, lam0) -> float:
    """Prior predictive density of one observation under the Gaussian model
    with NormalInverseGamma base, by 1-D quadrature over the variance after
    collapsing the mean analytically."""

    def integrand(v):
        shape, rate = nu0 / 2.0, lam0 / 2.0
        ig = rate**shape / math.gamma(shape) * v ** (-shape - 1.0) * math.exp(-rate / v)
        return norm.pdf(z, loc=mu0, scale=math.sqrt(v * (1.0 + 1.0 / kappa0))) * ig

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400)
    assert err < 1e-8
    return val


def nig_posterior_mean_of_mean(z, mu0, kappa0, nu0, lam0) -> float:
    """E[cluster mean | one observation z] by the same quadrature route."""

    def posterior_joint(v):
        shape, rate = nu0 / 2.0, lam0 / 2.0
        ig = rate**shape / math.gamma(shape) * v ** (-shape - 1.0) * math.exp(-rate / v)
        # p(z | v) after integrating the mean, and E[mean | z, v]
        pz = norm.pdf(z, loc=mu0, scale=math.sqrt(v * (1.0 + 1.0 / kappa0)))
        e_mean = (kappa0 * mu0 + z) / (kappa0 + 1.0)
        return ig * pz, ig * pz * e_mean

    num, _ = integrate.quad(lambda v: posterior_joint(v)[1], 0.0, np.inf, limit=400)
    den, _ = integrate.quad(lambda v: posterior_joint(v)[0], 0.0, np.inf, limit=400)
    return num / den


def dirichlet_predictive_k2(word, counts, theta_v) -> float:
    """P(word | counts) for a 2-word vocabulary under a symmetric Dirichlet
    prior, by quadrature over the 1-simplex."""
    a = theta_v / 2.0
    n1, n2 = counts

    def dens(y):
        return y ** (n1 + a - 1.0) * (1.0 - y) ** (n2 + a - 1.0)

    def dens_w(y):
        p = y if word == 0 else 1.0 - y
        return p * dens(y)

    num, _ = integrate.quad(dens_w, 0.0, 1.0, epsabs=1e-13, limit=200)
    den, _ = integrate.quad(dens, 0.0, 1.0, epsabs=1e-13, limit=200)
    return num / den


def enumerate_toy_posterior(obs, theta, rho, atoms, atom_weights, obs_sigma):
    """Exhaustive posterior over canonical (c, d) for T=2, n=2 under uniform
    deletion and a known-variance Gaussian likelihood with a finite atomic
    base.  Keys: (c as order-of-appearance tuple over draw order, d tuple)."""
    T, n = 2, 2
    draws = [(1, 0), (1, 1), (2, 0), (2, 1)]

    def geom(t, u):
        if u == T + 1:
            return rho ** (T + 1 - t)
        return rho ** (u - t) * (1.0 - rho)

    def block_marginal(zs):
        tot = 0.0
        for a, w in zip(atoms, atom_weights):
            tot += w * math.prod(
                math.exp(-0.5 * ((z - a) / obs_sigma) ** 2)
                / (obs_sigma * math.sqrt(2 * math.pi))
                for z in zs
            )
        return tot

    post: dict = {}
    for dvals in itertools.product(*[range(t, T + 2) for (t, _k) in draws]):
        dprior = math.prod(geom(p[0], dv) for p, dv in zip(draws, dvals))
        dtab = dict(zip(draws, dvals))

        def rec(i, assign, prior):
            if i == len(draws):
                groups: dict = {}
                for p, lab in assign.items():
                    groups.setdefault(lab, []).append(obs[p[0] - 1][p[1]])
                lik = math.prod(block_marginal(zs) for zs in groups.values())
                key = (tuple(assign[p] for p in draws), dvals)
                post[key] = post.get(key, 0.0) + prior * dprior * lik
                return
            t, _k = draws[i]
            masses = Counter()
            for j in range(i):
                p = draws[j]
                if p[0] == t or (p[0] < t and dtab[p] >= t):
                    masses[assign[p]] += 1
            total = sum(masses.values())
            for lab, m in masses.items():
                rec(i + 1, {**assign, draws[i]: lab}, prior * m / (total + theta))
            new = max(assign.values(), default=0) + 1
            rec(i + 1, {**assign, draws[i]: new}, prior * theta / (total + theta))

        rec(0, {}, 1.0)
    z = sum(post.values())
    return {k: v / z for k, v in post.items()}


def canonical_state_key(state) -> tuple:
    """Order-of-appearance canonical key of an MCMC state's (c, d) tables."""
    remap: dict[int, int] = {}
    cs = []
    for t in range(state.T):
        for k in range(state.n):
            lab = state.c[t][k]
            if lab not in remap:
                remap[lab] = len(remap) + 1
            cs.append(remap[lab])
    ds = tuple(state.d[t][k] for t in range(state.T) for k in range(state.n))
    return tuple(cs), ds


def forward_alive_counts(c, d, T):
    """Unit-level replay of which allocations are alive at each time."""
    out = []
    for u in range(1, T + 1):
        alive = Counter()
        for ti, row in enumerate(c):
            t = ti + 1
            if t > u:
                continue
            for k, lab in enumerate(row):
                if d[ti][k] >= u:
                    alive[lab] += 1
        out.append(dict(alive))
    return out


def inline_categorical(probs, rng) -> int:
    """Reference for `partitions.sample_categorical`: the inverse-CDF loop
    the samplers carried inline before they shared it, kept verbatim."""
    u = rng.random() * sum(probs)
    acc = 0.0
    pick = len(probs) - 1
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            pick = i
            break
    return pick


def _pre_masses(state, v: int) -> dict[int, int]:
    """Alive masses the batch at time v is drawn against (units born
    before v that survive through v), label -> count, rebuilt from the
    post-batch counts."""
    out = dict(state.m_post[v - 1])
    for lab in state.c[v - 1]:
        m = out[lab] - 1
        if m:
            out[lab] = m
        else:
            del out[lab]
    return out


def _unit_loglik(state, label, z, t, stats_a, a):
    """Log-likelihood of observation z (at time t) in box `label` (None: a
    fresh box); `stats_a` stands for box a's statistics without the unit."""
    if state.model is None or state.obs is None:
        return 0.0
    if label is None:
        return state.model.predictive_logp(state.model.empty_stats(), z)
    if state.mode == "collapsed":
        return state.model.predictive_logp(stats_a if label == a else state.stats[label], z)
    if state.mode == "static":
        return state.model.log_likelihood(z, state.locs[label])
    return state.model.log_likelihood(z, state.locs[label][t])


def allocation_scores(state, k: int, t: int):
    """Full conditional of c_{k,t} by replaying every later draw inside the
    unit's lifetime one at a time, with the pre-batch masses rebuilt per
    batch: the sampler's allocation move before it kept pre-batch counts.

    Returns None when a later draw pins the unit, else (labels, log-scores)
    with the fresh box last.
    """
    a = state.c[t - 1][k]
    dd = min(state.d[t - 1][k], state.T)
    z = state.obs[t - 1][k] if state.obs is not None else None

    cur = _pre_masses(state, t)
    for k2 in range(k):
        b = state.c[t - 1][k2]
        cur[b] = cur.get(b, 0) + 1
    entry = dict(cur)

    adj: dict[int, float] = defaultdict(float)
    forced = False
    scan = [(t, k2) for k2 in range(k + 1, state.n)] + [
        (v, k2) for v in range(t + 1, dd + 1) for k2 in range(state.n)
    ]
    v_cur = t
    for (v, k2) in scan:
        if v != v_cur:
            cur = _pre_masses(state, v)
            m_a = cur.get(a, 0) - 1
            if m_a:
                cur[a] = m_a
            else:
                cur.pop(a, None)
            v_cur = v
        b = state.c[v - 1][k2]
        m = cur.get(b, 0)
        if m == 0:
            if b == a and min(state.blocks[b]) != (v, k2):
                forced = True
                break
        elif b == a or b in entry:
            adj[b] += math.log(m + 1) - math.log(m)
        cur[b] = m + 1
    if forced:
        return None

    stats_a = None
    if state.model is not None and state.obs is not None and state.mode == "collapsed":
        stats_a = copy.deepcopy(state.stats[a])
        state.model.stats_remove(stats_a, z)

    labels = [b for b, m in entry.items() if m > 0]
    scores = [
        math.log(entry[b]) + adj.get(b, 0.0) + _unit_loglik(state, b, z, t, stats_a, a) for b in labels
    ]
    scores.append(math.log(state.theta) + _unit_loglik(state, None, z, t, stats_a, a))
    return labels, scores


def lifetime_log_prior(rho: float, t: int, u: int, T: int) -> float:
    """Truncated-geometric prior of death time u for a unit born at t."""
    if u == T + 1:
        return float("-inf") if rho == 0.0 else (T + 1 - t) * math.log(rho)
    if rho == 1.0:
        return float("-inf")
    tail = 0.0 if u == t else (float("-inf") if rho == 0.0 else (u - t) * math.log(rho))
    return tail + math.log(1.0 - rho)


def death_time_scores(state, k: int, t: int) -> list[float]:
    """Full conditional of d_{k,t} over t..T+1, from the urn probabilities
    of every later batch's draws with the unit alive (A) and dead (B),
    recomputed draw by draw: the sampler's death-time move before it
    summed per-batch differences."""
    NEG_INF = float("-inf")
    a = state.c[t - 1][k]
    d_old = state.d[t - 1][k]
    T = state.T
    rho = state.rho

    A = {}
    B = {}
    alive_last = min(d_old, T)
    for v in range(t + 1, T + 1):
        cur = _pre_masses(state, v)
        if v <= alive_last:
            m_a = cur.get(a, 0) - 1
            if m_a:
                cur[a] = m_a
            else:
                cur.pop(a, None)
        total = sum(cur.values())
        av = bv = 0.0
        for k2 in range(state.n):
            b = state.c[v - 1][k2]
            m = cur.get(b, 0)
            if min(state.blocks[b]) == (v, k2):
                num_with = num_without = math.log(state.theta)
            else:
                num_with = math.log(m + (1 if b == a else 0))
                num_without = math.log(m) if m > 0 else NEG_INF
            av += num_with - math.log(total + 1 + state.theta)
            bv += (num_without - math.log(total + state.theta)) if num_without > NEG_INF else NEG_INF
            cur[b] = m + 1
            total += 1
        A[v] = av
        B[v] = bv

    scores = []
    b_suffix = {T + 1: 0.0}
    for v in range(T, t, -1):
        b_suffix[v] = b_suffix[v + 1] + B[v]
    acc_a = 0.0
    for u in range(t, T + 2):
        if t < u <= T:
            acc_a += A[u]
        prior = lifetime_log_prior(rho, t, u, T)
        scores.append(prior + acc_a + b_suffix.get(min(u, T) + 1, 0.0))
    return scores


def tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# -- the particle filter's step, density and thinning before they dropped
# their repeated work, kept verbatim as the references the fast paths are
# pinned against.


def reference_delete_uniform(state, rho, rng):
    """Uniform thinning of an urn without unit ages: one binomial over the
    array of box counts."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    out = state.copy()
    if rho == 1.0 or not out.boxes:
        return out
    assert out.births is None, "the reference covers the state without ages"
    labels = list(out.boxes)
    counts = np.fromiter((out.boxes[l] for l in labels), dtype=np.int64, count=len(labels))
    surviving = rng.binomial(counts, rho)
    out.boxes = {l: int(s) for l, s in zip(labels, surviving) if s > 0}
    return out


def reference_propose_batch(urn, locations, values, model, conjugate, rng):
    """Sequential allocation proposal scoring the new box per particle."""
    from tvdpm.models import stats_of
    from tvdpm.partitions import sample_log_categorical

    newborn: dict[int, list] = {}
    assignments: list[int] = []
    log_prior_minus_q = 0.0
    for z in values:
        labels = list(urn.boxes)
        log_scores = []
        for lab in labels:
            lm = math.log(urn.boxes[lab])
            if conjugate:
                if lab in newborn:
                    lm += model.predictive_logp(newborn[lab], z)
                else:
                    lm += model.log_likelihood(z, locations[lab])
            log_scores.append(lm)
        new_score = math.log(urn.theta)
        if conjugate:
            new_score += model.predictive_logp(model.empty_stats(), z)
        log_scores.append(new_score)
        pick, q = sample_log_categorical(log_scores, rng)
        log_norm = math.log(urn.total_mass + urn.theta)
        if pick == len(labels):
            lab = urn.next_label
            newborn[lab] = stats_of(model, [z])
            log_prior = math.log(urn.theta) - log_norm
        else:
            lab = labels[pick]
            log_prior = math.log(urn.boxes[lab]) - log_norm
            if lab in newborn:
                model.stats_add(newborn[lab], z)
        urn.add_unit(lab)
        assignments.append(lab)
        log_prior_minus_q += log_prior - math.log(q)
    urn.time += 1
    return assignments, newborn, log_prior_minus_q


def reference_advance(population, batch, model, kernel, config) -> dict:
    """One filtering step that recomputes every likelihood in the weight
    loop."""
    from scipy.special import logsumexp

    from tvdpm.kernels import StaticKernel
    from tvdpm.models import KnownVarGaussianModel
    from tvdpm.smc import DegeneracyError, _ar1_posterior_step, ess, resample
    from tvdpm.urn import apply_policy

    conjugate = config.proposal == "conjugate"
    static = isinstance(kernel, StaticKernel)
    if not static and not isinstance(model, KnownVarGaussianModel):
        raise ValueError("non-static kernels are supported for the known-variance model only")
    n_new = np.empty(population.n)
    for i, particle in enumerate(population.particles):
        rng = population.rngs[i]
        if config.rho_walk is not None:
            particle.rho = config.rho_walk.sample(particle.rho, rng)
        urn = apply_policy(particle.urn, config.policy, rng, particle.rho)
        survivors = set(urn.boxes)
        locations = {lab: particle.locations[lab] for lab in survivors}
        assignments, newborn, log_inc = reference_propose_batch(
            urn, locations, batch.values, model, conjugate, rng
        )
        used = set(assignments)
        for lab, stats in newborn.items():
            if conjugate:
                u = model.posterior_sample_from_stats(stats, rng)
                log_inc += model.base_log_density(u) - model.posterior_log_density(stats, u)
            else:
                u = model.posterior_sample_from_stats(model.empty_stats(), rng)
            locations[lab] = u
        if not static:
            for lab in survivors:
                prev = locations[lab]
                if lab in used and conjugate:
                    u, log_ratio = _ar1_posterior_step(
                        kernel, model, prev,
                        [z for z, a in zip(batch.values, assignments) if a == lab],
                        rng,
                    )
                    log_inc += log_ratio
                else:
                    u = kernel.transition(prev, rng)
                locations[lab] = u
        for z, lab in zip(batch.values, assignments):
            log_inc += model.log_likelihood(z, locations[lab])
        particle.urn = urn
        particle.locations = locations
        n_new[i] = log_inc
    population.log_weights = population.log_weights + n_new
    norm = logsumexp(population.log_weights)
    if not np.isfinite(norm):
        raise DegeneracyError(batch.time)
    population.log_weights = population.log_weights - norm
    n_eff = ess(population.weights())
    resampled = n_eff <= config.ess_threshold_fraction * population.n
    if resampled:
        resample(population)
    return {"t": batch.time, "ess": n_eff, "resampled": resampled}


def reference_density(population, grid, model) -> np.ndarray:
    """Posterior-mean predictive density with one Gaussian row per
    (particle, box) component."""
    from tvdpm.models import GaussianModel, KnownVarGaussianModel, normal_logpdf

    if isinstance(model, GaussianModel):
        comp = lambda u: (u[0], u[1])
    elif isinstance(model, KnownVarGaussianModel) and not model._atomic:
        comp = lambda u: (u, model.obs_sigma ** 2)
    else:
        raise ValueError("density estimation needs a Gaussian observation model")
    grid = np.asarray(grid, dtype=float)
    weights = population.weights()
    theta = population.particles[0].urn.theta
    w_box, means, varis = [], [], []
    base_w = 0.0
    for w, particle in zip(weights, population.particles):
        denom = particle.urn.total_mass + theta
        base_w += w * theta / denom
        for lab, m in particle.urn.boxes.items():
            mu, var = comp(particle.locations[lab])
            w_box.append(w * m / denom)
            means.append(mu)
            varis.append(var)
    values = base_w * model.predictive_grid(model.empty_stats(), grid)
    if w_box:
        wb = np.asarray(w_box)[:, None]
        mu = np.asarray(means)[:, None]
        var = np.asarray(varis)[:, None]
        values = values + (wb * np.exp(normal_logpdf(grid[None, :], mu, var))).sum(axis=0)
    return values
