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
from scipy.special import logsumexp
from scipy.stats import kstest, kstwo, norm

from tvdpm.partitions import CountsVector
from tvdpm.urn import (
    ComposePolicy,
    DeletionPolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
    UrnState,
    allocate_batch,
    delete_uniform,
    policy_uses_walk,
    policy_window,
)


def validate_allocation(labels) -> None:
    """Check order-of-appearance labelling: c_1 = 1, each new label = max + 1."""
    seen_max = 0
    for c in labels:
        if c == seen_max + 1:
            seen_max += 1
        elif not (1 <= c <= seen_max):
            raise ValueError(f"label {c} breaks order-of-appearance labelling")


def counts_from_box_sizes(sizes) -> CountsVector:
    """The partition with the given box sizes."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("box sizes must be positive and non-empty")
    counts = [0] * sum(sizes)
    for s in sizes:
        counts[s - 1] += 1
    return CountsVector(tuple(counts))


def num_boxes(partition: CountsVector) -> int:
    return sum(partition.counts)


def counts_of(labels) -> CountsVector:
    """Partition induced by an allocation vector (any hashable labels)."""
    if not labels:
        raise ValueError("empty allocation")
    return counts_from_box_sizes(Counter(labels).values())


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
        chosen = inline_categorical(weights, rng) + 1
        if chosen == len(weights):
            weights.insert(-1, 1)
        else:
            weights[chosen - 1] += 1
        labels.append(chosen)
    return labels


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
    return canonical_table_key(state.c, state.d)


def canonical_table_key(c, d) -> tuple:
    """Order-of-appearance canonical key of (c, d) tables."""
    remap: dict[int, int] = {}
    cs = []
    for row in c:
        for lab in row:
            if lab not in remap:
                remap[lab] = len(remap) + 1
            cs.append(remap[lab])
    return tuple(cs), tuple(u for row in d for u in row)


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


def unit_survival_prior_tables(T: int, n: int, theta: float, rho: float, rng):
    """(c, d) from the uniform-deletion prior by unit-level replay: before
    each batch every alive unit survives with its own coin of probability
    rho, and the batch is drawn against the survivors.  Units alive after
    batch T die at the out-of-horizon deletion with probability 1 - rho
    (d = T), else keep the alive-at-horizon cap T + 1."""
    alive: list[list] = []  # [t, k, label] still-alive units
    c = [[0] * n for _ in range(T)]
    d = [[T + 1] * n for _ in range(T)]
    label = 1
    for t in range(1, T + 1):
        keep = []
        for unit in alive:
            if rng.random() < rho:
                keep.append(unit)
            else:
                d[unit[0] - 1][unit[1]] = t - 1
        alive = keep
        masses: dict[int, int] = defaultdict(int)
        for unit in alive:
            masses[unit[2]] += 1
        urn, batch = allocate_batch(UrnState(theta, dict(masses), next_label=label), n, rng)
        label = urn.next_label
        c[t - 1] = batch
        alive.extend([t, k, lab] for k, lab in enumerate(batch))
    for unit in alive:
        if rng.random() >= rho:
            d[unit[0] - 1][unit[1]] = T
    return c, d


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


# -- the particle filter's step in its importance-ratio form, and its density
# and thinning before they dropped their repeated work: the references the
# fast paths are pinned against.


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


# Log densities of a box parameter under the conjugate posterior of its
# observations' statistics (under the base measure when the statistics are
# empty), written out from the textbook forms.  Bayes' rule ties them to the
# model's closed-form marginal:
#   sum_i log p(z_i | u) + log base(u) - log posterior(u | z) = log p(z).


def _invgamma_logpdf(x, shape, rate):
    return shape * math.log(rate) - math.lgamma(shape) - (shape + 1.0) * math.log(x) - rate / x


def _normal_logpdf(x, mean, var):
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def nig_log_density(u, stats, base) -> float:
    """NormalInverseGamma posterior of u = (mean, variance) given
    [count, sum, sum of squares]: variance ~ InvGamma(nu/2, lambda/2),
    mean | variance ~ Normal(mu, variance / kappa)."""
    mean, var = u
    n, s, ss = stats
    kappa = base.kappa0 + n
    mu = (base.kappa0 * base.mu0 + s) / kappa
    nu = base.nu0 + n
    lam = base.lambda0
    if n:
        zbar = s / n
        lam += ss - n * zbar * zbar + base.kappa0 * n * (zbar - base.mu0) ** 2 / kappa
    return _invgamma_logpdf(var, nu / 2.0, lam / 2.0) + _normal_logpdf(mean, mu, var / kappa)


def known_var_log_density(u, stats, base, obs_sigma) -> float:
    """Normal posterior of a mean with a Normal(mu0, sigma0^2) prior given
    [count, sum, ...] of observations with known standard deviation."""
    n, s = stats[0], stats[1]
    prec = 1.0 / base.sigma0 ** 2 + n / obs_sigma ** 2
    mean = (base.mu0 / base.sigma0 ** 2 + s / obs_sigma ** 2) / prec
    return _normal_logpdf(u, mean, 1.0 / prec)


def atomic_log_likelihoods(observations, atoms, obs_sigma) -> list[float]:
    """Per atom a, sum_i log N(z_i; a, obs_sigma^2), one observation at a
    time: the slow path the atomic model's closed form on [count, sum,
    sum of squares] is pinned against."""
    return [sum(_normal_logpdf(z, a, obs_sigma ** 2) for z in observations) for a in atoms]


def atomic_log_posterior(observations, base, obs_sigma) -> list[float]:
    """Log posterior mass of each atom given the observations."""
    lls = atomic_log_likelihoods(observations, base.atoms, obs_sigma)
    logp = [math.log(w) + ll for w, ll in zip(base.weights, lls)]
    norm = logsumexp(logp)
    return [float(lp - norm) for lp in logp]


def atomic_log_marginal(observations, base, obs_sigma) -> float:
    """Log density of the observations with the atom summed out."""
    lls = atomic_log_likelihoods(observations, base.atoms, obs_sigma)
    return float(logsumexp([math.log(w) + ll for w, ll in zip(base.weights, lls)]))


def atomic_predictive_logp(observations, z, base, obs_sigma) -> float:
    """Log predictive density of z: the atoms' normal densities at z mixed
    by their posterior given the observations."""
    post = atomic_log_posterior(observations, base, obs_sigma)
    return float(logsumexp([lp + _normal_logpdf(z, a, obs_sigma ** 2) for lp, a in zip(post, base.atoms)]))


def atomic_log_density(u, stats, base, obs_sigma) -> float:
    """Posterior mass of atom u given [count, sum, sum of squares] of
    observations with known standard deviation; -inf off the atoms."""
    n, s, ss = stats
    var = obs_sigma ** 2
    logp = [
        math.log(w) - 0.5 * n * math.log(2.0 * math.pi * var) - (ss - 2.0 * a * s + n * a * a) / (2.0 * var)
        for a, w in zip(base.atoms, base.weights)
    ]
    log_total = logsumexp(logp)
    for a, lp in zip(base.atoms, logp):
        if math.isclose(a, u):
            return float(lp - log_total)
    return float("-inf")


def dirichlet_log_density(y, stats, base) -> float:
    """Dirichlet posterior of a topic vector y given [word counts, total]
    under the symmetric Dirichlet(theta_v / K) base."""
    alpha = [c + base.theta_v / base.vocab_size for c in stats[0].tolist()]
    return (
        math.lgamma(sum(alpha))
        - sum(math.lgamma(a) for a in alpha)
        + sum((a - 1.0) * math.log(p) for a, p in zip(alpha, y.tolist()))
    )


def parameter_log_density(model, stats, u) -> float:
    """Log density of box parameter u under `model`'s conjugate posterior
    given `stats`; `model.empty_stats()` gives the base density."""
    from tvdpm.models import GaussianModel, KnownVarGaussianModel, TopicModel

    if isinstance(model, GaussianModel):
        return nig_log_density(u, stats, model.base)
    if isinstance(model, KnownVarGaussianModel):
        if model._atomic:
            return atomic_log_density(u, stats, model.base, model.obs_sigma)
        return known_var_log_density(u, stats, model.base, model.obs_sigma)
    if isinstance(model, TopicModel):
        return dirichlet_log_density(u, stats, model.base)
    raise TypeError(f"no parameter density for {model!r}")


def reference_propose_batch(urn, locations, values, model, rng):
    """Sequential allocation proposal scoring the new box per particle, with
    its importance ratio log Pr(c | m) - log q(c); q is computed here from
    the scores."""
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
            if lab in newborn:
                lm += model.predictive_logp(newborn[lab], z)
            else:
                lm += model.log_likelihood(z, locations[lab])
            log_scores.append(lm)
        log_scores.append(math.log(urn.theta) + model.predictive_logp(model.empty_stats(), z))
        pick = sample_log_categorical(log_scores, rng)[0]
        log_q = log_scores[pick] - float(logsumexp(log_scores))
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
        log_prior_minus_q += log_prior - log_q
    urn.time += 1
    return assignments, newborn, log_prior_minus_q


class _Replay:
    """A generator stand-in whose `random()` returns the given uniforms in
    turn."""

    def __init__(self, uniforms):
        self._next = iter(uniforms).__next__

    def random(self):
        return self._next()


def reference_advance(population, batch, model, kernel, config) -> dict:
    """One filtering step in the importance-ratio form: the allocation
    ratio, a newborn box's base over posterior density at its draw, and
    every likelihood recomputed at the final locations.  Particles are
    stepped one at a time, each scalar call drawing from the run's one
    generator in the phases of `advance`: the walk, particle by particle;
    per particle, the deletion and then the transitions; U = one (n, N)
    block of uniforms, particle i's proposal replaying column U[:, i]; per
    particle in index order, the newborn posterior draws; resampling."""
    from tvdpm.kernels import StaticKernel
    from tvdpm.smc import DegeneracyError, ess, resample
    from tvdpm.urn import apply_policy

    static = isinstance(kernel, StaticKernel)
    rng, N = population.rng, population.n
    if config.rho_walk is not None:
        population.rho = np.array([config.rho_walk.sample(r, rng) for r in population.rho])
    rho = [None] * N if population.rho is None else population.rho
    moved = []
    for particle, rho_i in zip(population.particles, rho):
        urn = apply_policy(particle.urn, config.policy, rng, rho_i)
        locations = {lab: particle.locations[lab] for lab in urn.boxes}
        if not static:
            for lab in urn.boxes:
                locations[lab] = kernel.transition(locations[lab], rng)
        moved.append((urn, locations))
    U = rng.random((batch.n, N))
    proposed = [
        reference_propose_batch(urn, locations, batch.values, model, _Replay(U[:, i]))
        for i, (urn, locations) in enumerate(moved)
    ]
    n_new = np.empty(N)
    for i, (particle, (urn, locations), (assignments, newborn, log_inc)) in enumerate(
        zip(population.particles, moved, proposed)
    ):
        for lab, stats in newborn.items():
            u = model.posterior_sample_from_stats(stats, rng)
            log_inc += parameter_log_density(model, model.empty_stats(), u)
            log_inc -= parameter_log_density(model, stats, u)
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


# -- the Gibbs moves and the sweep record before they read the state's
# lookup tables and the models' closed-form marginals, kept verbatim (as
# functions of the state) as the references the fast paths are pinned
# against.


def _move_loglik(state, label, z, t):
    """Log-likelihood weight of putting observation z (at time t) into the
    given box; label None means a fresh box."""
    if state.obs is None:
        return 0.0
    if label is None:
        return state.model.predictive_logp(state.model.empty_stats(), z)
    if state.mode == "collapsed":
        return state.model.predictive_logp(state.stats[label], z)
    if state.mode == "static":
        return state.model.log_likelihood(z, state.locs[label])
    return state.model.log_likelihood(z, state.locs[label][t])


def reference_gibbs_allocation(state, k: int, t: int, rng):
    """Resample c_{k,t} from its full conditional, recomputing every
    logarithm and the fresh box's predictive."""
    from tvdpm.mcmc import _attach_new_box, _attach_unit, _detach_unit
    from tvdpm.partitions import sample_log_categorical

    a = state.c[t - 1][k]
    dd = min(state.d[t - 1][k], state.T)
    z = state.obs[t - 1][k] if state.obs is not None else None
    row = state.c[t - 1]

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
                adj[b] += math.log(m + drawn) - math.log(m)

    if state.obs is not None and state.mode == "collapsed":
        state.model.stats_remove(state.stats[a], z)

    labels = list(entry)
    scores = [math.log(entry[b]) + adj[b] + _move_loglik(state, b, z, t) for b in labels]
    scores.append(math.log(state.theta) + _move_loglik(state, None, z, t))
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
        _attach_new_box(state, target, k, t, dd, z, rng)
    else:
        _attach_unit(state, target, k, t, dd, z, rng)
    state.c[t - 1][k] = target


def reference_gibbs_death_time(state, k: int, t: int, rng):
    """Resample d_{k,t} from its full conditional, recomputing every
    logarithm and every prior term."""
    from tvdpm.mcmc import _fit_trajectory, _shift
    from tvdpm.partitions import sample_log_categorical

    NEG_INF = float("-inf")
    a = state.c[t - 1][k]
    d_old = state.d[t - 1][k]
    T, n, theta, rho = state.T, state.n, state.theta, state.rho

    alive_last = min(d_old, T)
    scores = [lifetime_log_prior(rho, t, t, T)]
    gain = 0.0
    for v in range(t + 1, T + 1):
        own = v <= alive_last  # the caches count the unit at v
        total = state.pre_total[v - 1] - own
        m = state.pre[v - 1].get(a, 0)
        drawn = state.m_post[v - 1].get(a, 0) - m
        m -= own
        gain += math.log(total + theta) - math.log(total + n + theta)
        if drawn:
            if m:
                gain += math.log(m + drawn) - math.log(m)
            else:
                scores = [NEG_INF] * len(scores)
        scores.append(lifetime_log_prior(rho, t, v, T) + gain)
    scores.append(lifetime_log_prior(rho, t, T + 1, T) + gain)
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


def reference_log_marginal_likelihood(state) -> float:
    """Log density of the observations given the allocations, by replaying
    every box's units through the sequential predictive."""
    if state.obs is None:
        return 0.0
    out = 0.0
    for lab, units in state.blocks.items():
        st = state.model.empty_stats()
        for (t, k) in sorted(units):
            z = state.obs[t - 1][k]
            out += state.model.predictive_logp(st, z)
            state.model.stats_add(st, z)
    return out


# -- the replica bank before its step drew only what the draws need, kept
# verbatim as the reference `tvdpm.ensemble.UrnEnsemble` is pinned against
# (equal ids, arrays and generator state after every step).


class ReferenceUrnEnsemble:
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
                self._refresh_agg()  # the next pick reads what this one left
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


# -- the moment check and the partition tally before they ran on arrays: the
# slow paths `diagnostics.expected_count_check` and
# `ensemble.batch_partition_distribution` are pinned against.


def object_urn_moments(theta, rho, n, initial_counts, n_mc, rng):
    """Means and standard errors, over n_mc object urns started from the
    given box sizes, of each given box's size and of the mass born in new
    boxes after one allocation batch and one uniform deletion: two arrays of
    length k0 + 1, the new-box mass last."""
    initial_counts = [int(c) for c in initial_counts]
    k0 = len(initial_counts)
    base_state = UrnState(
        theta=theta,
        boxes={i + 1: c for i, c in enumerate(initial_counts)},
        next_label=k0 + 1,
    )
    sums = np.zeros(k0 + 1)
    sqs = np.zeros(k0 + 1)
    for _ in range(n_mc):
        state, _ = allocate_batch(base_state, n, rng)
        state = delete_uniform(state, rho, rng)
        masses = [state.boxes.get(i + 1, 0) for i in range(k0)]
        masses.append(sum(c for lab, c in state.boxes.items() if lab > k0))
        for i, m in enumerate(masses):
            sums[i] += m
            sqs[i] += m * m
    means = sums / n_mc
    return means, np.sqrt(np.maximum(sqs / n_mc - means * means, 0.0) / n_mc)


def reference_batch_partition_distribution(ids) -> dict[tuple[int, ...], float]:
    """The batch partition law across replicas, tallied by `np.unique` over
    the rows of sorted block sizes."""
    R, n = ids.shape
    sizes = (ids[:, :, None] == ids[:, None, :]).sum(axis=2)
    keys = -np.sort(-sizes, axis=1)
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


# -- exact filters for a single forced cluster, the oracles of the particle
# filter's moving-kernel and topic paths.


def kalman_ar1_filter(obs, phi, mu0, sigma0, obs_sigma) -> tuple[float, float]:
    """Mean and variance of the location after the last observation, for a
    location that starts from Normal(mu0, sigma0^2), moves by the stationary
    AR(1) with coefficient phi between observations, and is observed with
    Normal(0, obs_sigma^2) noise."""
    m, v = mu0, sigma0 ** 2
    for i, z in enumerate(obs):
        if i:
            m = mu0 + phi * (m - mu0)
            v = phi * phi * v + (1.0 - phi * phi) * sigma0 ** 2
        gain = v / (v + obs_sigma ** 2)
        m += gain * (z - m)
        v *= 1.0 - gain
    return m, v


def dirichlet_multinomial_predictive(words, theta_v, vocab_size) -> np.ndarray:
    """P(next word | words) for one topic with a symmetric
    Dirichlet(theta_v / K) prior."""
    counts = np.bincount(np.asarray(words, dtype=int), minlength=vocab_size)
    return (counts + theta_v / vocab_size) / (len(words) + theta_v)


# -- scipy's Kolmogorov-Smirnov test, the oracle of the validation suite's
# in-package statistic and p-value.


def reference_ks_test(values, mu: float, sigma: float) -> tuple[float, float]:
    """scipy's exact two-sided KS test of values against Normal(mu, sigma^2):
    (statistic, p-value)."""
    result = kstest(values, norm(loc=mu, scale=sigma).cdf)
    return float(result.statistic), float(result.pvalue)


def reference_kolmogorov_sf(n: int, d: float) -> float:
    """scipy's P(D_n >= d) for the two-sided KS statistic of n points."""
    return float(kstwo.sf(d, n))
