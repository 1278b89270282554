"""Independent oracles the library is tested against.

Everything here is deliberately brute force (exhaustive enumeration, direct
convolution quadrature, unit-level replay) and shares no code path with the
implementations it checks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

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


def tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
