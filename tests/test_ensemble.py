"""The vectorized replica bank must agree with the object-level chain; the
statistical suites lean on it, so it is pinned against `urn` policy by
policy here."""

from collections import Counter

import numpy as np
import pytest

from tvdpm.ensemble import UrnEnsemble, batch_partition_distribution
from tvdpm.partitions import counts_of
from tvdpm.urn import (
    ComposePolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
    UrnState,
    policy_window,
    step,
)

from .oracles import tv

POLICIES = {
    "uniform": UniformDeletion(0.7),
    "size_biased": SizeBiasedDeletion(),
    "mixture": MixturePolicy(0.9, UniformDeletion(0.6), SizeBiasedDeletion()),
    "compose": ComposePolicy([UniformDeletion(0.8), SizeBiasedDeletion()]),
    "window": SlidingWindow(2),
}


def object_urn_law(policy, n, theta, t_check, n_mc, rng):
    emp = Counter()
    for _ in range(n_mc):
        s = UrnState.for_policy(theta, policy)
        batch = None
        for _ in range(t_check):
            s, batch = step(s, policy, n, rng)
        emp[counts_of(batch).box_sizes()] += 1
    return {k: v / n_mc for k, v in emp.items()}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_ensemble_matches_object_urn(name, rng):
    policy = POLICIES[name]
    n, theta, t_check, n_mc = 4, 1.0, 6, 30_000
    ens = UrnEnsemble(n_mc, theta, policy)
    ids = None
    for _ in range(t_check):
        ids = ens.step(n, rng)
    vec_law = batch_partition_distribution(ids)
    obj_law = object_urn_law(policy, n, theta, t_check, n_mc, rng)
    assert tv(vec_law, obj_law) < 0.03


def test_mass_without_deletion(rng):
    ens = UrnEnsemble(500, 2.0, UniformDeletion(1.0))
    for t in range(1, 6):
        ens.step(3, rng)
        assert (ens.total_mass() == 3 * t).all()


def test_window_mass(rng):
    ens = UrnEnsemble(500, 1.0, SlidingWindow(2))
    for t in range(1, 9):
        ens.step(3, rng)
        assert (ens.total_mass() == 3 * min(t, 3)).all()


def test_partition_keys_sum_to_one(rng):
    ens = UrnEnsemble(2_000, 1.5, UniformDeletion(0.5))
    ids = ens.step(5, rng)
    dist = batch_partition_distribution(ids)
    assert sum(dist.values()) == pytest.approx(1.0)
    assert all(sum(k) == 5 for k in dist)


def test_max_window():
    assert policy_window(UniformDeletion(0.5)) == 0
    assert policy_window(MixturePolicy(0.5, SlidingWindow(3), UniformDeletion(1.0))) == 3
    assert policy_window(ComposePolicy([SlidingWindow(2), SizeBiasedDeletion()])) == 2


def test_rho_walk_rejected():
    # the walk value belongs to a filter particle; replicas have none
    with pytest.raises(ValueError, match="smc only"):
        UrnEnsemble(10, 1.0, MixturePolicy(0.5, UniformDeletion(None), SizeBiasedDeletion()))


@pytest.mark.parametrize("phi", [1.5, -1.01])
def test_kernel_phi_outside_unit_interval_rejected(phi):
    # sqrt(1 - phi^2) of the AR(1) step would be NaN
    with pytest.raises(ValueError, match="kernel_phi"):
        UrnEnsemble(10, 1.0, UniformDeletion(0.5), track_locations=True, kernel_phi=phi)


def test_predictive_mean_single_box(rng):
    # after one n=1 step the predictive mean is u/(1+theta) per replica
    ens = UrnEnsemble(200, 3.0, UniformDeletion(1.0), track_locations=True)
    ens.step(1, rng)
    locs = ens._loc[np.arange(200), 0]
    assert ens.predictive_mean() == pytest.approx(locs / 4.0)


def test_column_growth_under_pressure(rng):
    # a batch wider than the 16 initial columns must transparently grow, and
    # later batches compact into the grown layout
    ens = UrnEnsemble(50, 5.0, UniformDeletion(0.2))
    assert ens.columns == 16
    ens.step(20, rng)
    assert ens.columns >= 20 and (ens.total_mass() == 20).all()
    for _ in range(30):
        ens.step(6, rng)
    assert (ens.total_mass() >= 6).all()
