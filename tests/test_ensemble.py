"""The vectorized replica bank must agree with the object-level chain; the
statistical suites lean on it, so it is pinned against `urn` policy by
policy here."""

from collections import Counter

import numpy as np
import pytest

from tvdpm.ensemble import UrnEnsemble, batch_partition_distribution
from tvdpm.kernels import GaussianAR1, GaussianKnownVar, StaticKernel
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

from .oracles import ReferenceUrnEnsemble, counts_of, reference_batch_partition_distribution, tv

POLICIES = {
    "uniform": UniformDeletion(0.7),
    "size_biased": SizeBiasedDeletion(),
    "size_biased_2": SizeBiasedDeletion(2),
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


def test_size_biased_count_two_removes_two_boxes(rng):
    # one 2-draw batch makes at most two boxes, so a count-2 deletion empties
    # every urn: each pick reads the counts the previous pick left
    policy = SizeBiasedDeletion(2)
    ens = UrnEnsemble(2_000, 1.0, policy)
    for _ in range(2):
        ens.step(2, rng)
    assert (ens._agg.sum(axis=1) == 2).all()
    for _ in range(200):
        state = UrnState.for_policy(1.0, policy)
        for _ in range(2):
            state, _ = step(state, policy, 2, rng)
        assert state.total_mass == 2


def test_mass_without_deletion(rng):
    ens = UrnEnsemble(500, 2.0, UniformDeletion(1.0))
    for t in range(1, 6):
        ens.step(3, rng)
        assert (ens._agg.sum(axis=1) == 3 * t).all()


def test_window_mass(rng):
    ens = UrnEnsemble(500, 1.0, SlidingWindow(2))
    for t in range(1, 9):
        ens.step(3, rng)
        assert (ens._agg.sum(axis=1) == 3 * min(t, 3)).all()


def test_partition_keys_sum_to_one(rng):
    ens = UrnEnsemble(2_000, 1.5, UniformDeletion(0.5))
    ids = ens.step(5, rng)
    dist = batch_partition_distribution(ids)
    assert sum(dist.values()) == pytest.approx(1.0)
    assert all(sum(k) == 5 for k in dist)


@pytest.mark.parametrize("n", [1, 5, 8])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_partition_codes_match_tuple_tally(name, n, rng):
    ens = UrnEnsemble(3_000, 1.3, POLICIES[name])
    for _ in range(3):
        ids = ens.step(n, rng)
    dist = batch_partition_distribution(ids)
    assert dist == reference_batch_partition_distribution(ids)
    if n > 1:
        # negative control: the oracle sees one replica's partition change
        ids[0] = ids[0, 0] if len(set(ids[0])) > 1 else np.arange(n)
        assert dist != reference_batch_partition_distribution(ids)


def test_partition_codes_refuse_overflow():
    # a 16-draw row's base-17 code can pass 2**63
    with pytest.raises(ValueError, match="overflow"):
        batch_partition_distribution(np.zeros((2, 16), dtype=np.int64))


def test_given_boxes_keep_their_columns(rng):
    # a 20-draw batch is wider than the 13 columns left free, so the layout
    # grows; the given boxes, out of size order, stay in columns 0..2
    given = np.array([1, 3, 2])
    ens = UrnEnsemble.from_counts(400, 1.5, UniformDeletion(1.0), given)
    assert ens.columns - len(given) < 20
    ids = ens.allocate(20, rng)
    assert ens.columns >= 23
    joined = np.stack([(ids == c).sum(axis=1) for c in range(len(given))], axis=1)
    np.testing.assert_array_equal(ens.counts[:, :3], given + joined)
    assert (ens.counts.sum(axis=1) == given.sum() + 20).all()
    with pytest.raises(ValueError):
        ens.counts[0, 0] = 0


def test_from_counts_rejects():
    with pytest.raises(ValueError, match="positive"):
        UrnEnsemble.from_counts(10, 1.0, UniformDeletion(0.5), (2, 0))
    with pytest.raises(ValueError, match="sliding window"):
        UrnEnsemble.from_counts(10, 1.0, SlidingWindow(2), (2, 1))


def test_step_is_delete_then_allocate():
    # without a kernel a step is exactly its two phases
    policy = POLICIES["compose"]
    a = UrnEnsemble.from_counts(300, 1.2, policy, (4, 2))
    b = UrnEnsemble.from_counts(300, 1.2, policy, (4, 2))
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        ids = a.step(3, rng_a)
        b.delete(rng_b)
        np.testing.assert_array_equal(ids, b.allocate(3, rng_b))
    np.testing.assert_array_equal(a.counts, b.counts)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_max_window():
    assert policy_window(UniformDeletion(0.5)) == 0
    assert policy_window(MixturePolicy(0.5, SlidingWindow(3), UniformDeletion(1.0))) == 3
    assert policy_window(ComposePolicy([SlidingWindow(2), SizeBiasedDeletion()])) == 2


def test_rho_walk_rejected():
    # the walk value belongs to a filter particle; replicas have none
    with pytest.raises(ValueError, match="smc only"):
        UrnEnsemble(10, 1.0, MixturePolicy(0.5, UniformDeletion(None), SizeBiasedDeletion()))


def test_predictive_mean_single_box(rng):
    # after one n=1 step the predictive mean is u/(1+theta) per replica
    ens = UrnEnsemble(200, 3.0, UniformDeletion(1.0), kernel=StaticKernel())
    ens.step(1, rng)
    locs = ens._loc[np.arange(200), 0]
    assert ens.predictive_mean() == pytest.approx(locs / 4.0)


def test_column_growth_under_pressure(rng):
    # a batch wider than the 16 initial columns must transparently grow, and
    # later batches compact into the grown layout
    ens = UrnEnsemble(50, 5.0, UniformDeletion(0.2))
    assert ens.columns == 16
    ens.step(20, rng)
    assert ens.columns >= 20 and (ens._agg.sum(axis=1) == 20).all()
    for _ in range(30):
        ens.step(6, rng)
    assert (ens._agg.sum(axis=1) >= 6).all()


@pytest.mark.parametrize("R", [0, -1])
def test_no_replicas_rejected(R):
    with pytest.raises(ValueError, match="n_replicates"):
        UrnEnsemble(R, 1.0, UniformDeletion(0.5))


@pytest.mark.parametrize("n", [0, -1])
def test_empty_batch_rejected(n, rng):
    # as urn.allocate_batch: a step without draws is an error, not a no-op
    ens = UrnEnsemble(10, 1.0, UniformDeletion(0.5))
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n must be >= 1"):
        ens.step(n, rng)
    assert ens.time == 0 and rng.bit_generator.state == state


# -- pinned against the replica bank it replaced -----------------------------

REFERENCE_POLICIES = {
    "uniform-0": UniformDeletion(0.0),
    "uniform-0.5": UniformDeletion(0.5),
    "uniform-1": UniformDeletion(1.0),
    "size-biased-1": SizeBiasedDeletion(1),
    "size-biased-2": SizeBiasedDeletion(2),
    "mixture": MixturePolicy(0.6, UniformDeletion(0.7), SizeBiasedDeletion()),
    "compose": ComposePolicy([UniformDeletion(0.8), SizeBiasedDeletion()]),
    "window-1": SlidingWindow(1),
    "window-3": SlidingWindow(3),
    "window-1+uniform": ComposePolicy([SlidingWindow(1), UniformDeletion(0.6)]),
    "uniform+window-3": ComposePolicy([UniformDeletion(0.6), SlidingWindow(3)]),
}
REFERENCE_SIZES = [(R, n) for R in (1, 50, 3000) for n in (1, 5, 20)]
REFERENCE_STEPS = 10


def assert_steps_equal_reference(R, n, theta, policy, seed, kernel=None):
    """Step the ensemble and the reference side by side from equally seeded
    generators; after every step the draws, the arrays and the generator
    state must be equal.  The reference moves its locations by its own
    inline AR(1) step with the kernel's phi."""
    fast = UrnEnsemble(R, theta, policy, kernel=kernel)
    ref = ReferenceUrnEnsemble(
        R, theta, policy, track_locations=kernel is not None, kernel_phi=getattr(kernel, "phi", None)
    )
    fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(REFERENCE_STEPS):
        np.testing.assert_array_equal(fast.step(n, fast_rng), ref.step(n, ref_rng))
        assert (fast.time, fast.columns) == (ref.time, ref.columns)
        assert len(fast._slots) == len(ref._slots)
        for a, b in zip(fast._slots, ref._slots):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(fast._agg, ref._agg)
        if ref._loc is None:
            assert fast._loc is None
        else:
            np.testing.assert_array_equal(fast._loc, ref._loc)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("R,n", REFERENCE_SIZES)
@pytest.mark.parametrize("name", sorted(REFERENCE_POLICIES))
def test_steps_equal_reference(name, R, n):
    # n = 20 is wider than the 16 initial columns: growth, then compaction
    assert_steps_equal_reference(R, n, 1.3, REFERENCE_POLICIES[name], seed=R + n)


@pytest.mark.parametrize("R,n", REFERENCE_SIZES)
@pytest.mark.parametrize("phi", [None, 0.8, -1.0])
def test_locations_equal_reference(phi, R, n):
    policy = MixturePolicy(0.7, UniformDeletion(0.9), SizeBiasedDeletion())
    kernel = StaticKernel() if phi is None else GaussianAR1(phi, GaussianKnownVar(0.0, 1.0))
    assert_steps_equal_reference(R, n, 3.0, policy, seed=R + n, kernel=kernel)
