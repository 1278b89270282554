import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdpm.partitions import counts_of, enumerate_partitions, esf_log_prob, polya_urn_sample
from tvdpm.urn import (
    ComposePolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
    UrnState,
    allocate_batch,
    apply_policy,
    delete_size_biased,
    delete_uniform,
    policy_window,
    run_trajectory,
    step,
)

from .oracles import binomial_then_uniform_removal, reference_delete_uniform, tv


def state_with(boxes, theta=1.0, retain_ages=False, time=0):
    st_ = UrnState.empty(theta, retain_ages=retain_ages)
    for lab, count in boxes.items():
        st_.boxes[lab] = count
        if st_.births is not None:
            st_.births[lab] = {time: count}
    st_.next_label = max(boxes, default=0) + 1
    st_.time = time
    return st_


class TestDeleteUniform:
    def test_rho_one_identity(self, rng):
        s = state_with({1: 4, 2: 2})
        out = delete_uniform(s, 1.0, rng)
        assert out.boxes == s.boxes and out.next_label == s.next_label

    def test_rho_zero_empties(self, rng):
        out = delete_uniform(state_with({1: 4, 2: 2}), 0.0, rng)
        assert out.boxes == {}

    def test_rho_out_of_range(self, rng):
        with pytest.raises(ValueError):
            delete_uniform(state_with({1: 1}), 1.5, rng)

    def test_expected_surviving_mass(self, rng):
        # E[survivors] = 0.5 * 3 = 1.5 (binomial expectation oracle)
        s = state_with({1: 2, 2: 1})
        n_mc = 100_000
        total = 0
        total_sq = 0
        for _ in range(n_mc):
            out = delete_uniform(s, 0.5, rng)
            m = out.total_mass
            total += m
            total_sq += m * m
        mean = total / n_mc
        se = math.sqrt((total_sq / n_mc - mean**2) / n_mc)
        assert abs(mean - 1.5) < 3 * se

    def test_matches_binomial_then_uniform_route(self, rng):
        # distributional equivalence of the two deletion formulations
        sizes = (3, 2)
        n_mc = 100_000
        s = state_with({1: 3, 2: 2})
        ours = Counter()
        other = Counter()
        for _ in range(n_mc):
            out = delete_uniform(s, 0.6, rng)
            ours[(out.boxes.get(1, 0), out.boxes.get(2, 0))] += 1
            other[binomial_then_uniform_removal(sizes, 0.6, rng)] += 1
        p = {k: v / n_mc for k, v in ours.items()}
        q = {k: v / n_mc for k, v in other.items()}
        assert tv(p, q) < 0.01

    def test_scalar_draws_equal_array_reference(self):
        # the per-box draws consume the stream exactly as the array draw
        # they replaced: same states and the same generator state after
        # every call
        gen = np.random.default_rng(31)
        fast, ref = np.random.default_rng(32), np.random.default_rng(32)
        for _ in range(300):
            labels = sorted(gen.choice(40, size=int(gen.integers(0, 9)), replace=False) + 1)
            boxes = {int(lab): int(gen.integers(1, 60)) for lab in labels}
            s = state_with(boxes, theta=float(gen.uniform(0.5, 4.0)), time=int(gen.integers(0, 9)))
            s.next_label += int(gen.integers(0, 3))
            for rho in (0.0, 0.3, 0.9, 1.0):
                got = delete_uniform(s, rho, fast)
                want = reference_delete_uniform(s, rho, ref)
                assert got == want
                assert s.boxes == boxes
                assert fast.bit_generator.state == ref.bit_generator.state

    def test_age_resolved_state_keeps_cells_consistent(self, rng):
        s = state_with({1: 5}, retain_ages=True)
        out = delete_uniform(s, 0.5, rng)
        for lab, count in out.boxes.items():
            assert sum(out.births[lab].values()) == count


class TestDeleteSizeBiased:
    def test_single_box_must_die(self, rng):
        out = delete_size_biased(state_with({7: 3}), rng)
        assert out.boxes == {}

    def test_empty_noop(self, rng):
        out = delete_size_biased(UrnState.empty(1.0), rng)
        assert out.boxes == {}

    def test_exactly_one_fewer_box(self, rng):
        out = delete_size_biased(state_with({1: 3, 2: 1, 3: 2}), rng)
        assert len(out.boxes) == 2

    def test_size_biased_probability(self, rng):
        n_mc = 100_000
        s = state_with({1: 3, 2: 1})
        hits = sum(1 not in delete_size_biased(s, rng).boxes for _ in range(n_mc))
        se = math.sqrt(0.75 * 0.25 / n_mc)
        assert abs(hits / n_mc - 0.75) < 3 * se


class TestApplyPolicy:
    def test_degenerate_mixture_equals_uniform(self, rng):
        s = state_with({1: 3, 2: 2})
        mix = MixturePolicy(1.0, UniformDeletion(0.9), SizeBiasedDeletion())
        n_mc = 20_000
        a = Counter()
        b = Counter()
        for _ in range(n_mc):
            out = apply_policy(s, mix, rng)
            a[(out.boxes.get(1, 0), out.boxes.get(2, 0))] += 1
            out = delete_uniform(s, 0.9, rng)
            b[(out.boxes.get(1, 0), out.boxes.get(2, 0))] += 1
        assert tv({k: v / n_mc for k, v in a.items()}, {k: v / n_mc for k, v in b.items()}) < 0.03

    def test_compose_identity(self, rng):
        s = state_with({1: 3, 2: 2})
        out = apply_policy(s, ComposePolicy([UniformDeletion(1.0), UniformDeletion(1.0)]), rng)
        assert out.boxes == s.boxes

    def test_experiment_policy_constructible(self):
        pol = MixturePolicy(0.98, UniformDeletion(0.7), SizeBiasedDeletion())
        assert pol.alpha == 0.98
        assert policy_window(pol) == 0
        assert policy_window(MixturePolicy(0.5, SlidingWindow(2), UniformDeletion(1.0))) > 0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            MixturePolicy(1.2, UniformDeletion(1.0), SizeBiasedDeletion())


class TestAllocateBatch:
    def test_empty_state_opens_box(self, rng):
        out, batch = allocate_batch(UrnState.empty(2.0), 1, rng)
        assert batch == [1] and out.boxes == {1: 1} and out.next_label == 2 and out.time == 1

    def test_join_probability(self, rng):
        # first draw joins the box w.p. m/(m+theta) = 4/(4+2)
        n_mc = 30_000
        s = state_with({1: 4}, theta=2.0)
        hits = sum(allocate_batch(s, 1, rng)[1][0] == 1 for _ in range(n_mc))
        se = math.sqrt((2 / 3) * (1 / 3) / n_mc)
        assert abs(hits / n_mc - 2 / 3) < 3 * se

    def test_never_deleting_equals_one_big_urn(self, rng):
        # 3 steps of n=2 with rho=1 vs a single Polya urn of 6 draws
        n_mc = 100_000
        pol = UniformDeletion(1.0)
        emp_steps = Counter()
        emp_urn = Counter()
        for _ in range(n_mc):
            s = UrnState.empty(1.0)
            for _ in range(3):
                s, _batch = step(s, pol, 2, rng)
            emp_steps[tuple(sorted(s.boxes.values(), reverse=True))] += 1
            emp_urn[counts_of(polya_urn_sample(6, 1.0, rng)).box_sizes()] += 1
        p = {k: v / n_mc for k, v in emp_steps.items()}
        q = {k: v / n_mc for k, v in emp_urn.items()}
        assert tv(p, q) < 0.02


class TestStep:
    def test_full_deletion_gives_independent_esf_draws(self, rng):
        n_mc = 30_000
        pol = UniformDeletion(0.0)
        emp = Counter()
        for _ in range(n_mc):
            s = UrnState.empty(1.0)
            for _ in range(3):
                s, batch = step(s, pol, 4, rng)
            emp[counts_of(batch).box_sizes()] += 1
        exact = {p.box_sizes(): math.exp(esf_log_prob(p, 1.0)) for p in enumerate_partitions(4)}
        assert tv({k: v / n_mc for k, v in emp.items()}, exact) < 0.02

    def test_esf_marginal_small(self, rng):
        # reduced version of the stationarity proposition; the acceptance
        # suite runs it at full scale through the ensemble
        n_mc = 20_000
        pol = UniformDeletion(0.7)
        emp = Counter()
        for _ in range(n_mc):
            s = UrnState.for_policy(1.5, pol)
            for _ in range(5):
                s, batch = step(s, pol, 5, rng)
            emp[counts_of(batch).box_sizes()] += 1
        exact = {p.box_sizes(): math.exp(esf_log_prob(p, 1.5)) for p in enumerate_partitions(5)}
        assert tv({k: v / n_mc for k, v in emp.items()}, exact) < 0.03

    def test_mass_grows_linearly_without_deletion(self, rng):
        s = UrnState.empty(2.0)
        for t in range(1, 11):
            s, _ = step(s, UniformDeletion(1.0), 3, rng)
            assert s.total_mass == 3 * t

    def test_sliding_window_mass(self, rng):
        s = UrnState.for_policy(1.0, SlidingWindow(2))
        for t in range(1, 9):
            s, _ = step(s, SlidingWindow(2), 3, rng)
            assert s.total_mass == 3 * min(t, 3)
            for lab, cells in s.births.items():
                assert all(b >= s.time - 2 for b in cells)

    def test_sliding_window_needs_ages(self, rng):
        s = UrnState.empty(1.0)
        with pytest.raises(ValueError):
            step(s, SlidingWindow(1), 1, rng)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_no_label_reuse(self, seed):
        rng = np.random.default_rng(seed)
        pol = MixturePolicy(0.6, UniformDeletion(0.4), SizeBiasedDeletion())
        s = UrnState.for_policy(1.0, pol)
        dead: set[int] = set()
        prev_labels: set[int] = set()
        for _ in range(30):
            s, batch = step(s, pol, 3, rng)
            live = set(s.boxes)
            dead |= prev_labels - live
            assert not (live & dead)
            assert set(batch) <= live
            prev_labels = live | prev_labels


class TestTrajectoryDump:
    def test_record_shape(self, rng):
        recs = list(run_trajectory(1.0, UniformDeletion(0.5), 2, 4, rng))
        assert [r["t"] for r in recs] == [1, 2, 3, 4]
        for r in recs:
            assert set(r) == {"t", "boxes", "allocations"}
            assert len(r["allocations"]) == 2
            assert all(isinstance(k, str) for k in r["boxes"])
