import math
import time

import numpy as np
import pytest

from tvdpm import diagnostics
from tvdpm.diagnostics import (
    BrokenNoiseKernel,
    CorrelationCurve,
    esf_distribution,
    MIN_KS_CHAINS,
    esf_marginal_test,
    expected_count_check,
    kernel_stationarity_test,
    kolmogorov_sf,
    ks_statistic,
    mean_correlation_curve,
    run_validation_suite,
    tv_distance,
)
from tvdpm.ensemble import UrnEnsemble
from tvdpm.kernels import GaussianAR1, GaussianKnownVar, StaticKernel
from tvdpm.urn import (
    ComposePolicy,
    MixturePolicy,
    SizeBiasedDeletion,
    SlidingWindow,
    UniformDeletion,
)

from . import oracles

ALL_POLICIES = {
    "uniform": UniformDeletion(0.7),
    "size_biased": SizeBiasedDeletion(),
    "mixture": MixturePolicy(0.98, UniformDeletion(0.7), SizeBiasedDeletion()),
    "compose": ComposePolicy([UniformDeletion(0.7), SizeBiasedDeletion()]),
    "sliding_window": SlidingWindow(2),
}


class TestEsfMarginalGrid:
    """The stationarity proposition across every policy variant, both urn
    sizes, and an early and a late check time, at full Monte Carlo size."""

    @pytest.mark.parametrize("policy_name", sorted(ALL_POLICIES))
    @pytest.mark.parametrize("n,theta", [(4, 1.0), (5, 1.5)])
    @pytest.mark.parametrize("t_check", [5, 20])
    def test_partition_law_is_esf(self, policy_name, n, theta, t_check):
        import zlib

        seed = zlib.crc32(f"{policy_name}/{n}/{t_check}".encode())
        rng = np.random.default_rng(seed)
        tv = esf_marginal_test(ALL_POLICIES[policy_name], n, theta, t_check, 200_000, rng).tv
        assert tv < 0.02


class TestEsfMarginal:
    def test_full_deletion_matches_fresh_urn(self, rng):
        tv = esf_marginal_test(UniformDeletion(0.0), 4, 1.0, 3, 20_000, rng).tv
        assert tv < 0.03

    def test_window_policy(self, rng):
        tv = esf_marginal_test(SlidingWindow(2), 4, 1.0, 10, 20_000, rng).tv
        assert tv < 0.03

    @pytest.mark.parametrize("t_check", [0, -1])
    def test_t_check_below_one_rejected(self, t_check, rng):
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="t_check must be at least 1"):
            esf_marginal_test(UniformDeletion(0.5), 4, 1.0, t_check, 100, rng)
        assert rng.bit_generator.state == state

    def test_report_holds_the_law(self, rng):
        rep = esf_marginal_test(UniformDeletion(0.7), 4, 1.0, 3, 2_000, rng)
        assert sum(rep.law.values()) == pytest.approx(1.0)
        assert rep.tv == tv_distance(rep.law, esf_distribution(4, 1.0))

    def test_capacity_guard(self, rng):
        with pytest.raises(ValueError):
            esf_marginal_test(UniformDeletion(0.5), 9, 1.0, 5, 100, rng)

    def test_negative_control_wrong_theta(self, rng):
        # empirical law simulated at theta=1.5 must not match theta=3
        emp = esf_marginal_test(UniformDeletion(0.7), 5, 1.5, 10, 20_000, rng).law
        assert tv_distance(emp, esf_distribution(5, 3.0)) > 0.1


class TestExpectedCounts:
    def test_closed_form_values(self, rng):
        rep = expected_count_check(1.0, 0.5, 1, (2, 1), 100_000, rng)
        assert rep.box_expected[0] == pytest.approx(0.5 * (2 + 2 / 4))
        assert rep.box_expected[1] == pytest.approx(0.5 * (1 + 1 / 4))
        assert rep.new_mass_expected == pytest.approx(0.5 * 1 * 1 / 4)
        assert rep.max_abs_z < 3.0

    def test_rho_zero_everything_dies(self, rng):
        rep = expected_count_check(1.0, 0.0, 2, (2, 1), 2_000, rng)
        assert rep.box_means == [0.0, 0.0] and rep.new_mass_mean == 0.0
        assert rep.box_expected == [0.0, 0.0] and rep.new_mass_expected == 0.0

    def test_new_mass_expectation_decreasing_in_total(self, rng):
        values = [
            expected_count_check(1.0, 1.0, 1, counts, 10, rng).new_mass_expected
            for counts in [(1,), (2, 1), (4, 3), (10, 10)]
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rho_validated(self, rng):
        with pytest.raises(ValueError):
            expected_count_check(1.0, 1.5, 1, (2,), 10, rng)

    def test_empty_urn_start(self, rng):
        # an empty urn is a valid start: every unit opens a new box
        rep = expected_count_check(1.0, 0.5, 3, (), 5_000, rng)
        assert rep.box_means == [] and rep.box_z == []
        assert rep.new_mass_expected == pytest.approx(0.5 * 3)
        assert rep.max_abs_z == abs(rep.new_mass_z) < 4.0

    @pytest.mark.parametrize(
        "n,n_mc,match", [(1, 0, "n_mc"), (1, 1, "n_mc"), (0, 100, "n must"), (-1, 100, "n must")]
    )
    def test_sizes_checked_before_any_draw(self, rng, n, n_mc, match):
        # one replica has no standard error (its z would be inf), none
        # divides by zero; a batch without draws is no batch
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            expected_count_check(1.0, 0.5, n, (2, 1), n_mc, rng)
        assert rng.bit_generator.state == state

    MOMENT_CASES = [((2, 1), 1, 0.3), ((2, 1), 1, 0.5), ((2, 1), 1, 0.9), ((3, 1, 1), 2, 0.5)]

    @staticmethod
    def _routes_agree(rep, means, ses):
        fast_means = np.array(rep.box_means + [rep.new_mass_mean])
        fast_ses = np.array(rep.box_se + [rep.new_mass_se])
        return bool((np.abs(fast_means - means) < 4.0 * np.hypot(fast_ses, ses)).all())

    @pytest.mark.parametrize("counts,n,rho", MOMENT_CASES)
    def test_matches_object_urn_oracle(self, counts, n, rho):
        # the array engine against the object-urn loop it replaced, and the
        # same comparison against the loop at a wrong rho (negative control)
        seed = 1000 + 10 * n + int(10 * rho)
        rep = expected_count_check(1.0, rho, n, counts, 20_000, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        means, ses = oracles.object_urn_moments(1.0, rho, n, counts, 20_000, rng)
        assert self._routes_agree(rep, means, ses)
        wrong_means, wrong_ses = oracles.object_urn_moments(1.0, rho + 0.1, n, counts, 20_000, rng)
        assert not self._routes_agree(rep, wrong_means, wrong_ses)


class TestCorrelationCurve:
    def test_tau_zero_is_one(self, rng):
        curve = mean_correlation_curve(3.0, 0.9, [0, 1], 2_000, 50, rng)
        assert curve.correlations[0] == pytest.approx(1.0)

    def test_rho_zero_uncorrelated(self, rng):
        curve = mean_correlation_curve(3.0, 0.0, [0, 1, 3], 3_000, 50, rng)
        for c in curve.correlations[1:]:
            assert abs(c) < 3 / math.sqrt(3_000)

    def test_ordering_smoke(self, rng):
        hi = mean_correlation_curve(3.0, 0.99, [1, 5], 3_000, 100, rng)
        lo = mean_correlation_curve(3.0, 0.9, [1, 5], 3_000, 100, rng)
        assert all(h > l for h, l in zip(hi.correlations, lo.correlations))

    def test_one_replica_rejected(self, rng):
        # a correlation over a single replica is nan
        with pytest.raises(ValueError, match="n_mc"):
            mean_correlation_curve(3.0, 0.9, [0, 1], 1, 5, rng)

    def test_zero_burn_in_rejected(self, rng):
        # every urn is empty at t = 0, so every predictive mean is 0 and the
        # correlation is undefined; nothing is drawn
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="burn_in must be at least 1"):
            mean_correlation_curve(3.0, 0.9, [0, 1], 100, 0, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("phi", [1.5, -1.01])
    def test_kernel_phi_outside_unit_interval_rejected(self, phi, rng):
        # sqrt(1 - phi^2) of the AR(1) step would be NaN; nothing is drawn
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"phi must lie in \[-1, 1\]"):
            mean_correlation_curve(3.0, 0.9, [0, 1], 100, 5, rng, kernel_phi=phi)
        assert rng.bit_generator.state == state

    def test_csv_rows(self):
        curve = CorrelationCurve([0, 1], [1.0, 0.8], 3.0, 0.9, 100, 10)
        rows = list(curve.csv_rows())
        assert rows[1] == {"tau": 1, "correlation": 0.8, "rho": 0.9, "theta": 3.0}


class TestKernelStationarity:
    def test_static_passes(self, rng):
        base = GaussianKnownVar(0.0, 1.0)
        rep = kernel_stationarity_test(StaticKernel(), base, 10, 3_000, rng)
        assert rep.pvalue > 0.01

    def test_ar1_passes(self, rng):
        base = GaussianKnownVar(0.0, 1.0)
        rep = kernel_stationarity_test(GaussianAR1(0.9, base), base, 60, 3_000, rng)
        assert rep.pvalue > 0.01

    def test_broken_noise_fails(self, rng):
        base = GaussianKnownVar(0.0, 1.0)
        rep = kernel_stationarity_test(BrokenNoiseKernel(0.9, base), base, 60, 3_000, rng)
        assert rep.pvalue < 0.01

    def test_scalar_base_required(self, rng):
        from tvdpm.kernels import SymmetricDirichlet

        with pytest.raises(ValueError):
            kernel_stationarity_test(StaticKernel(), SymmetricDirichlet(0.5, 3), 5, 10, rng)

    @pytest.mark.parametrize("n_chains", [MIN_KS_CHAINS - 1, 5])
    def test_chain_floor_checked_before_any_draw(self, rng, n_chains):
        base = GaussianKnownVar(0.0, 1.0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"at least {MIN_KS_CHAINS} chains"):
            kernel_stationarity_test(GaussianAR1(0.9, base), base, 5, n_chains, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "kernel", [StaticKernel(), BrokenNoiseKernel(0.9, GaussianKnownVar(0.5, 2.0))]
    )
    def test_report_matches_scipy_on_the_same_draws(self, kernel):
        base = GaussianKnownVar(0.5, 2.0)
        rep = kernel_stationarity_test(kernel, base, 3, 2_000, np.random.default_rng(12))
        rng = np.random.default_rng(12)
        values = rng.normal(base.mu0, base.sigma0, 2_000)
        for _ in range(3):
            values = kernel.transition(values, rng)
        statistic, pvalue = oracles.reference_ks_test(values, base.mu0, base.sigma0)
        assert abs(rep.statistic - statistic) <= 1e-15
        assert rep.pvalue == pytest.approx(pvalue, rel=1e-10, abs=1e-7)


class TestKolmogorov:
    """The in-package KS statistic and two-sided tail, pinned against
    scipy's `kstest` and `kstwo.sf` (tests/oracles.py)."""

    @pytest.mark.parametrize("scale", [1.0, 1.05, 1.3])
    @pytest.mark.parametrize("n", [2_000, 3_000, 10_000])
    def test_statistic_matches_kstest(self, n, scale):
        values = np.random.default_rng(n).normal(0.0, scale, n)
        statistic, _ = oracles.reference_ks_test(values, 0.0, 1.0)
        assert abs(ks_statistic(values, 0.0, 1.0) - statistic) <= 1e-15

    @pytest.mark.parametrize("n", [1_000, 2_000, 3_000, 10_000])
    def test_tail_matches_kstwo(self, n):
        # above n·d² = 2.2 both sides sum the same exact series, so they
        # agree to rounding; below it the Pelz–Good series is within 1e-7
        for z in np.linspace(0.05, 9.0, 300):
            d = float(z / math.sqrt(n))
            ours, ref = kolmogorov_sf(n, d), oracles.reference_kolmogorov_sf(n, d)
            assert abs(ours - ref) <= 1e-7, (n, d)
            if n * d * d >= 2.2:
                assert abs(ours - ref) <= 1e-10 * ref, (n, d)

    @pytest.mark.parametrize(
        "n,d,expected",
        [
            (1_000, 0.0, 1.0),
            (1_000, -0.1, 1.0),
            (1_000, 1.0, 0.0),
            (1_000, 1.5, 0.0),
            (1_000, 0.5 / 1_000, 1.0),
            (1_000, 0.3 / 1_000, 1.0),
            (1_000, 0.62, 0.0),
            (2_000, 0.44, 0.0),
        ],
        ids=[
            "d-zero",
            "d-negative",
            "d-one",
            "d-above-one",
            "t-half",
            "t-below-half",
            "nd2-370-d-above-half",
            "nd2-370",
        ],
    )
    def test_closed_branches(self, n, d, expected):
        assert kolmogorov_sf(n, d) == expected
        if 0.0 < d < 1.0:
            assert oracles.reference_kolmogorov_sf(n, d) == pytest.approx(expected, abs=1e-300)

    @pytest.mark.parametrize("n", [5, 1_000])
    @pytest.mark.parametrize("t", [0.51, 0.75, 1.0])
    def test_ruben_gambino_small_t(self, n, t):
        # 1 - n!/n^n (2t - 1)^n, exact for every n
        d = t / n
        expected = 1.0 - math.factorial(n) / n**n * (2.0 * t - 1.0) ** n
        tail = kolmogorov_sf(n, d)
        assert tail == pytest.approx(expected, rel=1e-12)
        assert tail == pytest.approx(oracles.reference_kolmogorov_sf(n, d), rel=1e-12)

    @pytest.mark.parametrize("n,d", [(5, 0.8), (5, 0.9), (1_000, 0.999), (1_000, 0.9995)])
    def test_ruben_gambino_large_t(self, n, d):
        # n·d >= n - 1: 2(1 - d)^n, exact for every n
        tail = kolmogorov_sf(n, d)
        assert tail == pytest.approx(2.0 * (1.0 - d) ** n, rel=1e-12)
        assert tail == pytest.approx(oracles.reference_kolmogorov_sf(n, d), rel=1e-12)


@pytest.fixture(scope="class")
def quick_suite():
    """One quick-suite run at the default seed, recording every ensemble it
    builds (replicas, theta) and every ESF report it reads."""
    built, esf_reports = [], []
    init, esf = UrnEnsemble.__init__, diagnostics.esf_marginal_test

    def counting_init(self, n_replicates, theta, *args, **kwargs):
        built.append((n_replicates, theta))
        init(self, n_replicates, theta, *args, **kwargs)

    def recording_esf(*args, **kwargs):
        esf_reports.append(esf(*args, **kwargs))
        return esf_reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UrnEnsemble, "__init__", counting_init)
        mp.setattr(diagnostics, "esf_marginal_test", recording_esf)
        start = time.time()
        report = run_validation_suite(20240901, quick=True)
        elapsed = time.time() - start
    return report, elapsed, built, esf_reports


class TestValidationSuite:
    def test_quick_suite_passes_within_budget(self, quick_suite):
        report, elapsed, _, _ = quick_suite
        assert report["passed"], [c for c in report["checks"] if not c["passed"]]
        assert elapsed < 60.0
        names = {c["name"] for c in report["checks"]}
        assert any("negative-control" in n for n in names)

    def test_quick_suite_simulates_each_esf_law_once(self, quick_suite):
        # five ESF ensembles at theta = 1.5, one per policy: the wrong-theta
        # control builds none of its own
        report, _, built, esf_reports = quick_suite
        assert len(report["checks"]) == 15
        assert built.count((20_000, 1.5)) == 5 == len(esf_reports)
        assert [c["value"] for c in report["checks"][:5]] == [r.tv for r in esf_reports]

    def test_wrong_theta_control_reads_the_uniform_law(self, quick_suite):
        report, _, _, esf_reports = quick_suite
        checks = {c["name"]: c for c in report["checks"]}
        control = checks["esf-marginal/negative-control-wrong-theta"]["value"]
        assert control == tv_distance(esf_reports[0].law, esf_distribution(5, 3.0))
