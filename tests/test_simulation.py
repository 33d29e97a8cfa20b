"""Simulation tests: covariance factor, data generation, replication driver."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from threshsel import (
    BetaMinWarning,
    EstimatorConfig,
    NotPositiveDefiniteError,
    PenaltySpec,
    ScenarioSpec,
    derive_seed,
    equicorrelated_factor,
    generate_dataset,
    run_replication,
    run_scenario,
    scenario_s1,
    scenario_s2,
)

PAIRS = (PenaltySpec(0.5, 0.25), PenaltySpec(0.75, 0.4), PenaltySpec(1.0, 0.5))


class TestEquicorrelatedFactor:
    def test_uncorrelated_is_identity(self):
        np.testing.assert_allclose(equicorrelated_factor(2, 0.0), np.eye(2), atol=1e-14)

    def test_reconstructs_sigma_p2(self):
        factor = equicorrelated_factor(2, 0.2)
        np.testing.assert_allclose(
            factor @ factor.T, [[1.0, 0.2], [0.2, 1.0]], atol=1e-12
        )

    def test_reconstructs_sigma_p50(self):
        factor = equicorrelated_factor(50, 0.2)
        sigma = np.full((50, 50), 0.2)
        np.fill_diagonal(sigma, 1.0)
        assert np.max(np.abs(factor @ factor.T - sigma)) <= 1e-10

    def test_rho_out_of_range(self):
        with pytest.raises(NotPositiveDefiniteError):
            equicorrelated_factor(5, -0.3)
        with pytest.raises(NotPositiveDefiniteError):
            equicorrelated_factor(5, 1.0)


class TestScenarioSpecs:
    def test_s1_ladder(self):
        spec = scenario_s1(100, 20)
        np.testing.assert_allclose(spec.beta0[:10], 0.2 * np.arange(1, 11))
        assert np.all(spec.beta0[10:] == 0.0)
        assert spec.true_irrelevant == frozenset(range(10, 20))
        assert spec.rho == 0.2 and spec.noise_sd == 1.0

    def test_s2_ladder(self):
        spec = scenario_s2(100, 50)
        np.testing.assert_allclose(spec.beta0[:10], 0.05 * np.arange(1, 11))
        assert len(spec.true_irrelevant) == 40

    def test_all_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n=10, p=3, beta0=np.zeros(3))

    def test_rho_bound_checked(self):
        with pytest.raises(NotPositiveDefiniteError):
            ScenarioSpec(n=10, p=5, beta0=np.ones(5), rho=-0.5)


class TestGenerateDataset:
    def test_seed_determinism(self):
        spec = scenario_s1(200, 20)
        a, irr_a = generate_dataset(spec, seed=77)
        b, irr_b = generate_dataset(spec, seed=77)
        assert np.array_equal(a.design, b.design)
        assert np.array_equal(a.response, b.response)
        assert irr_a == irr_b
        c, _ = generate_dataset(spec, seed=78)
        assert not np.array_equal(a.design, c.design)

    def test_moments_at_scale(self):
        spec = scenario_s1(10000, 20)
        data, _ = generate_dataset(spec, seed=31)
        means = data.design.mean(axis=0)
        variances = data.design.var(axis=0)
        assert np.max(np.abs(means)) < 0.05
        assert np.max(np.abs(variances - 1.0)) < 0.05
        corr01 = np.corrcoef(data.design[:, 0], data.design[:, 1])[0, 1]
        corr57 = np.corrcoef(data.design[:, 5], data.design[:, 7])[0, 1]
        assert corr01 == pytest.approx(0.2, abs=0.03)
        assert corr57 == pytest.approx(0.2, abs=0.03)

    def test_gaussian_sampler_ks(self):
        spec = ScenarioSpec(n=10000, p=2, beta0=np.array([1.0, 0.0]), rho=0.0)
        data, _ = generate_dataset(spec, seed=13)
        critical_1pct = 1.628 / math.sqrt(10000)
        for j in range(2):
            statistic = stats.kstest(data.design[:, j], "norm").statistic
            assert statistic < critical_1pct

    def test_response_linear_model(self):
        spec = ScenarioSpec(n=500, p=3, beta0=np.array([1.0, -2.0, 0.0]),
                            rho=0.0, noise_sd=1e-9)
        data, irr = generate_dataset(spec, seed=5)
        np.testing.assert_allclose(
            data.response, data.design @ spec.beta0, atol=1e-6
        )
        assert irr == frozenset({2})


class TestDeriveSeed:
    def test_pure_and_distinct(self):
        first = [derive_seed(42, i) for i in range(50)]
        second = [derive_seed(42, i) for i in range(50)]
        assert first == second
        assert len(set(first)) == 50
        assert derive_seed(43, 0) != derive_seed(42, 0)


class TestRunReplication:
    def test_strong_signal_outcome(self):
        (outcome,) = run_replication(
            scenario_s1(1000, 20),
            EstimatorConfig(method="ols"),
            [PenaltySpec(0.75, 0.4)],
            seed=derive_seed(7, 0),
        )
        assert outcome.fnr <= 0.2
        assert outcome.tnr >= 0.8
        assert outcome.wall_time > 0
        assert all(j in range(20) for j in outcome.selected_set)

    def test_failure_names_seed(self):
        bad = ScenarioSpec(n=3, p=2, beta0=np.array([1.0, 0.0]), rho=0.0)
        config = EstimatorConfig(method="ridge", ridge_lambda=-1.0)
        with pytest.raises(RuntimeError, match="seed 99"):
            run_replication(bad, config, [PenaltySpec(1.0, 0.5)], seed=99)


class TestEstimatorConfig:
    def test_lambda_token_resolution(self):
        config = EstimatorConfig(method="ridge", ridge_lambda="sqrt_n")
        assert config.resolve_lambda(100) == pytest.approx(10.0)
        numeric = EstimatorConfig(method="ridge", ridge_lambda=2.0)
        assert numeric.resolve_lambda(100) == 2.0

    def test_fit_dispatch(self):
        data, _ = generate_dataset(scenario_s1(200, 20), seed=1)
        for method, tag in [("ols", "ols"), ("ridge", "ridge"), ("ar", "adaptive_ridge")]:
            fit = EstimatorConfig(method=method).fit(data)
            assert fit.method == tag
            assert fit.p == 20

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            EstimatorConfig(method="lasso")


class TestRunScenario:
    def test_single_replication_matches_outcome(self):
        scenario = scenario_s1(300, 20)
        estimator = EstimatorConfig()
        penalties = [PenaltySpec(1.0, 0.5)]
        (report,) = run_scenario(scenario, estimator, penalties, replications=1, base_seed=4)
        (outcome,) = run_replication(scenario, estimator, penalties, derive_seed(4, 0))
        assert report.mean_delta_hat == outcome.delta_hat
        assert report.mean_fnr_pct == 100 * outcome.fnr
        assert report.mean_tnr_pct == 100 * outcome.tnr

    def test_base_seed_determinism(self):
        scenario = scenario_s2(150, 20)
        args = (scenario, EstimatorConfig(), [PenaltySpec(0.5, 0.25)])
        (one,) = run_scenario(*args, replications=8, base_seed=11)
        (two,) = run_scenario(*args, replications=8, base_seed=11)
        assert one.mean_delta_hat == two.mean_delta_hat
        assert one.mean_fnr_pct == two.mean_fnr_pct
        assert one.mean_tnr_pct == two.mean_tnr_pct
        assert [o.seed for o in one.outcomes] == [o.seed for o in two.outcomes]

    def test_parallel_equals_serial(self):
        scenario = scenario_s1(200, 20)
        args = (scenario, EstimatorConfig(), [PenaltySpec(0.75, 0.4)])
        (serial,) = run_scenario(*args, replications=12, base_seed=3, workers=1)
        (parallel,) = run_scenario(*args, replications=12, base_seed=3, workers=4)
        assert serial.mean_delta_hat == parallel.mean_delta_hat
        assert serial.mean_fnr_pct == parallel.mean_fnr_pct
        assert serial.mean_tnr_pct == parallel.mean_tnr_pct
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.seed == b.seed and a.delta_hat == b.delta_hat

    def test_means_match_stored_outcomes(self):
        (report,) = run_scenario(
            scenario_s1(150, 20), EstimatorConfig(), [PenaltySpec(1.0, 0.5)],
            replications=10, base_seed=21,
        )
        assert report.mean_delta_hat == pytest.approx(
            np.mean([o.delta_hat for o in report.outcomes]), abs=1e-12
        )
        assert report.mean_fnr_pct == pytest.approx(
            100 * np.mean([o.fnr for o in report.outcomes]), abs=1e-12
        )
        assert report.mean_tnr_pct == pytest.approx(
            100 * np.mean([o.tnr for o in report.outcomes]), abs=1e-12
        )

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(
                scenario_s1(100, 20), EstimatorConfig(), [PenaltySpec(1.0, 0.5)],
                replications=0, base_seed=1,
            )

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="penalty pair"):
            run_scenario(
                scenario_s1(100, 20), EstimatorConfig(), [],
                replications=2, base_seed=1,
            )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_pairs_share_replications(self, workers):
        # All pairs in one call give what one call per pair gives.
        args = (scenario_s1(200, 20), EstimatorConfig())
        joint = run_scenario(*args, PAIRS, replications=9, base_seed=5, workers=workers)
        assert [r.penalty for r in joint] == list(PAIRS)
        for pair, report in zip(PAIRS, joint):
            (single,) = run_scenario(*args, [pair], replications=9, base_seed=5,
                                     workers=workers)
            assert report.to_dict() == single.to_dict()
            assert [replace(o, wall_time=0.0) for o in report.outcomes] == [
                replace(o, wall_time=0.0) for o in single.outcomes
            ]

    def test_one_beta_min_warning_per_replication(self):
        # A signal of 1e-9 never clears the finest threshold.
        scenario = ScenarioSpec(n=50, p=3, beta0=np.array([1e-9, 1.0, 0.0]), rho=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_scenario(scenario, EstimatorConfig(), PAIRS, replications=4, base_seed=2)
        assert [w.category for w in caught] == [BetaMinWarning] * 4
