"""Thresholding tests: spline pieces, paths, risks, penalties, selection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threshsel.thresholding
from threshsel import (
    AllZeroError,
    CoefficientVector,
    Dataset,
    PenaltySpec,
    ProfileEntry,
    RankDeficientWarning,
    RiskProfile,
    ThresholdPath,
    build_empirical_path,
    dimension_penalty,
    fit_ols,
    metrics_fnr_tnr,
    min_thresholded_risk,
    penalty_value,
    risk_profile,
    scenario_s1,
    generate_dataset,
    interaction_expand,
    least_squares_on_support,
    select_threshold,
    support_at_threshold,
    t_threshold,
    tau_spline,
)

from conftest import make_dataset


def coef(*values):
    return CoefficientVector(np.array(values, dtype=float), method="ols")


class TestTauSpline:
    def test_boundary_values(self):
        assert tau_spline(0.7, 0.7, 0.1) == 0.0
        assert tau_spline(0.75, 0.7, 0.1) == pytest.approx(0.5, abs=1e-12)
        assert tau_spline(0.8, 0.7, 0.1) == 1.0
        assert tau_spline(0.725, 0.7, 0.1) == pytest.approx(4 * 0.25**3, abs=1e-12)

    def test_flat_tails(self):
        assert tau_spline(0.0, 0.5, 0.2) == 0.0
        assert tau_spline(10.0, 0.5, 0.2) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(0.01, 5.0), h=st.floats(0.01, 2.0), u=st.floats(0.0, 1.0))
    def test_range_and_monotone(self, delta, h, u):
        b1 = delta + u * h
        b2 = min(delta + (u + 0.1) * h, delta + h)
        v1, v2 = tau_spline(b1, delta, h), tau_spline(b2, delta, h)
        assert 0.0 <= v1 <= 1.0
        assert v2 >= v1 - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(0.05, 3.0), h=st.floats(0.05, 1.0))
    def test_knot_continuity_c0_c1(self, delta, h):
        step = 1e-6 * h
        for knot in (delta, delta + h / 2, delta + h):
            left = tau_spline(knot - step, delta, h)
            right = tau_spline(knot + step, delta, h)
            assert right - left == pytest.approx(0.0, abs=1e-3)
            # One-sided slopes by central differences straddling the knot.
            slope_left = (tau_spline(knot, delta, h) - tau_spline(knot - 2 * step, delta, h)) / (2 * step)
            slope_right = (tau_spline(knot + 2 * step, delta, h) - tau_spline(knot, delta, h)) / (2 * step)
            assert slope_right - slope_left == pytest.approx(0.0, abs=1e-3)


class TestTThreshold:
    def test_symmetry_and_boundaries(self):
        assert t_threshold(-(0.5 + 0.1), 0.5, 0.1, mode="spline") == 1.0
        assert t_threshold(0.5, 0.5, 0.1, mode="step") == 0.0
        assert t_threshold(0.0, 0.5, 0.1, mode="step") == 0.0
        assert t_threshold(0.0, 0.5, 0.1, mode="spline") == 0.0

    @settings(max_examples=30, deadline=None)
    @given(b=st.floats(-10, 10), delta=st.floats(0.01, 3.0), h=st.floats(0.01, 1.0),
           mode=st.sampled_from(["step", "spline"]))
    def test_even_function(self, b, delta, h, mode):
        assert t_threshold(b, delta, h, mode) == t_threshold(-b, delta, h, mode)

    @settings(max_examples=30, deadline=None)
    @given(b=st.floats(-10, 10), delta=st.floats(0.01, 3.0), h=st.floats(0.01, 1.0))
    def test_positive_iff_above_delta(self, b, delta, h):
        for mode in ("step", "spline"):
            assert (t_threshold(b, delta, h, mode) > 0) == (abs(b) > delta)


class TestBuildEmpiricalPath:
    def test_sorted_magnitudes(self):
        path = build_empirical_path(coef(0.3, -0.1, 0.2))
        np.testing.assert_allclose(path.deltas, [0.3, 0.2, 0.1])

    def test_tie_collapse(self):
        path = build_empirical_path(coef(0.5, -0.5, 0.1))
        np.testing.assert_allclose(path.deltas, [0.5, 0.1])
        assert len(path) == 2

    def test_exact_zeros_contribute_no_threshold(self):
        path = build_empirical_path(coef(0.4, 0.0, 0.2))
        np.testing.assert_allclose(path.deltas, [0.4, 0.2])

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroError):
            build_empirical_path(coef(0.0, 0.0))

    def test_seeded_fit_tracks_signal_ladder(self):
        scenario = scenario_s1(10000, 20)
        data, _ = generate_dataset(scenario, seed=555)
        path = build_empirical_path(fit_ols(data))
        # Ten strong signals 2.0, 1.8, ..., 0.2 dominate the top of the path.
        expected = 0.2 * np.arange(10, 0, -1)
        np.testing.assert_allclose(path.deltas[:10], expected, atol=0.06)
        assert np.max(path.deltas[10:]) < 0.1


class TestSupportAtThreshold:
    def test_inclusive_boundary(self):
        excluded, retained = support_at_threshold(coef(0.3, 0.1), 0.1)
        assert excluded == (1,)
        assert retained.retained == (0,)

    def test_total_exclusion(self):
        excluded, retained = support_at_threshold(coef(0.3, 0.1), 0.3)
        assert excluded == (0, 1)
        assert len(retained) == 0

    def test_no_exclusion(self):
        excluded, retained = support_at_threshold(coef(0.3, 0.1), 0.05)
        assert excluded == ()
        assert retained.retained == (0, 1)


def spline_weighted_risk(data, beta_hat, delta, h):
    """Independent oracle: minimize over the spline-weighted design directly."""
    weights = np.array([t_threshold(b, delta, h, "spline") for b in beta_hat.values])
    keep = weights > 0
    scaled = data.design[:, keep] * weights[keep]
    coefs, *_ = np.linalg.lstsq(scaled, data.response, rcond=None)
    resid = data.response - scaled @ coefs
    return float(resid @ resid) / data.n_obs


class TestMinThresholdedRisk:
    def test_empty_model_risk(self, rng, dataset_factory):
        data = dataset_factory(rng, 12, 3)
        beta = fit_ols(data)
        delta = float(np.max(np.abs(beta.values)))
        expected = float(data.response @ data.response) / 12
        assert min_thresholded_risk(data, beta, delta) == pytest.approx(expected, abs=1e-12)

    def test_full_support_risk(self, rng, dataset_factory):
        data = dataset_factory(rng, 12, 3)
        beta = fit_ols(data)
        delta = 0.5 * float(np.min(np.abs(beta.values)))
        resid = data.response - data.design @ beta.values
        assert min_thresholded_risk(data, beta, delta) == pytest.approx(
            float(resid @ resid) / 12, abs=1e-12
        )

    def test_against_subset_refit(self, rng, dataset_factory):
        data = dataset_factory(rng, 6, 4)
        beta = coef(2.0, 0.05, 1.0, 0.08)
        risk = min_thresholded_risk(data, beta, 0.1)
        sub = data.design[:, [0, 2]]
        coefs = np.linalg.solve(sub.T @ sub, sub.T @ data.response)
        resid = data.response - sub @ coefs
        assert risk == pytest.approx(float(resid @ resid) / 6, abs=1e-10)

    def test_spline_equals_step(self, rng, dataset_factory):
        for trial in range(50):
            n = int(rng.integers(8, 25))
            p = int(rng.integers(2, 6))
            data = dataset_factory(rng, n, p)
            beta = fit_ols(data)
            mags = np.abs(beta.values)
            delta = float(rng.choice(mags))
            for h in (1e-6, 0.05, 1.0):
                step = min_thresholded_risk(data, beta, delta, mode="step")
                spline = min_thresholded_risk(data, beta, delta, mode="spline", h=h)
                assert spline == pytest.approx(step, abs=1e-9)
                if np.any((mags > delta)):
                    oracle = spline_weighted_risk(data, beta, delta, h)
                    assert oracle == pytest.approx(step, abs=1e-9)

    def test_mode_and_h_validated(self, rng, dataset_factory):
        data = dataset_factory(rng, 10, 3)
        beta = fit_ols(data)
        with pytest.raises(ValueError, match="mode"):
            min_thresholded_risk(data, beta, 0.1, mode="bogus", h=-5)
        with pytest.raises(ValueError, match="mode"):
            min_thresholded_risk(data, beta, 0.1, mode="Step")
        for mode in ("step", "spline"):
            for h in (0.0, -5.0):
                with pytest.raises(ValueError, match="h must be positive"):
                    min_thresholded_risk(data, beta, 0.1, mode=mode, h=h)


class TestPenalties:
    def test_threshold_penalty_arithmetic(self):
        spec = PenaltySpec(1.0, 0.5, argument="threshold")
        assert penalty_value(1.0, 100, spec) == pytest.approx(0.460517, abs=1e-6)
        spec2 = PenaltySpec(0.5, 0.25, argument="threshold")
        assert penalty_value(1.0, 100, spec2) == pytest.approx(0.230259, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(0.1, 5), r=st.floats(0.1, 3), delta=st.floats(0.01, 10),
           n=st.integers(2, 10**6))
    def test_homogeneity(self, c, r, delta, n):
        spec = PenaltySpec(c, r, argument="threshold")
        doubled_c = PenaltySpec(2 * c, r, argument="threshold")
        assert penalty_value(delta, n, doubled_c) == pytest.approx(
            2 * penalty_value(delta, n, spec), rel=1e-12
        )
        shrunk = delta / 2 ** (1 / r)
        assert penalty_value(shrunk, n, spec) == pytest.approx(
            2 * penalty_value(delta, n, spec), rel=1e-9
        )

    def test_domain_errors(self):
        spec = PenaltySpec(1.0, 0.5)
        with pytest.raises(ValueError):
            penalty_value(0.0, 100, spec)
        with pytest.raises(ValueError):
            penalty_value(1.0, 1, spec)
        with pytest.raises(ValueError):
            dimension_penalty(-1, 100, spec)

    def test_dimension_penalty_arithmetic(self):
        spec = PenaltySpec(1.0, 0.5)
        assert dimension_penalty(0, 100, spec) == pytest.approx(math.log(100) / 10, abs=1e-12)
        assert dimension_penalty(3, 100, spec) == pytest.approx(
            2.0 * math.log(100) / 10, abs=1e-12
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PenaltySpec(0.0, 0.5)
        with pytest.raises(ValueError):
            PenaltySpec(1.0, -1.0)
        with pytest.raises(ValueError):
            PenaltySpec(1.0, 0.5, argument="bic")


class TestRiskProfile:
    def test_monotonicity_on_generated_profiles(self, rng, dataset_factory):
        for argument in ("dimension", "threshold"):
            for trial in range(10):
                data = dataset_factory(rng, 40, 6)
                beta = fit_ols(data)
                profile = risk_profile(
                    data, beta, build_empirical_path(beta), PenaltySpec(0.75, 0.4, argument=argument)
                )
                risks = [e.risk for e in profile.entries]
                pens = [e.penalty for e in profile.entries]
                assert all(b <= a + 1e-10 for a, b in zip(risks, risks[1:]))
                assert all(b > a for a, b in zip(pens, pens[1:]))
                for e in profile.entries:
                    assert e.criterion == e.risk + e.penalty

    def test_invariant_violations_rejected(self):
        increasing_risk = (
            ProfileEntry(0.5, 1.0, 0.1, 1.1, (0,)),
            ProfileEntry(0.4, 2.0, 0.2, 2.2, ()),
        )
        with pytest.raises(ValueError):
            RiskProfile(increasing_risk)
        flat_penalty = (
            ProfileEntry(0.5, 2.0, 0.1, 2.1, (0,)),
            ProfileEntry(0.4, 1.0, 0.1, 1.1, ()),
        )
        with pytest.raises(ValueError):
            RiskProfile(flat_penalty)


def rank_warnings(caught):
    return [(w.message.rank, w.message.ncols) for w in caught
            if issubclass(w.category, RankDeficientWarning)]


def per_threshold_refits(data, beta_hat, path):
    """Reference: one restricted refit per threshold, with the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        risks = [
            least_squares_on_support(data, support_at_threshold(beta_hat, d)[1]).risk
            for d in path.deltas
        ]
    return risks, rank_warnings(caught)


def brute_force_risk(data, keep):
    """Subset refit by the normal equations, or min-norm lstsq when ill-conditioned."""
    if not keep.any():
        return float(data.response @ data.response) / data.n_obs
    sub = data.design[:, keep]
    if np.linalg.cond(sub) < 1e6:
        coefs = np.linalg.solve(sub.T @ sub, sub.T @ data.response)
    else:
        coefs = np.linalg.lstsq(sub, data.response, rcond=None)[0]
    resid = data.response - sub @ coefs
    return float(resid @ resid) / data.n_obs


def checked_profile(data, beta_hat):
    """Profile whose risks match the oracles and whose warnings match the reference."""
    path = build_empirical_path(beta_hat)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        profile = risk_profile(data, beta_hat, path, PenaltySpec(0.75, 0.4))
    reference, reference_warnings = per_threshold_refits(data, beta_hat, path)
    assert rank_warnings(caught) == reference_warnings
    mags = np.abs(beta_hat.values)
    for entry, ref in zip(profile.entries, reference):
        keep = mags > entry.delta
        assert entry.excluded == tuple(np.flatnonzero(~keep).tolist())
        assert entry.risk == pytest.approx(brute_force_risk(data, keep), rel=1e-9, abs=1e-12)
        assert entry.risk == pytest.approx(ref, rel=1e-9, abs=1e-12)
    return profile, reference_warnings


@pytest.fixture
def count_fallbacks(monkeypatch):
    """Count the per-prefix refits risk_profile falls back to."""
    calls = []
    original = threshsel.thresholding.least_squares_on_support

    def counted(data, support):
        calls.append(len(support))
        return original(data, support)

    monkeypatch.setattr(threshsel.thresholding, "least_squares_on_support", counted)
    return calls


class TestRiskProfileOracle:
    def test_full_rank_ladder_makes_no_per_threshold_refit(self, count_fallbacks):
        for scenario, seed in ((scenario_s1(200, 20), 7), (scenario_s1(60, 50), 8)):
            data, _ = generate_dataset(scenario, seed=seed)
            profile, warned = checked_profile(data, fit_ols(data))
            assert len(profile) == scenario.p and warned == []
        assert count_fallbacks == []

    def test_duplicated_column(self, rng, count_fallbacks):
        design = rng.standard_normal((30, 5))
        design[:, 3] = design[:, 1]
        response = design @ np.array([1.0, 0.6, 0.2, 0.6, 0.05]) + rng.standard_normal(30)
        data = Dataset(design, response, tuple(f"x{j}" for j in range(5)))
        with pytest.warns(RankDeficientWarning):
            beta = fit_ols(data)
        profile, warned = checked_profile(data, beta)
        assert warned and all(ncols == rank + 1 for rank, ncols in warned)
        assert count_fallbacks

    def test_p_at_least_n_min_norm(self, rng, count_fallbacks):
        data = make_dataset(rng, 8, 12)
        with pytest.warns(RankDeficientWarning):
            beta = fit_ols(data)
        profile, warned = checked_profile(data, beta)
        # Prefixes of n or more columns are refit one by one; those beyond n warn.
        retained = [12 - len(e.excluded) for e in profile.entries]
        assert sorted(count_fallbacks) == [m for m in retained if m >= 8]
        assert warned == [(8, m) for m in retained if m > 8]

    def test_collinear_interactions_with_intercept(self, rng, count_fallbacks):
        n = 40
        a = (rng.random(n) < 0.5).astype(float)
        g, h = rng.standard_normal((2, n))
        base = Dataset(np.column_stack([a, 1.0 - a, g, h]),
                       a + g - 0.5 * g * h + rng.standard_normal(n), ("a", "b", "g", "h"))
        expanded, _ = interaction_expand(base)
        data = Dataset(np.column_stack([expanded.design, np.ones(n)]), expanded.response,
                       expanded.labels + ("intercept",))
        with pytest.warns(RankDeficientWarning):
            beta = fit_ols(data)
        _, warned = checked_profile(data, beta)
        assert warned and count_fallbacks

    def test_near_collinear_prefix_falls_back_without_warning(self, rng, count_fallbacks):
        design = rng.standard_normal((30, 4))
        design[:, 2] = design[:, 0] + 1e-10 * rng.standard_normal(30)
        data = Dataset(design, design @ np.ones(4) + rng.standard_normal(30),
                       ("a", "b", "c", "d"))
        beta = coef(2.0, 1.5, 1.0, 0.5)
        _, warned = checked_profile(data, beta)
        assert warned == [] and count_fallbacks == [3]

    def test_ill_conditioned_prefix_with_moderate_pivots(self, rng, count_fallbacks):
        # A Kahan matrix is numerically singular although no pivot of its R is
        # small, so only the condition bound keeps its wide prefixes off the QR.
        k, c = 40, 0.7
        kahan = np.diag(math.sqrt(1 - c * c) ** np.arange(k)) @ (
            np.eye(k) - c * np.triu(np.ones((k, k)), 1)
        )
        basis, _ = np.linalg.qr(rng.standard_normal((60, k)))
        design = basis @ kahan
        data = Dataset(design, design @ np.ones(k) + rng.standard_normal(60),
                       tuple(f"x{j}" for j in range(k)))
        _, warned = checked_profile(data, coef(*np.linspace(2.0, 0.1, k)))
        assert warned and 0 < min(count_fallbacks) < k - 1

    def test_tied_magnitudes(self, rng):
        data = make_dataset(rng, 30, 7)
        beta = coef(0.9, -0.9, 0.4, 0.4, -0.4, 0.1, -0.1)
        profile, _ = checked_profile(data, beta)
        assert [len(e.excluded) for e in profile.entries] == [7, 5, 2]

    def test_single_nonzero_coefficient(self, rng):
        data = make_dataset(rng, 15, 4)
        profile, _ = checked_profile(data, coef(0.0, 0.0, -0.7, 0.0))
        (entry,) = profile.entries
        assert entry.excluded == (0, 1, 2, 3)
        assert entry.risk == pytest.approx(float(data.response @ data.response) / 15, rel=1e-14)


class TestSelectThreshold:
    def test_singleton_path(self, rng, dataset_factory):
        data = dataset_factory(rng, 20, 1)
        beta = fit_ols(data)
        result = select_threshold(
            data, beta, build_empirical_path(beta), PenaltySpec(1.0, 0.5)
        )
        assert result.k_hat == 1

    def test_min_of_argmin_tie_break(self):
        entries = (
            ProfileEntry(0.9, 0.60, 0.30, 0.90, (0, 1, 2, 3)),
            ProfileEntry(0.7, 0.30, 0.40, 0.70, (0, 1, 2)),
            ProfileEntry(0.5, 0.20, 0.50, 0.70, (0, 1)),
            ProfileEntry(0.3, 0.10, 0.70, 0.80, (0,)),
        )
        assert RiskProfile(entries).selected_index() == 2

    def test_seeded_strong_signal_selection(self):
        scenario = scenario_s1(10000, 20)
        data, true_irrelevant = generate_dataset(scenario, seed=2024)
        beta = fit_ols(data)
        result = select_threshold(
            data, beta, build_empirical_path(beta), PenaltySpec(1.0, 0.5)
        )
        assert set(result.irrelevant_set) == true_irrelevant
        assert set(result.relevant_set) == set(range(10))
        assert 0.005 < result.delta_hat < 0.06

    def test_hard_threshold_structure(self, rng, dataset_factory):
        for trial in range(5):
            data = dataset_factory(rng, 30, 5)
            beta = fit_ols(data)
            result = select_threshold(
                data, beta, build_empirical_path(beta), PenaltySpec(0.5, 0.25)
            )
            for j in range(5):
                if j in result.irrelevant_set:
                    assert result.beta_bar[j] == 0.0
                else:
                    assert result.beta_bar[j] == beta.values[j]
            assert set(result.irrelevant_set) == {
                j for j in range(5) if abs(beta.values[j]) <= result.delta_hat
            }

    def test_serialization_dict(self, rng, dataset_factory):
        data = dataset_factory(rng, 20, 3)
        beta = fit_ols(data)
        result = select_threshold(
            data, beta, build_empirical_path(beta), PenaltySpec(0.75, 0.4)
        )
        doc = result.to_dict()
        assert list(doc) == ["k_hat", "delta_hat", "irrelevant_set", "beta_bar", "profile"]
        assert len(doc["profile"]) == len(result.profile)
        assert doc["profile"][0]["k"] == 1


class TestMetrics:
    def test_perfect_selection(self):
        assert metrics_fnr_tnr({3, 4}, {3, 4}, 5) == (0.0, 1.0)

    def test_select_everything_relevant(self):
        fnr, tnr = metrics_fnr_tnr(set(), {3, 4}, 5)
        assert fnr == 0.0 and tnr == 0.0

    def test_one_false_exclusion(self):
        true_irrelevant = set(range(10, 20))
        selected = set(range(9, 20))
        fnr, tnr = metrics_fnr_tnr(selected, true_irrelevant, 20)
        assert fnr == pytest.approx(0.1)
        assert tnr == pytest.approx(1.0)

    def test_tnr_not_applicable(self):
        fnr, tnr = metrics_fnr_tnr({0}, set(), 3)
        assert fnr == pytest.approx(1 / 3)
        assert tnr is None

    def test_all_irrelevant_rejected(self):
        with pytest.raises(ValueError):
            metrics_fnr_tnr(set(), {0, 1, 2}, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_hand_enumerated_counts(self, data):
        p = data.draw(st.integers(2, 12))
        true_irr = data.draw(st.sets(st.integers(0, p - 1), max_size=p - 1))
        selected = data.draw(st.sets(st.integers(0, p - 1), max_size=p))
        fnr, tnr = metrics_fnr_tnr(selected, true_irr, p)
        relevant = set(range(p)) - true_irr
        missed = sum(1 for j in relevant if j in selected)
        assert fnr == pytest.approx(missed / len(relevant))
        if true_irr:
            caught = sum(1 for j in true_irr if j in selected)
            assert tnr == pytest.approx(caught / len(true_irr))
        else:
            assert tnr is None


class TestThresholdPathType:
    def test_strictly_decreasing_enforced(self):
        with pytest.raises(ValueError):
            ThresholdPath(np.array([0.5, 0.5, 0.1]))
        with pytest.raises(ValueError):
            ThresholdPath(np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            ThresholdPath(np.array([0.5, 0.0]))

    def test_non_finite_rejected(self):
        for bad in ([1.0, np.nan], [np.nan, 0.5], [np.inf, 0.5], [0.5, 0.2, np.nan, 0.1]):
            with pytest.raises(ValueError, match="finite"):
                ThresholdPath(np.array(bad))
