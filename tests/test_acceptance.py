"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run 100 seeded replications per configuration and check
the replication means against fixed bands. Heavy scenario cells are computed
once and shared across criteria. The real-data criterion needs the public
prostate CSV (97 rows: lcavol, lweight, age, lbph, svi, lcp, gleason, pgg45,
lpsa); point THRESHSEL_PROSTATE at it or drop it at data/prostate.csv.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from threshsel import (
    Dataset,
    EstimatorConfig,
    PenaltySpec,
    ProfileEntry,
    RiskProfile,
    build_empirical_path,
    fit_ols,
    least_squares_on_support,
    load_csv,
    metrics_fnr_tnr,
    min_thresholded_risk,
    risk_profile,
    run_scenario,
    scenario_s1,
    scenario_s2,
    select_threshold,
    standardize,
    tau_spline,
)
from threshsel.cli import main as cli_main
from threshsel.estimators import Support

from conftest import make_dataset

BASE_SEED = 20240801
PAIRS = (PenaltySpec(0.5, 0.25), PenaltySpec(0.75, 0.4), PenaltySpec(1.0, 0.5))

_CELL_CACHE = {}


def cell(scenario_name, n, p, method, pair, reps=100):
    """Memoized scenario run; every criterion shares the same seeded cells."""
    key = (scenario_name, n, p, method, pair.c, pair.r, reps)
    if key not in _CELL_CACHE:
        scenario = scenario_s1(n, p) if scenario_name == "S1" else scenario_s2(n, p)
        _CELL_CACHE[key] = run_scenario(
            scenario, EstimatorConfig(method=method), pair,
            replications=reps, base_seed=BASE_SEED, workers=1,
        )
    return _CELL_CACHE[key]


def report_line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_strong_signal_large_n():
    start = time.perf_counter()
    clauses = []
    details = []
    for pair in PAIRS:
        rep = cell("S1", 10000, 20, "ols", pair)
        clauses += [
            rep.mean_fnr_pct <= 0.5,
            rep.mean_tnr_pct >= 99.5,
            0.005 < rep.mean_delta_hat < 0.06,
        ]
        details.append(
            f"(c={pair.c},r={pair.r}): fnr={rep.mean_fnr_pct:.2f}% "
            f"tnr={rep.mean_tnr_pct:.2f}% delta={rep.mean_delta_hat:.4f}"
        )
    ok = all(clauses)
    report_line(1, ok, "; ".join(details) + f" [{time.perf_counter() - start:.0f}s]")
    assert ok


def test_criterion_2_strong_signal_small_n():
    start = time.perf_counter()
    rep = cell("S1", 100, 20, "ols", PenaltySpec(1.0, 0.5))
    ok = (abs(rep.mean_fnr_pct - 10.2) <= 5.0) and (abs(rep.mean_tnr_pct - 96.4) <= 5.0)
    report_line(
        2, ok,
        f"fnr={rep.mean_fnr_pct:.2f}% (10.2±5) tnr={rep.mean_tnr_pct:.2f}% (96.4±5) "
        f"[{time.perf_counter() - start:.0f}s]",
    )
    assert ok


def test_criterion_3_weak_signal_mid_n():
    start = time.perf_counter()
    rep = cell("S2", 1000, 50, "ols", PenaltySpec(0.75, 0.4))
    ok = (abs(rep.mean_fnr_pct - 18.8) <= 6.0) and (abs(rep.mean_tnr_pct - 99.675) <= 2.0)
    report_line(
        3, ok,
        f"fnr={rep.mean_fnr_pct:.2f}% (18.8±6) tnr={rep.mean_tnr_pct:.2f}% (99.675±2) "
        f"[{time.perf_counter() - start:.0f}s]",
    )
    assert ok


def test_criterion_4_adaptive_ridge_small_n():
    start = time.perf_counter()
    rep = cell("S1", 100, 20, "ar", PenaltySpec(0.5, 0.25))
    ok = (abs(rep.mean_tnr_pct - 94.2) <= 5.0) and (abs(rep.mean_fnr_pct - 6.0) <= 4.0)
    report_line(
        4, ok,
        f"tnr={rep.mean_tnr_pct:.2f}% (94.2±5) fnr={rep.mean_fnr_pct:.2f}% (6±4) "
        f"[{time.perf_counter() - start:.0f}s]",
    )
    assert ok


PROSTATE_COLUMNS = ("lcavol", "lweight", "age", "lbph", "svi", "lcp", "gleason", "pgg45")


def _prostate_path():
    env = os.environ.get("THRESHSEL_PROSTATE")
    if env and Path(env).exists():
        return Path(env)
    default = Path(__file__).resolve().parents[1] / "data" / "prostate.csv"
    return default if default.exists() else None


def test_criterion_5_prostate_selection():
    path = _prostate_path()
    if path is None:
        report_line(5, True, "SKIPPED — supply the prostate CSV via "
                             "THRESHSEL_PROSTATE or data/prostate.csv")
        pytest.skip("prostate dataset not supplied")
    data = load_csv(path, response_column="lpsa")
    assert data.n_obs == 97 and data.n_features == 8
    assert data.labels == PROSTATE_COLUMNS
    data, _ = standardize(data, include_response=True)

    def relevant(method, pair):
        beta = EstimatorConfig(method=method).fit(data)
        result = select_threshold(data, beta, build_empirical_path(beta), pair)
        return {data.labels[j] for j in result.relevant_set}

    expectations = [
        ("ols", PenaltySpec(0.75, 0.4), {"lcavol", "lweight", "svi"}),
        ("ridge", PenaltySpec(0.5, 0.25), {"lcavol", "lweight", "svi"}),
        ("ar", PenaltySpec(0.75, 0.4), {"lcavol"}),
        ("ols", PenaltySpec(1.0, 0.5), {"lcavol"}),
        ("ridge", PenaltySpec(1.0, 0.5), {"lcavol"}),
        ("ar", PenaltySpec(1.0, 0.5), {"lcavol"}),
    ]
    details, clauses = [], []
    for method, pair, expected in expectations:
        got = relevant(method, pair)
        clauses.append(got == expected)
        details.append(f"{method}({pair.c},{pair.r})={sorted(got)}")
    ok = all(clauses)
    report_line(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_property_suite(rng):
    start = time.perf_counter()
    clauses = {}

    # Spline knot values and C1 continuity for 20 random (delta, h).
    knot_ok = True
    for _ in range(20):
        delta = float(rng.uniform(0.05, 3.0))
        h = float(rng.uniform(0.05, 1.0))
        knot_ok &= tau_spline(delta, delta, h) == 0.0
        knot_ok &= abs(tau_spline(delta + h / 2, delta, h) - 0.5) < 1e-12
        knot_ok &= tau_spline(delta + h, delta, h) == 1.0
        step = 1e-6 * h
        for knot in (delta, delta + h / 2, delta + h):
            left = (tau_spline(knot, delta, h) - tau_spline(knot - 2 * step, delta, h)) / (2 * step)
            right = (tau_spline(knot + 2 * step, delta, h) - tau_spline(knot, delta, h)) / (2 * step)
            knot_ok &= abs(right - left) < 1e-3
            knot_ok &= abs(tau_spline(knot + step, delta, h) - tau_spline(knot - step, delta, h)) < 1e-3
    clauses["spline-knots"] = knot_ok

    # Spline-vs-step risk equality on 50 random small datasets.
    equal_ok = True
    for _ in range(50):
        data = make_dataset(rng, int(rng.integers(8, 30)), int(rng.integers(2, 6)))
        beta = fit_ols(data)
        delta = float(rng.choice(np.abs(beta.values)))
        step_risk = min_thresholded_risk(data, beta, delta, mode="step")
        spline_risk = min_thresholded_risk(data, beta, delta, mode="spline", h=0.1)
        equal_ok &= abs(step_risk - spline_risk) < 1e-9
    clauses["spline-step-risk"] = equal_ok

    # Monotonicity on every generated profile, hard-threshold structure, and
    # the brute-force subset-refit oracle for p <= 6.
    mono_ok = structural_ok = oracle_ok = scaling_ok = True
    for trial in range(30):
        data = make_dataset(rng, int(rng.integers(12, 40)), int(rng.integers(2, 7)))
        beta = fit_ols(data)
        path = build_empirical_path(beta)
        spec = PenaltySpec(*[(0.5, 0.25), (0.75, 0.4), (1.0, 0.5)][trial % 3])
        profile = risk_profile(data, beta, path, spec)
        risks = [e.risk for e in profile.entries]
        pens = [e.penalty for e in profile.entries]
        mono_ok &= all(b <= a + 1e-10 for a, b in zip(risks, risks[1:]))
        mono_ok &= all(b > a for a, b in zip(pens, pens[1:]))
        for entry in profile.entries:
            keep = [j for j in range(data.n_features) if j not in entry.excluded]
            if keep:
                sub = data.design[:, keep]
                coef = np.linalg.solve(sub.T @ sub, sub.T @ data.response)
                resid = data.response - sub @ coef
            else:
                resid = data.response
            oracle_ok &= abs(entry.risk - float(resid @ resid) / data.n_obs) < 1e-10
        result = select_threshold(data, beta, path, spec)
        for j in range(data.n_features):
            if j in result.irrelevant_set:
                structural_ok &= result.beta_bar[j] == 0.0
            else:
                structural_ok &= result.beta_bar[j] == beta.values[j]
        # Positive column scaling leaves each restricted risk unchanged.
        scales = rng.uniform(0.2, 5.0, data.n_features)
        scaled = Dataset(data.design * scales, data.response, data.labels)
        support = Support(tuple(range(0, data.n_features, 2)))
        scaling_ok &= abs(
            least_squares_on_support(data, support).risk
            - least_squares_on_support(scaled, support).risk
        ) < 1e-10
    clauses["profile-monotone"] = mono_ok
    clauses["subset-refit-oracle"] = oracle_ok
    clauses["hard-threshold-structure"] = structural_ok
    clauses["column-scaling"] = scaling_ok

    # Min-of-argmin tie break on constructed tied criteria.
    entries = (
        ProfileEntry(0.9, 0.60, 0.30, 0.90, (0, 1, 2, 3)),
        ProfileEntry(0.7, 0.30, 0.40, 0.70, (0, 1, 2)),
        ProfileEntry(0.5, 0.20, 0.50, 0.70, (0, 1)),
        ProfileEntry(0.3, 0.10, 0.70, 0.80, (0,)),
    )
    clauses["tie-break"] = RiskProfile(entries).selected_index() == 2

    # FNR/TNR against hand-enumerated sets.
    clauses["metrics"] = (
        metrics_fnr_tnr({3, 4}, {3, 4}, 5) == (0.0, 1.0)
        and metrics_fnr_tnr(set(), {3, 4}, 5) == (0.0, 0.0)
        and metrics_fnr_tnr(set(range(9, 20)), set(range(10, 20)), 20)
        == (pytest.approx(0.1), pytest.approx(1.0))
    )

    ok = all(clauses.values())
    report_line(
        6, ok,
        ", ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in clauses.items())
        + f" [{time.perf_counter() - start:.0f}s]",
    )
    assert ok


def test_screening_property_at_scale():
    # Selected irrelevant set contained in the true one (fnr == 0 per
    # replication) in at least 99% of the large-n strong-signal runs.
    rep = cell("S1", 10000, 20, "ols", PenaltySpec(1.0, 0.5))
    contained = sum(1 for o in rep.outcomes if o.fnr == 0.0)
    assert contained >= 0.99 * rep.replications


def test_criterion_7_consistency_trend():
    start = time.perf_counter()
    pair = PenaltySpec(1.0, 0.5)
    reps = [cell("S1", n, 20, "ols", pair) for n in (100, 1000, 10000)]
    fnr = [r.mean_fnr_pct for r in reps]
    gap = [100.0 - r.mean_tnr_pct for r in reps]
    slack = 3.0
    ok = all(b <= a + slack for a, b in zip(fnr, fnr[1:])) and all(
        b <= a + slack for a, b in zip(gap, gap[1:])
    )
    report_line(
        7, ok,
        f"fnr={['%.2f' % v for v in fnr]} tnr_gap={['%.2f' % v for v in gap]} "
        f"(nonincreasing, {slack}pp slack) [{time.perf_counter() - start:.0f}s]",
    )
    assert ok


def test_criterion_8_byte_identical_reports(tmp_path, capsys):
    start = time.perf_counter()
    args = ["simulate", "--scenario", "S1", "--n", "100", "--p", "20",
            "--estimator", "ols", "--penalties", "1:0.5", "--reps", "100",
            "--seed", str(BASE_SEED), "--format", "csv"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli_main(args + ["--out", str(paths[0]), "--threads", "1"]) == 0
    assert cli_main(args + ["--out", str(paths[1]), "--threads", "1"]) == 0
    assert cli_main(args + ["--out", str(paths[2]), "--threads", "4"]) == 0
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    report_line(
        8, ok,
        f"repeat run identical={blobs[0] == blobs[1]}, "
        f"threads 1 vs 4 identical={blobs[0] == blobs[2]} "
        f"[{time.perf_counter() - start:.0f}s]",
    )
    assert ok
