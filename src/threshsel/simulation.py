"""Synthetic scenarios and the seeded Monte Carlo replication driver."""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .data import Dataset
from .estimators import (
    CoefficientVector,
    fit_adaptive_ridge,
    fit_ols,
    fit_ridge,
)
from .thresholding import (
    PenaltySpec,
    build_empirical_path,
    metrics_fnr_tnr,
    select_threshold,
)

ESTIMATOR_METHODS = ("ols", "ridge", "ar")


class NotPositiveDefiniteError(ValueError):
    """Equicorrelation parameter outside (-1/(p-1), 1)."""


class BetaMinWarning(UserWarning):
    """Smallest nonzero true signal does not clear the finest threshold."""


@dataclass(frozen=True)
class ScenarioSpec:
    """A synthetic regression scenario: Y = X beta0 + eps with equicorrelated X."""

    n: int
    p: int
    beta0: np.ndarray
    rho: float = 0.2
    noise_sd: float = 1.0
    name: str = "custom"

    def __post_init__(self):
        beta0 = np.asarray(self.beta0, dtype=np.float64)
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if beta0.shape != (self.p,):
            raise ValueError(f"beta0 must have shape ({self.p},)")
        if not np.all(np.isfinite(beta0)):
            raise ValueError("beta0 must be finite")
        if not np.any(beta0 != 0.0):
            raise ValueError("beta0 must have at least one nonzero entry")
        if self.p > 1 and not (-1.0 / (self.p - 1) < self.rho < 1.0):
            raise NotPositiveDefiniteError(
                f"rho = {self.rho} outside (-1/(p-1), 1) for p = {self.p}"
            )
        if self.noise_sd <= 0:
            raise ValueError("noise sd must be positive")
        object.__setattr__(self, "beta0", beta0)

    @property
    def true_irrelevant(self) -> frozenset[int]:
        return frozenset(int(j) for j in np.nonzero(self.beta0 == 0.0)[0])


def _signal_ladder(name: str, step: float, n: int, p: int) -> ScenarioSpec:
    """Signals step, 2*step, ..., 10*step followed by zeros; rho 0.2, unit noise."""
    if p < 11:
        raise ValueError(f"{name} needs p >= 11 (ten signals plus noise columns)")
    beta0 = np.zeros(p)
    beta0[:10] = step * np.arange(1, 11)
    return ScenarioSpec(n=n, p=p, beta0=beta0, rho=0.2, noise_sd=1.0, name=name)


def scenario_s1(n: int, p: int) -> ScenarioSpec:
    """Strong-signal ladder 0.2, 0.4, ..., 2.0 followed by zeros."""
    return _signal_ladder("S1", 0.2, n, p)


def scenario_s2(n: int, p: int) -> ScenarioSpec:
    """Weak-signal ladder 0.05, 0.10, ..., 0.5 followed by zeros."""
    return _signal_ladder("S2", 0.05, n, p)


@dataclass(frozen=True)
class EstimatorConfig:
    """Which initial estimator to fit, with its tuning values.

    ``ridge_lambda`` may be the token ``"sqrt_n"`` (resolved against the data
    size at fit time) or a nonnegative number.
    """

    method: str = "ols"
    ridge_lambda: float | str = "sqrt_n"
    ar_xi: float = 1.0
    ar_steps: int = 5

    def __post_init__(self):
        if self.method not in ESTIMATOR_METHODS:
            raise ValueError(f"method must be one of {ESTIMATOR_METHODS}")
        if isinstance(self.ridge_lambda, str) and self.ridge_lambda != "sqrt_n":
            raise ValueError("ridge_lambda must be a number or the token 'sqrt_n'")

    def resolve_lambda(self, n: int) -> float:
        if self.ridge_lambda == "sqrt_n":
            return math.sqrt(n)
        return float(self.ridge_lambda)

    def fit(self, data: Dataset) -> CoefficientVector:
        if self.method == "ols":
            return fit_ols(data)
        lam = self.resolve_lambda(data.n_obs)
        if self.method == "ridge":
            return fit_ridge(data, lam)
        return fit_adaptive_ridge(data, self.ar_xi, self.ar_steps, lam)


@dataclass(frozen=True)
class ReplicationOutcome:
    seed: int
    delta_hat: float
    fnr: float
    tnr: float
    selected_set: tuple[int, ...]
    wall_time: float

    def __post_init__(self):
        if not 0.0 <= self.fnr <= 1.0 or not 0.0 <= self.tnr <= 1.0:
            raise ValueError("fnr and tnr must lie in [0, 1]")


@dataclass(frozen=True)
class AggregateReport:
    """Replication-averaged threshold, FNR, and TNR for one configuration."""

    scenario: ScenarioSpec
    estimator: EstimatorConfig
    penalty: PenaltySpec
    replications: int
    base_seed: int
    mean_delta_hat: float
    mean_fnr_pct: float
    mean_tnr_pct: float
    outcomes: tuple[ReplicationOutcome, ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "n": self.scenario.n,
            "p": self.scenario.p,
            "estimator": self.estimator.method,
            "penalty_c": self.penalty.c,
            "penalty_r": self.penalty.r,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "mean_delta_hat": self.mean_delta_hat,
            "mean_fnr_pct": self.mean_fnr_pct,
            "mean_tnr_pct": self.mean_tnr_pct,
        }


def equicorrelated_factor(p: int, rho: float) -> np.ndarray:
    """Lower-triangular L with L L' equal to the equicorrelation matrix."""
    if p < 1:
        raise ValueError("p must be positive")
    if p > 1 and not (-1.0 / (p - 1) < rho < 1.0):
        raise NotPositiveDefiniteError(
            f"rho = {rho} outside (-1/(p-1), 1) for p = {p}"
        )
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    return np.linalg.cholesky(sigma)


def derive_seed(base_seed: int, index: int) -> int:
    """Independent per-replication seed from a splittable hash of (base, index)."""
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1, np.uint64)[0])


def _standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """N(0,1) variates by inversion; uniforms are kept strictly inside (0,1)."""
    u = rng.integers(1, 1 << 53, size=size).astype(np.float64) / float(1 << 53)
    return ndtri(u)


def generate_dataset(spec: ScenarioSpec, seed: int) -> tuple[Dataset, frozenset[int]]:
    """Draw one dataset for a scenario; identical seeds give identical bits.

    Rows of X are IID N(0, Sigma(rho)); the design block is drawn before the
    noise so the stream layout is part of the determinism contract.
    """
    rng = np.random.default_rng(seed)
    factor = equicorrelated_factor(spec.p, spec.rho)
    z = _standard_normal(rng, (spec.n, spec.p))
    design = z @ factor.T
    eps = spec.noise_sd * _standard_normal(rng, spec.n)
    response = design @ spec.beta0 + eps
    labels = tuple(f"x{j + 1}" for j in range(spec.p))
    return Dataset(design, response, labels), spec.true_irrelevant


def run_replication(
    scenario: ScenarioSpec,
    estimator: EstimatorConfig,
    penalty: PenaltySpec,
    seed: int,
) -> ReplicationOutcome:
    """One seeded draw: generate, fit, build the path, select, score."""
    start = time.perf_counter()
    try:
        data, true_irrelevant = generate_dataset(scenario, seed)
        beta_hat = estimator.fit(data)
        path = build_empirical_path(beta_hat)
        min_signal = np.min(np.abs(scenario.beta0[scenario.beta0 != 0.0]))
        if min_signal <= path.deltas[-1]:
            warnings.warn(
                BetaMinWarning(
                    f"smallest nonzero signal {min_signal:g} does not exceed the "
                    f"finest threshold {path.deltas[-1]:g} (seed {seed})"
                ),
                stacklevel=2,
            )
        result = select_threshold(data, beta_hat, path, penalty)
        fnr, tnr = metrics_fnr_tnr(
            set(result.irrelevant_set), true_irrelevant, scenario.p
        )
    except Exception as exc:
        raise RuntimeError(f"replication with seed {seed} failed: {exc}") from exc
    if tnr is None:
        raise RuntimeError(f"replication with seed {seed}: scenario has no irrelevant columns")
    return ReplicationOutcome(
        seed=seed,
        delta_hat=result.delta_hat,
        fnr=fnr,
        tnr=tnr,
        selected_set=result.irrelevant_set,
        wall_time=time.perf_counter() - start,
    )


def run_scenario(
    scenario: ScenarioSpec,
    estimator: EstimatorConfig,
    penalty: PenaltySpec,
    replications: int,
    base_seed: int,
    workers: int = 1,
) -> AggregateReport:
    """Run seeded replications (serial or thread-fanned) and average them.

    Replication i always uses ``derive_seed(base_seed, i)`` and aggregation
    uses exact summation in index order, so the report is bitwise identical
    for any ``workers`` value.
    """
    if replications < 1:
        raise ValueError("replications must be at least 1")
    seeds = [derive_seed(base_seed, i) for i in range(replications)]

    def one(seed: int) -> ReplicationOutcome:
        return run_replication(scenario, estimator, penalty, seed)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = tuple(pool.map(one, seeds))
    else:
        outcomes = tuple(one(s) for s in seeds)
    return AggregateReport(
        scenario=scenario,
        estimator=estimator,
        penalty=penalty,
        replications=replications,
        base_seed=base_seed,
        mean_delta_hat=math.fsum(o.delta_hat for o in outcomes) / replications,
        mean_fnr_pct=100.0 * math.fsum(o.fnr for o in outcomes) / replications,
        mean_tnr_pct=100.0 * math.fsum(o.tnr for o in outcomes) / replications,
        outcomes=outcomes,
    )
