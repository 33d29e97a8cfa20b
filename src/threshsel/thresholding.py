"""Threshold paths, thresholded risks, penalties, and threshold selection.

The selection procedure walks a strictly decreasing ladder of candidate
thresholds, refits least squares on the coefficients surviving each
threshold, adds a complexity penalty, and keeps the threshold minimizing the
penalized risk. Coefficients at or below the chosen threshold are declared
irrelevant and zeroed in the returned hard-thresholded estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .estimators import CoefficientVector, Support, least_squares_on_support

# Penalty arguments understood by PenaltySpec. "dimension" scales the penalty
# by the retained-model size, which is what makes selection consistent on the
# benchmark scenarios; "threshold" uses the raw threshold value c/delta^r.
PENALTY_ARGUMENTS = ("dimension", "threshold")


class AllZeroError(ValueError):
    """Every coefficient estimate is zero, so no threshold path exists."""


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty configuration: strength c, curvature r, and what drives it."""

    c: float
    r: float
    argument: str = "dimension"

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.argument not in PENALTY_ARGUMENTS:
            raise ValueError(f"argument must be one of {PENALTY_ARGUMENTS}")


@dataclass(frozen=True)
class ThresholdPath:
    """Strictly decreasing, finite, positive candidate thresholds."""

    deltas: np.ndarray

    def __post_init__(self):
        deltas = np.asarray(self.deltas, dtype=np.float64)
        if deltas.ndim != 1 or deltas.size == 0:
            raise ValueError("deltas must be a nonempty 1-d vector")
        if not np.all(np.isfinite(deltas)) or deltas[-1] <= 0:
            raise ValueError("all thresholds must be finite and positive")
        if np.any(np.diff(deltas) >= 0):
            raise ValueError("thresholds must be strictly decreasing")
        object.__setattr__(self, "deltas", deltas)

    def __len__(self) -> int:
        return self.deltas.size


@dataclass(frozen=True)
class ProfileEntry:
    delta: float
    risk: float
    penalty: float
    criterion: float
    excluded: tuple[int, ...]


@dataclass(frozen=True)
class RiskProfile:
    """Per-threshold risks, penalties, and criteria along a path."""

    entries: tuple[ProfileEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("profile must have at least one entry")
        risks = [e.risk for e in self.entries]
        pens = [e.penalty for e in self.entries]
        for a, b in zip(risks, risks[1:]):
            if b > a + 1e-10:
                raise ValueError("risks must be nonincreasing along the path")
        for a, b in zip(pens, pens[1:]):
            if b <= a:
                raise ValueError("penalties must be strictly increasing along the path")

    def __len__(self) -> int:
        return len(self.entries)

    def criteria(self) -> np.ndarray:
        return np.array([e.criterion for e in self.entries])

    def selected_index(self) -> int:
        """1-based rank of the smallest criterion; ties break toward rank 1."""
        return int(np.argmin(self.criteria())) + 1


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of threshold selection.

    ``k_hat`` is the 1-based rank of the chosen threshold along the path;
    ``irrelevant_set`` holds 0-based column indices; ``beta_bar`` is the
    initial estimate with the irrelevant coordinates zeroed.
    """

    k_hat: int
    delta_hat: float
    irrelevant_set: tuple[int, ...]
    beta_bar: np.ndarray
    profile: RiskProfile

    def __post_init__(self):
        beta_bar = np.asarray(self.beta_bar, dtype=np.float64)
        if not 1 <= self.k_hat <= len(self.profile):
            raise ValueError("k_hat out of range")
        excluded = set(self.irrelevant_set)
        if any(beta_bar[j] != 0.0 for j in excluded):
            raise ValueError("beta_bar must be zero on the irrelevant set")
        object.__setattr__(self, "beta_bar", beta_bar)
        object.__setattr__(self, "irrelevant_set", tuple(sorted(excluded)))

    @property
    def relevant_set(self) -> tuple[int, ...]:
        excluded = set(self.irrelevant_set)
        return tuple(j for j in range(self.beta_bar.shape[0]) if j not in excluded)

    def to_dict(self) -> dict:
        """JSON-ready document with a fixed key order."""
        return {
            "k_hat": self.k_hat,
            "delta_hat": self.delta_hat,
            "irrelevant_set": list(self.irrelevant_set),
            "beta_bar": [float(v) for v in self.beta_bar],
            "profile": [
                {
                    "k": i + 1,
                    "delta": e.delta,
                    "risk": e.risk,
                    "penalty": e.penalty,
                    "criterion": e.criterion,
                    "n_excluded": len(e.excluded),
                }
                for i, e in enumerate(self.profile.entries)
            ],
        }


def tau_spline(b: float, delta: float, h: float) -> float:
    """Four-piece cubic rising from 0 at ``delta`` to 1 at ``delta + h``."""
    if delta <= 0 or h <= 0:
        raise ValueError("delta and h must be positive")
    if b <= delta:
        return 0.0
    if b <= delta + h / 2:
        return 4.0 / h**3 * (b - delta) ** 3
    if b < delta + h:
        return 4.0 / h**3 * (b - delta - h) ** 3 + 1.0
    return 1.0


def t_threshold(b: float, delta: float, h: float = 1e-6, mode: str = "step") -> float:
    """Thresholding weight of a coefficient: step cutoff or cubic-spline ramp.

    Both modes vanish exactly on |b| <= delta; the spline ramps to 1 over
    (delta, delta + h) while the step jumps immediately.
    """
    if mode == "step":
        return 0.0 if abs(b) <= delta else 1.0
    if mode == "spline":
        return tau_spline(abs(b), delta, h)
    raise ValueError("mode must be 'step' or 'spline'")


def build_empirical_path(beta_hat: CoefficientVector) -> ThresholdPath:
    """Candidate thresholds = distinct nonzero |beta_hat_j|, sorted decreasing.

    Exact duplicates collapse to one threshold; exact zeros contribute no
    threshold (a zero threshold is never a valid candidate). Raises
    :class:`AllZeroError` when every coefficient is zero.
    """
    magnitudes = np.abs(beta_hat.values)
    deltas = np.unique(magnitudes)[::-1]
    deltas = deltas[deltas > 0]
    if deltas.size == 0:
        raise AllZeroError("all coefficient estimates are zero")
    return ThresholdPath(deltas)


def support_at_threshold(
    beta_hat: CoefficientVector, delta: float
) -> tuple[tuple[int, ...], Support]:
    """Split columns at a threshold: excluded = {j : |beta_j| <= delta}.

    The boundary is inclusive on the excluded side.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    magnitudes = np.abs(beta_hat.values)
    excluded = tuple(int(j) for j in np.nonzero(magnitudes <= delta)[0])
    retained = Support(tuple(int(j) for j in np.nonzero(magnitudes > delta)[0]))
    return excluded, retained


def min_thresholded_risk(
    data: Dataset,
    beta_hat: CoefficientVector,
    delta: float,
    mode: str = "step",
    h: float = 1e-6,
) -> float:
    """Minimum mean squared error after thresholding at ``delta``.

    Columns with a positive thresholding weight span the same space whether
    the weight is fractional (spline) or unit (step), so the minimum equals
    the restricted least-squares risk on {j : |beta_j| > delta} in both modes.
    """
    _, retained = support_at_threshold(beta_hat, delta)
    return least_squares_on_support(data, retained).risk


def penalty_value(delta: float, n: int, spec: PenaltySpec) -> float:
    """Threshold-argument penalty (c / delta^r) * log(n) / sqrt(n)."""
    if delta <= 0:
        raise ValueError("delta must be positive (the penalty diverges at zero)")
    if n < 2:
        raise ValueError("n must be at least 2")
    return (spec.c / delta**spec.r) * math.log(n) / math.sqrt(n)


def dimension_penalty(n_retained: int, n: int, spec: PenaltySpec) -> float:
    """Dimension-argument penalty c * (m + 1)^r * log(n) / sqrt(n).

    ``m`` is the retained-model size; the +1 counts the noise-variance
    parameter so the empty model still carries a positive penalty.
    """
    if n_retained < 0:
        raise ValueError("n_retained must be nonnegative")
    if n < 2:
        raise ValueError("n must be at least 2")
    return spec.c * (n_retained + 1) ** spec.r * math.log(n) / math.sqrt(n)


def _penalty_at(delta: float, n_retained: int, n: int, spec: PenaltySpec) -> float:
    if spec.argument == "dimension":
        return dimension_penalty(n_retained, n, spec)
    return penalty_value(delta, n, spec)


def risk_profile(
    data: Dataset,
    beta_hat: CoefficientVector,
    path: ThresholdPath,
    spec: PenaltySpec,
) -> RiskProfile:
    """Evaluate risk, penalty, and criterion at every threshold of a path."""
    entries = []
    for delta in path.deltas:
        excluded, retained = support_at_threshold(beta_hat, float(delta))
        risk = least_squares_on_support(data, retained).risk
        penalty = _penalty_at(float(delta), len(retained), data.n_obs, spec)
        entries.append(
            ProfileEntry(
                delta=float(delta),
                risk=risk,
                penalty=penalty,
                criterion=risk + penalty,
                excluded=excluded,
            )
        )
    return RiskProfile(tuple(entries))


def select_threshold(
    data: Dataset,
    beta_hat: CoefficientVector,
    path: ThresholdPath,
    spec: PenaltySpec,
) -> SelectionResult:
    """Pick the threshold minimizing risk + penalty; ties go to the larger threshold.

    Returns the chosen rank, threshold, irrelevant set, and the
    hard-thresholded estimate (initial coefficients zeroed on the
    irrelevant set).
    """
    profile = risk_profile(data, beta_hat, path, spec)
    k_hat = profile.selected_index()
    entry = profile.entries[k_hat - 1]
    beta_bar = beta_hat.values.copy()
    beta_bar[list(entry.excluded)] = 0.0
    return SelectionResult(
        k_hat=k_hat,
        delta_hat=entry.delta,
        irrelevant_set=entry.excluded,
        beta_bar=beta_bar,
        profile=profile,
    )


def metrics_fnr_tnr(
    selected_irrelevant: set[int] | frozenset[int],
    true_irrelevant: set[int] | frozenset[int],
    p: int,
) -> tuple[float, float | None]:
    """False negative rate and true negative rate of a selected irrelevant set.

    FNR is the fraction of truly relevant columns wrongly excluded; TNR the
    fraction of truly irrelevant columns correctly excluded. TNR is ``None``
    (not applicable) when there are no truly irrelevant columns.
    """
    selected_irrelevant = frozenset(selected_irrelevant)
    true_irrelevant = frozenset(true_irrelevant)
    universe = frozenset(range(p))
    if not selected_irrelevant <= universe or not true_irrelevant <= universe:
        raise ValueError("index sets must be subsets of range(p)")
    true_relevant = universe - true_irrelevant
    if not true_relevant:
        raise ValueError("at least one truly relevant column is required for FNR")
    selected_relevant = universe - selected_irrelevant
    fnr = 1.0 - len(selected_relevant & true_relevant) / len(true_relevant)
    tnr = (
        len(selected_irrelevant & true_irrelevant) / len(true_irrelevant)
        if true_irrelevant
        else None
    )
    return fnr, tnr
