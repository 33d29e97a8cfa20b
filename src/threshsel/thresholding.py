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

# A prefix refit is read off the shared QR only while the prefix's condition
# bound stays this factor below the point where np.linalg.lstsq would start
# truncating singular values; wider prefixes are refit one by one.
QR_RCOND_MARGIN = 1e-6


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
        risks = np.array([e.risk for e in self.entries])
        pens = np.array([e.penalty for e in self.entries])
        if np.any(risks[1:] > risks[:-1] + 1e-10):
            raise ValueError("risks must be nonincreasing along the path")
        if np.any(pens[1:] <= pens[:-1]):
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
    ``mode`` and ``h`` are validated as in :func:`t_threshold`.
    """
    if mode not in ("step", "spline"):
        raise ValueError("mode must be 'step' or 'spline'")
    if h <= 0:
        raise ValueError("h must be positive")
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


def _prefix_rss(
    design: np.ndarray, response: np.ndarray, order: np.ndarray, top: int
) -> np.ndarray:
    """Residual sums of squares of the least-squares refits on ``order[:m]``.

    One Householder QR of ``[X[:, order[:w]], y]`` with w = min(top, n - 1)
    gives every prefix at once: the last column of R holds Q'y followed by
    the residual norm, so RSS(m) = sum_{i >= m} R[i, w]^2 (Golub & Van Loan,
    Matrix Computations, section 5.3). Q is never formed.

    The result holds RSS(m) for m = 0, ..., g only, where g is the widest
    prefix whose condition bound ||R_m||_F ||R_m^-1||_F stays below
    ``QR_RCOND_MARGIN / (eps * n)``. The bound is at least the 2-norm
    condition number and grows with m, so no returned prefix is one that
    ``np.linalg.lstsq`` (cutoff ``eps * n``) would treat as rank deficient.
    """
    n = response.shape[0]
    width = min(top, n - 1)
    r = np.linalg.qr(np.column_stack([design[:, order[:width]], response]), mode="r")
    limit = QR_RCOND_MARGIN / (np.finfo(np.float64).eps * n)
    # A pivot negligible against an earlier one already breaks the bound;
    # cutting there first keeps zero pivots out of the inverse.
    diag = np.abs(np.diagonal(r)[:width])
    good = np.count_nonzero(
        np.logical_and.accumulate(diag * limit > np.maximum.accumulate(diag))
    )
    rx = r[:good, :good]
    with np.errstate(over="ignore", invalid="ignore"):
        inv = np.linalg.inv(rx)
        kappa = np.sqrt(np.cumsum((rx * rx).sum(axis=0)) * np.cumsum((inv * inv).sum(axis=0)))
    good = np.count_nonzero(np.logical_and.accumulate(kappa < limit))
    squares = r[:, width] ** 2
    return np.cumsum(squares[::-1])[::-1][: good + 1]


def risk_profile(
    data: Dataset,
    beta_hat: CoefficientVector,
    path: ThresholdPath,
    spec: PenaltySpec,
) -> RiskProfile:
    """Evaluate risk, penalty, and criterion at every threshold of a path.

    The supports are nested prefixes of the columns ordered by decreasing
    |beta_j|, so the refit risks come from one QR (:func:`_prefix_rss`).
    Only prefixes too close to rank deficiency for that are refit one by one
    with :func:`least_squares_on_support`, which warns as usual.
    """
    mags = np.abs(beta_hat.values)
    order = np.argsort(-mags, kind="stable")
    retained = mags.size - np.searchsorted(np.sort(mags), path.deltas, side="right")
    n = data.n_obs
    rss = _prefix_rss(data.design, data.response, order, int(retained[-1]))
    entries = []
    for delta, m in zip(path.deltas.tolist(), retained.tolist()):
        if m < rss.size:
            risk = float(rss[m]) / n
        else:
            risk = least_squares_on_support(data, Support(np.sort(order[:m]).tolist())).risk
        penalty = _penalty_at(delta, m, n, spec)
        entries.append(
            ProfileEntry(
                delta=delta,
                risk=risk,
                penalty=penalty,
                criterion=risk + penalty,
                excluded=tuple(np.flatnonzero(mags <= delta).tolist()),
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
