"""Output checks: an independent refit oracle and this commit's reference values.

The oracle recomputes the thresholding step from the program's own initial
estimate: the ladder is the distinct nonzero |beta_j| in decreasing order,
the support at a threshold keeps the columns above it (a prefix of the
columns ordered by decreasing |beta_j|), and the refit risk is the mean
squared residual of least squares on that support. Simulation outputs are
checked with one QR of the ordered design, which gives every prefix refit at
once; ``select`` risk profiles are checked value by value against
``np.linalg.lstsq`` refits.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from threshsel import (
    Dataset,
    EstimatorConfig,
    derive_seed,
    generate_dataset,
    scenario_s1,
    scenario_s2,
    standardize,
)

# Refit risks from a different least-squares route agree to ~1e-13 on these
# well-conditioned designs; 1e-9 leaves room for any stable solver (QR,
# Cholesky on the Gram matrix) while still catching a wrong support.
RISK_RTOL = 1e-9
# Two thresholds whose criteria differ by less than this are a tie, and
# either may be selected.
TIE_RTOL = 1e-9


class CheckError(Exception):
    """An output of the program disagrees with the oracle or the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def ladder(beta: np.ndarray):
    """Thresholds, column order by decreasing |beta|, retained count per threshold."""
    mags = np.abs(beta)
    deltas = np.unique(mags)[::-1]
    deltas = deltas[deltas > 0]
    order = np.argsort(-mags, kind="stable")
    retained = np.array([int(np.count_nonzero(mags > d)) for d in deltas])
    return deltas, order, retained


def risks_by_qr(x, y, order, retained) -> np.ndarray:
    """Refit risk of every prefix support from one QR (needs full column rank)."""
    q, _ = np.linalg.qr(x[:, order])
    z = q.T @ y
    resid = y - q @ z
    beyond = np.append(np.cumsum((z * z)[::-1])[::-1], 0.0)
    return (beyond[retained] + resid @ resid) / y.size


def risks_by_lstsq(x, y, order, retained) -> np.ndarray:
    """Refit risk of every prefix support, one ``np.linalg.lstsq`` per support."""
    risks = []
    for m in retained:
        xs = x[:, order[:m]]
        resid = y - xs @ np.linalg.lstsq(xs, y, rcond=None)[0] if m else y
        risks.append(resid @ resid / y.size)
    return np.array(risks)


def penalties(retained, n: int, c: float, r: float) -> np.ndarray:
    """Dimension penalty c (m + 1)^r log(n) / sqrt(n), the CLI default."""
    return c * (retained + 1.0) ** r * math.log(n) / math.sqrt(n)


def _selected_rank(deltas, crit, delta_hat: float) -> int:
    hits = np.nonzero(np.isclose(deltas, delta_hat, rtol=1e-12, atol=0.0))[0]
    require(hits.size == 1, f"delta_hat {delta_hat!r} is not on the oracle ladder")
    k = int(hits[0])
    best = float(crit.min())
    require(crit[k] <= best + TIE_RTOL * abs(best),
            f"threshold {k + 1} selected but the oracle criterion is minimal at "
            f"{int(np.argmin(crit)) + 1}")
    return k


def _pair_key(c: float, r: float) -> str:
    return f"{c:g}:{r:g}"


def parse_pairs(text: str) -> list[tuple[float, float]]:
    return [tuple(float(v) for v in token.split(":")) for token in text.split(",")]


def sided_path(base: Path, c: float, r: float, multiple: bool) -> Path:
    """Where the CLI writes one pair's file when several pairs share a base path."""
    return base.with_name(f"{base.stem}_c{c:g}_r{r:g}{base.suffix}") if multiple else base


def check_simulate(cell, reps: int, seed: int, report: Path, dump: Path, sample: int) -> dict:
    """Check one ``simulate`` invocation; return its per-pair summary.

    The report must match its own replication dump, and replication
    ``sample`` of every pair must match the oracle's selection.
    """
    pairs = parse_pairs(cell.penalties)
    payload = json.loads(report.read_text(encoding="utf-8"))
    require(isinstance(payload, list) and len(payload) == len(pairs),
            f"{cell.label}: expected {len(pairs)} reports")
    spec = (scenario_s1 if cell.scenario == "S1" else scenario_s2)(cell.n, cell.p)
    j = sample % reps
    data, true_irrelevant = generate_dataset(spec, derive_seed(seed, j))
    beta = EstimatorConfig(method=cell.estimator).fit(data).values
    deltas, order, retained = ladder(beta)
    risks = risks_by_qr(data.design, data.response, order, retained)
    true_relevant = set(range(cell.p)) - true_irrelevant
    summary = {}
    for (c, r), rep in zip(pairs, payload):
        expect = {"scenario": cell.scenario, "n": cell.n, "p": cell.p,
                  "estimator": cell.estimator, "penalty_c": c, "penalty_r": r,
                  "replications": reps, "base_seed": seed}
        for key, value in expect.items():
            require(rep.get(key) == value, f"{cell.label}: report {key} is {rep.get(key)!r}")
        with sided_path(dump, c, r, len(pairs) > 1).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == reps, f"{cell.label}: {len(rows)} dumped replications")
        for column, key, scale in (("delta_hat", "mean_delta_hat", 1.0),
                                   ("fnr", "mean_fnr_pct", 100.0),
                                   ("tnr", "mean_tnr_pct", 100.0)):
            mean = scale * math.fsum(float(row[column]) for row in rows) / reps
            require(mean == rep[key], f"{cell.label}: {key} {rep[key]!r} != dump mean {mean!r}")
        row = rows[j]
        crit = risks + penalties(retained, cell.n, c, r)
        k = _selected_rank(deltas, crit, float(row["delta_hat"]))
        irrelevant = sorted(int(v) for v in order[retained[k]:])
        require([int(v) for v in row["selected_set"].split()] == irrelevant,
                f"{cell.label} ({c:g},{r:g}) replication {j}: irrelevant set differs")
        fnr = 1.0 - len(true_relevant - set(irrelevant)) / len(true_relevant)
        tnr = len(set(irrelevant) & true_irrelevant) / len(true_irrelevant)
        require(float(row["fnr"]) == fnr and float(row["tnr"]) == tnr,
                f"{cell.label} ({c:g},{r:g}) replication {j}: fnr/tnr differ")
        summary[_pair_key(c, r)] = [rep["mean_delta_hat"], rep["mean_fnr_pct"],
                                    rep["mean_tnr_pct"]]
    return summary


def check_select(csv_path: Path, response: str, pairs_text: str, out: Path) -> dict:
    """Check every ``select`` output against lstsq refits; return the selections."""
    pairs = parse_pairs(pairs_text)
    with csv_path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    ri = header.index(response)
    keep = [j for j in range(len(header)) if j != ri]
    data, _ = standardize(
        Dataset(table[:, keep], table[:, ri], tuple(header[j] for j in keep)),
        include_response=True,
    )
    beta = EstimatorConfig(method="ar").fit(data).values
    deltas, order, retained = ladder(beta)
    risks = risks_by_lstsq(data.design, data.response, order, retained)
    n, p = data.n_obs, data.n_features
    summary = {}
    for c, r in pairs:
        doc = json.loads(sided_path(out, c, r, len(pairs) > 1).read_text(encoding="utf-8"))
        profile = doc["profile"]
        require(len(profile) == deltas.size, f"({c:g},{r:g}): ladder length {len(profile)}")
        pens = penalties(retained, n, c, r)
        for i, entry in enumerate(profile):
            where = f"({c:g},{r:g}) threshold {i + 1}"
            require(entry["k"] == i + 1 and close(entry["delta"], deltas[i], 1e-12),
                    f"{where}: delta {entry['delta']!r} != {deltas[i]!r}")
            require(entry["n_excluded"] == p - retained[i], f"{where}: n_excluded")
            require(close(entry["risk"], risks[i], RISK_RTOL),
                    f"{where}: risk {entry['risk']!r} != lstsq {risks[i]!r}")
            require(close(entry["penalty"], pens[i], 1e-12), f"{where}: penalty")
            require(close(entry["criterion"], entry["risk"] + entry["penalty"], 1e-12),
                    f"{where}: criterion")
        k = _selected_rank(deltas, risks + pens, doc["delta_hat"])
        require(doc["k_hat"] == k + 1 and doc["delta_hat"] == profile[k]["delta"],
                f"({c:g},{r:g}): k_hat {doc['k_hat']} / delta_hat disagree")
        irrelevant = sorted(int(v) for v in order[retained[k]:])
        require(doc["irrelevant_set"] == irrelevant, f"({c:g},{r:g}): irrelevant set")
        beta_bar = np.array(doc["beta_bar"])
        expected = np.where(np.isin(np.arange(p), irrelevant), 0.0, beta)
        require(np.allclose(beta_bar, expected, rtol=1e-12, atol=0.0), f"({c:g},{r:g}): beta_bar")
        summary[_pair_key(c, r)] = {"k_hat": doc["k_hat"], "delta_hat": doc["delta_hat"],
                                    "irrelevant_set": doc["irrelevant_set"]}
    return summary


def check_reference(got: dict, expected: dict | None, what: str) -> None:
    """Exact equality with the values recorded at the reference commit."""
    require(expected is not None, f"no reference values recorded for {what}")
    require(got == expected, f"{what}: outputs {got} differ from reference {expected}")
