"""Bit-stable serialization of selection results and simulation reports."""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Sequence

from .simulation import AggregateReport
from .thresholding import SelectionResult

MEASURES = (
    ("delta_hat", "mean_delta_hat"),
    ("fnr_pct", "mean_fnr_pct"),
    ("tnr_pct", "mean_tnr_pct"),
)


def risk_profile_rows(result: SelectionResult) -> list[list[str]]:
    """CSV rows (header first) mirroring the JSON report's ``profile`` entries."""
    profile = result.to_dict()["profile"]
    return [list(profile[0])] + [[repr(v) for v in entry.values()] for entry in profile]


def aggregate_table_rows(reports: Sequence[AggregateReport]) -> list[list[str]]:
    """CSV rows in the measure / n / p layout, one column per penalty pair.

    Reports sharing (scenario, estimator, n, p) are grouped into one row per
    measure; the penalty pairs become columns in first-seen order.
    """
    pairs: list[tuple[float, float]] = []
    for rep in reports:
        pair = (rep.penalty.c, rep.penalty.r)
        if pair not in pairs:
            pairs.append(pair)
    groups: dict[tuple, dict[tuple[float, float], AggregateReport]] = {}
    for rep in reports:
        key = (rep.scenario.name, rep.estimator.method, rep.scenario.n, rep.scenario.p)
        groups.setdefault(key, {})[(rep.penalty.c, rep.penalty.r)] = rep
    header = ["measure", "scenario", "estimator", "n", "p"] + [
        f"c={c},r={r}" for c, r in pairs
    ]
    rows = [header]
    for measure, attr in MEASURES:
        for key, by_pair in groups.items():
            name, method, n, p = key
            cells = [
                repr(getattr(by_pair[pair], attr)) if pair in by_pair else ""
                for pair in pairs
            ]
            rows.append([measure, name, method, str(n), str(p)] + cells)
    return rows


def write_report(
    result: SelectionResult | AggregateReport | Sequence[AggregateReport],
    path: str | Path,
    fmt: str = "json",
) -> None:
    """Persist a selection result or aggregate report(s) as JSON or CSV.

    Output is byte-stable for identical inputs: JSON keys are in fixed order
    and floats serialize via repr.
    """
    path = Path(path)
    if fmt not in ("json", "csv"):
        raise ValueError("fmt must be 'json' or 'csv'")
    try:
        if isinstance(result, SelectionResult):
            if fmt == "json":
                _dump_json(result.to_dict(), path)
            else:
                _dump_csv(risk_profile_rows(result), path)
            return
        reports = [result] if isinstance(result, AggregateReport) else list(result)
        if fmt == "json":
            payload = [r.to_dict() for r in reports]
            _dump_json(payload[0] if isinstance(result, AggregateReport) else payload, path)
        else:
            _dump_csv(aggregate_table_rows(reports), path)
    except OSError as exc:
        raise OSError(f"could not write report to {path}: {exc}") from exc


def write_outcomes_csv(report: AggregateReport, path: str | Path) -> None:
    """Audit dump of per-replication outcomes for one aggregate report."""
    rows = [["replication", "seed", "delta_hat", "fnr", "tnr", "selected_set", "wall_time"]]
    for i, o in enumerate(report.outcomes):
        rows.append(
            [str(i), str(o.seed), repr(o.delta_hat), repr(o.fnr), repr(o.tnr),
             " ".join(str(j) for j in o.selected_set), repr(o.wall_time)]
        )
    _dump_csv(rows, Path(path))


def _dump_json(payload, path: Path) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _dump_csv(rows: list[list[str]], path: Path) -> None:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    _write_text(path, buf.getvalue())


def _write_text(path: Path, text: str) -> None:
    """Overwrite ``path`` in place, truncating after the write, not before.

    Opening with ``"w"`` truncates a just-written file to zero first; on ext4
    (``auto_da_alloc``) that forces its writeback on close, and the next
    truncate waits for it. Rewriting in place keeps links and permissions.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()
