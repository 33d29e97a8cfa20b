#!/usr/bin/env python3
"""Reproduce the benchmark selection tables over the (n, p, estimator) grid.

Runs the S1/S2 scenarios for OLS at every (n, p) cell, plus the ridge and
adaptive-ridge comparisons at their reference cells, averaging the selected
threshold, FNR, and TNR over seeded replications. Writes one CSV per table
and prints progress.

Usage:
  python scripts/run_tables.py --reps 100 --seed 20240801 --out-dir tables/
  python scripts/run_tables.py --reps 20 --quick   # skip the n=10000 cells
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from threshsel import EstimatorConfig, PenaltySpec, run_scenario, scenario_s1, scenario_s2
from threshsel.reports import aggregate_table_rows, write_report

PAIRS = [PenaltySpec(0.5, 0.25), PenaltySpec(0.75, 0.4), PenaltySpec(1.0, 0.5)]
GRID = [(100, 20), (1000, 20), (10000, 20), (100, 50), (1000, 50), (10000, 50)]


def run_block(name, scenario_fn, cells, estimators, reps, seed, threads):
    reports = []
    for n, p in cells:
        scenario = scenario_fn(n, p)
        for method in estimators:
            t0 = time.time()
            cell_reports = run_scenario(
                scenario, EstimatorConfig(method=method), PAIRS,
                replications=reps, base_seed=seed, workers=threads,
            )
            elapsed = time.time() - t0
            reports.extend(cell_reports)
            for rep in cell_reports:
                print(
                    f"[{name}] {method} n={n} p={p} (c={rep.penalty.c},r={rep.penalty.r}): "
                    f"delta={rep.mean_delta_hat:.4f} fnr={rep.mean_fnr_pct:.1f} "
                    f"tnr={rep.mean_tnr_pct:.1f} ({elapsed:.1f}s for the cell)",
                    flush=True,
                )
    return reports


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--threads", type=int, default=1,
                        help="replication worker threads (default 1)")
    parser.add_argument("--out-dir", default="tables")
    parser.add_argument("--quick", action="store_true",
                        help="skip the n=10000 grid cells")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = [(n, p) for n, p in GRID if not (args.quick and n == 10000)]

    blocks = [
        ("s1_ols", scenario_s1, grid, ["ols"]),
        ("s2_ols", scenario_s2, grid, ["ols"]),
        ("s1_n100_estimators", scenario_s1, [(100, 20)], ["ols", "ridge", "ar"]),
        ("s2_n1000_estimators", scenario_s2, [(1000, 50)], ["ols", "ridge", "ar"]),
    ]
    for name, scenario_fn, cells, estimators in blocks:
        reports = run_block(name, scenario_fn, cells, estimators,
                            args.reps, args.seed, args.threads)
        path = out_dir / f"{name}.csv"
        write_report(reports, path, fmt="csv")
        print(f"wrote {path} ({len(aggregate_table_rows(reports)) - 1} rows)")


if __name__ == "__main__":
    main()
