"""Command-line front end: seeded simulations and CSV variable selection."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import Dataset, interaction_expand, load_csv, standardize
from .reports import MEASURES, write_outcomes_csv, write_report
from .simulation import (
    AggregateReport,
    EstimatorConfig,
    ScenarioSpec,
    run_scenario,
    scenario_s1,
    scenario_s2,
)
from .thresholding import PenaltySpec, build_empirical_path, select_threshold


def _parse_penalties(text: str, argument: str) -> list[PenaltySpec]:
    specs = []
    for token in text.split(","):
        token = token.strip()
        try:
            c_text, r_text = token.split(":")
            specs.append(PenaltySpec(float(c_text), float(r_text), argument=argument))
        except ValueError as exc:
            raise ValueError(f"bad penalty token {token!r} (expected c:r): {exc}") from exc
    suffixes = [_pair_suffix(spec) for spec in specs]
    if len(set(suffixes)) != len(suffixes):
        raise ValueError(f"penalty pairs collide in report file names: {' '.join(suffixes)}")
    return specs


def _parse_lambda(text: str) -> float | str:
    if text == "sqrt_n":
        return "sqrt_n"
    value = float(text)
    if value < 0:
        raise ValueError("ridge lambda must be nonnegative")
    return value


def _load_scenario(token: str, n: int | None, p: int | None,
                   parser: argparse.ArgumentParser) -> ScenarioSpec:
    if token in ("S1", "S2"):
        if n is None or p is None:
            parser.error(f"--n and --p are required with --scenario {token}")
        return scenario_s1(n, p) if token == "S1" else scenario_s2(n, p)
    path = Path(token)
    if not path.exists():
        parser.error(f"--scenario must be S1, S2, or a JSON spec file; {token!r} not found")
    with path.open(encoding="utf-8") as fh:
        raw = json.load(fh)
    beta0 = np.asarray(raw["beta0"], dtype=np.float64)
    if n is None:
        if "n" not in raw:
            parser.error("--n required (not in the scenario spec file)")
        n = int(raw["n"])
    if p is not None and p != beta0.size:
        parser.error(f"--p {p} conflicts with beta0 of length {beta0.size}")
    return ScenarioSpec(
        n=n,
        p=beta0.size,
        beta0=beta0,
        rho=float(raw.get("rho", 0.2)),
        noise_sd=float(raw.get("noise_sd", 1.0)),
        name=str(raw.get("name", path.stem)),
    )


def _estimator_from_args(args) -> EstimatorConfig:
    return EstimatorConfig(
        method=args.estimator,
        ridge_lambda=args.ridge_lambda,
        ar_xi=args.ar_xi,
        ar_steps=args.ar_steps,
    )


def _pair_suffix(spec: PenaltySpec) -> str:
    return f"_c{spec.c:g}_r{spec.r:g}"


def _sided_path(base: Path, spec: PenaltySpec, multiple: bool) -> Path:
    if not multiple:
        return base
    return base.with_name(base.stem + _pair_suffix(spec) + base.suffix)


def cmd_simulate(args, parser) -> int:
    penalties = _parse_penalties(args.penalties, args.penalty_argument)
    scenario = _load_scenario(args.scenario, args.n, args.p, parser)
    estimator = _estimator_from_args(args)
    reports: list[AggregateReport] = []
    for spec in penalties:
        report = run_scenario(
            scenario, estimator, spec, args.reps, args.seed, workers=args.threads
        )
        reports.append(report)
        if args.dump_replications:
            dump = _sided_path(Path(args.dump_replications), spec, len(penalties) > 1)
            write_outcomes_csv(report, dump)
    _print_simulate_table(scenario, estimator, args, reports)
    if args.out:
        write_report(reports, args.out, fmt=args.format)
    return 0


def _print_simulate_table(scenario, estimator, args, reports) -> None:
    pair_headers = [f"({r.penalty.c:g},{r.penalty.r:g})" for r in reports]
    print(
        f"scenario {scenario.name}  estimator {estimator.method}  "
        f"n={scenario.n}  p={scenario.p}  reps={args.reps}  seed={args.seed}"
    )
    width = max(12, *(len(h) + 2 for h in pair_headers))
    print("measure".ljust(12) + "".join(h.rjust(width) for h in pair_headers))
    for label, attr in MEASURES:
        cells = [f"{getattr(r, attr):.4g}" for r in reports]
        print(label.ljust(12) + "".join(c.rjust(width) for c in cells))


def cmd_select(args, parser) -> int:
    penalties = _parse_penalties(args.penalties, args.penalty_argument)
    data = load_csv(args.input, args.response)
    if args.standardize:
        data, _ = standardize(data, include_response=args.standardize_response)
    if args.interactions:
        data, _ = interaction_expand(data)
        if args.standardize:
            data, _ = standardize(data, include_response=False)
    if args.intercept:
        data = Dataset(
            np.hstack([np.ones((data.n_obs, 1)), data.design]),
            data.response,
            ("intercept",) + data.labels,
        )
    estimator = _estimator_from_args(args)
    beta_hat = estimator.fit(data)
    path = build_empirical_path(beta_hat)
    multiple = len(penalties) > 1
    for spec in penalties:
        result = select_threshold(data, beta_hat, path, spec)
        relevant = [data.labels[j] for j in result.relevant_set]
        print(
            f"penalty (c={spec.c:g}, r={spec.r:g}): delta_hat={result.delta_hat:.6g}  "
            f"relevant ({len(relevant)}): {{{', '.join(relevant)}}}"
        )
        if args.out:
            write_report(result, _sided_path(Path(args.out), spec, multiple), fmt=args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshsel",
        description="Variable selection by thresholding regression coefficient estimates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--estimator", choices=["ols", "ridge", "ar"], default="ols",
                        help="initial coefficient estimator (default ols)")
        sp.add_argument("--ridge-lambda", type=_parse_lambda, default="sqrt_n",
                        metavar="LAMBDA",
                        help="ridge penalty; number or 'sqrt_n' (default sqrt_n)")
        sp.add_argument("--ar-xi", type=float, default=1.0,
                        help="adaptive-ridge reweighting strength (default 1)")
        sp.add_argument("--ar-steps", type=int, default=5,
                        help="adaptive-ridge iterations (default 5)")
        sp.add_argument("--penalties", default="0.75:0.4", metavar="C:R[,C:R...]",
                        help="comma list of penalty pairs c:r (default 0.75:0.4)")
        sp.add_argument("--penalty-argument", choices=["dimension", "threshold"],
                        default="dimension",
                        help="drive the penalty by retained-model dimension or by the "
                             "raw threshold value (default dimension)")
        sp.add_argument("--out", help="path for the machine-readable report")
        sp.add_argument("--format", choices=["json", "csv"], default="json",
                        help="report format (default json)")

    sim = sub.add_parser("simulate", help="run seeded Monte Carlo replications")
    sim.add_argument("--scenario", required=True,
                     help="S1, S2, or a JSON scenario spec file")
    sim.add_argument("--n", type=int, help="sample size per replication")
    sim.add_argument("--p", type=int, help="number of covariates")
    sim.add_argument("--reps", type=int, default=100,
                     help="replications per penalty pair (default 100)")
    sim.add_argument("--seed", type=int, default=20240801,
                     help="base seed; replication i uses a hash of (seed, i)")
    sim.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="worker threads for replications (default: all cores); "
                          "results are identical for any value")
    sim.add_argument("--dump-replications", metavar="PATH",
                     help="also write per-replication outcomes to this CSV")
    common(sim)

    sel = sub.add_parser("select", help="select variables from a CSV dataset")
    sel.add_argument("--input", required=True, help="CSV file with a header row")
    sel.add_argument("--response", required=True, help="response column name")
    sel.add_argument("--no-standardize", dest="standardize", action="store_false",
                     help="skip standardization entirely")
    sel.add_argument("--no-standardize-response", dest="standardize_response",
                     action="store_false",
                     help="standardize covariates but leave the response alone")
    sel.add_argument("--interactions", action="store_true",
                     help="append all pairwise products (standardized when "
                          "standardization is on)")
    sel.add_argument("--intercept", action="store_true",
                     help="prepend an all-ones column after standardization; it "
                          "participates in thresholding like any other column")
    common(sel)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "simulate":
            return cmd_simulate(args, parser)
        return cmd_select(args, parser)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
