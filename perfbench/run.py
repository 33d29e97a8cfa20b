#!/usr/bin/env python3
"""threshsel benchmark: run one workload in a fresh process and report it.

  python3 perfbench/run.py --workload mc_cells --seed 1 --seconds 28 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 28   # table of all
  python3 perfbench/run.py --smoke                                # quick self-check

Run from any directory of a source tree that holds ``src/threshsel``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json and ``--trace 1`` the per-layer ones.
Timings are reported at a reference machine speed, calibrated around every
measured operation (see ``calibrate.py``). The line before it holds the
details: wall-clock values, tail percentiles, error rate, check failures
and provenance.
Workloads, metrics and what each layer metric should move are described in
``design.json`` beside this file.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator, at_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_cells", "wide_grid", "select_csv")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# wide_grid is the plain serial baseline: one worker and single-threaded BLAS.
SINGLE_BLAS = {"wide_grid"}
SETUP_PROBES = 5
# A run must end within this many seconds.
TIME_LIMIT = 170.0
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import threshsel; "
         "print(time.monotonic())")


def workload_env(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if workload in SINGLE_BLAS:
        env.update({k: "1" for k in THREAD_VARS})
    return env


def setup_probe(env: dict) -> float:
    """Seconds from starting a fresh interpreter until ``import threshsel`` returns."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "src")], env=env,
                         cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - start


def setup_times(env: dict, probes: int) -> list[tuple[float, float]]:
    """(wall-clock, reference-speed) set-up times of ``probes`` fresh interpreters."""
    calibrate = Calibrator()
    try:
        cal = [calibrate()]
        walls = []
        for _ in range(probes):
            walls.append(setup_probe(env))
            cal.append(calibrate())
    finally:
        calibrate.close()
    return [(t, at_reference(t, cal[i], cal[i + 1])) for i, t in enumerate(walls)]


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
                 deadline: float) -> tuple[dict, dict]:
    """Run one workload process; return (result line, details)."""
    env = workload_env(workload)
    setups = setup_times(env, 1 if smoke else SETUP_PROBES)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    own_setup = out.pop("setup_end") - start

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        wanted = spec["per_layer"]
        values = out.pop("per_layer")
    else:
        wanted = spec["end_to_end"]
        values = {key: out.pop(key) for key in ("items_per_s", "op_p50_ms", "op_tail_ms",
                                                "peak_rss_mb")}
        out["wall"]["setup_s"] = statistics.median(t for t, _ in setups)
        values["setup_s"] = statistics.median(r for _, r in setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = out.pop("attempted"), out.pop("failed")
    details = dict(out, seed=seed, trace=trace, setup_samples_s=[t for t, _ in setups],
                   workload_setup_s=own_setup,
                   error_rate=failed / attempted if attempted else 1.0)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, details


def smoke_problems(workload: str, trace: int, result: dict, details: dict) -> list[str]:
    """Every metric emitted, numeric, with its unit; no failed operation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    where = f"{workload} trace={trace}"
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {got}")
    if details["error_rate"] != 0 or not result["correct"]:
        problems.append(f"{where}: error_rate {details['error_rate']}: {details['errors']}")
    if trace:
        # Every per-layer metric belongs to a layer described in design.json.
        strays = [m["name"] for m in wanted if m["name"].split(".")[0] not in design["layers"]]
        if strays:
            problems.append(f"{where}: no layer in design.json for {strays}")
        # Each layer the workload calls must have been traced.
        for layer in design["workloads"][workload]["layers"]:
            probes = design["layers"][layer]["called_when"]
            if not any(result["metrics"].get(p, {}).get("value") for p in probes):
                problems.append(f"{where}: {' / '.join(probes)} zero but {layer} is called")
    return problems


def print_table(rows: list[tuple[str, dict]]) -> None:
    print(f"{'workload':<12} {'metric':<44} {'value':>14}  unit")
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:<12} {name:<44} {metric['value']:>14.6g}  {metric['unit']}")
        print(f"{workload:<12} {'error_rate':<44} "
              f"{result['failed'] / max(result['attempted'], 1):>14.6g}  fraction")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at its smallest size, traced and untraced; "
                             "check that every metric is emitted and nothing failed")
    args = parser.parse_args()
    if not (ROOT / "src" / "threshsel" / "__init__.py").is_file():
        print(f"no threshsel source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("--seed and --seconds must be nonnegative", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT

    if args.smoke:
        problems, rows = [], []
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, details = run_workload(workload, args.seed, 0.0, trace, True,
                                               time.monotonic() + TIME_LIMIT)
                problems += smoke_problems(workload, trace, result, details)
                rows.append((f"{workload}/{trace}", result))
        print_table(rows)
        print("\n".join(problems) if problems else "smoke: every metric emitted, error_rate 0")
        return 1 if problems else 0

    if args.workload == "all":
        rows = []
        for workload in WORKLOADS:
            result, details = run_workload(workload, args.seed, args.seconds, args.trace,
                                           False, time.monotonic() + TIME_LIMIT)
            print(json.dumps({"details": details}))
            rows.append((workload, result))
        print_table(rows)
        return 0 if all(r["correct"] for _, r in rows) else 1

    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                   False, deadline)
    if details.get("errors"):
        print("\n".join(details["errors"]), file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
