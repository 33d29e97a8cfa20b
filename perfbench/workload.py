"""Run one benchmark workload in this (fresh) process and print its result.

Started by ``run.py`` with the workload's thread environment already set,
so that BLAS reads it when numpy loads. Every operation goes through
``threshsel.cli.main`` in-process. The last line of standard output is one
JSON object: timings, counts, checks and provenance for ``run.py``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import threshsel  # noqa: E402

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import threshsel.cli  # noqa: E402
from calibrate import REFERENCE_S, Calibrator, at_reference  # noqa: E402
from check import CheckError, check_reference, check_select, check_simulate  # noqa: E402
from spans import Tracer, layer_metrics, tail  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"
# The acceptance suite's base seed; the warm-up operation of every run uses
# it so its outputs can be compared with the recorded reference values.
REFERENCE_SEED = 20240801
PAIRS3 = "0.5:0.25,0.75:0.4,1:0.5"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Cell:
    scenario: str
    n: int
    p: int
    estimator: str
    penalties: str

    @property
    def label(self) -> str:
        return f"{self.scenario}-{self.n}x{self.p}-{self.estimator}"


# The acceptance suite's cells: criterion 1 (three pairs), 2, 4 and 3.
MC_CELLS = (
    Cell("S1", 10000, 20, "ols", PAIRS3),
    Cell("S1", 100, 20, "ols", "1:0.5"),
    Cell("S1", 100, 20, "ar", "0.5:0.25"),
    Cell("S2", 1000, 50, "ols", "0.75:0.4"),
)
# The p = 200 end of the size grid and the widest n = 10000 cell.
WIDE_CELLS = (
    Cell("S2", 1000, 200, "ols", "0.75:0.4"),
    Cell("S1", 10000, 50, "ols", "0.75:0.4"),
)
# select_csv input: ten equicorrelated covariates, five S1-like signals.
CSV_BETA = np.array([0.4, 0.8, 1.2, 1.6, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
CSV_ROWS = 30000
CSV_REFERENCE_ROWS = 2000


class Simulate:
    """One operation: every cell once through ``threshsel simulate``."""

    def __init__(self, cells, reps, threads, workdir: Path):
        self.cells, self.reps, self.threads, self.workdir = cells, reps, threads, workdir
        self.items = reps * sum(len(c.penalties.split(",")) for c in cells)

    def run(self, seed: int, call) -> float:
        elapsed = 0.0
        for i, cell in enumerate(self.cells):
            argv = ["simulate", "--scenario", cell.scenario, "--n", str(cell.n),
                    "--p", str(cell.p), "--estimator", cell.estimator,
                    "--penalties", cell.penalties, "--reps", str(self.reps),
                    "--seed", str(seed), "--threads", str(self.threads),
                    "--out", str(self.workdir / f"report{i}.json"),
                    "--dump-replications", str(self.workdir / f"dump{i}.csv")]
            elapsed += call(argv)
        return elapsed

    def check(self, seed: int, index: int) -> dict:
        return {
            cell.label: check_simulate(cell, self.reps, seed, self.workdir / f"report{i}.json",
                                       self.workdir / f"dump{i}.csv", index)
            for i, cell in enumerate(self.cells)
        }


class Select:
    """One operation: ``threshsel select`` over a seeded synthetic CSV."""

    items = len(PAIRS3.split(","))

    def __init__(self, rows: int, workdir: Path):
        self.rows, self.workdir = rows, workdir
        self.out = workdir / "selection.json"
        self.verified: dict[int, tuple[bytes, dict]] = {}

    def csv_path(self, seed: int) -> Path:
        """The seeded input CSV, written on first use."""
        rows = self.rows
        path = self.workdir / f"data{seed}-{rows}.csv"
        if not path.exists():
            p = CSV_BETA.size
            rng = np.random.default_rng(seed)
            factor = np.linalg.cholesky(np.full((p, p), 0.2) + 0.8 * np.eye(p))
            x = rng.standard_normal((rows, p)) @ factor.T
            y = x @ CSV_BETA + rng.standard_normal(rows)
            header = ",".join([f"x{j + 1}" for j in range(p)] + ["y"])
            np.savetxt(path, np.column_stack([x, y]), delimiter=",", fmt="%.17g",
                       header=header, comments="")
        return path

    def run(self, seed: int, call) -> float:
        argv = ["select", "--input", str(self.csv_path(seed)), "--response", "y",
                "--estimator", "ar", "--penalties", PAIRS3, "--out", str(self.out)]
        return call(argv)

    def _outputs(self) -> bytes:
        return b"".join(p.read_bytes() for p in sorted(self.workdir.glob("selection*.json")))

    def check(self, seed: int, index: int) -> dict:
        # Every run of one input must write the same bytes; the first is
        # checked against the oracle, later ones against the first.
        outputs = self._outputs()
        if seed in self.verified:
            first, summary = self.verified[seed]
            if outputs != first:
                raise CheckError("select outputs differ between runs on the same input")
            return summary
        summary = check_select(self.csv_path(seed), "y", PAIRS3, self.out)
        self.verified[seed] = (outputs, summary)
        return summary


def build(workload: str, size: str, workdir: Path):
    """The workload's operation at size "full", "smoke" (smallest) or "reference"."""
    if workload == "mc_cells":
        # Four replications per pair give each of the two workers a queue;
        # reference.json holds the two-replication warm-up's outputs.
        return Simulate(MC_CELLS, {"smoke": 1, "reference": 2, "full": 4}[size], 2, workdir)
    if workload == "wide_grid":
        return Simulate(WIDE_CELLS, 1, 1, workdir)
    return Select(CSV_ROWS if size == "full" else CSV_REFERENCE_ROWS, workdir)


def op_seed(workload: str, seed: int, index: int) -> int:
    # select_csv reads one CSV per run, written before timing starts.
    return seed if workload == "select_csv" else seed * 1_000_000 + index


class Runner:
    """Closed loop of operations; times them and counts failures."""

    def __init__(self, op, calibrate):
        self.op = op
        self.tracer: Tracer | None = None  # set for the traced phase
        self.attempted = self.failed = 0
        self.traced_ops = 0
        self.errors: list[str] = []
        self.calibrate = calibrate
        self.calibrations: list[float] = []

    def call(self, argv) -> float:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    code = threshsel.cli.main(argv)
                else:
                    code = self.tracer.call("cli.main", threshsel.cli.main, (argv,))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"threshsel {argv[0]} exited with {code}")
        return elapsed

    def once(self, op, seed: int, index: int):
        """Run and check one operation; (latency, summary) or None if it failed."""
        self.attempted += 1
        try:
            latency = op.run(seed, self.call)
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                summary = op.check(seed, index)
        except Exception:  # any failure of the program or its outputs counts
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=2).strip().splitlines()[-1])
            return None
        return latency, summary

    def loop(self, workload: str, seed: int, seconds: float, tracer: Tracer | None = None):
        """Operations back to back until their summed latency reaches ``seconds``.

        The machine's speed is calibrated between operations. Returns the
        (wall-clock, reference-speed) latencies of untraced and of traced
        operations. With a tracer, every other operation is traced, so both
        halves see the same machine and the ratio of their throughputs is
        the tracing overhead.
        """
        plain, traced = [], []
        spent = 0.0
        index = 1
        deadline = time.monotonic() + 2 * seconds + 60
        while time.monotonic() < deadline:
            self.calibrations.append(self.calibrate())
            self.tracer = tracer if index % 2 == 0 else None
            if self.tracer:
                tracer.install()
                self.traced_ops += 1
            try:
                done = self.once(self.op, op_seed(workload, seed, index), index)
            finally:
                if self.tracer:
                    tracer.restore()
            index += 1
            if done is not None:
                (traced if self.tracer else plain).append((done[0], len(self.calibrations)))
                spent += done[0]
            elif not plain and not traced and index > 3:
                break  # the operation keeps failing
            if spent >= seconds and plain and (traced or not tracer):
                break
        self.tracer = None
        self.calibrations.append(self.calibrate())
        cal = self.calibrations

        def timed(ops):
            return [(t, at_reference(t, cal[k - 1], cal[k])) for t, k in ops]

        return timed(plain), timed(traced)


def throughput(op, latencies) -> float:
    return statistics.median(op.items / t for t in latencies) if latencies else 0.0


def summary(op, latencies) -> dict:
    """The end-to-end metrics of a run's operation latencies (seconds)."""
    value, percentile, beyond = tail(latencies) if latencies else (0.0, 0.0, 0)
    return {"items_per_s": throughput(op, latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
            "op_tail_ms": 1e3 * value,
            "op_tail": {"percentile": percentile, "samples": len(latencies), "beyond": beyond}}


def provenance(seed: int, threads) -> dict:
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the source hash identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "threshsel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "threshsel": threshsel.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "threshsel_threads": threads,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["mc_cells", "wide_grid", "select_csv"],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size, one timed operation per phase")
    args = parser.parse_args()
    if Path(threshsel.__file__).resolve().parent != ROOT / "src" / "threshsel":
        print(f"threshsel imported from {threshsel.__file__}, not this tree", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    op = build(args.workload, "smoke" if args.smoke else "full", workdir)
    threads = getattr(op, "threads", None)
    calibrator = Calibrator(threads or 1)
    try:
        runner = Runner(op, calibrator)
        # Inputs for the timed operations are written before timing starts.
        if args.workload == "select_csv":
            op.csv_path(args.seed)

        # Warm-up: one untimed operation on the reference seed, compared
        # exactly with the values recorded in reference.json.
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        done = runner.once(build(args.workload, "reference", workdir), REFERENCE_SEED, 0)
        if done is not None:
            try:
                check_reference(done[1], reference.get(args.workload), args.workload)
            except CheckError as exc:
                runner.failed += 1
                runner.errors.append(f"reference: {exc}")
        if args.workload == "select_csv":
            runner.once(op, args.seed, 0)  # warms the page cache for the timed input

        seconds = 0.0 if args.smoke else args.seconds
        result = {"workload": args.workload, "setup_end": IMPORTED}
        if args.trace:
            tracer = Tracer()
            plain, traced = runner.loop(args.workload, args.seed, seconds, tracer)
            metrics, details = layer_metrics(tracer.spans, runner.traced_ops)
            traced_ips = throughput(op, [r for _, r in traced])
            metrics["trace.items_per_s"] = traced_ips
            untraced_ips = throughput(op, [r for _, r in plain])
            metrics["trace.overhead"] = untraced_ips / traced_ips - 1 if traced_ips else 0.0
            details["missing_sites"] = tracer.missing
            result.update(per_layer=metrics, trace=details, ops=runner.traced_ops)
        else:
            timed, _ = runner.loop(args.workload, args.seed, seconds)
            wall, scaled = [t for t, _ in timed], [r for _, r in timed]
            result.update(summary(op, scaled), wall=summary(op, wall), ops=len(timed),
                          items_per_op=op.items,
                          latencies_ms=[round(1e3 * t, 3) for t in wall])
        result.update(speed_factor=REFERENCE_S / statistics.median(runner.calibrations),
                      calibration_helpers=len(calibrator.procs),
                      calibration_ms=[round(1e3 * t, 3) for t in runner.calibrations])
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            errors=runner.errors[:5],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            provenance=provenance(args.seed, threads),
        )
    finally:
        calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only once no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
