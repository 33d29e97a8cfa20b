"""Machine-speed calibration: a fixed task timed in a process of its own.

On a shared host the same work can take 1.5 times longer from one second to
the next. So the benchmark times a fixed task (interpreter loops, float
parsing and three least-squares solves) right before and right after every
measured operation, and reports each operation's duration at a reference
speed: duration x REFERENCE_S / (mean of the two task times around it).
Each task time is the mean of REPEATS runs.

The task runs in a helper process (this file run as a script) with
single-threaded BLAS, in an environment built here rather than inherited.
It runs no threshsel code and shares no thread pool, BLAS state or
environment with the process being measured, so a change to the program
cannot change its time: only the machine can. The measured process waits
idle while the helper runs. The helper answers each line on its standard
input with the task's duration in seconds and stops at end of input.
"""

import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path

# Task time that defines the reference speed (the task takes about this long
# on an idle core of the 2-vCPU Xeon guest the benchmark was tuned on).
REFERENCE_S = 0.025
# Task runs per calibration, averaged: one run catches the machine in one of
# its fast or slow moments, several runs average over them as an operation does.
REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Calibrator:
    """Starts ``width`` helpers; each call returns their mean task time in seconds.

    A workload that keeps several cores busy is calibrated with as many
    helpers running the task at once, so the calibration sees the same
    cores the operation does.
    """

    def __init__(self, width: int = 1):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env.update({k: "1" for k in THREAD_VARS})
        here = Path(__file__).resolve()
        self.procs = []
        for _ in range(width):
            self.procs.append(subprocess.Popen(
                [sys.executable, str(here)], env=env, cwd=here.parent,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))

    def __call__(self) -> float:
        for proc in self.procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = []
        for proc in self.procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"calibration process exited with {proc.wait()}")
            times.append(float(line))
        return sum(times) / len(times)

    def close(self) -> None:
        for proc in self.procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def at_reference(duration: float, before: float, after: float) -> float:
    """``duration`` at reference speed, from the task times around it."""
    return duration * 2.0 * REFERENCE_S / (before + after)


def task(strings, a, b, lstsq) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    [float(v) for v in strings]
    for _ in range(3):
        lstsq(a, b, rcond=None)
    return time.perf_counter() - start


def main() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    strings = [repr(v) for v in rng.standard_normal(20000).tolist()]
    a, b = rng.standard_normal((1000, 100)), rng.standard_normal(1000)
    for _ in sys.stdin:
        times = [task(strings, a, b, np.linalg.lstsq) for _ in range(REPEATS)]
        print(repr(sum(times) / REPEATS), flush=True)


if __name__ == "__main__":
    main()
