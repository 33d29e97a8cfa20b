"""Smoke tests: the experiment scripts in scripts/ start and run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from threshsel import Dataset, write_csv

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_prostate_analysis_prints_one_row_per_estimator(tmp_path):
    rng = np.random.default_rng(11)
    design = rng.standard_normal((40, 4))
    response = design @ np.array([1.5, 0.0, 0.8, 0.0]) + rng.standard_normal(40)
    csv_path = tmp_path / "synthetic.csv"
    write_csv(Dataset(design, response, ("a", "b", "c", "d")), csv_path, response_label="y")
    proc = run_script("prostate_analysis.py", "--input", str(csv_path), "--response", "y")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[2:]]
    assert rows == ["ols", "ridge", "ar"]


def test_run_tables_help():
    proc = run_script("run_tables.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--reps" in proc.stdout
