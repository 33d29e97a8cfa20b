"""CLI behavior: flags, exit codes, determinism, selection workflows."""

import json

import numpy as np
import pytest

from threshsel.cli import main
from threshsel import Dataset, write_csv


def run_cli(args):
    return main(args)


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["--help"])
        assert info.value.code == 0

    @pytest.mark.parametrize("sub", ["simulate", "select"])
    def test_subcommand_help_documents_flags(self, capsys, sub):
        with pytest.raises(SystemExit) as info:
            run_cli([sub, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for flag in ["--estimator", "--ridge-lambda", "--ar-xi", "--ar-steps",
                     "--penalties", "--penalty-argument", "--out", "--format"]:
            assert flag in text
        if sub == "simulate":
            for flag in ["--scenario", "--n", "--p", "--reps", "--seed",
                         "--threads", "--dump-replications"]:
                assert flag in text
        else:
            for flag in ["--input", "--response", "--no-standardize",
                         "--no-standardize-response", "--interactions",
                         "--intercept"]:
                assert flag in text


class TestSimulate:
    def test_missing_n_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["simulate", "--scenario", "S1", "--p", "20"])
        assert info.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_small_run_outputs(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        dump = tmp_path / "reps.csv"
        code = run_cli([
            "simulate", "--scenario", "S1", "--n", "100", "--p", "20",
            "--reps", "5", "--seed", "9", "--penalties", "0.5:0.25,1:0.5",
            "--out", str(out), "--format", "json",
            "--dump-replications", str(dump), "--threads", "1",
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "delta_hat" in table and "tnr_pct" in table and "(0.5,0.25)" in table
        docs = json.loads(out.read_text())
        assert len(docs) == 2
        assert docs[0]["replications"] == 5
        assimilated = {(d["penalty_c"], d["penalty_r"]) for d in docs}
        assert assimilated == {(0.5, 0.25), (1.0, 0.5)}
        assert dump.with_name("reps_c0.5_r0.25.csv").exists()
        assert dump.with_name("reps_c1_r0.5.csv").exists()

    def test_byte_identical_runs_and_threads(self, tmp_path, capsys):
        args = ["simulate", "--scenario", "S2", "--n", "120", "--p", "20",
                "--reps", "6", "--seed", "77", "--penalties", "0.75:0.4",
                "--format", "csv"]
        paths = [tmp_path / f"r{i}.csv" for i in range(3)]
        assert run_cli(args + ["--out", str(paths[0]), "--threads", "1"]) == 0
        assert run_cli(args + ["--out", str(paths[1]), "--threads", "1"]) == 0
        assert run_cli(args + ["--out", str(paths[2]), "--threads", "4"]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_custom_scenario_file(self, tmp_path, capsys):
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps({
            "name": "toy", "beta0": [1.5, 0.0, 0.0, 0.8, 0.0], "rho": 0.1,
            "noise_sd": 0.5,
        }))
        code = run_cli([
            "simulate", "--scenario", str(spec_file), "--n", "200",
            "--reps", "3", "--seed", "5", "--penalties", "1:0.5",
        ])
        assert code == 0
        assert "toy" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["simulate", "--scenario", "S9", "--n", "100", "--p", "20"])
        assert info.value.code == 2

    def test_bad_penalty_token_exits_2(self, capsys):
        code = run_cli(["simulate", "--scenario", "S1", "--n", "100", "--p", "20",
                        "--reps", "2", "--penalties", "banana"])
        assert code == 2

    @pytest.mark.parametrize("penalties", ["0.5:0.25,0.5000001:0.25", "1:0.5,1:0.5"])
    def test_colliding_penalty_pairs_exit_2(self, tmp_path, capsys, penalties):
        dump = tmp_path / "d.csv"
        code = run_cli(["simulate", "--scenario", "S1", "--n", "100", "--p", "20",
                        "--reps", "2", "--penalties", penalties,
                        "--dump-replications", str(dump)])
        assert code == 2
        assert "collide" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_runtime_failure_exits_1_naming_seed(self, tmp_path, capsys, recwarn):
        # n = 1 defeats the penalty's log(n) > 0 requirement mid-replication.
        spec_file = tmp_path / "degenerate.json"
        spec_file.write_text(json.dumps({"beta0": [1.0, 0.0, 0.0]}))
        code = run_cli(["simulate", "--scenario", str(spec_file), "--n", "1",
                        "--reps", "1", "--seed", "6", "--threads", "1"])
        assert code == 1
        assert "seed" in capsys.readouterr().err


def write_toy_csv(path, n=500, seed=321, beta=(2.0, 0.0)):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n, len(beta)))
    response = design @ np.asarray(beta) + rng.standard_normal(n)
    write_csv(
        Dataset(design, response, tuple(f"v{j}" for j in range(len(beta)))),
        path, response_label="y",
    )


class TestSelect:
    def test_pure_noise_column_dropped(self, tmp_path, capsys):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        out = tmp_path / "sel.json"
        code = run_cli([
            "select", "--input", str(csv_path), "--response", "y",
            "--penalties", "1:0.5", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "relevant (1): {v0}" in printed
        doc = json.loads(out.read_text())
        assert doc["irrelevant_set"] == [1]
        assert doc["beta_bar"][1] == 0.0

    def test_selection_matches_brute_force_criterion(self, tmp_path, capsys):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        out = tmp_path / "sel.json"
        assert run_cli([
            "select", "--input", str(csv_path), "--response", "y",
            "--penalties", "1:0.5", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        # Brute force: recompute every candidate criterion from the stored
        # profile's excluded counts using explicit subset refits.
        from threshsel import load_csv, standardize, fit_ols
        data, _ = standardize(load_csv(csv_path, "y"), include_response=True)
        beta = fit_ols(data).values
        mags = np.sort(np.unique(np.abs(beta)))[::-1]
        crits = []
        for delta in mags:
            keep = np.abs(beta) > delta
            if keep.any():
                sub = data.design[:, keep]
                coef = np.linalg.solve(sub.T @ sub, sub.T @ data.response)
                resid = data.response - sub @ coef
            else:
                resid = data.response
            risk = float(resid @ resid) / data.n_obs
            crits.append(risk + 1.0 * (keep.sum() + 1) ** 0.5
                         * np.log(data.n_obs) / np.sqrt(data.n_obs))
        assert doc["k_hat"] == int(np.argmin(crits)) + 1

    def test_interactions_and_intercept(self, tmp_path, capsys):
        csv_path = tmp_path / "toy3.csv"
        write_toy_csv(csv_path, beta=(2.0, 0.0, 1.0))
        code = run_cli([
            "select", "--input", str(csv_path), "--response", "y",
            "--interactions", "--intercept", "--penalties", "0.75:0.4",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "relevant" in printed

    def test_multiple_pairs_write_suffixed_files(self, tmp_path, capsys):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        out = tmp_path / "sel.json"
        assert run_cli([
            "select", "--input", str(csv_path), "--response", "y",
            "--penalties", "0.5:0.25,1:0.5", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert (tmp_path / "sel_c0.5_r0.25.json").exists()
        assert (tmp_path / "sel_c1_r0.5.json").exists()

    def test_colliding_penalty_pairs_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        out = tmp_path / "sel.json"
        code = run_cli(["select", "--input", str(csv_path), "--response", "y",
                        "--penalties", "0.5:0.25,0.5000001:0.25", "--out", str(out)])
        assert code == 2
        assert "collide" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [csv_path]

    def test_missing_input_exits_2(self, capsys):
        code = run_cli(["select", "--input", "/nonexistent.csv", "--response", "y"])
        assert code == 2
