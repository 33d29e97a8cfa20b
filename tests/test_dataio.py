"""CSV ingestion, standardization, interaction expansion, report writing."""

import csv
import json

import numpy as np
import pytest

from threshsel import (
    Dataset,
    EstimatorConfig,
    MissingColumnError,
    ParseError,
    PenaltySpec,
    ZeroVarianceError,
    build_empirical_path,
    fit_ols,
    interaction_expand,
    load_csv,
    scenario_s1,
    select_threshold,
    standardize,
    write_csv,
    write_report,
)
from threshsel.reports import aggregate_table_rows, write_outcomes_csv
from threshsel.simulation import AggregateReport, ReplicationOutcome, ScenarioSpec


class TestLoadCSV:
    def test_round_trip_small(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv(path, response_column="y")
        assert data.n_obs == 3 and data.n_features == 2
        assert data.labels == ("a", "b")
        np.testing.assert_allclose(data.response, [3.0, 6.0, 9.0])
        np.testing.assert_allclose(data.design[:, 1], [2.0, 5.0, 8.0])

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,y\n10,1\nold,2\n30,3\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, response_column="y")
        assert info.value.row == 2
        assert info.value.column == "age"

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "mc.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, response_column="y")

    def test_empty_and_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError):
            load_csv(empty, response_column="y")
        header_only = tmp_path / "h.csv"
        header_only.write_text("a,y\n")
        with pytest.raises(ParseError):
            load_csv(header_only, response_column="y")

    def test_full_precision_round_trip(self, tmp_path, rng, dataset_factory):
        data = dataset_factory(rng, 9, 4)
        path = tmp_path / "rt.csv"
        write_csv(data, path, response_label="y")
        back = load_csv(path, response_column="y")
        assert np.array_equal(back.design, data.design)
        assert np.array_equal(back.response, data.response)
        assert back.labels == data.labels

    def test_bits_match_loadtxt(self, tmp_path, rng):
        values = rng.standard_normal((50, 5)) * 10.0 ** rng.integers(-8, 9, (50, 5))
        path = tmp_path / "repr.csv"
        rows = [",".join(repr(float(v)) for v in row) for row in values]
        path.write_text("a,b,y,c,d\n" + "\n".join(rows) + "\n")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        data = load_csv(path, response_column="y")
        assert data.design.tobytes() == table[:, [0, 1, 3, 4]].tobytes()
        assert data.response.tobytes() == table[:, 2].tobytes()
        assert table.tobytes() == values.tobytes()


class TestStandardize:
    def test_simple_column(self):
        data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros(3) + [1, 2, 4], ("a",))
        out, record = standardize(data)
        np.testing.assert_allclose(out.design[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
        assert record.means == (2.0,)
        assert record.scales == (1.0,)
        assert not record.response_standardized

    def test_zero_variance_named(self):
        data = Dataset(
            np.column_stack([np.ones(3), np.arange(3.0)]), np.arange(3.0), ("const", "b")
        )
        with pytest.raises(ZeroVarianceError) as info:
            standardize(data)
        assert info.value.column == "const"

    def test_idempotence(self, rng, dataset_factory):
        data = dataset_factory(rng, 25, 4)
        once, _ = standardize(data, include_response=True)
        twice, _ = standardize(once, include_response=True)
        np.testing.assert_allclose(twice.design, once.design, atol=1e-12)
        np.testing.assert_allclose(twice.response, once.response, atol=1e-12)

    def test_response_standardization(self, rng, dataset_factory):
        data = dataset_factory(rng, 40, 3)
        out, record = standardize(data, include_response=True)
        assert out.response.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.response.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        assert record.response_scale == pytest.approx(data.response.std(ddof=1))

    def test_sample_sd_divisor(self):
        data = Dataset(np.array([[0.0], [2.0]]), np.zeros(2) + [0, 1], ("a",))
        _, record = standardize(data)
        assert record.scales[0] == pytest.approx(np.sqrt(2.0))


class TestInteractionExpand:
    def test_smallest_case(self):
        data = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), ("a", "b"))
        out, mapping = interaction_expand(data)
        assert out.n_features == 3
        assert out.labels == ("a", "b", "a:b")
        np.testing.assert_allclose(out.design[:, 2], [2.0, 12.0])
        assert mapping.sources == (0, 1, (0, 1))

    def test_eight_to_thirty_six(self, rng, dataset_factory):
        data = dataset_factory(rng, 12, 8)
        out, mapping = interaction_expand(data)
        assert out.n_features == 36
        assert mapping.expanded_p == 36
        assert mapping.original_p == 8
        np.testing.assert_array_equal(out.design[:, :8], data.design)
        assert out.n_obs == data.n_obs
        i, j = mapping.sources[8]
        np.testing.assert_allclose(
            out.design[:, 8], data.design[:, i] * data.design[:, j]
        )

    def test_needs_two_columns(self):
        data = Dataset(np.ones((3, 1)), np.zeros(3), ("a",))
        with pytest.raises(ValueError):
            interaction_expand(data)


def tiny_selection(rng, dataset_factory):
    data = dataset_factory(rng, 30, 4)
    beta = fit_ols(data)
    return select_threshold(
        data, beta, build_empirical_path(beta), PenaltySpec(0.75, 0.4)
    )


def synthetic_report(scenario, penalty, value):
    outcomes = tuple(
        ReplicationOutcome(seed=i, delta_hat=value, fnr=0.0, tnr=1.0,
                           selected_set=(scenario.p - 1,), wall_time=0.001)
        for i in range(3)
    )
    return AggregateReport(
        scenario=scenario, estimator=EstimatorConfig(), penalty=penalty,
        replications=3, base_seed=0, mean_delta_hat=value, mean_fnr_pct=0.0,
        mean_tnr_pct=100.0, outcomes=outcomes,
    )


class TestWriteReport:
    def test_selection_json_round_trip(self, tmp_path, rng, dataset_factory):
        result = tiny_selection(rng, dataset_factory)
        path = tmp_path / "sel.json"
        write_report(result, path, fmt="json")
        loaded = json.loads(path.read_text())
        assert loaded == result.to_dict()

    def test_selection_csv_shape(self, tmp_path, rng, dataset_factory):
        result = tiny_selection(rng, dataset_factory)
        path = tmp_path / "sel.csv"
        write_report(result, path, fmt="csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,delta,risk,penalty,criterion,n_excluded"
        assert len(lines) == 1 + len(result.profile)

    def test_selection_csv_matches_json_profile(self, tmp_path, rng, dataset_factory):
        result = tiny_selection(rng, dataset_factory)
        write_report(result, tmp_path / "sel.json", fmt="json")
        write_report(result, tmp_path / "sel.csv", fmt="csv")
        profile = json.loads((tmp_path / "sel.json").read_text())["profile"]
        with (tmp_path / "sel.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(profile[0])
        assert rows == [[repr(v) for v in entry.values()] for entry in profile]

    def test_byte_stability(self, tmp_path, rng, dataset_factory):
        result = tiny_selection(rng, dataset_factory)
        a, b = tmp_path / "one.json", tmp_path / "two.json"
        write_report(result, a, fmt="json")
        write_report(result, b, fmt="json")
        assert a.read_bytes() == b.read_bytes()

    def test_aggregate_grid_layout(self, tmp_path):
        pairs = [PenaltySpec(0.5, 0.25), PenaltySpec(0.75, 0.4), PenaltySpec(1.0, 0.5)]
        reports = []
        for n in (100, 1000, 10000):
            for p in (20, 50):
                scenario = scenario_s1(n, p)
                for pen in pairs:
                    reports.append(synthetic_report(scenario, pen, value=0.1))
        rows = aggregate_table_rows(reports)
        assert rows[0] == [
            "measure", "scenario", "estimator", "n", "p",
            "c=0.5,r=0.25", "c=0.75,r=0.4", "c=1.0,r=0.5",
        ]
        # 3 measures x 6 (n, p) cells, each row carrying 3 penalty columns.
        assert len(rows) == 1 + 18
        assert sum(1 for row in rows[1:] if row[0] == "delta_hat") == 6
        path = tmp_path / "grid.csv"
        write_report(reports, path, fmt="csv")
        assert len(path.read_text().strip().splitlines()) == 19

    def test_outcomes_audit_csv(self, tmp_path):
        report = synthetic_report(scenario_s1(100, 20), PenaltySpec(1.0, 0.5), 0.2)
        path = tmp_path / "audit.csv"
        write_outcomes_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("replication,seed,delta_hat")

    def test_aggregate_json(self, tmp_path):
        report = synthetic_report(scenario_s1(100, 20), PenaltySpec(1.0, 0.5), 0.2)
        path = tmp_path / "agg.json"
        write_report(report, path, fmt="json")
        doc = json.loads(path.read_text())
        assert doc["scenario"] == "S1" and doc["n"] == 100
        assert doc["mean_tnr_pct"] == 100.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overwrite_with_shorter_report(self, tmp_path, fmt):
        scenario = scenario_s1(100, 20)
        pairs = [PenaltySpec(0.5, 0.25), PenaltySpec(0.75, 0.4), PenaltySpec(1.0, 0.5)]
        reports = [synthetic_report(scenario, pen, value=0.1) for pen in pairs]
        path, fresh = tmp_path / "over", tmp_path / "fresh"
        write_report(reports, path, fmt=fmt)
        longer = path.stat().st_size
        write_report(reports[:1], path, fmt=fmt)
        write_report(reports[:1], fresh, fmt=fmt)
        assert path.stat().st_size < longer
        assert path.read_bytes() == fresh.read_bytes()

    def test_bad_format_rejected(self, tmp_path, rng, dataset_factory):
        result = tiny_selection(rng, dataset_factory)
        with pytest.raises(ValueError):
            write_report(result, tmp_path / "x.xml", fmt="xml")
