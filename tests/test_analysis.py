"""Tests for metrics, timing, visualisation and report formatting."""

import numpy as np
import pytest

from repro.analysis import (
    SpeedupRow,
    SpeedupTable,
    ape,
    ascii_heatmap,
    compare_fields_text,
    field_report,
    field_slice,
    format_table,
    kv_block,
    mape,
    markdown_table,
    max_abs_error,
    measure,
    pape,
    peak_temperature_error,
    rmse,
    side_by_side,
    table_one,
    write_field_csv,
)


class TestMetrics:
    def test_ape_elementwise(self):
        out = ape(np.array([101.0, 99.0]), np.array([100.0, 100.0]))
        assert np.allclose(out, [1.0, 1.0])

    def test_mape_and_pape(self):
        predicted = np.array([300.0, 303.0, 297.0])
        reference = np.array([300.0, 300.0, 300.0])
        assert mape(predicted, reference) == pytest.approx(2.0 / 3.0)
        assert pape(predicted, reference) == pytest.approx(1.0)

    def test_pape_geq_mape_always(self):
        rng = np.random.default_rng(0)
        predicted = 300.0 + rng.normal(size=50)
        reference = np.full(50, 300.0)
        assert pape(predicted, reference) >= mape(predicted, reference)

    def test_rmse_and_max_abs(self):
        predicted = np.array([1.0, 3.0])
        reference = np.array([1.0, 1.0])
        assert rmse(predicted, reference) == pytest.approx(np.sqrt(2.0))
        assert max_abs_error(predicted, reference) == pytest.approx(2.0)

    def test_peak_temperature_error(self):
        assert peak_temperature_error(
            np.array([300.0, 310.0]), np.array([300.0, 310.5])
        ) == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            mape(np.zeros(3), np.zeros(4))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            mape(np.ones(2), np.array([1.0, 0.0]))

    def test_field_report_bundle(self):
        predicted = np.array([300.0, 305.0])
        reference = np.array([300.0, 304.0])
        report = field_report(predicted, reference)
        assert report.mape > 0.0
        assert report.t_max_predicted == pytest.approx(305.0)
        assert set(report.as_dict()) == {
            "mape_pct", "pape_pct", "rmse_K", "max_abs_K", "peak_temp_error_K",
        }

    def test_perfect_prediction_zeros(self):
        field = np.array([300.0, 310.0])
        report = field_report(field, field.copy())
        assert report.mape == 0.0 and report.pape == 0.0


class TestTiming:
    def test_measure_returns_stats(self):
        stats = measure(lambda: sum(range(1000)), repeats=3)
        assert stats["best"] <= stats["median"] <= max(stats["samples"])
        assert len(stats["samples"]) == 3

    def test_measure_validates_repeats(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)

    def test_speedup_row_math(self):
        row = SpeedupRow("case", solver_seconds=1.0, surrogate_seconds=0.001)
        assert row.speedup == pytest.approx(1000.0)
        assert "1000.0x" in row.format()

    def test_speedup_row_paper_annotation(self):
        row = SpeedupRow("case", 1.0, 0.01, paper_speedup=3000.0)
        assert "paper: 3000x" in row.format()

    def test_speedup_table_formats(self):
        table = SpeedupTable("study")
        table.add(SpeedupRow("a", 1.0, 0.1))
        text = table.format()
        assert "study" in text and "a" in text


class TestViz:
    def test_ascii_heatmap_dimensions(self):
        art = ascii_heatmap(np.random.default_rng(0).uniform(size=(5, 8)))
        lines = art.rstrip("\n").split("\n")
        assert len(lines) == 5
        assert all(len(line) == 8 for line in lines)

    def test_ascii_heatmap_title_and_range(self):
        art = ascii_heatmap(np.array([[0.0, 1.0]]), title="demo")
        assert "demo" in art and "min 0.000" in art

    def test_ascii_heatmap_constant_field(self):
        # A 1.2e-12 K span at 299.837 K is solver round-off, not structure.
        near_constant = 299.837 + np.array([[0.0, 1.2e-12], [6e-13, 0.0]])
        for field in (np.full((2, 2), 7.0), near_constant):
            art = ascii_heatmap(field)
            assert len(set(art.strip().replace("\n", ""))) == 1
            assert art == ascii_heatmap(np.full((2, 2), 0.5))

    def test_ascii_heatmap_extremes_use_shade_range(self):
        art = ascii_heatmap(np.array([[0.0, 1.0]]))
        assert " " in art and "@" in art

    def test_ascii_heatmap_rejects_3d(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros((2, 2, 2)))

    def test_ascii_heatmap_decimates_wide_fields(self):
        art = ascii_heatmap(np.zeros((2, 200)), max_width=50)
        assert max(len(line) for line in art.split("\n")) <= 100

    def test_field_slice_top_default(self):
        field = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(field_slice(field), field[:, :, -1])
        assert np.array_equal(field_slice(field, axis=0, index=0), field[0])

    def test_field_slice_validates(self):
        with pytest.raises(ValueError):
            field_slice(np.zeros((2, 2)))

    def test_side_by_side_preserves_content(self):
        joined = side_by_side("ab\ncd", "ef\ngh")
        lines = joined.split("\n")
        assert lines[0].startswith("ab") and lines[0].endswith("ef")

    def test_compare_fields_shared_scale(self):
        a = np.zeros((3, 3))
        b = np.ones((3, 3))
        text = compare_fields_text(a, b)
        assert "DeepOHeat" in text and "Reference" in text

    def test_write_field_csv(self, tmp_path):
        path = write_field_csv(
            tmp_path / "field.csv",
            np.zeros((3, 3)),
            [np.arange(3.0), np.ones(3)],
            ["pred", "ref"],
        )
        content = path.read_text().splitlines()
        assert content[0] == "x,y,z,pred,ref"
        assert len(content) == 4

    def test_write_field_csv_validates(self, tmp_path):
        with pytest.raises(ValueError):
            write_field_csv(tmp_path / "x.csv", np.zeros((2, 3)), [np.ones(3)], ["a"])


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert "name" in lines[0]

    def test_markdown_table(self):
        text = markdown_table(["x"], [[1.25]])
        assert text.startswith("| x |")
        assert "| 1.25 |" in text

    def test_table_one_layout(self):
        text = table_one(["p1", "p2"], [0.03, 0.05], [0.1, 0.2])
        assert "MAPE (%)" in text and "PAPE (%)" in text
        assert "p1" in text and "0.030" in text

    def test_kv_block(self):
        text = kv_block("info", {"alpha": 1, "b": "two"})
        assert "info" in text and "alpha" in text and "two" in text


class TestSparkline:
    def test_length_and_levels(self):
        from repro.analysis import sparkline

        line = sparkline([1.0, 10.0, 100.0], width=10)
        assert len(line) == 3
        assert line[0] != line[-1]

    def test_decimates_long_series(self):
        from repro.analysis import sparkline

        line = sparkline(np.linspace(1, 100, 500), width=40)
        assert len(line) <= 40

    def test_constant_series(self):
        from repro.analysis import sparkline

        line = sparkline([5.0, 5.0, 5.0])
        assert len(set(line)) == 1

    def test_empty_rejected(self):
        from repro.analysis import sparkline

        with pytest.raises(ValueError):
            sparkline([])

    def test_history_chart(self):
        from dataclasses import dataclass, field
        from repro.analysis import history_chart

        @dataclass
        class FakeHistory:
            total_loss: list = field(default_factory=lambda: [10.0, 1.0, 0.1])
            iterations: list = field(default_factory=lambda: [0, 1, 2])

        text = history_chart(FakeHistory())
        assert "1.000e+01" in text and "1.000e-01" in text
