"""Panel ingestion and the rolling tracking backtest."""

import logging

import numpy as np
import pytest

from gelbrisk.backtest import (
    BacktestConfig,
    ReturnPanel,
    load_returns_csv,
    rolling_backtest,
)
from gelbrisk.errors import (
    BadP,
    IoError,
    MissingValue,
    NonFinite,
    NonMonotoneDates,
    OutOfRange,
    ParseError,
    TooShortPanel,
    ValidationError,
)
from panels import (
    panel_csv_text,
    regime_shift_panel,
    replication_panel,
    weekly_dates,
)

GOLDEN_CSV = """date,AAA,BBB
2020-01-05,0.01,-0.02
2020-01-12,0.0,0.015
2020-01-19,-0.005,0.03
"""


def write_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadReturnsCsv:
    def test_golden_fixture_exact(self, tmp_path):
        panel = load_returns_csv(write_csv(tmp_path, GOLDEN_CSV))
        assert panel.dates == ["2020-01-05", "2020-01-12", "2020-01-19"]
        assert panel.assets == ["AAA", "BBB"]
        np.testing.assert_array_equal(
            panel.returns, [[0.01, -0.02], [0.0, 0.015], [-0.005, 0.03]]
        )

    def test_blank_cell_names_row_and_column(self, tmp_path):
        lines = ["date,MMM,XOM"]
        for i in range(6):
            cell = "" if i == 5 else "0.02"
            lines.append(f"2020-01-{5 + i:02d},0.01,{cell}")
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(MissingValue, match=r"row 7.*'XOM'"):
            load_returns_csv(path)

    def test_dow_jones_shaped_panel(self, tmp_path):
        names = [f"A{i:02d}" for i in range(28)] + ["INDEX"]
        dates = weekly_dates(1363)
        body = "\n".join(
            f"{d}," + ",".join(["0.01"] * 28 + [f"0.0{i % 7}"]) for i, d in enumerate(dates)
        )
        path = write_csv(tmp_path, "date," + ",".join(names) + "\n" + body + "\n")
        panel = load_returns_csv(path)
        assert panel.n_periods == 1363
        assert panel.n_assets == 29

    def test_non_numeric_cell(self, tmp_path):
        text = "date,AAA,BBB\n2020-01-05,0.01,oops\n2020-01-12,0.0,0.1\n"
        with pytest.raises(ParseError, match=r"row 2.*'BBB'.*oops"):
            load_returns_csv(write_csv(tmp_path, text))

    def test_nan_cell_is_missing(self, tmp_path):
        text = "date,AAA,BBB\n2020-01-05,0.01,nan\n2020-01-12,0.0,0.1\n"
        with pytest.raises(MissingValue, match="row 2"):
            load_returns_csv(write_csv(tmp_path, text))

    def test_header_must_start_with_date(self, tmp_path):
        text = "time,AAA,BBB\n2020-01-05,0.01,0.02\n"
        with pytest.raises(ParseError, match="date"):
            load_returns_csv(write_csv(tmp_path, text))

    def test_needs_two_return_columns(self, tmp_path):
        text = "date,AAA\n2020-01-05,0.01\n2020-01-12,0.0\n"
        with pytest.raises(ParseError, match="two return columns"):
            load_returns_csv(write_csv(tmp_path, text))

    def test_ragged_row(self, tmp_path):
        text = "date,AAA,BBB\n2020-01-05,0.01\n"
        with pytest.raises(ParseError, match="row 2 has 2 cells"):
            load_returns_csv(write_csv(tmp_path, text))

    def test_empty_date_cell(self, tmp_path):
        text = "date,AAA,BBB\n,0.01,0.02\n2020-01-12,0.0,0.1\n"
        with pytest.raises(ParseError, match="empty date"):
            load_returns_csv(write_csv(tmp_path, text))

    def test_non_monotone_dates(self, tmp_path):
        text = (
            "date,AAA,BBB\n2020-01-12,0.01,0.02\n2020-01-05,0.0,0.1\n"
        )
        with pytest.raises(NonMonotoneDates):
            load_returns_csv(write_csv(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_returns_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            load_returns_csv(write_csv(tmp_path, ""))


class TestReturnPanel:
    def test_numeric_labels_compare_numerically(self):
        # "10" < "2" lexicographically; numeric labels must not trip the check.
        panel = ReturnPanel(["1", "2", "10"], ["A", "B"], np.zeros((3, 2)))
        assert panel.n_periods == 3

    def test_infinite_entry(self):
        with pytest.raises(NonFinite):
            ReturnPanel(["1", "2"], ["A", "B"], [[0.0, np.inf], [0.0, 0.0]])

    def test_nan_entry_names_position(self):
        with pytest.raises(MissingValue, match="'2'.*'B'"):
            ReturnPanel(["1", "2"], ["A", "B"], [[0.0, 0.0], [0.0, np.nan]])

    def test_duplicate_assets(self):
        with pytest.raises(ValidationError, match="unique"):
            ReturnPanel(["1", "2"], ["A", "A"], np.zeros((2, 2)))

    def test_too_few_periods(self):
        with pytest.raises(ValidationError, match="two periods"):
            ReturnPanel(["1"], ["A", "B"], np.zeros((1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ReturnPanel(["1", "2"], ["A", "B"], np.zeros((2, 3)))


class TestBacktestConfig:
    def test_defaults(self):
        cfg = BacktestConfig(rho_grid=[0.0, 0.5])
        assert cfg.window == 52 and cfg.block == 12 and cfg.p == 2

    def test_empty_grid(self):
        with pytest.raises(ValidationError):
            BacktestConfig(rho_grid=[])

    def test_negative_radius(self):
        with pytest.raises(OutOfRange):
            BacktestConfig(rho_grid=[0.0, -0.1])

    def test_non_finite_radius(self):
        with pytest.raises(NonFinite):
            BacktestConfig(rho_grid=[float("nan")])

    def test_bad_exponent(self):
        with pytest.raises(BadP):
            BacktestConfig(rho_grid=[0.0], p=3)

    def test_bad_window_and_block(self):
        with pytest.raises(OutOfRange):
            BacktestConfig(rho_grid=[0.0], window=1)
        with pytest.raises(OutOfRange):
            BacktestConfig(rho_grid=[0.0], block=0)


class TestRollingBacktest:
    def test_single_block_counts(self):
        # T = 64 with the default 52/12 layout leaves exactly one block.
        dates, assets, returns = replication_panel(periods=64)
        panel = ReturnPanel(dates, assets, returns)
        result = rolling_backtest(panel, BacktestConfig(rho_grid=[0.0], p=2))
        assert result.weekly_errors.shape == (1, 12)
        assert result.weights.shape == (1, 1, 3)
        assert result.dates == panel.dates[52:64]

    def test_exact_replication_errors_vanish(self):
        dates, assets, returns = replication_panel(periods=88)
        panel = ReturnPanel(dates, assets, returns)
        result = rolling_backtest(panel, BacktestConfig(rho_grid=[0.0], p=2))
        assert float(np.max(result.weekly_errors)) < 1e-10
        expected = np.tile([0.6, 0.4], (result.weights.shape[1], 1))
        np.testing.assert_allclose(result.weights[0, :, :2], expected, atol=1e-6)

    def test_weekly_count_is_block_times_blocks(self):
        dates, assets, returns = replication_panel(periods=90)
        result = rolling_backtest(
            ReturnPanel(dates, assets, returns), BacktestConfig(rho_grid=[0.0], p=2)
        )
        n_blocks = (90 - 52) // 12
        assert n_blocks == 3
        assert result.weekly_errors.shape[1] == n_blocks * 12

    def test_averages_audit(self):
        dates, assets, returns = replication_panel(periods=88, seed=3)
        result = rolling_backtest(
            ReturnPanel(dates, assets, returns), BacktestConfig(rho_grid=[0.0], p=1)
        )
        recomputed = result.weekly_errors.mean(axis=1)
        np.testing.assert_allclose(result.average_errors, recomputed, rtol=0, atol=1e-12)

    def test_regime_shift_prefers_positive_radius(self):
        dates, assets, returns = regime_shift_panel(periods=144)
        panel = ReturnPanel(dates, assets, returns)
        grid = (0.0, 0.003, 0.01, 0.02, 0.04, 0.1)
        cfg = BacktestConfig(rho_grid=grid, p=2, window=48, block=12)
        result = rolling_backtest(panel, cfg)
        best = int(np.argmin(result.average_errors))
        assert grid[best] > 0.0

    def test_too_short_panel(self):
        dates, assets, returns = replication_panel(periods=63)
        with pytest.raises(TooShortPanel):
            rolling_backtest(
                ReturnPanel(dates, assets, returns), BacktestConfig(rho_grid=[0.0])
            )

    def test_repeated_runs_are_identical(self):
        dates, assets, returns = regime_shift_panel(periods=76)
        panel = ReturnPanel(dates, assets, returns)
        cfg = BacktestConfig(rho_grid=[0.0, 0.01, 0.05], p=2, window=48, block=12)
        first = rolling_backtest(panel, cfg)
        second = rolling_backtest(panel, cfg)
        assert first.curve_csv() == second.curve_csv()
        np.testing.assert_array_equal(first.weights, second.weights)
        np.testing.assert_array_equal(first.weekly_errors, second.weekly_errors)

    def test_index_column_by_name(self):
        dates, assets, returns = replication_panel(periods=64)
        shuffled = ReturnPanel(
            dates, ["AAA", "INDEX", "BBB"], returns[:, [0, 2, 1]]
        )
        named = rolling_backtest(
            shuffled, BacktestConfig(rho_grid=[0.0], p=2, index_column="INDEX")
        )
        plain = rolling_backtest(
            ReturnPanel(dates, assets, returns), BacktestConfig(rho_grid=[0.0], p=2)
        )
        assert named.assets == ["AAA", "BBB", "INDEX"]
        np.testing.assert_array_equal(named.weights, plain.weights)

    def test_unknown_index_column(self):
        dates, assets, returns = replication_panel(periods=64)
        with pytest.raises(ValidationError, match="SPX"):
            rolling_backtest(
                ReturnPanel(dates, assets, returns),
                BacktestConfig(rho_grid=[0.0], index_column="SPX"),
            )

    def test_singular_window_is_regularized_with_warning(self, caplog):
        dates, assets, returns = replication_panel(periods=64)
        with caplog.at_level(logging.WARNING, logger="gelbrisk.backtest"):
            rolling_backtest(
                ReturnPanel(dates, assets, returns), BacktestConfig(rho_grid=[0.0])
            )
        assert any("singular" in record.message for record in caplog.records)

    def test_short_window_warns(self, caplog):
        rng = np.random.default_rng(9)
        returns = rng.normal(scale=0.02, size=(10, 5))
        panel = ReturnPanel(weekly_dates(10), [f"A{i}" for i in range(5)], returns)
        cfg = BacktestConfig(rho_grid=[0.0], p=2, window=4, block=2)
        with caplog.at_level(logging.WARNING, logger="gelbrisk.backtest"):
            rolling_backtest(panel, cfg)
        assert any("shorter than" in record.message for record in caplog.records)

    def test_curve_csv_format(self):
        dates, assets, returns = replication_panel(periods=64)
        result = rolling_backtest(
            ReturnPanel(dates, assets, returns), BacktestConfig(rho_grid=[0.0], p=2)
        )
        lines = result.curve_csv().splitlines()
        assert lines[0] == "rho,avg_error"
        assert lines[1].startswith("0,")

    def test_panel_csv_round_trip(self, tmp_path):
        dates, assets, returns = replication_panel(periods=64)
        path = write_csv(tmp_path, panel_csv_text(dates, assets, returns))
        panel = load_returns_csv(path)
        np.testing.assert_array_equal(panel.returns, returns)
        assert panel.assets == assets
