"""Rolling-horizon index-tracking backtests on weekly return panels.

The panel layer reads CSV files of periodic returns (one date column,
one column per asset) and validates them into :class:`ReturnPanel`.
:func:`rolling_backtest` then walks the panel with an estimation window
and a rebalancing block: moments are estimated on the trailing window,
a robust tracking portfolio is solved for every radius on a grid, and
the realized tracking errors ``|w' xi|**p`` of the following block are
recorded week by week.  The estimation window strictly precedes the
evaluation block, so no look-ahead enters the weights; a trailing
partial block is dropped.

Each (block, radius) cell is one call of
:func:`gelbrisk.optimize.minimize_tracking`, which evaluates the
worst-case tracking error in closed form and minimizes it by accelerated
projected gradient until the Frank-Wolfe gap certifies the weights.  The
cells run sequentially and deterministically: the same panel and
configuration always give byte-identical results.
"""

from __future__ import annotations

import csv
import datetime
import logging
import math
from dataclasses import dataclass

import numpy as np

from .calibration import empirical_moments
from .errors import (
    BadP,
    DimMismatch,
    IoError,
    MissingValue,
    NonFinite,
    NonMonotoneDates,
    OutOfRange,
    ParseError,
    TooShortPanel,
    ValidationError,
)
from .linear_risk import GelbrichBall
from .metric import MomentPair
from .optimize import FeasibleSet, minimize_tracking

__all__ = [
    "BacktestConfig",
    "BacktestResult",
    "ReturnPanel",
    "load_returns_csv",
    "rolling_backtest",
]

_log = logging.getLogger(__name__)

# Covariance matrices this close to singular (relative to the larger of
# the top eigenvalue and one) are regularized before optimization.
_SINGULAR_RTOL = 1e-10
_JITTER = 1e-8


def _date_keys(labels: list[str]):
    """Comparable keys for period labels: ISO dates, else numbers, else text."""
    try:
        return [datetime.date.fromisoformat(label) for label in labels]
    except ValueError:
        pass
    try:
        return [float(label) for label in labels]
    except ValueError:
        return labels


@dataclass(eq=False)
class ReturnPanel:
    """A validated T×n matrix of periodic returns with date labels.

    Invariants enforced at construction: at least two rows and two
    columns, unique column names, finite entries, and strictly
    increasing dates (compared as ISO dates when all labels parse as
    such, as numbers when they all parse as numbers, and as plain text
    otherwise).
    """

    dates: list[str]
    assets: list[str]
    returns: np.ndarray

    def __post_init__(self) -> None:
        self.dates = [str(d) for d in self.dates]
        self.assets = [str(a) for a in self.assets]
        self.returns = np.asarray(self.returns, dtype=float)
        if self.returns.ndim != 2:
            raise DimMismatch(
                f"returns must be a matrix, got ndim={self.returns.ndim}"
            )
        t, n = self.returns.shape
        if (t, n) != (len(self.dates), len(self.assets)):
            raise DimMismatch(
                f"returns have shape {self.returns.shape} but there are "
                f"{len(self.dates)} dates and {len(self.assets)} assets"
            )
        if t < 2:
            raise ValidationError(f"a panel needs at least two periods, got {t}")
        if n < 2:
            raise ValidationError(f"a panel needs at least two columns, got {n}")
        if len(set(self.assets)) != n:
            raise ValidationError("asset names must be unique")
        bad = np.argwhere(~np.isfinite(self.returns))
        if bad.size:
            i, j = map(int, bad[0])
            kind = MissingValue if math.isnan(self.returns[i, j]) else NonFinite
            raise kind(
                f"non-finite return at date {self.dates[i]!r}, column {self.assets[j]!r}"
            )
        keys = _date_keys(self.dates)
        for i in range(1, t):
            if not keys[i - 1] < keys[i]:
                raise NonMonotoneDates(
                    f"dates must be strictly increasing: {self.dates[i - 1]!r} "
                    f"is not before {self.dates[i]!r}"
                )

    @property
    def n_periods(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


def load_returns_csv(path) -> ReturnPanel:
    """Read a UTF-8 CSV return panel: a `date` column, then numeric columns.

    The header row is required.  Empty and NaN cells raise
    :class:`MissingValue` and malformed numbers raise
    :class:`ParseError`, both naming the file row (1-based, counting the
    header) and the column.
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise IoError(f"could not read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0].lower() != "date":
        raise ParseError(
            f"{path}: the first header cell must be 'date', got {header[:1]!r}"
        )
    assets = header[1:]
    if len(assets) < 2:
        raise ParseError(f"{path}: need at least two return columns, got {len(assets)}")

    dates = []
    values = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"row {line} has {len(row)} cells, expected {len(header)}"
            )
        date = row[0].strip()
        if not date:
            raise ParseError(f"row {line}: empty date cell")
        parsed = []
        for name, cell in zip(assets, row[1:]):
            text = cell.strip()
            if not text:
                raise MissingValue(f"row {line}, column {name!r}: empty cell")
            try:
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"row {line}, column {name!r}: {text!r} is not a number"
                ) from None
            if math.isnan(value):
                raise MissingValue(f"row {line}, column {name!r}: NaN cell")
            parsed.append(value)
        dates.append(date)
        values.append(parsed)
    if not values:
        raise ParseError(f"{path}: no data rows")
    return ReturnPanel(dates, assets, np.asarray(values))


@dataclass(eq=False)
class BacktestConfig:
    """Layout and solver choices of a rolling tracking backtest.

    ``window`` trailing periods feed the moment estimates, ``block``
    periods are then evaluated out of sample before re-estimating, and
    one tracking portfolio is solved per radius in ``rho_grid``.  The
    index being tracked is ``index_column`` (the last column when None).
    """

    rho_grid: tuple
    p: int = 2
    window: int = 52
    block: int = 12
    index_column: str | None = None

    def __post_init__(self) -> None:
        grid = tuple(float(r) for r in self.rho_grid)
        if not grid:
            raise ValidationError("rho_grid must contain at least one radius")
        for rho in grid:
            if not math.isfinite(rho):
                raise NonFinite(f"radii must be finite, got {rho}")
            if rho < 0.0:
                raise OutOfRange(f"radii must be nonnegative, got {rho}")
        self.rho_grid = grid
        if self.p not in (1, 2):
            raise BadP(f"the tracking exponent must be 1 or 2, got {self.p!r}")
        self.p = int(self.p)
        self.window = int(self.window)
        self.block = int(self.block)
        if self.window < 2:
            raise OutOfRange(f"window must span at least 2 periods, got {self.window}")
        if self.block < 1:
            raise OutOfRange(f"block must span at least 1 period, got {self.block}")


@dataclass(eq=False)
class BacktestResult:
    """Date-ordered, ρ-ordered record of a rolling backtest.

    ``weekly_errors[j, t]`` is the realized error ``|w' xi|**p`` of the
    radius ``rho_grid[j]`` portfolio in evaluation week ``t`` (labeled
    ``dates[t]``), ``weights[j, b]`` the portfolio held through block
    ``b``, and ``average_errors`` the per-radius means of the weekly
    records; columns follow ``assets`` (the tracked index last).
    """

    rho_grid: np.ndarray
    p: int
    assets: list[str]
    dates: list[str]
    weights: np.ndarray
    weekly_errors: np.ndarray
    average_errors: np.ndarray

    def __post_init__(self) -> None:
        drift = np.abs(self.average_errors - self.weekly_errors.mean(axis=1))
        if drift.size and float(drift.max()) > 1e-12:
            raise ValidationError(
                "average errors disagree with the weekly records "
                f"(max drift {float(drift.max()):.3e})"
            )

    def curve_csv(self) -> str:
        """The per-radius error curve as CSV text, full decimal precision."""
        lines = ["rho,avg_error"]
        for rho, err in zip(self.rho_grid, self.average_errors):
            lines.append(f"{rho:.17g},{err:.17g}")
        return "\n".join(lines) + "\n"


def _window_moments(window_rows: np.ndarray) -> MomentPair:
    """Empirical moments of one estimation window, regularized if singular."""
    pair = empirical_moments(window_rows)
    eigs = np.linalg.eigvalsh(pair.cov)
    if eigs[0] <= _SINGULAR_RTOL * max(1.0, eigs[-1]):
        n = pair.dim
        jitter = _JITTER * float(np.trace(pair.cov)) / n
        _log.warning(
            "window covariance is numerically singular (min eigenvalue %.3e); "
            "adding %.3e to the diagonal",
            eigs[0],
            jitter,
        )
        pair = MomentPair(pair.mean, pair.cov + jitter * np.eye(n))
    return pair


def rolling_backtest(panel: ReturnPanel, cfg: BacktestConfig) -> BacktestResult:
    """Walk the panel, re-solving robust tracking portfolios block by block.

    For each block start ``t`` (stepping by ``cfg.block`` after a
    ``cfg.window`` warmup), moments are estimated on rows
    ``[t - window, t)`` and, for every radius of the grid, a worst-case
    tracking portfolio is solved and held for the block; the realized
    errors ``|w' xi|**p`` of its weeks are recorded.  Windows shorter
    than the column count get a singularity warning and a diagonal
    regularization of ``1e-8 * tr(cov)/n``.
    """
    if cfg.index_column is None:
        index_name = panel.assets[-1]
    else:
        index_name = cfg.index_column
        if index_name not in panel.assets:
            raise ValidationError(
                f"index column {index_name!r} is not one of the panel columns"
            )
    ordered = [a for a in panel.assets if a != index_name] + [index_name]
    data = panel.returns[:, [panel.assets.index(a) for a in ordered]]
    t_total, n = data.shape

    if t_total < cfg.window + cfg.block:
        raise TooShortPanel(
            f"panel has {t_total} periods but window={cfg.window} plus "
            f"block={cfg.block} needs at least {cfg.window + cfg.block}"
        )
    if cfg.window < n:
        _log.warning(
            "window of %d periods is shorter than the %d columns; "
            "covariances will be singular and regularized",
            cfg.window,
            n,
        )

    n_blocks = (t_total - cfg.window) // cfg.block
    n_weeks = n_blocks * cfg.block
    rhos = np.asarray(cfg.rho_grid, dtype=float)
    feasible = FeasibleSet.tracking_simplex(n)

    pairs = [
        _window_moments(data[start - cfg.window : start])
        for start in range(cfg.window, cfg.window + n_weeks, cfg.block)
    ]

    weights = np.empty((rhos.size, n_blocks, n))
    weekly = np.empty((rhos.size, n_weeks))

    for block, pair in enumerate(pairs):
        start = cfg.window + block * cfg.block
        rows = data[start : start + cfg.block]
        for j, rho in enumerate(rhos):
            w = minimize_tracking(GelbrichBall(pair, rho), cfg.p, feasible).w_star
            weights[j, block] = w
            weekly[j, block * cfg.block : (block + 1) * cfg.block] = np.abs(rows @ w) ** cfg.p

    return BacktestResult(
        rho_grid=rhos,
        p=cfg.p,
        assets=ordered,
        dates=list(panel.dates[cfg.window : cfg.window + n_weeks]),
        weights=weights,
        weekly_errors=weekly,
        average_errors=weekly.mean(axis=1),
    )
