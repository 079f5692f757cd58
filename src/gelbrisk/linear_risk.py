"""Closed-form robust risk of linear portfolio losses.

For a linear loss ``-w @ xi`` and a moment ambiguity ball of radius
``rho`` around ``(mu, cov)``, the worst-case risk of any law-invariant,
translation-invariant, positive-homogeneous risk measure with standard
risk coefficient ``alpha`` is

    -mu @ w + alpha * sqrt(w @ cov @ w) + rho * sqrt(1 + alpha**2) * ||w||,

with ``||w||`` replaced by the ``H^{-1}``-weighted norm when the ball is
measured in a Mahalanobis-weighted metric.  This module evaluates that
formula, extracts the mean-covariance pair attaining it, and treats the
mean-variance objective (which is not positive homogeneous and needs
its own one-dimensional dual) separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaNotPositive,
    BadBeta,
    DegenerateDeviation,
    DimMismatch,
    MahalanobisUnsupported,
    NegativeAlpha,
    NotPD,
    OutOfRange,
    RootBracketFailure,
    SingularCov,
    ZeroPortfolio,
)
from .linalg import sym_matrix
from .metric import MomentPair

__all__ = [
    "GelbrichBall",
    "LinearRiskReport",
    "gelbrich_risk_linear",
    "worst_case_moments_linear",
    "gelbrich_meanvariance_risk",
    "worst_case_moments_meanvariance",
]


@dataclass(eq=False)
class GelbrichBall:
    """Ball of mean-covariance pairs within distance ``radius`` of ``center``.

    Parameters
    ----------
    center : MomentPair
        Nominal moments, typically empirical estimates.
    radius : float
        Nonnegative ball radius in the moment metric.
    weight : ndarray, optional
        Positive-definite weight matrix ``H`` of a Mahalanobis-weighted
        metric; ``None`` (the default) means the unweighted metric.
    """

    center: MomentPair
    radius: float
    weight: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.radius = float(self.radius)
        if not self.radius >= 0.0:
            raise OutOfRange(f"radius must be nonnegative, got {self.radius}")
        if self.weight is not None:
            h = sym_matrix(np.asarray(self.weight, dtype=float))
            if h.shape[0] != self.center.dim:
                raise DimMismatch(
                    f"weight is {h.shape[0]}x{h.shape[0]} but the ball lives in "
                    f"dimension {self.center.dim}"
                )
            if np.linalg.eigvalsh(h)[0] <= 0.0:
                raise NotPD("weight matrix must be positive definite")
            self.weight = h

    @property
    def dim(self) -> int:
        return self.center.dim

    def require_unweighted(self, what: str) -> None:
        """Raise :class:`MahalanobisUnsupported` unless the weight is absent or the identity."""
        if self.weight is not None and not np.array_equal(self.weight, np.eye(self.dim)):
            raise MahalanobisUnsupported(f"{what}: only the unweighted metric is supported")


@dataclass(eq=False)
class LinearRiskReport:
    """Worst-case linear risk split into its three closed-form terms.

    ``value`` is always the exact sum ``nominal + deviation +
    robustness``.  ``worst_case`` carries the moments attaining the
    value when the extraction formulas apply, else ``None``.
    """

    value: float
    nominal: float
    deviation: float
    robustness: float
    worst_case: MomentPair | None = None

    @property
    def decomposition(self) -> tuple[float, float, float]:
        return (self.nominal, self.deviation, self.robustness)


def _check_portfolio(ball: GelbrichBall, w: np.ndarray) -> np.ndarray:
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.ndim != 1 or w.shape[0] != ball.dim:
        raise DimMismatch(
            f"portfolio has shape {w.shape} but the ball lives in dimension {ball.dim}"
        )
    return w


def _weighted_norm(ball: GelbrichBall, w: np.ndarray) -> float:
    if ball.weight is None:
        return float(np.linalg.norm(w))
    return math.sqrt(max(float(w @ np.linalg.solve(ball.weight, w)), 0.0))


def gelbrich_risk_linear(ball: GelbrichBall, w: np.ndarray, alpha: float) -> LinearRiskReport:
    """Worst-case risk of the loss ``-w @ xi`` over a moment ball.

    Parameters
    ----------
    ball : GelbrichBall
        Ambiguity ball; a weighted ball changes only the robustness
        term, to ``rho * sqrt(1 + alpha**2) * ||w||_{H^{-1}}``.
    w : ndarray
        Portfolio weights.  The zero portfolio has zero risk and an
        all-zero decomposition.
    alpha : float
        Standard risk coefficient of the underlying risk measure; must
        be nonnegative (the closed form fails for ``alpha < 0``).

    Returns
    -------
    LinearRiskReport

    Examples
    --------
    >>> ball = GelbrichBall(MomentPair(np.zeros(2), np.eye(2)), 1.0)
    >>> gelbrich_risk_linear(ball, np.array([1.0, 0.0]), 1.0).value
    2.414213562373095
    """
    w = _check_portfolio(ball, w)
    alpha = float(alpha)
    if alpha < 0.0:
        raise NegativeAlpha(
            f"the closed form requires a nonnegative risk coefficient, got {alpha}"
        )
    if not np.any(w):
        return LinearRiskReport(0.0, 0.0, 0.0, 0.0, None)

    center = ball.center
    nominal = -float(center.mean @ w)
    deviation = alpha * math.sqrt(max(float(w @ center.cov @ w), 0.0))
    robustness = ball.radius * math.sqrt(1.0 + alpha * alpha) * _weighted_norm(ball, w)
    try:
        worst = worst_case_moments_linear(ball, w, alpha)
    except (AlphaNotPositive, SingularCov, MahalanobisUnsupported, DegenerateDeviation):
        worst = None
    return LinearRiskReport(nominal + deviation + robustness, nominal, deviation, robustness, worst)


def worst_case_moments_linear(ball: GelbrichBall, w: np.ndarray, alpha: float) -> MomentPair:
    """Moments attaining the worst-case linear risk.

    With ``kappa = sqrt(1 + alpha**2)`` and ``s = w @ cov @ w``:

        mu*  = mu - rho * w / (kappa * ||w||)
        cov* = F cov F,   F = I + rho * alpha * w w^T / (kappa * ||w|| * sqrt(s))

    The returned pair lies on the ball boundary and reproduces the
    closed-form value when substituted into the fixed-moment risk.

    Raises
    ------
    AlphaNotPositive
        If ``alpha <= 0`` (the covariance formula divides by ``alpha``'s
        deviation direction).
    SingularCov
        If the center covariance is not positive definite.
    ZeroPortfolio
        If ``w == 0``.
    MahalanobisUnsupported
        If the ball carries a non-identity weight; the extraction
        formulas are only available for the unweighted metric.
    """
    w = _check_portfolio(ball, w)
    alpha = float(alpha)
    if alpha <= 0.0:
        raise AlphaNotPositive(
            f"worst-case moment extraction needs alpha > 0, got {alpha}"
        )
    if not np.any(w):
        raise ZeroPortfolio("worst-case moments are undefined for the zero portfolio")
    ball.require_unweighted("worst-case moment extraction")
    center = ball.center
    if float(np.linalg.eigvalsh(center.cov)[0]) <= 0.0:
        raise SingularCov("worst-case moment extraction needs a positive definite covariance")
    s = float(w @ center.cov @ w)
    if s <= 0.0:
        raise DegenerateDeviation("portfolio variance vanishes at the ball center")

    kappa = math.sqrt(1.0 + alpha * alpha)
    norm_w = float(np.linalg.norm(w))
    mean = center.mean - ball.radius * w / (kappa * norm_w)
    scale = ball.radius * alpha / (kappa * norm_w * math.sqrt(s))
    factor = np.eye(ball.dim) + scale * np.outer(w, w)
    return MomentPair(mean, sym_matrix(factor @ center.cov @ factor))


# ---------------------------------------------------------------------------
# Mean-variance risk: not positive homogeneous, handled by its own dual
# ---------------------------------------------------------------------------


def _meanvariance_setup(
    ball: GelbrichBall, w: np.ndarray, beta: float
) -> tuple[np.ndarray, float, float, float]:
    w = _check_portfolio(ball, w)
    if not beta > 0.0 or not math.isfinite(beta):
        raise BadBeta(f"risk-aversion coefficient must be > 0, got {beta}")
    if ball.weight is not None:
        raise MahalanobisUnsupported(
            "the mean-variance dual is only available for the unweighted metric"
        )
    if float(np.linalg.eigvalsh(ball.center.cov)[0]) <= 0.0:
        raise SingularCov("the mean-variance dual needs a positive definite covariance")
    norm_sq = float(w @ w)
    s = float(w @ ball.center.cov @ w)
    return w, float(beta), norm_sq, s


def gelbrich_meanvariance_risk(ball: GelbrichBall, w: np.ndarray, beta: float) -> float:
    """Worst-case mean-variance risk ``-mu @ w + beta * w @ cov @ w`` over a ball.

    Evaluated through the one-dimensional convex dual

        inf over gamma > beta * ||w||**2  of
        gamma * rho**2 - mu @ w + ||w||**2 / (4 gamma)
        + beta * (w @ cov @ w) * gamma / (gamma - beta * ||w||**2),

    bracketed and minimized by golden-section search with a Newton
    polish on the stationarity condition.

    Raises
    ------
    BadBeta, SingularCov, MahalanobisUnsupported
        Per the preconditions; ``w = 0`` returns 0 and ``rho = 0``
        short-circuits to the fixed-moment value.
    """
    w, beta, norm_sq, s = _meanvariance_setup(ball, w, beta)
    if norm_sq == 0.0:
        return 0.0
    center, rho = ball.center, ball.radius
    nominal = -float(center.mean @ w)
    if rho == 0.0:
        return nominal + beta * s

    a = beta * norm_sq
    rho_sq = rho * rho

    def dual(gamma: float) -> float:
        return gamma * rho_sq + norm_sq / (4.0 * gamma) + beta * s * gamma / (gamma - a)

    def slope(gamma: float) -> float:
        return rho_sq - norm_sq / (4.0 * gamma * gamma) - beta * a * s / (gamma - a) ** 2

    def curvature(gamma: float) -> float:
        return norm_sq / (2.0 * gamma**3) + 2.0 * beta * a * s / (gamma - a) ** 3

    lo = a + 1e-12 + 1e-9 * max(a, 1.0)
    hi = max(2.0 * a, a + 1.0)
    for _ in range(200):
        if slope(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise RootBracketFailure("could not bracket the dual minimizer")

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    left, right = lo, hi
    c = right - invphi * (right - left)
    d = left + invphi * (right - left)
    fc, fd = dual(c), dual(d)
    for _ in range(80):
        if fc < fd:
            right, d, fd = d, c, fc
            c = right - invphi * (right - left)
            fc = dual(c)
        else:
            left, c, fc = c, d, fd
            d = left + invphi * (right - left)
            fd = dual(d)
    gamma = 0.5 * (left + right)
    for _ in range(2):
        step = slope(gamma) / curvature(gamma)
        if gamma - step > a:
            gamma -= step
    return nominal + dual(gamma)


def worst_case_moments_meanvariance(
    ball: GelbrichBall, w: np.ndarray, beta: float
) -> MomentPair:
    """Moments attaining the worst-case mean-variance risk.

    The optimal dual variable ``gamma*`` is the unique root of the
    strictly decreasing function

        g(gamma) = ||w||**2 / (4 gamma**2)
                 + beta**2 * ||w||**2 * (w @ cov @ w) / (gamma - a)**2
                 - rho**2,        a = beta * ||w||**2,

    on ``(a, inf)``; it is located by bisection with geometric bracket
    growth and polished with two Newton steps.  The moments are then

        mu*  = mu - w / (2 gamma*)
        cov* = F cov F,  F = (I - beta w w^T / gamma*)^{-1}
                           = I + beta w w^T / (gamma* - a),

    the second expression (rank-one update) being the one evaluated.

    Raises
    ------
    RootBracketFailure
        If no sign change is found while growing the bracket; purely
        diagnostic, since ``g`` decreases from +inf to ``-rho**2``.
    """
    w, beta, norm_sq, s = _meanvariance_setup(ball, w, beta)
    if norm_sq == 0.0:
        raise ZeroPortfolio("worst-case moments are undefined for the zero portfolio")
    if ball.radius == 0.0:
        raise OutOfRange("worst-case moments need a strictly positive radius")
    center, rho = ball.center, ball.radius
    a = beta * norm_sq
    rho_sq = rho * rho

    def foc(gamma: float) -> float:
        return (
            norm_sq / (4.0 * gamma * gamma)
            + beta * beta * norm_sq * s / (gamma - a) ** 2
            - rho_sq
        )

    def foc_slope(gamma: float) -> float:
        return -norm_sq / (2.0 * gamma**3) - 2.0 * beta * beta * norm_sq * s / (gamma - a) ** 3

    lo = a + 1e-12 + 1e-9 * max(a, 1.0)
    if foc(lo) <= 0.0:
        # the root is squeezed against the left endpoint; lo is already
        # accurate to the bracket tolerance
        gamma = lo
    else:
        hi = max(2.0 * a, a + 1.0)
        for _ in range(200):
            if foc(hi) < 0.0:
                break
            hi *= 2.0
        else:
            raise RootBracketFailure("could not bracket the optimal dual variable")
        left, right = lo, hi
        while right - left > 1e-12 * max(1.0, right):
            mid = 0.5 * (left + right)
            if foc(mid) > 0.0:
                left = mid
            else:
                right = mid
        gamma = 0.5 * (left + right)
        for _ in range(2):
            step = foc(gamma) / foc_slope(gamma)
            if gamma - step > a:
                gamma -= step

    mean = center.mean - w / (2.0 * gamma)
    factor = np.eye(ball.dim) + beta * np.outer(w, w) / (gamma - a)
    return MomentPair(mean, sym_matrix(factor @ center.cov @ factor))
