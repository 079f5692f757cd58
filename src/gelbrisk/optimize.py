"""Portfolio selection under moment ambiguity.

Minimizes two robust objectives, both in closed form, subject to simple
portfolio constraints: a simplex with lower bounds, the tracking set that
pins the last coordinate to ``-1``, or box bounds with a budget.

The linear-loss worst-case risk is

    -mu'w + alpha * sqrt(w' cov w) + radius * sqrt(1 + alpha^2) * ||w||.

The worst-case tracking error ``sup w' M w`` over the (mean, second
moment) pairs of a Gelbrich ball also has a closed form.  The loss only
sees the mean ``m = w'mu`` and the deviation ``s = sqrt(w' cov w)`` of
``w' xi``, the ball allows every ``(m, s)`` within ``radius * ||w||`` of
the nominal pair, and ``m^2 + s^2`` is largest along the nominal
direction, so

    sup w' M w = r(w)^2,   r(w) = sqrt(w'(cov + mu mu')w) + radius * ||w||.

Both objectives are convex and differentiable wherever their square
roots are positive; on the tracking set ``||w|| >= 1``, and ``r`` is
smooth unless the index is exactly replicable.  They are minimized by
accelerated projected gradient (FISTA; Beck & Teboulle, 2009) with a
backtracking estimate of the gradient's Lipschitz constant and a restart
whenever a step shows no descent.  The loop stops on a certificate: the
Frank-Wolfe duality gap ``g'(w - s)``, where ``s`` minimizes ``g's`` over
the set (Jaggi, 2013), bounds ``f(w) - min f`` for a convex ``f``.  The
iteration schedule is deterministic: the same inputs always produce the
same report.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadP,
    DimMismatch,
    InfeasibleSet,
    NegativeAlpha,
    NonFinite,
    ValidationError,
)
from .linear_risk import GelbrichBall
from .support import support_V  # noqa: F401  (bench/spans.py wraps optimize.support_V)

__all__ = [
    "FeasibleSet",
    "OptimizeReport",
    "Termination",
    "minimize_linear_gelbrich",
    "minimize_tracking",
]

_log = logging.getLogger(__name__)

_DEFAULT_MAX_ITER = 10_000

# A solve converges once the Frank-Wolfe gap is at most _GAP_RTOL of |f|
# or _GAP_FLOOR of the size of the terms summed into f.  The floor decides
# only where the terms cancel to under 1e-4 of their size, as at a zero
# optimum, where gap >= f - min f = f and the relative test cannot pass.
_GAP_RTOL = 1e-8
_GAP_FLOOR = 1e-12

_FEASIBLE_TOL = 1e-9


class Termination(enum.Enum):
    """Why the optimizer stopped."""

    CONVERGED = "Converged"
    ITERATION_CAP = "IterationCap"


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto ``{w >= 0, sum w = total}``.

    Sort-and-threshold: with the entries sorted decreasingly, the largest
    prefix whose running mean (after subtracting ``total``) stays below
    its last entry determines the shift ``theta``; clipping ``v - theta``
    at zero is then the projection.
    """
    if total <= 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - total
    counts = np.arange(1, v.size + 1, dtype=float)
    support = np.nonzero(u * counts > shifted)[0]
    k = int(support[-1]) + 1
    theta = shifted[k - 1] / k
    return np.maximum(v - theta, 0.0)


def _as_bound_vector(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    try:
        vec = np.broadcast_to(arr, (n,)).copy()
    except ValueError:
        raise DimMismatch(
            f"{name} bounds have shape {arr.shape}, expected a scalar or length {n}"
        ) from None
    if not np.all(np.isfinite(vec)):
        raise NonFinite(f"{name} bounds must be finite, got {vec}")
    return vec


@dataclass(eq=False, frozen=True)
class FeasibleSet:
    """A portfolio constraint set with a cheap Euclidean projection.

    Three kinds are supported, built through the classmethod
    constructors below:

    ``"simplex"``
        ``sum(w) = 1`` and ``w >= lower`` elementwise.
    ``"fixed-index-simplex"``
        The tracking set: the first ``n - 1`` weights lie on the
        standard simplex and the last coordinate (the index being
        replicated) is pinned to ``-1``.
    ``"box-budget"``
        ``lower <= w <= upper`` elementwise and ``sum(w) = budget``.

    Every constructor verifies nonemptiness by building one feasible
    point and raises :class:`InfeasibleSet` otherwise.
    """

    kind: str
    lower: np.ndarray
    upper: np.ndarray | None
    budget: float

    # -- constructors --------------------------------------------------

    @classmethod
    def simplex(cls, n: int, lower: float | np.ndarray = 0.0) -> "FeasibleSet":
        """Budget-one simplex with elementwise lower bounds."""
        n = int(n)
        if n < 1:
            raise InfeasibleSet(f"a simplex needs at least one coordinate, got n={n}")
        low = _as_bound_vector(lower, n, "lower")
        slack = 1.0 - float(np.sum(low))
        if slack < 0.0:
            raise InfeasibleSet(
                f"lower bounds sum to {np.sum(low)} > 1; no point satisfies the budget"
            )
        return cls(kind="simplex", lower=low, upper=None, budget=1.0)

    @classmethod
    def tracking_simplex(cls, n: int) -> "FeasibleSet":
        """First ``n - 1`` weights on the simplex, last pinned to ``-1``."""
        n = int(n)
        if n < 2:
            raise InfeasibleSet(
                f"the tracking set needs at least one asset plus the index, got n={n}"
            )
        return cls(
            kind="fixed-index-simplex",
            lower=np.zeros(n),
            upper=None,
            budget=1.0,
        )

    @classmethod
    def box_budget(cls, lower, upper, budget: float = 1.0) -> "FeasibleSet":
        """Box ``lower <= w <= upper`` intersected with ``sum(w) = budget``."""
        low_arr = np.atleast_1d(np.asarray(lower, dtype=float))
        up_arr = np.atleast_1d(np.asarray(upper, dtype=float))
        if low_arr.ndim != 1 or up_arr.ndim != 1:
            raise DimMismatch(
                f"bounds must be vectors, got shapes {low_arr.shape} and {up_arr.shape}"
            )
        n = max(low_arr.size, up_arr.size)
        low = _as_bound_vector(low_arr, n, "lower")
        up = _as_bound_vector(up_arr, n, "upper")
        budget = float(budget)
        if not math.isfinite(budget):
            raise NonFinite(f"budget must be finite, got {budget}")
        if np.any(low > up):
            bad = int(np.argmax(low > up))
            raise InfeasibleSet(
                f"lower bound exceeds upper bound at coordinate {bad}: "
                f"{low[bad]} > {up[bad]}"
            )
        if not float(np.sum(low)) <= budget <= float(np.sum(up)):
            raise InfeasibleSet(
                f"budget {budget} outside [{np.sum(low)}, {np.sum(up)}], "
                "the range reachable inside the box"
            )
        return cls(kind="box-budget", lower=low, upper=up, budget=budget)

    # -- geometry ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Euclidean projection of ``v`` onto the set."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimMismatch(f"expected a vector of length {self.dim}, got {v.shape}")
        if self.kind == "simplex":
            slack = self.budget - float(np.sum(self.lower))
            return self.lower + _project_simplex(v - self.lower, slack)
        if self.kind == "fixed-index-simplex":
            head = _project_simplex(v[:-1], self.budget)
            return np.append(head, -1.0)
        return self._project_box_budget(v)

    def _project_box_budget(self, v: np.ndarray) -> np.ndarray:
        # sum(clip(v - lam, lower, upper)) is nonincreasing in lam and
        # hits every value in [sum(lower), sum(upper)]; bisect on lam.
        lo = float(np.min(v - self.upper)) - 1.0
        hi = float(np.max(v - self.lower)) + 1.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if float(np.sum(np.clip(v - mid, self.lower, self.upper))) > self.budget:
                lo = mid
            else:
                hi = mid
        return np.clip(v - 0.5 * (lo + hi), self.lower, self.upper)

    def feasible_point(self) -> np.ndarray:
        """A deterministic point of the set (the 'center' where natural)."""
        if self.kind == "simplex":
            slack = self.budget - float(np.sum(self.lower))
            return self.lower + slack / self.dim
        if self.kind == "fixed-index-simplex":
            head = np.full(self.dim - 1, self.budget / (self.dim - 1))
            return np.append(head, -1.0)
        return self._project_box_budget(0.5 * (self.lower + self.upper))

    def vertex(self, direction: np.ndarray) -> np.ndarray:
        """A vertex minimizing ``direction @ s`` over the set (the Frank-Wolfe oracle).

        The box-budget set fills its budget in increasing order of ``direction``.
        """
        if self.kind == "simplex":
            s = self.lower.copy()
            s[int(np.argmin(direction))] += self.budget - float(np.sum(self.lower))
            return s
        if self.kind == "fixed-index-simplex":
            s = np.zeros(self.dim)
            s[int(np.argmin(direction[:-1]))] = self.budget
            s[-1] = -1.0
            return s
        order = np.argsort(direction, kind="stable")
        room = (self.upper - self.lower)[order]
        left = self.budget - float(np.sum(self.lower))
        s = self.lower.copy()
        s[order] += np.clip(left - (np.cumsum(room) - room), 0.0, room)
        return s

    def contains(self, w: np.ndarray, tol: float = _FEASIBLE_TOL) -> bool:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            return False
        if self.kind == "simplex":
            return bool(
                np.all(w >= self.lower - tol)
                and abs(float(np.sum(w)) - self.budget) <= tol
            )
        if self.kind == "fixed-index-simplex":
            return bool(
                np.all(w[:-1] >= -tol)
                and abs(float(np.sum(w[:-1])) - self.budget) <= tol
                and abs(w[-1] + 1.0) <= tol
            )
        return bool(
            np.all(w >= self.lower - tol)
            and np.all(w <= self.upper + tol)
            and abs(float(np.sum(w)) - self.budget) <= tol
        )

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A random feasible point (for certificates, not optimization)."""
        if self.kind == "simplex":
            slack = self.budget - float(np.sum(self.lower))
            return self.lower + slack * rng.dirichlet(np.ones(self.dim))
        if self.kind == "fixed-index-simplex":
            head = self.budget * rng.dirichlet(np.ones(self.dim - 1))
            return np.append(head, -1.0)
        return self._project_box_budget(rng.uniform(self.lower, self.upper))


@dataclass(eq=False)
class OptimizeReport:
    """Outcome of a solve.

    ``value`` is the objective at ``w_star``, the last iterate.
    ``gap`` is the Frank-Wolfe gap at ``w_star``, an upper bound on
    ``value - min f``; ``termination`` is ``CONVERGED`` exactly when
    ``gap <= 1e-8 * |value|``, or, where the terms of the objective
    cancel to nearly zero, ``gap <= 1e-12`` times their magnitude.
    ``trace`` carries the per-iteration objective values when requested,
    starting with the initial point.
    """

    w_star: np.ndarray
    value: float
    iterations: int
    termination: Termination
    gap: float
    trace: np.ndarray | None = None


# An objective maps ``w`` to its value, its gradient and the magnitude of
# the terms summed into the value (which cancel where the value is near 0).
Objective = Callable[[np.ndarray], tuple[float, np.ndarray, float]]


def _accelerated_descent(
    objective: Objective,
    feasible: FeasibleSet,
    max_iter: int,
    keep_trace: bool,
) -> OptimizeReport:
    """Monotone accelerated projected gradient, stopped on the Frank-Wolfe gap.

    Each iteration takes one projected gradient step from the
    extrapolated point ``y``, ``z = P(y - grad f(y) / L)``, doubling ``L``
    until ``(grad f(z) - grad f(y))'(z - y) <= L ||z - y||^2``.  This test
    reads no function values, so it stays decisive where ``f`` is tiny
    against its rounding error (a nearly replicable index).  A step that
    shows no descent is discarded and the momentum restarts from ``w``.
    """
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")

    w = feasible.feasible_point()
    f, g, scale = objective(w)
    trace = [f]
    y, g_y = w, g
    momentum = 1.0
    # Exact for f = L ||w||^2 / 2; backtracking corrects it upward.
    lipschitz = float(np.linalg.norm(g)) / (float(np.linalg.norm(w)) or 1.0)

    iterations = 0
    while True:
        gap = float(g @ (w - feasible.vertex(g)))
        if gap <= _GAP_RTOL * abs(f) or gap <= _GAP_FLOOR * scale:
            termination = Termination.CONVERGED
            break
        if iterations == max_iter:
            termination = Termination.ITERATION_CAP
            _log.warning("stopped at the cap of %d iterations with Frank-Wolfe gap %.3e "
                         "(value %.6e)", iterations, gap, f)
            break
        iterations += 1
        while True:
            z = feasible.project(y - g_y / lipschitz)
            f_z, g_z, scale_z = objective(z)
            step = z - y
            if float((g_z - g_y) @ step) <= lipschitz * float(step @ step):
                break
            lipschitz *= 2.0
        # The curvature test gives f(z) <= f(y) + g_y'(z - y) + L ||z - y||^2,
        # so with the projection f(w) - f(z) >= L (z - y)'(y - w), a test on
        # the iterates alone that holds when y = w and ignores rounding in f.
        if f_z <= f or float(step @ (y - w)) >= 0.0:
            next_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
            beta = (momentum - 1.0) / next_momentum
            momentum = next_momentum
            if beta > 0.0:
                y = z + beta * (z - w)
                g_y = objective(y)[1]
            else:
                y, g_y = z, g_z
            w, f, g, scale = z, f_z, g_z, scale_z
        else:
            y, g_y, momentum = w, g, 1.0
        trace.append(f)

    return OptimizeReport(
        w_star=w,
        value=f,
        iterations=iterations,
        termination=termination,
        gap=gap,
        trace=np.asarray(trace) if keep_trace else None,
    )


def _check_feasible(ball: GelbrichBall, feasible: FeasibleSet) -> None:
    if feasible.dim != ball.dim:
        raise DimMismatch(
            f"feasible set has dimension {feasible.dim} but the ball lives in "
            f"dimension {ball.dim}"
        )


def _linear_objective(ball: GelbrichBall, alpha: float) -> Objective:
    """Worst-case linear-loss risk of ``w`` and its gradient."""
    mean = ball.center.mean
    cov = ball.center.cov
    lam = ball.radius * math.sqrt(1.0 + alpha * alpha)
    weight = ball.weight

    def objective(w: np.ndarray) -> tuple[float, np.ndarray, float]:
        cov_w = cov @ w
        deviation = alpha * math.sqrt(max(float(w @ cov_w), 0.0))
        scaled = w if weight is None else np.linalg.solve(weight, w)
        norm = math.sqrt(max(float(w @ scaled), 0.0))
        expected = float(mean @ w)
        value = -expected + deviation + lam * norm
        grad = -mean.copy()
        if deviation > 0.0:
            grad += (alpha * alpha / deviation) * cov_w
        if norm > 0.0:
            grad += (lam / norm) * scaled
        return value, grad, abs(expected) + deviation + lam * norm

    return objective


def _tracking_objective(ball: GelbrichBall, p: int) -> Objective:
    """Worst-case tracking error ``r(w)^p`` of ``w`` and its gradient."""
    radius = ball.radius
    second = ball.center.cov + np.outer(ball.center.mean, ball.center.mean)
    diagonal = np.diag(second).copy()

    def objective(w: np.ndarray) -> tuple[float, np.ndarray, float]:
        second_w = second @ w
        root = math.sqrt(max(float(w @ second_w), 0.0))
        norm = math.sqrt(float(w @ w))
        value = root + radius * norm
        grad = np.zeros_like(w)
        if root > 0.0:
            grad += second_w / root
        if norm > 0.0:
            grad += (radius / norm) * w
        # The diagonal terms of w' M w, which the off-diagonal ones cancel
        # where the index is nearly replicable.
        scale = math.sqrt(float((w * w) @ diagonal)) + radius * norm
        if p == 1:
            return value, grad, scale
        return value * value, (2.0 * value) * grad, scale * scale

    return objective


def minimize_linear_gelbrich(
    ball: GelbrichBall,
    alpha: float,
    feasible: FeasibleSet,
    *,
    max_iter: int = _DEFAULT_MAX_ITER,
    keep_trace: bool = False,
) -> OptimizeReport:
    """Minimize the worst-case linear-loss risk over ``feasible``.

    The objective is the closed-form worst-case risk of the loss
    ``-w @ xi``,

        -mu'w + alpha * sqrt(w' cov w)
              + radius * sqrt(1 + alpha^2) * ||w||_{weight^{-1}},

    evaluated exactly as :func:`gelbrisk.linear_risk.gelbrich_risk_linear`
    does, so the reported value agrees with that function at ``w_star``.
    Gradients use the convention that a term whose denominator vanishes
    (``w' cov w = 0`` or ``||w|| = 0``) contributes zero — a valid
    subgradient choice at the minimum of a norm.

    Parameters
    ----------
    ball : GelbrichBall
        Moment ambiguity ball; a weighted ball changes the norm of the
        robustness term.
    alpha : float
        Nonnegative standard risk coefficient.
    feasible : FeasibleSet
        Constraint set; its dimension must match the ball's.
    max_iter : int, optional
        Iteration cap of the accelerated gradient loop.
    keep_trace : bool, optional
        Record the per-iteration objective values in the report.
    """
    alpha = float(alpha)
    if math.isnan(alpha) or math.isinf(alpha):
        raise NonFinite(f"alpha must be finite, got {alpha}")
    if alpha < 0.0:
        raise NegativeAlpha(f"the risk coefficient must be nonnegative, got {alpha}")
    _check_feasible(ball, feasible)
    return _accelerated_descent(
        _linear_objective(ball, alpha), feasible, max_iter, keep_trace
    )


def minimize_tracking(
    ball: GelbrichBall,
    p: int,
    feasible: FeasibleSet,
    *,
    max_iter: int = _DEFAULT_MAX_ITER,
    keep_trace: bool = False,
) -> OptimizeReport:
    """Minimize the worst-case tracking error over ``feasible``.

    The objective is ``sup w' M w`` over the second-moment pairs of the
    ball (``p = 2``) or its square root (``p = 1``), evaluated in closed
    form: with ``r(w) = sqrt(w'(cov + mu mu')w) + radius * ||w||`` it is
    ``r`` for ``p = 1`` and ``r^2`` for ``p = 2``, at every radius
    including zero.  The nominal covariance may be singular.  Both
    exponents share the minimizer.

    The natural constraint set is :meth:`FeasibleSet.tracking_simplex`,
    which holds the replicating weights on a simplex and the index
    weight at ``-1``, but any :class:`FeasibleSet` is accepted.

    Raises
    ------
    MahalanobisUnsupported
        If the ball carries a weight other than the identity.
    """
    if p not in (1, 2):
        raise BadP(f"the tracking exponent must be 1 or 2, got {p!r}")
    _check_feasible(ball, feasible)
    ball.require_unweighted("the worst-case tracking error")
    return _accelerated_descent(
        _tracking_objective(ball, int(p)), feasible, max_iter, keep_trace
    )
