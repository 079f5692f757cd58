"""Support functions of moment ambiguity balls.

Worst-case linear functionals of the first two moments,

    sup  q'mu + <Q, S>    over pairs in a Gelbrich ball,

come in two flavors: over (mean, covariance) pairs, and over
(mean, second moment) pairs, where the second-moment formulation absorbs
the quadratic mean term ``mu' Q mu`` that a squared loss produces.  Both
suprema reduce to a one-dimensional root-finding problem in the dual
multiplier ``gamma`` of the ball constraint: after rotating into the
eigenbasis of ``Q``, the stationarity condition reads

    sum_j  a_j / (gamma - p_j)^2  =  radius^2

with nonnegative weights ``a_j`` and poles ``p_j`` strictly below the
feasible range of ``gamma``.  The left side is therefore strictly
decreasing, the bracketed root is unique, and a bisection with a Newton
polish recovers it to machine precision.  ``support_U_sdp`` and
``support_V_sdp`` re-evaluate the same values through small semidefinite
programs as an independent cross-check route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    HypothesisViolated,
    NonFinite,
    RootBracketFailure,
    SingularCov,
    SolverDidNotConverge,
)
from .linalg import sqrtm_psd, sym_matrix
from .linear_risk import GelbrichBall
from .metric import ORACLE_SIZE_LIMIT, MomentPair

__all__ = [
    "SupportQuery",
    "SupportResult",
    "support_U",
    "support_V",
    "support_U_sdp",
    "support_V_sdp",
]

#: relative and absolute padding that keeps the root bracket clear of the pole
_BRACKET_PAD_REL = 1e-9
_BRACKET_PAD_ABS = 1e-12
#: doubling steps allowed while searching for the bracket's upper end
_BRACKET_DOUBLINGS = 200
#: bisection width target, relative to the multiplier's magnitude
_BISECT_TOL = 1e-12

#: relative slack deciding when the shrinkage budget covers every penalized
#: direction in the concave fallback regime
_FULL_SHRINK_RTOL = 1e-12


@dataclass(eq=False)
class SupportQuery:
    """Linear moment functional ``q' mu + <Q, S>`` to maximize over a ball.

    Parameters
    ----------
    q : array_like, shape (n,)
        Weight on the mean.
    Q : array_like, shape (n, n)
        Symmetric weight on the covariance (or second moment); indefinite
        matrices are allowed.
    """

    q: np.ndarray
    Q: np.ndarray

    def __post_init__(self) -> None:
        self.q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if self.q.ndim != 1:
            raise DimMismatch(f"q must be a vector, got shape {self.q.shape}")
        self.Q = sym_matrix(self.Q)
        if self.Q.shape[0] != self.q.shape[0]:
            raise DimMismatch(
                f"q has length {self.q.shape[0]} but Q has shape {self.Q.shape}"
            )
        if not (np.isfinite(self.q).all() and np.isfinite(self.Q).all()):
            raise NonFinite("query contains NaN or infinity")

    @property
    def dim(self) -> int:
        return self.q.shape[0]


@dataclass(eq=False)
class SupportResult:
    """Value and maximizer of a support-function evaluation.

    Attributes
    ----------
    value : float
        The supremum.
    gamma_star : float
        Dual multiplier of the ball constraint; ``inf`` on the zero-radius
        branch, ``0.0`` when the concave fallback shrinks every penalized
        direction with budget to spare.
    argmax : MomentPair or (ndarray, ndarray)
        Attaining moments: a :class:`MomentPair` for covariance queries, a
        ``(mean, second_moment)`` pair for second-moment queries.
    method : str
        ``"foc"`` for the stationarity-equation path, ``"center"`` for the
        zero-radius short-circuit, ``"fallback"`` for the concave regime.
    """

    value: float
    gamma_star: float
    argmax: "MomentPair | tuple[np.ndarray, np.ndarray]"
    method: str = field(default="foc")


def _checked_inputs(ball: GelbrichBall, query: SupportQuery):
    n = ball.dim
    if query.dim != n:
        raise DimMismatch(f"query dimension {query.dim} does not match ball's {n}")
    ball.require_unweighted("the support function")
    center = ball.center
    lam = np.linalg.eigvalsh(center.cov)
    if lam[0] <= 1e-10 * max(1.0, lam[-1]):
        raise SingularCov(
            "support evaluation needs a positive definite center covariance; "
            f"smallest eigenvalue {lam[0]:.3e}"
        )
    return n, center.mean, center.cov, float(ball.radius)


def _decreasing_pole_root(weights: np.ndarray, poles: np.ndarray, rho_sq: float,
                          lower: float) -> float:
    """Unique root of ``sum_j w_j/(g - p_j)^2 = rho_sq`` on ``(lower, inf)``.

    All weights are nonnegative and all poles sit strictly below ``lower``,
    so the left side decreases strictly from ``+inf`` at the dominant pole
    to 0; bisection plus two Newton steps pins the crossing down to full
    double precision.
    """

    keep = weights > 0.0
    weights, poles = weights[keep], poles[keep]

    def f(g: float) -> float:
        return float(np.sum(weights / (g - poles) ** 2) - rho_sq)

    def fprime(g: float) -> float:
        return float(-2.0 * np.sum(weights / (g - poles) ** 3))

    if f(lower) <= 0.0:
        raise RootBracketFailure(
            "stationarity equation is already below the radius at the "
            "bracket's lower end; the multiplier sits inside the pole padding"
        )
    hi = lower + 1.0
    for _ in range(_BRACKET_DOUBLINGS):
        if f(hi) < 0.0:
            break
        hi = lower + 2.0 * (hi - lower)
    else:
        raise RootBracketFailure(
            f"no sign change within {_BRACKET_DOUBLINGS} bracket doublings"
        )
    lo = lower
    while hi - lo > _BISECT_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    for _ in range(2):
        slope = fprime(root)
        if slope == 0.0:
            break
        candidate = root - f(root) / slope
        if candidate > lower and abs(f(candidate)) < abs(f(root)):
            root = candidate
    return root


def support_U(ball: GelbrichBall, query: SupportQuery) -> SupportResult:
    """Maximize ``q' mu + <Q, Sigma>`` over (mean, covariance) pairs.

    The stationarity route applies whenever ``q != 0`` or ``Q`` has a
    positive eigenvalue; the remaining concave regime (shrinking rather
    than inflating the covariance) is handled by a dedicated branch flagged
    as ``method="fallback"``.

    Parameters
    ----------
    ball : GelbrichBall
        Ambiguity ball; the center covariance must be positive definite.
    query : SupportQuery
        Mean and covariance weights.

    Returns
    -------
    SupportResult
        Supremum, dual multiplier, and the attaining pair.

    Raises
    ------
    SingularCov
        If the center covariance is (numerically) singular.
    MahalanobisUnsupported
        If the ball carries a weight other than the identity; this holds
        for every function of this module.
    RootBracketFailure
        If the multiplier cannot be bracketed.
    """

    n, mu, cov, rho = _checked_inputs(ball, query)
    q, q_mat = query.q, query.Q
    if rho == 0.0:
        value = float(q @ mu) + float(np.trace(q_mat @ cov))
        return SupportResult(value, math.inf, MomentPair(mu, cov), method="center")

    d, rot = np.linalg.eigh(q_mat)
    if d[-1] <= 0.0 and not q.any():
        return _concave_shrink(mu, cov, q_mat, rho, d, rot)

    t = np.einsum("ki,kl,li->i", rot, cov, rot)  # diag of rot' cov rot
    weights = np.concatenate(([float(q @ q) / 4.0], t * d**2))
    poles = np.concatenate(([0.0], d))
    lower = max(d[-1], 0.0) * (1.0 + _BRACKET_PAD_REL) + _BRACKET_PAD_ABS
    gamma = _decreasing_pole_root(weights, poles, rho**2, lower)

    shrink = (rot * (gamma / (gamma - d))) @ rot.T  # (I - Q/gamma)^(-1)
    cov_star = sym_matrix(shrink @ cov @ shrink)
    mu_star = mu + q / (2.0 * gamma)
    value = float(q @ mu_star) + float(np.trace(q_mat @ cov_star))
    return SupportResult(value, gamma, MomentPair(mu_star, cov_star))


def support_V(ball: GelbrichBall, query: SupportQuery) -> SupportResult:
    """Maximize ``q' mu + <Q, M>`` over (mean, second moment) pairs.

    Requires ``Q`` to have a positive eigenvalue; otherwise the
    second-moment supremum is not characterized by the stationarity
    equation and :class:`HypothesisViolated` is raised.

    Parameters
    ----------
    ball : GelbrichBall
        Ambiguity ball; the center covariance must be positive definite.
    query : SupportQuery
        Mean and second-moment weights.

    Returns
    -------
    SupportResult
        Supremum, dual multiplier, and the attaining ``(mean, M)`` pair.
    """

    n, mu, cov, rho = _checked_inputs(ball, query)
    q, q_mat = query.q, query.Q
    if rho == 0.0:
        m_center = sym_matrix(cov + np.outer(mu, mu))
        value = float(q @ mu) + float(np.trace(q_mat @ m_center))
        return SupportResult(value, math.inf, (mu.copy(), m_center), method="center")

    d, rot = np.linalg.eigh(q_mat)
    if d[-1] <= 0.0:
        raise HypothesisViolated(
            "second-moment support needs a positive eigenvalue in Q; got "
            f"lambda_max = {d[-1]:.3e}"
        )

    t = np.einsum("ki,kl,li->i", rot, cov, rot)
    mu_rot = rot.T @ mu
    q_rot = rot.T @ q
    weights = np.concatenate(((d * mu_rot + q_rot / 2.0) ** 2, t * d**2))
    poles = np.concatenate((d, d))
    lower = d[-1] * (1.0 + _BRACKET_PAD_REL) + _BRACKET_PAD_ABS
    gamma = _decreasing_pole_root(weights, poles, rho**2, lower)

    mu_star = rot @ ((gamma * mu_rot + q_rot / 2.0) / (gamma - d))
    shrink = (rot * (gamma / (gamma - d))) @ rot.T
    second = sym_matrix(shrink @ cov @ shrink + np.outer(mu_star, mu_star))
    value = float(q @ mu_star) + float(np.trace(q_mat @ second))
    return SupportResult(value, gamma, (mu_star, second))


def _concave_shrink(mu: np.ndarray, cov: np.ndarray, q_mat: np.ndarray,
                    rho: float, d: np.ndarray, rot: np.ndarray) -> SupportResult:
    """Exact treatment of the concave regime ``q = 0``, ``Q`` negative semidefinite.

    The objective ``<Q, Sigma> <= 0`` rewards shrinking the covariance along
    the penalized eigendirections of ``Q`` while the mean stays put.  The
    multiplier equation still applies on ``gamma in (0, inf)`` — its left
    side now starts at the *finite* value ``sum_{d_k < 0} t_k`` instead of a
    pole — so either the budget covers a full shrink (supremum 0, attained
    at the covariance projected onto ``ker Q``) or the equation has a root
    and the usual shrinkage formulas give the boundary maximizer.
    """

    t = np.einsum("ki,kl,li->i", rot, cov, rot)
    weights = t * d**2
    full_budget = float(np.sum(t[d < 0.0]))
    if rho**2 >= full_budget * (1.0 - _FULL_SHRINK_RTOL):
        kernel = (rot * (d == 0.0)) @ rot.T
        cov_star = sym_matrix(kernel @ cov @ kernel)
        return SupportResult(0.0, 0.0, MomentPair(mu, cov_star), method="fallback")
    gamma = _decreasing_pole_root(weights, d, rho**2, _BRACKET_PAD_ABS)
    shrink = (rot * (gamma / (gamma - d))) @ rot.T
    cov_star = sym_matrix(shrink @ cov @ shrink)
    value = float(np.trace(q_mat @ cov_star))
    return SupportResult(value, gamma, MomentPair(mu, cov_star), method="fallback")


# --- semidefinite cross-check route ------------------------------------------


def _sdp_guard(ball: GelbrichBall, query: SupportQuery):
    n, mu, cov, rho = _checked_inputs(ball, query)
    if n > ORACLE_SIZE_LIMIT:
        raise DimMismatch(
            f"SDP cross-check limited to n <= {ORACLE_SIZE_LIMIT} (got {n}); "
            "use the stationarity route for larger instances"
        )
    return n, mu, cov, rho


def _solve_program(prog, **solver_options) -> float:
    from .sdp import SolveStatus, admm_solve

    solution = admm_solve(prog.compile(), **solver_options)
    if solution.status is not SolveStatus.OPTIMAL:
        raise SolverDidNotConverge(
            f"support SDP ended with status {solution.status.value} after "
            f"{solution.iterations} iterations"
        )
    return prog.objective_value(solution)


def support_U_sdp(ball: GelbrichBall, query: SupportQuery, **solver_options) -> float:
    """Covariance-pair support value through its semidefinite dual.

    Small-instance cross-check for :func:`support_U`: the Schur-complement
    dual with one shrinkage block and one arrow-head block encoding the
    quadratic mean payoff ``|q|^2 / (4 gamma)``.

    Parameters
    ----------
    ball, query
        As in :func:`support_U`; dimension capped at the oracle limit.
    **solver_options
        Forwarded to the conic solver (``tol``, ``max_iter``, ...).

    Raises
    ------
    SolverDidNotConverge
        If the solver does not reach its optimality certificate.
    """

    n, mu, cov, rho = _sdp_guard(ball, query)
    if rho == 0.0:
        return float(query.q @ mu) + float(np.trace(query.Q @ cov))
    from .sdp import LmiProgram

    root = sqrtm_psd(cov)
    prog = LmiProgram()
    gamma = prog.scalar("gamma", nonneg=True)
    tau = prog.scalar("tau", nonneg=True)
    z_vars = {
        (i, j): prog.scalar(f"Z_{i}_{j}") for i in range(n) for j in range(i, n)
    }

    # [gamma I - Q, gamma root; gamma root, Z] >= 0
    shrink_const = np.zeros((2 * n, 2 * n))
    shrink_const[:n, :n] = -query.Q
    gamma_basis = np.zeros((2 * n, 2 * n))
    gamma_basis[:n, :n] = np.eye(n)
    gamma_basis[:n, n:] = root
    gamma_basis[n:, :n] = root
    terms = [(gamma, gamma_basis)]
    for (i, j), var in z_vars.items():
        basis = np.zeros((2 * n, 2 * n))
        basis[n + i, n + j] = basis[n + j, n + i] = 1.0
        terms.append((var, basis))
    prog.add_lmi(shrink_const, terms)

    # arrow head for |(q; tau - gamma)| <= tau + gamma
    arrow = n + 2
    arrow_const = np.zeros((arrow, arrow))
    arrow_const[0, 1 : n + 1] = query.q
    arrow_const[1 : n + 1, 0] = query.q
    tau_basis = np.eye(arrow)
    tau_basis[0, n + 1] = tau_basis[n + 1, 0] = 1.0
    gamma_arrow = np.eye(arrow)
    gamma_arrow[0, n + 1] = gamma_arrow[n + 1, 0] = -1.0
    prog.add_lmi(arrow_const, [(tau, tau_basis), (gamma, gamma_arrow)])

    objective = [(tau, 1.0), (gamma, rho**2 - float(np.trace(cov)))]
    objective += [(z_vars[(i, i)], 1.0) for i in range(n)]
    prog.minimize(float(query.q @ mu), objective)
    return _solve_program(prog, **solver_options)


def support_V_sdp(ball: GelbrichBall, query: SupportQuery, **solver_options) -> float:
    """Second-moment support value through its semidefinite dual.

    Small-instance cross-check for :func:`support_V`: the same shrinkage
    block plus a bordered block absorbing the mean payoff.
    """

    n, mu, cov, rho = _sdp_guard(ball, query)
    if rho == 0.0:
        return float(query.q @ mu) + float(
            np.trace(query.Q @ (cov + np.outer(mu, mu)))
        )
    from .sdp import LmiProgram

    root = sqrtm_psd(cov)
    prog = LmiProgram()
    gamma = prog.scalar("gamma", nonneg=True)
    z_scalar = prog.scalar("z", nonneg=True)
    z_vars = {
        (i, j): prog.scalar(f"Z_{i}_{j}") for i in range(n) for j in range(i, n)
    }

    shrink_const = np.zeros((2 * n, 2 * n))
    shrink_const[:n, :n] = -query.Q
    gamma_basis = np.zeros((2 * n, 2 * n))
    gamma_basis[:n, :n] = np.eye(n)
    gamma_basis[:n, n:] = root
    gamma_basis[n:, :n] = root
    terms = [(gamma, gamma_basis)]
    for (i, j), var in z_vars.items():
        basis = np.zeros((2 * n, 2 * n))
        basis[n + i, n + j] = basis[n + j, n + i] = 1.0
        terms.append((var, basis))
    prog.add_lmi(shrink_const, terms)

    # [gamma I - Q, gamma mu + q/2; (gamma mu + q/2)', z] >= 0
    border = n + 1
    border_const = np.zeros((border, border))
    border_const[:n, :n] = -query.Q
    border_const[:n, n] = query.q / 2.0
    border_const[n, :n] = query.q / 2.0
    gamma_border = np.zeros((border, border))
    gamma_border[:n, :n] = np.eye(n)
    gamma_border[:n, n] = mu
    gamma_border[n, :n] = mu
    z_basis = np.zeros((border, border))
    z_basis[n, n] = 1.0
    prog.add_lmi(border_const, [(gamma, gamma_border), (z_scalar, z_basis)])

    gamma_cost = rho**2 - float(mu @ mu) - float(np.trace(cov))
    objective = [(gamma, gamma_cost), (z_scalar, 1.0)]
    objective += [(z_vars[(i, i)], 1.0) for i in range(n)]
    prog.minimize(0.0, objective)
    return _solve_program(prog, **solver_options)
