"""Feasible-set geometry, the closed-form objectives and the certified solvers."""

import logging
import math

import numpy as np
import pytest

from gelbrisk.errors import (
    BadP,
    DimMismatch,
    InfeasibleSet,
    MahalanobisUnsupported,
    NegativeAlpha,
    NonFinite,
    ValidationError,
)
from gelbrisk.linear_risk import GelbrichBall, gelbrich_risk_linear
from gelbrisk.metric import MomentPair
from gelbrisk.optimize import (
    FeasibleSet,
    Termination,
    _tracking_objective,
    minimize_linear_gelbrich,
    minimize_tracking,
)
from gelbrisk.support import SupportQuery, support_V, support_V_sdp

MU5 = np.array([0.05, -0.02, 0.11, 0.03, -0.07])
COV5 = np.array(
    [
        [0.40, 0.05, -0.02, 0.01, 0.00],
        [0.05, 0.25, 0.03, -0.01, 0.02],
        [-0.02, 0.03, 0.55, 0.04, -0.03],
        [0.01, -0.01, 0.04, 0.30, 0.01],
        [0.00, 0.02, -0.03, 0.01, 0.20],
    ]
)
MU2 = np.array([0.08, 0.03])
COV2 = np.array([[0.09, 0.02], [0.02, 0.04]])


def ball5(rho):
    return GelbrichBall(MomentPair(MU5, COV5), rho)


def ball2(rho):
    return GelbrichBall(MomentPair(MU2, COV2), rho)


def tracking_ball(rho, rng=None):
    rng = np.random.default_rng(11) if rng is None else rng
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 0.2 * np.eye(3)
    return GelbrichBall(MomentPair([0.05, 0.02, 0.035], cov), rho)


def linear_objective(ball, alpha, w):
    return gelbrich_risk_linear(ball, w, alpha).value


def tracking_objective(ball, p, w):
    """Worst-case tracking error at a fixed portfolio, via the support function."""
    if ball.radius == 0.0:
        m = ball.center.cov + np.outer(ball.center.mean, ball.center.mean)
        quad = float(w @ m @ w)
    else:
        quad = support_V(ball, SupportQuery(np.zeros(ball.dim), np.outer(w, w))).value
    return quad if p == 2 else math.sqrt(max(quad, 0.0))


class TestFeasibleSet:
    def test_simplex_feasible_point(self):
        fs = FeasibleSet.simplex(4)
        w = fs.feasible_point()
        assert fs.contains(w)
        np.testing.assert_allclose(w, 0.25)

    def test_simplex_lower_bounds_respected(self):
        lower = np.array([0.1, 0.0, 0.3])
        fs = FeasibleSet.simplex(3, lower)
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = fs.project(rng.normal(scale=3.0, size=3))
            assert np.all(w >= lower - 1e-12)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_simplex_saturated_lower_bounds_single_point(self):
        fs = FeasibleSet.simplex(2, [0.4, 0.6])
        np.testing.assert_allclose(fs.project([9.0, -9.0]), [0.4, 0.6])

    def test_simplex_infeasible_lower_bounds(self):
        with pytest.raises(InfeasibleSet):
            FeasibleSet.simplex(3, [0.5, 0.4, 0.2])

    def test_simplex_needs_a_coordinate(self):
        with pytest.raises(InfeasibleSet):
            FeasibleSet.simplex(0)

    def test_simplex_wrong_length_bounds(self):
        with pytest.raises(DimMismatch):
            FeasibleSet.simplex(3, [0.1, 0.2])

    def test_projection_is_idempotent_and_variational(self):
        # P(v) must satisfy (v - Pv) @ (z - Pv) <= 0 for every feasible z.
        rng = np.random.default_rng(1)
        sets = [
            FeasibleSet.simplex(4),
            FeasibleSet.simplex(4, [0.05, 0.0, 0.1, 0.0]),
            FeasibleSet.tracking_simplex(4),
            FeasibleSet.box_budget([-0.5] * 4, [0.8] * 4, budget=1.0),
        ]
        for fs in sets:
            for _ in range(25):
                v = rng.normal(scale=2.0, size=4)
                pv = fs.project(v)
                assert fs.contains(pv)
                np.testing.assert_allclose(fs.project(pv), pv, atol=1e-9)
                for _ in range(20):
                    z = fs.sample(rng)
                    assert (v - pv) @ (z - pv) <= 1e-8

    def test_tracking_simplex_pins_last_coordinate(self):
        fs = FeasibleSet.tracking_simplex(3)
        w = fs.project(np.array([5.0, -2.0, 3.0]))
        assert w[-1] == -1.0
        assert abs(w[:-1].sum() - 1.0) < 1e-12
        assert np.all(w[:-1] >= 0.0)

    def test_tracking_simplex_two_coordinates_is_a_point(self):
        fs = FeasibleSet.tracking_simplex(2)
        np.testing.assert_allclose(fs.feasible_point(), [1.0, -1.0])

    def test_tracking_simplex_needs_an_asset(self):
        with pytest.raises(InfeasibleSet):
            FeasibleSet.tracking_simplex(1)

    def test_box_budget_crossed_bounds(self):
        with pytest.raises(InfeasibleSet):
            FeasibleSet.box_budget([0.0, 0.5], [1.0, 0.2])

    def test_box_budget_unreachable_budget(self):
        with pytest.raises(InfeasibleSet):
            FeasibleSet.box_budget([0.0, 0.0], [0.3, 0.3], budget=1.0)
        with pytest.raises(InfeasibleSet):
            FeasibleSet.box_budget([0.2, 0.2], [1.0, 1.0], budget=0.1)

    def test_box_budget_scalar_bounds_broadcast(self):
        fs = FeasibleSet.box_budget(0.0, [0.6, 0.6, 0.6])
        assert fs.dim == 3
        assert fs.contains(fs.feasible_point())

    def test_box_budget_non_finite_bounds(self):
        with pytest.raises(NonFinite):
            FeasibleSet.box_budget([0.0, np.nan], [1.0, 1.0])
        with pytest.raises(NonFinite):
            FeasibleSet.box_budget(0.0, np.inf)

    def test_samples_are_feasible(self):
        rng = np.random.default_rng(2)
        for fs in (
            FeasibleSet.simplex(5, 0.02),
            FeasibleSet.tracking_simplex(5),
            FeasibleSet.box_budget([-1.0] * 3, [2.0] * 3, budget=0.5),
        ):
            for _ in range(50):
                assert fs.contains(fs.sample(rng))

    def test_project_dimension_mismatch(self):
        with pytest.raises(DimMismatch):
            FeasibleSet.simplex(3).project(np.ones(4))

    def test_vertex_minimizes_linear_functions(self):
        rng = np.random.default_rng(12)
        box = FeasibleSet.box_budget(
            [-0.3, 0.0, -0.1, 0.1, -0.5], [0.6, 0.5, 0.9, 0.4, 0.2], budget=1.0
        )
        for fs in (
            FeasibleSet.simplex(5, [0.05, 0.0, 0.1, 0.0, 0.02]),
            FeasibleSet.tracking_simplex(5),
            box,
        ):
            for _ in range(20):
                direction = rng.standard_normal(5)
                s = fs.vertex(direction)
                assert fs.contains(s)
                for _ in range(50):
                    assert direction @ s <= direction @ fs.sample(rng) + 1e-12

    def test_box_budget_vertex_fills_cheapest_coordinates_first(self):
        fs = FeasibleSet.box_budget([-0.3, 0.0, -0.1], [0.6, 0.5, 0.9], budget=1.0)
        s = fs.vertex(np.array([0.2, -1.0, 0.5]))
        # Fill the cheapest coordinates first: 1 to its upper bound, then 0.
        np.testing.assert_allclose(s, [0.6, 0.5, -0.1])
        assert fs.contains(s)


class TestTrackingClosedForm:
    """``r(w)^2 = (sqrt(w'(cov + mu mu')w) + rho ||w||)^2`` against the oracles."""

    @staticmethod
    def random_ball(rng, n):
        a = rng.standard_normal((n, n))
        cov = a @ a.T / n + 0.1 * np.eye(n)
        return GelbrichBall(MomentPair(rng.standard_normal(n), cov), float(rng.uniform(0.01, 2.0)))

    def test_matches_support_function(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            ball = self.random_ball(rng, n)
            w = rng.standard_normal(n)
            value = _tracking_objective(ball, 2)(w)[0]
            oracle = support_V(ball, SupportQuery(np.zeros(n), np.outer(w, w))).value
            assert value == pytest.approx(oracle, rel=1e-12)
            assert _tracking_objective(ball, 1)(w)[0] == pytest.approx(math.sqrt(value), rel=1e-15)

    def test_matches_semidefinite_route(self):
        rng = np.random.default_rng(14)
        for n in (2, 2, 3):
            ball = self.random_ball(rng, n)
            w = rng.standard_normal(n)
            oracle = support_V_sdp(ball, SupportQuery(np.zeros(n), np.outer(w, w)), tol=1e-8)
            assert _tracking_objective(ball, 2)(w)[0] == pytest.approx(oracle, abs=1e-3)

    @pytest.mark.parametrize("p", [1, 2])
    def test_gradient_matches_central_differences(self, p):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            objective = _tracking_objective(self.random_ball(rng, n), p)
            w = rng.standard_normal(n)
            h = 1e-6
            numeric = [
                (objective(w + h * e)[0] - objective(w - h * e)[0]) / (2.0 * h)
                for e in np.eye(n)
            ]
            np.testing.assert_allclose(objective(w)[1], numeric, rtol=1e-6, atol=1e-8)


class TestMinimizeLinear:
    def test_constant_objective_on_budget_set(self):
        # rho = 0, alpha = 0, mean = c * ones: every feasible w has value -c.
        ball = GelbrichBall(MomentPair(0.03 * np.ones(4), np.eye(4)), 0.0)
        report = minimize_linear_gelbrich(ball, 0.0, FeasibleSet.simplex(4))
        assert report.value == pytest.approx(-0.03, abs=1e-8)
        assert report.termination is Termination.CONVERGED

    def test_huge_radius_forces_equal_weights(self):
        report = minimize_linear_gelbrich(ball5(1e6), 1.0, FeasibleSet.simplex(5))
        assert np.max(np.abs(report.w_star - 0.2)) < 1e-4

    def test_two_asset_grid_oracle(self):
        alpha = 1.5
        ball = ball2(0.25)
        report = minimize_linear_gelbrich(ball, alpha, FeasibleSet.simplex(2))
        t = np.linspace(0.0, 1.0, 2_000_001)
        w = np.stack([t, 1.0 - t], axis=-1)
        quad = np.einsum("ti,ij,tj->t", w, COV2, w)
        vals = (
            -(w @ MU2)
            + alpha * np.sqrt(quad)
            + 0.25 * math.sqrt(1.0 + alpha**2) * np.linalg.norm(w, axis=1)
        )
        assert report.value == pytest.approx(vals.min(), abs=1e-6)

    def test_report_invariants(self):
        ball = ball5(0.3)
        fs = FeasibleSet.simplex(5)
        report = minimize_linear_gelbrich(ball, 2.0, fs)
        assert fs.contains(report.w_star, tol=1e-9)
        revalued = linear_objective(ball, 2.0, report.w_star)
        assert abs(revalued - report.value) <= 1e-10

    def test_objective_is_convex_along_segments(self):
        rng = np.random.default_rng(3)
        ball = ball5(0.7)
        fs = FeasibleSet.simplex(5)
        for _ in range(50):
            w1, w2 = fs.sample(rng), fs.sample(rng)
            lam = rng.uniform(0.05, 0.95)
            mid = linear_objective(ball, 1.2, lam * w1 + (1 - lam) * w2)
            ends = lam * linear_objective(ball, 1.2, w1) + (1 - lam) * linear_objective(
                ball, 1.2, w2
            )
            assert mid <= ends + 1e-9

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(4)
        ball = ball5(0.4)
        fs = FeasibleSet.simplex(5)
        report = minimize_linear_gelbrich(ball, 1.0, fs)
        for _ in range(1000):
            assert report.value <= linear_objective(ball, 1.0, fs.sample(rng)) + 1e-9

    def test_equal_weight_distance_shrinks_with_radius(self):
        # Soft monotonicity of the 1/N approach over an increasing radius grid.
        target = np.full(5, 0.2)
        dists = []
        for rho in (0.0, 0.1, 1.0, 10.0, 100.0, 1e4):
            report = minimize_linear_gelbrich(ball5(rho), 1.0, FeasibleSet.simplex(5))
            dists.append(float(np.linalg.norm(report.w_star - target)))
        for closer, farther in zip(dists[1:], dists[:-1]):
            assert closer <= farther + 1e-6

    def test_box_budget_solve(self):
        rng = np.random.default_rng(5)
        fs = FeasibleSet.box_budget([-0.2] * 5, [0.6] * 5, budget=1.0)
        ball = ball5(0.2)
        report = minimize_linear_gelbrich(ball, 0.8, fs)
        assert fs.contains(report.w_star, tol=1e-9)
        for _ in range(500):
            assert report.value <= linear_objective(ball, 0.8, fs.sample(rng)) + 1e-9

    def test_weighted_ball_grid_oracle(self):
        weight = np.array([[2.0, 0.4], [0.4, 1.0]])
        ball = GelbrichBall(MomentPair(MU2, COV2), 0.3, weight=weight)
        alpha = 1.0
        report = minimize_linear_gelbrich(ball, alpha, FeasibleSet.simplex(2))
        t = np.linspace(0.0, 1.0, 1_000_001)
        w = np.stack([t, 1.0 - t], axis=-1)
        quad = np.einsum("ti,ij,tj->t", w, COV2, w)
        wnorm = np.sqrt(np.einsum("ti,ij,tj->t", w, np.linalg.inv(weight), w))
        vals = -(w @ MU2) + alpha * np.sqrt(quad) + 0.3 * math.sqrt(2.0) * wnorm
        assert report.value == pytest.approx(vals.min(), abs=1e-6)
        assert abs(linear_objective(ball, alpha, report.w_star) - report.value) <= 1e-10

    def test_trace_tracks_best_value(self):
        report = minimize_linear_gelbrich(
            ball5(0.3), 1.0, FeasibleSet.simplex(5), keep_trace=True
        )
        assert report.trace is not None
        assert report.trace.shape == (report.iterations + 1,)
        assert report.value == pytest.approx(report.trace.min(), abs=0.0)

    @pytest.mark.parametrize("kind, param", [("linear", 1.0), ("tracking", 1), ("tracking", 2)])
    def test_trace_is_nonincreasing(self, kind, param):
        if kind == "linear":
            report = minimize_linear_gelbrich(
                ball5(0.05), param, FeasibleSet.simplex(5), keep_trace=True
            )
        else:
            report = minimize_tracking(
                tracking_ball(0.01), param, FeasibleSet.tracking_simplex(3), keep_trace=True
            )
        assert report.iterations > 1
        # Steps are accepted on a descent inequality that holds in exact
        # arithmetic; the computed values may still rise by a few ulps.
        rounding = 4.0 * np.finfo(float).eps * np.abs(report.trace[:-1])
        assert np.all(np.diff(report.trace) <= rounding)

    def test_zero_optimum_converges(self):
        # Choose the mean so that the gradient vanishes at an interior w0:
        # the objective is positively homogeneous, so its value there is
        # grad'w0 = 0, the global minimum.  A gap relative to |f| alone
        # could never certify it, since gap >= f - min f = f.
        alpha, rho = 1.5, 0.1
        w0 = np.array([0.5, 0.3, 0.2])
        cov = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.06]])
        lam = rho * math.sqrt(1.0 + alpha**2)
        mu = alpha * (cov @ w0) / math.sqrt(w0 @ cov @ w0) + lam * w0 / np.linalg.norm(w0)
        ball = GelbrichBall(MomentPair(mu, cov), rho)
        assert linear_objective(ball, alpha, w0) == pytest.approx(0.0, abs=1e-15)
        report = minimize_linear_gelbrich(ball, alpha, FeasibleSet.simplex(3))
        assert report.termination is Termination.CONVERGED
        assert abs(report.value) <= 1e-12
        np.testing.assert_allclose(report.w_star, w0, atol=1e-5)

    def test_iteration_cap_reported(self):
        report = minimize_linear_gelbrich(
            ball5(0.3), 1.0, FeasibleSet.simplex(5), max_iter=3
        )
        assert report.iterations == 3
        assert report.termination is Termination.ITERATION_CAP

    def test_iteration_cap_logs_the_gap(self, caplog):
        with caplog.at_level(logging.WARNING, logger="gelbrisk.optimize"):
            report = minimize_linear_gelbrich(
                ball5(0.3), 1.0, FeasibleSet.simplex(5), max_iter=3
            )
        messages = [r.getMessage() for r in caplog.records if r.name == "gelbrisk.optimize"]
        assert len(messages) == 1
        assert f"{report.gap:.3e}" in messages[0]
        assert report.gap > 1e-8 * abs(report.value)

    def test_converged_solve_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gelbrisk.optimize"):
            report = minimize_linear_gelbrich(ball5(0.3), 1.0, FeasibleSet.simplex(5))
        assert report.termination is Termination.CONVERGED
        assert not [r for r in caplog.records if r.name == "gelbrisk.optimize"]

    def test_large_simplex_converges_with_certificate(self):
        rng = np.random.default_rng(200)
        n, alpha, rho = 200, 1.5, 0.05
        a = rng.standard_normal((n, n))
        cov = a @ a.T / n + 0.1 * np.eye(n)
        mu = rng.normal(size=n) * 0.1
        ball = GelbrichBall(MomentPair(mu, cov), rho)
        report = minimize_linear_gelbrich(ball, alpha, FeasibleSet.simplex(n))
        assert report.termination is Termination.CONVERGED
        assert 0.0 <= report.gap <= 1e-8 * abs(report.value)
        # The gap recomputed from an independently coded gradient; on the
        # simplex the minimizing vertex is the cheapest coordinate.
        w = report.w_star
        grad = (
            -mu
            + alpha * (cov @ w) / math.sqrt(w @ cov @ w)
            + rho * math.sqrt(1.0 + alpha**2) * w / np.linalg.norm(w)
        )
        assert float(grad @ w - grad.min()) == pytest.approx(report.gap, rel=1e-6, abs=1e-15)
        assert linear_objective(ball, alpha, w) == pytest.approx(report.value, abs=1e-12)

    def test_bad_max_iter(self):
        with pytest.raises(ValidationError):
            minimize_linear_gelbrich(ball5(0.3), 1.0, FeasibleSet.simplex(5), max_iter=0)

    def test_negative_alpha(self):
        with pytest.raises(NegativeAlpha):
            minimize_linear_gelbrich(ball5(0.3), -0.5, FeasibleSet.simplex(5))

    def test_non_finite_alpha(self):
        with pytest.raises(NonFinite):
            minimize_linear_gelbrich(ball5(0.3), float("nan"), FeasibleSet.simplex(5))

    def test_dimension_mismatch(self):
        with pytest.raises(DimMismatch):
            minimize_linear_gelbrich(ball5(0.3), 1.0, FeasibleSet.simplex(3))

    def test_deterministic_repeat(self):
        first = minimize_linear_gelbrich(ball5(0.4), 1.0, FeasibleSet.simplex(5))
        second = minimize_linear_gelbrich(ball5(0.4), 1.0, FeasibleSet.simplex(5))
        np.testing.assert_array_equal(first.w_star, second.w_star)
        assert first.value == second.value
        assert first.iterations == second.iterations


class TestMinimizeTracking:
    def test_zero_radius_matches_grid_oracle(self):
        ball = tracking_ball(0.0)
        fs = FeasibleSet.tracking_simplex(3)
        report = minimize_tracking(ball, 2, fs)
        m = ball.center.cov + np.outer(ball.center.mean, ball.center.mean)
        t = np.linspace(0.0, 1.0, 1_000_001)
        w = np.stack([t, 1.0 - t, -np.ones_like(t)], axis=-1)
        vals = np.einsum("ti,ij,tj->t", w, m, w)
        assert report.value == pytest.approx(vals.min(), abs=1e-4)

    def test_exact_replication_reaches_zero(self):
        # The index is the average of the two assets, so w = (1/2, 1/2, -1)
        # replicates it exactly and the in-sample minimum is zero.  The
        # nominal covariance is singular here, which the zero-radius path
        # must tolerate.
        rng = np.random.default_rng(6)
        assets = rng.normal(scale=0.04, size=(60, 2))
        index = assets.mean(axis=1)
        panel = np.column_stack([assets, index])
        pair = MomentPair(panel.mean(axis=0), np.cov(panel.T, bias=True))
        report = minimize_tracking(GelbrichBall(pair, 0.0), 2, FeasibleSet.tracking_simplex(3))
        assert report.value < 1e-8
        np.testing.assert_allclose(report.w_star[:2], 0.5, atol=1e-4)

    def test_objective_nondecreasing_in_radius_along_returned_w(self):
        base = tracking_ball(0.3)
        fs = FeasibleSet.tracking_simplex(3)
        w = minimize_tracking(base, 2, fs).w_star
        values = [
            tracking_objective(GelbrichBall(base.center, rho), 2, w)
            for rho in (0.0, 0.1, 0.3, 1.0, 3.0)
        ]
        for lo, hi in zip(values[:-1], values[1:]):
            assert hi >= lo - 1e-10

    @pytest.mark.parametrize("p", [1, 2])
    def test_beats_random_feasible_points(self, p):
        rng = np.random.default_rng(7)
        ball = tracking_ball(0.25)
        fs = FeasibleSet.tracking_simplex(3)
        report = minimize_tracking(ball, p, fs)
        for _ in range(300):
            assert report.value <= tracking_objective(ball, p, fs.sample(rng)) + 1e-9

    def test_p1_is_root_of_p2(self):
        ball = tracking_ball(0.4)
        fs = FeasibleSet.tracking_simplex(3)
        v1 = minimize_tracking(ball, 1, fs).value
        v2 = minimize_tracking(ball, 2, fs).value
        assert v1 == pytest.approx(math.sqrt(v2), abs=1e-8)

    def test_value_matches_reevaluation(self):
        ball = tracking_ball(0.5)
        report = minimize_tracking(ball, 2, FeasibleSet.tracking_simplex(3))
        assert abs(tracking_objective(ball, 2, report.w_star) - report.value) <= 1e-10

    def test_objective_is_convex_along_segments(self):
        rng = np.random.default_rng(8)
        ball = tracking_ball(0.6)
        fs = FeasibleSet.tracking_simplex(3)
        for _ in range(30):
            w1, w2 = fs.sample(rng), fs.sample(rng)
            lam = rng.uniform(0.05, 0.95)
            mid = tracking_objective(ball, 2, lam * w1 + (1 - lam) * w2)
            ends = lam * tracking_objective(ball, 2, w1) + (1 - lam) * tracking_objective(
                ball, 2, w2
            )
            assert mid <= ends + 1e-9

    @pytest.mark.parametrize("p", [0, 3, 1.5, "2"])
    def test_bad_exponent(self, p):
        with pytest.raises(BadP):
            minimize_tracking(tracking_ball(0.1), p, FeasibleSet.tracking_simplex(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimMismatch):
            minimize_tracking(tracking_ball(0.1), 2, FeasibleSet.tracking_simplex(4))

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("rho", [0.0, 0.01, 0.3, 3.0])
    def test_converges_with_certificate(self, p, rho):
        ball = tracking_ball(rho)
        fs = FeasibleSet.tracking_simplex(3)
        report = minimize_tracking(ball, p, fs)
        assert report.termination is Termination.CONVERGED
        assert 0.0 <= report.gap <= 1e-8 * report.value
        rng = np.random.default_rng(16)
        for _ in range(100):
            assert report.value <= tracking_objective(ball, p, fs.sample(rng)) + 1e-12

    def test_exponents_share_the_minimizer(self):
        ball = tracking_ball(0.2)
        fs = FeasibleSet.tracking_simplex(3)
        w1 = minimize_tracking(ball, 1, fs).w_star
        w2 = minimize_tracking(ball, 2, fs).w_star
        np.testing.assert_allclose(w1, w2, atol=1e-6)

    def test_weighted_ball_rejected(self):
        ball = GelbrichBall(tracking_ball(0.2).center, 0.2, weight=np.diag([4.0, 0.25, 1.0]))
        with pytest.raises(MahalanobisUnsupported):
            minimize_tracking(ball, 2, FeasibleSet.tracking_simplex(3))

    def test_identity_weight_matches_unweighted(self):
        base = tracking_ball(0.2)
        fs = FeasibleSet.tracking_simplex(3)
        weighted = GelbrichBall(base.center, 0.2, weight=np.eye(3))
        np.testing.assert_array_equal(
            minimize_tracking(weighted, 2, fs).w_star, minimize_tracking(base, 2, fs).w_star
        )
