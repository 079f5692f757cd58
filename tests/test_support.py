"""Support-function evaluations: stationarity route, fallback, SDP cross-checks."""

import math

import numpy as np
import pytest

from gelbrisk.errors import (
    DimMismatch,
    HypothesisViolated,
    MahalanobisUnsupported,
    NonFinite,
    SingularCov,
    SolverDidNotConverge,
)
from gelbrisk.linear_risk import GelbrichBall
from gelbrisk.metric import MomentPair, gelbrich_distance
from gelbrisk.support import (
    SupportQuery,
    SupportResult,
    support_U,
    support_U_sdp,
    support_V,
    support_V_sdp,
)

MU3 = np.array([0.2, -0.1, 0.5])
COV3 = np.array([[1.0, 0.2, -0.1], [0.2, 1.5, 0.3], [-0.1, 0.3, 0.8]])
MU2 = np.array([0.1, -0.2])
COV2 = np.array([[1.0, 0.3], [0.3, 2.0]])


def scalar_ball(rho=1.0):
    return GelbrichBall(MomentPair([0.0], [[1.0]]), rho)


def random_instance(rng, n=None):
    n = int(rng.integers(1, 5)) if n is None else n
    a = rng.standard_normal((n, n))
    cov = a @ a.T + 0.3 * np.eye(n)
    ball = GelbrichBall(
        MomentPair(rng.standard_normal(n), cov), float(rng.uniform(0.1, 2.0))
    )
    q = rng.standard_normal(n)
    b = rng.standard_normal((n, n))
    q_mat = (b + b.T) / 2.0
    top = np.linalg.eigvalsh(q_mat)[-1]
    if top <= 0.0:  # keep the stationarity hypotheses satisfied
        q_mat += (0.1 - top) * np.eye(n)
    return ball, SupportQuery(q, q_mat)


class TestSupportU:
    def test_scalar_variance_inflation(self):
        # sup sigma^2 over |sigma - 1| <= 1 is 4, with multiplier 2
        result = support_U(scalar_ball(), SupportQuery([0.0], [[1.0]]))
        assert result.value == pytest.approx(4.0, abs=1e-10)
        assert result.gamma_star == pytest.approx(2.0, abs=1e-10)
        assert result.argmax.cov[0, 0] == pytest.approx(4.0, abs=1e-9)
        assert result.argmax.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert result.method == "foc"

    def test_mean_only_query_closed_form(self):
        ball = GelbrichBall(MomentPair(MU3, COV3), 0.7)
        q = np.array([3.0, -4.0, 1.0])
        result = support_U(ball, SupportQuery(q, np.zeros((3, 3))))
        unit = q / np.linalg.norm(q)
        assert result.value == pytest.approx(q @ MU3 + 0.7 * np.linalg.norm(q), abs=1e-9)
        assert result.argmax.mean == pytest.approx(MU3 + 0.7 * unit, abs=1e-9)
        assert result.argmax.cov == pytest.approx(COV3, abs=1e-9)

    def test_zero_radius_short_circuit(self):
        ball = GelbrichBall(MomentPair(MU3, COV3), 0.0)
        q = np.array([1.0, 2.0, -1.0])
        q_mat = np.diag([0.5, -0.2, 0.1])
        result = support_U(ball, SupportQuery(q, q_mat))
        assert result.value == pytest.approx(q @ MU3 + np.trace(q_mat @ COV3), abs=1e-12)
        assert result.method == "center"
        assert math.isinf(result.gamma_star)
        assert result.argmax.cov == pytest.approx(COV3)

    def test_scalar_boundary_grid(self):
        # brute force over the boundary circle in (mean, sigma) coordinates
        mu0, var0, rho, q, big_q = 0.3, 1.2, 0.6, 0.7, 0.9
        ball = GelbrichBall(MomentPair([mu0], [[var0]]), rho)
        result = support_U(ball, SupportQuery([q], [[big_q]]))
        theta = np.linspace(0.0, 2.0 * np.pi, 2_000_001)
        means = mu0 + rho * np.cos(theta)
        sigmas = np.clip(math.sqrt(var0) + rho * np.sin(theta), 0.0, None)
        grid = q * means + big_q * sigmas**2
        assert result.value == pytest.approx(float(grid.max()), abs=1e-6)

    def test_argmax_on_the_boundary(self, rng):
        for _ in range(20):
            ball, query = random_instance(rng)
            result = support_U(ball, query)
            assert gelbrich_distance(ball.center, result.argmax) == pytest.approx(
                ball.radius, abs=1e-7
            )

    def test_value_is_argmax_evaluation(self, rng):
        for _ in range(20):
            ball, query = random_instance(rng)
            result = support_U(ball, query)
            replay = query.q @ result.argmax.mean + np.trace(query.Q @ result.argmax.cov)
            assert result.value == pytest.approx(replay, abs=1e-8)

    def test_positive_homogeneity(self, rng):
        ball, query = random_instance(rng, n=3)
        base = support_U(ball, query).value
        for c in (0.25, 2.0, 17.0):
            scaled = support_U(ball, SupportQuery(c * query.q, c * query.Q)).value
            assert scaled == pytest.approx(c * base, rel=1e-9)

    def test_subadditivity(self, rng):
        for _ in range(10):
            ball, first = random_instance(rng, n=3)
            _, second = random_instance(rng, n=3)
            joint = SupportQuery(first.q + second.q, first.Q + second.Q)
            assert (
                support_U(ball, joint).value
                <= support_U(ball, first).value + support_U(ball, second).value + 1e-8
            )

    def test_monotone_in_radius(self, rng):
        _, query = random_instance(rng, n=2)
        center = MomentPair(MU2, COV2)
        values = [
            support_U(GelbrichBall(center, rho), query).value
            for rho in (0.0, 0.2, 0.5, 1.0, 2.0)
        ]
        assert all(lo <= hi + 1e-10 for lo, hi in zip(values, values[1:]))

    def test_psd_query_keeps_covariance_floor(self, rng):
        # nonnegative matrix weight never shrinks below the center's smallest mode
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            cov = a @ a.T + 0.3 * np.eye(n)
            ball = GelbrichBall(MomentPair(rng.standard_normal(n), cov), 0.8)
            g = rng.standard_normal((n, n))
            query = SupportQuery(rng.standard_normal(n), g @ g.T)
            floor = np.linalg.eigvalsh(cov)[0]
            sigma_star = support_U(ball, query).argmax.cov
            assert np.linalg.eigvalsh(sigma_star)[0] >= floor - 1e-8

    def test_argmax_midpoints_stay_feasible(self, rng):
        # convexity surrogate: chords between maximizers remain in the ball
        for _ in range(10):
            ball, first = random_instance(rng, n=3)
            _, second = random_instance(rng, n=3)
            one = support_U(ball, first).argmax
            two = support_U(ball, second).argmax
            mid = MomentPair((one.mean + two.mean) / 2.0, (one.cov + two.cov) / 2.0)
            assert gelbrich_distance(ball.center, mid) <= ball.radius + 1e-8

    def test_concave_fallback_full_and_partial_shrink(self):
        ball = GelbrichBall(MomentPair(MU3, COV3), 0.5)
        result = support_U(ball, SupportQuery(np.zeros(3), -np.eye(3)))
        assert result.method == "fallback"
        # co-spectral shrink toward zero: optimum -(sqrt(tr) - rho)^2
        assert result.value == pytest.approx(
            -((math.sqrt(np.trace(COV3)) - 0.5) ** 2), abs=1e-10
        )
        assert gelbrich_distance(ball.center, result.argmax) == pytest.approx(
            0.5, abs=1e-9
        )

        generous = GelbrichBall(MomentPair(MU3, COV3), 10.0)
        shrunk = support_U(generous, SupportQuery(np.zeros(3), -np.eye(3)))
        assert shrunk.method == "fallback"
        assert shrunk.value == pytest.approx(0.0, abs=1e-12)
        assert shrunk.gamma_star == 0.0
        assert np.abs(shrunk.argmax.cov).max() == pytest.approx(0.0, abs=1e-12)

    def test_concave_fallback_scalar(self):
        # min sigma^2 over |sigma - 1| <= 1/2, negated
        result = support_U(
            GelbrichBall(MomentPair([0.0], [[1.0]]), 0.5), SupportQuery([0.0], [[-1.0]])
        )
        assert result.value == pytest.approx(-0.25, abs=1e-12)
        assert result.method == "fallback"

    def test_zero_query_is_trivial(self):
        ball = GelbrichBall(MomentPair(MU2, COV2), 0.5)
        result = support_U(ball, SupportQuery(np.zeros(2), np.zeros((2, 2))))
        assert result.value == 0.0
        assert result.method == "fallback"
        assert result.argmax.cov == pytest.approx(COV2)

    def test_singular_center_rejected(self):
        ball = GelbrichBall(MomentPair([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]]), 0.5)
        with pytest.raises(SingularCov):
            support_U(ball, SupportQuery([1.0, 0.0], np.zeros((2, 2))))

    def test_dimension_mismatch(self):
        ball = GelbrichBall(MomentPair(MU2, COV2), 0.5)
        with pytest.raises(DimMismatch):
            support_U(ball, SupportQuery([1.0, 0.0, 0.0], np.zeros((3, 3))))


class TestSupportV:
    def test_scalar_second_moment(self):
        # sup sigma^2 + mu^2 over the unit disc around (0, 1) is 4 at (0, 2)
        result = support_V(scalar_ball(), SupportQuery([0.0], [[1.0]]))
        assert result.value == pytest.approx(4.0, abs=1e-10)
        assert result.gamma_star == pytest.approx(2.0, abs=1e-10)
        mean_star, second_star = result.argmax
        assert mean_star[0] == pytest.approx(0.0, abs=1e-12)
        assert second_star[0, 0] == pytest.approx(4.0, abs=1e-9)

    def test_scalar_boundary_grid(self):
        mu0, var0, rho, q, big_q = 0.3, 1.2, 0.6, 0.7, 0.9
        ball = GelbrichBall(MomentPair([mu0], [[var0]]), rho)
        result = support_V(ball, SupportQuery([q], [[big_q]]))
        theta = np.linspace(0.0, 2.0 * np.pi, 2_000_001)
        means = mu0 + rho * np.cos(theta)
        sigmas = np.clip(math.sqrt(var0) + rho * np.sin(theta), 0.0, None)
        grid = q * means + big_q * (sigmas**2 + means**2)
        assert result.value == pytest.approx(float(grid.max()), abs=1e-6)

    def test_needs_a_positive_eigenvalue(self):
        ball = GelbrichBall(MomentPair(MU2, COV2), 0.5)
        with pytest.raises(HypothesisViolated):
            support_V(ball, SupportQuery([1.0, 0.0], np.zeros((2, 2))))
        with pytest.raises(HypothesisViolated):
            support_V(ball, SupportQuery([1.0, 0.0], -np.eye(2)))

    def test_zero_radius_short_circuit(self):
        ball = GelbrichBall(MomentPair(MU2, COV2), 0.0)
        q = np.array([0.5, -1.0])
        q_mat = np.array([[1.0, 0.2], [0.2, 0.3]])
        result = support_V(ball, SupportQuery(q, q_mat))
        expected = q @ MU2 + np.trace(q_mat @ (COV2 + np.outer(MU2, MU2)))
        assert result.value == pytest.approx(expected, abs=1e-12)
        assert result.method == "center"

    def test_invariants_on_random_instances(self, rng):
        for _ in range(20):
            ball, query = random_instance(rng)
            result = support_V(ball, query)
            mean_star, second_star = result.argmax
            replay = query.q @ mean_star + np.trace(query.Q @ second_star)
            assert result.value == pytest.approx(replay, abs=1e-8)
            spread = second_star - np.outer(mean_star, mean_star)
            assert np.linalg.eigvalsh(spread)[0] >= -1e-8
            assert gelbrich_distance(
                ball.center, MomentPair(mean_star, spread)
            ) == pytest.approx(ball.radius, abs=1e-7)

    def test_dominates_covariance_route_image(self, rng):
        # V's feasible pairs include (mu, Sigma + mu mu') for every U pair
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a = rng.standard_normal((n, n))
            ball = GelbrichBall(
                MomentPair(rng.standard_normal(n), a @ a.T + 0.3 * np.eye(n)),
                float(rng.uniform(0.2, 1.5)),
            )
            g = rng.standard_normal((n, n))
            query = SupportQuery(rng.standard_normal(n), g @ g.T + 0.05 * np.eye(n))
            u_max = support_U(ball, query).argmax
            lifted = query.q @ u_max.mean + np.trace(
                query.Q @ (u_max.cov + np.outer(u_max.mean, u_max.mean))
            )
            assert lifted <= support_V(ball, query).value + 1e-8

    def test_argmax_midpoints_stay_feasible(self, rng):
        for _ in range(10):
            ball, first = random_instance(rng, n=3)
            _, second = random_instance(rng, n=3)
            m1, s1 = support_V(ball, first).argmax
            m2, s2 = support_V(ball, second).argmax
            mid_mean = (m1 + m2) / 2.0
            mid_second = (s1 + s2) / 2.0
            spread = mid_second - np.outer(mid_mean, mid_mean)
            assert gelbrich_distance(
                ball.center, MomentPair(mid_mean, spread)
            ) <= ball.radius + 1e-8

    def test_monotone_in_radius(self, rng):
        _, query = random_instance(rng, n=2)
        center = MomentPair(MU2, COV2)
        values = [
            support_V(GelbrichBall(center, rho), query).value
            for rho in (0.0, 0.2, 0.5, 1.0, 2.0)
        ]
        assert all(lo <= hi + 1e-10 for lo, hi in zip(values, values[1:]))

    def test_matches_worst_case_tracking_program(self):
        # rank-one second-moment query solved by the conic route
        from gelbrisk.sdp import SolveStatus, admm_solve, build_tracking_error

        ball = GelbrichBall(MomentPair(MU2, COV2), 0.5)
        w = np.array([1.0, -1.0])
        solution = admm_solve(build_tracking_error(ball, w, 2), tol=1e-8, max_iter=200_000)
        assert solution.status is SolveStatus.OPTIMAL
        direct = support_V(ball, SupportQuery(np.zeros(2), np.outer(w, w)))
        assert solution.value == pytest.approx(direct.value, abs=1e-3)


class TestSdpCrossChecks:
    def test_covariance_route_examples(self):
        frozen = support_U_sdp(scalar_ball(), SupportQuery([0.0], [[1.0]]), tol=1e-8)
        assert frozen == pytest.approx(4.0, abs=1e-3)

        ball = GelbrichBall(MomentPair(MU3, COV3), 0.7)
        q = np.array([3.0, -4.0, 1.0])
        mean_only = support_U_sdp(ball, SupportQuery(q, np.zeros((3, 3))), tol=1e-8)
        assert mean_only == pytest.approx(q @ MU3 + 0.7 * np.linalg.norm(q), abs=1e-3)

        point = GelbrichBall(MomentPair(MU3, COV3), 0.0)
        q_mat = np.diag([0.5, -0.2, 0.1])
        assert support_U_sdp(point, SupportQuery(q, q_mat)) == pytest.approx(
            q @ MU3 + np.trace(q_mat @ COV3), abs=1e-12
        )

    def test_second_moment_route_examples(self):
        frozen = support_V_sdp(scalar_ball(), SupportQuery([0.0], [[1.0]]), tol=1e-8)
        assert frozen == pytest.approx(4.0, abs=1e-3)

        ball = GelbrichBall(MomentPair(MU2, COV2), 0.5)
        query = SupportQuery([0.4, -0.7], [[1.1, 0.2], [0.2, -0.5]])
        assert support_V_sdp(ball, query, tol=1e-8) == pytest.approx(
            support_V(ball, query).value, abs=1e-3
        )

        point = GelbrichBall(MomentPair(MU2, COV2), 0.0)
        expected = query.q @ MU2 + np.trace(query.Q @ (COV2 + np.outer(MU2, MU2)))
        assert support_V_sdp(point, query) == pytest.approx(expected, abs=1e-12)

    def test_agreement_against_stationarity(self, rng):
        for _ in range(3):
            ball, query = random_instance(rng, n=2)
            assert support_U_sdp(ball, query, tol=1e-8) == pytest.approx(
                support_U(ball, query).value, abs=1e-3
            )

    def test_size_cap(self):
        n = 9
        ball = GelbrichBall(MomentPair(np.zeros(n), np.eye(n)), 0.5)
        with pytest.raises(DimMismatch):
            support_U_sdp(ball, SupportQuery(np.ones(n), np.zeros((n, n))))
        with pytest.raises(DimMismatch):
            support_V_sdp(ball, SupportQuery(np.ones(n), np.eye(n)))

    def test_unconverged_solver_surfaces(self):
        ball = GelbrichBall(MomentPair(MU2, COV2), 0.5)
        query = SupportQuery([0.4, -0.7], [[1.1, 0.2], [0.2, -0.5]])
        with pytest.raises(SolverDidNotConverge):
            support_U_sdp(ball, query, max_iter=3)


class TestWeightedBalls:
    QUERY = SupportQuery([0.4, -0.7], [[1.1, 0.2], [0.2, -0.5]])

    @pytest.mark.parametrize("support", [support_U, support_V, support_U_sdp, support_V_sdp])
    def test_non_identity_weight_rejected(self, support):
        ball = GelbrichBall(MomentPair(MU2, COV2), 0.5, weight=np.diag([4.0, 0.25]))
        with pytest.raises(MahalanobisUnsupported):
            support(ball, self.QUERY)

    @pytest.mark.parametrize("support", [support_U, support_V])
    def test_identity_weight_matches_unweighted(self, support):
        plain = GelbrichBall(MomentPair(MU2, COV2), 0.5)
        identity = GelbrichBall(MomentPair(MU2, COV2), 0.5, weight=np.eye(2))
        assert support(identity, self.QUERY).value == support(plain, self.QUERY).value

    def test_identity_weight_accepted_by_the_sdp_route(self):
        plain = GelbrichBall(MomentPair(MU2, COV2), 0.5)
        identity = GelbrichBall(MomentPair(MU2, COV2), 0.5, weight=np.eye(2))
        assert support_V_sdp(identity, self.QUERY) == support_V_sdp(plain, self.QUERY)


class TestQueryValidation:
    def test_length_mismatch(self):
        with pytest.raises(DimMismatch):
            SupportQuery([1.0, 2.0], np.zeros((3, 3)))

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            SupportQuery([np.nan], [[1.0]])
        with pytest.raises(NonFinite):
            SupportQuery([1.0], [[np.inf]])

    def test_symmetrized_storage(self):
        query = SupportQuery([0.0, 0.0], [[1.0, 0.4], [0.2, 1.0]])
        assert query.Q == pytest.approx(np.array([[1.0, 0.3], [0.3, 1.0]]))
        assert query.dim == 2

    def test_result_defaults(self):
        result = SupportResult(1.0, 2.0, MomentPair([0.0], [[1.0]]))
        assert result.method == "foc"
