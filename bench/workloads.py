"""The benchmark's four closed-loop workloads.

Each workload turns ``(seed, round index)`` into inputs with NumPy's
seeded generator, then issues its ops one after another through
``issue(name, call, check, items)``: one caller, waiting for every
result before the next call.  Only ``call`` is timed.  ``check`` runs
after the round, outside the timed section, and returns ``None`` when
the output is right or a reason when it is not.

The calls go through gelbrisk's public module attributes at call time
(``sdp.admm_solve``, not a name bound at import), so a traced round sees
the wrappers that ``spans.Tracer`` installs on those attributes.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np

from gelbrisk import (
    BacktestConfig,
    CVaR,
    Distortion,
    FeasibleSet,
    GelbrichBall,
    MomentPair,
    ReturnPanel,
    Spectral,
    StructuralClass,
    SupportQuery,
    Termination,
    VaR,
    cvar_distortion,
    cvar_spectrum,
)
from gelbrisk import (
    backtest,
    calibration,
    coefficients,
    linear_risk,
    metric,
    optimize,
    sdp,
    support,
)

CHILD_TIMEOUT_S = 120.0


def round_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def rand_pd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) * scale
    return a @ a.T / n + 0.1 * scale * scale * np.eye(n)


def eigh_sqrtm(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def gelbrich_distance_eigh(p1: MomentPair, p2: MomentPair) -> float:
    """Independent LAPACK-based Gelbrich distance, used only by the checks."""
    root2 = eigh_sqrtm(p2.cov)
    cross = np.trace(eigh_sqrtm(root2 @ p1.cov @ root2))
    dmu = p1.mean - p2.mean
    bures = max(float(np.trace(p1.cov) + np.trace(p2.cov) - 2.0 * cross), 0.0)
    return math.sqrt(float(dmu @ dmu) + bures)


def _close(value: float, expected: float, tol: float, what: str) -> str | None:
    if math.isfinite(value) and abs(value - expected) <= tol:
        return None
    return f"{what}: got {value!r}, expected {expected!r} within {tol:g}"


# ---------------------------------------------------------------------------
# backtest: rolling_backtest on seeded regime-shift panels
# ---------------------------------------------------------------------------

WINDOW = 48
BLOCK = 12
BACKTEST_BLOCKS = 2

# Optimizer iteration counts (backtest) and ADMM iteration counts (conic)
# swing widely between fresh random inputs of one size: 16 % per
# estimation window, and two orders of magnitude per conic instance, far
# more than a run can average out.  Those workloads therefore solve a
# fixed input library, drawn once from LIBRARY_SEED, and the run seed
# jitters every number in it by the relative amount JITTER.  Single solves
# then still move by a few percent, but a round's total by about 1 %.
LIBRARY_SEED = 1
JITTER = 1e-3


def weekly_dates(count: int, start: str = "2015-01-04") -> list[str]:
    base = np.datetime64(start)
    return [str(base + 7 * np.timedelta64(i, "D")) for i in range(count)]


def regime_shift_panel(periods: int, rng: np.random.Generator) -> ReturnPanel:
    """Two assets plus an index whose loadings drift from (0.85, 0.15) to (0.65, 0.35).

    A trailing window sees stale loadings, so a positive radius helps
    out of sample; the layout follows the acceptance tests' panels.
    """
    assets = rng.normal(scale=0.02, size=(periods, 2))
    t = np.arange(periods) / (periods - 1)
    load = 0.65 + 0.2 * (1.0 - t)
    index = (
        load * assets[:, 0]
        + (1.0 - load) * assets[:, 1]
        + rng.normal(scale=0.002, size=periods)
    )
    returns = np.column_stack([assets, index])
    return ReturnPanel(weekly_dates(periods), ["AAA", "BBB", "INDEX"], returns)


def check_backtest(panel: ReturnPanel, cfg: BacktestConfig, result) -> str | None:
    """Weights on the tracking simplex; error curve recomputed from weights and panel."""
    n = panel.n_assets
    blocks = (panel.n_periods - cfg.window) // cfg.block
    rhos = len(cfg.rho_grid)
    if result.weights.shape != (rhos, blocks, n):
        return f"weights have shape {result.weights.shape}, expected {(rhos, blocks, n)}"
    feasible = FeasibleSet.tracking_simplex(n)
    weekly = np.empty((rhos, blocks * cfg.block))
    for j in range(rhos):
        for b in range(blocks):
            w = result.weights[j, b]
            if not feasible.contains(w):
                return f"rho={cfg.rho_grid[j]} block {b}: weights {w} leave the tracking simplex"
            start = cfg.window + b * cfg.block
            rows = panel.returns[start : start + cfg.block]
            weekly[j, b * cfg.block : (b + 1) * cfg.block] = np.abs(rows @ w) ** cfg.p
    if not np.allclose(result.weekly_errors, weekly, rtol=1e-12, atol=1e-18):
        return "weekly errors disagree with the recomputed ones"
    if not np.allclose(result.average_errors, weekly.mean(axis=1), rtol=1e-12, atol=1e-18):
        return "average errors disagree with the recomputed curve"
    return None


class Backtest:
    """n = 3 (two assets and the index), window 48, block 12, p = 1 and p = 2.

    One round solves the library panel, jittered by the run seed, on the
    whole radius grid for both exponents: two ``rolling_backtest`` calls.
    Radius 0 and positive radii take different optimizer paths (refine
    mode without support calls, and support_V root-finding on every
    objective evaluation).
    """

    name = "backtest"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.blocks = 1 if tiny else BACKTEST_BLOCKS
        positive = (0.01,) if tiny else tuple(float(r) for r in np.geomspace(1e-3, 5e-2, 3))
        self.rho_grid = (0.0,) + positive
        self.library = regime_shift_panel(
            WINDOW + BLOCK * self.blocks, np.random.default_rng([LIBRARY_SEED, 0])
        )

    def inputs(self, k: int):
        lib = self.library
        noise = round_rng(self.seed, k).standard_normal(lib.returns.shape)
        panel = ReturnPanel(lib.dates, lib.assets, lib.returns * (1.0 + JITTER * noise))
        return panel, [
            BacktestConfig(rho_grid=self.rho_grid, p=p, window=WINDOW, block=BLOCK)
            for p in (1, 2)
        ]

    def ops(self, inputs, issue) -> None:
        panel, configs = inputs
        for cfg in configs:
            issue(
                f"rolling_backtest_p{cfg.p}",
                partial(lambda c: backtest.rolling_backtest(panel, c), cfg),
                partial(check_backtest, panel, cfg),
                items=self.blocks * len(cfg.rho_grid),
            )


# ---------------------------------------------------------------------------
# conic: build, ADMM-solve and SDPA round-trip every distinct builder
# ---------------------------------------------------------------------------

CONIC_DIMS = (2, 3, 4, 5, 6)
CONIC_TOL = 1e-6
CONIC_MAX_ITER = 200_000
CONIC_BETA = 0.1


def conic_library(n: int) -> dict:
    rng = np.random.default_rng([LIBRARY_SEED, n])
    v = rng.standard_normal(n)
    return {
        "mean": rng.normal(size=n) * 0.3,
        "cov": rand_pd(rng, n),
        "radius": float(rng.uniform(0.1, 0.5)),
        "w": rng.standard_normal(n),
        "Q": np.outer(v, v),
        "q": rng.standard_normal(n) * 0.3,
        "q0": float(rng.normal()),
        "theta": float(rng.normal() * 0.3),
        "delta": rng.standard_normal(n) * 0.5,
        "A": rng.standard_normal((2, n)) * 0.6,
        "a": rng.standard_normal(2) * 0.4,
        "weights": rng.uniform(0.2, 1.0, size=2),
        "c": rng.standard_normal(n),
        "tau": 1.5,
    }


def jitter(base: dict, rng: np.random.Generator) -> dict:
    out = {}
    for key, value in base.items():
        if key == "cov":
            scale = np.diag(value) * rng.uniform(0.0, 1.0, size=value.shape[0])
            out[key] = value + JITTER * np.diag(scale)
        elif key == "Q":
            out[key] = value  # stays exactly symmetric and rank one
        else:
            arr = np.asarray(value, dtype=float)
            noisy = arr * (1.0 + JITTER * rng.standard_normal(arr.shape))
            out[key] = float(noisy) if arr.ndim == 0 else noisy
    return out


def conic_problems(inst: dict):
    """(label, builder name, builder args, expected value or None) per family."""
    n = inst["mean"].shape[0]
    ball = GelbrichBall(MomentPair(inst["mean"], inst["cov"]), inst["radius"])
    alpha = math.sqrt((1.0 - CONIC_BETA) / CONIC_BETA)
    w, A, a, weights = inst["w"], inst["A"], inst["a"], inst["weights"]

    def tracking(p):
        sup = support.support_V(ball, SupportQuery(np.zeros(n), np.outer(w, w))).value
        return sup if p == 2 else math.sqrt(sup)

    def expectation():
        query = SupportQuery(2.0 * inst["q"], inst["Q"])
        return support.support_V(ball, query).value + inst["q0"]

    def quad_var():
        return linear_risk.gelbrich_risk_linear(ball, inst["delta"], alpha).value - inst["theta"]

    def poly_cvar():
        lin = linear_risk.gelbrich_risk_linear(ball, A.T @ weights, alpha).value
        return lin - float(a @ weights)

    half_space = (np.zeros((n, n)), 0.5 * inst["c"], -inst["tau"])
    return [
        ("tracking_p1", "build_tracking_error", (ball, w, 1), partial(tracking, 1)),
        ("tracking_p2", "build_tracking_error", (ball, w, 2), partial(tracking, 2)),
        (
            "expectation",
            "build_piecewise_quadratic_expectation",
            (ball, [(inst["Q"], inst["q"], inst["q0"])]),
            expectation,
        ),
        (
            "quad_var",
            "build_quad_var",
            (ball, inst["theta"], inst["delta"], np.zeros((n, n)), CONIC_BETA),
            quad_var,
        ),
        ("poly_cvar", "build_poly_cvar", (ball, A, A, a, a, weights, CONIC_BETA), poly_cvar),
        ("wc_probability", "build_wc_probability", (ball, half_space), None),
    ]


def solve_conic(builder: str, args: tuple):
    problem = getattr(sdp, builder)(*args)
    solution = sdp.admm_solve(problem, tol=CONIC_TOL, max_iter=CONIC_MAX_ITER)
    buffer = io.StringIO()
    sdp.export_sdpa(problem, buffer)
    parsed = sdp.parse_sdpa(io.StringIO(buffer.getvalue()))
    return problem, solution, parsed


def check_conic(label: str, expected, out) -> str | None:
    problem, solution, parsed = out
    if solution.status is not sdp.SolveStatus.OPTIMAL:
        return f"status {solution.status.value} after {solution.iterations} iterations"
    if not parsed == problem:
        return "SDPA round trip changed the problem"
    if expected is not None:
        return _close(solution.value, expected(), 1e-3, label)
    if not -1e-3 <= solution.value <= 1.0 + 1e-3:
        return f"probability {solution.value} outside [0, 1]"
    return None


class Conic:
    """Every distinct builder for n = 2..6, solved by ADMM at tol 1e-6."""

    name = "conic"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.library = [conic_library(n) for n in (CONIC_DIMS[:1] if tiny else CONIC_DIMS)]

    def inputs(self, k: int):
        rng = round_rng(self.seed, k)
        return [jitter(base, rng) for base in self.library]

    def ops(self, inputs, issue) -> None:
        for inst in inputs:
            n = inst["mean"].shape[0]
            for label, builder, args, expected in conic_problems(inst):
                issue(
                    f"{label}_n{n}",
                    partial(solve_conic, builder, args),
                    partial(check_conic, label, expected),
                )


# ---------------------------------------------------------------------------
# risk_report: the closed-form calls of a risk report, at n = 3, 10, 30
# ---------------------------------------------------------------------------

RISK_DIMS = (3, 10, 30)
RISK_ETA = 0.1


def risk_pairs(rng: np.random.Generator) -> list:
    """(measure, structural class) pairs whose coefficients the report prints."""
    beta = float(rng.uniform(0.01, 0.2))
    return [
        (CVaR(beta), StructuralClass.ALL_L2),
        (CVaR(beta), StructuralClass.SYMMETRIC),
        (VaR(beta), StructuralClass.SYMMETRIC_LINEAR_UNIMODAL),
        (CVaR(beta), StructuralClass.GAUSSIAN),
        (Spectral(cvar_spectrum(beta)), StructuralClass.ALL_L2),
        (Distortion(cvar_distortion(beta)), StructuralClass.ALL_L2),
    ]


def check_finite(value) -> str | None:
    return None if math.isfinite(value) else f"non-finite result {value!r}"


def check_distance(p1: MomentPair, p2: MomentPair, value: float) -> str | None:
    expected = gelbrich_distance_eigh(p1, p2)
    return _close(value, expected, 1e-7 * max(1.0, expected), "gelbrich_distance")


def check_worst_case(ball: GelbrichBall, pair: MomentPair) -> str | None:
    return _close(gelbrich_distance_eigh(pair, ball.center), ball.radius, 1e-7, "distance to center")


def check_support(ball: GelbrichBall, query: SupportQuery, second: bool, result) -> str | None:
    mu, cov = ball.center.mean, ball.center.cov
    at_center = float(query.q @ mu) + float(np.sum(query.Q * (cov + np.outer(mu, mu) if second else cov)))
    if math.isfinite(result.value) and result.value >= at_center - 1e-9 * max(1.0, abs(at_center)):
        return None
    return f"supremum {result.value!r} below the value {at_center!r} at the center"


def check_minimize(feasible: FeasibleSet, report) -> str | None:
    if report.termination is not Termination.CONVERGED:
        return f"stopped with {report.termination.value} after {report.iterations} iterations"
    if not feasible.contains(report.w_star):
        return "optimal weights leave the feasible set"
    return None


class RiskReport:
    """Moments, radius, distances, coefficients, closed forms and a solve per n."""

    name = "risk_report"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.dims = RISK_DIMS[:1] if tiny else RISK_DIMS

    def inputs(self, k: int):
        rng = round_rng(self.seed, k)
        rounds = []
        for n in self.dims:
            periods = 52 + 2 * n
            chol = np.linalg.cholesky(rand_pd(rng, n, scale=0.02))
            drift = rng.normal(scale=0.002, size=n)
            samples = rng.standard_normal((2 * periods, n)) @ chol.T + drift
            rounds.append(
                {
                    "older": samples[:periods],
                    "newer": samples[periods:],
                    "pairs": risk_pairs(rng),
                    "w": rng.dirichlet(np.ones(n)),
                    "q": rng.standard_normal(n) * 0.01,
                }
            )
        return rounds

    def ops(self, inputs, issue) -> None:
        for data in inputs:
            n = data["w"].shape[0]
            older = issue(
                f"empirical_moments_n{n}",
                lambda: calibration.empirical_moments(data["older"]),
                lambda pair: check_finite(float(pair.cov.sum())),
            )
            newer = issue(
                f"empirical_moments_n{n}",
                lambda: calibration.empirical_moments(data["newer"]),
                lambda pair: check_finite(float(pair.cov.sum())),
            )
            periods = data["newer"].shape[0]
            radius = issue(
                f"subgaussian_radius_n{n}",
                lambda: calibration.subgaussian_radius(RISK_ETA, periods, newer.mean, newer.cov),
                check_finite,
            )
            issue(
                f"gelbrich_distance_n{n}",
                lambda: metric.gelbrich_distance(older, newer),
                partial(check_distance, older, newer),
            )
            alphas = [
                issue(
                    f"standard_risk_coefficient_{type(risk).__name__}",
                    partial(lambda r, c: coefficients.standard_risk_coefficient(r, c), risk, cls),
                    check_finite,
                )
                for risk, cls in data["pairs"]
            ]
            alpha = alphas[0]
            ball = GelbrichBall(newer, radius)
            w = data["w"]
            issue(
                f"gelbrich_risk_linear_n{n}",
                lambda: linear_risk.gelbrich_risk_linear(ball, w, alpha),
                lambda report: check_finite(report.value),
            )
            issue(
                f"worst_case_moments_linear_n{n}",
                lambda: linear_risk.worst_case_moments_linear(ball, w, alpha),
                partial(check_worst_case, ball),
            )
            query = SupportQuery(data["q"], np.outer(w, w))
            issue(
                f"support_U_n{n}",
                lambda: support.support_U(ball, query),
                partial(check_support, ball, query, False),
            )
            issue(
                f"support_V_n{n}",
                lambda: support.support_V(ball, query),
                partial(check_support, ball, query, True),
            )
            feasible = FeasibleSet.simplex(n)
            issue(
                f"minimize_linear_gelbrich_n{n}",
                lambda: optimize.minimize_linear_gelbrich(ball, alpha, feasible),
                partial(check_minimize, feasible),
            )


# ---------------------------------------------------------------------------
# cli: cold-start subprocesses of every subcommand
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(backtest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[int, str, float]:
    """Run one subprocess to completion: exit code, stdout, peak RSS in MB."""
    out_path = cwd / f"child-{os.getpid()}.out"
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=cwd, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    out_path.unlink()
    return proc.returncode, text, usage.ru_maxrss / 1024.0


def _pair_json(pair: MomentPair) -> dict:
    return {"mean": pair.mean.tolist(), "cov": pair.cov.tolist()}


def _problem_json(problem) -> dict:
    return {
        "blocks": list(problem.blocks),
        "c": [arr.tolist() for arr in problem.c],
        "constraints": [
            {"mats": [arr.tolist() for arr in mats], "rhs": rhs} for mats, rhs in problem.constraints
        ],
        "offset": problem.obj_offset,
    }


def _as_json(payload) -> object:
    return json.loads(json.dumps(payload))


class Cli:
    """Every subcommand of ``python -m gelbrisk.cli`` on small inputs, one process each."""

    name = "cli"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.entry = [sys.executable, "-m", "gelbrisk.cli"]
        self.peak_rss_mb = 0.0
        self.exit_codes: list[int] = []

    def inputs(self, k: int):
        rng = round_rng(self.seed, k)
        n = 3
        ball = GelbrichBall(MomentPair(rng.normal(size=n) * 0.05, rand_pd(rng, n, 0.1)), 0.05)
        base = jitter(conic_library(2), rng)
        problem = sdp.build_tracking_error(
            GelbrichBall(MomentPair(base["mean"], base["cov"]), base["radius"]), base["w"], 2
        )
        panel = regime_shift_panel(WINDOW + BLOCK, rng)
        folder = self.workdir / f"round-{k}"
        folder.mkdir(parents=True, exist_ok=True)
        spec = {"mean": ball.center.mean.tolist(), "cov": ball.center.cov.tolist(), "radius": ball.radius}
        (folder / "ball.json").write_text(json.dumps(spec))
        (folder / "problem.json").write_text(json.dumps(_problem_json(problem)))
        lines = ["date," + ",".join(panel.assets)]
        for date, row in zip(panel.dates, panel.returns):
            lines.append(date + "," + ",".join(f"{x:.17g}" for x in row))
        (folder / "panel.csv").write_text("\n".join(lines) + "\n")
        return {
            "folder": folder,
            "ball": ball,
            "problem": problem,
            "panel": panel,
            "w": rng.dirichlet(np.ones(n)),
            "beta": float(rng.uniform(0.01, 0.2)),
            "alpha": float(rng.uniform(1.0, 4.0)),
            "rho_grid": (0.0, 0.01),
        }

    def commands(self, data) -> list[tuple]:
        """(metric name, argv tail, expected stdout as a function) per subcommand."""
        ball, w, alpha = data["ball"], data["w"], data["alpha"]
        w_arg = ",".join(f"{x:.17g}" for x in w)
        folder = data["folder"]
        simplex = json.dumps({"kind": "simplex", "n": w.size})
        cfg = BacktestConfig(rho_grid=data["rho_grid"], p=2, window=WINDOW, block=BLOCK)

        def alpha_out():
            value = coefficients.standard_risk_coefficient(CVaR(data["beta"]), StructuralClass.ALL_L2)
            return f"{value:.17g}\n"

        def risk_out():
            report = linear_risk.gelbrich_risk_linear(ball, w, alpha)
            return _as_json(
                {
                    "value": report.value,
                    "nominal": report.nominal,
                    "deviation": report.deviation,
                    "robustness": report.robustness,
                    "worst_case": None if report.worst_case is None else _pair_json(report.worst_case),
                }
            )

        def calibrate_out():
            pair = calibration.empirical_moments(data["panel"].returns)
            radius = calibration.subgaussian_radius(
                RISK_ETA, data["panel"].n_periods, pair.mean, pair.cov
            )
            return _as_json({"mean": pair.mean.tolist(), "cov": pair.cov.tolist(), "radius": radius})

        def optimize_out():
            report = optimize.minimize_linear_gelbrich(ball, alpha, FeasibleSet.simplex(w.size))
            return _as_json(
                {
                    "w_star": report.w_star.tolist(),
                    "value": report.value,
                    "iterations": report.iterations,
                    "termination": report.termination.value,
                }
            )

        def export_out():
            buffer = io.StringIO()
            sdp.export_sdpa(data["problem"], buffer)
            return buffer.getvalue()

        def solve_out():
            solution = sdp.admm_solve(data["problem"], tol=1e-6, max_iter=200_000)
            return _as_json(
                {
                    "status": solution.status.value,
                    "value": solution.value,
                    "primal_residual": solution.primal_residual,
                    "dual_residual": solution.dual_residual,
                }
            )

        ball_arg = "@" + str(folder / "ball.json")
        panel_arg = str(folder / "panel.csv")
        problem_arg = "@" + str(folder / "problem.json")
        grid = ",".join(str(r) for r in data["rho_grid"])
        return [
            ("alpha", ["alpha", "--risk", f"cvar:{data['beta']!r}", "--class", "all-l2"], alpha_out),
            ("risk", ["risk", "--ball", ball_arg, "--w", w_arg, "--alpha", repr(alpha)], risk_out),
            (
                "worst_case",
                ["worst-case", "--ball", ball_arg, "--w", w_arg, "--alpha", repr(alpha)],
                lambda: _as_json(_pair_json(linear_risk.worst_case_moments_linear(ball, w, alpha))),
            ),
            ("calibrate", ["calibrate", "--data", panel_arg, "--eta", repr(RISK_ETA)], calibrate_out),
            (
                "optimize",
                ["optimize", "--ball", ball_arg, "--alpha", repr(alpha), "--feasible", simplex],
                optimize_out,
            ),
            (
                "backtest",
                ["backtest", "--data", panel_arg, "--p", "2", "--rho-grid", grid,
                 "--window", str(WINDOW), "--block", str(BLOCK)],
                lambda: backtest.rolling_backtest(data["panel"], cfg).curve_csv(),
            ),
            (
                "sdp_export",
                ["sdp", "export", "--problem", problem_arg, "--out", str(folder / "out.dat-s")],
                export_out,
            ),
            ("sdp_solve", ["sdp", "solve", "--problem", problem_arg], solve_out),
        ]

    def warm_up(self, data) -> None:
        """One untimed call so every round reads a warm bytecode cache."""
        _, argv, _ = self.commands(data)[0]
        run_child(self.entry + argv, data["folder"], self.env)

    def _call(self, argv: list[str], folder: Path):
        code, text, rss_mb = run_child(self.entry + argv, folder, self.env)
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        self.exit_codes.append(code)
        return code, text

    def ops(self, data, issue) -> None:
        folder = data["folder"]
        for name, argv, expected in self.commands(data):
            issue(name, partial(self._call, argv, folder), partial(self._check, name, folder, expected))

    @staticmethod
    def _check(name: str, folder: Path, expected, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if name == "sdp_export":
            text = (folder / "out.dat-s").read_text()
        want = expected()
        got = text if isinstance(want, str) else json.loads(text)
        return None if got == want else f"output differs from the in-process result: {text[:200]!r}"

    def interpreter_samples(self) -> dict:
        """Cold start of a bare interpreter and of ``import gelbrisk``, in ms."""
        samples = {}
        for key, code in (("python_ms", "pass"), ("import_ms", "import gelbrisk")):
            start = time.perf_counter()
            run_child([sys.executable, "-c", code], self.workdir, self.env)
            samples[key] = 1e3 * (time.perf_counter() - start)
        return samples


WORKLOADS = {cls.name: cls for cls in (Backtest, Conic, RiskReport, Cli)}
