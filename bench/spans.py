"""In-memory spans around gelbrisk's module boundaries, and the per-layer metrics.

A traced round patches the public functions where one gelbrisk module
calls into another (and the entry points the workloads call) with thin
wrappers that open and close a span.  ``src/`` is never edited: the
wrappers are installed on the module attributes for one round and
removed before the round's outputs are checked.

A span is ``[name, start, end, parent, op]``: ``name`` is
``<layer>.<function>``, ``parent`` the index of the enclosing span (or
-1), ``op`` the id of the benchmark op that caused it.  A layer's time
counts only its outermost spans, so a layer calling itself is not
counted twice; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import io
import json
import math
import statistics
import time

import numpy as np

from gelbrisk import (
    backtest,
    calibration,
    coefficients,
    linalg,
    linear_risk,
    metric,
    optimize,
    sdp,
    support,
)

# (module or class, attribute, span name).  Builders that other builders
# call (build_wc_expectation, build_poly_var) are deliberately absent, so
# one built problem is one sdp.build span.
WRAP_POINTS = [
    (backtest, "rolling_backtest", "backtest.rolling_backtest"),
    (backtest, "minimize_tracking", "optimize.minimize_tracking"),
    (backtest, "empirical_moments", "calibration.empirical_moments"),
    (optimize, "minimize_tracking", "optimize.minimize_tracking"),
    (optimize, "minimize_linear_gelbrich", "optimize.minimize_linear_gelbrich"),
    (optimize, "support_V", "support.support_V"),
    (support, "support_U", "support.support_U"),
    (support, "support_V", "support.support_V"),
    (linalg, "sym_eig", "linalg.sym_eig"),
    (metric, "sym_eig", "linalg.sym_eig"),
    (metric, "sqrtm_psd", "linalg.sqrtm_psd"),
    (support, "sqrtm_psd", "linalg.sqrtm_psd"),
    (sdp, "sqrtm_psd", "linalg.sqrtm_psd"),
    (metric, "gelbrich_distance", "metric.distance"),
    (linear_risk, "gelbrich_risk_linear", "linear_risk.gelbrich_risk_linear"),
    (linear_risk, "worst_case_moments_linear", "linear_risk.worst_case_moments_linear"),
    (calibration, "empirical_moments", "calibration.empirical_moments"),
    (calibration, "subgaussian_radius", "calibration.subgaussian_radius"),
    (coefficients, "standard_risk_coefficient", "coefficients.standard_risk_coefficient"),
    (sdp, "build_tracking_error", "sdp.build"),
    (sdp, "build_piecewise_quadratic_expectation", "sdp.build"),
    (sdp, "build_quad_var", "sdp.build"),
    (sdp, "build_poly_cvar", "sdp.build"),
    (sdp, "build_wc_probability", "sdp.build"),
    (sdp.LmiProgram, "compile", "sdp.compile"),
    (sdp, "admm_solve", "sdp.admm"),
    (sdp, "export_sdpa", "sdp.sdpa_export"),
    (sdp, "parse_sdpa", "sdp.sdpa_parse"),
]

CLI_COMMANDS = (
    "alpha",
    "risk",
    "worst_case",
    "calibrate",
    "optimize",
    "backtest",
    "sdp_export",
    "sdp_solve",
)

# Every per-layer metric with its unit, in the order they are printed.
PER_LAYER_UNITS = {
    "support.calls": "count",
    "support.time_s": "s",
    "support.us_per_call": "us",
    "support.calls_per_opt_iter": "ratio",
    "optimize.calls": "count",
    "optimize.self_s": "s",
    "optimize.iters": "count",
    "optimize.iters_per_call": "count",
    "optimize.iteration_cap": "count",
    "optimize.rel_gap_p50": "ratio",
    "optimize.rel_gap_max": "ratio",
    "linalg.sym_eig.calls": "count",
    "linalg.sym_eig.time_s": "s",
    "linalg.sqrtm_psd.calls": "count",
    "linalg.sqrtm_psd.time_s": "s",
    "metric.distance.calls": "count",
    "metric.distance.time_s": "s",
    "linear_risk.calls": "count",
    "linear_risk.time_s": "s",
    "coefficients.calls": "count",
    "coefficients.time_s": "s",
    "calibration.calls": "count",
    "calibration.time_s": "s",
    "sdp.build.calls": "count",
    "sdp.build.time_s": "s",
    "sdp.compile.time_s": "s",
    "sdp.admm.calls": "count",
    "sdp.admm.time_s": "s",
    "sdp.admm.iters": "count",
    "sdp.admm.us_per_iter": "us",
    "sdp.admm.not_optimal": "count",
    "sdp.problem.constraints": "count",
    "sdp.problem.total_dim": "count",
    "sdp.problem.lp_dim": "count",
    "sdp.sdpa.export_s": "s",
    "sdp.sdpa.parse_s": "s",
    "sdp.sdpa.bytes": "bytes",
    "backtest.calls": "count",
    "backtest.cells": "count",
    "backtest.self_s": "s",
    "cli.python_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{name}.ms": "ms" for name in CLI_COMMANDS},
    "cli.nonzero_exit": "count",
    "proc.cpu_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    """Span recorder plus the solver reports captured at the wrap points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.tracking: list[tuple] = []  # (ball, p, feasible, report)
        self.linear: list[tuple] = []  # (ball, alpha, feasible, report)
        self.admm: list[tuple] = []  # (problem, solution)
        self.sdpa_bytes = 0
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    # -- wrap points ----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in WRAP_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, attr))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original, name: str, attr: str):
        capture = getattr(self, "_capture_" + attr, None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if capture is not None:
                capture(args, result)
            return result

        return wrapper

    def _capture_minimize_tracking(self, args, report) -> None:
        self.tracking.append((args[0], args[1], args[2], report))

    def _capture_minimize_linear_gelbrich(self, args, report) -> None:
        self.linear.append((args[0], args[1], args[2], report))

    def _capture_admm_solve(self, args, solution) -> None:
        self.admm.append((args[0], solution))

    def _capture_export_sdpa(self, args, _result) -> None:
        if isinstance(args[1], io.StringIO):
            self.sdpa_bytes += len(args[1].getvalue().encode())

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


# ---------------------------------------------------------------------------
# Frank-Wolfe gaps, computed from the closed-form objectives after the run
# ---------------------------------------------------------------------------


def _vertex(feasible, grad: np.ndarray) -> np.ndarray:
    """Linear-minimization oracle over the simplex and tracking sets."""
    if feasible.kind == "fixed-index-simplex":
        s = np.zeros(feasible.dim)
        s[int(np.argmin(grad[:-1]))] = feasible.budget
        s[-1] = -1.0
        return s
    if feasible.kind == "simplex":
        s = feasible.lower.copy()
        s[int(np.argmin(grad))] += feasible.budget - float(np.sum(feasible.lower))
        return s
    raise ValueError(f"no oracle for feasible sets of kind {feasible.kind!r}")


def tracking_objective(ball, p: int, w: np.ndarray):
    """``(sqrt(w'(cov + mu mu')w) + rho |w|)^p`` and its gradient."""
    second = ball.center.cov + np.outer(ball.center.mean, ball.center.mean)
    mw = second @ w
    root = math.sqrt(max(float(w @ mw), 0.0))
    norm = float(np.linalg.norm(w))
    base = root + ball.radius * norm
    grad = (mw / root if root > 0.0 else 0.0) + ball.radius * w / norm
    if p == 1:
        return base, grad
    return base * base, 2.0 * base * grad


def linear_objective(ball, alpha: float, w: np.ndarray):
    """``-mu'w + alpha sqrt(w'cov w) + rho sqrt(1 + alpha^2) |w|`` and its gradient."""
    cw = ball.center.cov @ w
    dev = math.sqrt(max(float(w @ cw), 0.0))
    norm = float(np.linalg.norm(w))
    lam = ball.radius * math.sqrt(1.0 + alpha * alpha)
    value = -float(ball.center.mean @ w) + alpha * dev + lam * norm
    grad = -ball.center.mean + (alpha * cw / dev if dev > 0.0 else 0.0)
    grad = grad + (lam * w / norm if norm > 0.0 else 0.0)
    return value, grad


def relative_gap(objective, feasible, w: np.ndarray) -> float:
    value, grad = objective(w)
    gap = float(grad @ (w - _vertex(feasible, grad)))
    return max(gap, 0.0) / max(abs(value), 1e-300)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# Totals that grow with the amount of work; they are reported per traced
# round so that runs of different length (or speed) compare.
PER_ROUND_SUFFIXES = (
    ".calls", "time_s", "self_s", "export_s", "parse_s",
    ".iters", ".iteration_cap", ".not_optimal", ".bytes", ".cells",
)


def per_layer(tracer: Tracer, rounds: int, cli_samples: dict, cpu_s: float, overhead: float) -> dict:
    """Fold spans and captured reports into the per-layer metrics."""
    spans = tracer.spans
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += duration[i]

    def calls(pred) -> int:
        return sum(1 for s in spans if pred(s[0]))

    def outer_time(pred) -> float:
        return sum(
            duration[i]
            for i, s in enumerate(spans)
            if pred(s[0]) and (s[3] < 0 or not pred(spans[s[3]][0]))
        )

    def self_time(pred) -> float:
        return sum(duration[i] - child_time[i] for i, s in enumerate(spans) if pred(s[0]))

    def named(target):
        return lambda name: name == target

    def layer(target):
        return lambda name: _layer(name) == target

    m: dict[str, float] = {}
    m["support.calls"] = calls(layer("support"))
    m["support.time_s"] = outer_time(layer("support"))
    m["support.us_per_call"] = 1e6 * m["support.time_s"] / max(m["support.calls"], 1)

    reports = [r[3] for r in tracer.tracking] + [r[3] for r in tracer.linear]
    iters = sum(r.iterations for r in reports)
    in_optimizer = sum(
        1
        for s in spans
        if _layer(s[0]) == "support" and s[3] >= 0 and _layer(spans[s[3]][0]) == "optimize"
    )
    m["support.calls_per_opt_iter"] = in_optimizer / max(iters, 1)
    m["optimize.calls"] = calls(layer("optimize"))
    m["optimize.self_s"] = self_time(layer("optimize"))
    m["optimize.iters"] = iters
    m["optimize.iters_per_call"] = iters / max(len(reports), 1)
    m["optimize.iteration_cap"] = sum(
        1 for r in reports if r.termination is optimize.Termination.ITERATION_CAP
    )
    gaps = [
        relative_gap(functools.partial(tracking_objective, ball, p), feasible, r.w_star)
        for ball, p, feasible, r in tracer.tracking
    ] + [
        relative_gap(functools.partial(linear_objective, ball, alpha), feasible, r.w_star)
        for ball, alpha, feasible, r in tracer.linear
    ]
    m["optimize.rel_gap_p50"] = statistics.median(gaps) if gaps else 0.0
    m["optimize.rel_gap_max"] = max(gaps) if gaps else 0.0

    for fn in ("sym_eig", "sqrtm_psd"):
        m[f"linalg.{fn}.calls"] = calls(named(f"linalg.{fn}"))
        m[f"linalg.{fn}.time_s"] = outer_time(named(f"linalg.{fn}"))
    m["metric.distance.calls"] = calls(named("metric.distance"))
    m["metric.distance.time_s"] = outer_time(named("metric.distance"))
    for mod in ("linear_risk", "coefficients", "calibration"):
        m[f"{mod}.calls"] = calls(layer(mod))
        m[f"{mod}.time_s"] = outer_time(layer(mod))

    m["sdp.build.calls"] = calls(named("sdp.build"))
    m["sdp.build.time_s"] = outer_time(named("sdp.build"))
    m["sdp.compile.time_s"] = outer_time(named("sdp.compile"))
    m["sdp.admm.calls"] = calls(named("sdp.admm"))
    m["sdp.admm.time_s"] = outer_time(named("sdp.admm"))
    admm_iters = sum(sol.iterations for _, sol in tracer.admm)
    m["sdp.admm.iters"] = admm_iters
    m["sdp.admm.us_per_iter"] = 1e6 * m["sdp.admm.time_s"] / max(admm_iters, 1)
    m["sdp.admm.not_optimal"] = sum(
        1 for _, sol in tracer.admm if sol.status is not sdp.SolveStatus.OPTIMAL
    )
    problems = [prob for prob, _ in tracer.admm]

    def mean_size(size) -> float:
        return statistics.fmean(size(p) for p in problems) if problems else 0.0

    m["sdp.problem.constraints"] = mean_size(lambda p: p.n_constraints)
    m["sdp.problem.total_dim"] = mean_size(lambda p: p.total_dim)
    m["sdp.problem.lp_dim"] = mean_size(lambda p: sum(-d for d in p.blocks if d < 0))
    m["sdp.sdpa.export_s"] = outer_time(named("sdp.sdpa_export"))
    m["sdp.sdpa.parse_s"] = outer_time(named("sdp.sdpa_parse"))
    m["sdp.sdpa.bytes"] = tracer.sdpa_bytes

    m["backtest.calls"] = calls(named("backtest.rolling_backtest"))
    m["backtest.cells"] = sum(
        1
        for s in spans
        if s[0] == "optimize.minimize_tracking"
        and s[3] >= 0
        and spans[s[3]][0] == "backtest.rolling_backtest"
    )
    m["backtest.self_s"] = self_time(named("backtest.rolling_backtest"))

    for key in ["python_ms", "import_ms"] + [f"{c}.ms" for c in CLI_COMMANDS]:
        samples = cli_samples.get(key, [])
        m[f"cli.{key}"] = statistics.median(samples) if samples else 0.0
    m["cli.nonzero_exit"] = cli_samples.get("nonzero_exit", 0)
    m["proc.cpu_s"] = cpu_s
    m["trace.overhead"] = overhead
    for name in m:
        if name.endswith(PER_ROUND_SUFFIXES):
            m[name] /= rounds
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
