"""Standard-form semidefinite programming with a compact ADMM solver.

The module has three layers.  :class:`SdpProblem` is a block standard form

    minimize    <C, X> + offset
    subject to  <A_i, X> = b_i,   X in K,

where ``K`` is a product of dense PSD cones (blocks with positive
dimension) and componentwise-nonnegative diagonal blocks (negative
dimension, the usual LP convention).  :class:`LmiProgram` compiles small
linear-matrix-inequality models onto that form: every LMI becomes a slack
PSD block tied entrywise to the scalar variables, free scalars are split
into differences of nonnegatives, and scalar inequalities get LP slacks,
all in a deterministic order so exported files are byte-stable.
:func:`admm_solve` is a small alternating-projection solver for the
compiled problems, and the ``build_*`` functions emit the worst-case risk
programs over moment ambiguity balls: expectations of quadratically
majorized losses, polyhedral and quadratic VaR/CVaR, tracking error,
worst-case probabilities, and piecewise-quadratic expectations.

The embedded solver is deliberately small-scale (total dimension capped at
200 by default).  For production-size instances the supported route is
:func:`export_sdpa` plus an external solver, not :func:`admm_solve`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadBeta,
    BadP,
    DimMismatch,
    EmptyPieces,
    IoError,
    NonFinite,
    ParseError,
    SingularConstraintGram,
    ValidationError,
    ZeroRadius,
)
from .linalg import sqrtm_psd, sym_matrix
from .linear_risk import GelbrichBall

__all__ = [
    "SolveStatus",
    "SdpProblem",
    "SdpSolution",
    "admm_solve",
    "export_sdpa",
    "parse_sdpa",
    "LmiProgram",
    "build_wc_expectation",
    "build_poly_var",
    "build_poly_cvar",
    "build_quad_var",
    "build_quad_cvar",
    "build_tracking_error",
    "build_wc_probability",
    "build_piecewise_quadratic_expectation",
]

#: symmetry slack accepted on problem data
_SYM_TOL = 1e-12
#: eigenvalue floor certifying a returned iterate as cone-feasible
_EIG_FLOOR = -1e-6
#: relative eigenvalue cutoff when pseudo-inverting the constraint Gram
_RANK_RTOL = 1e-10
#: ADMM over-relaxation factor
_RELAX = 1.6
#: penalty-rebalancing base cadence (iterations) and residual-ratio trigger;
#: the gap between penalty checkpoints doubles each time so that late
#: iterations run at a fixed penalty and the underlying contraction can
#: finish undisturbed
_ADAPT_EVERY = 50
_ADAPT_RATIO = 10.0
_PENALTY_MIN, _PENALTY_MAX = 1e-6, 1e6
#: iterations before the infeasibility detector may fire
_INFEAS_WARMUP = 300


class SolveStatus(enum.Enum):
    """Exit condition of :func:`admm_solve`."""

    OPTIMAL = "Optimal"
    MAX_ITERATIONS = "MaxIterations"
    INFEASIBLE_SUSPECTED = "Infeasible-suspected"


def _check_block_array(dim: int, arr, what: str) -> np.ndarray:
    """Canonicalize one block of problem data against the block structure."""
    a = np.asarray(arr, dtype=float)
    if dim > 0:
        if a.shape != (dim, dim):
            raise DimMismatch(f"{what}: expected a {dim}x{dim} matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFinite(f"{what} contains non-finite entries")
        gap = float(np.abs(a - a.T).max()) if dim else 0.0
        if gap > _SYM_TOL * max(1.0, float(np.abs(a).max())):
            raise ValidationError(f"{what} is not symmetric (gap {gap:.3e})")
        return (a + a.T) / 2.0
    d = -dim
    a = np.atleast_1d(a)
    if a.shape != (d,):
        raise DimMismatch(f"{what}: expected a length-{d} diagonal block, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{what} contains non-finite entries")
    return a


@dataclass(eq=False)
class SdpProblem:
    """A block standard-form conic program.

    Parameters
    ----------
    blocks : tuple of int
        Block dimensions; a positive entry ``d`` is a dense ``d x d`` PSD
        block, a negative entry ``-d`` a componentwise-nonnegative diagonal
        block of length ``d``.
    c : tuple of ndarray
        Cost per block, shaped like the block (``(d, d)`` symmetric matrix
        or ``(d,)`` vector).
    constraints : tuple of (tuple of ndarray, float)
        Each item is ``(mats, rhs)`` asserting ``sum_blk <mats[blk],
        X[blk]> = rhs``; matrices conform to the block structure and are
        symmetric within 1e-12.
    obj_offset : float
        Constant added to ``<C, X>`` when reporting objective values.
    """

    blocks: tuple
    c: tuple
    constraints: tuple
    obj_offset: float = 0.0

    def __post_init__(self) -> None:
        blocks = tuple(int(d) for d in self.blocks)
        if not blocks:
            raise ValidationError("problem needs at least one block")
        if any(d == 0 for d in blocks):
            raise ValidationError("block dimensions must be nonzero")
        self.blocks = blocks
        cost = tuple(
            _check_block_array(d, arr, f"cost block {k + 1}")
            for k, (d, arr) in enumerate(zip(blocks, self.c, strict=True))
        )
        self.c = cost
        cons = []
        for i, (mats, rhs) in enumerate(self.constraints):
            mats = tuple(
                _check_block_array(d, arr, f"constraint {i + 1}, block {k + 1}")
                for k, (d, arr) in enumerate(zip(blocks, mats, strict=True))
            )
            rhs = float(rhs)
            if not np.isfinite(rhs):
                raise NonFinite(f"constraint {i + 1} has a non-finite right-hand side")
            cons.append((mats, rhs))
        self.constraints = tuple(cons)
        self.obj_offset = float(self.obj_offset)
        if not np.isfinite(self.obj_offset):
            raise NonFinite("objective offset is not finite")

    @property
    def total_dim(self) -> int:
        return sum(abs(d) for d in self.blocks)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SdpProblem):
            return NotImplemented
        if self.blocks != other.blocks or self.obj_offset != other.obj_offset:
            return False
        if len(self.constraints) != len(other.constraints):
            return False
        if any(not np.array_equal(a, b) for a, b in zip(self.c, other.c)):
            return False
        for (ma, ra), (mb, rb) in zip(self.constraints, other.constraints):
            if ra != rb or any(not np.array_equal(a, b) for a, b in zip(ma, mb)):
                return False
        return True


@dataclass(eq=False)
class SdpSolution:
    """Result of :func:`admm_solve`.

    ``value`` includes the problem's objective offset.  ``X`` holds the
    affine-feasible primal copy per block; when ``status`` is Optimal its
    smallest eigenvalue per block is certified above ``-1e-6``.  ``duals``
    are the multipliers of the equality constraints.
    """

    status: SolveStatus
    value: float
    X: tuple
    duals: np.ndarray
    primal_residual: float
    dual_residual: float
    iterations: int


class _Vectorizer:
    """Isometric stacking of block matrices into flat vectors (svec).

    PSD blocks are stored as their upper triangle in row-major order with
    off-diagonal entries scaled by sqrt(2), so Frobenius inner products
    become dot products; diagonal blocks embed as-is.
    """

    def __init__(self, blocks) -> None:
        self.blocks = tuple(blocks)
        self._spec = []
        start = 0
        for d in self.blocks:
            if d > 0:
                iu, ju = np.triu_indices(d)
                wts = np.where(iu == ju, 1.0, np.sqrt(2.0))
                size = iu.shape[0]
                self._spec.append(("psd", d, slice(start, start + size), iu, ju, wts))
            else:
                size = -d
                self._spec.append(("lp", -d, slice(start, start + size), None, None, None))
            start += size
        self.length = start
        groups: dict[int, list] = {}
        for kind, d, sl, iu, ju, wts in self._spec:
            if kind == "psd":
                groups.setdefault(d, []).append((sl, iu, ju, wts))
        self._psd_groups = list(groups.items())
        self._lp_slices = [sl for kind, _, sl, _, _, _ in self._spec if kind == "lp"]

    def svec(self, mats) -> np.ndarray:
        out = np.empty(self.length)
        for (kind, _, sl, iu, ju, wts), arr in zip(self._spec, mats, strict=True):
            out[sl] = arr[iu, ju] * wts if kind == "psd" else arr
        return out

    def unsvec(self, x: np.ndarray) -> tuple:
        mats = []
        for kind, d, sl, iu, ju, wts in self._spec:
            if kind == "psd":
                m = np.zeros((d, d))
                vals = x[sl] / wts
                m[iu, ju] = vals
                m[ju, iu] = vals
                mats.append(m)
            else:
                mats.append(x[sl].copy())
        return tuple(mats)

    def project_cone(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the product cone, batched per PSD size."""
        out = x.copy()
        for sl in self._lp_slices:
            np.maximum(out[sl], 0.0, out=out[sl])
        for d, entries in self._psd_groups:
            k = len(entries)
            stack = np.zeros((k, d, d))
            for t, (sl, iu, ju, wts) in enumerate(entries):
                vals = x[sl] / wts
                stack[t, iu, ju] = vals
                stack[t, ju, iu] = vals
            w, v = np.linalg.eigh(stack)
            np.clip(w, 0.0, None, out=w)
            rec = (v * w[:, None, :]) @ np.transpose(v, (0, 2, 1))
            rec = (rec + np.transpose(rec, (0, 2, 1))) / 2.0
            for t, (sl, iu, ju, wts) in enumerate(entries):
                out[sl] = rec[t, iu, ju] * wts
        return out

    def min_eig(self, x: np.ndarray) -> float:
        """Smallest eigenvalue across PSD blocks / smallest diagonal entry."""
        lo = np.inf
        for sl in self._lp_slices:
            if x[sl].size:
                lo = min(lo, float(x[sl].min()))
        for d, entries in self._psd_groups:
            stack = np.zeros((len(entries), d, d))
            for t, (sl, iu, ju, wts) in enumerate(entries):
                vals = x[sl] / wts
                stack[t, iu, ju] = vals
                stack[t, ju, iu] = vals
            lo = min(lo, float(np.linalg.eigvalsh(stack).min()))
        return lo if np.isfinite(lo) else 0.0


def admm_solve(
    problem: SdpProblem,
    tol: float = 1e-6,
    max_iter: int = 50000,
    dim_cap: int = 200,
) -> SdpSolution:
    """Solve a standard-form problem by two-block ADMM.

    The splitting keeps one copy of the variable on the affine subspace
    ``{<A_i, X> = b_i}`` (projected through a cached eigendecomposition of
    the constraint Gram matrix) and one copy on the cone (eigenvalue
    clipping per block), with over-relaxation 1.6 and residual-balancing
    penalty updates on a doubling checkpoint schedule (each update rescales
    the dual copy, so spacing them ever further apart keeps the fixed-point
    iteration stable between updates).  Declared Optimal once
    ``max(primal, dual residual) <= tol * (1 + scale)`` — where the primal
    residual combines the copy gap and the affine gap, and ``scale`` is
    ``max(|b|, |C|)`` — and the affine copy is cone-feasible down to
    eigenvalue ``-1e-6`` per block.

    Inconsistent constraints cannot be projected onto exactly; the affine
    step then falls back to the least-squares point and the primal residual
    stalls while the dual residual vanishes.  When that residual ratio
    diverges past the warm-up, the solver stops with Infeasible-suspected.

    Parameters
    ----------
    problem : SdpProblem
        Problem to solve; total dimension at most ``dim_cap``.
    tol : float
        Relative residual tolerance.
    max_iter : int
        Iteration budget; on exhaustion the best iterate seen is returned
        with status MaxIterations.
    dim_cap : int
        Guard against accidentally feeding production-size instances to
        the embedded solver (export those instead).

    Raises
    ------
    SingularConstraintGram
        If the equality constraints are linearly dependent but consistent;
        redundant rows must be removed by the caller.
    """
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    if problem.total_dim > dim_cap:
        raise ValidationError(
            f"total dimension {problem.total_dim} exceeds the solver cap {dim_cap}; "
            "use export_sdpa and an external solver"
        )

    vec = _Vectorizer(problem.blocks)
    length = vec.length
    m = problem.n_constraints
    c = vec.svec(problem.c)
    if m:
        a_mat = np.vstack([vec.svec(mats) for mats, _ in problem.constraints])
        b = np.array([rhs for _, rhs in problem.constraints])
    else:
        a_mat = np.zeros((0, length))
        b = np.zeros(0)
    a_t = np.ascontiguousarray(a_mat.T)
    gram = a_mat @ a_t if m else np.zeros((0, 0))

    if m:
        gw, gv = np.linalg.eigh(gram)
        wmax = float(gw[-1]) if gw.size else 0.0
        keep = gw > _RANK_RTOL * max(wmax, np.finfo(float).tiny)
        if bool(np.all(keep)):
            ginv = (gv / gw) @ gv.T
        else:
            ginv = (gv[:, keep] / gw[keep]) @ gv[:, keep].T if keep.any() else np.zeros_like(gram)
            x_ls = a_t @ (ginv @ b)
            if float(np.linalg.norm(a_mat @ x_ls - b)) <= 1e-8 * (1.0 + float(np.linalg.norm(b))):
                raise SingularConstraintGram(
                    "equality constraints are linearly dependent (consistent but "
                    "redundant after 1e-10 rank filtering); remove duplicates"
                )
            # inconsistent system: keep the least-squares projector and let the
            # residual-ratio detector flag the problem as infeasible
    else:
        ginv = np.zeros((0, 0))

    scale = max(float(np.linalg.norm(b)), float(np.linalg.norm(c)))
    tol_abs = tol * (1.0 + scale)

    x = np.zeros(length)
    z = np.zeros(length)
    u = np.zeros(length)
    ym = np.zeros(m)
    sigma = 1.0
    c_over = c / sigma

    status = SolveStatus.MAX_ITERATIONS
    best_combined = np.inf
    best = (x.copy(), np.zeros(m), np.inf, np.inf)
    stall_primal = np.inf
    stall_hits = 0
    adapt_gap = _ADAPT_EVERY
    next_adapt = _ADAPT_EVERY
    it = 0

    for it in range(1, max_iter + 1):
        v = z - u - c_over
        if m:
            av_b = a_mat @ v - b
            ym = ginv @ av_b
            x = v - a_t @ ym
            aff = float(np.linalg.norm(av_b - gram @ ym))
        else:
            x = v
            aff = 0.0
        xhat = _RELAX * x + (1.0 - _RELAX) * z
        z_prev = z
        z = vec.project_cone(xhat + u)
        u = u + xhat - z

        r_gap = float(np.linalg.norm(x - z))
        primal = max(r_gap, aff)
        dual = sigma * float(np.linalg.norm(z - z_prev))
        combined = max(primal, dual)
        if combined < best_combined:
            best_combined = combined
            best = (x.copy(), sigma * ym.copy(), primal, dual)

        if primal <= tol_abs and dual <= tol_abs and vec.min_eig(x) >= _EIG_FLOOR:
            status = SolveStatus.OPTIMAL
            best = (x.copy(), sigma * ym.copy(), primal, dual)
            break

        if it % _ADAPT_EVERY == 0:
            if (
                it >= _INFEAS_WARMUP
                and dual <= 1e-3 * tol_abs
                and primal > 1e3 * tol_abs
                and primal >= 0.99 * stall_primal
            ):
                stall_hits += 1
                if stall_hits >= 2:
                    status = SolveStatus.INFEASIBLE_SUSPECTED
                    break
            else:
                stall_hits = 0
            stall_primal = primal

        if it >= next_adapt:
            if r_gap > _ADAPT_RATIO * dual and sigma < _PENALTY_MAX:
                sigma *= 2.0
                u *= 0.5
                c_over = c / sigma
            elif dual > _ADAPT_RATIO * r_gap and sigma > _PENALTY_MIN:
                sigma *= 0.5
                u *= 2.0
                c_over = c / sigma
            adapt_gap *= 2
            next_adapt = it + adapt_gap

    x_best, duals, primal, dual = best
    return SdpSolution(
        status=status,
        value=float(c @ x_best) + problem.obj_offset,
        X=vec.unsvec(x_best),
        duals=duals,
        primal_residual=primal,
        dual_residual=dual,
        iterations=it,
    )


# --- SDPA sparse format ------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def export_sdpa(problem: SdpProblem, destination) -> None:
    """Write a problem in SDPA sparse format.

    Layout: line 1 the constraint count ``m``, line 2 the block count,
    line 3 the block sizes (diagonal blocks negative), line 4 the vector
    ``b``, then one line ``k blk i j v`` per nonzero with 1-based
    upper-triangular indices, ``k = 0`` carrying the cost matrix and
    ``k = i`` the i-th constraint, in ascending ``(k, blk, i, j)`` order.
    Floats use 17 significant digits, which round-trips IEEE doubles; a
    nonzero objective offset (not part of the classic format) is preserved
    on a leading ``*OFFSET`` comment line.

    Parameters
    ----------
    problem : SdpProblem
        Problem to serialize.
    destination : str, Path, or writable file-like
        Target; paths are opened in text mode.

    Raises
    ------
    IoError
        If opening or writing fails at the OS level.
    """
    lines = []
    if problem.obj_offset != 0.0:
        lines.append(f"*OFFSET {_fmt(problem.obj_offset)}")
    lines.append(str(problem.n_constraints))
    lines.append(str(len(problem.blocks)))
    lines.append(" ".join(str(d) for d in problem.blocks))
    lines.append(" ".join(_fmt(rhs) for _, rhs in problem.constraints))
    matrices = [problem.c] + [mats for mats, _ in problem.constraints]
    for k, mats in enumerate(matrices):
        for blk, (d, arr) in enumerate(zip(problem.blocks, mats), start=1):
            if d > 0:
                for i in range(d):
                    for j in range(i, d):
                        v = arr[i, j]
                        if v != 0.0:
                            lines.append(f"{k} {blk} {i + 1} {j + 1} {_fmt(v)}")
            else:
                for i, v in enumerate(arr):
                    if v != 0.0:
                        lines.append(f"{k} {blk} {i + 1} {i + 1} {_fmt(v)}")
    text = "\n".join(lines) + "\n"
    try:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            Path(destination).write_text(text)
    except OSError as exc:
        raise IoError(f"could not write SDPA file: {exc}") from exc


def parse_sdpa(source) -> SdpProblem:
    """Read a problem written by :func:`export_sdpa`.

    Accepts a path or a readable file-like object.  Comment lines starting
    with ``*`` or ``"`` are skipped (an ``*OFFSET`` comment restores the
    objective offset), and the block-size line tolerates the punctuation
    some SDPA writers emit.  ``parse_sdpa`` after ``export_sdpa`` is the
    identity on problems.

    Raises
    ------
    IoError
        If the source cannot be read.
    ParseError
        On malformed content: wrong token counts, indices out of range,
        lower-triangle or off-diagonal LP entries, duplicate entries.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text()
    except OSError as exc:
        raise IoError(f"could not read SDPA file: {exc}") from exc

    offset = 0.0
    data_lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s:
            continue
        if s[0] in "*\"":
            if s.startswith("*OFFSET"):
                parts = s.split()
                if len(parts) != 2:
                    raise ParseError(f"line {ln}: malformed *OFFSET comment")
                try:
                    offset = float(parts[1])
                except ValueError as exc:
                    raise ParseError(f"line {ln}: bad offset value {parts[1]!r}") from exc
            continue
        data_lines.append((ln, s))
    if len(data_lines) < 4:
        raise ParseError("file ends before the four SDPA header lines")

    def _ints(ln: str, s: str, expect: int | None = None):
        toks = s.translate(str.maketrans("{}(),;", "      ")).split()
        try:
            vals = [int(t) for t in toks]
        except ValueError as exc:
            raise ParseError(f"line {ln}: expected integers, got {s!r}") from exc
        if expect is not None and len(vals) != expect:
            raise ParseError(f"line {ln}: expected {expect} integers, got {len(vals)}")
        return vals

    ln1, s1 = data_lines[0]
    m = _ints(ln1, s1, 1)[0]
    ln2, s2 = data_lines[1]
    nblocks = _ints(ln2, s2, 1)[0]
    ln3, s3 = data_lines[2]
    blocks = tuple(_ints(ln3, s3, nblocks))
    if any(d == 0 for d in blocks):
        raise ParseError(f"line {ln3}: zero block dimension")
    ln4, s4 = data_lines[3]
    toks = s4.translate(str.maketrans("{}(),;", "      ")).split()
    if len(toks) != m:
        raise ParseError(f"line {ln4}: expected {m} right-hand sides, got {len(toks)}")
    try:
        rhs = [float(t) for t in toks]
    except ValueError as exc:
        raise ParseError(f"line {ln4}: non-numeric right-hand side") from exc

    def _zero(d: int) -> np.ndarray:
        return np.zeros((d, d)) if d > 0 else np.zeros(-d)

    mats = [[_zero(d) for d in blocks] for _ in range(m + 1)]
    seen = set()
    for ln, s in data_lines[4:]:
        toks = s.split()
        if len(toks) != 5:
            raise ParseError(f"line {ln}: expected 'k blk i j v', got {s!r}")
        try:
            k, blk, i, j = (int(t) for t in toks[:4])
            v = float(toks[4])
        except ValueError as exc:
            raise ParseError(f"line {ln}: malformed entry {s!r}") from exc
        if not 0 <= k <= m:
            raise ParseError(f"line {ln}: matrix index {k} outside 0..{m}")
        if not 1 <= blk <= nblocks:
            raise ParseError(f"line {ln}: block index {blk} outside 1..{nblocks}")
        d = blocks[blk - 1]
        size = d if d > 0 else -d
        if not (1 <= i <= size and 1 <= j <= size):
            raise ParseError(f"line {ln}: entry ({i},{j}) outside block of size {size}")
        if d > 0 and i > j:
            raise ParseError(f"line {ln}: lower-triangle entry ({i},{j})")
        if d < 0 and i != j:
            raise ParseError(f"line {ln}: off-diagonal entry in a diagonal block")
        key = (k, blk, i, j)
        if key in seen:
            raise ParseError(f"line {ln}: duplicate entry {key}")
        seen.add(key)
        tgt = mats[k][blk - 1]
        if d > 0:
            tgt[i - 1, j - 1] = v
            tgt[j - 1, i - 1] = v
        else:
            tgt[i - 1] = v

    return SdpProblem(
        blocks=blocks,
        c=tuple(mats[0]),
        constraints=tuple((tuple(mats[k]), rhs[k - 1]) for k in range(1, m + 1)),
        obj_offset=offset,
    )


# --- LMI modelling layer ------------------------------------------------------

class _ScalarVar:
    """Handle for one scalar decision variable of an :class:`LmiProgram`."""

    __slots__ = ("name", "nonneg", "order")

    def __init__(self, name: str, nonneg: bool, order: int) -> None:
        self.name = name
        self.nonneg = nonneg
        self.order = order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "nonneg" if self.nonneg else "free"
        return f"<var {self.name} ({kind})>"


class LmiProgram:
    """Small modelling layer compiling LMIs to an :class:`SdpProblem`.

    Scalar variables are declared with :meth:`scalar`; each
    :meth:`add_lmi` call asserts ``F0 + sum_v x_v * B_v >= 0`` and becomes
    one slack PSD block whose upper-triangle entries are tied to the
    variables by equality constraints.  Free scalars are split ``x = u -
    v`` with ``u, v >= 0``; scalar inequalities from :meth:`add_inequality`
    get one LP slack each.  Compilation order is deterministic (declaration
    and call order), so serialized problems are stable.
    """

    def __init__(self) -> None:
        self._vars: list[_ScalarVar] = []
        self._lmis: list = []
        self._ineqs: list = []
        self._objective = (0.0, [])
        self._layout = None

    def scalar(self, name: str, nonneg: bool = False) -> _ScalarVar:
        """Declare one scalar variable, free by default."""
        var = _ScalarVar(str(name), bool(nonneg), len(self._vars))
        self._vars.append(var)
        return var

    def _own(self, var) -> _ScalarVar:
        if not isinstance(var, _ScalarVar) or var.order >= len(self._vars) or self._vars[var.order] is not var:
            raise ValidationError("variable does not belong to this program")
        return var

    def add_lmi(self, const, terms) -> None:
        """Assert ``const + sum coeff_matrix * x >= 0`` in the PSD order.

        ``terms`` is an iterable of ``(variable, coefficient_matrix)``;
        coefficient matrices are symmetrized and may repeat a variable
        (contributions accumulate).
        """
        f0 = sym_matrix(const)
        dim = f0.shape[0]
        if not np.all(np.isfinite(f0)):
            raise NonFinite("LMI constant matrix contains non-finite entries")
        acc: dict[_ScalarVar, np.ndarray] = {}
        for var, coeff in terms:
            self._own(var)
            cm = sym_matrix(coeff)
            if cm.shape != (dim, dim):
                raise DimMismatch(
                    f"coefficient for {var.name} has shape {cm.shape}, LMI is {dim}x{dim}"
                )
            if not np.all(np.isfinite(cm)):
                raise NonFinite(f"coefficient for {var.name} contains non-finite entries")
            if var in acc:
                acc[var] = acc[var] + cm
            else:
                acc[var] = cm
        order = sorted(acc, key=lambda v: v.order)
        self._lmis.append((f0, [(v, acc[v]) for v in order]))
        self._layout = None

    def add_inequality(self, const, terms) -> None:
        """Assert ``const + sum coeff * x >= 0`` via one LP slack."""
        acc: dict[_ScalarVar, float] = {}
        for var, coeff in terms:
            self._own(var)
            val = float(coeff)
            if not np.isfinite(val):
                raise NonFinite(f"coefficient for {var.name} is not finite")
            acc[var] = acc.get(var, 0.0) + val
        const = float(const)
        if not np.isfinite(const):
            raise NonFinite("inequality constant is not finite")
        order = sorted(acc, key=lambda v: v.order)
        self._ineqs.append((const, [(v, acc[v]) for v in order]))
        self._layout = None

    def minimize(self, const, terms) -> None:
        """Set the objective ``const + sum coeff * x`` to be minimized."""
        acc: dict[_ScalarVar, float] = {}
        for var, coeff in terms:
            self._own(var)
            val = float(coeff)
            if not np.isfinite(val):
                raise NonFinite(f"objective coefficient for {var.name} is not finite")
            acc[var] = acc.get(var, 0.0) + val
        const = float(const)
        if not np.isfinite(const):
            raise NonFinite("objective constant is not finite")
        order = sorted(acc, key=lambda v: v.order)
        self._objective = (const, [(v, acc[v]) for v in order])
        self._layout = None

    def compile(self) -> SdpProblem:
        """Emit the standard-form problem (and cache the variable layout)."""
        if not self._vars:
            raise ValidationError("program has no variables")
        pos: dict[_ScalarVar, object] = {}
        k = 0
        for var in self._vars:
            if var.nonneg:
                pos[var] = k
                k += 1
            else:
                pos[var] = (k, k + 1)
                k += 2
        slack0 = k
        lp_dim = k + len(self._ineqs)

        def lp_add(row: np.ndarray, var: _ScalarVar, coeff: float) -> None:
            p = pos[var]
            if var.nonneg:
                row[p] += coeff
            else:
                row[p[0]] += coeff
                row[p[1]] -= coeff

        blocks = tuple(f0.shape[0] for f0, _ in self._lmis) + (-lp_dim,)
        zeros = [np.zeros((d, d)) for d in blocks[:-1]]

        obj_const, obj_terms = self._objective
        cost_lp = np.zeros(lp_dim)
        for var, coeff in obj_terms:
            lp_add(cost_lp, var, coeff)
        cost = tuple(z.copy() for z in zeros) + (cost_lp,)

        constraints = []
        for ell, (f0, terms) in enumerate(self._lmis):
            d = f0.shape[0]
            for i in range(d):
                for j in range(i, d):
                    mats = [z.copy() for z in zeros]
                    sel = mats[ell]
                    if i == j:
                        sel[i, i] = 1.0
                    else:
                        sel[i, j] = 0.5
                        sel[j, i] = 0.5
                    row = np.zeros(lp_dim)
                    for var, cm in terms:
                        coeff = float(cm[i, j])
                        if coeff != 0.0:
                            lp_add(row, var, -coeff)
                    constraints.append((tuple(mats) + (row,), float(f0[i, j])))
        for r, (const, terms) in enumerate(self._ineqs):
            mats = [z.copy() for z in zeros]
            row = np.zeros(lp_dim)
            for var, coeff in terms:
                lp_add(row, var, coeff)
            row[slack0 + r] = -1.0
            constraints.append((tuple(mats) + (row,), -const))

        self._layout = pos
        return SdpProblem(
            blocks=blocks,
            c=cost,
            constraints=tuple(constraints),
            obj_offset=obj_const,
        )

    def value(self, solution: SdpSolution, var: _ScalarVar) -> float:
        """Extract one variable's value from a solution of the compiled problem."""
        if self._layout is None:
            raise ValidationError("compile() must run before extracting values")
        self._own(var)
        lp = solution.X[-1]
        p = self._layout[var]
        if var.nonneg:
            return float(lp[p])
        return float(lp[p[0]] - lp[p[1]])

    def objective_value(self, solution: SdpSolution) -> float:
        """Evaluate the declared objective at a solution."""
        const, terms = self._objective
        return const + sum(coeff * self.value(solution, var) for var, coeff in terms)


# --- worst-case risk builders -------------------------------------------------

def _sym_unit(dim: int, i: int, j: int, scale: float = 1.0) -> np.ndarray:
    """Symmetric elementary matrix with ``scale`` at (i, j) and (j, i)."""
    m = np.zeros((dim, dim))
    m[i, j] = scale
    m[j, i] = scale
    return m


def _check_ball(ball: GelbrichBall):
    """Validate a ball for the worst-case programs; returns its pieces."""
    n = ball.dim
    ball.require_unweighted("the worst-case programs")
    if ball.radius <= 0.0:
        raise ZeroRadius("the reformulation needs a strictly positive radius")
    mu = ball.center.mean
    cov = ball.center.cov
    return n, mu, cov, float(ball.radius), sqrtm_psd(cov)


class _BaseVars:
    """Shared variables and LMIs of every worst-case program.

    Installs gamma, z >= 0, free y0, y, and symmetric Y, Z together with
    the two moment LMIs, and records the objective terms of
    ``y0 + gamma*(rho^2 - |mu|^2 - tr cov) + z + tr Z``.
    """

    def __init__(self, prog: LmiProgram, n: int, mu, cov, rho: float, root) -> None:
        self.n = n
        self.gamma = prog.scalar("gamma", nonneg=True)
        self.zsc = prog.scalar("z", nonneg=True)
        self.y0 = prog.scalar("y0")
        self.y = [prog.scalar(f"y_{i}") for i in range(n)]
        self.Y = {
            (i, j): prog.scalar(f"Y_{i}_{j}") for i in range(n) for j in range(i, n)
        }
        self.Z = {
            (i, j): prog.scalar(f"Z_{i}_{j}") for i in range(n) for j in range(i, n)
        }
        self.gamma_cost = float(rho**2 - mu @ mu - np.trace(cov))
        self.obj_terms = (
            [(self.y0, 1.0), (self.gamma, self.gamma_cost), (self.zsc, 1.0)]
            + [(self.Z[(i, i)], 1.0) for i in range(n)]
        )

        two_n = 2 * n
        gcoef = np.zeros((two_n, two_n))
        gcoef[:n, :n] = np.eye(n)
        gcoef[:n, n:] = root
        gcoef[n:, :n] = root
        terms = [(self.gamma, gcoef)]
        for (i, j), var in self.Y.items():
            terms.append((var, _sym_unit(two_n, i, j, -1.0)))
        for (i, j), var in self.Z.items():
            terms.append((var, _sym_unit(two_n, n + i, n + j)))
        prog.add_lmi(np.zeros((two_n, two_n)), terms)

        d = n + 1
        gcoef = np.zeros((d, d))
        gcoef[:n, :n] = np.eye(n)
        gcoef[:n, n] = mu
        gcoef[n, :n] = mu
        terms = [(self.gamma, gcoef)]
        for (i, j), var in self.Y.items():
            terms.append((var, _sym_unit(d, i, j, -1.0)))
        for i, var in enumerate(self.y):
            terms.append((var, _sym_unit(d, i, n)))
        terms.append((self.zsc, _sym_unit(d, n, n)))
        prog.add_lmi(np.zeros((d, d)), terms)

    def quad_cert_terms(self, extra=()):
        """Terms embedding [Y, y; y', y0] into an (n+1) LMI, plus ``extra``."""
        n = self.n
        d = n + 1
        terms = []
        for (i, j), var in self.Y.items():
            terms.append((var, _sym_unit(d, i, j)))
        for i, var in enumerate(self.y):
            terms.append((var, _sym_unit(d, i, n)))
        terms.append((self.y0, _sym_unit(d, n, n)))
        terms.extend(extra)
        return terms

    def budget_terms(self, negate: bool = True):
        """Objective terms with flipped signs, for budget-type inequalities."""
        sign = -1.0 if negate else 1.0
        return [(var, sign * coeff) for var, coeff in self.obj_terms]


def build_wc_expectation(ball: GelbrichBall, y_constraints) -> SdpProblem:
    """Worst-case expectation of a quadratically majorized loss.

    Emits the program minimizing ``y0 + gamma*(rho^2 - |mu|^2 - tr cov) + z
    + tr Z`` over the two moment LMIs plus one majorization LMI ``[Y - Q,
    y - q; (y - q)', y0 - q0] >= 0`` per triple in ``y_constraints``, each
    asserting that the quadratic ``y0 + 2 y'xi + xi'Y xi`` dominates the
    piece ``xi'Q xi + 2 q'xi + q0`` everywhere.

    Parameters
    ----------
    ball : GelbrichBall
        Ambiguity ball with strictly positive radius, unweighted metric.
    y_constraints : iterable of (Q, q, q0)
        Majorization certificates of the loss; symmetric ``Q`` of the
        ball's dimension, vector ``q``, scalar ``q0``.

    Raises
    ------
    ZeroRadius
        If the ball has radius zero (the duality argument needs interior).
    """
    n, mu, cov, rho, root = _check_ball(ball)
    prog = LmiProgram()
    base = _BaseVars(prog, n, mu, cov, rho, root)
    d = n + 1
    for idx, (q_mat, q_vec, q0) in enumerate(y_constraints):
        q_mat = sym_matrix(q_mat)
        q_vec = np.atleast_1d(np.asarray(q_vec, dtype=float))
        if q_mat.shape != (n, n) or q_vec.shape != (n,):
            raise DimMismatch(
                f"piece {idx}: expected a {n}x{n} matrix and length-{n} vector"
            )
        f0 = np.zeros((d, d))
        f0[:n, :n] = -q_mat
        f0[:n, n] = -q_vec
        f0[n, :n] = -q_vec
        f0[n, n] = -float(q0)
        prog.add_lmi(f0, base.quad_cert_terms())
    prog.minimize(0.0, base.obj_terms)
    return prog.compile()


def build_piecewise_quadratic_expectation(ball: GelbrichBall, pieces) -> SdpProblem:
    """Worst-case expectation of ``max_j xi'Q_j xi + 2 q_j'xi + q0_j``.

    A pointwise maximum of quadratics is majorized exactly when each piece
    is, so this delegates to :func:`build_wc_expectation` with one
    certificate LMI per piece.

    Raises
    ------
    EmptyPieces
        If no pieces are supplied.
    """
    pieces = list(pieces)
    if not pieces:
        raise EmptyPieces("need at least one (Q, q, q0) piece")
    return build_wc_expectation(ball, pieces)


def build_poly_var(ball: GelbrichBall, A, B, a, b, w, beta: float) -> SdpProblem:
    """Worst-case VaR of the piecewise linear loss ``-w'max(A xi + a, B xi + b)``.

    The program minimizes the VaR level ``tau`` subject to the budget
    ``y0 + gamma*(rho^2 - |mu|^2 - tr cov) + z + tr Z <= eta * beta``, the
    elementwise cap ``zeta <= w`` on the dual weights, the two moment LMIs,
    the certificate LMI ``[Y, y; y', y0] >= 0``, and the kink LMI ``[Y, y +
    v; (y + v)', y0 + v0 - eta] >= 0`` with ``v = ((A - B)'zeta + B'w)/2``
    and ``v0 = tau + (a - b)'zeta + b'w`` substituted symbolically.

    Parameters
    ----------
    ball : GelbrichBall
        Ambiguity ball, radius > 0.
    A, B : ndarray, shape (k, n)
        Slopes of the two linear families forming the elementwise max.
    a, b, w : ndarray, shape (k,)
        Intercepts and the portfolio weights applied to the max.
    beta : float
        VaR level in (0, 1).

    Raises
    ------
    BadBeta
        If ``beta`` is outside (0, 1).
    DimMismatch
        If the matrix and vector shapes disagree with the ball.
    """
    if not 0.0 < beta < 1.0:
        raise BadBeta(f"beta must lie in (0, 1), got {beta}")
    n, mu, cov, rho, root = _check_ball(ball)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    k = A.shape[0]
    if k < 1 or A.shape != (k, n) or B.shape != (k, n):
        raise DimMismatch(
            f"slope matrices must be k x {n} with k >= 1, got {A.shape} and {B.shape}"
        )
    if a.shape != (k,) or b.shape != (k,) or w.shape != (k,):
        raise DimMismatch(f"intercepts and weights must have length {k}")

    prog = LmiProgram()
    base = _BaseVars(prog, n, mu, cov, rho, root)
    tau = prog.scalar("tau")
    eta = prog.scalar("eta", nonneg=True)
    zeta = [prog.scalar(f"zeta_{i}", nonneg=True) for i in range(k)]

    for i in range(k):
        prog.add_inequality(float(w[i]), [(zeta[i], -1.0)])
    prog.add_inequality(0.0, [(eta, beta)] + base.budget_terms())

    d = n + 1
    prog.add_lmi(np.zeros((d, d)), base.quad_cert_terms())

    f0 = np.zeros((d, d))
    shift = 0.5 * (B.T @ w)
    f0[:n, n] = shift
    f0[n, :n] = shift
    f0[n, n] = float(b @ w)
    extra = [(tau, _sym_unit(d, n, n)), (eta, _sym_unit(d, n, n, -1.0))]
    for i in range(k):
        m = np.zeros((d, d))
        col = 0.5 * (A[i] - B[i])
        m[:n, n] = col
        m[n, :n] = col
        m[n, n] = float(a[i] - b[i])
        extra.append((zeta[i], m))
    prog.add_lmi(f0, base.quad_cert_terms(extra))

    prog.minimize(0.0, [(tau, 1.0)])
    return prog.compile()


def build_poly_cvar(ball: GelbrichBall, A, B, a, b, w, beta: float) -> SdpProblem:
    """Worst-case CVaR of the piecewise linear loss; identical program.

    Over a moment ambiguity ball the worst-case CVaR and worst-case VaR of
    a concave piecewise linear loss coincide, so this returns exactly the
    program of :func:`build_poly_var`.
    """
    return build_poly_var(ball, A, B, a, b, w, beta)


def build_quad_var(ball: GelbrichBall, theta: float, Delta, Gamma, beta: float) -> SdpProblem:
    """Worst-case VaR of the quadratic loss ``-theta - Delta'xi - xi'Gamma xi / 2``.

    Minimizes ``tau`` subject to the budget ``y0 + gamma*(...) + z + tr Z
    <= eta * beta``, the moment LMIs, ``[Y, y; y', y0] >= 0``, and the
    shifted certificate ``[Y + Gamma, y + Delta; (y + Delta)', y0 - eta +
    2(tau + theta)] >= 0``.  ``Gamma`` may be indefinite.

    Raises
    ------
    BadBeta
        If ``beta`` is outside (0, 1).
    DimMismatch
        If ``Delta`` or ``Gamma`` disagree with the ball dimension.
    """
    if not 0.0 < beta < 1.0:
        raise BadBeta(f"beta must lie in (0, 1), got {beta}")
    n, mu, cov, rho, root = _check_ball(ball)
    delta = np.atleast_1d(np.asarray(Delta, dtype=float))
    gamma_mat = sym_matrix(Gamma)
    if delta.shape != (n,) or gamma_mat.shape != (n, n):
        raise DimMismatch(f"Delta must have length {n} and Gamma be {n}x{n}")

    prog = LmiProgram()
    base = _BaseVars(prog, n, mu, cov, rho, root)
    tau = prog.scalar("tau")
    eta = prog.scalar("eta", nonneg=True)

    prog.add_inequality(0.0, [(eta, beta)] + base.budget_terms())

    d = n + 1
    prog.add_lmi(np.zeros((d, d)), base.quad_cert_terms())

    f0 = np.zeros((d, d))
    f0[:n, :n] = gamma_mat
    f0[:n, n] = delta
    f0[n, :n] = delta
    f0[n, n] = 2.0 * float(theta)
    extra = [(tau, _sym_unit(d, n, n, 2.0)), (eta, _sym_unit(d, n, n, -1.0))]
    prog.add_lmi(f0, base.quad_cert_terms(extra))

    prog.minimize(0.0, [(tau, 1.0)])
    return prog.compile()


def build_quad_cvar(ball: GelbrichBall, theta: float, Delta, Gamma, beta: float) -> SdpProblem:
    """Worst-case CVaR of the quadratic loss; identical program to the VaR."""
    return build_quad_var(ball, theta, Delta, Gamma, beta)


def build_tracking_error(ball: GelbrichBall, w, p: int) -> SdpProblem:
    """Worst-case expected tracking error ``E |w'xi|^p`` for ``p`` in {1, 2}.

    For ``p = 1`` the certificate splits into the two sign branches ``[Y,
    y -+ w/2; ., y0] >= 0``; for ``p = 2`` an auxiliary symmetric block M
    enters through ``[M, y; y', y0] >= 0`` and ``[Y - M, w; w', 1] >= 0``.
    Both share the moment LMIs and minimize the base objective.

    Raises
    ------
    BadP
        If ``p`` is not 1 or 2.
    """
    if p not in (1, 2):
        raise BadP(f"tracking exponent must be 1 or 2, got {p!r}")
    n, mu, cov, rho, root = _check_ball(ball)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (n,):
        raise DimMismatch(f"portfolio must have length {n}, got shape {w.shape}")

    prog = LmiProgram()
    base = _BaseVars(prog, n, mu, cov, rho, root)
    d = n + 1

    if p == 1:
        for sign in (-1.0, 1.0):
            f0 = np.zeros((d, d))
            f0[:n, n] = sign * 0.5 * w
            f0[n, :n] = sign * 0.5 * w
            prog.add_lmi(f0, base.quad_cert_terms())
    else:
        m_var = {
            (i, j): prog.scalar(f"M_{i}_{j}") for i in range(n) for j in range(i, n)
        }
        terms = [(var, _sym_unit(d, i, j)) for (i, j), var in m_var.items()]
        for i, var in enumerate(base.y):
            terms.append((var, _sym_unit(d, i, n)))
        terms.append((base.y0, _sym_unit(d, n, n)))
        prog.add_lmi(np.zeros((d, d)), terms)

        f0 = np.zeros((d, d))
        f0[:n, n] = w
        f0[n, :n] = w
        f0[n, n] = 1.0
        terms = [(var, _sym_unit(d, i, j)) for (i, j), var in base.Y.items()]
        terms += [(var, _sym_unit(d, i, j, -1.0)) for (i, j), var in m_var.items()]
        prog.add_lmi(f0, terms)

    prog.minimize(0.0, base.obj_terms)
    return prog.compile()


def build_wc_probability(ball: GelbrichBall, xi_set) -> SdpProblem:
    """Upper bound on the worst-case probability of a quadratic event set.

    ``xi_set = (S, s, s0)`` describes ``Xi = {xi : xi'S xi + 2 s'xi + s0 >=
    0}``.  The robust requirement that the quadratic certificate dominates
    the indicator on Xi is enforced through one S-procedure multiplier
    ``lam >= 0`` and the LMI ``[Y, y; y', y0 - 1] - lam*[S, s; s', s0] >=
    0``, alongside ``[Y, y; y', y0] >= 0`` and the moment LMIs; the base
    objective is minimized.
    """
    n, mu, cov, rho, root = _check_ball(ball)
    s_mat, s_vec, s0 = xi_set
    s_mat = sym_matrix(s_mat)
    s_vec = np.atleast_1d(np.asarray(s_vec, dtype=float))
    if s_mat.shape != (n, n) or s_vec.shape != (n,):
        raise DimMismatch(f"event set needs a {n}x{n} matrix and length-{n} vector")

    prog = LmiProgram()
    base = _BaseVars(prog, n, mu, cov, rho, root)
    lam = prog.scalar("lam", nonneg=True)
    d = n + 1

    prog.add_lmi(np.zeros((d, d)), base.quad_cert_terms())

    f0 = np.zeros((d, d))
    f0[n, n] = -1.0
    quad = np.zeros((d, d))
    quad[:n, :n] = s_mat
    quad[:n, n] = s_vec
    quad[n, :n] = s_vec
    quad[n, n] = float(s0)
    prog.add_lmi(f0, base.quad_cert_terms([(lam, -quad)]))

    prog.minimize(0.0, base.obj_terms)
    return prog.compile()
