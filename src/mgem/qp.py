"""Dual solvers for the gradient-projection quadratic programs.

All solvers minimize, over multipliers ``v`` of length ``m``,

    f(v) = 0.5 * || C^T v + g ||^2            (box_lower_bound form)
    f(v) = 0.5 * || C^T v + g ||^2 - gamma^T v  (linear_regularized form)

subject to per-coordinate lower bounds ``v >= q`` (box form, ``q`` is the
memory strength) or ``v >= 0`` (regularized form, where ``gamma`` holds the
primal margins). ``C`` stacks the constraint gradients as rows, and the
primal update direction is recovered as ``z = g + C^T v``: the minimizer of
``0.5 * || g - z ||^2`` subject to ``<c_k, z> >= gamma_k`` (regularized form)
by strong duality.

With ``u = v - lb`` (``lb`` the lower bounds) both forms become one
nonnegative QP on the m x m Gram matrix ``K = C C^T``:

    min 0.5 * u^T K u + h^T u,  u >= 0,  h = C (g + C^T lb) - gamma

Three routes are provided:

* ``solve_exact``    -- Lawson-Hanson active-set pivots on ``(K, h)``, the
                        production solver; converges to the stated KKT
                        tolerance in a few m-sized solves.
* ``solve_enumerate``-- exhaustive active-set enumeration on the same
                        ``(K, h)`` (m <= 12), the certification oracle for
                        the other two.
* ``solve_approx``   -- the two-stage closed form: unconstrained solution
                        with the Gram matrix replaced by its diagonal, then
                        a clamp of each multiplier to its lower bound. Exact
                        for a single constraint; one matrix-vector pass.

Rows with squared norm below ``MIN_ROW_SQNORM`` must be dropped before
solving (the diagonal scaling would divide by ~0); ``drop_degenerate_rows``
does this at assembly time.
"""

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

BOX_FORM = "box_lower_bound"
REGULARIZED_FORM = "linear_regularized"
_FORMS = (BOX_FORM, REGULARIZED_FORM)

MIN_ROW_SQNORM = 1e-12
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
_ENUM_MAX_M = 12


@dataclass(eq=False)
class QpInstance:
    """One assembled inequality system for a single update step.

    ``strength`` is the per-row lower bound ``q`` in the box form, or the
    per-row primal margin ``gamma`` in the regularized form; entrywise >= 0
    either way.
    """

    constraint_rows: np.ndarray
    target: np.ndarray
    strength: np.ndarray
    form: str = BOX_FORM

    def __post_init__(self):
        self.constraint_rows = np.atleast_2d(
            np.asarray(self.constraint_rows, dtype=np.float64)
        )
        self.target = np.asarray(self.target, dtype=np.float64)
        self.strength = np.atleast_1d(np.asarray(self.strength, dtype=np.float64))
        if self.constraint_rows.size == 0:
            self.constraint_rows = self.constraint_rows.reshape(0, self.target.shape[0])
            self.strength = self.strength.reshape(0)
        if self.form not in _FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if self.target.ndim != 1:
            raise ValueError("target must be a vector")
        if self.constraint_rows.shape[1] != self.target.shape[0]:
            raise ValueError("constraint rows and target disagree on dimension")
        if self.strength.shape[0] != self.constraint_rows.shape[0]:
            raise ValueError("strength length must equal the number of rows")

    @property
    def m(self) -> int:
        return self.constraint_rows.shape[0]

    @property
    def n(self) -> int:
        return self.target.shape[0]


@dataclass(eq=False)
class DualSolution:
    """Multipliers, recovered direction, and convergence diagnostics."""

    multipliers: np.ndarray
    direction: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool


def drop_degenerate_rows(rows: np.ndarray, strength: np.ndarray):
    """Remove rows with squared norm below MIN_ROW_SQNORM.

    Returns ``(rows, strength, n_dropped)``. Near-zero constraint gradients
    (e.g. a fully-fit past task) carry no directional information and would
    break the diagonal scaling in the approximate solver.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    strength = np.atleast_1d(np.asarray(strength, dtype=np.float64))
    if rows.shape[0] == 0:
        return rows, strength, 0
    keep = np.einsum("ij,ij->i", rows, rows) >= MIN_ROW_SQNORM
    dropped = int(np.sum(~keep))
    if dropped:
        log.debug("dropped %d degenerate constraint rows", dropped)
        rows, strength = rows[keep], strength[keep]
    return rows, strength, dropped


def _check(inst: QpInstance, sqnorms: np.ndarray):
    """Reject bad input. ``sqnorms`` are the squared row norms (the Gram
    diagonal): a row holding NaN or Inf has a non-finite norm."""
    if not (np.isfinite(sqnorms).all()
            and np.isfinite(inst.target).all()
            and np.isfinite(inst.strength).all()):
        raise ValueError("QP instance contains NaN or Inf")
    if (inst.strength < 0.0).any():
        raise ValueError("strength must be entrywise >= 0")
    if (sqnorms < MIN_ROW_SQNORM).any():
        raise ValueError(
            "degenerate constraint row reached the solver; "
            "drop_degenerate_rows must run at assembly time"
        )


def _gram(inst: QpInstance):
    """Validated ``(K, h, lb)``: at ``v = lb + u`` the dual gradient is
    ``K u + h`` (``gamma = 0`` in the box form)."""
    rows = inst.constraint_rows
    K = rows @ rows.T
    _check(inst, np.diag(K))
    lb = lower_bounds(inst)
    h = rows @ inst.target + K @ lb
    if inst.form == REGULARIZED_FORM:
        h -= inst.strength
    return K, h, lb


def _kkt(u: np.ndarray, grad: np.ndarray) -> float:
    """``max_k |min(u_k, grad_k)|`` for ``u = v - lb``; 0 when ``m = 0``."""
    return float(np.abs(np.minimum(u, grad)).max(initial=0.0))


def lower_bounds(inst: QpInstance) -> np.ndarray:
    return inst.strength if inst.form == BOX_FORM else np.zeros(inst.m)


def dual_objective(inst: QpInstance, v: np.ndarray) -> float:
    r = inst.constraint_rows.T @ v + inst.target
    f = 0.5 * float(r @ r)
    if inst.form == REGULARIZED_FORM:
        f -= float(inst.strength @ v)
    return f


def kkt_residual(inst: QpInstance, v: np.ndarray) -> float:
    """Max violation of the bound-constrained KKT conditions at ``v``.

    Per coordinate the residual is ``|min(v_k - lb_k, grad_k)|``: zero iff
    ``v`` is feasible and each coordinate is either at its bound with a
    non-negative dual gradient, or stationary.
    """
    v = np.asarray(v, dtype=np.float64)
    grad = inst.constraint_rows @ (inst.constraint_rows.T @ v + inst.target)
    if inst.form == REGULARIZED_FORM:
        grad = grad - inst.strength
    return _kkt(v - lower_bounds(inst), grad)


def _solution(inst, v, iterations, residual, converged=True) -> DualSolution:
    return DualSolution(v, inst.target + inst.constraint_rows.T @ v, iterations,
                        residual, converged)


def _step(u, free, d, limit):
    """Move ``u += t * d`` in place with ``t = min(limit, first bound hit)``
    and pin the free coordinates that reach 0. Returns ``t``, ``inf`` (no
    move) when nothing bounds an unlimited step."""
    down = (free & (d < 0.0)).nonzero()[0]
    ratio = u[down] / -d[down]
    t = min(limit, ratio.min(initial=np.inf))
    if t < np.inf:
        u += t * d
        if t < limit:
            u[down[np.argmin(ratio)]] = 0.0
        out = free & (u <= 0.0)
        u[out] = 0.0
        free[out] = False
    return t


def solve_exact(inst: QpInstance, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> DualSolution:
    """Lawson-Hanson active-set method on the dual in Gram space.

    Solves ``min 0.5 u^T K u + h^T u, u >= 0`` from ``u = 0``. Each pivot
    frees the pinned coordinate with the most negative gradient and moves
    it to the minimum along the direction that keeps the other free
    coordinates stationary. A free coordinate that reaches its bound first
    is pinned again, and Newton steps on the smaller free set follow until
    one is not cut short (Lawson & Hanson, *Solving Least Squares
    Problems*, 1974). The free rows stay independent: a row in their span
    enters only by pinning one of them. Past the Gram product, all work up
    to ``direction = g + C^T v`` is on m-sized arrays.

    Stops when the KKT residual drops to ``tol``. ``iterations`` counts the
    active-set solves (one per pivot, one per Newton step) and ``max_iter``
    caps them. On the cap, a round-off stall or an unbounded dual (margins
    no direction meets), the feasible iterate is returned with
    ``converged=False``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    K, h, lb = _gram(inst)
    m = inst.m
    u = np.zeros(m)
    free = np.zeros(m, dtype=bool)
    solves = 0
    refined = False
    try:
        while solves < max_iter:
            grad = K @ u + h
            if _kkt(u, grad) <= tol:
                break
            w = np.where(free, 0.0, -grad)
            j = int(np.argmax(w))
            if w[j] > tol:
                # free j along d (d_j = 1, K_PP d_P = -K_Pj): slope -w_j,
                # curvature d^T K d, which is 0 for a row in the free span
                solves += 1
                P = free.nonzero()[0]
                d = np.zeros(m)
                d[j] = 1.0
                if P.size:
                    d[P] = -np.linalg.solve(K[P][:, P], K[P, j])
                curv = float(K[j] @ d)
                limit = w[j] / curv if curv > 0.0 else np.inf
                free[j] = True
                t = _step(u, free, d, limit)
                if t == np.inf:
                    break  # nothing stops the ray: the dual is unbounded
                refined = False
                if t == limit:
                    continue
            elif refined:
                break  # the face is as solved as round-off allows
            else:
                refined = True
            # Newton steps on the free face until one is not cut short
            while solves < max_iter:
                solves += 1
                P = free.nonzero()[0]
                d = np.zeros(m)
                d[P] = -np.linalg.solve(K[P][:, P], K[P] @ u + h[P])
                if _step(u, free, d, 1.0) == 1.0:
                    break
    except np.linalg.LinAlgError:
        pass  # round-off made the free rows singular; u is still feasible
    residual = _kkt(u, K @ u + h)
    return _solution(inst, lb + u, solves, residual, residual <= tol)


def solve_enumerate(inst: QpInstance) -> DualSolution:
    """Global optimum by exhaustive active-set enumeration (m <= 12).

    Every subset of coordinates is tried as the free set: the free
    coordinates solve the Gram-space stationarity system with the rest
    pinned to their bounds, and the candidate is kept iff it is feasible
    and the pinned coordinates have non-negative dual gradient. Singular
    subsystems are skipped. Ties go to the first enumerated optimal set.
    """
    K, h, lb = _gram(inst)
    m = inst.m
    if m > _ENUM_MAX_M:
        raise ValueError(f"enumeration supports m <= {_ENUM_MAX_M}, got {m}")

    feas_tol = 1e-9 * (1.0 + np.abs(K).max(initial=0.0) + np.abs(h).max(initial=0.0))

    best_u = None
    best_obj = np.inf
    tried = 0
    for mask in range(2 ** m):
        free = np.array([mask >> k & 1 for k in range(m)], dtype=bool)
        u = np.zeros(m)
        if free.any():
            try:
                u[free] = np.linalg.solve(K[np.ix_(free, free)], -h[free])
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(u)):
                continue
        tried += 1
        grad = K @ u + h
        if np.any(u < -feas_tol) or np.any(grad[~free] < -feas_tol):
            continue
        obj = float(u @ (0.5 * (grad + h)))  # 0.5 u^T K u + h^T u
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_u = u
    if best_u is None:
        raise RuntimeError("no active set satisfied the KKT conditions")
    return _solution(inst, lb + best_u, tried, _kkt(best_u, K @ best_u + h))


def solve_approx(inst: QpInstance) -> DualSolution:
    """Two-stage approximate dual solve (box form only).

    Stage one solves the unconstrained problem with the Gram matrix
    ``C C^T`` replaced by its diagonal: ``nu_k = -<c_k, g> / ||c_k||^2``.
    Stage two clamps each multiplier to its strength floor:
    ``v = max(nu, q)``. The direction is ``z = g + C^T v``. For ``m=1``
    the diagonal approximation is the true Gram matrix, so the result
    matches the exact solver for any ``q``.
    """
    if inst.form != BOX_FORM:
        raise ValueError("approximate solver handles the box_lower_bound form only")
    rows = inst.constraint_rows
    sq = np.einsum("ij,ij->i", rows, rows)
    _check(inst, sq)
    nu = -(rows @ inst.target) / sq
    v = np.maximum(nu, inst.strength)
    return _solution(inst, v, 0, kkt_residual(inst, v))
