"""Dual solvers for the gradient-projection quadratic programs.

All solvers minimize, over multipliers ``v`` of length ``m``,

    f(v) = 0.5 * || C^T v + g ||^2,  subject to  v >= q,

where ``C`` stacks the constraint gradients as rows, ``g`` is the target
gradient and ``q`` the per-row memory strength: a constant floor on the
multipliers, GEM's memory strength (Lopez-Paz & Ranzato, NeurIPS 2017).
The update direction is recovered as ``z = g + C^T v``. With ``q = 0`` it
is the minimizer of ``0.5 * || g - z ||^2`` subject to ``<c_k, z> >= 0``
by strong duality; a floor ``q > 0`` pushes ``z`` further along every row.

With ``u = v - lb`` (``lb`` the lower bounds) this is one nonnegative QP on
the m x m Gram matrix ``K = C C^T``:

    min 0.5 * u^T K u + h^T u,  u >= 0,  h = C (g + C^T lb)

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

``solve_batch`` solves many instances at once, each by the exact or the
approximate route. It takes stacks of instances that share m and n as
``(rows, target, strength)`` array triples of shapes ``(B, m, n)``,
``(B, n)`` and ``(B, m)``, and the exact instances of every stack with the
same m run through one Lawson-Hanson core on ``(B, m, m)`` arrays, each
advancing through its own pivots and Newton steps under masks. A
``QpInstance`` is one instance; ``solve_exact`` and ``solve_approx`` solve
it as a stack of one (``_stack``). Every result is the one the instance
gets alone, bit for bit: each stacked product is the per-instance product
(Gram, ``K u``, ``K_j . d`` as a 1 x m by m x 1 product, the direction),
and each round solves every free-set system as one ``(B, m, m)`` stack,
``K`` on the free block and the identity elsewhere.

A row whose squared norm is below ``MIN_ROW_SQNORM`` carries no direction
(e.g. the gradient of a fully fit memory) and is left out of its instance:
its multiplier is 0 and it adds no constraint. ``rows_dropped`` of a
``DualSolution`` counts such rows. One helper, ``_rows``, validates
stacks and makes this decision from one pass of squared row norms
(``row_sqnorms``), for every route and for ``lower_bounds`` and
``kkt_residual``, so they all agree on a row at the threshold.
"""

import itertools
from dataclasses import dataclass

import numpy as np

EXACT = "exact"
APPROX = "approx"

MIN_ROW_SQNORM = 1e-12
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
_ENUM_MAX_M = 12


@dataclass(eq=False)
class QpInstance:
    """One assembled inequality system for a single update step: ``(m, n)``
    constraint rows, an ``(n,)`` target and ``(m,)`` strengths. One row may
    be given as a vector and its strength as a scalar. A stack of systems
    is not an instance but ``solve_batch``'s ``(rows, target, strength)``
    triple.

    ``strength`` is the per-row floor ``q`` on the multipliers, entrywise
    >= 0.
    """

    constraint_rows: np.ndarray
    target: np.ndarray
    strength: np.ndarray

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.target.ndim != 1:
            raise ValueError("target must be a vector")
        self.constraint_rows = np.atleast_2d(np.asarray(self.constraint_rows, dtype=np.float64))
        if self.constraint_rows.ndim != 2:
            raise ValueError("constraint rows must be a matrix")
        self.strength = np.atleast_1d(np.asarray(self.strength, dtype=np.float64))
        if self.constraint_rows.size == 0:
            self.constraint_rows = self.constraint_rows.reshape(0, len(self.target))
            self.strength = self.strength.reshape(0)
        if self.constraint_rows.shape[1] != len(self.target):
            raise ValueError("constraint rows and target disagree on dimension")
        if self.strength.shape != self.constraint_rows.shape[:1]:
            raise ValueError("strength length must equal the number of rows")

    @property
    def m(self) -> int:
        return len(self.constraint_rows)


@dataclass(eq=False)
class DualSolution:
    """Multipliers, recovered direction, and convergence diagnostics, and
    the number of rows left out (below ``MIN_ROW_SQNORM``). ``solve_batch``
    gives one per stack, each field with the stack's leading axis; the
    one-instance solvers give one instance's, with scalar diagnostics."""

    multipliers: np.ndarray
    direction: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    rows_dropped: int = 0


def _stack(inst: QpInstance):
    """The ``(rows, target, strength)`` stack of one of ``inst``: views, so
    the instance keeps its memory layout."""
    return inst.constraint_rows[None], inst.target[None], inst.strength[None]


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x`` for stacks of matrices and vectors, as the per-item
    matrix-vector product."""
    return np.matmul(A, x[..., None])[..., 0]


def row_sqnorms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a ``(B, m, n)`` stack, ``(B, m)``:
    the norms by which ``_rows`` validates a stack and leaves rows out."""
    return np.einsum("bij,bij->bi", rows, rows)


def _rows(stacks):
    """Validate ``(rows, target, strength)`` stacks of one m, and decide
    which rows count, for every route and diagnostic: ``(sq, out, lb, cg)``
    over the stacks' instances in order, the squared row norms, the rows
    left out (``sq < MIN_ROW_SQNORM``), the lower bounds of ``v`` (the
    strength; 0 for a row left out) and ``C g``. The norms and ``C g`` are
    taken stack by stack, so each keeps its rows' memory layout; the rest
    is m-sized work on the joined ``(B, m)`` arrays. A row holding NaN or
    Inf has a non-finite norm."""
    sq = np.concatenate([row_sqnorms(rows) for rows, _, _ in stacks])
    strength = np.concatenate([strength for _, _, strength in stacks])
    if not (np.isfinite(sq).all() and np.isfinite(strength).all()
            and all(np.isfinite(target).all() for _, target, _ in stacks)):
        raise ValueError("QP instance contains NaN or Inf")
    if (strength < 0.0).any():
        raise ValueError("strength must be entrywise >= 0")
    out = sq < MIN_ROW_SQNORM
    cg = np.concatenate([_matvec(rows, target) for rows, target, _ in stacks])
    return sq, out, np.where(out, 0.0, strength), cg


def _gram(stacks):
    """Validated ``(K, h, lb, out)`` of stacks of one m, from ``_rows``: at
    ``v = lb + u`` the dual gradient is ``K u + h``. Each stack's Gram
    product keeps its rows' layout. A row left out (``out``) has 0 for its
    Gram row and column, its ``h`` entry and its lower bound, so no solver
    ever frees it."""
    _, out, lb, cg = _rows(stacks)
    K = np.concatenate([rows @ np.swapaxes(rows, -1, -2) for rows, _, _ in stacks])
    dropped = np.count_nonzero(out)
    if dropped:
        K = np.where(out[..., :, None] | out[..., None, :], 0.0, K)
    h = cg + _matvec(K, lb)
    if dropped:
        h[out] = 0.0
    return K, h, lb, out


def _kkt(u: np.ndarray, grad: np.ndarray):
    """``max_k |min(u_k, grad_k)|`` over the last axis for ``u = v - lb``;
    0 when ``m = 0``."""
    return np.maximum.reduce(np.abs(np.minimum(u, grad)), axis=-1, initial=0.0)


def lower_bounds(inst: QpInstance) -> np.ndarray:
    """The lower bounds of ``v`` (``_rows``) of one instance."""
    return _rows([_stack(inst)])[2][0]


def dual_objective(inst: QpInstance, v: np.ndarray) -> float:
    """The dual objective at ``v`` of one instance."""
    r = inst.constraint_rows.T @ v + inst.target
    return 0.5 * float(r @ r)


def kkt_residual(inst: QpInstance, v: np.ndarray) -> float:
    """Max violation of the bound-constrained KKT conditions at ``v``, for
    one instance.

    Per coordinate the residual is ``|min(u_k, (K u + h)_k)|`` for
    ``u = v - lb`` on ``_gram``'s ``(K, h)``: zero iff ``v`` is feasible and
    each coordinate is either at its bound with a non-negative dual
    gradient, or stationary. A row left out adds nothing: its multiplier is
    taken as 0 and its residual is 0.
    """
    K, h, lb, out = (a[0] for a in _gram([_stack(inst)]))
    u = np.where(out, 0.0, np.asarray(v, dtype=np.float64) - lb)
    return float(_kkt(u, K @ u + h))


def _solve_stack(A: np.ndarray, y: np.ndarray):
    """``solve(A_i, y_i)`` for a stack; returns the solutions and a mask of
    the singular systems (``None`` if there are none), whose solutions are
    left as zeros."""
    try:
        return np.linalg.solve(A, y[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        x = np.zeros_like(y)
        singular = np.zeros(len(A), dtype=bool)
        for i in range(len(A)):
            try:
                x[i] = np.linalg.solve(A[i], y[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return x, singular


def _lawson_hanson(K: np.ndarray, h: np.ndarray, tol: float, max_iter: int):
    """Lawson-Hanson active-set method on a stack of Gram-space duals.

    Solves ``min 0.5 u^T K_b u + h_b^T u, u >= 0`` for every ``b`` of
    ``K (B, m, m)`` and ``h (B, m)``, from ``u = 0``. Each pivot frees the
    pinned coordinate with the most negative gradient and moves it to the
    minimum along the direction that keeps the other free coordinates
    stationary. A free coordinate that reaches its bound first is pinned
    again, and Newton steps on the smaller free set follow until one is not
    cut short (Lawson & Hanson, *Solving Least Squares Problems*, 1974).
    The free rows stay independent: a row in their span enters only by
    pinning one of them.

    An instance stops when its KKT residual drops to ``tol``, when it has
    made ``max_iter`` active-set solves (one per pivot, one per Newton
    step), on a round-off stall, on an unbounded dual, or when its free
    rows turn singular; it keeps its feasible iterate. The dual of an
    instance from ``_gram`` is bounded below: a ray ``d >= 0`` with
    ``K d = 0`` has ``C^T d = 0``, so ``h^T d = 0``. The unbounded-dual
    stop (a pivot ray with no curvature and no bound ahead, ``t = inf``) is
    met only by round-off, and stays as a guard against a run that would
    never end. Each round takes every running instance one solve further:
    those at the top of the loop test KKT and pick their pivot, then every
    pivot and Newton step solves on its free set, all in one ``(B, m, m)``
    stack (``K`` on the free block, the identity elsewhere), and all move
    at once. A stopped instance moves by ``0 * d`` and stays where it is.
    The gradient ``K u + h`` is taken once per round, after the move (at
    ``u = 0`` it is ``h``). Returns ``u``, the solve counts and the KKT
    residuals, taken from the last round's gradient: the loop stops only at
    the top of a round, before any move, so that gradient is at the final
    ``u``, and the last top-of-loop KKT test already holds the residuals.
    """
    B, m = h.shape
    u = np.zeros((B, m))
    free = np.zeros((B, m), dtype=bool)
    solves = np.zeros(B, dtype=np.int64)
    refined = np.zeros(B, dtype=bool)
    newton = np.zeros(B, dtype=bool)    # on a face, taking Newton steps
    running = np.full(B, m > 0)         # with no rows, u = 0 is optimal
    every = np.arange(B)
    eye = np.eye(m)
    grad = h  # K u + h at u = 0
    for rounds in itertools.count():
        if rounds >= max_iter:  # no instance has more solves than rounds
            running &= solves < max_iter
        pivot = running & ~newton
        residual = None
        if np.count_nonzero(pivot):
            # the top of the loop: stop at KKT, else pivot on the most
            # negative gradient
            residual = _kkt(u, grad)
            done = pivot & (residual <= tol)
            pivot ^= done
            running ^= done
            w = np.where(free, 0.0, -grad)
            j = w.argmax(axis=1)
            wj = w[every, j]
            stalled = pivot & (wj <= tol)
            if np.count_nonzero(stalled):  # no pivot left: polish the face once, then stop
                pivot ^= stalled
                running ^= stalled & refined
                newton |= stalled
                refined |= stalled
        if not np.count_nonzero(running):
            break
        solves += running
        # column j of each K, which is row j too: the Gram product forms
        # K_ij and K_ji from the same products in the same order
        Kj = K[every, :, j]
        # a pivot frees j along d (d_j = 1, K_PP d_P = -K_Pj), a Newton step
        # solves K_PP d_P = -(K u + h)_P on the free set P; a stopped
        # instance keeps d = 0 and stays where it is
        P = free & running[:, None]
        if np.count_nonzero(P):
            y = np.where(pivot[:, None], Kj, grad)
            x, singular = _solve_stack(np.where(P[:, :, None] & P[:, None, :], K, eye),
                                       np.where(P, y, 0.0))
            d = np.where(P, -x, 0.0)
            if singular is not None:  # stopped before the move: d stays 0
                running &= ~singular
                pivot &= ~singular
        else:
            d = np.zeros((B, m))
        pj = pivot.nonzero()[0]
        if pj.size:
            # slope -w_j, curvature d^T K d: 0 for a row in the free span;
            # with none, only a bound stops the ray
            jp = j[pj]
            d[pj, jp] = 1.0
            curv = np.matmul(Kj[:, None, :], d[:, :, None])[:, 0, 0]
            bent = pivot & (curv > 0.0)
            limit = np.divide(wj, curv, out=np.where(pivot, np.inf, 1.0), where=bent)
            ray = np.count_nonzero(bent ^ pivot) > 0
            free[pj, jp] = True
            refined[pj] = False
        else:
            limit, ray = np.ones(B), False
        # move by t = min(limit, first bound hit) along d and pin the free
        # coordinates that reach 0 (only free ones have d < 0); t = inf:
        # the dual is unbounded, no move
        down = d < 0.0
        ratio = np.divide(u, -d, out=np.full((B, m), np.inf), where=down)
        first = np.minimum.reduce(ratio, axis=1)
        t = np.minimum(first, limit)
        if ray:
            running &= t < np.inf
        u += np.where(t < np.inf, t, 0.0)[:, None] * d
        cut = (t < limit).nonzero()[0]
        if cut.size:
            u[cut, ratio[cut].argmin(axis=1)] = 0.0
        out = free & (u <= 0.0)
        u[out] = 0.0
        free[out] = False
        newton = t != limit
        grad = _matvec(K, u) + h
    return u, solves, _kkt(u, grad) if residual is None else residual


def solve_batch(stacks, solvers, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Solve every instance of ``stacks``, each a ``(rows, target,
    strength)`` triple of shapes ``(B, m, n)``, ``(B, n)`` and ``(B, m)``,
    by the route ``solvers[i]`` names: ``EXACT`` or ``APPROX``.

    Returns one ``DualSolution`` per stack, each field with the stack's
    leading axis. The stacks with the same m and route form one core: it is
    validated, and its m-sized work (lower bounds, ``h``, the rows left out)
    done, once, on the joined ``(B, m)`` arrays of its stacks (``_rows``,
    ``_gram``). Its exact instances share one Lawson-Hanson core (``tol``,
    ``max_iter`` as in ``solve_exact``), its approximate ones one closed
    form. The n-wide products (row norms, ``C g``, the Gram matrix, the
    direction) stay per stack. Bad input raises the error that checking the
    stacks one by one, in order, raises first. Each result equals the one
    its instance gets alone, bit for bit.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    stacks, solvers = list(stacks), list(solvers)
    if len(solvers) != len(stacks):
        raise ValueError(f"got {len(solvers)} solvers for {len(stacks)} stacks")

    def check_each(n):  # the error that checking stacks 0..n-1 one by one raises first
        for stack in stacks[:n]:
            _rows([stack])

    groups = {}  # (m, solver) -> stack indices
    for i, ((rows, _, _), solver) in enumerate(zip(stacks, solvers)):
        if solver not in (EXACT, APPROX):
            check_each(i)
            raise ValueError(f"unknown solver {solver!r}")
        groups.setdefault((rows.shape[1], solver), []).append(i)
    try:
        built = [(entries, solver, (_gram if solver == EXACT else _rows)(
                      [stacks[i] for i in entries]))
                 for (_, solver), entries in groups.items()]
    except ValueError:
        check_each(len(stacks))
        raise

    sols = [None] * len(stacks)
    for entries, solver, arrays in built:
        if solver == EXACT:
            K, h, lb, out = arrays
            u, solves, residual = _lawson_hanson(K, h, tol, max_iter)
            v, converged = lb + u, residual <= tol
        else:
            sq, out, lb, cg = arrays
            v = np.maximum(np.divide(-cg, sq, out=np.zeros_like(sq), where=~out), lb)
            solves, residual = np.zeros(len(sq), dtype=np.int64), None
            converged = np.ones(len(sq), dtype=bool)
        dropped = out.sum(axis=-1)
        at = 0
        for i in entries:
            rows, target, _ = stacks[i]
            cut = slice(at, at + len(target))
            at = cut.stop
            direction = target + _matvec(np.swapaxes(rows, -1, -2), v[cut])
            if residual is None:  # approximate: the KKT residual at v
                grad = np.where(out[cut], 0.0, _matvec(rows, direction))
                res = _kkt(v[cut] - lb[cut], grad)
            else:
                res = residual[cut]
            sols[i] = DualSolution(v[cut], direction, solves[cut], res, converged[cut],
                                   dropped[cut])
    return sols


def solve_exact(inst: QpInstance, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> DualSolution:
    """Lawson-Hanson active-set method on the dual in Gram space
    (``_lawson_hanson``); ``solve_batch`` on the stack of one of ``inst``,
    its fields unwrapped to one instance's.

    Past the Gram product, all work up to ``direction = g + C^T v`` is on
    m-sized arrays. Stops when the KKT residual drops to ``tol``.
    ``iterations`` counts the active-set solves and ``max_iter`` caps them.
    On the cap, a round-off stall, singular free rows or an unbounded dual,
    the feasible iterate is returned with ``converged=False``. The dual is
    bounded below, so only round-off meets the unbounded-dual stop; it
    stays as a guard.
    """
    sol = solve_batch([_stack(inst)], [EXACT], tol, max_iter)[0]
    return DualSolution(sol.multipliers[0], sol.direction[0], int(sol.iterations[0]),
                        float(sol.kkt_residual[0]), bool(sol.converged[0]),
                        int(sol.rows_dropped[0]))


def solve_enumerate(inst: QpInstance) -> DualSolution:
    """Global optimum by exhaustive active-set enumeration (m <= 12), for
    one instance.

    Every subset of coordinates is tried as the free set: the free
    coordinates solve the Gram-space stationarity system with the rest
    pinned to their bounds, and the candidate is kept iff it is feasible
    and the pinned coordinates have non-negative dual gradient, both to
    ``1e-9 * (1 + max|h| + max(|K| |u|))``. The subsets of one size solve
    as one stack, each as it would alone (``_solve_stack``); singular
    subsystems are skipped. The dual is convex, so every kept candidate is
    optimal; the one returned has the smallest KKT residual
    ``max|min(u, K u + h)|``, the first enumerated on ties. On a near-singular face with huge
    multipliers that residual exposes the face's error, where the
    objective's values of the candidates differ only by rounding.
    """
    K, h, lb, out = (a[0] for a in _gram([_stack(inst)]))
    m = inst.m
    if m > _ENUM_MAX_M:
        raise ValueError(f"enumeration supports m <= {_ENUM_MAX_M}, got {m}")

    h_scale = 1.0 + np.abs(h).max(initial=0.0)
    absK = np.abs(K)
    # row `mask` of `faces` is that mask's free set
    faces = (np.arange(2 ** m)[:, None] >> np.arange(m) & 1).astype(bool)
    us = np.zeros((2 ** m, m))
    kept = np.ones(2 ** m, dtype=bool)
    n_free = faces.sum(axis=1)
    for size in range(1, m + 1):
        masks = np.flatnonzero(n_free == size)
        idx = faces[masks].nonzero()[1].reshape(-1, size)
        x, singular = _solve_stack(K[idx[:, :, None], idx[:, None, :]], -h[idx])
        us[masks[:, None], idx] = x
        if singular is not None:
            kept[masks[singular]] = False
    kept &= np.isfinite(us).all(axis=1)

    best_u = None
    best_res = np.inf
    for mask in kept.nonzero()[0]:
        u, free = us[mask], faces[mask]
        grad = K @ u + h
        # scaled by the terms of K u + h: a near-singular face fixes u only
        # to about eps * cond * |u|, an error the pinned rows' gradients see
        feas_tol = 1e-9 * (h_scale + (absK @ np.abs(u)).max(initial=0.0))
        if np.any(u < -feas_tol) or np.any(grad[~free] < -feas_tol):
            continue
        res = float(_kkt(u, grad))
        if res < best_res:
            best_res, best_u = res, u
    if best_u is None:
        raise RuntimeError("no active set satisfied the KKT conditions")
    v = lb + best_u
    return DualSolution(v, inst.target + inst.constraint_rows.T @ v,
                        int(np.count_nonzero(kept)), best_res, True, int(out.sum()))


def solve_approx(inst: QpInstance) -> DualSolution:
    """Two-stage approximate dual solve; ``solve_batch`` on the stack of
    one of ``inst``, its fields unwrapped to one instance's.

    Stage one solves the unconstrained problem with the Gram matrix
    ``C C^T`` replaced by its diagonal: ``nu_k = -<c_k, g> / ||c_k||^2``.
    Stage two clamps each multiplier to its strength floor:
    ``v = max(nu, q)``. The direction is ``z = g + C^T v``. For ``m=1``
    the diagonal approximation is the true Gram matrix, so the result
    matches the exact solver for any ``q``.
    """
    sol = solve_batch([_stack(inst)], [APPROX])[0]
    return DualSolution(sol.multipliers[0], sol.direction[0], int(sol.iterations[0]),
                        float(sol.kkt_residual[0]), bool(sol.converged[0]),
                        int(sol.rows_dropped[0]))
