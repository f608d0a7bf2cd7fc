"""Built-in verification suites.

Each suite cross-checks one load-bearing piece of the package against an
independent route: the production QP solver against exhaustive active-set
enumeration, the closed-form approximate solver against the exact one where
it must coincide, analytic backprop against central finite differences, the
per-module/joint solve equality, and the memory-strength ordering of the
modular variants against plain GEM. Every QP instance is of the one form the
solvers and the engine use: a floor on the dual multipliers.

The suites are shared by the CLI ``selfcheck`` command, the unit tests, and
the acceptance gate; ``quick=True`` shrinks the instance counts.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import qp
from .constraints import MethodSpec, assemble_direction, build_instances
from .mlp import Dataset, MlpSpec, fd_gradient, group_grads, init_params, loss_and_grad
from .seeds import rng_from

_ROOT_SEED = 20240901


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def random_box_instance(rng, n_max=8, m_max=3, q_choices=(0.0, 0.1, 0.5)):
    """A random well-posed instance for the oracle battery: one floor ``q``
    on every multiplier."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    rows = rng.standard_normal((m, n))
    g = rng.standard_normal(n)
    q = float(rng.choice(q_choices))
    return qp.QpInstance(rows, g, np.full(m, q))


def check_oracle_equivalence(n_instances=1000, quick=False):
    """max ||z_exact - z_enumerate||_inf over seeded random instances."""
    if quick:
        n_instances = max(50, n_instances // 5)
    rng = rng_from(_ROOT_SEED, "oracle")
    worst = 0.0
    for _ in range(n_instances):
        inst = random_box_instance(rng)
        z_exact = qp.solve_exact(inst, tol=1e-12).direction
        z_en = qp.solve_enumerate(inst).direction
        worst = max(worst, float(np.max(np.abs(z_exact - z_en))))
    return worst <= 1e-6, f"max |z_exact - z_enumerate| = {worst:.3e} over {n_instances} instances"


def check_approx_single_constraint(n_instances=100, quick=False):
    """For m=1 the two-stage solver must reproduce the exact solution."""
    if quick:
        n_instances = max(20, n_instances // 5)
    rng = rng_from(_ROOT_SEED, "approx-m1")
    worst = 0.0
    for _ in range(n_instances):
        inst = random_box_instance(rng, m_max=1)
        z_ap = qp.solve_approx(inst).direction
        z_exact = qp.solve_exact(inst, tol=1e-14).direction
        worst = max(worst, float(np.max(np.abs(z_ap - z_exact))))
    return worst <= 1e-9, f"max |z_approx - z_exact| = {worst:.3e} over {n_instances} m=1 instances"


def check_gradients(n_cases=20, quick=False):
    """Analytic backprop vs central finite differences, per coordinate.

    Each case checks the one-group gradient (``loss_and_grad``) and one row
    of a two-group ``group_grads`` pass, with equal and unequal groups.
    """
    if quick:
        n_cases = max(5, n_cases // 4)
    worst = 0.0
    for case in range(n_cases):
        rng = rng_from(_ROOT_SEED, "fd", case)
        act = "relu" if case % 2 == 0 else "tanh"
        sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(2, 4)))
        spec = MlpSpec(sizes, activation=act)
        params = init_params(spec, seed=1000 + case)
        params += 0.05 * rng.standard_normal(params.shape)
        data = Dataset(
            rng.standard_normal((6, sizes[0])),
            rng.integers(0, sizes[-1], size=6),
        )
        # even cases: first of two equal groups; odd: second of two unequal
        row = case % 2
        groups = ((3, 3), (2, 4))[row]
        lo = groups[0] * row
        group = data.take(slice(lo, lo + groups[row]))
        pairs = (
            (loss_and_grad(params, spec, data)[1], fd_gradient(params, spec, data)),
            (group_grads(params, spec, data, groups)[row], fd_gradient(params, spec, group)),
        )
        for grad, fd in pairs:
            denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
            worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
    return worst < 1e-5, f"max relative gradient error = {worst:.3e} over {n_cases} cases"


def _random_block_sizes(rng, n_blocks):
    return [int(rng.integers(2, 5)) for _ in range(n_blocks)]


def check_block_consistency(n_cases=100, quick=False):
    """Joint block-diagonal solve vs concatenated per-block solves.

    The joint instance embeds each block-local row in the full space (zeros
    outside its block), each row with its own floor; separability makes
    both routes agree.
    """
    if quick:
        n_cases = max(20, n_cases // 5)
    rng = rng_from(_ROOT_SEED, "blocks")
    worst = 0.0
    for _ in range(n_cases):
        n_blocks = int(rng.integers(2, 4))
        sizes = _random_block_sizes(rng, n_blocks)
        n = sum(sizes)
        bounds = np.cumsum([0] + sizes)
        n_rows = int(rng.integers(1, 3))
        g = rng.standard_normal(n)

        z_parts = []
        joint_rows = []
        joint_strength = []
        for b in range(n_blocks):
            lo, hi = bounds[b], bounds[b + 1]
            rows = rng.standard_normal((n_rows, hi - lo))
            strength = rng.uniform(0.0, 0.5, size=n_rows)
            z_parts.append(qp.solve_exact(
                qp.QpInstance(rows, g[lo:hi], strength), tol=1e-12
            ).direction)
            for r in range(n_rows):
                full = np.zeros(n)
                full[lo:hi] = rows[r]
                joint_rows.append(full)
            joint_strength.extend(strength)
        z_joint = qp.solve_exact(
            qp.QpInstance(np.vstack(joint_rows), g, np.asarray(joint_strength)),
            tol=1e-12,
        ).direction
        worst = max(worst, float(np.max(np.abs(z_joint - np.concatenate(z_parts)))))
    return worst <= 1e-8, f"max |z_joint - z_per_block| = {worst:.3e} over {n_cases} cases"


def _direction(method, g_t, rows, spans):
    """The exact update direction of one step of ``method``, assembled as
    the engine assembles it: one instance per module (``build_instances``),
    the module directions joined by ``assemble_direction``."""
    sols = [qp.solve_exact(inst, tol=1e-12) for inst in build_instances(method, g_t, rows, spans)]
    return assemble_direction(sols, spans)


def check_strength_ordering(n_cases=500, quick=False, tol=1e-7):
    """Modular variants vs memory strength vs plain GEM, one past task.

    Plain GEM has floor 0 on its one multiplier, memory strength floor
    ``q``. The parameter split puts floor ``q`` on each module's
    multiplier; the memory split has one row per split, the splits
    averaging to the pooled memory gradient ``g_hat``, each with floor
    ``q``. The exact solutions must order the past-task inner product
    ``<g_hat, z>``: modular >= memory-strength >= plain, within ``tol``.
    With one row the floor gives ``<g_hat, z> = max(<g_hat, g> + q
    ||g_hat||^2, 0)``, so the parameter split's per-module sum of such
    terms is at least memory strength's. Each variant's instances are
    those the engine assembles for its ``MethodSpec`` (``_direction``).
    """
    if quick:
        n_cases = max(100, n_cases // 5)
    rng = rng_from(_ROOT_SEED, "ordering")
    violations = 0
    worst_gap = np.inf
    for _ in range(n_cases):
        D = int(rng.integers(2, 4))
        sizes = [int(rng.integers(3, 6)) for _ in range(D)]
        n = sum(sizes)
        g_t = rng.standard_normal(n)
        g_hat = rng.standard_normal(n)
        q = float(rng.uniform(0.0, 1.0))

        whole = (slice(0, n),)
        modules = tuple(slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes)))

        z_gem = _direction(MethodSpec("gem"), g_t, g_hat[None], whole)
        z_ms = _direction(MethodSpec("gem", strength=q), g_t, g_hat[None], whole)
        # parameter-wise: floor q on each module's multiplier
        z_p = _direction(MethodSpec("p_mgem", d_param=D, strength=q), g_t, g_hat[None], modules)
        # data-wise: split gradients averaging to g_hat, floor q on each
        t = rng.standard_normal((D, n))
        splits = g_hat + (t - t.mean(axis=0))
        z_d = _direction(MethodSpec("d_mgem", d_data=D, strength=q), g_t, splits, whole)

        i_gem = float(g_hat @ z_gem)
        i_ms = float(g_hat @ z_ms)
        i_p = float(g_hat @ z_p)
        i_d = float(g_hat @ z_d)
        gaps = (i_p - i_ms, i_d - i_ms, i_ms - i_gem)
        worst_gap = min(worst_gap, *gaps)
        if any(gap < -tol for gap in gaps):
            violations += 1
    return violations == 0, (
        f"{violations} ordering violations over {n_cases} cases "
        f"(worst signed gap {worst_gap:.3e})"
    )


_SUITES = (
    ("qp-oracle-equivalence", check_oracle_equivalence),
    ("approx-single-constraint", check_approx_single_constraint),
    ("gradient-finite-difference", check_gradients),
    ("block-solve-consistency", check_block_consistency),
    ("strength-ordering-chain", check_strength_ordering),
)


def run_all(quick: bool = False):
    results = []
    for name, fn in _SUITES:
        start = time.perf_counter()
        passed, detail = fn(quick=quick)
        results.append(SuiteResult(name, passed, detail, time.perf_counter() - start))
    return results
