"""Weighted nonlinear least squares with named parameters.

A small Levenberg-Marquardt engine shared by the susceptibility and
line-shape fits. Parameters are addressed by name, any subset can be
frozen, and simple bound constraints are handled by smooth
reparametrization (logistic for two-sided bounds, exponential for
one-sided) so the optimizer never sees a constraint boundary.

A Gauss-Newton step (no damping) is attempted first whenever the previous
step succeeded, so linear problems converge in one step; damping kicks in
only when an undamped step fails. Accepted steps never increase the cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import FitDiverged, SingularJacobian

__all__ = ["FitResult", "least_squares"]

_RELATIVE_STEP = 1e-7
_ABSOLUTE_STEP = 1e-10
_LAMBDA_MAX = 1e15
# stopping rules: iteration cap, relative cost decrease, scaled step norm
_MAX_ITERATIONS = 500
_COST_TOL = 1e-12
_STEP_TOL = 1e-12


@dataclass
class FitResult:
    """Outcome of one least-squares invocation.

    ``parameters`` holds every parameter (frozen ones at their fixed
    values); ``covariance`` covers the free parameters only, in
    ``free_names`` order, scaled by the reduced chi-square at the optimum.
    ``errors`` are the corresponding 1-sigma estimates (0 for frozen
    parameters). ``converged`` is False when the iteration cap was hit;
    that case is reported, not raised.
    """

    parameters: dict[str, float]
    errors: dict[str, float]
    covariance: np.ndarray
    free_names: tuple[str, ...]
    residual_norm: float
    reduced_chi2: float
    iterations: int
    converged: bool
    frozen_mask: dict[str, bool]
    message: str = ""


class _Transform:
    """Map between an unconstrained internal coordinate and a bounded parameter."""

    def __init__(self, lo: float | None, hi: float | None):
        self.lo, self.hi = lo, hi

    def to_internal(self, p: float) -> float:
        lo, hi = self.lo, self.hi
        if lo is None and hi is None:
            return p
        if lo is not None and hi is not None:
            if not (lo < p < hi):
                raise ValueError(f"initial value {p} outside bounds ({lo}, {hi})")
            return math.log((p - lo) / (hi - p))
        if lo is not None:
            if not (p > lo):
                raise ValueError(f"initial value {p} must exceed lower bound {lo}")
            return math.log(p - lo)
        if not (p < hi):
            raise ValueError(f"initial value {p} must be below upper bound {hi}")
        return math.log(hi - p)

    def to_external(self, u: float) -> float:
        lo, hi = self.lo, self.hi
        if lo is None and hi is None:
            return u
        if lo is not None and hi is not None:
            return lo + (hi - lo) / (1.0 + math.exp(-u))
        if lo is not None:
            return lo + math.exp(u)
        return hi - math.exp(u)

    def derivative(self, u: float) -> float:
        """dp/du, used to map the covariance back to parameter units."""
        lo, hi = self.lo, self.hi
        if lo is None and hi is None:
            return 1.0
        if lo is not None and hi is not None:
            s = 1.0 / (1.0 + math.exp(-u))
            return (hi - lo) * s * (1.0 - s)
        return math.exp(u) if lo is not None else -math.exp(u)


def least_squares(
    residual_fn: Callable[[Mapping[str, float]], np.ndarray],
    initial: Mapping[str, float],
    frozen: Iterable[str] = (),
    bounds: Mapping[str, tuple[float | None, float | None]] | None = None,
) -> FitResult:
    """Minimize ||residual_fn(params)||^2 over the non-frozen parameters.

    ``residual_fn`` receives the full parameter mapping (frozen entries
    included) and returns the weighted residual vector. The Jacobian is
    built by forward differences with step max(1e-7 |p|, 1e-10) on each
    free coordinate. Convergence: relative cost decrease below
    ``_COST_TOL`` (1e-12), scaled step norm below ``_STEP_TOL`` (1e-12), or
    cost at the floating-point noise floor of the initial cost; hard cap
    ``_MAX_ITERATIONS`` (500; result returned with ``converged=False``).

    Raises :class:`FitDiverged` when the damping parameter overflows
    without finding an acceptable step and :class:`SingularJacobian` when
    the normal equations stay unsolvable. A Jacobian that is singular at
    the starting point triggers a restartable Nelder-Mead fallback.
    """
    frozen = set(frozen)
    bounds = dict(bounds or {})
    names = list(initial)
    unknown = frozen.difference(names)
    if unknown:
        raise ValueError(f"frozen mask names unknown parameters: {sorted(unknown)}")
    free_names = tuple(n for n in names if n not in frozen)
    if not free_names:
        raise ValueError("at least one parameter must be free")

    transforms = [_Transform(*bounds.get(n, (None, None))) for n in free_names]
    fixed = {n: float(initial[n]) for n in names if n in frozen}

    def unpack(u: np.ndarray) -> dict[str, float]:
        params = dict(fixed)
        for name, tr, ui in zip(free_names, transforms, u):
            params[name] = tr.to_external(ui)
        return params

    def evaluate(u: np.ndarray) -> np.ndarray:
        r = np.asarray(residual_fn(unpack(u)), dtype=float)
        if r.ndim != 1:
            r = r.ravel()
        return r

    u = np.array([tr.to_internal(float(initial[n])) for n, tr in zip(free_names, transforms)])
    r = evaluate(u)
    m, n_free = r.size, len(free_names)
    if m < n_free:
        raise ValueError(f"{m} residuals cannot constrain {n_free} free parameters")
    if not np.all(np.isfinite(r)):
        raise ValueError("residual is not finite at the initial point")
    cost = float(r @ r)
    # residuals this far below the starting cost are pure rounding noise
    noise_floor = (4.0 * np.finfo(float).eps) ** 2 * cost

    def jacobian(u0: np.ndarray, r0: np.ndarray) -> np.ndarray:
        jac = np.empty((m, n_free))
        for k in range(n_free):
            h = max(_RELATIVE_STEP * abs(u0[k]), _ABSOLUTE_STEP)
            up = u0.copy()
            up[k] += h
            jac[:, k] = (evaluate(up) - r0) / h
        return jac

    lam = 0.0  # try the undamped Gauss-Newton step first
    iterations = 0
    converged = False
    message = ""

    while iterations < _MAX_ITERATIONS:
        iterations += 1
        jac = jacobian(u, r)
        if not np.all(np.isfinite(jac)):
            raise SingularJacobian("Jacobian contains non-finite entries")
        if iterations == 1 and np.linalg.matrix_rank(jac) < n_free:
            return _nelder_mead_fallback(
                evaluate, jacobian, unpack, transforms, u, free_names, frozen
            )
        grad = jac.T @ r
        normal = jac.T @ jac
        diag = np.diag(normal).copy()
        diag[diag == 0.0] = 1.0

        step = None
        new_r = None
        new_cost = None
        while True:
            try:
                delta = np.linalg.solve(normal + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                trial_r = evaluate(u + delta)
                if np.all(np.isfinite(trial_r)):
                    trial_cost = float(trial_r @ trial_r)
                    if trial_cost <= cost:
                        step, new_r, new_cost = delta, trial_r, trial_cost
                        break
            lam = 10.0 * lam if lam > 0 else 1e-4
            if lam > _LAMBDA_MAX:
                if delta is None:
                    raise SingularJacobian(
                        "normal equations remained singular at maximal damping"
                    )
                raise FitDiverged("no acceptable step below the damping limit")

        step_norm = float(np.linalg.norm(step)) / max(1.0, float(np.linalg.norm(u)))
        rel_decrease = (cost - new_cost) / cost if cost > 0 else 0.0
        u, r, cost = u + step, new_r, new_cost
        lam = lam / 10.0 if lam > 1e-12 else 0.0
        if rel_decrease < _COST_TOL or step_norm < _STEP_TOL or cost <= noise_floor:
            converged = True
            break

    if not converged:
        message = "maximum iterations reached"

    jac = jacobian(u, r)
    scale = np.array([tr.derivative(uk) for tr, uk in zip(transforms, u)])
    return _assemble_result(
        jac, scale, r, cost, unpack(u), free_names, frozen, iterations, converged, message
    )


def _assemble_result(
    jac, scale, r, cost, params, free_names, frozen, iterations, converged, message
) -> FitResult:
    m, n_free = r.size, len(free_names)
    dof = m - n_free
    sigma2 = cost / dof if dof > 0 else 0.0
    normal = jac.T @ jac
    try:
        cov = sigma2 * np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        cov = sigma2 * np.linalg.pinv(normal)
        message = (message + "; " if message else "") + "covariance from pseudo-inverse"
    # the Jacobian lives in the internal (bound-transformed) coordinates;
    # map the covariance back to parameter units
    cov = cov * np.outer(scale, scale)
    cov = 0.5 * (cov + cov.T)
    errors = {name: 0.0 for name in params}
    for k, name in enumerate(free_names):
        errors[name] = math.sqrt(max(cov[k, k], 0.0))
    return FitResult(
        parameters={k: float(v) for k, v in params.items()},
        errors=errors,
        covariance=cov,
        free_names=free_names,
        residual_norm=math.sqrt(cost),
        reduced_chi2=cost / dof if dof > 0 else 0.0,
        iterations=iterations,
        converged=converged,
        frozen_mask={name: (name in frozen) for name in params},
        message=message,
    )


def _nelder_mead_fallback(
    evaluate, jacobian, unpack, transforms, u0, free_names, frozen
) -> FitResult:
    """Derivative-free rescue for a rank-deficient starting Jacobian."""
    from scipy.optimize import minimize

    def cost_fn(u):
        r = evaluate(u)
        return float(r @ r)

    u = u0.copy()
    best = cost_fn(u)
    total_iters = 0
    for _ in range(5):  # restart until no further improvement
        res = minimize(
            cost_fn,
            u,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000 * len(u)},
        )
        total_iters += int(res.nit)
        if res.fun >= best * (1.0 - 1e-10) and not res.fun < best:
            break
        improvement = (best - res.fun) / best if best > 0 else 0.0
        u, best = np.asarray(res.x), float(res.fun)
        if improvement < 1e-10:
            break
    r = evaluate(u)
    jac = jacobian(u, r)
    scale = np.array([tr.derivative(uk) for tr, uk in zip(transforms, u)])
    return _assemble_result(
        jac,
        scale,
        r,
        float(r @ r),
        unpack(u),
        free_names,
        frozen,
        total_iters,
        True,
        "nelder-mead fallback (singular starting Jacobian)",
    )
