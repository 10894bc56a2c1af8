"""Weighted nonlinear least squares with named parameters.

A small Levenberg-Marquardt engine shared by the susceptibility and
line-shape fits. Parameters are addressed by name, any subset can be
frozen, and simple bound constraints are handled by smooth
reparametrization (logistic for two-sided bounds, exponential for
one-sided) so the optimizer never sees a constraint boundary.

A Gauss-Newton step (no damping) is attempted first whenever the previous
step succeeded, so linear problems converge in one step; damping kicks in
only when an undamped step fails. Accepted steps never increase the cost.

A starting Jacobian of deficient rank hands the fit to a Nelder-Mead simplex
with coefficients (1, 2, 1/2, 1/2) (Nelder & Mead, Comput. J. 7, 308 (1965);
Lagarias et al., SIAM J. Optim. 9, 112 (1998)) and first steps of 5 % per
coordinate (0.00025 from zero). A run stops at a spread of 1e-10 in every
coordinate and in cost, or after 2000 iterations per coordinate; up to 5 runs
restart from the best point until one gains less than a relative 1e-10.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import FitDiverged, SingularJacobian

__all__ = ["FitResult", "least_squares", "sigma_weights"]

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
    message: str


def sigma_weights(sigma) -> np.ndarray:
    """Residual weights 1/sigma; a point with sigma = 0 enters with unit weight."""
    return 1.0 / np.where(sigma > 0, sigma, 1.0)


def _bounded(lo: float | None, hi: float | None, start: float):
    """(internal start, map u -> p, dp/du) of a parameter bounded by (lo, hi):
    identity when unbounded, exponential for one bound, logistic for two."""
    if lo is None and hi is None:
        return start, lambda u: u, lambda u: 1.0
    if lo is not None and hi is not None:
        if not (lo < start < hi):
            raise ValueError(f"initial value {start} outside bounds ({lo}, {hi})")

        def slope(u: float) -> float:
            s = 1.0 / (1.0 + math.exp(-u))
            return (hi - lo) * s * (1.0 - s)

        return (math.log((start - lo) / (hi - start)),
                lambda u: lo + (hi - lo) / (1.0 + math.exp(-u)), slope)
    if lo is not None:
        if not (start > lo):
            raise ValueError(f"initial value {start} must exceed lower bound {lo}")
        return math.log(start - lo), lambda u: lo + math.exp(u), math.exp
    if not (start < hi):
        raise ValueError(f"initial value {start} must be below upper bound {hi}")
    return math.log(hi - start), lambda u: hi - math.exp(u), lambda u: -math.exp(u)


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

    Raises :class:`FitDiverged` when the starting cost is not finite or the
    damping parameter overflows without finding an acceptable step, and :class:`SingularJacobian` when
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

    u0, maps, slopes = zip(*(
        _bounded(*bounds.get(n, (None, None)), float(initial[n])) for n in free_names
    ))
    fixed = {n: float(initial[n]) for n in names if n in frozen}

    def unpack(u: np.ndarray) -> dict[str, float]:
        params = dict(fixed)
        for name, to_p, ui in zip(free_names, maps, u):
            params[name] = to_p(ui)
        return params

    def evaluate(u: np.ndarray) -> np.ndarray:
        try:
            params = unpack(u)
        except OverflowError:
            # exp overflows in the bound transform: a point with no parameter
            # values, rejected as a trial whose residual is not finite
            return np.array([math.inf])
        r = np.asarray(residual_fn(params), dtype=float)
        if r.ndim != 1:
            r = r.ravel()
        return r

    u = np.array(u0)
    r = evaluate(u)
    m, n_free = r.size, len(free_names)
    if m < n_free:
        raise ValueError(f"{m} residuals cannot constrain {n_free} free parameters")
    if not np.all(np.isfinite(r)):
        raise ValueError("residual is not finite at the initial point")
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise FitDiverged("cost is not finite at the initial point")
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
            u, iterations = _nelder_mead(lambda v: float((rv := evaluate(v)) @ rv), u)
            r = evaluate(u)
            cost = float(r @ r)
            converged = True
            message = "nelder-mead fallback (singular starting Jacobian)"
            break
        grad = jac.T @ r
        normal = jac.T @ jac
        diag = np.diag(normal).copy()
        diag[diag == 0.0] = 1.0

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
    scale = np.array([slope(uk) for slope, uk in zip(slopes, u)])
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
    params = unpack(u)
    errors = {name: 0.0 for name in params}
    for k, name in enumerate(free_names):
        errors[name] = math.sqrt(max(cov[k, k], 0.0))
    return FitResult(
        parameters={k: float(v) for k, v in params.items()},
        errors=errors,
        covariance=cov,
        free_names=free_names,
        residual_norm=math.sqrt(cost),
        reduced_chi2=sigma2,
        iterations=iterations,
        converged=converged,
        frozen_mask={name: (name in frozen) for name in params},
        message=message,
    )


def _nelder_mead(cost_fn: Callable[[np.ndarray], float], u0: np.ndarray):
    """The restarted Nelder-Mead minimum of ``cost_fn`` from ``u0``: (u, iterations)."""
    n = u0.size
    u, best, iterations = u0, cost_fn(u0), 0
    for _ in range(5):
        sim = np.tile(u, (n + 1, 1))
        np.fill_diagonal(sim[1:], np.where(u != 0, 1.05 * u, 0.00025))
        fsim = np.array([cost_fn(x) for x in sim])
        for nit in range(1, 2000 * n + 1):
            order = np.argsort(fsim)
            sim, fsim = sim[order], fsim[order]
            if nit == 2000 * n or (
                np.abs(sim[1:] - sim[0]).max() <= 1e-10
                and np.abs(fsim[1:] - fsim[0]).max() <= 1e-10
            ):
                break
            # trial points centroid + t (centroid - worst) for t = 1, 2, 1/2, -1/2
            centroid, worst = sim[:-1].sum(axis=0) / n, sim[-1]
            x_r = 2.0 * centroid - worst
            f_r = cost_fn(x_r)
            if f_r < fsim[0]:
                x_e = 3.0 * centroid - 2.0 * worst
                f_e = cost_fn(x_e)
                sim[-1], fsim[-1] = (x_e, f_e) if f_e < f_r else (x_r, f_r)
            elif f_r < fsim[-2]:
                sim[-1], fsim[-1] = x_r, f_r
            else:
                outside = f_r < fsim[-1]
                x_c = 1.5 * centroid - 0.5 * worst if outside else 0.5 * (centroid + worst)
                f_c = cost_fn(x_c)
                if (f_c <= f_r) if outside else (f_c < fsim[-1]):
                    sim[-1], fsim[-1] = x_c, f_c
                else:  # shrink every vertex halfway towards the best
                    sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                    fsim[1:] = [cost_fn(x) for x in sim[1:]]
        iterations += nit
        if not fsim[0] < best:
            break
        u, best, gain = sim[0], fsim[0], (best - fsim[0]) / best
        if gain < 1e-10:
            break
    return u, iterations
