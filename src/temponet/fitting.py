"""Least-squares curve fitting for join-rate and decay curves.

Polynomial fits solve the Vandermonde system by orthogonal
decomposition. The nonlinear families (exponential decay and two
rational forms) share one damped Gauss-Newton engine seeded from a
linearized least-squares estimate and refined in the original data
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, Sequence

import numpy as np

_MAX_ITER = 200
_REL_STEP_TOL = 1e-10
_MAX_HALVINGS = 40


class IllConditionedError(ValueError):
    """The least-squares system is rank deficient."""


@dataclass
class SeriesFit:
    """A fitted model: family name, coefficients, and fit quality.

    ``r_squared`` is ``None`` when the data is constant (the
    mean-predictor baseline has zero variance, so the ratio is
    undefined).
    """

    family: str
    coefficients: list[float]
    r_squared: float | None
    residual_norm: float
    converged: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


def r_squared(ys: Sequence[float], predictions: Sequence[float]) -> float | None:
    """1 - SS_res / SS_tot against the mean predictor."""
    ys = np.asarray(ys, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if len(ys) != len(predictions):
        raise ValueError("inputs must have equal length")
    if len(ys) < 2:
        raise ValueError("need at least 2 observations")
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0:
        return None
    ss_res = float(np.sum((ys - predictions) ** 2))
    return 1.0 - ss_res / ss_tot


def _as_series(xs, ys, min_points: int, count: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of equal length holding at least ``min_points``
    finite points; ``count`` names that minimum in the error message."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise ValueError("inputs must have equal length")
    if len(xs) < min_points:
        raise ValueError(f"need at least {count or min_points} points")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("values must be finite")
    return xs, ys


def polyfit(xs: Sequence[float], ys: Sequence[float], degree: int) -> SeriesFit:
    """Least-squares polynomial fit, coefficients in ascending order."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    xs, ys = _as_series(xs, ys, degree + 1, "degree + 1")
    if len(np.unique(xs)) != len(xs):
        raise ValueError("x values must be distinct")
    vander = np.vander(xs, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(vander, ys, rcond=None)
    if rank < degree + 1:
        raise IllConditionedError("polynomial system is rank deficient")
    predictions = vander @ coeffs
    resid = ys - predictions
    return SeriesFit(
        family="polynomial",
        coefficients=[float(c) for c in coeffs],
        r_squared=r_squared(ys, predictions),
        residual_norm=float(np.linalg.norm(resid)),
    )


def _gauss_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    accept: Callable[[np.ndarray], bool],
) -> tuple[np.ndarray, bool]:
    """Damped Gauss-Newton: full steps halved until the squared residual
    stops increasing; converged when the relative step falls below
    1e-10 within 200 iterations. Returns the best iterate either way."""
    x = x0.astype(float)
    r = residual(x)
    sse = float(r @ r)
    for _ in range(_MAX_ITER):
        J = jacobian(x)
        try:
            step, *_ = np.linalg.lstsq(J, r, rcond=None)
        except np.linalg.LinAlgError:
            return x, False
        if not np.all(np.isfinite(step)):
            return x, False
        lam = 1.0
        for _half in range(_MAX_HALVINGS):
            cand = x + lam * step
            if accept(cand):
                rc = residual(cand)
                new_sse = float(rc @ rc)
                if math.isfinite(new_sse) and new_sse <= sse:
                    break
            lam *= 0.5
        else:
            return x, False
        rel = float(
            np.sum(np.abs(lam * step) / np.maximum(np.abs(x), 1e-300))
        )
        x = cand
        r = rc
        sse = new_sse
        if rel < _REL_STEP_TOL:
            return x, True
    return x, False


def _nonlinear_fit(family: str, ys: np.ndarray, residual, jacobian, start, accept) -> SeriesFit:
    """Refine ``start`` by :func:`_gauss_newton` and score the result."""
    params, converged = _gauss_newton(residual, jacobian, start, accept)
    resid = residual(params)
    return SeriesFit(
        family=family,
        coefficients=[float(v) for v in params],
        r_squared=r_squared(ys, ys - resid),
        residual_norm=float(np.linalg.norm(resid)),
        converged=converged,
    )


def fit_exp_decay(xs: Sequence[float], ys: Sequence[float]) -> SeriesFit:
    """Fit ``a * exp(-t / b)`` in the original data space.

    Initialized from a log-linear regression, then refined by damped
    Gauss-Newton. All ``ys`` must be positive. A fit that fails to meet
    the step tolerance (for example on non-decaying data, where ``b``
    runs away) is returned with ``converged=False``.
    """
    xs, ys = _as_series(xs, ys, 3)
    if np.any(ys <= 0):
        raise ValueError("exponential-decay fitting requires positive values")

    design = np.vstack([np.ones_like(xs), xs]).T
    (intercept, slope), *_ = np.linalg.lstsq(design, np.log(ys), rcond=None)
    a0 = math.exp(intercept)
    b0 = -1.0 / slope if slope < 0 else 1e9  # non-decaying data: push b out

    def residual(p):
        a, b = p
        return ys - a * np.exp(-xs / b)

    def jacobian(p):
        a, b = p
        e = np.exp(-xs / b)
        return np.vstack([e, a * xs / (b * b) * e]).T

    fit = _nonlinear_fit(
        "exp_decay", ys, residual, jacobian, np.array([a0, b0]), accept=lambda p: p[1] > 0
    )
    span = float(xs.max() - xs.min())
    if fit.coefficients[1] > 1e6 * max(span, 1.0):
        fit.converged = False  # decay scale far beyond the window: no decay found
    return fit


def fit_rational_power(
    xs: Sequence[float], ys: Sequence[float], exponent: float = 0.642
) -> SeriesFit:
    """Fit ``(a - b * t**q) / (c + t**q)`` with the exponent ``q`` held
    fixed; freeing it would make the problem nonlinear in the exponent
    and need a different strategy. Coefficients are ``[a, b, c]``."""
    xs, ys = _as_series(xs, ys, 4)
    s = xs**exponent

    # Linearized start: a - b*s - c*y = y*s
    design = np.vstack([np.ones_like(s), -s, -ys]).T
    start, *_ = np.linalg.lstsq(design, ys * s, rcond=None)

    def residual(p):
        a, b, c = p
        return ys - (a - b * s) / (c + s)

    def jacobian(p):
        a, b, c = p
        den = c + s
        return np.vstack([1 / den, -s / den, -(a - b * s) / den**2]).T

    return _nonlinear_fit(
        "rational_power", ys, residual, jacobian, start,
        accept=lambda p: np.all(np.abs(p[2] + s) > 1e-12),
    )


def fit_rational_quadratic(xs: Sequence[float], ys: Sequence[float]) -> SeriesFit:
    """Fit ``(a + b*t) / (1 + c*t + d*t**2)``; coefficients ``[a, b, c, d]``."""
    xs, ys = _as_series(xs, ys, 5)

    # Linearized start: a + b*t - c*t*y - d*t^2*y = y
    design = np.vstack([np.ones_like(xs), xs, -xs * ys, -(xs**2) * ys]).T
    start, *_ = np.linalg.lstsq(design, ys, rcond=None)

    def residual(p):
        a, b, c, d = p
        return ys - (a + b * xs) / (1 + c * xs + d * xs**2)

    def jacobian(p):
        a, b, c, d = p
        den = 1 + c * xs + d * xs**2
        num = a + b * xs
        return np.vstack(
            [1 / den, xs / den, -num * xs / den**2, -num * xs**2 / den**2]
        ).T

    return _nonlinear_fit(
        "rational_quadratic", ys, residual, jacobian, start,
        accept=lambda p: np.all(np.abs(1 + p[2] * xs + p[3] * xs**2) > 1e-12),
    )
