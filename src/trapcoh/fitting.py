"""Least-squares parameter extraction for fringes and decay curves.

All fitters run damped Gauss-Newton (Levenberg-Marquardt) with analytic
Jacobians and report 1-sigma uncertainties from the Jacobian covariance
at the optimum. They raise instead of returning partial results:
FitConvergenceError when the optimizer hits its iteration cap without
converging, UnidentifiableModelError when the data cannot constrain the
model (flat fringe, saturated coherence series, non-decaying survival).

With per-point uncertainties the residuals are whitened and the
covariance is (J^T J)^-1 taken as absolute; with uniform weights it is
scaled by rss / (N - p).

The two decay channels of the coherence model are kept nonnegative by
fitting their square roots; estimates and uncertainties are mapped back
by the delta method. Because the gradient with respect to a square-root
parameter vanishes exactly at zero, multi-start initial guesses use
small nonzero corner values instead of zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .coherence import (CoherenceSeries, DecayParams, t2_gradient, t2_time,
                        temperature_from_ramsey_t2star)
from .errors import DomainError, FitConvergenceError, UnidentifiableModelError

MAX_EVALUATIONS = 2000

#: residual floor below which a coherence series counts as saturated
_DEGENERATE_HIGH = 0.9
_DEGENERATE_LOW = 0.1


@dataclass(frozen=True)
class FitResult:
    """Converged fit: estimates, 1-sigma uncertainties, goodness of fit.

    rss is the sum of squared residuals in the metric the optimizer
    minimized (whitened when per-point uncertainties were supplied).
    covariance rows/columns follow param_order; it is kept for error
    propagation and is not part of the JSON form.
    """

    model: str
    params: dict
    uncertainties: dict
    rss: float
    converged: bool
    n_iter: int
    covariance: np.ndarray | None = field(default=None, repr=False)
    param_order: tuple = ()

    def to_json_obj(self):
        return {
            "model": self.model,
            "params": dict(self.params),
            "uncertainties": dict(self.uncertainties),
            "rss": self.rss,
            "converged": self.converged,
        }


def _covariance(jac, rss, n_points, n_params, absolute):
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    if not absolute:
        cov = cov * (rss / max(n_points - n_params, 1))
    return cov


def _weights(n_points, sigma):
    if sigma is None:
        return np.ones(n_points), False
    w = np.asarray(sigma, dtype=float)
    if w.shape != (n_points,):
        raise DomainError("sigma must match the number of data points")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise DomainError("sigma values must be positive and finite")
    return 1.0 / w, True


def _solve(fun, jac, x0):
    return least_squares(fun, np.asarray(x0, dtype=float), jac=jac, method="lm",
                         xtol=1e-12, ftol=1e-12, gtol=1e-12,
                         max_nfev=MAX_EVALUATIONS)


def fit_fringe(phases_rad, population, sigma=None) -> FitResult:
    """Fit p(phi) = b + (A/2) cos(phi - phi0); A >= 0, phi0 in [-pi, pi).

    Needs at least 4 points spanning more than half a fringe period.
    The amplitude is clipped to [0, 1 + 3 sigma_A].
    """
    phi = np.asarray(phases_rad, dtype=float)
    y = np.asarray(population, dtype=float)
    if phi.shape != y.shape or phi.ndim != 1:
        raise DomainError("phases and populations must be 1-d arrays of equal length")
    if phi.size < 4:
        raise DomainError("need at least 4 fringe points")
    if phi.max() - phi.min() <= math.pi:
        raise DomainError("fringe points must span more than half a period")
    w, absolute = _weights(phi.size, sigma)

    design = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    coef, *_ = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)
    b0, c1, c2 = coef
    x0 = [2.0 * math.hypot(c1, c2), math.atan2(c2, c1), b0]

    def fun(x):
        amp, phi0, base = x
        return w * (base + 0.5 * amp * np.cos(phi - phi0) - y)

    def jac(x):
        amp, phi0, base = x
        out = np.empty((phi.size, 3))
        out[:, 0] = w * 0.5 * np.cos(phi - phi0)
        out[:, 1] = w * 0.5 * amp * np.sin(phi - phi0)
        out[:, 2] = w
        return out

    res = _solve(fun, jac, x0)
    if not res.success:
        raise FitConvergenceError("fringe fit did not converge")
    rss = float(2.0 * res.cost)
    cov = _covariance(res.jac, rss, phi.size, 3, absolute)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))

    amp, phi0, base = res.x
    if amp < 0.0:
        amp, phi0 = -amp, phi0 + math.pi
    phi0 = (phi0 + math.pi) % (2.0 * math.pi) - math.pi
    amp = min(amp, 1.0 + 3.0 * err[0])
    return FitResult(
        model="fringe",
        params={"amplitude": float(amp), "phase_rad": float(phi0),
                "baseline": float(base)},
        uncertainties={"amplitude": float(err[0]), "phase_rad": float(err[1]),
                       "baseline": float(err[2])},
        rss=rss, converged=True, n_iter=int(res.nfev),
        covariance=cov, param_order=("amplitude", "phase_rad", "baseline"))


def _decay_starts(t, y):
    """Multi-start guesses for the two-channel decay, all strictly positive."""
    order = np.argsort(t)
    ts, ys = t[order], y[order]
    span = float(ts[-1]) if ts[-1] > 0.0 else 1.0
    eps = 0.01 / span

    half = max(ts.size // 2, 2)
    sigma0, r0 = eps, eps
    head = ys[:half] > 0.05
    if np.count_nonzero(head) >= 2:
        tt, ll = ts[:half][head] ** 2, np.log(ys[:half][head])
        slope = np.polyfit(tt, ll, 1)[0]
        sigma0 = math.sqrt(max(-2.0 * slope, eps * eps))
    tail = ys[half:] > 0.05
    if np.count_nonzero(tail) >= 2:
        slope = np.polyfit(ts[half:][tail], np.log(ys[half:][tail]), 1)[0]
        r0 = max(-slope, eps)

    crossing = np.nonzero(ys < math.exp(-1.0))[0]
    if crossing.size and crossing[0] > 0:
        k = crossing[0]
        frac = (math.exp(-1.0) - ys[k - 1]) / (ys[k] - ys[k - 1])
        te = ts[k - 1] + frac * (ts[k] - ts[k - 1])
    elif crossing.size:
        te = ts[0] if ts[0] > 0.0 else span
    else:
        te = 1.5 * span
    te = max(te, 1e-3 * span)

    return [(sigma0, r0), (sigma0, eps), (eps, r0), (1.0 / te, 0.5 / te)]


def fit_coherence_decay(series, c=None, sigma=None) -> FitResult:
    """Extract (sigma_dls, R) from a coherence decay.

    Accepts a CoherenceSeries, or arrays fit_coherence_decay(t, c, sigma).
    Weighted LM on C(t) = exp(-sigma**2 t**2 / 2 - R t) with both
    parameters nonnegative; best of four starts by residual.
    """
    if isinstance(series, CoherenceSeries):
        t, y = series.t_s, series.coherence
        if sigma is None and np.all(series.sigma > 0.0):
            sigma = series.sigma
    else:
        t = np.asarray(series, dtype=float)
        y = np.asarray(c, dtype=float)
        if t.shape != y.shape or t.ndim != 1:
            raise DomainError("t and c must be 1-d arrays of equal length")
        if np.any(t < 0.0):
            raise DomainError("time values must be nonnegative")
    if t.size < 4:
        raise DomainError("need at least 4 points to fit the decay")
    if np.unique(t).size < 2:
        raise UnidentifiableModelError("all points share one time value")
    if np.all(y > _DEGENERATE_HIGH):
        raise UnidentifiableModelError(
            "series has not decayed, channels are unconstrained")
    if np.all(y < _DEGENERATE_LOW):
        raise UnidentifiableModelError(
            "series is fully decayed, channels are unconstrained")
    w, absolute = _weights(t.size, sigma)
    tt = t * t

    def fun(x):
        u, v = x
        return w * (np.exp(-0.5 * u ** 4 * tt - v * v * t) - y)

    def jac(x):
        u, v = x
        model = np.exp(-0.5 * u ** 4 * tt - v * v * t)
        out = np.empty((t.size, 2))
        out[:, 0] = w * model * (-2.0 * u ** 3 * tt)
        out[:, 1] = w * model * (-2.0 * v * t)
        return out

    best = None
    for s0, r0 in _decay_starts(t, y):
        res = _solve(fun, jac, [math.sqrt(s0), math.sqrt(r0)])
        if res.success and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        raise FitConvergenceError("coherence fit did not converge from any start")

    rss = float(2.0 * best.cost)
    cov_uv = _covariance(best.jac, rss, t.size, 2, absolute)
    u, v = best.x
    scale = np.diag([2.0 * abs(u), 2.0 * abs(v)])
    cov = scale @ cov_uv @ scale
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        model="coherence_decay",
        params={"sigma_dls_rad_s": float(u * u), "pjr_per_s": float(v * v)},
        uncertainties={"sigma_dls_rad_s": float(err[0]), "pjr_per_s": float(err[1])},
        rss=rss, converged=True, n_iter=int(best.nfev),
        covariance=cov, param_order=("sigma_dls_rad_s", "pjr_per_s"))


def fit_exponential(t_s, survival, sigma=None) -> FitResult:
    """Fit p(t) = p0 exp(-t / lifetime); needs >= 3 points of decaying data."""
    t = np.asarray(t_s, dtype=float)
    y = np.asarray(survival, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise DomainError("t and survival must be 1-d arrays of equal length")
    if t.size < 3:
        raise DomainError("need at least 3 points to fit a lifetime")
    if np.unique(t).size < 2:
        raise UnidentifiableModelError("all points share one time value")
    w, absolute = _weights(t.size, sigma)

    positive = y > 0.0
    if np.count_nonzero(positive) < 2:
        raise UnidentifiableModelError("too few positive survival values")
    slope, intercept = np.polyfit(t[positive], np.log(y[positive]), 1)
    if slope >= 0.0:
        raise UnidentifiableModelError("survival data does not decay")
    x0 = [math.exp(intercept), -slope]

    def fun(x):
        p0, k = x
        return w * (p0 * np.exp(-k * t) - y)

    def jac(x):
        p0, k = x
        damp = np.exp(-k * t)
        out = np.empty((t.size, 2))
        out[:, 0] = w * damp
        out[:, 1] = w * p0 * (-t) * damp
        return out

    res = _solve(fun, jac, x0)
    if not res.success:
        raise FitConvergenceError("lifetime fit did not converge")
    p0, k = res.x
    if k <= 0.0:
        raise UnidentifiableModelError("fitted survival rate is not positive")
    rss = float(2.0 * res.cost)
    cov_pk = _covariance(res.jac, rss, t.size, 2, absolute)
    scale = np.diag([1.0, -1.0 / (k * k)])
    cov = scale @ cov_pk @ scale
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        model="exponential",
        params={"amplitude": float(p0), "lifetime_s": float(1.0 / k)},
        uncertainties={"amplitude": float(err[0]), "lifetime_s": float(err[1])},
        rss=rss, converged=True, n_iter=int(res.nfev),
        covariance=cov, param_order=("amplitude", "lifetime_s"))


def fit_ramsey_decay(series, eta) -> FitResult:
    """Ramsey envelope 1/e time and the atom temperature it implies.

    Fits the two-channel decay, takes its 1/e time as T2*, and maps it
    to temperature via the thermometry relation with the supplied eta.
    Uncertainties propagate through the closed-form 1/e time gradient.
    """
    return _ramsey_from_decay(fit_coherence_decay(series), eta)


def _ramsey_from_decay(inner: FitResult, eta) -> FitResult:
    """fit_ramsey_decay on an existing fit_coherence_decay result."""
    params = DecayParams(inner.params["sigma_dls_rad_s"], inner.params["pjr_per_s"])
    t2star = t2_time(params)
    grad = np.array(t2_gradient(params))
    var = float(grad @ inner.covariance @ grad)
    t2_err = math.sqrt(max(var, 0.0))
    temperature = temperature_from_ramsey_t2star(t2star, eta)
    return FitResult(
        model="ramsey_decay",
        params={"t2star_s": float(t2star), "temperature_k": float(temperature)},
        uncertainties={"t2star_s": float(t2_err),
                       "temperature_k": float(temperature * t2_err / t2star)},
        rss=inner.rss, converged=inner.converged, n_iter=inner.n_iter)
