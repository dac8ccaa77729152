"""Least-squares parameter extraction for fringes and decay curves.

The fringe is linear in (b, (A/2) cos phi0, (A/2) sin phi0) and is solved
in one step; decay and lifetime fits run Levenberg-Marquardt with analytic
Jacobians. All report 1-sigma uncertainties from the Jacobian covariance
at the optimum and raise instead of returning partial results:
FitConvergenceError when no start converges within the evaluation cap,
UnidentifiableModelError when the data cannot constrain the model.

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
from .errors import DomainError, FitConvergenceError, TrapcohError, UnidentifiableModelError

MAX_EVALUATIONS = 2000

#: residual floor below which a coherence series counts as saturated
_DEGENERATE_HIGH = 0.9
_DEGENERATE_LOW = 0.1


@dataclass(frozen=True)
class FitResult:
    """Converged fit: estimates, 1-sigma uncertainties, goodness of fit.

    rss is the sum of squared residuals in the metric the optimizer
    minimized (whitened when per-point uncertainties were supplied).
    covariance (rows and columns in params order) serves error propagation
    and is not in the JSON form; n_iter counts solver evaluations (0 for fringes).
    """

    model: str
    params: dict
    uncertainties: dict
    rss: float
    n_iter: int
    covariance: np.ndarray | None = field(default=None, repr=False)
    converged = True  # a fit that does not converge raises instead

    def to_json_obj(self):
        return {
            "model": self.model,
            "params": dict(self.params),
            "uncertainties": dict(self.uncertainties),
            "rss": self.rss,
            "converged": self.converged,
        }


def fringe(phase, amplitude, phase_rad, baseline):
    """Fringe p(phi) = baseline + (amplitude/2) cos(phi - phase_rad)."""
    return baseline + 0.5 * amplitude * np.cos(phase - phase_rad)


def exponential(t_s, amplitude, lifetime_s):
    """Survival p(t) = amplitude exp(-t / lifetime_s)."""
    return amplitude * np.exp(-t_s / lifetime_s)


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


def _levenberg_marquardt(fun, jac, starts, absolute, failure):
    """(x, rss, covariance of x, evaluations) of the lowest-cost run
    that converges from `starts`; FitConvergenceError(failure) if none.
    A trial step that overflows gives inf residuals, which LM rejects;
    starts with non-finite residuals are skipped."""
    with np.errstate(over="ignore", invalid="ignore"):  # also under the CLI's "raise"
        starts = [x0 for x0 in map(np.asarray, starts) if np.all(np.isfinite(fun(x0)))]
        if not starts:
            raise TrapcohError("fit residuals are not finite at any start", kind="non_finite")
        runs = [least_squares(fun, x0, jac=jac, method="lm", xtol=1e-12, ftol=1e-12,
                              gtol=1e-12, max_nfev=MAX_EVALUATIONS) for x0 in starts]
    converged = [res for res in runs if res.success]
    if not converged:
        raise FitConvergenceError(failure)
    best = min(converged, key=lambda res: res.cost)  # the first of equal costs
    rss = float(2.0 * best.cost)
    cov = _covariance(best.jac, rss, best.fun.size, best.x.size, absolute)
    return best.x, rss, cov, int(best.nfev)


def _result(model, params, cov, rss, n_iter):
    """FitResult with 1-sigma uncertainties from the diagonal of `cov`,
    whose rows follow the order of `params`."""
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(model, {name: float(value) for name, value in params.items()},
                     dict(zip(params, err.tolist())), rss, n_iter, cov)


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
    base, c1, c2 = coef
    amp, phi0 = 2.0 * math.hypot(c1, c2), math.atan2(c2, c1)

    resid = w * (fringe(phi, amp, phi0, base) - y)
    rss = float(np.dot(resid, resid))
    jac = np.column_stack([w * 0.5 * np.cos(phi - phi0),
                           w * 0.5 * amp * np.sin(phi - phi0), w])
    cov = _covariance(jac, rss, phi.size, 3, absolute)

    phi0 = (phi0 + math.pi) % (2.0 * math.pi) - math.pi
    amp = min(amp, 1.0 + 3.0 * math.sqrt(max(cov[0, 0], 0.0)))
    return _result("fringe", {"amplitude": amp, "phase_rad": phi0, "baseline": base},
                   cov, rss, 0)


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

    starts = [(math.sqrt(s0), math.sqrt(r0)) for s0, r0 in _decay_starts(t, y)]
    (u, v), rss, cov_uv, nfev = _levenberg_marquardt(
        fun, jac, starts, absolute, "coherence fit did not converge from any start")
    scale = np.diag([2.0 * abs(u), 2.0 * abs(v)])
    return _result("coherence_decay", {"sigma_dls_rad_s": u * u, "pjr_per_s": v * v},
                   scale @ cov_uv @ scale, rss, nfev)


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

    (p0, k), rss, cov_pk, nfev = _levenberg_marquardt(
        fun, jac, [x0], absolute, "lifetime fit did not converge")
    if k <= 0.0:
        raise UnidentifiableModelError("fitted survival rate is not positive")
    scale = np.diag([1.0, -1.0 / (k * k)])
    return _result("exponential", {"amplitude": p0, "lifetime_s": 1.0 / k},
                   scale @ cov_pk @ scale, rss, nfev)


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
        rss=inner.rss, n_iter=inner.n_iter)
