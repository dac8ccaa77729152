"""Least-squares parameter extraction for fringes and decay curves.

The fringe is linear in (b, (A/2) cos phi0, (A/2) sin phi0) and is solved
in one step; decay and lifetime fits run a numpy Levenberg-Marquardt with
analytic Jacobians, which stops only when the scaled gradient or the
relative step falls below 1e-12, never because the cost barely fell.
All report 1-sigma uncertainties from the Jacobian covariance at the
optimum and raise instead of returning partial results:
FitConvergenceError when no start converges within the evaluation cap,
UnidentifiableModelError when the data cannot constrain the model.

With per-point uncertainties the residuals are whitened and the
covariance is (J^T J)^-1 taken as absolute; with uniform weights it is
scaled by rss / (N - p).

The coherence decay is fitted in time scaled by its largest value, as
C = exp(-s**2 tau**2 / 2 - v**2 tau), so the fit is scale-free and both
channels stay nonnegative; the delta method maps s and v back. s = 0 and
v = 0 are stationary points, so every LM start stays off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coherence import (CoherenceSeries, DecayParams, t2_gradient, t2_time,
                        temperature_from_ramsey_t2star)
from .errors import DomainError, FitConvergenceError, TrapcohError, UnidentifiableModelError

MAX_EVALUATIONS = 2000
#: LM stops when the scaled gradient or the relative step falls below this
_LM_TOLERANCE = 1e-12


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
    scaled, for the coherence decay only, is (sigma_dls, R) as DecayParams and
    their covariance in tau = t / t_max units, and t_max.
    """

    model: str
    params: dict
    uncertainties: dict
    rss: float
    n_iter: int
    covariance: np.ndarray | None = field(default=None, repr=False)
    scaled: tuple | None = field(default=None, repr=False)
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


def _lm_run(fun, jac, x, f):
    """(x, residuals, Jacobian, evaluations) where one LM run from x, with
    residuals f, stops; None after MAX_EVALUATIONS evaluations. Marquardt
    (1963) with Nielsen's damping update: Madsen, Nielsen & Tingleff,
    "Methods for non-linear least squares problems" (2004), Alg. 3.16."""
    nfev, mu, nu, eye = 1, 0.0, 2.0, np.eye(x.size)
    while True:
        jx = jac(x)
        a, g, ff = jx.T @ jx, jx.T @ f, f @ f
        if (np.abs(g) <= _LM_TOLERANCE * np.sqrt(ff * a.diagonal())).all():
            return x, f, jx, nfev
        mu = mu or 1e-3 * a.diagonal().max()  # tau = 1e-3 on the first pass
        while True:  # raise the damping until a step lowers the cost
            if nfev == MAX_EVALUATIONS:
                return None
            try:
                h = np.linalg.solve(a + mu * eye, -g)
            except np.linalg.LinAlgError:  # singular: J^T J underflowed to zero
                return None
            if math.sqrt(h @ h) <= _LM_TOLERANCE * (math.sqrt(x @ x) + _LM_TOLERANCE):
                return x, f, jx, nfev
            x_new = x + h
            f_new = fun(x_new)
            nfev += 1
            rho = (ff - f_new @ f_new) / (h @ (mu * h - g))  # not > 0 if f_new is not finite
            if rho > 0.0:
                break
            mu, nu = mu * nu, 2.0 * nu
        x, f = x_new, f_new
        mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0


def _levenberg_marquardt(fun, jac, starts, absolute, failure):
    """(x, rss, covariance of x, evaluations) of the lowest-cost run
    that converges from `starts`; FitConvergenceError(failure) if none.
    A trial step that overflows gives inf residuals, which LM rejects;
    starts with non-finite residuals are skipped."""
    with np.errstate(over="ignore", invalid="ignore"):  # also under the CLI's "raise"
        starts = [(x0, fun(x0)) for x0 in map(np.asarray, starts)]
        starts = [(x0, f0) for x0, f0 in starts if np.all(np.isfinite(f0))]
        if not starts:
            raise TrapcohError("fit residuals are not finite at any start", kind="non_finite")
        runs = [_lm_run(fun, jac, x0, f0) for x0, f0 in starts]
    converged = [run for run in runs if run is not None]
    if not converged:
        raise FitConvergenceError(failure)
    x, f, jx, nfev = min(converged, key=lambda run: run[1] @ run[1])  # the first of equal costs
    rss = float(f @ f)
    return x, rss, _covariance(jx, rss, f.size, x.size, absolute), nfev


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


def _scaled_starts(tau, y, w):
    """LM starts (s, v) in scaled time, with s**2 / 2 and v**2 floored at 0.1.

    (a) The weighted NNLS fit of log C = -(s**2 / 2) tau**2 - v**2 tau to the
    points with C > 0.05, weights C / sigma_i (delta method): the best
    nonnegative solution over the active sets. (b) The 1/e time at the first
    crossing of C = 1/e, shared by both channels, and (c) from R alone.
    """
    keep = y > 0.05
    wy = (w * y)[keep] / np.max(w * y, where=keep, initial=0.0)  # at most 1: no overflow
    design = np.column_stack([tau[keep] ** 2, tau[keep]]) * wy[:, None]
    rhs = -np.log(y[keep]) * wy
    best, coef = math.inf, np.zeros(2)
    for cols in ([0, 1], [0], [1]):
        p = np.zeros(2)
        p[cols] = np.linalg.lstsq(design[:, cols], rhs, rcond=None)[0]
        cost = np.sum((design @ p - rhs) ** 2)
        if p.min() >= 0.0 and cost < best:
            best, coef = cost, p
    gauss, rate = np.maximum(coef, 0.1)

    ts, ys = np.stack([tau, y])[:, np.argsort(tau)]
    k = int(np.argmax(ys < math.exp(-1.0)))  # the first point below 1/e, or 0
    if k:
        te = ts[k - 1] + (math.exp(-1.0) - ys[k - 1]) / (ys[k] - ys[k - 1]) * (ts[k] - ts[k - 1])
    else:  # C starts below 1/e, or never falls below it
        te = (ts[0] or 1.0) if ys[0] < math.exp(-1.0) else 1.5
    te = max(te, 1e-3)
    return [(math.sqrt(2.0 * gauss), math.sqrt(rate)), (1.0 / te, math.sqrt(0.5 / te)),
            (math.sqrt(0.2), math.sqrt(1.0 / te))]


def fit_coherence_decay(series, c=None, sigma=None) -> FitResult:
    """Extract (sigma_dls, R) from a coherence decay.

    Accepts a CoherenceSeries, or arrays fit_coherence_decay(t, c, sigma).
    Weighted LM on C = exp(-s**2 tau**2 / 2 - v**2 tau) in the scaled time
    tau = t / t_max, so that the fit is the same at every time scale and
    sigma_dls = |s| / t_max and R = v**2 / t_max are nonnegative; best by
    residual of three starts (_scaled_starts).
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
    t_max = float(t.max())
    tau = t / t_max
    tt = tau * tau

    def fun(x):
        s, v = x
        return w * (np.exp(-0.5 * s * s * tt - v * v * tau) - y)

    def jac(x):
        s, v = x
        wm = w * np.exp(-0.5 * s * s * tt - v * v * tau)
        return np.column_stack([wm * (-s * tt), wm * (-2.0 * v * tau)])

    (s, v), rss, cov_sv, nfev = _levenberg_marquardt(
        fun, jac, _scaled_starts(tau, y, w), absolute,
        "coherence fit did not converge from any start")
    tau_scale = np.array([math.copysign(1.0, s), 2.0 * v])  # d(sigma t_max, R t_max) / d(s, v)
    scale = tau_scale / t_max  # d(sigma, R) / d(s, v)
    err = np.abs(scale) * np.sqrt(np.maximum(np.diag(cov_sv), 0.0))
    with np.errstate(over="ignore"):  # at a tiny t_max the variances exceed the float range
        cov = scale[:, None] * cov_sv * scale
    params = {"sigma_dls_rad_s": float(abs(s) / t_max), "pjr_per_s": float(v * v / t_max)}
    return FitResult("coherence_decay", params, dict(zip(params, err.tolist())), rss, nfev, cov,
                     (DecayParams(abs(s), v * v), tau_scale[:, None] * cov_sv * tau_scale, t_max))


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
        return np.column_stack([w * damp, w * p0 * (-t) * damp])

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
    """fit_ramsey_decay on an existing fit_coherence_decay result. The T2*
    variance is propagated in tau = t / t_max units (inner.scaled), where
    neither t2**2 nor the covariance leaves the float range at any time
    scale, and scaled by t_max once at the end."""
    params = DecayParams(inner.params["sigma_dls_rad_s"], inner.params["pjr_per_s"])
    t2star = t2_time(params)
    tau_params, tau_cov, t_max = inner.scaled
    grad = np.array(t2_gradient(tau_params))
    t2_err = math.sqrt(max(float(grad @ tau_cov @ grad), 0.0)) * t_max
    temperature = temperature_from_ramsey_t2star(t2star, eta)
    return FitResult(
        model="ramsey_decay",
        params={"t2star_s": float(t2star), "temperature_k": float(temperature)},
        uncertainties={"t2star_s": float(t2_err),
                       "temperature_k": float(temperature * t2_err / t2star)},
        rss=inner.rss, n_iter=inner.n_iter)
