"""Least-squares parameter extraction for fringes and decay curves.

The fringe is linear in (b, (A/2) cos phi0, (A/2) sin phi0) and is solved
in one step; decay and lifetime fits run Levenberg-Marquardt (its damped
step in closed form on floats) with analytic Jacobians that reuse the
exponential of the last residual evaluation. Where the cost can no longer
rank the steps, its rounding floor, LM hands over to undamped Gauss-Newton
steps that must keep shrinking, so a fit lands on the stationary point to
about 1e-12 and stops when the scaled gradient or relative step is below
1e-12. All report 1-sigma uncertainties from the Jacobian covariance at the
optimum and raise instead of returning partial results:
FitConvergenceError when no start converges within the evaluation cap,
UnidentifiableModelError when the data cannot constrain the model, which
includes a J^T J at the optimum that is singular to working precision.

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
import sys
from dataclasses import dataclass, field

import numpy as np

from .coherence import (CoherenceSeries, DecayParams, t2_gradient, t2_time,
                        temperature_from_ramsey_t2star)
from .errors import DomainError, FitConvergenceError, TrapcohError, UnidentifiableModelError

MAX_EVALUATIONS = 2000
#: LM stops when the scaled gradient or the relative step falls below this
_LM_TOLERANCE = 1e-12
#: the rounding of f.f, relative: LM's end game starts where no step can gain more
_FLOOR = 16.0 * sys.float_info.epsilon
#: a Gauss-Newton step of the end game must be at most this times the last one:
#: Deuflhard's natural monotonicity test for a full step, 1 - lambda / 4 at lambda = 1
_CONTRACTION = 0.75


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
            "n_iter": self.n_iter,
            "converged": self.converged,
        }


def fringe(phase, amplitude, phase_rad, baseline):
    """Fringe p(phi) = baseline + (amplitude/2) cos(phi - phase_rad)."""
    return baseline + 0.5 * amplitude * np.cos(phase - phase_rad)


def exponential(t_s, amplitude, lifetime_s):
    """Survival p(t) = amplitude exp(-t / lifetime_s)."""
    return amplitude * np.exp(-t_s / lifetime_s)


def _covariance(jac, rss, n_points, n_params, absolute):
    """(J^T J)^-1, scaled by rss / (N - p) unless absolute. UnidentifiableModelError
    where J^T J is singular to working precision: a diagonal entry of its inverse
    is not positive and finite, or some column of J lies within rounding of the
    span of the others, (J^T J)_ii ((J^T J)^-1)_ii = 1 / (1 - R_i^2) >= 1 / eps."""
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.full((n_params, n_params), np.nan)
    # on floats, whose product overflows to inf without raising under np.errstate
    if not all(0.0 < c * a < 1.0 / sys.float_info.epsilon
               for c, a in zip(np.diag(cov).tolist(), np.diag(jtj).tolist())):
        raise UnidentifiableModelError(
            "the fit's J^T J is singular: the data cannot constrain every parameter")
    if not absolute:
        cov = cov * (rss / max(n_points - n_params, 1))
    return cov


def _weights(n_points, sigma):
    if sigma is None:
        return np.ones(n_points), False
    w = np.asarray(sigma, dtype=float)
    if w.shape != (n_points,):
        raise DomainError("sigma must match the number of data points")
    if not np.all((w > 0.0) & (w < math.inf)):
        raise DomainError("sigma values must be positive and finite")
    return 1.0 / w, True


def _damped_step(a, g, mu):
    """h with (a + mu I) h = -g, for a = J^T J and g = J^T f of one or two
    parameters as float lists: LU with partial pivoting, a 1x1 system padded
    with the identity row h_2 = 0. ZeroDivisionError at a zero pivot."""
    (p, q), (r, s) = ([a[0][0] + mu, 0.0], [0.0, 1.0]) if len(g) == 1 else (
        [a[0][0] + mu, a[0][1]], [a[1][0], a[1][1] + mu])
    g0, g1 = (g + [0.0])[:2]
    if abs(r) > abs(p):  # the larger first-column entry is the pivot
        p, q, r, s, g0, g1 = r, s, p, q, g1, g0
    l = r / p
    h1 = (l * g0 - g1) / (s - l * q)
    return [(-g0 - q * h1) / p, h1][:len(g)]


def _lm_run(fun, jac, x, f):
    """(x, residuals, Jacobian, evaluations) where one LM run from the float list
    x, with residuals f, stops; None after MAX_EVALUATIONS evaluations or at a
    singular step. Marquardt (1963) with Nielsen's damping update: Madsen,
    Nielsen & Tingleff, "Methods for non-linear least squares problems" (2004),
    Alg. 3.16. Past the numpy products J^T J, J^T f and f.f it runs on floats.

    The end game at the rounding floor: once a trial is rejected and even the
    Gauss-Newton step h promises a gain -h.g below the rounding of f.f
    (_FLOOR f.f), f.f can no longer rank the steps, and raising the damping
    would only shrink the step to the relative-step stop at a point that
    rounding chose. From there the run takes undamped Gauss-Newton steps, each
    only while it is at most _CONTRACTION times the last (Deuflhard's natural
    monotonicity test, "Newton Methods for Nonlinear Problems", 2004) and f.f
    does not rise beyond the rounding of the two costs. It ends at the
    relative-step stop, or where a step fails either test."""
    nfev, mu, nu, ff = 1, 0.0, 2.0, float(f @ f)
    last = None  # at the floor: the length of the last Gauss-Newton step
    while True:
        jx = jac(x)
        a, g = (jx.T @ jx).tolist(), (jx.T @ f).tolist()
        diag = [row[i] for i, row in enumerate(a)]
        if all(abs(gi) <= _LM_TOLERANCE * math.sqrt(ff * di) for gi, di in zip(g, diag)):
            return x, f, jx, nfev
        if last is None:
            mu = mu or 1e-3 * max(diag)  # tau = 1e-3 on the first pass
        step_stop = _LM_TOLERANCE * (math.hypot(*x) + _LM_TOLERANCE)
        while True:  # raise the damping until a step lowers the cost
            if nfev == MAX_EVALUATIONS or not mu < math.inf:  # mu = inf: h = 0, no step
                return None
            try:
                h = _damped_step(a, g, mu)
            except ZeroDivisionError:  # singular: J^T J underflowed to zero
                return None
            norm = math.hypot(*h)
            if norm <= step_stop or last is not None and not norm <= _CONTRACTION * last:
                return x, f, jx, nfev
            x_new = [xi + hi for xi, hi in zip(x, h)]
            f_new = fun(x_new)
            nfev += 1
            ff_new = float(f_new @ f_new)
            if last is not None:
                # f.f rose beyond the rounding of the two costs, or is NaN
                if not ff_new - ff <= 2.0 * _FLOOR * ff:
                    return x, f, jx, nfev
                last = norm
                break
            # not > 0 if f_new is not finite; a division by 0 is IEEE's (0 / 0 is NaN)
            gain, predicted = ff - ff_new, sum(hi * (mu * hi - gi) for hi, gi in zip(h, g))
            rho = gain / predicted if predicted else gain * math.copysign(math.inf, predicted)
            if rho > 0.0:
                break
            try:  # strictly below: a cost of 0 has nothing left to round
                floor = -sum(hi * gi for hi, gi in zip(_damped_step(a, g, 0.0), g)) < _FLOOR * ff
            except ZeroDivisionError:
                floor = False
            mu, nu, last = (0.0, nu, math.inf) if floor else (mu * nu, 2.0 * nu, None)
        x, f, ff = x_new, f_new, ff_new
        if last is None:
            # 1/3 for every rho >= 1, where (2 rho - 1)**3 could overflow
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3), 2.0


def _levenberg_marquardt(fun, jac, starts, absolute, failure):
    """(x, rss, covariance of x, evaluations) of the lowest-cost run
    that converges from `starts`; FitConvergenceError(failure) if none.
    A trial step that overflows gives inf residuals, which LM rejects;
    starts with non-finite residuals are skipped. Each run starts right
    after its start's evaluation, so fun's last point is the run's first."""
    runs = []
    with np.errstate(over="ignore", invalid="ignore"):  # also under the CLI's "raise"
        for x0 in starts:
            x0 = [float(xi) for xi in x0]
            f0 = fun(x0)
            if np.all(np.isfinite(f0)):
                runs.append(_lm_run(fun, jac, x0, f0))
    if not runs:
        raise TrapcohError("fit residuals are not finite at any start", kind="non_finite")
    converged = [run for run in runs if run is not None]
    if not converged:
        raise FitConvergenceError(failure)
    x, f, jx, nfev = min(converged, key=lambda run: run[1] @ run[1])  # the first of equal costs
    rss = float(f @ f)
    return np.array(x), rss, _covariance(jx, rss, f.size, len(x), absolute), nfev


def _result(model, params, cov, rss, n_iter):
    """FitResult with 1-sigma uncertainties from the diagonal of `cov`,
    whose rows follow the order of `params`."""
    err = np.sqrt(np.diag(cov))
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
    amp = min(amp, 1.0 + 3.0 * math.sqrt(cov[0, 0]))
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
    u = tau[keep] * wy
    rows = np.array([tau[keep] * u, u, -np.log(y[keep]) * wy])  # the design's columns, the rhs
    (a00, a01, b0), (_, a11, b1), _ = (rows @ rows.T).tolist()
    # NNLS from the normal equations: both columns when that solution is nonnegative
    # (no subset fits better), else the one column that lowers the cost more, by
    # b**2 / a (the first of equal), whose solution b / a is nonnegative
    det = a00 * a11 - a01 * a01
    pair = [(a11 * b0 - a01 * b1) / det, (a00 * b1 - a01 * b0) / det] if det > 0.0 else [-1.0]
    if min(pair) >= 0.0:
        coef = pair
    else:
        singles = [(0.0, [0.0, 0.0])]
        if b0 >= 0.0 and a00 > 0.0:
            singles.append((b0 * b0 / a00, [b0 / a00, 0.0]))
        if b1 >= 0.0 and a11 > 0.0:
            singles.append((b1 * b1 / a11, [0.0, b1 / a11]))
        coef = max(singles, key=lambda single: single[0])[1]
    gauss, rate = max(coef[0], 0.1), max(coef[1], 0.1)

    order = np.argsort(tau)
    ts, ys = tau[order].tolist(), y[order]
    k = int(np.argmax(ys < math.exp(-1.0)))  # the first point below 1/e, or 0
    ys = ys.tolist()
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
        # an all-zero sigma (analytic_series) fits unweighted; any positive
        # cell makes the column the weights, each of which _weights checks
        if sigma is None and np.any(series.sigma > 0.0):
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
    t_max = float(t.max())
    if t.min() == t_max:
        raise UnidentifiableModelError("all points share one time value")
    if y.min() > _DEGENERATE_HIGH:
        raise UnidentifiableModelError(
            "series has not decayed, channels are unconstrained")
    if y.max() < _DEGENERATE_LOW:
        raise UnidentifiableModelError(
            "series is fully decayed, channels are unconstrained")
    w, absolute = _weights(t.size, sigma)
    tau = t / t_max
    tt = tau * tau

    wy = w * y
    basis = np.column_stack([-tt, -2.0 * tau])  # J = w C basis diag(s, v)
    last = [None, None]  # fun's last point and its w C, which jac reuses

    def fun(x):
        s, v = x
        last[:] = (s, v), w * np.exp(-0.5 * s * s * tt - v * v * tau)
        return last[1] - wy

    def jac(x):
        s, v = x
        wm = last[1] if last[0] == (s, v) else w * np.exp(-0.5 * s * s * tt - v * v * tau)
        return wm[:, None] * basis * (s, v)

    (s, v), rss, cov_sv, nfev = _levenberg_marquardt(
        fun, jac, _scaled_starts(tau, y, w), absolute,
        "coherence fit did not converge from any start")
    tau_scale = np.array([math.copysign(1.0, s), 2.0 * v])  # d(sigma t_max, R t_max) / d(s, v)
    scale = tau_scale / t_max  # d(sigma, R) / d(s, v)
    err = np.abs(scale) * np.sqrt(np.diag(cov_sv))
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
    if t.min() == t.max():
        raise UnidentifiableModelError("all points share one time value")
    w, absolute = _weights(t.size, sigma)

    positive = y > 0.0
    if np.count_nonzero(positive) < 2:
        raise UnidentifiableModelError("too few positive survival values")
    # the start: log y = log p0 - k t by unweighted least squares, in t / max |t|
    t_scale = float(np.max(np.abs(t)))
    tp, log_y = t[positive] / t_scale, np.log(y[positive])
    t_mean, log_mean = float(tp.mean()), float(log_y.mean())
    tc = tp - t_mean
    den = float(tc @ tc)
    slope = float(tc @ (log_y - log_mean)) / den if den > 0.0 else 0.0
    if slope >= 0.0:
        raise UnidentifiableModelError("survival data does not decay")
    x0 = [math.exp(log_mean - slope * t_mean), -slope / t_scale]
    wy = w * y
    basis = np.column_stack([np.ones_like(t), -t])  # J = w e^(-k t) basis diag(1, p0)
    last = [None, None]  # fun's last point and its w e^(-k t), which jac reuses

    def fun(x):
        p0, k = x
        last[:] = (p0, k), w * np.exp(-k * t)
        return p0 * last[1] - wy

    def jac(x):
        p0, k = x
        wd = last[1] if last[0] == (p0, k) else w * np.exp(-k * t)
        return wd[:, None] * basis * (1.0, p0)

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
