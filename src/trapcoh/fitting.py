"""Least-squares parameter extraction for fringes and decay curves.

The fringe is linear in (b, (A/2) cos phi0, (A/2) sin phi0) and is solved
in one step; decay and lifetime fits run a two-parameter Levenberg-Marquardt
on floats, whose J^T J and J^T f come from rows precomputed from the model's
basis (J = diag(m) B^T diag(d)), with no Jacobian built. Where the cost can
no longer rank the steps, its rounding floor, LM hands over to undamped
Gauss-Newton steps that must keep shrinking, so a fit lands on the
stationary point to about 1e-12 and stops when the scaled gradient or
relative step is below 1e-12. All report 1-sigma uncertainties from
(J^T J)^-1 at the optimum and raise instead of returning partial results:
FitConvergenceError when no start converges within the evaluation cap,
UnidentifiableModelError when the data cannot constrain the model, which
includes a J^T J at the optimum that is singular to working precision.

With per-point uncertainties the residuals are whitened, by 1 / sigma times
the power of two that takes the largest below 1, undone exactly in the rss
and the uncertainties, and the covariance is (J^T J)^-1 taken as absolute;
with uniform weights it is scaled by rss / (N - p).

Both LM fits run in time scaled by its largest magnitude, so they are
scale-free: the coherence decay as C = exp(-s**2 tau**2 / 2 - v**2 tau),
where both channels stay nonnegative, and the lifetime as
p0 exp(-kappa tau); the delta method maps the parameters back. s = 0 and
v = 0 are stationary points, so every LM start stays off them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .coherence import (CoherenceSeries, DecayParams, coherence, t2_gradient, t2_time,
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
    covariance (rows and columns in params order) serves error propagation;
    fitted is the model at the data points, in their order. Neither is in
    the JSON form. n_iter counts solver evaluations (0 for fringes). An rss
    or an uncertainty that is not finite raises TrapcohError (non_finite),
    as the CLI refuses it, whatever numpy's error state.
    """

    model: str
    params: dict
    uncertainties: dict
    rss: float
    n_iter: int
    covariance: np.ndarray | None = field(default=None, repr=False)
    fitted: np.ndarray | None = field(default=None, repr=False)
    converged = True  # a fit that does not converge raises instead

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rss, *self.uncertainties.values()))):
            raise TrapcohError(f"{self.model} fit: the rss or an uncertainty is not finite",
                               kind="non_finite")

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


def _covariance(jtj, rss, n_points, absolute):
    """(J^T J)^-1, scaled by rss / (N - p) unless absolute. UnidentifiableModelError
    where J^T J is singular to working precision: a diagonal entry of its inverse
    is not positive and finite, or some column of J lies within rounding of the
    span of the others, (J^T J)_ii ((J^T J)^-1)_ii = 1 / (1 - R_i^2) >= 1 / eps.
    Callers run it under np.errstate(over="ignore", invalid="ignore"), so that a
    J^T J that overflows is inf, and singular, whatever the caller's error state."""
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.full(jtj.shape, np.nan)
    # on floats, whose product overflows to inf without raising under np.errstate
    if not all(0.0 < c * a < 1.0 / sys.float_info.epsilon
               for c, a in zip(np.diag(cov).tolist(), np.diag(jtj).tolist())):
        raise UnidentifiableModelError(
            "the fit's J^T J is singular: the data cannot constrain every parameter")
    if not absolute:
        cov = cov * (rss / max(n_points - len(jtj), 1))
    return cov


def _weights(n_points, sigma):
    """(w, e, absolute): the weights 1 / sigma times 2**-e, e the exponent that
    takes the largest into [0.5, 1), exactly; w = 1 and e = 0 without sigma."""
    if sigma is None:
        return np.ones(n_points), 0, False
    w = np.asarray(sigma, dtype=float)
    if w.shape != (n_points,):
        raise DomainError("sigma must match the number of data points")
    if not np.all((w > 0.0) & (w < math.inf)):
        raise DomainError("sigma values must be positive and finite")
    e = int(np.frexp(1.0 / w.min())[1])
    return np.ldexp(1.0 / w, -e), e, True


def _damped_step(a00, a01, a11, g0, g1, mu):
    """h with (a + mu I) h = -g, for the symmetric a = J^T J and g = J^T f of
    two parameters: LU with partial pivoting on floats. ZeroDivisionError at
    a zero pivot."""
    p, q, r, s = a00 + mu, a01, a01, a11 + mu
    if abs(r) > abs(p):  # the larger first-column entry is the pivot
        p, q, r, s, g0, g1 = r, s, p, q, g1, g0
    l = r / p
    h1 = (l * g0 - g1) / (s - l * q)
    return (-g0 - q * h1) / p, h1


def _lm_run(residuals, normal, x0, x1, point):
    """(x0, x1, f.f, (J^T J)_00, _01, _11, evaluations) where one LM run from
    (x0, x1), with point = residuals(x0, x1), stops; None after
    MAX_EVALUATIONS evaluations or at a singular step. Marquardt (1963) with
    Nielsen's damping update: Madsen, Nielsen & Tingleff, "Methods for non-linear
    least squares problems" (2004), Alg. 3.16, on floats: normal(*point) is the
    a00, a01, a11 of J^T J and the g0, g1 of J^T f.

    The end game at the rounding floor: once a trial is rejected and even the
    Gauss-Newton step h promises a gain -h.g below the rounding of f.f
    (_FLOOR f.f), f.f can no longer rank the steps, and raising the damping
    would only shrink the step to the relative-step stop at a point that
    rounding chose. From there the run takes undamped Gauss-Newton steps, each
    only while it is at most _CONTRACTION times the last (Deuflhard's natural
    monotonicity test, "Newton Methods for Nonlinear Problems", 2004) and f.f
    does not rise beyond the rounding of the two costs. It ends at the
    relative-step stop, or where a step fails either test."""
    nfev, mu, nu, ff = 1, 0.0, 2.0, float(point[1] @ point[1])
    last = None  # at the floor: the length of the last Gauss-Newton step
    while True:
        a00, a01, a11, g0, g1 = normal(*point)
        if (abs(g0) <= _LM_TOLERANCE * math.sqrt(ff * a00)
                and abs(g1) <= _LM_TOLERANCE * math.sqrt(ff * a11)):
            return x0, x1, ff, a00, a01, a11, nfev
        if last is None:
            mu = mu or 1e-3 * max(a00, a11)  # tau = 1e-3 on the first pass
        step_stop = _LM_TOLERANCE * (math.hypot(x0, x1) + _LM_TOLERANCE)
        while True:  # raise the damping until a step lowers the cost
            if nfev == MAX_EVALUATIONS or not mu < math.inf:  # mu = inf: h = 0, no step
                return None
            try:
                h0, h1 = _damped_step(a00, a01, a11, g0, g1, mu)
            except ZeroDivisionError:  # singular: J^T J underflowed to zero
                return None
            norm = math.hypot(h0, h1)
            if norm <= step_stop or last is not None and not norm <= _CONTRACTION * last:
                return x0, x1, ff, a00, a01, a11, nfev
            trial = residuals(x0 + h0, x1 + h1)
            nfev += 1
            ff_new = float(trial[1] @ trial[1])
            if last is not None:
                # f.f rose beyond the rounding of the two costs, or is NaN
                if not ff_new - ff <= 2.0 * _FLOOR * ff:
                    return x0, x1, ff, a00, a01, a11, nfev
                last = norm
                break
            # not > 0 if the trial is not finite; a division by 0 is IEEE's (0 / 0 is NaN)
            gain, predicted = ff - ff_new, h0 * (mu * h0 - g0) + h1 * (mu * h1 - g1)
            rho = gain / predicted if predicted else gain * math.inf
            if rho > 0.0:
                break
            try:  # strictly below: a cost of 0 has nothing left to round
                s0, s1 = _damped_step(a00, a01, a11, g0, g1, 0.0)
                floor = -(s0 * g0 + s1 * g1) < _FLOOR * ff
            except ZeroDivisionError:
                floor = False
            mu, nu, last = (0.0, nu, math.inf) if floor else (mu * nu, 2.0 * nu, None)
        x0, x1, point, ff = x0 + h0, x1 + h1, trial, ff_new
        if last is None:
            # 1/3 for every rho >= 1, where (2 rho - 1)**3 could overflow
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3), 2.0


def _levenberg_marquardt(residuals, basis, starts, absolute, failure):
    """(x, rss, covariance of x, evaluations) of the lowest-cost run that
    converges from `starts`, where a later run beats an earlier one only by a
    cost lower beyond the rounding of the two (2 _FLOOR f.f), so a tie in the
    last bits goes to the earlier start at every weight scale;
    FitConvergenceError(failure) if none converges. residuals(x0, x1) is
    (m, f, d0, d1), f the residuals with Jacobian diag(m) basis^T diag(d0, d1).
    A trial step that overflows gives an inf f.f, which LM rejects; starts
    with non-finite residuals are skipped. The ranking, the rss and the
    covariance run under the same error state as LM, so a J^T J that overflows
    is inf, in the library and under the CLI's "raise" alike."""
    products = np.array([basis[0] * basis[0], basis[0] * basis[1], basis[1] * basis[1]])

    def normal(m, f, d0, d1):  # J^T J and J^T f
        (c00, c01, c11), (b0, b1) = (products @ (m * m)).tolist(), (basis @ (m * f)).tolist()
        return d0 * d0 * c00, d0 * d1 * c01, d1 * d1 * c11, d0 * b0, d1 * b1

    runs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x0, x1 in starts:
            point = residuals(float(x0), float(x1))
            if np.all(np.isfinite(point[1])):
                runs.append(_lm_run(residuals, normal, float(x0), float(x1), point))
        if not runs:
            raise TrapcohError("fit residuals are not finite at any start", kind="non_finite")
        converged = [run for run in runs if run is not None]
        if not converged:
            raise FitConvergenceError(failure)
        best = converged[0]
        for run in converged[1:]:
            if best[2] - run[2] > 2.0 * _FLOOR * best[2]:
                best = run
        x0, x1, rss, a00, a01, a11, nfev = best
        cov = _covariance(np.array([[a00, a01], [a01, a11]]), rss, basis.shape[1], absolute)
        return np.array([x0, x1]), rss, cov, nfev


def _result(model, params, cov_x, rss, n_iter, fitted, scale, e):
    """FitResult from the rss and covariance `cov_x` of the solver's x for the weights
    2**-e / sigma (rows in `params` order; scale[i] = d params[i] / d x_i): uncertainties
    2**-e |scale| sqrt(diag(cov_x)), taken before any square, so they stay finite at time
    and weight scales where the covariance of params does not, and rss 2**(2 e) rss."""
    scale = np.asarray(scale)
    # at a tiny time scale the variances exceed the float range; an uncertainty
    # or rss that does too is inf, which FitResult refuses
    with np.errstate(over="ignore"):
        err = np.ldexp(np.abs(scale) * np.sqrt(np.diag(cov_x)), -e)
        cov = np.ldexp(scale[:, None] * cov_x * scale, -2 * e)
        rss = float(np.ldexp(rss, 2 * e))
    return FitResult(model, {name: float(value) for name, value in params.items()},
                     dict(zip(params, err.tolist())), rss, n_iter, cov, fitted)


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
    w, e, absolute = _weights(phi.size, sigma)

    design = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    coef, *_ = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)
    base, c1, c2 = coef
    amp, phi0 = 2.0 * math.hypot(c1, c2), math.atan2(c2, c1)

    # an overflow gives inf, which _covariance or FitResult refuses under any error state
    with np.errstate(over="ignore", invalid="ignore"):
        resid = w * (fringe(phi, amp, phi0, base) - y)
        rss = float(np.dot(resid, resid))
        jac = np.column_stack([w * 0.5 * np.cos(phi - phi0),
                               w * 0.5 * amp * np.sin(phi - phi0), w])
        cov = _covariance(jac.T @ jac, rss, phi.size, absolute)
        amp = min(amp, 1.0 + 3.0 * float(np.ldexp(math.sqrt(cov[0, 0]), -e)))

    phi0 = (phi0 + math.pi) % (2.0 * math.pi) - math.pi
    return _result("fringe", {"amplitude": amp, "phase_rad": phi0, "baseline": base},
                   cov, rss, 0, fringe(phi, amp, phi0, base), (1.0, 1.0, 1.0), e)


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


def _series_sigma(series):
    """The weights of a CoherenceSeries: an all-zero sigma (analytic_series) fits
    unweighted; any positive cell makes the column the weights, each of which
    _weights checks."""
    return series.sigma if np.any(series.sigma > 0.0) else None


def _decay_fit(t, y, sigma):
    """((s, v), covariance, rss, evaluations, e) of fit_coherence_decay's LM fit,
    the covariance and rss for the weights 2**-e / sigma (see _result)."""
    if t.size < 4:
        raise DomainError("need at least 4 points to fit the decay")
    t_max = float(t.max())
    if t.min() == t_max:
        raise UnidentifiableModelError("all points share one time value")
    if y.min() > _DEGENERATE_HIGH:
        raise UnidentifiableModelError("series has not decayed, channels are unconstrained")
    if y.max() < _DEGENERATE_LOW:
        raise UnidentifiableModelError("series is fully decayed, channels are unconstrained")
    w, e, absolute = _weights(t.size, sigma)
    tau = t / t_max
    tt = tau * tau
    wy = w * y

    def residuals(s, v):  # J = diag(w C) [-tau**2, -2 tau] diag(s, v)
        m = w * np.exp(-0.5 * s * s * tt - v * v * tau)
        return m, m - wy, s, v

    x, rss, cov_sv, nfev = _levenberg_marquardt(
        residuals, np.array([-tt, -2.0 * tau]), _scaled_starts(tau, y, w), absolute,
        "coherence fit did not converge from any start")
    return x, cov_sv, rss, nfev, e


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
        sigma = _series_sigma(series) if sigma is None else sigma
    else:
        t = np.asarray(series, dtype=float)
        y = np.asarray(c, dtype=float)
        if t.shape != y.shape or t.ndim != 1:
            raise DomainError("t and c must be 1-d arrays of equal length")
        if np.any(t < 0.0):
            raise DomainError("time values must be nonnegative")
    (s, v), cov_sv, rss, nfev, e = _decay_fit(t, y, sigma)
    t_max = float(t.max())
    params = {"sigma_dls_rad_s": float(abs(s) / t_max), "pjr_per_s": float(v * v / t_max)}
    return _result("coherence_decay", params, cov_sv, rss, nfev,
                   coherence(DecayParams(*params.values()), t),
                   np.array([math.copysign(1.0, s), 2.0 * v]) / t_max, e)  # d(sigma, R) / d(s, v)


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
    w, e, absolute = _weights(t.size, sigma)

    positive = y > 0.0
    if np.count_nonzero(positive) < 2:
        raise UnidentifiableModelError("too few positive survival values")
    t_scale = float(np.max(np.abs(t)))
    tau = t / t_scale
    # the start: log y = log p0 - kappa tau by unweighted least squares
    tp, log_y = tau[positive], np.log(y[positive])
    t_mean, log_mean = float(tp.mean()), float(log_y.mean())
    tc = tp - t_mean
    den = float(tc @ tc)
    slope = float(tc @ (log_y - log_mean)) / den if den > 0.0 else 0.0
    if slope >= 0.0:
        raise UnidentifiableModelError("survival data does not decay")
    wy = w * y

    def residuals(p0, kappa):  # J = diag(w e^(-kappa tau)) [1, -tau] diag(1, p0)
        m = w * np.exp(-kappa * tau)
        return m, p0 * m - wy, 1.0, p0

    (p0, kappa), rss, cov_pk, nfev = _levenberg_marquardt(
        residuals, np.array([np.ones_like(tau), -tau]),
        [(math.exp(log_mean - slope * t_mean), -slope)], absolute,
        "lifetime fit did not converge")
    if kappa <= 0.0:
        raise UnidentifiableModelError("fitted survival rate is not positive")
    params = {"amplitude": float(p0), "lifetime_s": float(t_scale / kappa)}
    return _result("exponential", params, cov_pk, rss, nfev,
                   params["amplitude"] * np.exp(-t / params["lifetime_s"]),
                   (1.0, -params["lifetime_s"] / kappa), e)  # d(p0, lifetime) / d(p0, kappa)


def fit_ramsey_decay(series, eta) -> FitResult:
    """Ramsey envelope 1/e time and the atom temperature it implies.

    Fits the two-channel decay of the CoherenceSeries in tau = t / t_max,
    takes its 1/e time as T2*, and maps it to temperature via the
    thermometry relation with the supplied eta. The T2* error propagates
    through the closed-form 1/e time gradient in tau units, where neither
    t2**2 nor the covariance leaves the float range at any time scale.
    """
    t_max = float(series.t_s.max()) or 1.0  # a one-point series at t = 0 fails the point count
    (s, v), cov_sv, rss, nfev, e = _decay_fit(series.t_s / t_max, series.coherence,
                                              _series_sigma(series))
    tau_params = (float(abs(s)), float(v * v))
    # divided as numpy floats, as fit_coherence_decay does, so an overflow raises under "raise"
    params = DecayParams(*(float(np.float64(x) / t_max) for x in tau_params))
    t2star = t2_time(params)
    with np.errstate(over="ignore"):  # an inf error or rss, which FitResult refuses
        # d t2 / d(s, v) = d t2 / d(sigma, R) in tau units times (sign s, 2 v)
        grad = np.array(t2_gradient(DecayParams(*tau_params))) * (math.copysign(1.0, s), 2.0 * v)
        t2_err = float(np.ldexp(math.sqrt(max(float(grad @ cov_sv @ grad), 0.0)), -e)) * t_max
        rss = float(np.ldexp(rss, 2 * e))
    temperature = temperature_from_ramsey_t2star(t2star, eta)
    return FitResult(
        model="ramsey_decay",
        params={"t2star_s": float(t2star), "temperature_k": float(temperature)},
        uncertainties={"t2star_s": float(t2_err),
                       "temperature_k": float(temperature * t2_err / t2star)},
        rss=rss, n_iter=nfev, fitted=coherence(params, series.t_s))
