"""Weighted least-squares fitters: fringe, decay, lifetime, thermometry."""

import math
from importlib import resources

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from trapcoh import (
    CoherenceSeries,
    DecayParams,
    DomainError,
    FitConvergenceError,
    TrapcohError,
    UnidentifiableModelError,
    analytic_series,
    coherence,
    fit_coherence_decay,
    fit_exponential,
    fit_fringe,
    fit_ramsey_decay,
    ramsey_t2star_from_temperature,
    t2_gradient,
    t2_time,
    temperature_from_ramsey_t2star,
)
from trapcoh import fitting, io

ETA_1052 = 1.5291931912736172e-4


def noisy_series(sigma_dls, pjr, seed, sd=0.03, t_max=0.16, points=12):
    t = np.linspace(0.0, t_max, points)
    truth = coherence(DecayParams(sigma_dls, pjr), t)
    rng = np.random.default_rng(seed)
    c = np.clip(truth + rng.normal(0.0, sd, size=t.size), -0.05, 1.05)
    return CoherenceSeries(t, c, np.full(t.size, sd))


def test_fringe_exact_recovery():
    phases = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    population = 0.5 + 0.5 * 0.32 * np.cos(phases - 0.7)
    result = fit_fringe(phases, population)
    assert result.converged
    assert result.params["amplitude"] == pytest.approx(0.32, rel=1e-9)
    assert result.params["phase_rad"] == pytest.approx(0.7, rel=1e-9)
    assert result.params["baseline"] == pytest.approx(0.5, rel=1e-9)
    assert result.rss < 1e-18


def test_fringe_negative_amplitude_normalized():
    phases = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    population = 0.5 - 0.5 * 0.4 * np.cos(phases)  # amplitude -0.4 at phase 0
    result = fit_fringe(phases, population)
    assert result.params["amplitude"] == pytest.approx(0.4, rel=1e-9)
    assert abs(result.params["phase_rad"]) == pytest.approx(math.pi, rel=1e-9)
    assert -math.pi <= result.params["phase_rad"] < math.pi


def test_fringe_flat_data_reports_zero_contrast():
    phases = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    result = fit_fringe(phases, np.full(10, 0.5))
    assert result.params["amplitude"] <= 2.0 * result.uncertainties["amplitude"] + 1e-12
    assert result.params["baseline"] == pytest.approx(0.5, abs=1e-9)


def test_fringe_weighted():
    phases = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    population = 0.5 + 0.5 * 0.3 * np.cos(phases - 0.2)
    sigma = np.full(12, 0.01)
    result = fit_fringe(phases, population, sigma=sigma)
    assert result.params["amplitude"] == pytest.approx(0.3, rel=1e-6)
    assert result.uncertainties["amplitude"] > 0.0


def test_fringe_validation():
    phases = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    with pytest.raises(DomainError):
        fit_fringe(phases[:3], np.full(3, 0.5))
    with pytest.raises(DomainError):
        fit_fringe(np.linspace(0.0, 1.0, 8), np.full(8, 0.5))  # span too short
    with pytest.raises(DomainError):
        fit_fringe(phases, np.full(8, 0.5), sigma=np.full(8, 0.0))
    with pytest.raises(DomainError):
        fit_fringe(phases, np.full(7, 0.5))


def test_fringe_fit_calls_no_solver(monkeypatch):
    # the fringe is linear in (b, (A/2) cos phi0, (A/2) sin phi0): one linear solve
    def no_solver(*args, **kwargs):
        raise AssertionError("fit_fringe ran the nonlinear solver")

    monkeypatch.setattr(fitting, "_levenberg_marquardt", no_solver)
    phases = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    result = fit_fringe(phases, 0.5 + 0.5 * 0.32 * np.cos(phases - 0.7))
    assert result.n_iter == 0
    assert result.params["amplitude"] == pytest.approx(0.32, rel=1e-9)
    assert result.params["phase_rad"] == pytest.approx(0.7, rel=1e-9)


def lm_fringe(phi, y, sigma):
    """Reference: LM from the linear solve, as fit_fringe ran before its closed form."""
    w = np.ones_like(phi) if sigma is None else 1.0 / sigma
    design = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    (b0, c1, c2), *_ = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)

    def fun(x):
        return w * (x[2] + 0.5 * x[0] * np.cos(phi - x[1]) - y)

    def jac(x):
        return np.column_stack([w * 0.5 * np.cos(phi - x[1]),
                                w * 0.5 * x[0] * np.sin(phi - x[1]), w])

    x0 = [2.0 * math.hypot(c1, c2), math.atan2(c2, c1), b0]
    res = least_squares(fun, x0, jac=jac, method="lm", xtol=1e-12, ftol=1e-12, gtol=1e-12)
    return res.x, 2.0 * res.cost


@pytest.mark.parametrize("kind", ["unweighted", "weighted", "zero_contrast"])
def test_fringe_closed_form_is_the_lm_optimum(kind):
    rng = np.random.default_rng(["unweighted", "weighted", "zero_contrast"].index(kind))
    for _ in range(30):
        phi = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(6, 40))))
        phi[-1] = phi[0] + 4.0  # more than half a period
        amp = 0.0 if kind == "zero_contrast" else rng.uniform(0.1, 1.0)
        y = 0.5 + 0.5 * amp * np.cos(phi - rng.uniform(-3.0, 3.0)) \
            + rng.normal(0.0, 0.03, phi.size)
        sigma = rng.uniform(0.01, 0.05, phi.size) if kind == "weighted" else None
        result = fit_fringe(phi, y, sigma)
        (amp_lm, phase_lm, base_lm), rss_lm = lm_fringe(phi, y, sigma)
        assert result.rss == pytest.approx(rss_lm, rel=1e-12)
        assert result.params["baseline"] == pytest.approx(base_lm, rel=1e-12)
        assert result.params["amplitude"] == pytest.approx(amp_lm, rel=1e-12)
        assert math.cos(result.params["phase_rad"] - phase_lm) == pytest.approx(1.0, abs=1e-12)


def test_fit_result_json_contract():
    phases = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    result = fit_fringe(phases, 0.5 + 0.2 * np.cos(phases))
    obj = result.to_json_obj()
    assert set(obj) == {"model", "params", "uncertainties", "rss", "n_iter", "converged"}
    assert obj["n_iter"] == 0
    assert obj["model"] == "fringe"
    assert set(obj["params"]) == {"amplitude", "phase_rad", "baseline"}
    assert isinstance(obj["converged"], bool)


def test_decay_noiseless_round_trip():
    for sigma_dls, pjr in [(15.0, 5.14), (2.0, 0.3), (7.54, 0.0)]:
        series = analytic_series(DecayParams(sigma_dls, pjr), np.linspace(0.0, 0.3, 16))
        result = fit_coherence_decay(series)
        assert result.converged
        assert result.params["sigma_dls_rad_s"] == pytest.approx(sigma_dls, rel=1e-6, abs=1e-6)
        assert result.params["pjr_per_s"] == pytest.approx(pjr, rel=1e-6, abs=1e-6)
        assert result.rss < 1e-10


def test_decay_series_sigma_weights_or_refuses():
    t = np.linspace(0.0, 0.3, 16)
    series = analytic_series(DecayParams(15.0, 5.14), t)
    # an all-zero sigma, as analytic_series makes, fits unweighted
    assert fit_coherence_decay(series).rss < 1e-10
    # one zero among positive cells was once dropped with the whole column
    sigma = np.full(t.size, 0.01)
    sigma[4] = 0.0
    mixed = CoherenceSeries(t, series.coherence, sigma)
    with pytest.raises(DomainError, match="sigma values must be positive"):
        fit_coherence_decay(mixed)
    with pytest.raises(DomainError, match="sigma values must be positive"):
        fit_coherence_decay(t, series.coherence, sigma)


def test_decay_pure_exponential_boundary():
    series = analytic_series(DecayParams(0.0, 3.0), np.linspace(0.0, 1.2, 14))
    result = fit_coherence_decay(series)
    assert result.params["pjr_per_s"] == pytest.approx(3.0, rel=1e-6)
    # the Gaussian channel collapses to the boundary, to within noise floor
    assert result.params["sigma_dls_rad_s"] <= \
        2.0 * result.uncertainties["sigma_dls_rad_s"] + 1e-5


def test_decay_accepts_arrays_and_series_equally():
    series = noisy_series(15.0, 5.14, seed=2257)
    from_series = fit_coherence_decay(series)
    from_arrays = fit_coherence_decay(series.t_s, series.coherence, sigma=series.sigma)
    assert from_series.params == from_arrays.params
    assert from_series.uncertainties == from_arrays.uncertainties


def bundled_series():
    path = resources.files("trapcoh.data") / "decay_noisy_synthetic.csv"
    cols = io.read_csv(str(path), CoherenceSeries.COLUMNS)
    return CoherenceSeries(*(cols[name] for name in CoherenceSeries.COLUMNS))


def test_decay_bundled_dataset_recovery():
    result = fit_coherence_decay(bundled_series())
    assert result.converged
    for name, truth in (("sigma_dls_rad_s", 15.0), ("pjr_per_s", 5.14)):
        pull = abs(result.params[name] - truth) / result.uncertainties[name]
        assert pull < 3.0


def decay_draw(rng):
    """Weighted noisy decay to C = e^-3 from drawn (sigma_dls, R) and noise."""
    sigma_dls, pjr = rng.uniform(5.0, 20.0), rng.uniform(2.0, 10.0)
    t_max = t2_time(DecayParams(sigma_dls / math.sqrt(3.0), pjr / 3.0))
    return noisy_series(sigma_dls, pjr, seed=int(rng.integers(2 ** 31)),
                        sd=rng.uniform(0.005, 0.02), t_max=t_max, points=40)


def direct_covariance(series, result):
    """(J^T J)^-1 with J the whitened Jacobian taken directly in (sigma_dls, R)."""
    s, r = result.params["sigma_dls_rad_s"], result.params["pjr_per_s"]
    t = series.t_s
    model = coherence(DecayParams(s, r), t)
    jac = np.column_stack([-s * t * t * model, -t * model]) / series.sigma[:, None]
    return np.linalg.inv(jac.T @ jac)


@pytest.mark.parametrize("mirrored", [False, True])
def test_decay_covariance_is_the_direct_one(monkeypatch, mirrored):
    # the fit works in s = sigma_dls t_max and v = sqrt(R t_max); starts mirrored to
    # (-s, v) or (s, -v) land on the optimum with s < 0 or v < 0, which must give the
    # same (sigma_dls, R) covariance
    lm = fitting._levenberg_marquardt
    for mirror in [(-1.0, 1.0), (1.0, -1.0)] if mirrored else [(1.0, 1.0)]:
        def mirrored_lm(fun, jac, starts, *rest, mirror=mirror):
            x, *out = lm(fun, jac, [np.multiply(mirror, x0) for x0 in starts], *rest)
            assert np.array_equal(np.sign(x), mirror)  # the optimum on the mirrored side
            return (x, *out)

        monkeypatch.setattr(fitting, "_levenberg_marquardt", mirrored_lm)
        check_direct_covariance()


def check_direct_covariance():
    rng = np.random.default_rng(4)
    for series in [bundled_series(), *(decay_draw(rng) for _ in range(20))]:
        result = fit_coherence_decay(series)
        np.testing.assert_allclose(result.covariance, direct_covariance(series, result),
                                   rtol=1e-9)
    # ... and so the T2* uncertainty that fit_ramsey_decay propagates from it
    series = bundled_series()
    fit = fit_coherence_decay(series)
    grad = np.array(t2_gradient(DecayParams(fit.params["sigma_dls_rad_s"],
                                            fit.params["pjr_per_s"])))
    t2_err = fit_ramsey_decay(series, ETA_1052).uncertainties["t2star_s"]
    assert t2_err == pytest.approx(math.sqrt(grad @ direct_covariance(series, fit) @ grad),
                                   rel=1e-9)
    assert t2_err == pytest.approx(1.61e-3, rel=1e-2)


def test_decay_replication_scales_uncertainties():
    # quadrupling the measurement replicates halves both error bars
    base = noisy_series(15.0, 5.14, seed=11)
    t4 = np.repeat(base.t_s, 4)
    order = np.argsort(t4, kind="stable")
    c4 = np.repeat(base.coherence, 4)[order]
    s4 = np.repeat(base.sigma, 4)[order]
    # strictly increasing times are required; nudge replicate times apart
    t4 = t4[order] + np.tile([0.0, 1e-9, 2e-9, 3e-9], base.t_s.size)
    one = fit_coherence_decay(base)
    four = fit_coherence_decay(t4, c4, sigma=s4)
    for name in ("sigma_dls_rad_s", "pjr_per_s"):
        ratio = one.uncertainties[name] / four.uncertainties[name]
        assert ratio == pytest.approx(2.0, rel=1e-3)


def test_decay_order_invariance():
    series = noisy_series(15.0, 5.14, seed=5)
    rng = np.random.default_rng(0)
    perm = rng.permutation(series.t_s.size)
    # feed the same points shuffled through the array interface
    shuffled = fit_coherence_decay(series.t_s[perm], series.coherence[perm],
                                   sigma=series.sigma[perm])
    straight = fit_coherence_decay(series)
    for name in ("sigma_dls_rad_s", "pjr_per_s"):
        assert shuffled.params[name] == pytest.approx(straight.params[name], rel=1e-6)


@pytest.mark.parametrize("k", [1e-170, 1e-3, 1.0, 1e3, 1e150])
def test_decay_fit_is_scale_free(k):
    # the fit runs on t / t_max, so stretching time by k divides both rates by k
    series = noisy_series(15.0, 5.14, seed=5)
    ref = fit_coherence_decay(series)
    got = fit_coherence_decay(series.t_s * k, series.coherence, sigma=series.sigma)
    for name in ("sigma_dls_rad_s", "pjr_per_s"):
        assert got.params[name] == pytest.approx(ref.params[name] / k, rel=1e-9)
        assert got.uncertainties[name] == pytest.approx(ref.uncertainties[name] / k, rel=1e-9)
    assert got.rss == pytest.approx(ref.rss, rel=1e-12)


def stationary_point_40(terms, x):
    """(x0, x1) where the gradient J^T f of (1/2) sum f_i^2 is 0, by Newton at
    40 digits from the float pair x. terms(x0, x1) yields per point f and its
    first and second derivatives (f, f_0, f_1, f_00, f_01, f_11)."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(v)) for v in x]
        for _ in range(30):
            g0 = g1 = h00 = h01 = h11 = 0
            for f, j0, j1, k00, k01, k11 in terms(*x):
                g0 += f * j0
                g1 += f * j1
                h00 += j0 * j0 + f * k00
                h01 += j0 * j1 + f * k01
                h11 += j1 * j1 + f * k11
            det = h00 * h11 - h01 * h01
            step = [(h11 * g0 - h01 * g1) / det, (h00 * g1 - h01 * g0) / det]
            x = [xi - si for xi, si in zip(x, step)]
            if all(abs(si) <= mpmath.mpf(10) ** -35 * abs(xi) for si, xi in zip(step, x)):
                return [float(xi) for xi in x]
    raise AssertionError("Newton did not converge")


def mp_columns(*columns):
    return [[mpmath.mpf(float(v)) for v in col] for col in columns]


def decay_terms(t, c, sigma):
    """terms for f_i = (C(t_i) - c_i) / sigma_i, C = exp(-s**2 t**2 / 2 - r t), in (s, r)."""
    def terms(s, r):
        for ti, ci, si in zip(*mp_columns(t, c, sigma)):
            m = mpmath.exp(-s * s * ti * ti / 2 - r * ti) / si
            yield (m - ci / si, -s * ti ** 2 * m, -ti * m, (s * s * ti ** 4 - ti ** 2) * m,
                   s * ti ** 3 * m, ti ** 2 * m)
    return terms


def exponential_terms(t, y, sigma):
    """terms for f_i = (p0 exp(-k t_i) - y_i) / sigma_i in (p0, k)."""
    def terms(p0, k):
        for ti, yi, si in zip(*mp_columns(t, y, sigma)):
            e = mpmath.exp(-k * ti) / si
            yield p0 * e - yi / si, e, -ti * p0 * e, 0, -ti * e, ti * ti * p0 * e
    return terms


def sigma_scaled_fits():
    """name -> fit(scale): each fit on its own weighted table with sigma times scale."""
    series = noisy_series(15.0, 5.14, seed=5)
    t, y, sd = exponential_draw(np.random.default_rng(7))
    phases = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    population = 0.5 + 0.45 * np.cos(phases - 0.3) \
        + np.random.default_rng(25).normal(0.0, 0.02, 16)
    return {
        "coherence": lambda scale: fit_coherence_decay(series.t_s, series.coherence,
                                                       series.sigma * scale),
        "ramsey": lambda scale: fit_ramsey_decay(
            CoherenceSeries(series.t_s, series.coherence, series.sigma * scale), ETA_1052),
        "exponential": lambda scale: fit_exponential(t, y, sd * scale),
        "fringe": lambda scale: fit_fringe(phases, population, np.full(16, 0.02 * scale)),
    }


@pytest.mark.parametrize("k", [10, 200, 400, 500, -10, -200, -400, -500, -520])
def test_fits_are_invariant_under_a_power_of_two_scale_of_sigma(k):
    # the weights are 1 / sigma times the power of two that takes the largest
    # below 1, so sigma times 2**k gives the same whitened fit: the same params
    # and evaluations, the rss times 2**-2k and the uncertainties times 2**k,
    # exactly, and non_finite where those leave the float range (k = -520)
    for name, fit in sigma_scaled_fits().items():
        ref = fit(1.0)
        try:
            rss = math.ldexp(ref.rss, -2 * k)
            err = {key: math.ldexp(value, k) for key, value in ref.uncertainties.items()}
        except OverflowError:
            with pytest.raises(TrapcohError) as info:
                fit(2.0 ** k)
            assert info.value.kind == "non_finite", name
            continue
        got = fit(2.0 ** k)
        assert (got.params, got.n_iter) == (ref.params, ref.n_iter), name
        assert (got.rss, got.uncertainties) == (rss, err), name


@pytest.mark.parametrize("scale", [1e-78, 1e-100, 1e-150])
def test_large_weights_fit_to_the_optimum(scale):
    # with sigma times 1e-78 or less, the scaled-gradient stop once overflowed,
    # f.f (J^T J)_ii = inf, and passed each start as converged after 1 evaluation
    for name, fit in sigma_scaled_fits().items():
        ref, got = fit(1.0), fit(scale)
        for key, value in ref.params.items():
            assert got.params[key] == pytest.approx(value, rel=1e-9), (name, key)
            assert got.uncertainties[key] == pytest.approx(ref.uncertainties[key] * scale,
                                                           rel=1e-9), (name, key)
        assert got.rss == pytest.approx(ref.rss / scale ** 2, rel=1e-9), name


def test_decay_fit_keeps_the_first_of_runs_that_tie_within_rounding():
    # the bundled table's starts all land on one point, at costs that differ in
    # the last bits; a later run wins only where its cost is lower beyond the
    # rounding of the two, so sigma times any scale reports the same run
    series = bundled_series()
    ref = fit_coherence_decay(series.t_s, series.coherence, sigma=series.sigma)
    assert ref.n_iter == 10
    for scale in (1e-78, 1e150, 2.0 ** 300, 2.0 ** -300):
        got = fit_coherence_decay(series.t_s, series.coherence, sigma=series.sigma * scale)
        assert got.n_iter == ref.n_iter, scale
        for key, value in ref.params.items():
            assert got.params[key] == pytest.approx(value, rel=1e-12, abs=0.0), (scale, key)
        if math.frexp(scale)[0] == 0.5:  # a power of two: the same fit, bit for bit
            assert got.params == ref.params


@pytest.mark.parametrize("k", [1e-170, 1.0, 1e3, 1e150])
def test_decay_fit_lands_on_the_stationary_point(k):
    # the end game takes Gauss-Newton steps while they shrink, so the fit ends
    # on the root of J^T f = 0 to about 1e-12 at every time scale, wherever
    # rounding in the cost would have stopped a damped step
    rng = np.random.default_rng(4)
    for series in [bundled_series(), *(decay_draw(rng) for _ in range(20))]:
        t = series.t_s * k
        fit = fit_coherence_decay(t, series.coherence, sigma=series.sigma)
        got = [fit.params["sigma_dls_rad_s"], fit.params["pjr_per_s"]]
        want = stationary_point_40(decay_terms(t, series.coherence, series.sigma), got)
        np.testing.assert_allclose(got, want, rtol=1e-11)


@pytest.mark.parametrize("k", [1e-170, 1e-3, 1.0, 1e3, 1e150])
def test_exponential_fit_lands_on_the_stationary_point(k):
    # fit_exponential runs in (p0, kappa = k max|t|) on t / max|t|, so its
    # relative-step stop weighs p0 against a rate of order 1 at every time scale
    rng = np.random.default_rng(5)
    for _ in range(20):
        t, y, sd = exponential_draw(rng)
        fit = fit_exponential(t * k, y, sd)
        got = [fit.params["amplitude"], 1.0 / fit.params["lifetime_s"]]
        want = stationary_point_40(exponential_terms(t * k, y, sd), got)
        np.testing.assert_allclose(got, want, rtol=1e-11)


def test_decay_fit_evaluations_stay_below_the_rejection_cascade(monkeypatch):
    # before the end game each run ended in a cascade of rejected trials, mu
    # doubling until the step fell below 1e-12 ||x||: these 100 fits then made
    # 3,389 residual evaluations over all starts (2,744 with the end game)
    lm, count = fitting._levenberg_marquardt, [0]

    def counting_lm(residuals, *rest):
        def counted(*x):
            count[0] += 1
            return residuals(*x)
        return lm(counted, *rest)

    monkeypatch.setattr(fitting, "_levenberg_marquardt", counting_lm)
    rng = np.random.default_rng(26)
    for _ in range(100):
        fit_coherence_decay(decay_draw(rng))
    assert count[0] < 3389


@pytest.mark.parametrize("model", ["coherence", "exponential"])
def test_normal_equations_are_those_of_the_jacobian(monkeypatch, model):
    # each model hands LM J^T J and J^T f from rows of its basis against m**2 and
    # m f; they must be those of its Jacobian, written out here in full, to
    # 1e-13 of the terms each sum adds up, at any weight scale
    run, captured = fitting._lm_run, []

    def capturing_run(residuals, normal, *rest):
        captured.append((residuals, normal, *rest))
        return run(residuals, normal, *rest)

    monkeypatch.setattr(fitting, "_lm_run", capturing_run)
    if model == "coherence":
        series = bundled_series()
        t, y, sd = series.t_s, series.coherence, series.sigma
    else:
        t, y, sd = exponential_draw(np.random.default_rng(6))
    tau = t / np.max(np.abs(t))
    for scale in (1e-150, 1.0, 1e150):
        captured.clear()
        fit = fit_coherence_decay if model == "coherence" else fit_exponential
        fit(t, y, sd * scale)
        w = fitting._weights(t.size, sd * scale)[0]
        assert np.all(w * sd * scale == (w * sd * scale)[0])  # 1 / sigma times one constant
        residuals, normal, x0, x1, point = captured[0]
        for x in ([x0, x1], [0.6, 1.7]):  # the start LM took, and another point
            f = (point := residuals(*x))[1]
            if model == "coherence":
                e = w * np.exp(-0.5 * x[0] ** 2 * tau ** 2 - x[1] ** 2 * tau)
                curve, jac = e, np.column_stack([-x[0] * tau ** 2 * e, -2.0 * x[1] * tau * e])
            else:
                e = w * np.exp(-x[1] * tau)
                curve, jac = x[0] * e, np.column_stack([e, -x[0] * tau * e])
            assert np.all(np.abs(f - (curve - w * y)) <= 1e-15 * (np.abs(curve) + np.abs(w * y)))
            a00, a01, a11, g0, g1 = normal(*point)
            np.testing.assert_allclose([[a00, a01], [a01, a11]], jac.T @ jac, rtol=1e-13)
            assert np.all(np.abs([g0, g1] - jac.T @ f) <= 1e-13 * (np.abs(jac).T @ np.abs(f)))


#: t_s, coherence, sigma where only the row at t = 722.6 s carries the model's
#: gradient (the later rows' J entries are below 1e-63): J^T J is singular to
#: working precision, and its inverse once printed uncertainties of 0.0
SINGULAR_DECAY = np.array([
    [0.0, 0.9911146423172468, 0.1563123401423609],
    [722.6369997275716, -0.026314158135003474, 0.10025455069719051],
    [2477.6808463504435, 0.022757628751851687, 0.14683413427440584],
    [2601.6197856973886, 0.01399621803766588, 0.012181730983229716]])


def test_singular_jtj_is_unidentifiable():
    with pytest.raises(UnidentifiableModelError, match="singular"):
        fit_coherence_decay(*SINGULAR_DECAY.T)
    with pytest.raises(UnidentifiableModelError, match="singular"):
        fit_ramsey_decay(CoherenceSeries(*SINGULAR_DECAY.T), ETA_1052)
    # a column within rounding of the other's span: the inverse of J^T J can come
    # out with positive diagonal entries, 1 / (1 - R^2) of the scale of 1 / eps
    u = np.array([1.0, 2.0, 3.0])
    for jac in (np.column_stack([u, u]), np.column_stack([u, u * (1.0 + 2.0 ** -52)]),
                np.column_stack([u, np.zeros(3)])):
        with pytest.raises(UnidentifiableModelError):
            fitting._covariance(jac.T @ jac, 1.0, 3, True)
    # a tiny but independent column is identifiable
    jac = np.column_stack([u, 1e-150 * np.array([1.0, -1.0, 0.0])])
    cov = fitting._covariance(jac.T @ jac, 1.0, 3, True)
    assert np.all(np.isfinite(cov)) and np.all(np.diag(cov) > 0.0)


def test_decay_corner_optimum_is_reached():
    # one 1e5 outlier puts the optimum at sigma_dls = R = 0, where C = 1 at every
    # point: a stationary corner that LM approaches only geometrically
    t = np.array([77.1, 132.7, 212.8, 488.4, 500.4, 689.6])
    c = np.array([0.507, 1e5, 0.254, 0.823, 0.531, 0.079])
    result = fit_coherence_decay(t, c, sigma=np.full(6, 0.02))
    assert result.rss <= 2.4999500007256934e13  # reached by the fit in sqrt(sigma_dls), sqrt(R)
    assert result.n_iter <= 300


def test_decay_degenerate_inputs():
    t = np.linspace(0.0, 0.01, 8)
    with pytest.raises(UnidentifiableModelError):
        fit_coherence_decay(t, np.full(8, 0.99))  # no visible decay
    with pytest.raises(UnidentifiableModelError):
        fit_coherence_decay(np.linspace(1.0, 1.2, 8), np.full(8, 0.02))  # fully decayed
    with pytest.raises(UnidentifiableModelError):
        fit_coherence_decay(np.full(8, 0.1), np.linspace(1.0, 0.5, 8))
    with pytest.raises(DomainError):
        fit_coherence_decay(t[:3], np.full(3, 0.5))
    with pytest.raises(DomainError):
        fit_coherence_decay(t, np.full(8, 0.5), sigma=np.full(8, -1.0))


@settings(max_examples=10, deadline=None)
@given(st.floats(2.0, 25.0), st.floats(0.5, 15.0))
def test_decay_noiseless_property(sigma_dls, pjr):
    params = DecayParams(sigma_dls, pjr)
    t_max = 2.0 * t2_time(params)
    series = analytic_series(params, np.linspace(0.0, t_max, 15))
    result = fit_coherence_decay(series)
    assert result.params["sigma_dls_rad_s"] == pytest.approx(sigma_dls, rel=1e-4)
    assert result.params["pjr_per_s"] == pytest.approx(pjr, rel=1e-4)


def test_exponential_exact_recovery():
    t = np.linspace(0.0, 300.0, 13)
    survival = 0.98 * np.exp(-t / 105.5)
    result = fit_exponential(t, survival)
    assert result.converged
    assert result.params["lifetime_s"] == pytest.approx(105.5, rel=1e-9)
    assert result.params["amplitude"] == pytest.approx(0.98, rel=1e-9)
    assert result.uncertainties["lifetime_s"] >= 0.0


def test_exponential_weighted_noisy():
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 300.0, 25)
    survival = np.exp(-t / 105.5) + rng.normal(0.0, 0.02, size=t.size)
    result = fit_exponential(t, survival, sigma=np.full(t.size, 0.02))
    pull = abs(result.params["lifetime_s"] - 105.5) / result.uncertainties["lifetime_s"]
    assert pull < 3.0


def test_exponential_rejects_growth():
    t = np.linspace(0.0, 10.0, 8)
    with pytest.raises(UnidentifiableModelError):
        fit_exponential(t, np.exp(+t / 20.0))
    with pytest.raises(DomainError):
        fit_exponential(t[:2], np.ones(2))


def exponential_model(t, y):
    """(residuals, basis) for LM of f = p exp(-k t) - y in (k, p):
    J = diag(exp(-k t)) [-t, 1]^T diag(p, 1)."""
    def residuals(k, p):
        m = np.exp(-k * t)
        return m, p * m - y, p, 1.0
    return residuals, np.array([-t, np.ones_like(t)])


def constant_model(f, m, basis, d):
    """(residuals, basis) for LM of the constant residuals f with the constant
    Jacobian diag(m) basis^T diag(d); trials records each point evaluated."""
    trials = []

    def residuals(x0, x1):
        trials.append((x0, x1))
        return np.asarray(m, dtype=float), np.asarray(f(x0), dtype=float), *d
    return residuals, np.asarray(basis, dtype=float), trials


def test_lm_skips_non_finite_starts():
    t = np.array([0.0, 1.0, 2.0])
    residuals, basis = exponential_model(t, np.exp(-0.5 * t))
    with np.errstate(all="raise"):
        x, rss, _, _ = fitting._levenberg_marquardt(residuals, basis,
                                                    [(-1000.0, 1.0), (0.1, 1.0)], False, "no fit")
        assert x[0] == pytest.approx(0.5, rel=1e-9)
        assert rss < 1e-20
        with pytest.raises(TrapcohError) as err:
            fitting._levenberg_marquardt(residuals, basis, [(-1000.0, 1.0)], False, "no fit")
    assert err.value.kind == "non_finite"


def test_lm_rejects_non_finite_trial_steps():
    # from k = 5 the first steps run to k << 0, where exp(-k t) overflows
    t = np.linspace(0.0, 10.0, 5)
    residuals, basis = exponential_model(t, np.exp(-0.5 * t))
    finite = []

    def recording(k, p):
        point = residuals(k, p)
        finite.append(bool(np.all(np.isfinite(point[1]))))
        return point

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        x, rss, _, nfev = fitting._levenberg_marquardt(recording, basis, [(5.0, 1.0)], False,
                                                       "no fit")
    assert not all(finite)
    assert x[0] == pytest.approx(0.5, rel=1e-9)
    assert rss < 1e-20
    assert nfev == len(finite)


def test_damped_step_matches_lapack():
    """_damped_step against np.linalg.solve (LAPACK dgesv) on 10,000 random
    damped normal matrices M = J^T J + mu I, with entries of J^T J from
    about 1e-150 to 1e150 and kappa = cond_inf(M) up to 1e12.

    Bound: both are LU with partial pivoting, so each returns the exact
    solution of (M + dM) h = -g with |dM| <= gamma_6 |L||U| (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., Thm. 9.4;
    gamma_k = k u / (1 - k u), u = 2**-53). With |l| <= 1 the rows of
    |L||U| sum to at most 3 ||M||_inf for n = 2, so ||dM||_inf <= d ||M||_inf
    with d = 3 gamma_6 ~ 18 u; take d = 24 u to cover a dgesv that scales by
    a reciprocal. Each is then within kappa d / (1 - kappa d) of the exact h
    (Higham, Thm. 7.2), so the two differ by at most
    2 kappa d / (1 - 2 kappa d) of the LAPACK solution, 4.3e-3 at 1e12.
    """
    rng = np.random.default_rng(2025)
    d = 24.0 * 2.0 ** -53
    n = 10_000
    # unit columns of J at an angle of 10^-8..1 rad, then scaled by 1e-75..1e75
    u, v = rng.standard_normal((2, n, 6))
    v -= u * (np.sum(u * v, axis=1) / np.sum(u * u, axis=1))[:, None]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    angle = 10.0 ** rng.uniform(-8.0, 0.0, (n, 1))
    cols = [u, np.cos(angle) * u + np.sin(angle) * v]
    scale = 10.0 ** rng.uniform(-75.0, 75.0, (n, 1, 2))
    jac = np.stack(cols, axis=2) * scale
    a = np.einsum("kri,krj->kij", jac, jac)
    diag = np.diagonal(a, axis1=1, axis2=2)
    mu = diag.max(axis=1) * 10.0 ** rng.uniform(-12.0, 0.0, n)
    m = a + mu[:, None, None] * np.eye(2)
    kappa = np.linalg.cond(m, np.inf)
    keep = kappa <= 1e12
    assert keep.sum() > 0.9 * n
    # g = J^T f, times 10^-10..10^10
    g = np.einsum("kri,kr->ki", jac, rng.standard_normal((n, 6)))
    g *= 10.0 ** rng.uniform(-10.0, 10.0, (n, 1))
    want = np.linalg.solve(m, -g[..., None])[..., 0]
    for k in np.flatnonzero(keep):
        (a00, a01), (_, a11) = a[k].tolist()
        got = np.array(fitting._damped_step(a00, a01, a11, *g[k].tolist(), float(mu[k])))
        err = np.max(np.abs(got - want[k])) / np.max(np.abs(want[k]))
        bound = 2.0 * kappa[k] * d / (1.0 - 2.0 * kappa[k] * d)
        assert err <= bound, (k, err, bound, kappa[k])
    assert kappa[keep].max() > 1e9


def test_lm_singular_step_ends_the_run():
    # J^T J underflows to all zeros, so mu starts at 0 and the damped
    # system is singular while J^T f is not: no start converges
    residuals, basis, _ = constant_model(lambda x0: np.ones(3), np.full(3, 1e-170),
                                         np.ones((2, 3)), (1.0, 1.0))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FitConvergenceError):
            fitting._levenberg_marquardt(residuals, basis, [(1.0, 1.0)], False, "no fit")


def test_lm_infinite_damping_ends_the_run():
    # the second column of J^T J overflows, so the first damping is inf:
    # (a + inf I) h = -g has h = 0, which must not pass as a converged step
    # (LAPACK's solve saw NaN off the diagonal, inf * 0, and failed)
    # J = [[1, 1e200], [2, 0], [0, 1e200]]
    residuals, basis, _ = constant_model(lambda x0: np.ones(3), np.ones(3),
                                         [[1.0, 2.0, 0.0], [1.0, 0.0, 1.0]], (1.0, 1e200))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(FitConvergenceError):
            fitting._levenberg_marquardt(residuals, basis, [(1.0, 1.0)], False, "no fit")


def test_lm_zero_predicted_gain_is_rejected():
    # residuals 1e-165 square to 0, J^T f = 1e-315 does not, and h (mu h - g)
    # underflows to 0 with no gain: rho = 0 / 0 rejects every trial step
    residuals, basis, trials = constant_model(lambda x0: np.full(2, 1e-165),
                                              np.full(2, 1e-150), np.eye(2), (1.0, 1.0))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        x, rss, _, nfev = fitting._levenberg_marquardt(residuals, basis, [(0.0, 0.0)], False,
                                                       "no fit")
    assert x[0] == 0.0 and rss == 0.0
    assert nfev == len(trials) > 2 and all(t[0] != 0.0 for t in trials[1:])


def test_lm_huge_gain_ratio_is_accepted():
    # J^T f = 1e-100 is tiny against the cost 2, which drops to 0 in a well
    # just below x0 = 1: once the damping brings a step into the well, rho is
    # about 1e110, and the damping update must not overflow on (2 rho - 1)**3
    residuals, basis, _ = constant_model(
        lambda x0: np.zeros(2) if 1e-12 < 1.0 - x0 < 1e-3 else np.ones(2),
        np.full(2, 1e-100), np.eye(2), (1.0, 1.0))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        x, rss, _, _ = fitting._levenberg_marquardt(residuals, basis, [(1.0, 1.0)], False,
                                                    "no fit")
    assert 1e-12 < 1.0 - x[0] < 1e-3
    assert rss == 0.0


def test_lm_evaluation_cap_raises(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_EVALUATIONS", 2)
    with pytest.raises(FitConvergenceError):
        fit_coherence_decay(noisy_series(15.0, 5.14, seed=5))
    with pytest.raises(FitConvergenceError):
        fit_exponential(np.linspace(0.0, 3.0, 10), np.exp(-np.linspace(0.0, 3.0, 10)) + 0.01)


def minpack_driver(residuals, basis, starts, absolute, failure):
    """Reference _levenberg_marquardt: scipy's MINPACK LM from each start, with
    the Jacobian diag(m) basis^T diag(d0, d1) of residuals(x) = (m, f, d0, d1)
    written out in full, and its covariance from that Jacobian."""
    def jac(x):
        m, _, d0, d1 = residuals(*x)
        return np.column_stack([d0 * m * basis[0], d1 * m * basis[1]])

    runs = [least_squares(lambda x: residuals(*x)[1], np.asarray(x0, dtype=float), jac=jac,
                          method="lm", xtol=1e-12, ftol=1e-12, gtol=1e-12,
                          max_nfev=fitting.MAX_EVALUATIONS)
            for x0 in starts]
    best = min((res for res in runs if res.success), key=lambda res: res.cost)
    rss = 2.0 * best.cost
    return best.x, rss, fitting._covariance(best.jac.T @ best.jac, rss, best.fun.size,
                                            absolute), best.nfev


def exponential_draw(rng):
    """Weighted noisy survival over three lifetimes, lifetime log-uniform in 0.5..10."""
    amplitude = rng.uniform(0.8, 1.0)
    lifetime = math.exp(rng.uniform(math.log(0.5), math.log(10.0)))
    t = np.linspace(0.0, 3.0 * lifetime, 30)
    sd = rng.uniform(0.005, 0.02)
    return t, amplitude * np.exp(-t / lifetime) + rng.normal(0.0, sd, t.size), np.full(30, sd)


@pytest.mark.parametrize("model", ["coherence", "ramsey", "exponential"])
def test_lm_matches_minpack(monkeypatch, model):
    rng = np.random.default_rng(["coherence", "ramsey", "exponential"].index(model))
    fit = {"coherence": fit_coherence_decay, "exponential": fit_exponential,
           "ramsey": lambda series: fit_ramsey_decay(series, ETA_1052)}[model]
    for _ in range(100):
        data = exponential_draw(rng) if model == "exponential" else (decay_draw(rng),)
        ours = fit(*data)
        with monkeypatch.context() as patch:
            patch.setattr(fitting, "_levenberg_marquardt", minpack_driver)
            oracle = fit(*data)
        assert ours.rss <= oracle.rss * (1.0 + 1e-12)
        for name in ours.params:
            assert ours.params[name] == pytest.approx(oracle.params[name], rel=1e-7)
            assert ours.uncertainties[name] == pytest.approx(oracle.uncertainties[name],
                                                             rel=1e-7)


def test_ramsey_decay_thermometry():
    temperature = 1.7650617687260866e-05
    t2star = ramsey_t2star_from_temperature(temperature, ETA_1052)
    sigma_dls = math.sqrt(2.0) / t2star
    t = np.linspace(0.0, 2.0 * t2star, 14)
    series = analytic_series(DecayParams(sigma_dls, 0.0), t)
    result = fit_ramsey_decay(series, ETA_1052)
    assert result.params["t2star_s"] == pytest.approx(t2star, rel=1e-6)
    assert result.params["temperature_k"] == pytest.approx(temperature, rel=1e-6)
    assert result.uncertainties["temperature_k"] >= 0.0


def test_ramsey_decay_noisy_consistency():
    truth_t2star = 5.49e-3
    sigma_dls = math.sqrt(2.0) / truth_t2star
    series = noisy_series(sigma_dls, 0.0, seed=31, sd=0.02,
                          t_max=2.0 * truth_t2star, points=16)
    result = fit_ramsey_decay(series, ETA_1052)
    truth_temp = temperature_from_ramsey_t2star(truth_t2star, ETA_1052)
    pull = abs(result.params["temperature_k"] - truth_temp) / \
        result.uncertainties["temperature_k"]
    assert pull < 3.0
    with pytest.raises(DomainError):
        fit_ramsey_decay(series, 0.0)


@pytest.mark.parametrize("rss,err", [(math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)],
                         ids=["rss_inf", "uncertainty_inf", "uncertainty_nan"])
def test_fit_result_refuses_what_the_cli_cannot_print(rss, err):
    # a document with an inf or NaN never exits 0, so no converged fit holds one
    with pytest.raises(TrapcohError) as info:
        fitting.FitResult("exponential", {"amplitude": 1.0}, {"amplitude": err}, rss, 3)
    assert info.value.kind == "non_finite"
