"""Weighted least-squares fitters: fringe, decay, lifetime, thermometry."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from trapcoh import (
    CoherenceSeries,
    DecayParams,
    DomainError,
    TrapcohError,
    UnidentifiableModelError,
    analytic_series,
    coherence,
    fit_coherence_decay,
    fit_exponential,
    fit_fringe,
    fit_ramsey_decay,
    ramsey_t2star_from_temperature,
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

    monkeypatch.setattr(fitting, "least_squares", no_solver)
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
    assert set(obj) == {"model", "params", "uncertainties", "rss", "converged"}
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


def test_decay_bundled_dataset_recovery():
    path = resources.files("trapcoh.data") / "decay_noisy_synthetic.csv"
    cols = io.read_csv(str(path), CoherenceSeries.COLUMNS)
    series = CoherenceSeries(*(cols[name] for name in CoherenceSeries.COLUMNS))
    result = fit_coherence_decay(series)
    assert result.converged
    for name, truth in (("sigma_dls_rad_s", 15.0), ("pjr_per_s", 5.14)):
        pull = abs(result.params[name] - truth) / result.uncertainties[name]
        assert pull < 3.0


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


def test_lm_skips_non_finite_starts():
    t = np.array([0.0, 1.0, 2.0])
    y = np.exp(-0.5 * t)

    def fun(x):
        return np.exp(-x[0] * t) - y

    def jac(x):
        return (-t * np.exp(-x[0] * t))[:, None]

    with np.errstate(all="raise"):
        x, rss, _, _ = fitting._levenberg_marquardt(fun, jac, [(-1000.0,), (0.1,)],
                                                    False, "no fit")
        assert x[0] == pytest.approx(0.5, rel=1e-9)
        assert rss < 1e-20
        with pytest.raises(TrapcohError) as err:
            fitting._levenberg_marquardt(fun, jac, [(-1000.0,)], False, "no fit")
    assert err.value.kind == "non_finite"


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
