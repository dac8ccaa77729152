"""Fast, untimed tests of the benchmark's references against brute force.

    python3 -m pytest bench/test_refs.py -q

Needs numpy only; trapcoh is not imported.
"""

import math

import numpy as np
import pytest

import refs
from common import loglog_array, t2_problem
from run import import_times
from tracing import Tracer


@pytest.mark.parametrize("nbar", [0.0, 0.37, 4.3, 53.5, 385.0])
def test_thermal_moments_match_geometric_sum(nbar):
    n = np.arange(0, int(60 * (nbar + 1)) + 50, dtype=float)
    p = (nbar / (nbar + 1.0)) ** n / (nbar + 1.0)
    m1, m2 = refs.thermal_moments(nbar)
    assert math.isclose(float(np.sum(p * n)), m1, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(float(np.sum(p * n * n)), m2, rel_tol=1e-9, abs_tol=1e-12)


def test_loglog_reproduces_a_power_law_and_holds_its_ends():
    freqs = [1.0, 10.0, 300.0, 5400.0, 60600.0]
    law = [2e-11 * f ** -1.3 for f in freqs]
    for f in np.logspace(0.0, math.log10(60600.0), 57)[1:-1]:
        want = 2e-11 * f ** -1.3
        assert math.isclose(refs.loglog(freqs, law, f), want, rel_tol=1e-12)
        assert math.isclose(float(loglog_array(freqs, law, np.array([f]))[0]), want,
                            rel_tol=1e-12)
    assert refs.loglog(freqs, law, 0.01) == law[0]
    assert refs.loglog(freqs, law, 1e6) == law[-1]
    assert refs.loglog([5.0], [3e-12], 123.0) == 3e-12


def test_loglog_is_linear_in_log_f_on_a_zero_segment():
    freqs, values = [1.0, 100.0], [0.0, 4.0]
    assert math.isclose(refs.loglog(freqs, values, 10.0), 2.0, rel_tol=1e-12)


def brute_force_filter(f, pulses, t_total, steps=400_000):
    """|integral of s(t) e^{i w t} dt|^2 / T^2 by the midpoint rule."""
    t = (np.arange(steps) + 0.5) * (t_total / steps)
    s = (-1.0) ** np.searchsorted(np.asarray(pulses, dtype=float), t)
    w = 2.0 * math.pi * f
    amp = np.sum(s * np.exp(1j * w * t)) * (t_total / steps)
    return abs(amp) ** 2 / t_total ** 2


@pytest.mark.parametrize("f", [0.0, 0.37, 1.9, 12.5, 41.0])
def test_filter_closed_forms_match_the_sensitivity_integral(f):
    t_total = 0.2
    cases = [("ramsey", []), ("echo", [0.1]), ("cpmg", refs.cpmg_pulses(4, 0.05))]
    for kind, pulses in cases:
        want = brute_force_filter(f, pulses, t_total)
        got = float(refs.sequence_filter(kind, np.array([f]), t_total, pulses)[0])
        assert abs(got - want) <= 1e-6 * want + 1e-9, kind


def test_segment_sum_equals_the_closed_forms():
    f = np.logspace(-3.0, 3.0, 500)
    t_total = 0.8
    np.testing.assert_allclose(refs.segment_filter(f, [], t_total),
                               refs.ramsey_filter(f, t_total), rtol=1e-7, atol=1e-12)
    np.testing.assert_allclose(refs.segment_filter(f, [0.4], t_total),
                               refs.echo_filter(f, t_total), rtol=1e-7, atol=1e-12)


def test_white_welch_level_matches_a_hand_rolled_welch():
    rng = np.random.default_rng(5)
    fs, sigma_r, seg = 250e3, 3e-3, 2048
    x = sigma_r * rng.standard_normal(2 ** 18)
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(seg) / seg)
    starts = range(0, x.size - seg + 1, seg // 2)
    power = np.zeros(seg // 2 + 1)
    for start in starts:
        chunk = x[start:start + seg]
        power += np.abs(np.fft.rfft((chunk - chunk.mean()) * window)) ** 2
    psd = 2.0 * power / (len(starts) * fs * np.sum(window ** 2))
    level = float(np.mean(psd[1:-1]))
    assert math.isclose(level, refs.white_welch_level(sigma_r, fs), rel_tol=0.01)


def test_t2_bisection_matches_the_stable_closed_form():
    for sigma, rate in [(7.54, 0.0), (15.0, 5.14), (2.1, 7e4), (1e-3, 3.0)]:
        want = 2.0 / (rate + math.sqrt(rate * rate + 2.0 * sigma * sigma))
        assert math.isclose(refs.t2(sigma, rate), want, rel_tol=1e-12)
        assert abs(refs.t2_residual(sigma, rate, want)) < 1e-12


def test_mc_decay_z_is_a_unit_normal_score():
    rng = np.random.default_rng(7)
    sigma, rate, n = 10.0, 5.0, 2000
    t = np.array([0.0, 1e-6, 0.05, 0.1, 0.2])
    worst = []
    scores = []
    for _ in range(400):
        g = np.cos(np.outer(rng.normal(0.0, sigma, n), t)).mean(axis=0)
        s = (rng.exponential(1.0 / rate, n)[:, None] > t).mean(axis=0)
        worst.append(refs.mc_decay_z(sigma, rate, n, t, g * s))
        scores.append(refs.mc_decay_z(sigma, rate, n, t[3:4], (g * s)[3:4]))
    assert max(worst) < 5.0
    assert 0.9 < math.sqrt(np.mean(np.square(scores))) < 1.1


def test_import_times_counts_a_package_whose_own_line_is_missing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |        700 |     scipy.signal._a",
        "import time:        10 |         10 |     scipy.signal.b",
        "import time:       400 |       1500 |   trapcoh.noise",
        "import time:        90 |       2000 | trapcoh",
    ])
    got = import_times(stderr)
    assert got["trapcoh"] == pytest.approx(2000e-6)
    assert got["numpy"] == pytest.approx(300e-6)
    assert got["scipy_signal"] == pytest.approx(710e-6)
    assert got["scipy_optimize"] == 0.0


def test_self_time_subtracts_direct_children():
    tr = Tracer(True)
    tr.spans = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0], ["b", 2.0, 3.0, 1, 0]]
    times = tr.self_times()
    assert times["op"] == [7.0] and times["a"] == [2.0] and times["b"] == [1.0]


def test_t2_problem_passes_a_stable_root_and_catches_cancellation():
    # sigma << R: the stable form 2 / (R + sqrt(R^2 + 2 s^2)) keeps its digits,
    # (-R + sqrt(R^2 + 2 s^2)) / s^2 loses them
    for sigma, rate in [(7.6, 0.18), (4.5e-7, 0.1995), (1e-3, 50.0)]:
        stable = 2.0 / (rate + math.sqrt(rate * rate + 2.0 * sigma * sigma))
        assert t2_problem(stable, sigma, rate) is None
    sigma, rate = 4.5e-7, 0.1995
    cancelling = (-rate + math.sqrt(rate * rate + 2.0 * sigma * sigma)) / (sigma * sigma)
    assert t2_problem(cancelling, sigma, rate) is not None
    # the tolerances widen the accepted interval to the 1/e times at their ends
    assert t2_problem(1.0 / rate, sigma, rate) is not None
    assert t2_problem(1.0 / rate, sigma, rate, 0.0, 1e-6 * rate) is None
