"""Reproduction table: headline model outputs against reference values.

Each row recomputes one quantity from the bundled presets and compares
it with the reference value at a stated tolerance. All rows must pass
on a fresh checkout; the CLI turns any failure into a nonzero exit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import noise as noise_mod
from . import phonon, sequences, trap
from .coherence import (DecayParams, gaussian_channel_mc, lifetime_corrected_t2,
                        scattering_decay_rate, scattering_params,
                        t2_time, temperature_from_ramsey_t2star)


@dataclass(frozen=True)
class ReportRow:
    name: str
    expected: str
    computed: str
    criterion: str
    passed: bool

    def to_json_obj(self):
        return {**asdict(self), "passed": bool(self.passed)}


def _rel(name, computed, expected, tol) -> ReportRow:
    ok = math.isfinite(computed) and abs(computed - expected) <= tol * abs(expected)
    return ReportRow(name, f"{expected:.6g}", f"{computed:.6g}",
                     f"relative error <= {tol:g}", ok)


def _below(name, computed, bound) -> ReportRow:
    ok = math.isfinite(computed) and computed < bound
    return ReportRow(name, f"< {bound:.3g}", f"{computed:.6g}", "upper bound", ok)


def _order(name, computed, expected) -> ReportRow:
    """Same order of magnitude: within half a decade of the reference."""
    ok = computed > 0.0 and abs(math.log10(computed / expected)) <= 0.5
    return ReportRow(name, f"~{expected:.3g}", f"{computed:.6g}",
                     "within half a decade", ok)


def build_report(mc_seed=11, mc_trajectories=100_000):
    cs = trap.TrapConfig.load_preset("cs133")
    bbt = trap.TrapConfig.load_preset("bbt780")
    rin_free = noise_mod.NoiseSpectrum.load_preset("rin_free")
    rin_40db = noise_mod.NoiseSpectrum.load_preset("rin_40db")
    rin_flat = noise_mod.NoiseSpectrum.load_preset("rin_flat_140")
    rows = []

    # 1/e coherence times of the two-channel decay
    for s, r, want, tol in [(7.54, 0.0, 0.188, 0.03), (15.0, 5.14, 0.075, 0.03),
                            (0.51, 0.0, 2.8, 0.05), (0.020, 0.058, 16.6, 0.05)]:
        rows.append(_rel(f"t2_sigma{s:g}_r{r:g}",
                         t2_time(DecayParams(s, r)), want, tol))

    rows.append(_rel("t2_lifetime_corrected",
                     lifetime_corrected_t2(16.6, 105.5), 19.7, 0.01))

    # thermal phonon jumping rates from the measured RIN levels at 14 uK
    t_atom = 14e-6
    r40 = phonon.classical_thermal_rate(cs, phonon.TrapNoise.uniform(spring=rin_40db), t_atom)
    rfree = phonon.classical_thermal_rate(cs, phonon.TrapNoise.uniform(spring=rin_free), t_atom)
    rows.append(_rel("pjr_thermal_40db", r40, 6.5, 0.15))
    rows.append(_rel("pjr_thermal_free", rfree, 0.5, 0.15))
    rows.append(_rel("pjr_thermal_added_noise_delta", r40 - rfree, 6.0, 0.15))

    rows.append(_rel("dbc_m104", noise_mod.dbc_to_psd(-104.0), 3.981e-11, 0.005))
    rows.append(_rel("dbc_m146", noise_mod.dbc_to_psd(-146.0), 2.512e-15, 0.005))

    # Ramsey thermometry with the derived shift ratios (eta is derived,
    # not measured, hence the loose tolerance)
    rows.append(_rel("ramsey_temperature_1052nm",
                     temperature_from_ramsey_t2star(5.49e-3, cs.eta), 17.6e-6, 0.25))
    rows.append(_rel("ramsey_temperature_780nm",
                     temperature_from_ramsey_t2star(298e-3, bbt.eta), 200e-9, 0.25))

    # per-level rate identity: axis total equals the four-transition sum
    worst = 0.0
    for omega in cs.omegas:
        sk = phonon.psd_f_to_omega(rin_40db.evaluate(omega / np.pi))
        sx = 1e-22
        for n in range(51):
            total = phonon.axis_jump_rate(omega, cs.species.mass_kg, sk, sx, n)
            parts = sum(phonon.intensity_jump_rate(omega, sk, n, step)
                        for step in (2, -2) if n + step >= 0)
            parts += sum(phonon.pointing_jump_rate(omega, cs.species.mass_kg, sx, n, step)
                         for step in (1, -1) if n + step >= 0)
            worst = max(worst, abs(total - parts) / total)
    rows.append(ReportRow("rate_identity_n0_50", "< 1e-12", f"{worst:.3g}",
                          "max relative error over n, axes", worst < 1e-12))

    # scattering-limited decay: adiabatic elimination vs the exact two-level eigenvalue
    gamma = 1.0
    closed = 1.0 / scattering_params(gamma, 100.0 * gamma, gamma).t2_s
    exact = scattering_decay_rate(gamma, 100.0 * gamma, gamma)
    rows.append(_rel("scattering_rate_detuning_100", exact, closed, 0.01))

    # Monte-Carlo spot check of the Gaussian channel
    mc = gaussian_channel_mc(1.0, mc_trajectories, mc_seed, np.array([0.0, 1.0]))
    dev = abs(mc.coherence[1] - math.exp(-0.5))
    bound = 4.0 / math.sqrt(mc_trajectories)
    rows.append(ReportRow("gaussian_channel_mc", f"exp(-1/2) +- {bound:.3g}",
                          f"{mc.coherence[1]:.6g}", "within 4/sqrt(n_traj)", dev <= bound))

    # low-frequency suppression of a 20-pulse CPMG train vs free precession
    low = noise_mod.NoiseSpectrum("spring_fractional",
                                  [1e-4, 0.01, 0.0101, 1.0], [1.0, 1.0, 1e-30, 1e-30])
    sig_ramsey = sequences.filtered_sigma(sequences.ramsey(0.8), low)
    sig_cpmg = sequences.filtered_sigma(sequences.cpmg(20, 0.8), low)
    factor = sig_ramsey / sig_cpmg
    rows.append(ReportRow("cpmg20_low_freq_suppression", "> 100", f"{factor:.6g}",
                          "sigma_eff ratio vs free precession", factor > 100.0))

    # bottle-trap bounds (inputs partly representative: order of magnitude)
    occ0 = trap.FixedOccupation(0, 0, 0)
    rows.append(_order("bbt_dls_sigma_bound", abs(trap.dls_sigma(bbt, occ0)), 3.0e-3))
    r_bbt = phonon.total_jump_rate(bbt, phonon.TrapNoise.uniform(spring=rin_flat), occ0)
    rows.append(_below("bbt_ground_state_pjr", r_bbt.total, 1e-5))

    return rows


def all_passed(rows) -> bool:
    return bool(all(row.passed for row in rows))


def to_json_obj(rows):
    return {"rows": [row.to_json_obj() for row in rows], "all_passed": all_passed(rows)}


def to_markdown(rows) -> str:
    lines = [
        "# Reproduction report",
        "",
        "| check | expected | computed | criterion | pass |",
        "| --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        mark = "yes" if row.passed else "**NO**"
        lines.append(f"| {row.name} | {row.expected} | {row.computed} "
                     f"| {row.criterion} | {mark} |")
    lines.append("")
    status = "All checks passed." if all_passed(rows) else "SOME CHECKS FAILED."
    lines.append(status)
    lines.append("")
    return "\n".join(lines)
